"""The pair-list icrbi kernel against the dense reference it replaced.

`DenseKernel` below is the earlier kernel, which evaluated U and U' over the
whole (N, N+1) matrix on every Newton step.  The pair-list kernel performs
the same per-pair arithmetic on the admissible remote pairs only, so every
iterate must agree exactly: no tolerance anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import gen
from coopmec import icrbi
from coopmec.errors import NonConvergence
from coopmec.icrbi import (DualState, decisions_from, dual_scales,
                           repair_feasibility, step_size)
from coopmec.model import (feasibility_bounds, offload_power_derivs_vec,
                           offload_power_vec)


class DenseKernel:
    """Reference: the primal/dual maths on full (N, N+1) matrices."""

    def __init__(self, sc, bounds):
        self.sc = sc
        n = sc.n
        self.n = n
        self.cycles = np.array([t.cycles for t in sc.tasks])[:, None]
        self.bits = np.array([t.bits for t in sc.tasks])[:, None]
        self.deadline = np.array([t.deadline for t in sc.tasks])[:, None]
        self.phi = np.array([t.penalty for t in sc.tasks])
        self.w = np.array([t.power_price for t in sc.tasks])
        self.eta = np.array([sc.devices[i].eta for i in range(1, n + 1)])
        self.p_m = np.array([sc.devices[i].p_m for i in range(1, n + 1)])
        self.kappa_d = np.array([d.kappa for d in sc.devices])
        self.nu_d = np.array([d.nu for d in sc.devices])
        self.fmax_d = np.array([d.f_max for d in sc.devices])
        self.gains = sc.gains
        self.rows = np.arange(n)
        self.own = self.rows + 1
        own_mask = np.zeros((n, n + 1), dtype=bool)
        own_mask[self.rows, self.own] = True
        self.valid = ~bounds.blocked
        self.remote = self.valid & ~own_mask
        self.local_ok = self.valid[self.rows, self.own]
        self.lo = np.where(self.remote, bounds.f_lower, 1.0)
        self.hi = np.where(self.remote, bounds.f_upper, 2.0)
        self.f_min = (self.cycles / self.deadline)[:, 0]
        self.host_w = np.concatenate([[0.0], self.w])
        self.mu_scale, self.v_scale = dual_scales(sc, bounds)

    def _u(self, x):
        return offload_power_vec(self.cycles, self.bits, self.deadline, self.gains,
                                 self.sc.bandwidth, self.sc.noise_w, x)

    def _du(self, x):
        return offload_power_derivs_vec(self.cycles, self.bits, self.deadline,
                                        self.gains, self.sc.bandwidth,
                                        self.sc.noise_w, x)

    def _coeffs(self, duals):
        wi_eff = self.w + duals.mu
        wh_eff = np.concatenate([[0.0], self.w + duals.mu])
        c1 = (self.kappa_d * self.nu_d * wh_eff)[None, :] * (self.eta / wi_eff)[:, None]
        c2 = duals.v[None, :] * (self.eta / wi_eff)[:, None]
        return wi_eff, wh_eff, duals.v, c1, c2

    def _gamma_batch(self, c1, c2, warm=None, rtol=1e-9):
        act = self.remote.copy()
        lo, hi = self.lo, self.hi
        nu1 = (self.nu_d - 1.0)[None, :]
        nu2 = (self.nu_d - 2.0)[None, :]

        def g_of(x):
            du, d2u = self._du(np.where(act0, x, 2.0))
            xp = x ** nu1
            g = du + c1 * xp + c2
            gp = d2u + c1 * nu1 * x ** nu2
            scale = np.abs(du) + c1 * xp + np.abs(c2)
            return g, gp, scale

        act0 = act
        out = np.where(self.remote, lo, 0.0)
        g_lo, _, _ = g_of(lo)
        act = act & (g_lo < 0.0)
        g_hi, _, _ = g_of(hi)
        take_hi = act & (g_hi <= 0.0)
        out = np.where(take_hi, hi, out)
        act = act & ~take_hi

        if not act.any():
            return out
        a = lo.copy()
        b = hi.copy()
        if warm is not None:
            x = np.clip(warm, lo * (1 + 1e-12), hi * (1 - 1e-12))
        else:
            x = np.sqrt(lo * hi)
        act0 = act
        for _ in range(80):
            g, gp, scale = g_of(x)
            done = act & np.isfinite(g) & (np.abs(g) <= rtol * scale)
            out = np.where(done, x, out)
            act = act & ~done
            if not act.any():
                break
            neg = ~np.isfinite(g) | (g < 0.0)
            a = np.where(act & neg, x, a)
            b = np.where(act & ~neg, x, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - g / gp
            ok = np.isfinite(newton) & (newton > a) & (newton < b)
            x_new = np.where(ok, newton, np.sqrt(a * b))
            narrow = act & ((b - a) <= 1e-12 * b)
            out = np.where(narrow, x_new, out)
            act = act & ~narrow
            x = np.where(act, x_new, x)
            if not act.any():
                break
        out = np.where(act, x, out)
        return out

    def primal(self, duals, warm=None):
        n = self.n
        wi_eff, wh_eff, v_raw, c1, c2 = self._coeffs(duals)
        gamma = self._gamma_batch(c1, c2, warm)

        price_i = (wi_eff / self.eta)[:, None]
        comp_price = (wh_eff * self.kappa_d)[None, :]

        def lam_remote(x):
            return (price_i * self._u(x) + comp_price * x ** self.nu_d[None, :]
                    + v_raw[None, :] * x - self.phi[:, None])

        big = np.inf
        lam_min = np.where(self.remote,
                           np.minimum(np.minimum(lam_remote(self.lo),
                                                 lam_remote(self.hi)),
                                      lam_remote(gamma)),
                           big)
        own_kappa = self.kappa_d[self.own]
        own_nu = self.nu_d[self.own]
        lam_local = (wi_eff * own_kappa * self.f_min ** own_nu
                     + v_raw[self.own] * self.f_min - self.phi)
        lam_min[self.rows, self.own] = np.where(self.local_ok, lam_local, big)

        mtilde = self.valid & (lam_min <= 0.0)

        du_g, _ = self._du(np.where(self.remote, gamma, 2.0))
        with np.errstate(invalid="ignore"):
            intercept = price_i * (self._u(gamma) - gamma * du_g)
        intercept = np.where(mtilde & self.remote, intercept, np.inf)

        a = np.zeros((n, n + 1), dtype=np.int8)
        x = np.zeros((n, n + 1))
        any_option = mtilde.any(axis=1)
        take_local = mtilde[self.rows, self.own]
        remote_rows = any_option & ~take_local
        a[self.rows[take_local], self.own[take_local]] = 1
        x[self.rows[take_local], self.own[take_local]] = self.f_min[take_local]
        if remote_rows.any():
            best = np.argmin(intercept[remote_rows], axis=1)
            rr = self.rows[remote_rows]
            a[rr, best] = 1
            x[rr, best] = gamma[rr, best]
        return x, a, gamma

    def dual_step(self, duals, x, a):
        used_t = np.where(self.remote & (a > 0), self._u(x), 0.0)
        transmit_in = used_t.sum(axis=1) / self.eta
        hosted = (np.where(a > 0, x, 0.0) ** self.nu_d[None, :]) * self.kappa_d[None, :]
        compute_w = hosted[:, 1:].sum(axis=0)
        g_mu = self.mu_scale * (transmit_in + compute_w - self.p_m) / self.p_m
        load = np.where(a > 0, x, 0.0).sum(axis=0)
        g_v = self.v_scale * (load - self.fmax_d) / self.fmax_d
        s = step_size(duals.step_rule, duals.x0, duals.t)
        return DualState(mu=np.maximum(0.0, duals.mu + s * g_mu),
                         v=np.maximum(0.0, duals.v + s * g_v),
                         step_rule=duals.step_rule, x0=duals.x0, t=duals.t + 1)

    def reduced_cost(self, x, a):
        used_t = np.where(self.remote & (a > 0), self._u(x), 0.0)
        transmit = ((self.w / self.eta)[:, None] * used_t).sum()
        hosted = (np.where(a > 0, x, 0.0) ** self.nu_d[None, :]) * self.kappa_d[None, :]
        compute = (hosted * self.host_w[None, :]).sum()
        saved = (self.phi * (a.sum(axis=1) > 0)).sum()
        return float(transmit + compute - saved)


CELLS = {
    "default": {},
    "steep": dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2),
    "f0_8e9": dict(f0_max=8e9),
}


def replay(sc, max_iter=2000):
    """Run both kernels on the pair kernel's dual sequence, asserting that
    every iterate agrees; returns the reference's reduced costs and last
    decision matrix."""
    bounds = feasibility_bounds(sc)
    kern = icrbi._Kernel(sc, bounds)
    ref = DenseKernel(sc, bounds)
    duals = DualState.zeros(sc.n)
    warm = ref_warm = None
    costs = []
    eps = None
    for _ in range(max_iter):
        x, a, warm = kern.primal(duals, warm)
        rx, ra, ref_warm = ref.primal(duals, ref_warm)
        assert np.array_equal(x, rx)
        assert np.array_equal(a, ra)
        assert np.array_equal(warm, ref_warm[kern.ri, kern.rj])
        use = kern.evaluate(x, a)
        cost = kern.reduced_cost(use)
        assert cost == ref.reduced_cost(rx, ra)
        costs.append(cost)
        if eps is None:
            eps = max(1e-4 * abs(cost), 1e-12)
        elif abs(cost - costs[-2]) < eps:
            break
        nxt = kern.dual_step(duals, use)
        ref_nxt = ref.dual_step(duals, rx, ra)
        assert np.array_equal(nxt.mu, ref_nxt.mu)
        assert np.array_equal(nxt.v, ref_nxt.v)
        assert (nxt.step_rule, nxt.x0, nxt.t) == (ref_nxt.step_rule, ref_nxt.x0, ref_nxt.t)
        duals = nxt
    return costs, ra, bounds


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("n", [10, 30, 80])
def test_pair_kernel_matches_dense_reference(cell, n):
    for seed in range(2):
        sc = gen(n=n, seed=seed, **CELLS[cell])
        costs, ra, bounds = replay(sc)
        try:
            asg, trace = icrbi.solve(sc)
        except NonConvergence as exc:
            asg, trace = exc.assignment, exc.trace
        assert trace.reduced_cost == costs
        ref_asg = repair_feasibility(sc, decisions_from(ra), bounds)
        assert asg.target == ref_asg.target
        assert asg.f == ref_asg.f
        assert asg.p_t == ref_asg.p_t
        assert asg.cost == ref_asg.cost
