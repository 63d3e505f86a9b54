"""Iterative dual-relaxation offloading solver (CLI label: icrbi).

The binary placement variables are relaxed and the coupling constraints
(per-UE power, per-device frequency capacity) are priced by nonnegative
multipliers.  Each iteration minimises the priced objective exactly: for
every admissible (task, device) pair the stationary host frequency is the
root of a strictly increasing scalar function (clamped into the feasibility
window), each task then keeps the cheapest option that beats dropping, with
local execution taking priority whenever it survives the filter.  The
multipliers follow a projected subgradient step; each coordinate's
subgradient is normalised by the constraint magnitude (power budget or CPU
capacity) and preconditioned by a static price scale (dual_scales) so one
step scale works across the very different units of power and frequency.

The kernel keeps the admissible remote pairs as a flat list (a few percent
of the (N, N+1) matrix on a default cell) and computes every term that does
not depend on the multipliers once per solve.  The Newton iteration for the
stationary frequencies runs on 1-D arrays and drops each pair as soon as it
is resolved; the per-pair arithmetic is the one a dense evaluation would do,
so the iterates do not depend on the layout.  A task whose effective power
price w_i + mu_i is zero stays at the lower end of each window.

The relaxed iterate may violate capacity, so the final decision map is
re-committed through the matching module's residual-budget subproblem
(cheapest-to-place first, edge-server fallback, leftover capacity
redistributed); the returned assignment always validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matching
from .errors import InfeasiblePair, NonConvergence, UnknownAlgorithm
from .model import (Assignment, FeasibilityBounds, Scenario, balance_root,
                    device_speed_cap, feasibility_bounds, make_assignment,
                    offload_power_derivs_vec, offload_power_vec)

STEP_RULES = ("diminish", "square")


def step_size(rule: str, x0: float, t: int) -> float:
    """Step scale at iteration t (1-based)."""
    if rule == "diminish":
        return x0 / math.sqrt(t)
    if rule == "square":
        return x0 / t
    raise UnknownAlgorithm(f"step rule {rule!r}")


@dataclass(frozen=True)
class DualState:
    """Nonnegative constraint prices, in raw objective units.

    mu[i-1] prices UE i's power budget (adds to the task's per-watt price
    w_i), v[j] prices device j's CPU capacity (per cycle/s).  Updates use
    magnitude-normalised subgradients preconditioned by dual_scales() so a
    handful of O(0.1) steps reaches binding-level prices in either unit.
    """

    mu: np.ndarray
    v: np.ndarray
    step_rule: str = "diminish"
    x0: float = 0.1
    t: int = 1

    @classmethod
    def zeros(cls, n: int, step_rule: str = "diminish", x0: float = 0.1) -> "DualState":
        return cls(mu=np.zeros(n), v=np.zeros(n + 1), step_rule=step_rule, x0=x0)


@dataclass
class IcrbiTrace:
    """Per-iteration progress of one solve."""

    reduced_cost: list[float] = field(default_factory=list)
    num_assigned: list[int] = field(default_factory=list)
    mu_norm: list[float] = field(default_factory=list)
    v_norm: list[float] = field(default_factory=list)
    termination: str = ""
    eps: float = float("nan")
    n_root_pairs: int = 0

    @property
    def iterations(self) -> int:
        return len(self.reduced_cost)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iteration,reduced_cost,num_assigned,mu_norm,v_norm\n")
            for t in range(self.iterations):
                fh.write(f"{t + 1},{self.reduced_cost[t]!r},{self.num_assigned[t]},"
                         f"{self.mu_norm[t]!r},{self.v_norm[t]!r}\n")


def dual_scales(sc: Scenario, bounds: FeasibilityBounds) -> tuple[np.ndarray, np.ndarray]:
    """Per-constraint step preconditioners: the price at which each
    multiplier starts to bite.

    Power: UE i's budget competes with its own per-watt price, so mu steps
    are scaled by w_i.  Frequency: a capacity price only matters once it is
    comparable to the marginal power cost of one more cycle/s at the fast
    end, so v steps are scaled by that slope (mean weighted transmit slope
    into the edge server for device 0; the compute-power slope at the speed
    cap for UE hosts).  Without this, frequency prices sit ~9 orders of
    magnitude below binding level and the dual loop never moves.  Where no
    power price gives a slope (every task's w_i = 0), the server's scale
    falls back to the mean penalty per cycle/s of its capacity: a unit scale
    there would make the first step price every hosted task out at once."""
    n = sc.n
    w = np.array([t.power_price for t in sc.tasks])
    mu_scale = np.where(w > 0, w, 1.0)
    v_scale = np.ones(n + 1)
    v_scale[0] = np.mean([t.penalty for t in sc.tasks]) / sc.devices[0].f_max
    valid0 = ~bounds.blocked[:, 0]
    if valid0.any():
        cyc = np.array([t.cycles for t in sc.tasks])
        bits = np.array([t.bits for t in sc.tasks])
        dl = np.array([t.deadline for t in sc.tasks])
        eta = np.array([sc.devices[i].eta for i in range(1, n + 1)])
        f_up = np.where(valid0, bounds.f_upper[:, 0], 2.0 * cyc / dl)
        du, _ = offload_power_derivs_vec(cyc, bits, dl, sc.gains[:, 0],
                                         sc.bandwidth, sc.noise_w, f_up)
        slopes = (w / eta) * np.abs(du)
        mean_slope = float(slopes[valid0].mean())
        if math.isfinite(mean_slope) and mean_slope > 0:
            v_scale[0] = mean_slope
    for j in range(1, n + 1):
        dev = sc.devices[j]
        cap = device_speed_cap(dev)
        slope = w[j - 1] * dev.kappa * dev.nu * cap ** (dev.nu - 1.0)
        v_scale[j] = slope if slope > 0 else v_scale[0]
    return mu_scale, v_scale


# ---------------------------------------------------------------------------
# pair-list kernel


class _Usage(NamedTuple):
    """The committed pairs of one iterate, evaluated once and scattered into
    zero (N, N+1) matrices: upload power U(x) at the remote pairs, hosted
    CPU power kappa * x**nu, committed frequencies, and the 0/1 decisions."""

    transmit: np.ndarray
    hosted: np.ndarray
    freq: np.ndarray
    a: np.ndarray


class _Kernel:
    """Per-iteration primal/dual maths over the admissible remote pairs.

    Only a valid pair (task i, device j != i) has a stationary frequency, so
    those pairs are kept as a flat list: pair p is (task row ri[p], device
    rj[p]), in row-major order of the (N, N+1) remote mask.  The per-pair
    curve constants and every term that does not depend on the duals (U and
    U' at both window ends, the window ends raised to nu and nu - 1) are
    gathered once, here.  The decision rule still reads (N, N+1) matrices:
    primal scatters the per-pair minima and intercepts into them, so the
    argmin tie-break and the local-first priority work on the same values as
    a dense evaluation would.
    """

    def __init__(self, sc: Scenario, bounds: FeasibilityBounds):
        n = sc.n
        self.n = n
        self.bandwidth = sc.bandwidth
        self.noise_w = sc.noise_w
        cycles = np.array([t.cycles for t in sc.tasks])
        bits = np.array([t.bits for t in sc.tasks])
        deadline = np.array([t.deadline for t in sc.tasks])
        self.phi = np.array([t.penalty for t in sc.tasks])
        self.w = np.array([t.power_price for t in sc.tasks])
        self.eta = np.array([sc.devices[i].eta for i in range(1, n + 1)])
        self.p_m = np.array([sc.devices[i].p_m for i in range(1, n + 1)])
        self.kappa_d = np.array([d.kappa for d in sc.devices])
        nu_d = np.array([d.nu for d in sc.devices])
        self.nu_d = nu_d
        self.kappa_nu = self.kappa_d * nu_d
        self.fmax_d = np.array([d.f_max for d in sc.devices])
        self.host_w = np.concatenate([[0.0], self.w])      # compute price per device
        self.rows = np.arange(n)
        self.own = self.rows + 1
        own_mask = np.zeros((n, n + 1), dtype=bool)
        own_mask[self.rows, self.own] = True
        valid = ~bounds.blocked
        self.remote = valid & ~own_mask
        self.local_ok = valid[self.rows, self.own]
        self.f_min = cycles / deadline
        self.own_kappa = self.kappa_d[self.own]
        self.fmin_nu = self.f_min ** nu_d[self.own]
        self.mu_scale, self.v_scale = dual_scales(sc, bounds)

        ri, rj = np.nonzero(self.remote)
        self.ri, self.rj = ri, rj
        self.pair_of = np.full((n, n + 1), -1)
        self.pair_of[ri, rj] = np.arange(ri.size)
        # per-pair curve inputs, one row each: cycles, bits, deadline, gain;
        # the Newton step also reads the host's nu - 1 and nu - 2
        self.curve = np.array([cycles[ri], bits[ri], deadline[ri], sc.gains[ri, rj]])
        self.nu = nu_d[rj]
        self.newton_consts = np.vstack([self.curve, self.nu - 1.0, self.nu - 2.0])
        lo = bounds.f_lower[ri, rj]
        hi = bounds.f_upper[ri, rj]
        self.lo, self.hi = lo, hi
        # dual-independent terms
        self.u_lo = offload_power_vec(*self.curve, self.bandwidth, self.noise_w, lo)
        self.u_hi = offload_power_vec(*self.curve, self.bandwidth, self.noise_w, hi)
        self.du_lo = offload_power_derivs_vec(*self.curve, self.bandwidth, self.noise_w, lo)[0]
        self.du_hi = offload_power_derivs_vec(*self.curve, self.bandwidth, self.noise_w, hi)[0]
        self.lo_nu, self.hi_nu = lo ** self.nu, hi ** self.nu
        self.lo_nu1, self.hi_nu1 = lo ** (self.nu - 1.0), hi ** (self.nu - 1.0)
        self.warm_lo, self.warm_hi = lo * (1 + 1e-12), hi * (1 - 1e-12)
        self.mid = np.sqrt(lo * hi)

    def _gamma_batch(self, c1, c2, fixed, warm=None, rtol=1e-9):
        """Clamped stationary frequency of every pair, in pair order.

        The marginal g = U' + c1 * f**(nu-1) + c2 is increasing in f, so a
        pair sits at lo when g(lo) >= 0 (or when `fixed`), at hi when
        g(hi) <= 0, and otherwise at the root that a safeguarded Newton
        iteration finds inside the bracket.  Each step works only on the
        pairs still unresolved."""
        out = self.lo.copy()
        act = ~fixed & (self.du_lo + c1 * self.lo_nu1 + c2 < 0.0)
        take_hi = act & (self.du_hi + c1 * self.hi_nu1 + c2 <= 0.0)
        out[take_hi] = self.hi[take_hi]
        idx = np.flatnonzero(act & ~take_hi)
        if idx.size == 0:
            return out
        if warm is not None:
            x = np.clip(warm[idx], self.warm_lo[idx], self.warm_hi[idx])
        else:
            x = self.mid[idx]
        # one row per quantity, one column per unresolved pair; a and b
        # (the last two rows) bracket the root and are narrowed in place
        s = np.vstack([self.newton_consts[:, idx], c1[idx], c2[idx],
                       self.lo[idx], self.hi[idx]])
        for _ in range(80):
            cyc, bits, dl, gain, nu1, nu2, k1, k2, a, b = s
            du, d2u = offload_power_derivs_vec(cyc, bits, dl, gain, self.bandwidth,
                                               self.noise_w, x)
            xp = x ** nu1
            g = du + k1 * xp + k2
            gp = d2u + k1 * nu1 * x ** nu2
            scale = np.abs(du) + k1 * xp + np.abs(k2)
            done = np.isfinite(g) & (np.abs(g) <= rtol * scale)
            out[idx[done]] = x[done]
            if done.all():
                return out
            neg = ~np.isfinite(g) | (g < 0.0)
            np.copyto(a, x, where=neg)
            np.copyto(b, x, where=~neg)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - g / gp
            ok = np.isfinite(newton) & (newton > a) & (newton < b)
            x = np.where(ok, newton, np.sqrt(a * b))
            narrow = ~done & ((b - a) <= 1e-12 * b)
            out[idx[narrow]] = x[narrow]
            keep = ~(done | narrow)
            if not keep.any():
                return out
            idx, s, x = idx[keep], s[:, keep], x[keep]
        out[idx] = x
        return out

    def primal(self, duals: DualState, warm=None):
        """One exact minimisation of the priced objective.

        Returns (x, a, gamma): committed frequencies and 0/1 decisions as
        (N, N+1) matrices, and the per-pair stationary frequencies, which
        warm-start the next call."""
        n, ri, rj = self.n, self.ri, self.rj
        v = duals.v
        wi_eff = self.w + duals.mu
        wh_eff = np.concatenate([[0.0], self.w + duals.mu])
        # a task whose power is free (w_i + mu_i = 0) pays nothing for upload,
        # so its priced pair cost is non-decreasing in f: gamma stays at lo
        free = wi_eff == 0.0
        ratio = self.eta / np.where(free, 1.0, wi_eff)
        c1 = (self.kappa_nu * wh_eff)[rj] * ratio[ri]
        c2 = v[rj] * ratio[ri]
        gamma = self._gamma_batch(c1, c2, free[ri], warm)

        pi = (wi_eff / self.eta)[ri]
        pc = (wh_eff * self.kappa_d)[rj]
        vj = v[rj]
        phi = self.phi[ri]
        u_g = offload_power_vec(*self.curve, self.bandwidth, self.noise_w, gamma)
        du_g, _ = offload_power_derivs_vec(*self.curve, self.bandwidth, self.noise_w, gamma)
        # the priced pair cost is convex in f, so its minimum over the window
        # is at lo, hi or gamma
        lam = np.minimum(np.minimum(pi * self.u_lo + pc * self.lo_nu + vj * self.lo - phi,
                                    pi * self.u_hi + pc * self.hi_nu + vj * self.hi - phi),
                         pi * u_g + pc * gamma ** self.nu + vj * gamma - phi)
        # local execution: the priced cost is increasing in f, so f_min is enough
        lam_local = (wi_eff * self.own_kappa * self.fmin_nu
                     + v[self.own] * self.f_min - self.phi)
        take_local = self.local_ok & (lam_local <= 0.0)
        ok = lam <= 0.0
        with np.errstate(invalid="ignore"):
            icpt = pi[ok] * (u_g[ok] - gamma[ok] * du_g[ok])
        intercept = np.full((n, n + 1), np.inf)
        intercept[ri[ok], rj[ok]] = icpt
        remote_rows = np.zeros(n, dtype=bool)
        remote_rows[ri[ok]] = True
        remote_rows &= ~take_local

        a = np.zeros((n, n + 1), dtype=np.int8)
        x = np.zeros((n, n + 1))
        lr = self.rows[take_local]
        a[lr, lr + 1] = 1
        x[lr, lr + 1] = self.f_min[take_local]
        if remote_rows.any():
            best = np.argmin(intercept[remote_rows], axis=1)
            rr = self.rows[remote_rows]
            gamma_m = np.zeros((n, n + 1))
            gamma_m[ri, rj] = gamma
            a[rr, best] = 1
            x[rr, best] = gamma_m[rr, best]
        return x, a, gamma

    def evaluate(self, x, a) -> _Usage:
        """U and the hosted CPU power at the committed pairs (at most N), for
        reduced_cost and dual_step to share."""
        n = self.n
        r, c = np.nonzero(a > 0)
        f = x[r, c]
        transmit = np.zeros((n, n + 1))
        hosted = np.zeros((n, n + 1))
        freq = np.zeros((n, n + 1))
        rem = self.remote[r, c]
        p = self.pair_of[r[rem], c[rem]]
        transmit[r[rem], c[rem]] = offload_power_vec(*self.curve[:, p], self.bandwidth,
                                                     self.noise_w, f[rem])
        hosted[r, c] = f ** self.nu_d[c] * self.kappa_d[c]
        freq[r, c] = f
        return _Usage(transmit, hosted, freq, a)

    def dual_step(self, duals: DualState, use: _Usage) -> DualState:
        transmit_in = use.transmit.sum(axis=1) / self.eta          # PA input watts
        compute_w = use.hosted[:, 1:].sum(axis=0)
        g_mu = self.mu_scale * (transmit_in + compute_w - self.p_m) / self.p_m
        load = use.freq.sum(axis=0)
        g_v = self.v_scale * (load - self.fmax_d) / self.fmax_d
        s = step_size(duals.step_rule, duals.x0, duals.t)
        return DualState(mu=np.maximum(0.0, duals.mu + s * g_mu),
                         v=np.maximum(0.0, duals.v + s * g_v),
                         step_rule=duals.step_rule, x0=duals.x0, t=duals.t + 1)

    def reduced_cost(self, use: _Usage) -> float:
        transmit = ((self.w / self.eta)[:, None] * use.transmit).sum()
        compute = (use.hosted * self.host_w[None, :]).sum()
        saved = (self.phi * (use.a.sum(axis=1) > 0)).sum()
        return float(transmit + compute - saved)


# ---------------------------------------------------------------------------
# public per-step operations


def gamma_root(sc: Scenario, i: int, j: int, duals: DualState) -> float:
    """Unclamped stationary frequency of pair (task i, device j != i); +inf
    when the priced marginal never turns positive (solution escapes upward)."""
    if j == i:
        raise ValueError("local execution has no stationary frequency")
    task = sc.task(i)
    dev = sc.device(j)
    wi = task.power_price + duals.mu[i - 1]
    wh = 0.0 if j == 0 else sc.task(j).power_price + duals.mu[j - 1]
    eta_i = sc.device(i).eta
    c1 = dev.kappa * dev.nu * eta_i * wh / wi
    c2 = eta_i * duals.v[j] / wi
    return balance_root(task, sc.gain(i, j), sc.bandwidth, sc.noise_w, dev.nu, c1, c2)


def solve_gamma(sc: Scenario, bounds: FeasibilityBounds, i: int, j: int,
                duals: DualState) -> float:
    """Stationary frequency clamped into the pair's feasibility window."""
    root = gamma_root(sc, i, j, duals)
    lo = bounds.f_lower[i - 1, j]
    hi = bounds.f_upper[i - 1, j]
    return min(max(root, lo), hi)


def primal_update(sc: Scenario, bounds: FeasibilityBounds, duals: DualState):
    """Exact priced-objective minimiser: (frequency matrix, 0/1 decision matrix)."""
    x, a, _ = _Kernel(sc, bounds).primal(duals)
    return x, a


def dual_update(sc: Scenario, bounds: FeasibilityBounds, duals: DualState,
                x, a) -> DualState:
    """Projected subgradient step on the normalised constraints."""
    kern = _Kernel(sc, bounds)
    return kern.dual_step(duals, kern.evaluate(x, a))


def decisions_from(a: np.ndarray) -> dict[int, int]:
    """Decision matrix -> {task id: device id} map (assigned tasks only)."""
    out = {}
    rows, cols = np.nonzero(a)
    for r, c in zip(rows.tolist(), cols.tolist()):
        out[r + 1] = c
    return out


def repair_feasibility(sc: Scenario, decisions: dict[int, int],
                       bounds: FeasibilityBounds) -> Assignment:
    """Re-commit a raw decision map under residual budgets.

    Tasks are placed cheapest-to-fit first (ascending static minimum
    frequency at their chosen device); a task that no longer fits falls back
    to the edge server if that still works, otherwise it is dropped.
    Leftover edge capacity is redistributed.  The result always validates."""
    state = matching.new_state(sc)
    order = sorted(decisions, key=lambda k: (bounds.f_lower[k - 1, decisions[k]], k))
    for k in order:
        for dev in ([decisions[k]] if decisions[k] == 0 else [decisions[k], 0]):
            try:
                f = matching.pair_frequency(sc, state, k, dev)
            except InfeasiblePair:
                continue
            matching.commit(sc, state, k, dev, f)
            break
    matching.redistribute_mec(state, sc)
    return make_assignment(sc, state.omega, state.freqs)


# ---------------------------------------------------------------------------
# full solve


def solve(sc: Scenario, step_rule: str = "diminish", x0: float = 0.1,
          eps: float | None = None, max_iter: int = 2000
          ) -> tuple[Assignment, IcrbiTrace]:
    """Run the dual iteration until the relaxed cost settles, then repair.

    Stops when |C(t) - C(t-1)| < eps (default 1e-4 * |C(1)|).  Raises
    NonConvergence after max_iter, carrying the trace and the repaired
    assignment of the final iterate."""
    if step_rule not in STEP_RULES:
        raise UnknownAlgorithm(f"step rule {step_rule!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    bounds = feasibility_bounds(sc)
    kern = _Kernel(sc, bounds)
    duals = DualState.zeros(sc.n, step_rule=step_rule, x0=x0)
    trace = IcrbiTrace(n_root_pairs=int(kern.ri.size))
    warm = None
    prev_cost = None
    converged = False
    x = a = None
    for _ in range(max_iter):
        x, a, warm = kern.primal(duals, warm)
        use = kern.evaluate(x, a)
        cost = kern.reduced_cost(use)
        trace.reduced_cost.append(cost)
        trace.num_assigned.append(int(a.sum()))
        trace.mu_norm.append(float(np.linalg.norm(duals.mu)))
        trace.v_norm.append(float(np.linalg.norm(duals.v)))
        if len(trace.reduced_cost) == 1:
            trace.eps = eps if eps is not None else max(1e-4 * abs(cost), 1e-12)
        elif abs(cost - prev_cost) < trace.eps:
            converged = True
            break
        duals = kern.dual_step(duals, use)
        prev_cost = cost
    asg = repair_feasibility(sc, decisions_from(a), bounds)
    if not converged:
        trace.termination = "max_iter"
        raise NonConvergence(f"no settlement within {max_iter} iterations",
                             assignment=asg, trace=trace)
    trace.termination = "converged"
    return asg, trace
