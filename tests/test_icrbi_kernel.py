"""The pair-list icrbi kernel against the dense reference it replaced.

`DenseKernel` below is the earlier kernel, which screened U' over the whole
(N, N+1) matrix.  It root-solves each cell the screen leaves open with the
shared scalar root, model.balance_root, from the same start as the pair
kernel, so every iterate must agree exactly: no tolerance, except for a pair
the pair kernel starts from a stale warm start (see assert_same_iterate).
The pair-list kernel performs the same per-pair arithmetic on the admissible
remote pairs of the tasks whose local option lost only, on plain floats.  It
visits only the tasks that set-up did not drop for good, where the reference
visits every task, so agreement shows that set-up rule along each replay,
and test_kernel_matches_dense_reference_at_any_prices shows it at prices no
solve visits.  The reference evaluates U, the U' it prices an intercept with
and the power law at those pairs cell by cell on floats too, U and U'
through the cost model's own scalar functions, so the kernel's upload powers
are the cost model's to the last bit; the window-end screen stays on numpy's
U', as the kernel's is.  The kernel's gamma list is compared in the order of
conftest.remote_pairs.  The `free` cell prices every task's power at zero,
and `tiny_eta` prices every upload at inf per watt, where intercepts can be
NaN.  `reference_scales` is the earlier step-preconditioner derivation,
which evaluated U' afresh over every row of the server column; the kernel
reuses its own window-top slopes.  The reference also prices each pair at
both window ends as well as at its stationary frequency, and recomputes U
and the hosted CPU power at the committed pairs; the kernel prices a pair
once, at the stationary frequency, and returns the power terms it priced, so
equal decisions and power terms show that neither the dropped candidates nor
the dropped recomputation changes anything.  The kernel's iterate is one
host per task, in lists like its prices; the comparison hands the reference
the prices as arrays and scatters the iterate into its matrices.  The
reference passes the server's own nu - 1 to the root where the kernel passes
0, so agreement also shows that the kernel's exponent guard leaves the free
server's zero power term as it is.  The replay follows the solver's stop
rules, the map-stable stop and its one probe step along the subgradient
included, so the returned assignment is checked as well as every iterate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen, icrbi_step, mk_dev, mk_scenario, mk_task, remote_pairs
from coopmec import icrbi
from coopmec.icrbi import repair_feasibility
from coopmec.model import (ROOT_RTOL, TaskSpec, balance_root, feasibility_bounds,
                           offload_power, offload_power_derivs, offload_power_slope_vec,
                           validate_constraints)


def reference_scales(sc, bounds):
    """Reference step preconditioners: U' at the server's window top
    recomputed over all N rows (a made-up 2F/T point on blocked rows, which
    the mean then skips)."""
    n = sc.n
    arr = sc.arrays
    w = arr.power_price
    mu_scale = np.where(w > 0, w, 1.0)
    v_scale = np.ones(n + 1)
    v_scale[0] = np.mean(arr.penalty) / sc.devices[0].f_max
    valid0 = ~bounds.blocked[:, 0]
    if valid0.any():
        f_up = np.where(valid0, arr.speed_cap[0], 2.0 * arr.cycles / arr.deadline)
        du = offload_power_slope_vec(arr.cycles, arr.bits, arr.deadline, sc.gains[:, 0],
                                     sc.bandwidth, sc.noise_w, f_up)
        slopes = (w / arr.eta) * np.abs(du)
        mean_slope = float(slopes[valid0].mean())
        if math.isfinite(mean_slope) and mean_slope > 0:
            v_scale[0] = mean_slope
    caps = arr.speed_cap.tolist()
    for j in range(1, n + 1):
        dev = sc.devices[j]
        slope = w[j - 1] * dev.kappa * dev.nu * caps[j] ** (dev.nu - 1.0)
        v_scale[j] = slope if slope > 0 else v_scale[0]
    return mu_scale, v_scale


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
        self.tasks = sc.tasks
        self.rows = np.arange(n)
        self.own = self.rows + 1
        own_mask = np.zeros((n, n + 1), dtype=bool)
        own_mask[self.rows, self.own] = True
        self.valid = ~bounds.blocked
        self.remote = self.valid & ~own_mask
        self.local_ok = self.valid[self.rows, self.own]
        self.lo = np.where(self.remote, bounds.f_lower, 1.0)
        self.hi = np.where(self.remote, sc.arrays.speed_cap, 2.0)
        self.f_min = (self.cycles / self.deadline)[:, 0]
        self.host_w = np.concatenate([[0.0], self.w])
        self.mu_scale, self.v_scale = reference_scales(sc, bounds)

    def _remote_cells(self, fn, x, fill):
        """fn(task, gain, f) on Python floats at each remote pair of x, fill
        elsewhere."""
        out = np.full(x.shape, fill)
        ri, rj = np.nonzero(self.remote)
        out[ri, rj] = [fn(self.tasks[i], g, f) for i, g, f in
                       zip(ri.tolist(), self.gains[ri, rj].tolist(), x[ri, rj].tolist())]
        return out

    def _u(self, x):
        """U at the remote pairs through model.offload_power, +inf at or
        below f_min; +inf off them, where it is never read."""
        bw, noise = self.sc.bandwidth, self.sc.noise_w
        return self._remote_cells(
            lambda t, g, f: (offload_power(t, g, bw, noise, f)
                             if t.deadline * f - t.cycles > 0 else math.inf), x, math.inf)

    def _du_at(self, x):
        """U' at the remote pairs through model.offload_power_derivs, -inf at
        or below f_min; -inf off them, where it is never read."""
        bw, noise = self.sc.bandwidth, self.sc.noise_w
        return self._remote_cells(
            lambda t, g, f: (offload_power_derivs(t, g, bw, noise, f)[0]
                             if t.deadline * f - t.cycles > 0 else -math.inf), x, -math.inf)

    def _du(self, x):
        """U' through numpy, as the pair kernel screens the window ends."""
        return offload_power_slope_vec(self.cycles, self.bits, self.deadline,
                                       self.gains, self.sc.bandwidth, self.sc.noise_w, x)

    def _pow(self, x):
        """x ** nu of each column's host: float ** at the remote pairs, as the
        pair kernel prices them, numpy's power elsewhere, as the kernel's
        local terms are."""
        out = x ** self.nu_d[None, :]
        ri, rj = np.nonzero(self.remote)
        out[ri, rj] = [f ** nu for f, nu in zip(x[ri, rj].tolist(), self.nu_d[rj].tolist())]
        return out

    def _coeffs(self, mu, v):
        wi_eff = self.w + mu
        wh_eff = np.concatenate([[0.0], self.w + mu])
        # a task whose power is free (w_i + mu_i = 0) stays at the lower end
        # of each window, so its price ratio is never read
        ratio = self.eta / np.where(wi_eff == 0.0, 1.0, wi_eff)
        c1 = (self.kappa_d * self.nu_d * wh_eff)[None, :] * ratio[:, None]
        c2 = v[None, :] * ratio[:, None]
        return wi_eff, wh_eff, v, c1, c2

    def _gamma_batch(self, c1, c2, free, warm=None):
        act0 = self.remote & ~free[:, None]
        lo, hi = self.lo, self.hi
        nu1 = (self.nu_d - 1.0)[None, :]

        def g_of(x):
            return self._du(np.where(act0, x, 2.0)) + c1 * x ** nu1 + c2

        out = np.where(self.remote, lo, 0.0)
        act = act0 & (g_of(lo) < 0.0)
        take_hi = act & (g_of(hi) <= 0.0)
        out = np.where(take_hi, hi, out)
        act &= ~take_hi
        if warm is not None:
            x = np.clip(warm, lo * (1 + 1e-12), hi * (1 - 1e-12))
        else:
            x = np.sqrt(lo * hi)
        cells = (*np.broadcast_arrays(self.cycles, self.bits, self.deadline, self.gains,
                                      self.nu_d[None, :]), c1, c2, lo, hi, x)
        for i, j in zip(*np.nonzero(act)):
            cyc, bits, dl, gain, nu, k1, k2, a, b, x0 = (m.item(i, j) for m in cells)
            out[i, j] = balance_root(cyc, bits, dl, gain, self.sc.bandwidth, self.sc.noise_w,
                                     nu - 1.0, nu - 2.0, k1, k2, a, b, x0)
        return out

    def primal(self, mu, v, warm=None):
        n = self.n
        wi_eff, wh_eff, v_raw, c1, c2 = self._coeffs(mu, v)
        gamma = self._gamma_batch(c1, c2, wi_eff == 0.0, warm)

        price_i = (wi_eff / self.eta)[:, None]
        comp_price = (wh_eff * self.kappa_d)[None, :]

        def lam_remote(x):
            # U is inf at the placeholder points of the pairs that are not
            # remote, and a free task's zero price makes that NaN; np.where
            # below drops both
            with np.errstate(invalid="ignore"):
                return (price_i * self._u(x) + comp_price * self._pow(x)
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

        du_g = self._du_at(gamma)
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

    def dual_step(self, mu, v, x, a, s):
        used_t = np.where(self.remote & (a > 0), self._u(x), 0.0)
        transmit_in = used_t.sum(axis=1) / self.eta
        hosted = self._pow(np.where(a > 0, x, 0.0)) * self.kappa_d[None, :]
        compute_w = hosted[:, 1:].sum(axis=0)
        g_mu = self.mu_scale * (transmit_in + compute_w - self.p_m) / self.p_m
        load = np.where(a > 0, x, 0.0).sum(axis=0)
        g_v = self.v_scale * (load - self.fmax_d) / self.fmax_d
        return np.maximum(0.0, mu + s * g_mu), np.maximum(0.0, v + s * g_v)

    def reduced_cost(self, x, a):
        # each row holds one task's terms, so its sum is exact; the per-task
        # terms then add up in task order on floats, as the pair kernel's do
        used_t = np.where(self.remote & (a > 0), self._u(x), 0.0)
        hosted = self._pow(np.where(a > 0, x, 0.0)) * self.kappa_d[None, :]
        upload = compute = saved = 0.0
        for t, c, s in zip(((self.w / self.eta)[:, None] * used_t).sum(axis=1).tolist(),
                           (hosted * self.host_w[None, :]).sum(axis=1).tolist(),
                           (self.phi * (a.sum(axis=1) > 0)).tolist()):
            upload += t
            compute += c
            saved += s
        return upload + compute - saved


CELLS = {
    "default": {},
    "steep": dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2),
    "f0_8e9": dict(f0_max=8e9),
    "free": dict(w=0.0),
    "tiny_eta": dict(eta=1e-300),
}


def scatter(use):
    """The pair kernel's per-task iterate as the dense reference lays it
    out: (N, N+1) matrices of the 0/1 decisions, the frequencies, the upload
    power and the hosted CPU power, zero off each task's host.  A dropped
    task must carry no frequency or power."""
    dev, freq, transmit, hosted = (np.array(f) for f in use)
    dropped = dev < 0
    assert not (freq[dropped].any() or transmit[dropped].any() or hosted[dropped].any())
    n = dev.size
    rows = np.flatnonzero(~dropped)
    cols = dev[rows]
    a = np.zeros((n, n + 1), dtype=np.int8)
    a[rows, cols] = 1
    out = [a]
    for vec in (freq, transmit, hosted):
        m = np.zeros((n, n + 1))
        m[rows, cols] = vec[rows]
        out.append(m)
    return out


def dense_decisions(a):
    """Decision matrix -> {task id: device id} map (assigned tasks only)."""
    rows, cols = np.nonzero(a)
    return {r + 1: c for r, c in zip(rows.tolist(), cols.tolist())}


def assert_same_iterate(pairs, ref, use, warm, rx, ra, ref_warm, warm_in, ref_warm_in):
    """The two kernels' iterates agree: the decisions and power terms
    exactly, and the stationary frequency at every pair the pair kernel
    root-solves (the pairs of the tasks that do not run locally).  A solved
    pair whose warm start differs from the reference's, because the pair
    kernel left it unsolved in the previous call, starts its Newton
    iteration elsewhere, so its root agrees to the root tolerance; every
    other solved pair agrees exactly.  Returns how many pairs were
    Newton-solved (strictly inside the window) from such a stale start.
    `pairs` is remote_pairs() of the scenario, the order of the pair
    kernel's gamma lists."""
    ri, rj, lo, hi = pairs
    warm = np.array(warm)
    ref_gamma = ref_warm[ri, rj]
    live = ra[ri, ri + 1] == 0
    stale = live & (False if warm_in is None else np.array(warm_in) != ref_warm_in[ri, rj])
    assert np.array_equal(warm[live & ~stale], ref_gamma[live & ~stale])
    assert np.allclose(warm[stale], ref_gamma[stale], rtol=ROOT_RTOL, atol=0.0)
    a, freq, transmit, hosted = scatter(use)
    assert np.array_equal(freq, rx)
    assert np.array_equal(a, ra)
    assert icrbi.decisions_from(use.dev) == dense_decisions(ra)
    assert np.array_equal(transmit, np.where(ref.remote & (ra > 0), ref._u(rx), 0.0))
    assert np.array_equal(hosted, ref._pow(np.where(ra > 0, rx, 0.0))
                          * ref.kappa_d[None, :])
    return int((stale & (warm > lo) & (warm < hi)).sum())


def replay(sc):
    """Run both kernels on the pair kernel's dual sequence under the solver's
    stop rules, asserting that every iterate, and at a map-stable stop the
    probe one long step along the subgradient, agrees.  Returns the reduced
    costs, the stop reason, the decision matrices to repair (the final one,
    then the probe's if it differs), the bounds and the number of pairs
    Newton-solved from a stale warm start (see assert_same_iterate)."""
    bounds = feasibility_bounds(sc)
    kern = icrbi._Kernel(sc, bounds)
    ref = DenseKernel(sc, bounds)
    pairs = remote_pairs(sc, bounds)
    assert np.array_equal(kern.mu_scale, ref.mu_scale)
    assert np.array_equal(kern.v_scale, ref.v_scale)
    mu, v = [0.0] * sc.n, [0.0] * (sc.n + 1)
    warm = ref_warm = None
    costs = []
    eps = None
    maps = []                   # distinct decision matrices, in order seen
    last_new = 0
    stale = 0
    for t in range(1, icrbi.MAX_ITER + 1):
        warm_in, ref_warm_in = warm, ref_warm
        use, warm = kern.primal(mu, v, warm)
        rx, ra, ref_warm = ref.primal(np.array(mu), np.array(v), ref_warm)
        stale += assert_same_iterate(pairs, ref, use, warm, rx, ra, ref_warm,
                                     warm_in, ref_warm_in)
        cost = kern.reduced_cost(use)
        assert cost == ref.reduced_cost(rx, ra)
        costs.append(cost)
        if not any(np.array_equal(ra, m) for m in maps):
            maps.append(ra)
            last_new = t
        if eps is None:
            eps = max(icrbi.SETTLE_RTOL * abs(cost), 1e-12)
        elif abs(cost - costs[-2]) < eps:
            return costs, "converged", [ra], bounds, stale
        s = icrbi_step(t)
        if t - last_new >= icrbi.MAP_STABLE_K:
            found, probe_stale = probe(kern, ref, pairs, mu, v, use, rx, ra, s, warm,
                                       ref_warm)
            return costs, "map_stable", [ra] + found, bounds, stale + probe_stale
        ref_mu, ref_v = ref.dual_step(np.array(mu), np.array(v), rx, ra, s)
        mu, v = kern.dual_step(mu, v, use, s)
        assert np.array_equal(mu, ref_mu)
        assert np.array_equal(v, ref_v)
    return costs, "max_iter", [ra], bounds, stale


def probe(kern, ref, pairs, mu, v, use, rx, ra, s, warm, ref_warm):
    """Both kernels one step s * PROBE_STEP along the subgradient from
    (mu, v); returns [the decision matrix there] if it differs from ra, else
    [], and the stale-start count."""
    step = s * icrbi.PROBE_STEP
    pmu, pv = kern.dual_step(mu, v, use, step)
    ref_mu, ref_v = ref.dual_step(np.array(mu), np.array(v), rx, ra, step)
    assert np.array_equal(pmu, ref_mu)
    assert np.array_equal(pv, ref_v)
    puse, pwarm = kern.primal(pmu, pv, warm)
    px, pa, pref_warm = ref.primal(np.array(pmu), np.array(pv), ref_warm)
    stale = assert_same_iterate(pairs, ref, puse, pwarm, px, pa, pref_warm, warm, ref_warm)
    return ([] if np.array_equal(pa, ra) else [pa]), stale


def check_solve(sc):
    """replay() on sc, then the solver's trace must be the reference's and
    its assignment the cheaper repair of the reference's maps (the final
    map's on a tie).  Returns the assignment, the trace and replay()'s
    stale-start count."""
    costs, stop, maps, bounds, stale = replay(sc)
    asg, trace = icrbi.solve(sc)
    assert trace.termination == stop
    assert trace.reduced_cost == costs
    repaired = [repair_feasibility(sc, dense_decisions(m), bounds) for m in maps]
    ref_asg = min(repaired, key=lambda r: r.cost.total)
    assert asg.target == ref_asg.target
    assert asg.f == ref_asg.f
    assert asg.p_t == ref_asg.p_t
    assert asg.cost == ref_asg.cost
    return asg, trace, stale


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("n", [10, 30, 80])
def test_pair_kernel_matches_dense_reference(cell, n):
    for seed in range(2):
        check_solve(gen(n=n, seed=seed, **CELLS[cell]))


# prices no solve visits: zero, subnormal, near the float limit and inf
SPECIAL_PRICES = [0.0, 5e-324, 1e-310, 1e300, math.inf]


@st.composite
def priced_cells(draw):
    """(cell, n, seed, mu, v, step): a preset cell and one price per UE and
    per device, a quarter of them zero, the rest special, at the price's
    usual scale (w is 1 per watt, a capacity price bites near 1e-8 per
    cycle/s) or anywhere up to inf."""
    n = draw(st.integers(1, 30))

    def prices(size, scale):
        entry = st.one_of(st.just(0.0), st.sampled_from(SPECIAL_PRICES),
                          st.floats(0.0, scale), st.floats(0.0, math.inf))
        return draw(st.lists(entry, min_size=size, max_size=size))

    return (draw(st.sampled_from(sorted(CELLS))), n, draw(st.integers(0, 2**32 - 1)),
            prices(n, 10.0), prices(n + 1, 1e-7), draw(st.floats(1e-6, 1e3)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=priced_cells())
def test_kernel_matches_dense_reference_at_any_prices(case):
    # primal and dual_step at prices no solve reaches still equal the dense
    # reference, which visits every task.  So a local run that loses at zero
    # prices never wins at higher ones: the set-up rule by which the kernel
    # skips tasks.  The reference's own inf * 0 and inf - inf are silenced;
    # the kernel's would raise
    cell, n, seed, mu, v, s = case
    sc = gen(n=n, seed=seed, **CELLS[cell])
    bounds = feasibility_bounds(sc)
    kern = icrbi._Kernel(sc, bounds)
    ref = DenseKernel(sc, bounds)
    use, warm = kern.primal(mu, v)
    with np.errstate(all="ignore"):
        rx, ra, ref_warm = ref.primal(np.array(mu), np.array(v))
        ref_mu, ref_v = ref.dual_step(np.array(mu), np.array(v), rx, ra, s)
        assert_same_iterate(remote_pairs(sc, bounds), ref, use, warm, rx, ra, ref_warm,
                            None, None)
    next_mu, next_v = kern.dual_step(mu, v, use, s)
    assert np.array_equal(next_mu, ref_mu, equal_nan=True)
    assert np.array_equal(next_v, ref_v, equal_nan=True)


@pytest.mark.parametrize("seed, f0_max, capped_cost", [
    (2083, 8e9, 317.81618206568714),
    (2092, 6e9, 406.6695336220989),
    (7012, 5e9, 316.1732394073088),
], ids=["2083", "2092", "7012"])
def test_former_stalls_stop_map_stable(seed, f0_max, capped_cost):
    # these cells alternate between maps already seen until the
    # 2000-iteration cap; capped_cost is what that capped run returned
    sc = gen(seed=seed, f0_max=f0_max)
    asg, trace, _ = check_solve(sc)
    assert trace.termination == "map_stable" and trace.converged
    assert trace.iterations <= 20
    assert validate_constraints(sc, asg) == []
    assert asg.cost.total <= capped_cost


@pytest.mark.parametrize("seed, f0_max, stop", [
    (0, 8e9, "map_stable"), (5, 5e9, "map_stable"), (1, 5e9, "converged"),
], ids=["0", "5", "1"])
def test_a_map_stable_stop_makes_one_probe_call(monkeypatch, seed, f0_max, stop):
    # one primal call per iteration, and a map-stable stop adds exactly one:
    # its probe one long step along the subgradient
    calls = []
    primal = icrbi._Kernel.primal

    def counted(self, *args):
        calls.append(1)
        return primal(self, *args)

    monkeypatch.setattr(icrbi._Kernel, "primal", counted)
    _, trace = icrbi.solve(gen(seed=seed, f0_max=f0_max))
    assert trace.termination == stop
    assert len(calls) == trace.iterations + (stop == "map_stable")


def server_blocked():
    """Three tasks whose every server link is hopeless; task 1 is too big for
    its own CPU, so it offloads to a helper."""
    n = 3
    gains = np.full((n, n + 1), 1e-10)
    gains[:, 0] = 1e-16
    devices = [mk_dev(0, f_max=5e9), mk_dev(1, f_max=0.3e9),
               mk_dev(2, f_max=2e9, p_max=20.0), mk_dev(3, f_max=2e9, p_max=20.0)]
    return mk_scenario([mk_task(i) for i in range(1, n + 1)], devices, gain=gains)


def local_turns_remote():
    """Task 1 runs locally on UE 1 with little to spare under its penalty.
    Task 2 is too big for its own CPU and reaches only UE 1, so it offloads
    there, and hosting it breaks UE 1's power budget.  The first dual step
    then prices task 1's local run above its penalty, so its pair to UE 3,
    which the pair kernel left unsolved while task 1 ran locally, is
    Newton-solved from a stale warm start."""
    n = 3
    gains = np.full((n, n + 1), 1e-16)
    gains[1, 1] = gains[0, 3] = 1e-10
    devices = [mk_dev(0, f_max=5e9), mk_dev(1, f_max=2e9, p_max=0.35),
               mk_dev(2, f_max=0.1e9), mk_dev(3, f_max=2e9, p_max=20.0)]
    tasks = [mk_task(1, penalty=0.13), mk_task(2), mk_task(3)]
    return mk_scenario(tasks, devices, gain=gains)


def test_task_turning_remote_is_solved_from_a_stale_start():
    # the pool cells above never turn a local task remote, so none of their
    # pairs starts stale; this cell does, and the replay still agrees
    sc = local_turns_remote()
    asg, trace, stale = check_solve(sc)
    assert stale >= 1
    assert validate_constraints(sc, asg) == []


def own_run_over_budget():
    """Task 1 runs locally at an f_min one float below UE 1's power-limited
    speed cap (nu = 2.5).  The cap's root rounds up, so the local run draws
    kappa * f_min**nu a few ulps above UE 1's budget: its pair is open, yet
    its subgradient is positive at zero prices."""
    f_min = 116565421534.7817
    tasks = [mk_task(1, cycles=f_min, deadline=1.0), mk_task(2), mk_task(3)]
    devices = [mk_dev(0, f_max=5e9),
               mk_dev(1, f_max=1e12, kappa=5.100486759046463e-28, nu=2.5,
                      p_max=2.4661156651540956),
               mk_dev(2, f_max=2e9, p_max=20.0), mk_dev(3, f_max=2e9, p_max=20.0)]
    return mk_scenario(tasks, devices)


def test_ue_over_budget_by_rounding_is_stepped_every_time():
    # UE 1 hosts no guest, uploads nothing and carries no price, yet its
    # own-local subgradient is positive at zero prices: it is stepped from
    # zero prices, as the dense reference steps it
    sc = own_run_over_budget()
    bounds = feasibility_bounds(sc)
    assert not bounds.blocked[0, 1]
    _, trace, _ = check_solve(sc)
    assert trace.mu_norm[1] > 0.0


@pytest.mark.parametrize("make, server_open", [
    (lambda: gen(n=10, seed=0, w=0.0), True), (server_blocked, False),
], ids=["w0", "server_blocked"])
def test_server_scale_falls_back_to_the_penalty(make, server_open):
    # no open server pair with a power price gives no slope, so the server's
    # capacity price steps by the mean penalty per cycle/s of its capacity
    sc = make()
    check_solve(sc)
    bounds = feasibility_bounds(sc)
    assert (~bounds.blocked[:, 0]).any() == server_open
    kern = icrbi._Kernel(sc, bounds)
    assert kern.v_scale[0] == np.mean(sc.arrays.penalty) / sc.devices[0].f_max


# the shared root on one helper pair: 1e7 cycles and 1e5 bits due in 20 ms
# (f_min = 5e8) over a 2 MHz link with gain 1e-10, hosted at nu = 3 with the
# icrbi coefficient c1 = kappa * nu * eta at unit prices, plus a capacity price
ROOT_TASK = TaskSpec(id=1, cycles=1e7, bits=1e5, deadline=0.02, penalty=40.0)
ROOT_LINK = (1e-10, 2e6, 7.96e-15)          # gain, bandwidth, noise
C1, C2 = 1e-27 * 3.0 * 0.5, 1e-19


def root_terms(f):
    """(g, residual scale) of U'(f) + C1 f**2 + C2."""
    du, _ = offload_power_derivs(ROOT_TASK, *ROOT_LINK, f)
    return du + C1 * f**2 + C2, abs(du) + C1 * f**2 + abs(C2)


def root_from(a, b, x):
    t = ROOT_TASK
    return balance_root(t.cycles, t.bits, t.deadline, *ROOT_LINK, 2.0, 1.0, C1, C2, a, b, x)


@pytest.mark.parametrize("a", [5.5e8, 5.005e8], ids=["open", "saturated_side"])
@pytest.mark.parametrize("start", [1e-12, 0.25, 0.5, 1.0 - 1e-12])
def test_shared_root_meets_its_residual_inside_the_bracket(a, start):
    # at 5.005e8 the exponent passes the cap, so the bracket's low side
    # begins saturated (U' = -inf) and the start may sit in it; every start,
    # from either end of the bracket to its middle, must end at the root
    b = 3e9
    assert root_terms(a)[0] < 0.0 < root_terms(b)[0]
    assert (root_terms(a)[0] == -math.inf) == (a == 5.005e8)
    root = root_from(a, b, a * (b / a) ** start)
    g, scale = root_terms(root)
    assert a < root < b
    assert abs(g) <= ROOT_RTOL * scale
    assert math.isclose(root, root_from(5.5e8, b, math.sqrt(5.5e8 * b)), rel_tol=1e-9)


def test_warm_starts_outside_the_window_are_clipped_into_it():
    # a warm start at or beyond either end of the window is clipped just
    # inside it before the root starts, so the open pairs end at the roots
    # the window-midpoint start finds
    sc = gen(n=20, seed=1)
    bounds = feasibility_bounds(sc)
    kern = icrbi._Kernel(sc, bounds)
    ri, _, lo, hi = remote_pairs(sc, bounds)
    mu, v = [0.0] * sc.n, [0.0] * (sc.n + 1)
    use, _ = kern.primal(mu, v)
    mu, v = kern.dual_step(mu, v, use, icrbi_step(1))
    use, fresh = kern.primal(mu, v)
    fresh = np.array(fresh)
    live = np.array(use.dev)[ri] != ri + 1
    open_ = live & (fresh > lo) & (fresh < hi)
    assert open_.sum() >= 3
    for outside in (lo * 0.5, lo, hi, hi * 2.0):
        _, gamma = kern.primal(mu, v, np.where(open_, outside, fresh).tolist())
        gamma = np.array(gamma)
        assert np.array_equal(gamma[~open_], fresh[~open_])
        assert (gamma[open_] > lo[open_]).all() and (gamma[open_] < hi[open_]).all()
        assert np.allclose(gamma[open_], fresh[open_], rtol=ROOT_RTOL, atol=0.0)


@pytest.mark.parametrize("n, seeds", [(10, range(20)), (80, range(2))])
def test_committed_pairs_are_priced_as_the_cost_model_prices_them(n, seeds):
    # the kernel's upload power at a committed remote pair is
    # model.offload_power to the last bit, and its hosted CPU power is
    # kappa * f ** nu as the cost model writes it (zero at the server)
    pairs = 0
    for seed in seeds:
        sc = gen(n=n, seed=seed)
        kern = icrbi._Kernel(sc, feasibility_bounds(sc))
        mu, v, warm = [0.0] * sc.n, [0.0] * (sc.n + 1), None
        for t in range(1, 15):
            use, warm = kern.primal(mu, v, warm)
            for k, (dev, f, u, hosted) in enumerate(zip(*use), 1):
                if dev in (-1, k):
                    continue
                host = sc.devices[dev]
                assert u == offload_power(sc.tasks[k - 1], sc.gains.item(k - 1, dev),
                                          sc.bandwidth, sc.noise_w, f)
                assert hosted == (host.kappa * f ** host.nu if dev else 0.0)
                pairs += 1
            mu, v = kern.dual_step(mu, v, use, icrbi_step(t))
    assert pairs >= 100
