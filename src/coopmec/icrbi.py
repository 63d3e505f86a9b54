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
capacity) and preconditioned by a static price scale (the kernel's
mu_scale and v_scale) so one step scale works across the very different
units of power and frequency.

The kernel keeps the admissible remote pairs, read from the scenario's
cached enumeration of the open pairs (FeasibilityBounds.pairs), as a flat
list of float rows (a few percent of all (task, device) pairs on a default
cell), computes every term that does not depend on the multipliers once
per solve, and holds an iterate as one host per task (local, the server,
one helper, or none: dropped).  The dual loop runs on Python floats: the
prices and each iterate are lists, because at N=10 a numpy call costs more
than the arithmetic it does.  Set-up sorts each task once, at zero prices.
The priced local cost is a sum of products of nonnegative factors and the
prices, so it only rises with them: a task whose local run loses at zero
prices loses at every price and is walked over its remote pairs every
iteration, or, with none, never visited (medians over 30 seeds: 6 of 10
tasks on the default N=10 cell, 42.5 of 80 at N=80, 21 of 30 on the
steep-path-loss N=30 cell).  A task whose local run wins there is tested at
every iteration, and walked once it loses.  A pair walked (a live pair)
is visited once per iteration, on plain floats: screened at its window
ends, root-solved where the screen leaves it open (model.balance_root, the
safeguarded Newton that matching uses too) and priced on the spot with
inline copies of offload_power's U and offload_power_derivs' U'.  The
other pairs keep their previous stationary frequencies (the window midpoint
before the first solve), which warm-start the root once the task's local
option loses; a pair solved from such a stale start ends at the same root
to within the root tolerance, not always bit for bit.  A task whose
effective power price w_i + mu_i is zero stays at the lower end of each
window.  The priced pair cost is convex in f, so the clamped stationary
frequency is its minimum over the window: each iteration prices a pair
once, there, and the committed pairs' upload and hosted CPU power come
from those same values.  The edge server's compute is
free, as is a kappa-0 UE's, so their hosted power is zero.  The dual step
moves the server and only the UEs that host a guest, upload their own task
or carry a price; every other UE keeps zero prices, once set-up has checked
that its idle and own-local subgradients are <= 0.  Its per-host sums and
the relaxed cost's three sums run in task order, and the trace records the
price norms as math.hypot gives them: the loop makes no numpy call.

The relaxed iterate may violate capacity, so the final decision map is
re-committed through the matching module's residual-budget subproblem
(cheapest-to-place first, each pair where it still fits), matching's
completion places the tasks still unmatched as a maxtask run would from
there, the leftover capacity is redistributed, and the solve ends in
matching.finish, as every solver does: the prune, and the assembly that
validates the result.

The repair reads only the 0/1 decision map, so the loop stops as soon as
that map stops changing: when no new map has appeared for MAP_STABLE_K = 2
iterations ("map_stable"), unless the relaxed cost settled first
("converged") or the iteration cap came first ("max_iter").  A map-stable
stop probes along the current subgradient with ever longer steps for the
first map the prices would move to, and re-commits it next to the final
map; matching.finish keeps the cheaper (a Lagrangian heuristic in the
sense of Fisher, Management Science 1981).  Both rule-based stops count as
converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import matching
from .model import (EXP_CAP, LN2, Assignment, FeasibilityBounds, Scenario, balance_root,
                    feasibility_bounds, offload_power_slope_vec)

MAX_ITER = 2000         # iteration cap: a run stopped here reports "max_iter"
STEP_SCALE = 0.1        # step at iteration t: STEP_SCALE / sqrt(t)
SETTLE_RTOL = 1e-4      # settled once |C(t) - C(t-1)| < SETTLE_RTOL * |C(1)| (at least 1e-12)
MAP_STABLE_K = 2        # stop after this many iterations without a new decision map
PROBE_DOUBLINGS = 12    # the exit probe tries steps 2s, 4s, ..., 2**12 s


def overhead(n: int) -> int:
    """Signalling scalars of one solve: CSI and task data in, decisions out."""
    return 8 * n + n * (n - 1)


@dataclass
class IcrbiTrace:
    """Per-iteration progress of one solve."""

    reduced_cost: list[float] = field(default_factory=list)
    num_assigned: list[int] = field(default_factory=list)
    mu_norm: list[float] = field(default_factory=list)
    v_norm: list[float] = field(default_factory=list)
    termination: str = ""               # "converged", "map_stable" or "max_iter"
    eps: float = float("nan")
    n_root_pairs: int = 0
    overhead: int = 0

    @property
    def iterations(self) -> int:
        return len(self.reduced_cost)

    @property
    def converged(self) -> bool:
        """Stopped by a rule (settled or map-stable), not by the cap."""
        return self.termination in ("converged", "map_stable")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iteration,reduced_cost,num_assigned,mu_norm,v_norm\n")
            for t in range(self.iterations):
                fh.write(f"{t + 1},{self.reduced_cost[t]!r},{self.num_assigned[t]},"
                         f"{self.mu_norm[t]!r},{self.v_norm[t]!r}\n")


# ---------------------------------------------------------------------------
# pair-list kernel


class _Usage(NamedTuple):
    """The iterate as primal priced it, one list entry per task: the host
    device (-1 for a dropped task), its frequency, its upload power U(x)
    (zero when local) and its hosted CPU power kappa * x**nu (zero at the
    edge server); a dropped task has all three at zero."""

    dev: list[int]
    freq: list[float]
    transmit: list[float]
    hosted: list[float]


class _Kernel:
    """Per-iteration primal/dual maths over the admissible remote pairs, on
    Python floats.

    Only a valid pair (task i, device j != i) has a stationary frequency, so
    those pairs are kept as a flat list, in task order and, within a task,
    in device order: task i's pairs are rows[starts[i]:starts[i + 1]].  Each
    row holds the pair's dual-independent constants as plain floats (its
    host, curve inputs and power law, its window, U' at both window ends and
    the window ends raised to nu - 1), gathered once, here.  Each iterate
    sends a task to one host at most, so primal returns it as per-task lists
    (_Usage), and the dual step and the relaxed cost reduce those.  The dual
    iterate is a pair of lists of nonnegative prices in raw objective units:
    mu[i-1] adds to UE i's per-watt price w_i for its power budget, v[j]
    prices device j's CPU capacity per cycle/s.  Set-up builds the U' and
    power columns and the local runs' f_min**nu on numpy.

    Set-up sorts the tasks once, at zero prices, into `visit`: each task
    whose local run wins there (with its local terms, tested at every call)
    and each other task that has a remote pair (walked over its pairs at
    every call).  The priced local cost is a sum of products of nonnegative
    factors and the prices mu_i and v_i, so it only rises with them: a task
    in neither class is dropped at every price and never visited.  A UE
    that hosts no guest, uploads no task of its own and carries zero prices
    is idle or runs its own task locally; set-up checks once that both of
    those subgradients are <= 0, and dual_step then leaves its prices at
    zero without visiting it.  A UE that fails the check (`restless`) is
    stepped every time.
    """

    def __init__(self, sc: Scenario, bounds: FeasibilityBounds):
        n = sc.n
        self.n = n
        self.bandwidth = sc.bandwidth
        self.noise_w = sc.noise_w
        arr = sc.arrays
        w = arr.power_price
        self.phi, self.w, self.eta, self.p_m, self.fmax_d = (
            a.tolist() for a in (arr.penalty, w, arr.eta, arr.p_m, arr.f_max))
        # price per radiated watt: inf for an eta near zero (see primal); such
        # a task never uploads, so its relaxed-cost price is 0, not inf * 0
        self.pa_price = [p if p < math.inf else 0.0 for p in arr.upload_price]
        nu_d = arr.nu
        self.host_w = [0.0, *self.w]                    # compute price per device

        pairs = bounds.pairs
        remote = pairs.cols != pairs.rows + 1                           # off the own UE
        ri, rj = pairs.rows[remote], pairs.cols[remote]
        self.starts = starts = np.searchsorted(ri, np.arange(n + 1)).tolist()
        curve = (arr.cycles[ri], arr.bits[ri], arr.deadline[ri], sc.gains[ri, rj])
        # each pair's host power law: a host that no pair reaches is never
        # priced, however large its kappa
        kappa, nu = arr.kappa[rj], nu_d[rj]
        lo, hi = bounds.f_lower[ri, rj], arr.speed_cap[rj]
        # dual-independent terms, at both window ends at once
        ends = np.array([lo, hi])
        du_lo, du_hi = offload_power_slope_vec(*curve, self.bandwidth, self.noise_w, ends)
        # kappa * nu saturates to inf for a kappa near the float limit; every
        # pair on such a host then screens to its window's lower end
        with np.errstate(over="ignore"):
            knu = kappa * nu
        cols = np.array([*curve, knu, kappa, nu, lo, hi, du_lo, du_hi, *(ends ** (nu - 1.0))])
        self.rows = list(zip(rj.tolist(), *cols.tolist()))
        # a pair's stationary frequency before its first solve
        self.mid = np.sqrt(lo * hi).tolist()
        # step preconditioners, the price at which each multiplier starts to
        # bite.  Power: UE i's budget competes with its own per-watt price, so
        # mu steps are scaled by w_i.  Frequency: a capacity price only
        # matters once it is comparable to the marginal power cost of one more
        # cycle/s at the fast end, so v steps are scaled by that slope (mean
        # weighted transmit slope U' at the window top of the open server
        # pairs for device 0; the compute-power slope at the speed cap for UE
        # hosts).  Without this, frequency prices sit ~9 orders of magnitude
        # below binding level and the dual loop never moves.  Where no power
        # price gives a slope (every task's w_i = 0), the server's scale falls
        # back to the mean penalty per cycle/s of its capacity: a unit scale
        # there would make the first step price every hosted task out at once.
        self.mu_scale = mu_scale = [wi if wi > 0 else 1.0 for wi in self.w]
        self.v_scale = v_scale = [1.0] * (n + 1)
        # inf for a subnormal capacity, as for a UE below: such a server
        # opens no pair and carries no load (see dual_step)
        with np.errstate(over="ignore"):
            v_scale[0] = float(np.mean(arr.penalty) / sc.devices[0].f_max)
        srv = rj == 0
        if srv.any():
            slope = float((np.array(arr.upload_price)[ri[srv]] * np.abs(du_hi[srv])).mean())
            if math.isfinite(slope) and slope > 0:
                v_scale[0] = slope
        # Python's **, which numpy's power can differ from in the last bit.  A
        # slope overflows only for a kappa near the float limit, whose speed
        # cap opens no window: the host carries no load (see dual_step)
        host_kappa, host_nu, caps = arr.kappa.tolist(), nu_d.tolist(), arr.speed_cap.tolist()
        for j, wj in enumerate(self.w, 1):
            kj, nj, cap = host_kappa[j], host_nu[j], caps[j]
            try:
                slope = arr.cpu_price[j] * nj * cap ** (nj - 1.0)
            except OverflowError:       # a subnormal kappa: cap ** (nu - 1) overflows alone
                slope = wj * nj * math.exp(math.log(kj) + (nj - 1.0) * math.log(cap))
            v_scale[j] = slope if slope > 0 else v_scale[0]

        # the task classes and the restless UEs, with primal's and dual_step's
        # own expressions at zero prices.  A local run's frequency is f_min
        # (the priced local cost rises with f) and its hosted CPU power
        # kappa * f_min**nu; a blocked local pair is never priced
        local_ok = ~np.diagonal(bounds.blocked, 1)
        own_kappa = np.where(local_ok, arr.kappa[1:], 0.0)
        fmin_nu = np.where(local_ok, arr.f_min, 0.0) ** nu_d[1:]
        ue_rows = zip(self.w, self.phi, mu_scale, self.eta, self.p_m, v_scale[1:],
                      self.fmax_d[1:], local_ok.tolist(), own_kappa.tolist(), fmin_nu.tolist(),
                      arr.f_min.tolist(), (fmin_nu * own_kappa).tolist(), starts, starts[1:])
        self.visit, self.restless = [], []
        for i, (wi, phi, ms, eta, pm, vs, cap, ok, kappa_i, fmin_nu_i, f_min, hosted, first,
                end) in enumerate(ue_rows):
            calm = ms * (0.0 / eta + 0.0 - pm) / pm <= 0.0 and vs * (0.0 - cap) / cap <= 0.0
            local = None
            if ok and (wi + 0.0) * kappa_i * fmin_nu_i + 0.0 * f_min - phi <= 0.0:
                local = (kappa_i, fmin_nu_i, f_min, hosted)
                calm = (calm and ms * (0.0 / eta + (0.0 + hosted) - pm) / pm <= 0.0
                        and vs * ((0.0 + f_min) - cap) / cap <= 0.0)
            if local is not None or first < end:
                self.visit.append((i, local))
            if not calm:
                self.restless.append(i + 1)

    def primal(self, mu, v, warm=None):
        """One exact minimisation of the priced objective.

        Returns (use, gamma): each task's host with its frequency and power
        terms, and the per-pair stationary frequencies as a list, which
        warm-starts the next call.  Only the live pairs (those of the visited
        tasks whose local run lost) are solved and priced, in one pass on
        floats; the rest keep the gamma of `warm` (the window midpoint on the
        first call).  U at gamma is offload_power's expression, so a committed
        upload is the cost model's."""
        n = self.n
        dev, freq, transmit, hosted = [-1] * n, [0.0] * n, [0.0] * n, [0.0] * n
        gamma = list(self.mid if warm is None else warm)
        wi = [a + b for a, b in zip(self.w, mu)]
        wh = [0.0, *wi]                                 # compute price per host
        eta, phi = self.eta, self.phi
        rows, starts, bw, noise = self.rows, self.starts, self.bandwidth, self.noise_w
        ln2_bw, noise_ln2, cap = LN2 / bw, noise * LN2, EXP_CAP
        for i, local in self.visit:
            if local is not None:
                # a price near the float limit saturates to inf and prices the
                # local run out, as does the NaN of inf * 0
                k, fn, f_min, local_hosted = local
                if wi[i] * k * fn + v[i + 1] * f_min - phi[i] <= 0.0:
                    dev[i], freq[i], hosted[i] = i + 1, f_min, local_hosted
                    continue
            # free power (w_i + mu_i = 0) leaves the priced pair cost
            # non-decreasing in f: gamma stays at lo
            fixed = wi[i] == 0.0
            r = eta[i] / (1.0 if fixed else wi[i])     # prices per watt of upload
            # inf for an eta near zero: each upload then prices above dropping
            pi, phi_i, best, least = wi[i] / eta[i], phi[i], None, math.nan
            for p in range(starts[i], starts[i + 1]):
                j, cyc, bits, dl, gain, knu, kappa, nu, lo, hi, du_lo, du_hi, lo_nu1, hi_nu1 \
                    = rows[p]
                # g = U' + c1 * f**(nu-1) + c2 increases in f: a pair sits at
                # lo when g(lo) >= 0, at hi when g(hi) <= 0, else at the root,
                # started from its warm start clipped just inside the window
                c1, c2 = knu * wh[j] * r, v[j] * r
                if fixed or not du_lo + c1 * lo_nu1 + c2 < 0.0:
                    g = lo
                elif du_hi + c1 * hi_nu1 + c2 <= 0.0:
                    g = hi
                else:
                    x0 = (self.mid[p] if warm is None
                          else min(max(warm[p], lo * (1 + 1e-12)), hi * (1 - 1e-12)))
                    g = balance_root(cyc, bits, dl, gain, bw, noise, nu - 1.0, nu - 2.0,
                                     c1, c2, lo, hi, x0)
                gamma[p] = g
                # g minimises the convex priced pair cost.  The task takes its
                # pair of least intercept among those that beat dropping; a
                # NaN intercept loses to any other, a tie keeps the lower device
                denom = dl * g - cyc
                x = ln2_bw * bits * g / denom if denom > 0.0 else math.inf
                u = math.inf if x > cap else noise / gain * math.expm1(x)
                g_nu = g ** nu
                lam = pi * u + wh[j] * kappa * g_nu + v[j] * g - phi_i
                if lam <= 0.0:                  # so u is finite: denom > 0, x <= cap
                    sq = denom**2
                    du = (noise_ln2 / (bw * gain) * math.exp(x) * (-bits * cyc / sq)
                          if sq != 0.0 else -math.inf)
                    c = pi * (u - g * du)
                    if best is None or c < least or (least != least and c == c):
                        best, least = (j, g, u, g_nu * kappa), c
            if best is not None:
                dev[i], freq[i], transmit[i], hosted[i] = best
        return _Usage(dev, freq, transmit, hosted), gamma

    def dual_step(self, mu, v, use: _Usage, s: float):
        """Projected, preconditioned subgradient step of size s; returns the
        next (mu, v).  Only the server and the UEs that host a guest, upload
        their own task, carry a price or are restless are stepped; every
        other UE keeps zero prices (see the class docstring)."""
        n, dev, freq, hosted = self.n, use.dev, use.freq, use.hosted
        # the UEs stepped: the restless, those that carry a price (a NaN
        # too), and below those that host a guest or upload their own task
        moved = set(self.restless)
        moved.update(compress(range(1, n + 1), mu))
        moved.update(compress(range(n + 1), v))
        # per-host sums in task order
        load, compute_w = [0.0] * (n + 1), [0.0] * (n + 1)
        for i, _ in self.visit:
            d = dev[i]
            if d >= 0:
                load[d] += freq[i]
                if d:
                    compute_w[d] += hosted[i]
                if d != i + 1:
                    moved.add(i + 1)
                    moved.add(d)
        mu_next, v_next = [0.0] * n, [0.0] * (n + 1)
        moved.discard(0)
        # -inf for a scale near the float limit (no load, see __init__): v stays 0.
        # A power price near it saturates mu: inf prices UE i out of every option.
        # A NaN price stays NaN, as np.maximum keeps it
        fm = self.fmax_d[0]
        x = v[0] + s * (self.v_scale[0] * (load[0] - fm) / fm)
        v_next[0] = 0.0 if x < 0.0 else x
        mu_scale, v_scale, eta, p_m, fmax = (self.mu_scale, self.v_scale, self.eta, self.p_m,
                                             self.fmax_d)
        transmit = use.transmit
        for j in moved:
            i = j - 1
            pm, fm = p_m[i], fmax[j]
            x = mu[i] + s * (mu_scale[i] * (transmit[i] / eta[i] + compute_w[j] - pm) / pm)
            mu_next[i] = 0.0 if x < 0.0 else x
            x = v[j] + s * (v_scale[j] * (load[j] - fm) / fm)
            v_next[j] = 0.0 if x < 0.0 else x
        return mu_next, v_next

    def reduced_cost(self, use: _Usage) -> float:
        """The relaxed cost less its constant terms (the circuit power and
        every task's penalty): three running sums over the visited tasks, in
        task order.  Only a visited task can be placed."""
        pa, hw, phi = self.pa_price, self.host_w, self.phi
        dev, transmit, hosted = use.dev, use.transmit, use.hosted
        upload = compute = saved = 0.0
        for i, _ in self.visit:
            d = dev[i]
            if d >= 0:
                upload += pa[i] * transmit[i]
                compute += hw[d] * hosted[i]
                saved += phi[i]
        return upload + compute - saved


# ---------------------------------------------------------------------------
# repair


def decisions_from(dev: list[int]) -> dict[int, int]:
    """Per-task hosts -> {task id: device id} map (assigned tasks only)."""
    return {i: d for i, d in enumerate(dev, 1) if d >= 0}


def _recommit(sc: Scenario, decisions: dict[int, int], bounds: FeasibilityBounds
              ) -> tuple[dict[int, int], dict[int, float]]:
    """The (target, freqs) candidate a decision map re-commits to under
    residual budgets, before the prune; see repair_feasibility."""
    state = matching.new_state(sc)
    order = sorted(decisions, key=lambda k: (bounds.f_lower[k - 1, decisions[k]], k))
    for k in order:
        f = matching.pair_frequency(sc, state, k, decisions[k])
        if f is not None:
            matching.commit(sc, state, k, decisions[k], f)
    # the tasks still unmatched go to matching's completion, as a maxtask run
    # would place them from here
    matching.complete(sc, state, matching.build_preferences(sc, state, bounds), "maxtask")
    return state.omega, matching.redistribute_mec(state, sc)


def repair_feasibility(sc: Scenario, decisions: dict[int, int],
                       bounds: FeasibilityBounds,
                       rival: dict[int, int] | None = None) -> Assignment:
    """Re-commit a raw decision map under residual budgets.

    Each pair of the map is committed where it still fits, cheapest-to-fit
    first (ascending static minimum frequency at its device).
    matching.complete then places the tasks still unmatched (those that no
    longer fit their relaxed host, and the map's dropped ones) by the
    maxtask criterion, from preference lists priced at the residual
    budgets; a task that fits nowhere is dropped.  Leftover edge capacity
    is redistributed, and matching.finish ends the solve: it drops each
    placement that costs more than dropping its task.
    Given a rival map as well, both are re-committed and finish keeps the
    cheaper, `decisions` on a tie, and assembles only that one.  The result
    always validates."""
    maps = [decisions] if rival is None else [decisions, rival]
    return matching.finish(sc, *(_recommit(sc, m, bounds) for m in maps))


# ---------------------------------------------------------------------------
# full solve


def _ray_map(kern: _Kernel, mu, v, use: _Usage, s: float, warm):
    """The first decision map along the subgradient ray from (mu, v) that
    differs from use.dev, at steps 2s, 4s, ..., 2**PROBE_DOUBLINGS s; None if
    every probe keeps the map.  The probes leave the iterate alone."""
    for k in range(1, PROBE_DOUBLINGS + 1):
        probe, _ = kern.primal(*kern.dual_step(mu, v, use, s * 2.0 ** k), warm)
        if probe.dev != use.dev:
            return probe.dev
    return None


def solve(sc: Scenario) -> tuple[Assignment, IcrbiTrace]:
    """Run the dual iteration until the relaxed cost settles or the decision
    map stops changing, then repair.

    Stops when |C(t) - C(t-1)| < trace.eps (SETTLE_RTOL * |C(1)|), when no new
    0/1 decision map has appeared for MAP_STABLE_K (2) iterations, or after
    MAX_ITER iterations, whichever comes first; trace.termination says which
    ("converged", "map_stable" or "max_iter").  A settled or capped run
    repairs its final decision map; each repair ends in matching's maxtask
    completion (see repair_feasibility).  A map-stable run also probes along
    the current subgradient with ever longer steps (2s, 4s, ..., 2**12 s) for
    the first map that differs, repairs both, and returns the cheaper, the
    final map on a tie.  The probes are not iterations: they add nothing to
    the trace."""
    bounds = feasibility_bounds(sc)
    ray = None
    kern = _Kernel(sc, bounds)
    mu, v = [0.0] * sc.n, [0.0] * (sc.n + 1)
    trace = IcrbiTrace(termination="max_iter", n_root_pairs=len(kern.rows),
                       overhead=overhead(sc.n))
    warm = None
    prev_cost = None
    seen: set[tuple[int, ...]] = set()
    last_new = 0
    for t in range(1, MAX_ITER + 1):
        use, warm = kern.primal(mu, v, warm)
        cost = kern.reduced_cost(use)
        trace.reduced_cost.append(cost)
        trace.num_assigned.append(sc.n - use.dev.count(-1))
        trace.mu_norm.append(math.hypot(*mu))
        trace.v_norm.append(math.hypot(*v))
        key = tuple(use.dev)
        if key not in seen:
            seen.add(key)
            last_new = t
        if len(trace.reduced_cost) == 1:
            trace.eps = max(SETTLE_RTOL * abs(cost), 1e-12)
        elif abs(cost - prev_cost) < trace.eps:
            trace.termination = "converged"
            break
        s = STEP_SCALE / math.sqrt(t)
        if t - last_new >= MAP_STABLE_K:
            trace.termination = "map_stable"
            ray = _ray_map(kern, mu, v, use, s, warm)
            break
        mu, v = kern.dual_step(mu, v, use, s)
        prev_cost = cost
    rival = decisions_from(ray) if ray is not None else None
    return repair_feasibility(sc, decisions_from(use.dev), bounds, rival), trace
