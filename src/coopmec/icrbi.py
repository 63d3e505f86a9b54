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
one helper, or none: dropped).  The local test runs on arrays over all
tasks; a task whose local option lost and that has no remote pair is
dropped at once, and only the pairs of the other tasks whose local option
lost (the live pairs) are walked, once, on plain floats: screened at their
window ends, root-solved where the screen leaves them open
(model.balance_root, the safeguarded Newton that matching uses too) and
priced on the spot with inline copies of U and U' (offload_power's U bit
for bit; a U' that squares T f - c as a product, not a power, so it can
differ from offload_power_derivs in the last bit).  The other pairs keep
their previous stationary frequencies (the window midpoint before the first
solve), which warm-start the root once the task's local option loses; a
pair solved from such a stale start ends at the same root to within the
root tolerance, not always bit for bit.  A task whose effective power price
w_i + mu_i is zero stays at the lower end of each window.  The priced pair
cost is convex in f, so the clamped stationary frequency is its minimum
over the window: each iteration prices a pair once, there, and the
committed pairs' upload and hosted CPU power come from those same values.
The edge server's compute is free, as is a kappa-0 UE's, so their hosted
power is zero.

The relaxed iterate may violate capacity, so the final decision map is
re-committed through the matching module's residual-budget subproblem
(cheapest-to-place first, edge-server fallback, leftover capacity
redistributed, then matching.prune); the result always validates.

The repair reads only the 0/1 decision map, so the loop stops as soon as
that map stops changing: when no new map has appeared for MAP_STABLE_K
iterations ("map_stable"), unless the relaxed cost settled first
("converged") or the iteration cap came first ("max_iter").  A map-stable
stop probes along the current subgradient with ever longer steps for the
first map the prices would move to, repairs it next to the final map, and
keeps the cheaper (a Lagrangian heuristic in the sense of Fisher,
Management Science 1981).  Both rule-based stops count as converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matching
from .errors import UnknownAlgorithm
from .model import (EXP_CAP, LN2, Assignment, FeasibilityBounds, Scenario, balance_root,
                    feasibility_bounds, make_assignment, offload_power_slope_vec)

STEP_RULES = ("diminish", "square")
MAX_ITER = 2000         # iteration cap: a run stopped here reports "max_iter"
STEP_SCALE = 0.1        # step at iteration t: STEP_SCALE / sqrt(t) ("diminish") or / t
SETTLE_RTOL = 1e-4      # settled once |C(t) - C(t-1)| < SETTLE_RTOL * |C(1)| (at least 1e-12)
MAP_STABLE_K = 10       # stop after this many iterations without a new decision map
PROBE_DOUBLINGS = 12    # the exit probe tries steps 2s, 4s, ..., 2**12 s


def step_size(rule: str, t: int) -> float:
    """Step scale at iteration t (1-based)."""
    if rule == "diminish":
        return STEP_SCALE / math.sqrt(t)
    if rule == "square":
        return STEP_SCALE / t
    raise UnknownAlgorithm(f"step rule {rule!r}")


def check_settings(step_rule: str) -> None:
    """Reject an unknown step rule (UnknownAlgorithm)."""
    if step_rule not in STEP_RULES:
        raise UnknownAlgorithm(f"step rule {step_rule!r}")


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
    """The iterate as primal priced it, one entry per task: the host device
    (-1 for a dropped task), its frequency, its upload power U(x) (zero when
    local) and its hosted CPU power kappa * x**nu (zero at the edge server);
    a dropped task has all three at zero."""

    dev: np.ndarray
    freq: np.ndarray
    transmit: np.ndarray
    hosted: np.ndarray


class _Kernel:
    """Per-iteration primal/dual maths over the admissible remote pairs.

    Only a valid pair (task i, device j != i) has a stationary frequency, so
    those pairs are kept as a flat list, in task order and, within a task,
    in device order: task i's pairs are rows[starts[i]:starts[i + 1]].  Each
    row holds the pair's dual-independent constants as plain floats (its
    host, curve inputs and power law, its window, U' at both window ends and
    the window ends raised to nu - 1), gathered once, here.  Each iterate
    sends a task to one host at most, so primal returns it as per-task
    vectors (_Usage), and the dual step and the relaxed cost reduce those.
    The dual iterate is a pair of nonnegative prices in raw objective units:
    mu[i-1] adds to UE i's per-watt price w_i for its power budget, v[j]
    prices device j's CPU capacity per cycle/s.
    """

    def __init__(self, sc: Scenario, bounds: FeasibilityBounds):
        n = sc.n
        self.n = n
        self.bandwidth = sc.bandwidth
        self.noise_w = sc.noise_w
        arr = sc.arrays
        self.phi = arr.penalty
        self.w = arr.power_price
        self.eta = arr.eta
        # price per radiated watt: inf for an eta near zero (see primal); such
        # a task never uploads, so its relaxed-cost price is 0, not inf * 0
        with np.errstate(over="ignore"):
            pa_price = self.w / self.eta
        self.pa_price = np.where(pa_price < math.inf, pa_price, 0.0)
        self.p_m = arr.p_m
        nu_d = arr.nu
        self.fmax_d = arr.f_max
        self.host_w = np.concatenate([[0.0], self.w])      # compute price per device
        self.own = np.arange(1, n + 1)                  # each task's own UE
        self.local_ok = ~np.diagonal(bounds.blocked, 1)
        self.f_min = arr.f_min
        # a blocked or kappa-0 local pair is never priced, whatever its kappa, f_min or nu
        self.own_kappa = np.where(self.local_ok, arr.kappa[self.own], 0.0)
        self.fmin_nu = np.where(self.own_kappa > 0, self.f_min, 0.0) ** nu_d[self.own]
        # a local run's frequency, upload power and hosted CPU power
        self.local_terms = np.array([self.f_min, np.zeros(n), self.fmin_nu * self.own_kappa])

        pairs = bounds.pairs
        remote = pairs.cols != pairs.rows + 1                           # off the own UE
        ri, rj = pairs.rows[remote], pairs.cols[remote]
        starts = np.searchsorted(ri, np.arange(n + 1))
        self.starts = starts.tolist()
        self.remote_ok = starts[1:] > starts[:-1]       # the tasks with a remote pair
        curve = (arr.cycles[ri], arr.bits[ri], arr.deadline[ri], sc.gains[ri, rj])
        # each pair's host power law: a host that no pair reaches is never
        # priced, however large its kappa.  The server's compute is free, and
        # so is a kappa-0 UE's, so their power law is never raised: kappa 0
        # and exponent 0 there keep c1 = kappa * nu and c1 * f**(nu-1) at
        # zero, where a large kappa or f**(nu-1) would overflow
        kappa, nu = np.where(rj > 0, arr.kappa[rj], 0.0), nu_d[rj]
        nu1 = np.where(kappa > 0, nu - 1.0, 0.0)
        lo, hi = bounds.f_lower[ri, rj], arr.speed_cap[rj]
        # dual-independent terms, at both window ends at once
        ends = np.array([lo, hi])
        du_lo, du_hi = offload_power_slope_vec(*curve, self.bandwidth, self.noise_w, ends)
        cols = np.array([*curve, kappa * nu, kappa, nu, lo, hi, du_lo, du_hi, *(ends ** nu1)])
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
        w = self.w
        self.mu_scale = np.where(w > 0, w, 1.0)
        self.v_scale = np.ones(n + 1)
        # inf for a subnormal capacity, as for a UE below: such a server
        # opens no pair and carries no load (see dual_step)
        with np.errstate(over="ignore"):
            self.v_scale[0] = np.mean(self.phi) / sc.devices[0].f_max
        srv = rj == 0
        if srv.any():
            slope = float((pa_price[ri[srv]] * np.abs(du_hi[srv])).mean())
            if math.isfinite(slope) and slope > 0:
                self.v_scale[0] = slope
        # Python's **, which numpy's power can differ from in the last bit.  A
        # slope overflows only for a kappa near the float limit, whose speed
        # cap opens no window: the host carries no load (see dual_step)
        host_kappa, host_nu, caps = arr.kappa.tolist(), nu_d.tolist(), arr.speed_cap.tolist()
        for j, wj in enumerate(w.tolist(), 1):
            kj = host_kappa[j]
            slope = wj * kj * host_nu[j] * caps[j] ** (host_nu[j] - 1.0) if kj else 0.0
            self.v_scale[j] = slope if slope > 0 else self.v_scale[0]

    def primal(self, mu, v, warm=None):
        """One exact minimisation of the priced objective.

        Returns (use, gamma): each task's host with its frequency and power
        terms, and the per-pair stationary frequencies as a list, which
        warm-starts the next call.  Only the live pairs are solved and
        priced, in one pass on floats; the rest keep the gamma of `warm` (the
        window midpoint on the first call).  U at gamma is offload_power's
        expression, so a committed upload is the cost model's."""
        # local execution: the priced cost is increasing in f, so f_min is enough.
        # A price near the float limit saturates to inf and prices the local
        # run out; inf * 0 at a blocked local pair (own_kappa 0) is NaN, which loses too
        with np.errstate(over="ignore", invalid="ignore"):
            wi_eff = self.w + mu
            lam_local = wi_eff * self.own_kappa * self.fmin_nu + v[1:] * self.f_min - self.phi
        take_local = self.local_ok & (lam_local <= 0.0)
        terms = np.where(take_local, self.local_terms, 0.0)
        use = _Usage(np.where(take_local, self.own, -1), *terms)
        gamma = list(self.mid if warm is None else warm)
        # the tasks whose local option lost and that have a remote pair
        tasks = np.flatnonzero(self.remote_ok > take_local).tolist()
        wi, eta, vj, phi = wi_eff.tolist(), self.eta.tolist(), v.tolist(), self.phi.tolist()
        wh = [0.0, *wi]                                 # compute price per host
        rows, starts, bw, noise = self.rows, self.starts, self.bandwidth, self.noise_w
        ln2_bw, noise_ln2, cap = LN2 / bw, noise * LN2, EXP_CAP
        picks = []
        for i in tasks:
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
                c1, c2 = knu * wh[j] * r, vj[j] * r
                if fixed or not du_lo + c1 * lo_nu1 + c2 < 0.0:
                    g = lo
                elif du_hi + c1 * hi_nu1 + c2 <= 0.0:
                    g = hi
                else:
                    x0 = (self.mid[p] if warm is None
                          else min(max(warm[p], lo * (1 + 1e-12)), hi * (1 - 1e-12)))
                    nu1, nu2 = (nu - 1.0, nu - 2.0) if kappa else (0.0, 0.0)
                    g = balance_root(cyc, bits, dl, gain, bw, noise, nu1, nu2, c1, c2,
                                     lo, hi, x0)
                gamma[p] = g
                # g minimises the convex priced pair cost.  The task takes its
                # pair of least intercept among those that beat dropping; a
                # NaN intercept loses to any other, a tie keeps the lower device
                denom = dl * g - cyc
                x = ln2_bw * bits * g / denom if denom > 0.0 else math.inf
                u = math.inf if x > cap else noise / gain * math.expm1(x)
                g_nu = g ** nu if kappa else 0.0        # free: the server, a kappa-0 UE
                lam = pi * u + wh[j] * kappa * g_nu + vj[j] * g - phi_i
                if lam <= 0.0:                  # so u is finite: denom > 0, x <= cap
                    sq = denom * denom
                    du = (noise_ln2 / (bw * gain) * math.exp(x) * (-bits * cyc / sq)
                          if sq != 0.0 else -math.inf)
                    c = pi * (u - g * du)
                    if best is None or c < least or (least != least and c == c):
                        best, least = (i, j, g, u, g_nu * kappa), c
            if best is not None:
                picks.append(best)
        if picks:
            task, dev, *chosen = zip(*picks)
            task = np.array(task)
            use.dev[task], terms[:, task] = dev, chosen
        return use, gamma

    def dual_step(self, mu, v, use: _Usage, s: float):
        """Projected, preconditioned subgradient step of size s; returns the
        next (mu, v)."""
        transmit_in = use.transmit / self.eta          # PA input watts
        host = use.dev + 1                              # 0 for a dropped task
        compute_w = np.bincount(host, use.hosted, self.n + 2)[2:]
        load = np.bincount(host, use.freq, self.n + 2)[1:]
        # -inf for a scale near the float limit (no load, see __init__): v stays 0.
        # A power price near it saturates mu: inf prices UE i out of every option
        with np.errstate(over="ignore"):
            g_mu = self.mu_scale * (transmit_in + compute_w - self.p_m) / self.p_m
            g_v = self.v_scale * (load - self.fmax_d) / self.fmax_d
        return np.maximum(0.0, mu + s * g_mu), np.maximum(0.0, v + s * g_v)

    def reduced_cost(self, use: _Usage) -> float:
        add = np.add.reduce
        transmit = add(self.pa_price * use.transmit)
        compute = add(self.host_w[use.dev] * use.hosted)        # a dropped task hosts nothing
        saved = add(self.phi * (use.dev >= 0))
        return float(transmit + compute - saved)


# ---------------------------------------------------------------------------
# repair


def decisions_from(dev: np.ndarray) -> dict[int, int]:
    """Per-task hosts -> {task id: device id} map (assigned tasks only)."""
    return {i: d for i, d in enumerate(dev.tolist(), 1) if d >= 0}


def _recommit(sc: Scenario, decisions: dict[int, int], bounds: FeasibilityBounds
              ) -> tuple[dict[int, int], dict[int, float], float]:
    """The pruned target a decision map re-commits to under residual budgets,
    its placed cost (the total less the terms every map shares) and its
    frequencies; see repair_feasibility."""
    state = matching.new_state(sc)
    order = sorted(decisions, key=lambda k: (bounds.f_lower[k - 1, decisions[k]], k))
    for k in order:
        # a blocked server pair can still fit the residual budgets when its
        # window starts at f_min, where U is not usable: no fallback there
        fallback = decisions[k] != 0 and not bounds.blocked.item(k - 1, 0)
        for dev in ([decisions[k], 0] if fallback else [decisions[k]]):
            f = matching.pair_frequency(sc, state, k, dev)
            if f is not None:
                matching.commit(sc, state, k, dev, f)
                break
    freqs = matching.redistribute_mec(state, sc)
    return *matching.prune(sc, state.omega, freqs), freqs


def repair_feasibility(sc: Scenario, decisions: dict[int, int],
                       bounds: FeasibilityBounds,
                       rival: dict[int, int] | None = None) -> Assignment:
    """Re-commit a raw decision map under residual budgets.

    Tasks are placed cheapest-to-fit first (ascending static minimum
    frequency at their chosen device); a task that no longer fits falls back
    to the edge server if the static bounds leave that pair open and it
    still fits, otherwise it is dropped.
    Leftover edge capacity is redistributed, and a placement that then
    costs more than dropping its task is dropped.  Given a rival map as well,
    both are re-committed and the cheaper is kept, `decisions` on a tie;
    only the kept one is assembled.  The result always validates."""
    target, placed, freqs = _recommit(sc, decisions, bounds)
    if rival is not None:
        alt = _recommit(sc, rival, bounds)
        if alt[1] < placed:
            target, _, freqs = alt
    return make_assignment(sc, target, freqs)


# ---------------------------------------------------------------------------
# full solve


def _ray_map(kern: _Kernel, mu, v, use: _Usage, s: float, warm):
    """The first decision map along the subgradient ray from (mu, v) that
    differs from use.dev, at steps 2s, 4s, ..., 2**PROBE_DOUBLINGS s; None if
    every probe keeps the map.  The probes leave the iterate alone."""
    for k in range(1, PROBE_DOUBLINGS + 1):
        probe, _ = kern.primal(*kern.dual_step(mu, v, use, s * 2.0 ** k), warm)
        if not np.array_equal(probe.dev, use.dev):
            return probe.dev
    return None


def solve(sc: Scenario, step_rule: str = "diminish") -> tuple[Assignment, IcrbiTrace]:
    """Run the dual iteration until the relaxed cost settles or the decision
    map stops changing, then repair.

    Stops when |C(t) - C(t-1)| < trace.eps (SETTLE_RTOL * |C(1)|), when no new
    0/1 decision map has appeared for MAP_STABLE_K iterations, or after
    MAX_ITER iterations, whichever comes first; trace.termination says which
    ("converged", "map_stable" or "max_iter").  A settled or capped run
    repairs its final decision map.  A map-stable run also probes along the
    current subgradient with ever longer steps (2s, 4s, ..., 2**12 s) for
    the first map that differs, repairs both, and returns the cheaper, the
    final map on a tie.  The probes are not iterations: they add nothing to
    the trace."""
    check_settings(step_rule)
    bounds = feasibility_bounds(sc)
    ray = None
    kern = _Kernel(sc, bounds)
    mu, v = np.zeros(sc.n), np.zeros(sc.n + 1)
    trace = IcrbiTrace(termination="max_iter", n_root_pairs=len(kern.rows),
                       overhead=overhead(sc.n))
    warm = None
    prev_cost = None
    seen: set[bytes] = set()
    last_new = 0
    for t in range(1, MAX_ITER + 1):
        use, warm = kern.primal(mu, v, warm)
        cost = kern.reduced_cost(use)
        trace.reduced_cost.append(cost)
        trace.num_assigned.append(int((use.dev >= 0).sum()))
        # a price near the float limit overflows the sum of squares, not the
        # norm: math.hypot reports that one, every other norm keeps its bits
        with np.errstate(over="ignore"):
            sq_mu, sq_v = mu.dot(mu), v.dot(v)
        trace.mu_norm.append(math.sqrt(sq_mu) if sq_mu < math.inf else math.hypot(*mu.tolist()))
        trace.v_norm.append(math.sqrt(sq_v) if sq_v < math.inf else math.hypot(*v.tolist()))
        key = use.dev.tobytes()
        if key not in seen:
            seen.add(key)
            last_new = t
        if len(trace.reduced_cost) == 1:
            trace.eps = max(SETTLE_RTOL * abs(cost), 1e-12)
        elif abs(cost - prev_cost) < trace.eps:
            trace.termination = "converged"
            break
        s = step_size(step_rule, t)
        if t - last_new >= MAP_STABLE_K:
            trace.termination = "map_stable"
            ray = _ray_map(kern, mu, v, use, s, warm)
            break
        mu, v = kern.dual_step(mu, v, use, s)
        prev_cost = cost
    rival = decisions_from(ray) if ray is not None else None
    return repair_feasibility(sc, decisions_from(use.dev), bounds, rival), trace
