"""Sequential cooperative matching heuristic.

Tasks that can run locally do so at their slowest admissible frequency.  The
remaining tasks are matched one at a time: every unmatched task ranks the
devices that can still fit it (cheapest marginal cost first) and an ordering
criterion picks which task commits next.  A preference list is a plain sorted
list of (psi, device, f) tuples: psi is the pair's marginal cost and f the
frequency it would commit.  A pair that does not fit the residual budgets
prices to None and gets no entry.  `run` is built from these stages: the
opening (`seeded_state`, the budgets the local seeds leave, shared with
decentral), the first lists priced there over the pairs the static bounds
leave open (built once per scenario, shared by both criteria), `complete`,
`redistribute_mec` and `finish`.  `complete` is the completion step under
residual budgets, which icrbi's repair is to share.
It keeps its own lists up to date: a commitment of task k to device d
shrinks only d's residual frequency/power and, for an offloaded task, k's
residual power, so only the entries on devices d and k are priced again,
plus every entry of task d itself when d is a still unmatched UE (its
residual power is also its transmit budget).  Budgets only shrink during
the loop, so an entry that stops fitting is dropped for good.  Leftover
edge-server capacity is finally redistributed over the tasks it hosts to
cut their upload power.

`finish` is how every solver ends, this one, icrbi's repair, decentral and
the non-cooperative baseline alike: it drops each placement that costs more
than dropping its task (`prune`), keeps the cheapest of the candidate maps
it is given, and assembles and validates only that one (`make_assignment`).

Two ordering criteria are provided: "maxtask" favours the task with the
fewest remaining options (ties by cheapest head entry), "minpw" always
commits the globally cheapest head entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownAlgorithm
from .model import (LN2, Assignment, FeasibilityBounds, Scenario, assignment_cost,
                    balance_root_clamped, feasibility_bounds, make_assignment,
                    offload_power, speed_cap)

CRITERIA = ("maxtask", "minpw")


def overhead(n: int, n_h: int, n_mec: int) -> int:
    """Signalling scalars of one run: n_h non-local tasks, n_mec on the server."""
    return 2 * n_mec + (n_h + 1) * n_h * n // 2 + 3 * n + (2 * n + 1) * n_h


@dataclass
class MatchingState:
    """Matching progress: committed pairs, residual budgets, the tasks left unmatched."""

    omega: dict[int, int] = field(default_factory=dict)
    freqs: dict[int, float] = field(default_factory=dict)
    f_res: list[float] = field(default_factory=list)     # per device 0..N
    p_res: list[float] = field(default_factory=list)     # per device; inf at the server
    unmatched: set[int] = field(default_factory=set)
    overhead: int = 0
    converged = True                    # class constant, not a field: a one-pass run

    @property
    def iterations(self) -> int:
        return len(self.omega)          # one per commit: a task commits at most once

    def cost_series(self, sc: Scenario, asg: Assignment) -> list[float]:
        """Total cost after the local seeds, after each later commit, and of
        the returned assignment.  omega and freqs keep commit order and
        commit-time frequencies; the seeds (omega[k] == k) commit first."""
        pairs = list(self.omega.items())
        seeds = sum(k == dev for k, dev in pairs)
        return [assignment_cost(sc, dict(pairs[:m]), self.freqs)[0].total
                for m in range(seeds, len(pairs) + 1)] + [asg.cost.total]


def new_state(sc: Scenario) -> MatchingState:
    """Full budgets as Python floats, so every committed value is one too."""
    return MatchingState(f_res=sc.arrays.f_max.tolist(),
                         p_res=[math.inf, *sc.arrays.p_m.tolist()],
                         unmatched=set(range(1, sc.n + 1)))


def local_seed_set(sc: Scenario, bounds: FeasibilityBounds) -> set[int]:
    """Tasks whose own UE can execute them: f_min within the CPU capacity and
    the compute power it implies within the device's budget."""
    return {i for i, b in enumerate(np.diagonal(bounds.blocked, 1).tolist(), 1) if not b}


def seeded_state(sc: Scenario, bounds: FeasibilityBounds) -> MatchingState:
    """A copy of the state once every local seed commits at f_min (the opening)."""
    o = vars(sc).get("_opening")
    if o is None:
        o = vars(sc)["_opening"] = new_state(sc)
        for k in sorted(local_seed_set(sc, bounds)):
            commit(sc, o, k, k, sc.tasks[k - 1].f_min)
    return MatchingState(dict(o.omega), dict(o.freqs), o.f_res[:], o.p_res[:], set(o.unmatched))


def residual_window(sc: Scenario, state: MatchingState, k: int, dev: int
                    ) -> tuple[float, float] | None:
    """Admissible frequency window [lo, hi] for placing task k on `dev` given
    current residual budgets; None when it is empty."""
    task = sc.tasks[k - 1]
    if dev == k:
        lo = task.f_min
    else:
        budget = state.p_res[k]
        if budget <= 0:
            return None                 # no transmit budget left
        snr = sc.gains.item(k - 1, dev) * sc.devices[k].eta * budget / sc.noise_w
        rate = sc.bandwidth * math.log1p(snr) / LN2
        if task.deadline * rate <= task.bits:
            return None                 # deadline unreachable
        lo = task.cycles / (task.deadline - task.bits / rate)
    hi = speed_cap(state.f_res[dev], max(state.p_res[dev], 0.0), *sc.arrays.power_law[dev])
    if lo >= hi:
        return None
    return lo, hi


def pair_frequency(sc: Scenario, state: MatchingState, k: int, dev: int) -> float | None:
    """Frequency this pair would commit: the slowest admissible one for the
    edge server and for local execution, otherwise the point balancing the
    owner's marginal upload saving against the helper's marginal CPU power.
    None when the pair does not fit the residual budgets."""
    window = residual_window(sc, state, k, dev)
    if window is None:
        return None
    lo, hi = window
    if dev == 0 or dev == k:
        return lo
    task = sc.tasks[k - 1]
    w_k = task.power_price
    if w_k == 0.0:
        return lo                       # only the helper's CPU power matters
    nu = sc.arrays.power_law[dev][1]
    coeff = sc.arrays.cpu_price[dev] * nu * sc.devices[k].eta / w_k
    return balance_root_clamped(task, sc.gains.item(k - 1, dev), sc.bandwidth, sc.noise_w,
                                nu, coeff, lo, hi)


def pair_cost(sc: Scenario, k: int, dev: int, f: float) -> float:
    """Marginal system cost of accomplishing task k on `dev` at frequency f
    (upload power, host CPU power, minus the avoided drop penalty)."""
    task, arr = sc.tasks[k - 1], sc.arrays
    cost = -task.penalty
    if dev != k:
        u = offload_power(task, sc.gains.item(k - 1, dev), sc.bandwidth, sc.noise_w, f)
        cost += arr.upload_price[k - 1] * u
    return cost + arr.cpu_price[dev] * f ** arr.power_law[dev][1]


def prune(sc: Scenario, target: dict[int, int], freqs: dict[int, float]
          ) -> tuple[dict[int, int], float]:
    """The placements of `target` whose pair_cost at `freqs` is at most zero,
    in target order, and the sum of those costs.  Dropping a task only frees
    budget, so the kept map still validates, and it costs no more than
    dropping every task.  `finish` calls this for every solver."""
    kept, placed = {}, 0.0
    for k, dev in target.items():
        cost = pair_cost(sc, k, dev, freqs[k])
        if cost <= 0.0:
            kept[k] = dev
            placed += cost
    return kept, placed


def _priced(sc: Scenario, state: MatchingState, k: int, devices) -> list[tuple]:
    """(psi, device, f) entries of task k on those of `devices` that still fit it."""
    entries = []
    for dev in devices:
        f = pair_frequency(sc, state, k, dev)
        if f is not None:
            entries.append((pair_cost(sc, k, dev, f), dev, f))
    return entries


def build_preferences(sc: Scenario, state: MatchingState, bounds: FeasibilityBounds
                      ) -> dict[int, tuple[tuple, ...]]:
    """Rank every still-fitting device for each unmatched task, cheapest first.

    Only the pairs `bounds` leaves open are tried: the residual budgets never
    exceed the static ones, so a blocked pair cannot fit.  A device appears
    once per list, so sorting never compares frequencies.  Each list is a
    tuple, which a run can replace but not edit: the first lists are shared."""
    devices = bounds.pairs.devices
    return {k: tuple(sorted(_priced(sc, state, k, devices[k - 1])))
            for k in sorted(state.unmatched)}


def _reprice(sc: Scenario, state: MatchingState, prefs: dict[int, list[tuple]],
             k: int, dev: int) -> None:
    """Update `prefs` in place after task k committed to `dev`.

    The commit changed f_res[dev], p_res[dev] when dev > 0, and p_res[k] when
    dev != k.  Those are the only inputs of `residual_window`, so only entries
    on devices dev and k are stale, plus every entry of task dev, whose
    transmit budget is p_res[dev]."""
    stale = {dev, k}
    for m, entries in list(prefs.items()):
        redo = [d for _, d, _ in entries if m == dev or d in stale]
        if redo:
            kept = [e for e in entries if e[1] not in redo]
            prefs[m] = sorted(kept + _priced(sc, state, m, redo))
            if not prefs[m]:
                del prefs[m]            # no device fits task m any more: it gave up


def next_task(prefs: dict[int, list[tuple]], criterion: str) -> int:
    """Pick which task commits now; ties always break towards lower task id."""
    if criterion == "maxtask":
        key = lambda k: (len(prefs[k]), prefs[k][0][0], k)
    elif criterion == "minpw":
        key = lambda k: (prefs[k][0][0], k)
    else:
        raise UnknownAlgorithm(f"matching criterion {criterion!r}")
    return min(prefs, key=key)


def complete(sc: Scenario, state: MatchingState, prefs: dict[int, tuple[tuple, ...]],
             criterion: str) -> None:
    """Commit the task `criterion` picks at its head entry and reprice, until
    no list in `prefs` (left unedited) has a fitting entry.  The tasks that
    gave up stay in state.unmatched."""
    prefs = {k: entries for k, entries in prefs.items() if entries}
    while prefs:
        k = next_task(prefs, criterion)
        _, dev, f = prefs.pop(k)[0]
        commit(sc, state, k, dev, f)
        _reprice(sc, state, prefs, k, dev)


def commit(sc: Scenario, state: MatchingState, k: int, dev: int, f: float) -> None:
    """Bind task k to `dev` at frequency f and debit the residual budgets."""
    state.omega[k] = dev
    state.freqs[k] = f
    state.unmatched.discard(k)
    state.f_res[dev] -= f
    kappa, nu = sc.arrays.power_law[dev]
    state.p_res[dev] = max(0.0, state.p_res[dev] - kappa * f ** nu)
    if dev != k:
        u = offload_power(sc.tasks[k - 1], sc.gains.item(k - 1, dev), sc.bandwidth, sc.noise_w, f)
        state.p_res[k] = max(0.0, state.p_res[k] - u / sc.devices[k].eta)


def mec_topup(sc: Scenario, mec_freqs: dict[int, float]) -> dict[int, float]:
    """Spread leftover edge-server capacity over its tasks proportionally to
    their current upload power cost (heavier uploads get more speed-up)."""
    residue = sc.devices[0].f_max - sum(mec_freqs.values())
    if residue <= 0:
        return dict(mec_freqs)
    weights = {}
    for k, f in mec_freqs.items():
        u = offload_power(sc.tasks[k - 1], sc.gains.item(k - 1, 0), sc.bandwidth, sc.noise_w, f)
        weights[k] = sc.arrays.upload_price[k - 1] * u
    total = sum(weights.values())
    if total <= 0:
        share = {k: 1.0 / len(mec_freqs) for k in mec_freqs}
    else:
        share = {k: weights[k] / total for k in mec_freqs}
    return {k: f + share[k] * residue for k, f in mec_freqs.items()}


def redistribute_mec(state: MatchingState, sc: Scenario) -> dict[int, float]:
    """The committed frequencies with the edge-server top-up; the state is unchanged."""
    on_mec = {k: state.freqs[k] for k, dev in state.omega.items() if dev == 0}
    return {**state.freqs, **mec_topup(sc, on_mec)}


def finish(sc: Scenario, *candidates: tuple[dict[int, int], dict[int, float]]
           ) -> Assignment:
    """The validated assignment every solver returns: each (target, freqs)
    candidate is pruned, the one whose kept placements cost least (their
    pair_cost sum) is kept, the first on a tie or a NaN, and only that one is
    assembled, costed and validated (make_assignment)."""
    best = None
    for target, freqs in candidates:
        kept, placed = prune(sc, target, freqs)
        if best is None or placed < best[1]:
            best = kept, placed, freqs
    return make_assignment(sc, best[0], best[2])


def run(sc: Scenario, criterion: str = "maxtask") -> tuple[Assignment, MatchingState]:
    """Full heuristic: the opening, the first lists, `complete`, the
    edge-server top-up, `finish`."""
    if criterion not in CRITERIA:
        raise UnknownAlgorithm(f"matching criterion {criterion!r}")
    bounds = feasibility_bounds(sc)
    state = seeded_state(sc, bounds)
    n_h = len(state.unmatched)
    memo = vars(sc)                     # the first lists, priced at the seeded budgets
    if "_prefs" not in memo:
        memo["_prefs"] = build_preferences(sc, state, bounds)
    complete(sc, state, memo["_prefs"], criterion)
    freqs = redistribute_mec(state, sc)
    asg = finish(sc, (state.omega, freqs))
    state.overhead = overhead(sc.n, n_h, sum(d == 0 for d in asg.target.values()))
    return asg, state
