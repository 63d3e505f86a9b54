"""Decentralized three-step offloading (CLI label: decentral).

Step 1 runs every task locally that fits its own UE.  Step 2 lets the
remaining tasks request the edge server at their minimum admissible
frequency, and leftover server capacity is spread back over the admitted
uploads.  Step 3 places the still-unmatched tasks on helper UEs by deferred
acceptance with permanent rejections, requested frequencies frozen at each
pair's minimum.  Both steps admit by one rule, `prefix_admit`: a host keeps
the longest cheapest-first prefix of its offers that fits its CPU capacity
and its power budget (the server draws no power).

A UE whose own task is still seeking a host must keep its battery free for
the upload that placement would trigger (the minimum-frequency request
consumes the full transmit budget), so such a device accepts no guests
until its task is placed elsewhere or gives up.  Without that reservation
the final matching can overdraw a helper's power budget.

`run` records the signalling overhead of the run on its RoundLog.  Step 2
also serves the non-cooperative baseline, which requests the server alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

from . import matching
from .model import (Assignment, DeviceProfile, FeasibilityBounds, Scenario,
                    assignment_cost, feasibility_bounds, make_assignment)


def overhead(n: int, n_u: int, n_mec: int, rounds: int) -> int:
    """Signalling scalars of one run: n_u tasks in step 3, n_mec on the server."""
    return 2 * rounds * n_u + (n - 1) * n_u + 2 * n_mec + 2 * n


@dataclass
class RoundLog:
    """Message-level record of one decentralized run.

    events holds (round, task, device, f, verdict) rows where verdict is one
    of request / hold / reject / evict; one iteration is one step-3 round.
    """

    n_u: int = 0
    n_mec: int = 0
    rounds: int = 0
    events: list[tuple[int, int, int, float, str]] = field(default_factory=list)
    overhead: int = 0
    converged = True                    # class constant, not a field: a one-pass run

    @property
    def iterations(self) -> int:
        return self.rounds

    def lines(self):
        for rnd, task, dev, f, verdict in self.events:
            yield f"{rnd} {task} {dev} {f!r} {verdict}"

    def cost_series(self, sc: Scenario, asg: Assignment) -> list[float]:
        """Total cost after step 1, after step 2, with the offers held at the
        end of each step-3 round (replayed from the events), and of `asg`."""
        held, freqs = {}, dict(asg.f)
        cost = lambda target: assignment_cost(sc, target, freqs)[0].total
        local = {k: k for k, d in asg.target.items() if d == k}
        placed = {**local, **{k: 0 for k, d in asg.target.items() if d == 0}}
        series = [cost(local), cost(placed)]
        for _, events in groupby(self.events, key=lambda e: e[0]):
            for _, k, d, f, verdict in events:
                if verdict == "hold":
                    held[k], freqs[k] = d, f
                elif verdict == "evict":
                    del held[k]
            series.append(cost({**placed, **dict(sorted(held.items()))}))
        return series + [asg.cost.total]


def prefix_admit(offers: list[tuple[float, int]], host: DeviceProfile,
                 capacity: float, budget: float) -> int:
    """Length of the longest prefix of `offers`, (frequency, task) pairs in
    ascending order, that fits `capacity` and whose CPU power on `host` fits
    `budget`.  The edge server and a UE with kappa == 0 draw no power."""
    cum_f = 0.0
    cum_p = 0.0
    for keep, (f, _) in enumerate(offers):
        cum_f += f
        if cum_f > capacity:
            return keep
        if host.id and host.kappa > 0:
            cum_p += f ** host.nu
            if host.kappa * cum_p > budget:
                return keep
    return len(offers)


def mec_admission(sc: Scenario, bounds: FeasibilityBounds,
                  candidates) -> tuple[set[int], dict[int, float]]:
    """Step 2: admit edge-server requests of `candidates` cheapest-first (ties
    towards the lower id), then top up.  Returns the admitted set and their
    frequencies after leftover capacity is spread."""
    f_mec, blocked = bounds.f_lower[:, 0].tolist(), bounds.blocked[:, 0].tolist()
    requests = sorted((f_mec[k - 1], k) for k in candidates if not blocked[k - 1])
    server = sc.devices[0]
    admitted = requests[:prefix_admit(requests, server, server.f_max, math.inf)]
    freqs = matching.mec_topup(sc, {k: f for f, k in admitted})
    return {k for _, k in admitted}, freqs


def helper_preferences(bounds: FeasibilityBounds, k: int) -> list[tuple[float, int]]:
    """(minimum frequency, device) of each UE helper open to task k, in the
    order step 3 asks them: cheapest first, ties towards the lower id."""
    lower = bounds.f_lower
    return sorted((lower.item(k - 1, j), j) for j in bounds.pairs.devices[k - 1] if j and j != k)


def deferred_acceptance(sc: Scenario, state: matching.MatchingState,
                        log: RoundLog, bounds: FeasibilityBounds) -> dict[int, int]:
    """Step 3: synchronized-round deferred acceptance among UE helpers.

    The participants are the tasks still unmatched in `state`.  Each round
    every unplaced task asks the cheapest device that has not yet rejected
    it; each device pools newly asked and currently held offers, sorts them
    by (frequency, task id) and keeps the longest prefix that fits its
    residual CPU capacity and its residual power budget.  Rejections are
    permanent.  Returns {task: device} for the offers held at termination."""
    participants = sorted(state.unmatched)
    prefs = {k: helper_preferences(bounds, k) for k in participants}
    ptr = {k: 0 for k in participants}
    holding: dict[int, int | None] = {k: None for k in participants}
    held_at: dict[int, list[tuple[float, int]]] = {}

    def seeking(k: int) -> bool:
        return holding[k] is not None or ptr[k] < len(prefs[k])

    while True:
        new_req: dict[int, list[tuple[float, int]]] = {}
        for k in participants:
            if holding[k] is None and ptr[k] < len(prefs[k]):
                f, d = prefs[k][ptr[k]]
                new_req.setdefault(d, []).append((f, k))
        if not new_req:
            break
        log.rounds += 1
        rnd = log.rounds
        # budgets frozen at round start so device processing order is moot
        open_budget = {}
        for d in new_req:
            own_seeks = d in holding and seeking(d)
            open_budget[d] = 0.0 if own_seeks else state.p_res[d]
        for d, f, k in sorted((d, f, k) for d, reqs in new_req.items() for f, k in reqs):
            log.events.append((rnd, k, d, f, "request"))
        for d in sorted(new_req):
            pool = sorted(held_at.get(d, []) + new_req[d])
            keep = prefix_admit(pool, sc.devices[d], state.f_res[d], open_budget[d])
            accepted = pool[:keep]
            was_held = {k for _, k in held_at.get(d, [])}
            for f, k in pool[keep:]:
                holding[k] = None
                ptr[k] += 1
                log.events.append((rnd, k, d, f, "evict" if k in was_held else "reject"))
            for f, k in accepted:
                if k not in was_held:
                    holding[k] = d
                    log.events.append((rnd, k, d, f, "hold"))
            held_at[d] = accepted
    return {k: d for k, d in holding.items() if d is not None}


def run(sc: Scenario) -> tuple[Assignment, RoundLog]:
    """Full three-step decentralized algorithm; the result always validates."""
    state = matching.new_state(sc)
    bounds = feasibility_bounds(sc)
    log = RoundLog()
    for k in sorted(matching.local_seed_set(sc, bounds)):
        matching.commit(sc, state, k, k, sc.tasks[k - 1].f_min)

    k_mec, mec_freqs = mec_admission(sc, bounds, set(state.unmatched))
    for k in sorted(k_mec):
        matching.commit(sc, state, k, 0, mec_freqs[k])
    log.n_mec = len(k_mec)

    log.n_u = len(state.unmatched)
    held = deferred_acceptance(sc, state, log, bounds)
    for k in sorted(held):
        matching.commit(sc, state, k, held[k], bounds.f_lower.item(k - 1, held[k]))

    asg = make_assignment(sc, matching.prune(sc, state.omega, state.freqs)[0], state.freqs)
    log.overhead = overhead(sc.n, log.n_u, log.n_mec, log.rounds)
    return asg, log

