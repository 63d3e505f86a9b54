"""Reference solvers the real algorithms are checked against.

non_cope is the cooperation-free baseline: every task runs on its own UE or
on the edge server, never on a helper.  brute_force enumerates every
decision map a small instance admits and grids the frequencies inside each
map, giving a near-exact optimum for N <= 4.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import decentral, matching
from .errors import InstanceTooLarge
from .model import (Assignment, CHECK_TOL, FeasibilityBounds, Scenario,
                    feasibility_bounds, make_assignment, offload_power,
                    offload_power_vec)

BRUTE_FORCE_LIMIT = 4
GRID_POINTS = 200       # frequency lattice size of one coupled component


def non_cope(sc: Scenario) -> Assignment:
    """Local-or-edge baseline, no UE cooperation.

    Each task takes the cheaper of {local at its minimum frequency, edge
    server at its delay-tight frequency}, option costs taken at the request
    point.  The server requests go through the decentralized scheme's
    admission (cheapest frequency first, leftover capacity spread back over
    the admitted uploads); losers fall back to local when they can."""
    bounds, arr = feasibility_bounds(sc), sc.arrays
    target: dict[int, int] = {}
    freqs: dict[int, float] = {}
    requests: list[int] = []
    local_open = (~np.diagonal(bounds.blocked, 1)).tolist()
    mec_open = (~bounds.blocked[:, 0]).tolist()
    f_mec = bounds.f_lower[:, 0].tolist()
    for i in range(1, sc.n + 1):
        task = sc.tasks[i - 1]
        local_ok = local_open[i - 1]
        if mec_open[i - 1]:
            f_req = f_mec[i - 1]
            u = offload_power(task, sc.gains.item(i - 1, 0), sc.bandwidth, sc.noise_w, f_req)
            mec_cost = arr.upload_price[i - 1] * u
            # priced only when open: a blocked local f_min ** nu can overflow
            if not local_ok or mec_cost < arr.cpu_price[i] * task.f_min ** arr.power_law[i][1]:
                requests.append(i)
                continue
        if local_ok:
            target[i] = i
            freqs[i] = task.f_min
    mec_freqs = decentral.mec_admission(sc, bounds, requests)
    for k, f in mec_freqs.items():
        target[k] = 0
        freqs[k] = f
    for k in requests:
        if k not in mec_freqs and local_open[k - 1]:
            target[k] = k
            freqs[k] = sc.tasks[k - 1].f_min
    return matching.finish(sc, (target, freqs))


# ---------------------------------------------------------------------------
# exhaustive small-instance optimum


def decision_maps(sc: Scenario, bounds: FeasibilityBounds):
    """Yield every decision map honouring the static windows, as
    {task: device} dicts with unassigned tasks absent.  The number of maps
    is the product over tasks of (1 + number of admissible devices)."""
    options = [[None, *devices] for devices in bounds.pairs.devices]
    for combo in itertools.product(*options):
        yield {i + 1: d for i, d in enumerate(combo) if d is not None}


def _components(targets: dict[int, int]) -> list[list[int]]:
    """Split assigned tasks into groups whose constraints interact.

    Tasks sharing a host are coupled through its capacity; a hosted task is
    also coupled to the host UE's own task, whose transmit power draws on
    the same battery."""
    parent = {k: k for k in targets}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    by_dev: dict[int, list[int]] = {}
    for k, d in targets.items():
        by_dev.setdefault(d, []).append(k)
    for d, members in by_dev.items():
        for m in members[1:]:
            union(members[0], m)
        if d >= 1 and d in targets:
            union(members[0], d)
    groups: dict[int, list[int]] = {}
    for k in targets:
        groups.setdefault(find(k), []).append(k)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _grid_plan(dims: int) -> tuple[int, int]:
    """(points per axis, passes): flat grids up to two coupled tasks, then a
    coarser lattice refined around the incumbent (the per-component problem
    is convex, so zooming is safe)."""
    if dims <= 2:
        return GRID_POINTS, 1
    if dims == 3:
        return max(24, round(GRID_POINTS ** (2.0 / 3.0))), 3
    return max(12, round(math.sqrt(GRID_POINTS))), 3


def _grid_min(sc: Scenario, bounds: FeasibilityBounds, pairs: tuple):
    """Minimum cost of one coupled component {(task, device), ...} over a
    log-spaced frequency lattice; returns (cost, {task: f}) or None when no
    lattice point is feasible."""
    tasks = [sc.tasks[k - 1] for k, _ in pairs]
    dims = len(pairs)
    lo = np.array([bounds.f_lower[k - 1, d] for k, d in pairs])
    hi = sc.arrays.speed_cap[[d for _, d in pairs]]
    g, passes = _grid_plan(dims)
    col = {k: c for c, (k, _) in enumerate(pairs)}
    hosts = sorted({d for _, d in pairs})
    law, upload, cpu = sc.arrays.power_law, sc.arrays.upload_price, sc.arrays.cpu_price
    slack = 1.0 + CHECK_TOL

    best_cost = math.inf
    best_pt = None
    w_lo, w_hi = lo.copy(), hi.copy()
    for _ in range(passes):
        axes = [np.geomspace(w_lo[c], w_hi[c], g) for c in range(dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        F = np.stack([m.ravel() for m in mesh], axis=1)
        feas = np.ones(F.shape[0], dtype=bool)
        cost = np.zeros(F.shape[0])
        for d in hosts:
            cols = [col[k] for k, dd in pairs if dd == d]
            host = sc.devices[d]
            load = F[:, cols].sum(axis=1)
            feas &= load <= host.f_max * slack
            if d >= 1:
                kappa, nu = law[d]
                with np.errstate(over="ignore"):    # an overflowing F ** nu is over budget
                    draw = kappa * (F[:, cols] ** nu).sum(axis=1)
                if d in col and dict(pairs)[d] != d:
                    own = sc.tasks[d - 1]
                    ud = offload_power_vec(own.cycles, own.bits, own.deadline,
                                           sc.gains.item(d - 1, dict(pairs)[d]),
                                           sc.bandwidth, sc.noise_w, F[:, col[d]])
                    draw = draw + ud / host.eta
                feas &= draw + host.p_cir <= host.p_max * slack
        for c, (k, d) in enumerate(pairs):
            task = tasks[c]
            if d != k:
                u = offload_power_vec(task.cycles, task.bits, task.deadline,
                                      sc.gains.item(k - 1, d), sc.bandwidth, sc.noise_w,
                                      F[:, c])
                cost += upload[k - 1] * u
            if cpu[d]:                              # else 0, even where F ** nu overflows
                with np.errstate(over="ignore"):    # a price past the float limit prices out
                    cost += cpu[d] * F[:, c] ** law[d][1]
        cost = np.where(feas, cost, np.inf)
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best_cost = float(cost[i])
            best_pt = F[i].copy()
        if best_pt is None:
            return None
        with np.errstate(over="ignore"):            # a window wider than floats stays whole
            cell = (w_hi / w_lo) ** (1.0 / (g - 1))
        w_lo = np.maximum(lo, best_pt / cell ** 2)
        w_hi = np.minimum(hi, best_pt * cell ** 2)
    return best_cost, {k: float(best_pt[c]) for c, (k, _) in enumerate(pairs)}


def brute_force(sc: Scenario) -> Assignment:
    """Exhaustive optimum over decision maps with gridded frequencies.

    Ties between decision maps break towards the first map in enumeration
    order (per-task options ordered unassigned, device 0, 1, ...)."""
    if sc.n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(
            f"{sc.n} tasks: exhaustive search is limited to {BRUTE_FORCE_LIMIT}")
    bounds = feasibility_bounds(sc)
    circuit = sc.arrays.circuit
    phi_all = sc.arrays.penalty_total
    cache: dict[tuple, object] = {}
    best = (math.inf, None, None)
    for targets in decision_maps(sc, bounds):
        total = circuit + phi_all - sum(sc.tasks[k - 1].penalty for k in targets)
        freqs: dict[int, float] = {}
        ok = True
        for comp in _components(targets):
            key = tuple((k, targets[k]) for k in comp)
            if key not in cache:
                cache[key] = _grid_min(sc, bounds, key)
            r = cache[key]
            if r is None:
                ok = False
                break
            total += r[0]
            freqs.update(r[1])
        if ok and total < best[0]:
            best = (total, dict(targets), freqs)
    return make_assignment(sc, best[1], best[2])
