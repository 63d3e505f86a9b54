"""Scenario-static data is computed once per scenario and cannot go stale.

Every solver reads the feasibility bounds, the parameter arrays and the
constant cost terms from a cache on the Scenario instance.  These tests pin
down that the cache is filled once, shared, read-only, empty on a
dataclasses.replace copy, and that a solve does not depend on whether the
cache was already warm.  The enumeration of the open pairs is cached on the
bounds in turn: it must list exactly the unblocked pairs, give decentral's
step 3 the preference lists of a full scan, and stay unbuilt by a solve
that does not read it.  The matching opening is cached on the scenario as
well: the local seeds commit once and the first preference lists are priced
once for maxtask, minpw and decentral together, and each solve's whole
record, not only its assignment, is the same cold or warm and whichever
order the solvers run in.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen, mk_dev, mk_scenario, mk_task
from coopmec import decentral, icrbi, matching, model, oracle
from coopmec.errors import CoopMecError
from coopmec.harness import ALGORITHMS, run_algorithm
from coopmec.model import Scenario, feasibility_bounds

BOUND_FIELDS = ("f_lower", "blocked")
SOLVER_MODULES = (icrbi, matching, decentral, oracle)


def test_bounds_computed_once_and_shared(monkeypatch):
    computed = []
    compute = model._compute_bounds
    monkeypatch.setattr(model, "_compute_bounds",
                        lambda sc: computed.append(sc) or compute(sc))
    handed_out = []
    for mod in SOLVER_MODULES:
        def recorded(sc, name=mod.__name__):
            bounds = model.feasibility_bounds(sc)
            handed_out.append((name, bounds))
            return bounds
        monkeypatch.setattr(mod, "feasibility_bounds", recorded)

    sc = gen(n=10, seed=3)
    for algo in ALGORITHMS:
        run_algorithm(sc, algo)
    assert len(computed) == 1 and computed[0] is sc
    assert {name for name, _ in handed_out} == {m.__name__ for m in SOLVER_MODULES}
    first = handed_out[0][1]
    assert all(bounds is first for _, bounds in handed_out)


def test_cached_arrays_and_gains_are_read_only():
    sc = gen(n=6, seed=1)
    arrays = [v for v in sc.arrays if isinstance(v, np.ndarray)]
    bounds = feasibility_bounds(sc)
    arrays += [getattr(bounds, name) for name in BOUND_FIELDS]
    assert len(arrays) == 14
    for a in arrays + [sc.gains]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_gains_are_a_copy_of_the_caller_array():
    gains = np.full((2, 3), 1e-10)
    sc = mk_scenario([mk_task(1), mk_task(2)],
                     [mk_dev(0, f_max=5e9), mk_dev(1), mk_dev(2)], gain=gains)
    before = feasibility_bounds(sc).f_lower.copy()
    gains[:] = 1e-18                    # the caller's array stays writable
    assert (sc.gains == 1e-10).all()
    assert np.array_equal(feasibility_bounds(sc).f_lower, before)


def fresh_bounds(sc: Scenario):
    """Bounds of a newly built scenario with the same fields (empty cache)."""
    return feasibility_bounds(Scenario(**{f.name: getattr(sc, f.name)
                                          for f in dataclasses.fields(Scenario)}))


def assert_bounds_equal(a, b):
    for name in BOUND_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("change", ["tasks", "gains"])
def test_replace_starts_with_an_empty_cache(change):
    sc = gen(n=8, seed=2)
    parent = feasibility_bounds(sc)
    parent_circuit = sc.arrays.circuit
    if change == "tasks":
        # double every deadline and price: windows, f_min and circuit all move
        child = dataclasses.replace(sc, tasks=tuple(
            dataclasses.replace(t, deadline=2.0 * t.deadline, power_price=3.0)
            for t in sc.tasks))
    else:
        child = dataclasses.replace(sc, gains=sc.gains * 1e-3)
    bounds = feasibility_bounds(child)
    assert bounds is not parent
    assert_bounds_equal(bounds, fresh_bounds(child))
    assert not np.array_equal(bounds.f_lower, parent.f_lower)
    assert (child.arrays.circuit != parent_circuit) == (change == "tasks")


def solve_record(sc: Scenario, algorithm: str) -> tuple:
    """A solve's assignment, extras and whole record of the run: for
    matching the commit order, commit-time frequencies and cost series, for
    decentral every message, for icrbi the per-iteration trace."""
    asg, extras = run_algorithm(sc, algorithm)
    trace = extras.pop("trace")
    if algorithm in matching.CRITERIA:
        record = (list(trace.omega.items()), list(trace.freqs.items()), trace.iterations,
                  trace.overhead, trace.cost_series(sc, asg), trace.unmatched)
    elif algorithm == "decentral":
        record = (trace.events, trace.rounds, trace.overhead, trace.n_u, trace.n_mec)
    elif algorithm == "icrbi":
        record = (trace.termination, trace.reduced_cost, trace.num_assigned,
                  trace.mu_norm, trace.v_norm)
    else:
        record = trace
    return asg, extras, record


CACHE_CELLS = [
    (10, 0, {}), (10, 5, dict(f0_max=8e9)), (20, 1, {}),
    (20, 4, dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2)),
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n, seed, cell", CACHE_CELLS)
def test_cold_and_warm_solves_agree(algorithm, n, seed, cell):
    cold = gen(n=n, seed=seed, **cell)
    warm = gen(n=n, seed=seed, **cell)
    for other in ALGORITHMS:
        if other != algorithm:
            run_algorithm(warm, other)
    assert "_bounds" in vars(warm) and "_bounds" not in vars(cold)
    assert {"_opening", "_prefs"} <= set(vars(warm))
    assert not {"_opening", "_prefs"} & set(vars(cold))
    assert solve_record(cold, algorithm) == solve_record(warm, algorithm)


@pytest.mark.parametrize("n, seed, cell", CACHE_CELLS)
def test_solver_order_does_not_matter(n, seed, cell):
    # each solve copies the shared opening, so none of them can move
    # another's starting point, whichever runs first
    forward, backward = gen(n=n, seed=seed, **cell), gen(n=n, seed=seed, **cell)
    want = {algo: solve_record(forward, algo) for algo in ALGORITHMS}
    got = {algo: solve_record(backward, algo) for algo in reversed(ALGORITHMS)}
    assert got == want


def test_opening_built_once_and_shared(monkeypatch):
    # all five solvers on one scenario: the local seeds commit once, for
    # whichever of maxtask, minpw and decentral asks first, and the first
    # preference lists are priced once for both matching criteria
    built, committed = [], []
    build, commit = matching.build_preferences, matching.commit
    monkeypatch.setattr(matching, "build_preferences",
                        lambda *args: built.append(args[0]) or build(*args))
    monkeypatch.setattr(matching, "commit",
                        lambda sc, state, k, dev, f: committed.append((k, dev, f))
                        or commit(sc, state, k, dev, f))
    sc = gen(n=20, seed=1)
    seeds = sorted(matching.local_seed_set(sc, feasibility_bounds(sc)))
    assert seeds
    seed_commits, built_by = {}, {}
    for algo in ALGORITHMS:
        committed.clear()
        built.clear()
        run_algorithm(sc, algo)
        # icrbi's repair commits its own map and completes it from lists
        # priced at the budgets that map leaves
        if algo != "icrbi":
            seed_commits[algo] = [k for k, dev, f in committed
                                  if k == dev and f == sc.tasks[k - 1].f_min]
            built_by[algo] = built[:]
    assert built_by == {"maxtask": [sc], "minpw": [], "decentral": [], "noncope": []}
    assert seed_commits == {"maxtask": seeds, "minpw": [], "decentral": [], "noncope": []}
    # the cached lists are tuples, as priced at the seeded budgets
    prefs = vars(sc)["_prefs"]
    assert all(type(entries) is tuple for entries in prefs.values())
    fresh = build(sc, matching.seeded_state(sc, feasibility_bounds(sc)), feasibility_bounds(sc))
    assert prefs == {k: tuple(entries) for k, entries in fresh.items()}


@pytest.mark.parametrize("algorithm", ["maxtask", "minpw", "decentral"])
def test_one_solver_alone_builds_what_it_reads(algorithm):
    # decentral starts from the seeded budgets but never reads the lists
    sc = gen(n=10, seed=3)
    run_algorithm(sc, algorithm)
    assert "_opening" in vars(sc)
    assert ("_prefs" in vars(sc)) == (algorithm != "decentral")


def full_scan_preferences(sc: Scenario, bounds, k: int) -> list[tuple[float, int]]:
    """Task k's step-3 preference list by a scan over every UE: the
    reference for decentral.helper_preferences."""
    lower, blocked = bounds.f_lower[k - 1].tolist(), bounds.blocked[k - 1].tolist()
    return sorted((lower[j], j) for j in range(1, sc.n + 1) if j != k and not blocked[j])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       f0_exp=st.floats(8.0, 11.0), w=st.floats(0.0, 10.0),
       pathloss_exponent=st.floats(2.5, 5.0), ref_gain_exp=st.floats(-5.0, -1.0))
def test_open_pairs_are_the_unblocked_pairs(n, seed, f0_exp, w, pathloss_exponent,
                                            ref_gain_exp):
    # the cached enumeration lists each task's unblocked devices in order,
    # as Python ints, and its pair arrays are read-only and in the same order;
    # decentral's preference lists equal a scan over every UE
    try:
        sc = gen(n=n, seed=seed, f0_max=10.0 ** f0_exp, w=w,
                 pathloss_exponent=pathloss_exponent, pathloss_ref_gain=10.0 ** ref_gain_exp)
    except CoopMecError:
        return
    bounds = feasibility_bounds(sc)
    pairs = bounds.pairs
    assert bounds.pairs is pairs
    assert len(pairs.devices) == n
    for k in range(1, n + 1):
        assert pairs.devices[k - 1] == np.flatnonzero(~bounds.blocked[k - 1]).tolist()
        assert all(type(j) is int for j in pairs.devices[k - 1])
        assert decentral.helper_preferences(bounds, k) == full_scan_preferences(sc, bounds, k)
    assert pairs.rows.tolist() == [k - 1 for k in range(1, n + 1) for _ in pairs.devices[k - 1]]
    assert pairs.cols.tolist() == [j for row in pairs.devices for j in row]
    for a in (pairs.rows, pairs.cols):
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = a[:1]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_only_the_pair_walking_solvers_build_the_enumeration(algorithm):
    # noncope reads the own-UE and server columns only: a scenario it alone
    # solves never pays for the enumeration of the open pairs
    sc = gen(n=10, seed=3)
    run_algorithm(sc, algorithm)
    assert ("pairs" in vars(feasibility_bounds(sc))) == (algorithm != "noncope")
