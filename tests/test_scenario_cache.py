"""Scenario-static data is computed once per scenario and cannot go stale.

Every solver reads the feasibility bounds, the parameter arrays and the
constant cost terms from a cache on the Scenario instance.  These tests pin
down that the cache is filled once, shared, read-only, empty on a
dataclasses.replace copy, and that a solve does not depend on whether the
cache was already warm.  The enumeration of the open pairs is cached on the
bounds in turn: it must list exactly the unblocked pairs, give decentral's
step 3 the preference lists of a full scan, and stay unbuilt by a solve
that does not read it.
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

BOUND_FIELDS = ("f_upper", "f_lower", "blocked")
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
    assert len(arrays) == 15
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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n, seed, cell", [
    (10, 0, {}), (10, 5, dict(f0_max=8e9)), (20, 1, {}),
    (20, 4, dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2)),
])
def test_cold_and_warm_solves_agree(algorithm, n, seed, cell):
    cold = gen(n=n, seed=seed, **cell)
    warm = gen(n=n, seed=seed, **cell)
    for other in ALGORITHMS:
        if other != algorithm:
            run_algorithm(warm, other)
    assert "_bounds" in vars(warm) and "_bounds" not in vars(cold)
    assert run_algorithm(cold, algorithm)[0] == run_algorithm(warm, algorithm)[0]


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
