"""Scenario-static data is computed once per scenario and cannot go stale.

Every solver reads the feasibility bounds, the parameter arrays and the
constant cost terms from a cache on the Scenario instance.  These tests pin
down that the cache is filled once, shared, read-only, empty on a
dataclasses.replace copy, and that a solve does not depend on whether the
cache was already warm.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import gen, mk_dev, mk_scenario, mk_task
from coopmec import decentral, icrbi, matching, model, oracle
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
