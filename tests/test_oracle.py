"""Reference solvers: cooperation-free baseline and exhaustive search."""

from __future__ import annotations

import math

import pytest

from conftest import gen, mk_dev, mk_scenario, mk_task
from coopmec import decentral, icrbi, matching, oracle
from coopmec.errors import InstanceTooLarge
from coopmec.model import feasibility_bounds, validate_constraints
from coopmec.oracle import BRUTE_FORCE_LIMIT, brute_force, decision_maps, non_cope


def test_non_cope_never_uses_helpers(sc10):
    asg = non_cope(sc10)
    assert validate_constraints(sc10, asg) == []
    for k, d in asg.target.items():
        assert d in (0, k)


def test_non_cope_prefers_the_cheaper_side():
    # a featherweight task stays at home (0.125 mW of compute); a heavy one
    # that no UE CPU can hold must ride the uplink
    light = mk_task(1, cycles=1e6)
    heavy = mk_task(2, cycles=3e7)
    sc = mk_scenario([light, heavy], [mk_dev(0, f_max=5e9), mk_dev(1),
                                      mk_dev(2)])
    asg = non_cope(sc)
    assert asg.target[1] == 1
    assert asg.target[2] == 0


def test_non_cope_admission_overflow_drops_loser():
    # two tasks too big for their own CPUs both request the server, whose
    # capacity holds only the smaller request; the loser is dropped and the
    # winner soaks up the leftover capacity
    t1 = mk_task(1, cycles=2.6e7)      # f_min 1.3 GHz
    t2 = mk_task(2, cycles=3.0e7)      # f_min 1.5 GHz
    sc = mk_scenario([t1, t2], [mk_dev(0, f_max=2e9),
                                mk_dev(1, p_max=3.0), mk_dev(2, p_max=3.0)])
    asg = non_cope(sc)
    assert validate_constraints(sc, asg) == []
    assert asg.target == {1: 0}
    assert math.isclose(asg.f[1], 2e9, rel_tol=1e-12)


def test_non_cope_with_stub_server():
    sc = gen(n=5, seed=2, f0_max=1.0)
    asg = non_cope(sc)
    assert validate_constraints(sc, asg) == []
    assert all(d != 0 for d in asg.target.values())


def test_decision_map_enumeration_counts():
    sc = gen(n=3, seed=4)
    bounds = feasibility_bounds(sc)
    maps = list(decision_maps(sc, bounds))
    want = 1
    for i in range(1, sc.n + 1):
        want *= 1 + int((~bounds.blocked[i - 1]).sum())
    assert len(maps) == want
    assert {} in maps
    for m in maps:
        for k, d in m.items():
            assert not bounds.blocked[k - 1, d]


def test_brute_force_instance_cap():
    assert BRUTE_FORCE_LIMIT == 4
    with pytest.raises(InstanceTooLarge):
        brute_force(gen(n=5, seed=0))


def test_single_task_all_solvers_agree():
    # with one task every solver faces the same one-dimensional choice
    for seed in range(10):
        sc = gen(n=1, seed=seed)
        ref = brute_force(sc).cost.total
        assert math.isclose(non_cope(sc).cost.total, ref, rel_tol=1e-9)
        assert math.isclose(icrbi.solve(sc)[0].cost.total, ref, rel_tol=1e-9)
        assert math.isclose(matching.run(sc)[0].cost.total, ref, rel_tol=1e-9)
        assert math.isclose(decentral.run(sc)[0].cost.total, ref, rel_tol=1e-9)


def test_brute_force_grid_is_converged(monkeypatch):
    # doubling the frequency grid moves the optimum by well under 0.5%
    def grid_cost(sc, points):
        monkeypatch.setattr(oracle, "GRID_POINTS", points)
        return brute_force(sc).cost.total

    for seed in range(10):
        sc = gen(n=3, seed=seed)
        a = grid_cost(sc, 200)
        b = grid_cost(sc, 400)
        assert abs(a - b) / abs(a) < 5e-3


def test_brute_force_lower_bounds_every_algorithm():
    for seed in range(8):
        sc = gen(n=3, seed=seed)
        best = brute_force(sc).cost.total
        others = [non_cope(sc).cost.total,
                  icrbi.solve(sc)[0].cost.total,
                  matching.run(sc, "maxtask")[0].cost.total,
                  matching.run(sc, "minpw")[0].cost.total,
                  decentral.run(sc)[0].cost.total]
        for got in others:
            assert got >= best - 1e-6
