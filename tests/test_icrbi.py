"""Iterative priced-objective solver: primal rules, dual steps, repair."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import gen, mk_dev, mk_scenario, mk_task
from coopmec import icrbi, oracle
from coopmec.errors import UnknownAlgorithm
from coopmec.icrbi import (DualState, decisions_from, dual_scales, dual_update,
                           primal_update, repair_feasibility, solve,
                           solve_gamma, step_size)
from coopmec.model import feasibility_bounds, validate_constraints


def test_step_size_rules():
    assert math.isclose(step_size("diminish", 0.1, 1), 0.1)
    assert math.isclose(step_size("diminish", 0.1, 4), 0.05)
    assert math.isclose(step_size("square", 0.1, 4), 0.025)
    with pytest.raises(UnknownAlgorithm):
        step_size("bogus", 0.1, 1)
    with pytest.raises(UnknownAlgorithm):
        solve(gen(n=2, seed=0), step_rule="bogus")


def test_unpriced_offload_runs_flat_out(sc10):
    # with all multipliers at zero the remote marginal is the upload power
    # derivative alone, strictly negative, so the root escapes upward and
    # the window clamps it at the top
    bounds = feasibility_bounds(sc10)
    duals = DualState.zeros(sc10.n)
    for i in range(1, sc10.n + 1):
        if not bounds.blocked[i - 1, 0]:
            got = solve_gamma(sc10, bounds, i, 0, duals)
            assert got == bounds.f_upper[i - 1, 0]


def test_gamma_monotone_in_frequency_price():
    # a rising capacity price v_j can only slow the chosen frequency down
    checked = 0
    for seed in range(20):
        sc = gen(n=4, seed=seed)
        bounds = feasibility_bounds(sc)
        for i in range(1, sc.n + 1):
            for j in range(sc.n + 1):
                if i == j or bounds.blocked[i - 1, j]:
                    continue
                gammas = []
                for v in (0.0, 1e-10, 1e-9, 3e-8):
                    duals = DualState.zeros(sc.n)
                    vv = duals.v.copy()
                    vv[j] = v
                    gammas.append(solve_gamma(sc, bounds, i, j,
                                              DualState(mu=duals.mu, v=vv)))
                assert all(a >= b - 1e-6 for a, b in zip(gammas, gammas[1:]))
                checked += 1
    assert checked >= 30


def test_dual_scales_are_positive(sc10):
    bounds = feasibility_bounds(sc10)
    mu_scale, v_scale = dual_scales(sc10, bounds)
    assert mu_scale.shape == (sc10.n,)
    assert v_scale.shape == (sc10.n + 1,)
    assert (mu_scale > 0).all() and (v_scale > 0).all()


def test_multipliers_stay_nonnegative(sc10):
    bounds = feasibility_bounds(sc10)
    duals = DualState.zeros(sc10.n)
    for _ in range(6):
        x, a = primal_update(sc10, bounds, duals)
        duals = dual_update(sc10, bounds, duals, x, a)
        assert (duals.mu >= 0).all()
        assert (duals.v >= 0).all()
    assert duals.t == 7


def test_primal_prefers_local_when_it_wins():
    # local compute at 0.5 GHz costs 1.25e-4 W versus a 40.0 penalty and a
    # decent channel; the priced objective must keep the task at home
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)])
    bounds = feasibility_bounds(sc)
    x, a = primal_update(sc, bounds, DualState.zeros(1))
    assert decisions_from(a) == {1: 1}
    assert math.isclose(x[0, 1], sc.task(1).f_min, rel_tol=1e-12)


def test_primal_drops_task_with_no_winning_option():
    # penalty so small that even the cheapest execution costs more:
    # local compute at f_min costs 1.25e-1 W, uploads cost more than 1e-4
    sc = mk_scenario([mk_task(1, cycles=1e7, penalty=1e-6)],
                     [mk_dev(0, f_max=5e9), mk_dev(1, f_max=2e9, p_max=10.0)])
    bounds = feasibility_bounds(sc)
    x, a = primal_update(sc, bounds, DualState.zeros(1))
    assert a.sum() == 0
    assert decisions_from(a) == {}


def test_primal_tie_breaks_to_lower_device():
    # helpers 2 and 3 are byte-identical (device, gain), so their priced
    # intercepts coincide and the argmin must resolve to device 2
    tasks = [mk_task(1, cycles=4e7, penalty=50.0), mk_task(2), mk_task(3)]
    devices = [mk_dev(0, f_max=5e9), mk_dev(1, f_max=1e9, p_max=2.0),
               mk_dev(2, f_max=3e9, p_max=20.0), mk_dev(3, f_max=3e9, p_max=20.0)]
    n = 3
    gains = np.full((n, n + 1), 1e-10)
    gains[0, 0] = 1e-16            # the server link is hopeless for task 1
    sc = mk_scenario(tasks, devices, gain=gains)
    bounds = feasibility_bounds(sc)
    assert bounds.blocked[0, 0] and bounds.blocked[0, 1]
    x, a = primal_update(sc, bounds, DualState.zeros(n))
    assert decisions_from(a)[1] == 2


def test_solve_single_local_task_converges_fast():
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)])
    asg, trace = solve(sc)
    assert trace.termination == "converged"
    assert trace.iterations <= 2
    assert asg.target == {1: 1}
    assert math.isclose(asg.f[1], sc.task(1).f_min, rel_tol=1e-12)


def test_solve_bracketed_by_reference_solvers():
    # the repaired iterate can never beat exhaustive search, and it should
    # never lose to the cooperation-free baseline either
    for seed in range(12):
        sc = gen(n=3, seed=seed)
        total = solve(sc)[0].cost.total
        assert total >= oracle.brute_force(sc).cost.total - 1e-6
        assert total <= oracle.non_cope(sc).cost.total + 1e-9


def test_free_power_settles():
    # w = 0: a task whose power is free pays nothing for upload, so its
    # stationary frequency is the window's lower end, with no division by
    # the zero price; the dual loop then settles like a tiny positive price
    for seed in range(3, 8):
        sc = gen(n=8, seed=seed, w=0.0)
        bounds = feasibility_bounds(sc)
        kern = icrbi._Kernel(sc, bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, gamma = kern.primal(DualState.zeros(sc.n))
            asg, trace = solve(sc)
        assert np.array_equal(gamma, kern.lo)
        assert trace.termination == "converged"
        assert trace.iterations <= 10
        assert validate_constraints(sc, asg) == []
        assert asg.cost.total <= oracle.non_cope(sc).cost.total + 1e-9


def test_solve_is_deterministic(sc10):
    a1, t1 = solve(sc10)
    a2, t2 = solve(sc10)
    assert a1.target == a2.target
    assert a1.f == a2.f
    assert a1.cost == a2.cost
    assert t1.reduced_cost == t2.reduced_cost
    assert t1.iterations == t2.iterations


def test_solve_result_validates(sc10):
    asg, _ = solve(sc10)
    assert validate_constraints(sc10, asg) == []


def test_repair_is_idempotent(sc10):
    bounds = feasibility_bounds(sc10)
    x, a = primal_update(sc10, bounds, DualState.zeros(sc10.n))
    asg = repair_feasibility(sc10, decisions_from(a), bounds)
    again = repair_feasibility(sc10, dict(asg.target), bounds)
    assert again.target == asg.target
    assert math.isclose(again.cost.total, asg.cost.total, rel_tol=1e-9)


def test_repair_resolves_overloaded_helper():
    # both tasks want helper 3, whose CPU fits only one of them; the repair
    # must keep a valid assignment and fall the loser back to the server
    tasks = [mk_task(1, cycles=1.2e7), mk_task(2, cycles=1.2e7), mk_task(3)]
    devices = [mk_dev(0, f_max=5e9), mk_dev(1, f_max=0.52e9), mk_dev(2, f_max=0.52e9),
               mk_dev(3, f_max=0.8e9, p_max=3.0)]
    sc = mk_scenario(tasks, devices)
    asg = repair_feasibility(sc, {1: 3, 2: 3}, feasibility_bounds(sc))
    assert validate_constraints(sc, asg) == []
    assert 1 in asg.target and 2 in asg.target
    assert sorted(asg.target.values()) == [0, 3]


def test_trace_records_and_serialises(tmp_path, sc10):
    _, trace = solve(sc10)
    assert trace.iterations == len(trace.reduced_cost)
    assert len(trace.num_assigned) == trace.iterations
    assert trace.eps > 0
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,reduced_cost,num_assigned,mu_norm,v_norm"
    assert len(lines) == trace.iterations + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert math.isclose(float(first[1]), trace.reduced_cost[0])
