"""Iterative priced-objective solver: primal rules, dual steps, repair."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import gen, icrbi_step, mk_dev, mk_scenario, mk_task, remote_pairs
from coopmec import cli, icrbi, matching, oracle
from coopmec.harness import run_algorithm
from coopmec.icrbi import decisions_from, repair_feasibility, solve
from coopmec.model import feasibility_bounds, validate_constraints


def unpriced(n):
    """The dual iterate (mu, v) with every price at zero."""
    return [0.0] * n, [0.0] * (n + 1)


def primal(sc):
    """(x, dev) of one exact unpriced minimisation by the solver's kernel:
    each task's frequency and host (-1 when dropped)."""
    use, _ = icrbi._Kernel(sc, feasibility_bounds(sc)).primal(*unpriced(sc.n))
    return use.freq, use.dev


def test_unpriced_offload_runs_flat_out(sc10):
    # with all multipliers at zero the remote marginal is the upload power
    # derivative alone, strictly negative, so the root escapes upward and
    # the window clamps it at the top.  Only the pairs of a task that does
    # not run locally are solved, so only those rows are read
    bounds = feasibility_bounds(sc10)
    kern = icrbi._Kernel(sc10, bounds)
    use, gamma = kern.primal(*unpriced(sc10.n))
    ri, rj, _, _ = remote_pairs(sc10, bounds)
    server = (rj == 0) & (np.array(use.dev)[ri] != ri + 1)
    assert server.any()
    assert (np.array(gamma)[server] == sc10.arrays.speed_cap[0]).all()


def test_gamma_monotone_in_frequency_price():
    # a rising capacity price v_j can only slow the chosen frequency down;
    # pair (i, j) reads only v_j, so every device is priced alike
    checked = 0
    for seed in range(20):
        sc = gen(n=4, seed=seed)
        kern = icrbi._Kernel(sc, feasibility_bounds(sc))
        gammas = [np.array(kern.primal([0.0] * sc.n, [v] * (sc.n + 1))[1])
                  for v in (0.0, 1e-10, 1e-9, 3e-8)]
        for a, b in zip(gammas, gammas[1:]):
            assert (a >= b - 1e-6).all()
        checked += len(kern.rows)
    assert checked >= 30


def test_dual_scales_are_positive(sc10):
    kern = icrbi._Kernel(sc10, feasibility_bounds(sc10))
    mu_scale, v_scale = kern.mu_scale, kern.v_scale
    assert len(mu_scale) == sc10.n
    assert len(v_scale) == sc10.n + 1
    assert min(mu_scale) > 0 and min(v_scale) > 0


def test_multipliers_stay_nonnegative(sc10):
    kern = icrbi._Kernel(sc10, feasibility_bounds(sc10))
    mu, v = unpriced(sc10.n)
    for t in range(1, 7):
        use, _ = kern.primal(mu, v)
        mu, v = kern.dual_step(mu, v, use, icrbi_step(t))
        assert min(mu) >= 0
        assert min(v) >= 0


def test_primal_prefers_local_when_it_wins():
    # local compute at 0.5 GHz costs 1.25e-4 W versus a 40.0 penalty and a
    # decent channel; the priced objective must keep the task at home
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)])
    x, dev = primal(sc)
    assert decisions_from(dev) == {1: 1}
    assert math.isclose(x[0], sc.tasks[0].f_min, rel_tol=1e-12)


def test_primal_drops_task_with_no_winning_option():
    # penalty so small that even the cheapest execution costs more:
    # local compute at f_min costs 1.25e-1 W, uploads cost more than 1e-4
    sc = mk_scenario([mk_task(1, cycles=1e7, penalty=1e-6)],
                     [mk_dev(0, f_max=5e9), mk_dev(1, f_max=2e9, p_max=10.0)])
    x, dev = primal(sc)
    assert dev == [-1] and x == [0.0]
    assert decisions_from(dev) == {}


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
    x, dev = primal(sc)
    assert decisions_from(dev)[1] == 2


def test_solve_single_local_task_converges_fast():
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)])
    asg, trace = solve(sc)
    assert trace.termination == "converged"
    assert trace.iterations <= 2
    assert asg.target == {1: 1}
    assert math.isclose(asg.f[1], sc.tasks[0].f_min, rel_tol=1e-12)


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
            use, gamma = kern.primal(*unpriced(sc.n))
            asg, trace = solve(sc)
        # the solved pairs: those of the tasks that do not run locally
        ri, _, lo, _ = remote_pairs(sc, bounds)
        live = np.array(use.dev)[ri] != ri + 1
        assert live.any()
        assert np.array_equal(np.array(gamma)[live], lo[live])
        assert trace.termination == "converged"
        assert trace.iterations <= 10
        assert validate_constraints(sc, asg) == []
        assert asg.cost.total <= oracle.non_cope(sc).cost.total + 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vanishing_pa_efficiency_keeps_the_relaxed_cost_finite(seed):
    # eta = 1e-320 prices every upload at inf per watt, so no task uploads;
    # its transmit term is 0, where inf * 0 once made every relaxed cost NaN
    # and the solve ran on to a map-stable stop
    sc = gen(n=4, seed=seed, eta=1e-320)
    asg, trace = solve(sc)
    assert all(math.isfinite(c) for c in trace.reduced_cost)
    assert trace.termination == "converged"
    assert validate_constraints(sc, asg) == []


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


def test_iteration_cap_returns_repaired_assignment(sc10, monkeypatch):
    # sc10 stops map-stable after 3 iterations, so a cap of 2 stops the loop first
    monkeypatch.setattr(icrbi, "MAX_ITER", 2)
    asg, trace = solve(sc10)
    assert trace.termination == "max_iter" and not trace.converged
    assert trace.iterations == 2
    assert validate_constraints(sc10, asg) == []
    _, extras = run_algorithm(sc10, "icrbi")
    assert extras["converged"] is False and extras["iterations"] == 2
    assert extras["trace"].reduced_cost == trace.reduced_cost


@pytest.mark.parametrize("argv", [
    ["--step-rule", "diminish:nan"], ["--step-rule", "square:inf"],
    ["--step-rule", "diminish:0"], ["--step-rule", "diminish:0.1"],
    ["--eps", "nan"], ["--eps", "0"], ["--eps", "-1"], ["--eps", "1e-3"],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_bad_icrbi_settings(capsys, argv):
    # icrbi has no settings: its step is icrbi.STEP_SCALE / sqrt(t) and its
    # settle threshold SETTLE_RTOL, so neither --step-rule nor --eps is an option
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--algo", "icrbi", "--realizations", "1"] + argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


def test_repair_is_idempotent(sc10):
    bounds = feasibility_bounds(sc10)
    x, dev = primal(sc10)
    asg = repair_feasibility(sc10, decisions_from(dev), bounds)
    again = repair_feasibility(sc10, dict(asg.target), bounds)
    assert again.target == asg.target
    assert math.isclose(again.cost.total, asg.cost.total, rel_tol=1e-9)


def test_repair_resolves_overloaded_helper():
    # both tasks want helper 3, whose CPU fits only one of them; the repair
    # must keep a valid assignment, and its completion places the loser on
    # the server.  Task 3, in no map, is left to the completion too
    tasks = [mk_task(1, cycles=1.2e7), mk_task(2, cycles=1.2e7), mk_task(3)]
    devices = [mk_dev(0, f_max=5e9), mk_dev(1, f_max=0.52e9), mk_dev(2, f_max=0.52e9),
               mk_dev(3, f_max=0.8e9, p_max=3.0)]
    sc = mk_scenario(tasks, devices)
    asg = repair_feasibility(sc, {1: 3, 2: 3}, feasibility_bounds(sc))
    assert validate_constraints(sc, asg) == []
    assert 1 in asg.target and 2 in asg.target
    assert sorted([asg.target[1], asg.target[2]]) == [0, 3]


def test_repair_leaves_a_task_that_no_longer_fits_to_the_completion():
    # the relaxed map runs tasks 1 and 5 on UE 1 and task 10 on the server.
    # Task 5 commits first and leaves no room on UE 1 for task 1, which is
    # left to the completion; it does not take the server ahead of task 10,
    # which still fits there.  Task 1 on the server instead costs 396.336
    sc = gen(seed=111)
    asg, trace = solve(sc)
    assert trace.termination == "converged"
    assert asg.target == {5: 1, 10: 0}
    assert validate_constraints(sc, asg) == []
    assert asg.cost.total < 396.336


# the README cell, the steep-path-loss cell and a cell where cooperation
# pays (short-range, fast-UE, slow-server: ROADMAP item 19's cell F)
REPAIR_CELLS = {
    "default": {},
    "steep": dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2),
    "coop": dict(cycles=(3e7, 9e7), f_ue=(0.3e9, 4e9), cell_m=200.0, kappa=3e-28,
                 f0_max=2e9, deadline_s=(0.05, 0.1)),
}


@pytest.mark.parametrize("cell", sorted(REPAIR_CELLS))
def test_repair_completes_every_task_that_still_fits(monkeypatch, cell):
    # each map the solve repairs ends its commits in matching's completion:
    # at the residual budgets it leaves, no device fits a task still unmatched
    states = []
    redistribute = matching.redistribute_mec
    monkeypatch.setattr(matching, "redistribute_mec",
                        lambda state, sc: states.append(state) or redistribute(state, sc))
    unmatched = 0
    for n, seed in itertools.product((10, 40), range(4)):
        sc = gen(n=n, seed=seed, **REPAIR_CELLS[cell])
        states.clear()
        asg, _ = solve(sc)
        assert validate_constraints(sc, asg) == []
        assert states
        bounds = feasibility_bounds(sc)
        for state in states:
            prefs = matching.build_preferences(sc, state, bounds)
            assert set(prefs) == state.unmatched
            assert not any(prefs.values())
            unmatched += len(state.unmatched)
    assert unmatched > 0


def test_trace_records_and_serialises(tmp_path, sc10):
    _, trace = solve(sc10)
    assert trace.iterations == len(trace.reduced_cost)
    assert len(trace.num_assigned) == trace.iterations
    assert trace.eps == max(icrbi.SETTLE_RTOL * abs(trace.reduced_cost[0]), 1e-12) > 0
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,reduced_cost,num_assigned,mu_norm,v_norm"
    assert len(lines) == trace.iterations + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert math.isclose(float(first[1]), trace.reduced_cost[0])
