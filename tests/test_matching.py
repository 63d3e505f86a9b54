"""Sequential matching heuristic: pair pricing, ordering rules, top-up."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gen, mk_dev, mk_scenario, mk_task
from coopmec import oracle
from coopmec.errors import UnknownAlgorithm
from coopmec.matching import (CRITERIA, build_preferences, commit, local_seed_set,
                              mec_topup, new_state, next_task, pair_cost,
                              pair_frequency, prune, redistribute_mec,
                              residual_window, run)
from coopmec.model import (LN2, assignment_cost, feasibility_bounds,
                           make_assignment, validate_constraints)

# the steep-path-loss cell of the ratio experiment
STEEP = dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2)


def open_bounds(sc):
    """The scenario's static bounds with no pair blocked: preferences built
    over them price every device."""
    bounds = feasibility_bounds(sc)
    return dataclasses.replace(bounds, blocked=np.zeros_like(bounds.blocked))


def two_ue_scenario():
    tasks = [mk_task(1), mk_task(2)]
    devices = [mk_dev(0, f_max=5e9), mk_dev(1, p_max=2.0),
               mk_dev(2, f_max=2e9, p_max=10.0)]
    return mk_scenario(tasks, devices)


def test_pair_frequency_closed_forms():
    sc = two_ue_scenario()
    state = new_state(sc)
    # local execution pins the slowest deadline-feasible frequency
    assert math.isclose(pair_frequency(sc, state, 1, 1), sc.tasks[0].f_min,
                        rel_tol=1e-12)
    # the edge server request point is delay tight at the full-budget rate
    snr = 1e-10 * 0.5 * (2.0 - 0.1) / sc.noise_w
    rate = sc.bandwidth * math.log1p(snr) / LN2
    want = 1e7 / (0.02 - 1e5 / rate)
    assert math.isclose(pair_frequency(sc, state, 1, 0), want, rel_tol=1e-12)


def test_pair_frequency_minimises_pair_cost_on_grid():
    # whether interior or clamped, the committed frequency must match a
    # dense grid search of the marginal pair cost over the same window
    checked = 0
    for seed in range(8):
        sc = gen(n=4, seed=seed)
        state = new_state(sc)
        for k in range(1, sc.n + 1):
            for dev in range(sc.n + 1):
                if dev == k or dev == 0:
                    continue
                window = residual_window(sc, state, k, dev)
                if window is None:
                    continue
                lo, hi = window
                f_star = pair_frequency(sc, state, k, dev)
                grid = np.geomspace(lo * (1 + 1e-12), hi, 20001)
                costs = [pair_cost(sc, k, dev, float(f)) for f in grid]
                best = min(costs)
                got = pair_cost(sc, k, dev, f_star)
                assert got <= best + abs(best) * 1e-8 + 1e-12
                checked += 1
    assert checked >= 5


def test_preferences_sorted_and_feasible_only():
    sc = two_ue_scenario()
    prefs = build_preferences(sc, new_state(sc), open_bounds(sc))
    for k, entries in prefs.items():
        psis = [psi for psi, _, _ in entries]
        assert psis == sorted(psis)
        devs = {dev for _, dev, _ in entries}
        assert k in devs                 # both tasks fit locally here
    # an infeasible pair never shows up: kill task 1's radio entirely
    gains = np.full((2, 3), 1e-10)
    gains[0, :] = 1e-18
    sc2 = mk_scenario([mk_task(1), mk_task(2)],
                      [mk_dev(0, f_max=5e9), mk_dev(1, p_max=2.0),
                       mk_dev(2, f_max=2e9, p_max=10.0)], gain=gains)
    state2 = new_state(sc2)
    prefs2 = build_preferences(sc2, state2, open_bounds(sc2))
    assert {dev for _, dev, _ in prefs2[1]} == {1}
    assert pair_frequency(sc2, state2, 1, 0) is None
    assert residual_window(sc2, state2, 1, 2) is None


def test_commit_debits_and_shrinks_later_options():
    sc = gen(n=6, seed=1)
    state = new_state(sc)
    before = build_preferences(sc, state, open_bounds(sc))
    k = min(k for k, entries in before.items() if entries)
    _, dev, f = before[k][0]
    f_res0 = state.f_res[dev]
    commit(sc, state, k, dev, f)
    assert state.omega[k] == dev
    assert state.f_res[dev] == pytest.approx(f_res0 - f)
    after = build_preferences(sc, state, open_bounds(sc))
    # residual windows only shrink, so nobody gains options
    for m, entries in after.items():
        assert len(entries) <= len(before[m])


def synthetic_prefs(spec):
    # spec: {task: [psi, ...]}, device ids are irrelevant for ordering
    return {k: [(p, d, 1e9) for d, p in enumerate(psis)] for k, psis in spec.items()}


def test_next_task_maxtask_prefers_fewest_options():
    prefs = synthetic_prefs({1: [5.0], 3: [0.5, 1.0], 5: [0.1, 0.2, 0.3]})
    assert next_task(prefs, "maxtask") == 1


def test_next_task_maxtask_breaks_ties_on_head_cost():
    prefs = synthetic_prefs({2: [5.0, 9.0], 4: [2.0, 9.0]})
    assert next_task(prefs, "maxtask") == 4
    # a full tie resolves to the lower task id
    prefs = synthetic_prefs({6: [2.0], 3: [2.0]})
    assert next_task(prefs, "maxtask") == 3


def test_next_task_minpw_takes_cheapest_head():
    prefs = synthetic_prefs({1: [-10.0], 2: [-30.0, 0.0, 1.0]})
    assert next_task(prefs, "minpw") == 2
    with pytest.raises(UnknownAlgorithm):
        next_task(prefs, "cheapest")


def test_run_trivial_all_local():
    sc = two_ue_scenario()
    for criterion in CRITERIA:
        asg, state = run(sc, criterion)
        assert asg.target == {1: 1, 2: 2}
        assert state.unmatched == set()
        assert math.isclose(state.cost_series(sc, asg)[-1], asg.cost.total,
                            rel_tol=1e-12)


def test_local_seeds_stay_local(sc10):
    seeds = local_seed_set(sc10, feasibility_bounds(sc10))
    for criterion in CRITERIA:
        asg, _ = run(sc10, criterion)
        for k in seeds:
            assert asg.target[k] == k


def test_run_outputs_validate(sc10, sc3):
    for sc in (sc10, sc3):
        for criterion in CRITERIA:
            asg, state = run(sc, criterion)
            assert validate_constraints(sc, asg) == []
            f_res, p_res = np.asarray(state.f_res), np.asarray(state.p_res)
            assert (f_res > -1e-6 * f_res.max()).all()
            assert (p_res >= 0).all()
            assert state.iterations == asg.accomplished


def test_prune_keeps_only_the_placements_that_beat_dropping():
    # on this cell task 3's server upload at its slowest admissible
    # frequency costs less than its penalty and task 1's costs more
    sc = gen(n=3, seed=27)
    bounds = feasibility_bounds(sc)
    target = {3: 0, 1: 0}
    freqs = {k: float(bounds.f_lower[k - 1, 0]) for k in target}
    costs = {k: pair_cost(sc, k, 0, freqs[k]) for k in target}
    assert costs[3] < 0.0 < costs[1]
    kept, placed = prune(sc, target, freqs)
    assert kept == {3: 0}
    assert placed == costs[3]
    assert prune(sc, {1: 0, 3: 0}, freqs)[0] == {3: 0}
    asg = make_assignment(sc, kept, freqs)
    assert asg.cost.total == pytest.approx(sc.arrays.circuit + sc.arrays.penalty_total
                                           + costs[3], rel=1e-12)


def test_matching_tracks_exhaustive_search():
    hits = 0
    for seed in range(25):
        sc = gen(n=3, seed=seed)
        got = run(sc, "maxtask")[0].cost.total
        best = oracle.brute_force(sc).cost.total
        assert got >= best - 1e-6
        if got <= best * 1.10:
            hits += 1
    assert hits >= 20


def test_mec_topup_edge_cases():
    sc = two_ue_scenario()
    assert sc.devices[0].f_max == 5e9
    assert mec_topup(sc, {}) == {}
    full = {1: 3e9, 2: 2e9}
    assert mec_topup(sc, full) == full       # nothing left to spread


def test_redistribute_uses_all_server_capacity():
    sc = two_ue_scenario()
    state = new_state(sc)
    f1 = pair_frequency(sc, state, 1, 0)
    commit(sc, state, 1, 0, f1)
    f2 = pair_frequency(sc, state, 2, 0)
    commit(sc, state, 2, 0, f2)
    freqs = redistribute_mec(state, sc)
    assert math.isclose(freqs[1] + freqs[2], 5e9, rel_tol=1e-12)
    assert freqs[1] >= f1 and freqs[2] >= f2
    # the top-up is returned; the state keeps the commit-time frequencies
    assert state.freqs == {1: f1, 2: f2}


def reference_run(sc, criterion):
    """The matching loop with every list rebuilt over all devices after each
    commit, costing the partial assignment eagerly after the seeds and after
    each commit.  Also returns the tasks that gave up and counts the commits
    whose host is a still unmatched task."""
    state = new_state(sc)
    for k in sorted(local_seed_set(sc, feasibility_bounds(sc))):
        commit(sc, state, k, k, sc.tasks[k - 1].f_min)
    series = [assignment_cost(sc, state.omega, state.freqs)[0].total]
    abandoned = set()
    unmatched_hosts = 0
    while state.unmatched - abandoned:
        prefs = build_preferences(sc, state, open_bounds(sc))
        fitting = {k: entries for k, entries in prefs.items() if entries}
        abandoned |= state.unmatched - set(fitting)
        if not fitting:
            break
        k = next_task(fitting, criterion)
        _, dev, f = fitting[k][0]
        unmatched_hosts += dev in state.unmatched - abandoned - {k}
        commit(sc, state, k, dev, f)
        series.append(assignment_cost(sc, state.omega, state.freqs)[0].total)
    asg = make_assignment(sc, state.omega, redistribute_mec(state, sc))
    return asg, state, series + [asg.cost.total], abandoned, unmatched_hosts


def assert_run_matches_reference(sc, criterion):
    want_asg, want, series, abandoned, unmatched_hosts = reference_run(sc, criterion)
    got_asg, got = run(sc, criterion)
    assert got_asg == want_asg
    # both dicts keep commit order and the pre-top-up freqs
    assert list(got.omega.items()) == list(want.omega.items())
    assert list(got.freqs.items()) == list(want.freqs.items())
    assert got.cost_series(sc, got_asg) == series
    assert got.unmatched == abandoned
    return unmatched_hosts


@pytest.mark.parametrize("cell", [{}, STEEP], ids=["default", "steep"])
@pytest.mark.parametrize("n", [10, 30, 80])
def test_run_matches_full_rebuild(n, cell):
    for seed in range(3):
        sc = gen(n=n, seed=seed, **cell)
        for criterion in CRITERIA:
            assert_run_matches_reference(sc, criterion)


def test_run_reprices_the_list_of_an_unmatched_host():
    # minpw here commits a task to a UE whose own task is still unmatched;
    # that spends the UE's transmit budget, so its whole list must be priced
    # again
    assert assert_run_matches_reference(gen(n=10, seed=32), "minpw") >= 1


def test_static_bounds_skip_only_pairs_that_never_fit():
    for seed in range(5):
        sc = gen(n=30, seed=seed, **STEEP)
        state = new_state(sc)
        bounds = feasibility_bounds(sc)
        assert build_preferences(sc, state, bounds) == \
            build_preferences(sc, state, open_bounds(sc))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kappa=st.sampled_from([1e-27, 1e-310, 1e-320, 5e-324]),
       f_ue=st.sampled_from([(0.5e9, 1.5e9), (1e300, 1e300)]),
       f0_max=st.sampled_from([5e9, 1e300]))
@example(n=5, seed=0, kappa=1e-320, f_ue=(1e300, 1e300), f0_max=5e9)
def test_residual_windows_at_full_budgets_lie_inside_the_static_ones(n, seed, kappa, f_ue,
                                                                     f0_max):
    # both windows take their top from one rule, model.speed_cap, so at full
    # budgets the tops agree exactly.  The bottoms agree to within 1e-12: the
    # static ones take numpy's log1p, whose SIMD kernel can differ from libm's
    sc = gen(n=n, seed=seed, kappa=kappa, f_ue=f_ue, f0_max=f0_max)
    bounds = feasibility_bounds(sc)
    state = new_state(sc)
    for k in range(1, n + 1):
        for dev in range(n + 1):
            window = residual_window(sc, state, k, dev)
            if window is not None:
                lo, hi = window
                assert hi == sc.arrays.speed_cap[dev]
                assert lo == pytest.approx(bounds.f_lower[k - 1, dev], rel=1e-12, abs=0.0)
