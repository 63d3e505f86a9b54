"""Decentralized three-step scheme: admission, deferred acceptance, overhead."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import gen, mk_dev, mk_scenario, mk_task
from coopmec import decentral, icrbi, matching
from coopmec.decentral import (RoundLog, deferred_acceptance, mec_admission,
                               prefix_admit, run)
from coopmec.model import feasibility_bounds, validate_constraints


# the power law model.ScenarioArrays gives a host that draws no CPU power
FREE = (0.0, 1.0)


def test_prefix_admit_orders_by_frequency():
    server = FREE
    offers = sorted((f, k) for k, f in {1: 1e9, 2: 2e9, 4: 1e9}.items())
    assert offers == [(1e9, 1), (1e9, 4), (2e9, 2)]  # tie 1 vs 4 -> lower id
    assert prefix_admit(offers, server, 5e9, math.inf) == 3
    assert prefix_admit(offers, server, 2.5e9, math.inf) == 2
    assert prefix_admit(offers, server, 0.5e9, math.inf) == 0
    assert prefix_admit([], server, 5e9, math.inf) == 0


def test_prefix_admit_is_a_prefix_not_a_packing():
    # the 4 GHz request blocks the scan even though 1 GHz would still fit
    server = FREE
    assert prefix_admit([(1e9, 2), (1e9, 3), (4e9, 1)], server, 2.5e9, math.inf) == 2
    assert prefix_admit([(1e9, 2), (4e9, 1)], server, 2e9, math.inf) == 1


def test_prefix_admit_power_budget_binds_before_capacity():
    # each 1 GHz guest draws kappa * f**3 = 1 W on the helper
    helper = (mk_dev(1).kappa, mk_dev(1).nu)
    offers = [(1e9, 2), (1e9, 3), (1e9, 4)]
    assert prefix_admit(offers, helper, 5e9, 2.5) == 2
    assert prefix_admit(offers, helper, 5e9, 0.5) == 0
    # the server draws no power: its budget never binds, and its own nu is
    # never raised, so even an overflowing frequency is admitted
    assert prefix_admit(offers, FREE, 5e9, 0.0) == 3
    assert prefix_admit([(1e200, 1)], FREE, 1e300, math.inf) == 1


def test_mec_admission_spreads_leftover():
    tasks = [mk_task(1), mk_task(2)]
    devices = [mk_dev(0, f_max=5e9), mk_dev(1, p_max=2.0),
               mk_dev(2, f_max=2e9, p_max=10.0)]
    sc = mk_scenario(tasks, devices)
    bounds = feasibility_bounds(sc)
    freqs = mec_admission(sc, bounds, {1, 2})
    assert freqs.keys() == {1, 2}
    assert math.isclose(sum(freqs.values()), 5e9, rel_tol=1e-12)
    assert all(freqs[k] >= bounds.f_lower[k - 1, 0] for k in freqs)


def test_mec_admission_dead_radio():
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)],
                     gain=1e-18)
    freqs = mec_admission(sc, feasibility_bounds(sc), {1})
    assert freqs == {}


def da_capacity_scenario():
    # tasks 1 and 2 are locally blocked (0.4 GHz CPUs), the server is a
    # 1 Hz stub, and helper 3 can host exactly one ~0.51 GHz guest beside
    # its own task
    tasks = [mk_task(1), mk_task(2), mk_task(3)]
    devices = [mk_dev(0, f_max=1.0), mk_dev(1, f_max=0.4e9, p_max=2.0),
               mk_dev(2, f_max=0.4e9, p_max=2.0),
               mk_dev(3, f_max=1.5e9, p_max=10.0)]
    return mk_scenario(tasks, devices)


def test_da_capacity_tie_keeps_lower_id():
    sc = da_capacity_scenario()
    asg, log = run(sc)
    # identical requests tie on frequency, so task 1 wins the single slot
    assert asg.target[1] == 3
    assert 2 not in asg.target
    assert asg.target[3] == 3
    verdicts = {e[4] for e in log.events}
    assert "reject" in verdicts and "hold" in verdicts
    assert log.n_mec == 0 and log.n_u == 2 and log.rounds >= 1


def test_da_busy_owner_reserves_its_battery():
    # device 2's own task still seeks a host, so it must turn away task 1
    # in round 1 even though its CPU and battery could fit the guest
    tasks = [mk_task(1), mk_task(2, cycles=4e7, bits=1e4), mk_task(3)]
    devices = [mk_dev(0, f_max=1.0), mk_dev(1, f_max=0.4e9, p_max=2.0),
               mk_dev(2, f_max=1.5e9, p_max=2.0),
               mk_dev(3, f_max=3e9, p_max=10.0)]
    sc = mk_scenario(tasks, devices)
    asg, log = run(sc)
    round1 = [e for e in log.events if e[0] == 1]
    assert any(t == 1 and d == 2 and v == "reject"
               for _, t, d, f, v in round1)
    assert asg.target.get(1) != 2
    # once task 2 fits at home instead, device 2 opens up and keeps task 1
    relaxed = mk_scenario([mk_task(1), mk_task(2), mk_task(3)], devices)
    asg2, _ = run(relaxed)
    assert asg2.target[1] == 2


def test_da_unreachable_task_stays_unassigned():
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=1.0),
                                    mk_dev(1, f_max=0.4e9, p_max=2.0)])
    asg, log = run(sc)
    assert asg.target == {}
    assert log.rounds == 0


def test_da_never_repeats_a_request():
    for seed in range(15):
        sc = gen(n=8, seed=seed)
        _, log = run(sc)
        reqs = [(t, d) for _, t, d, _, v in log.events if v == "request"]
        assert len(reqs) == len(set(reqs))
        assert log.rounds <= sc.n * (sc.n - 1) + 1


def test_run_validates_and_logs(sc10):
    asg, log = run(sc10)
    assert validate_constraints(sc10, asg) == []
    series = log.cost_series(sc10, asg)
    assert len(series) >= 3
    assert math.isclose(series[-1], asg.cost.total, rel_tol=1e-12)
    # the three steps only ever improve on the all-drop starting point
    assert series[-1] <= series[0] + 1e-9
    assert log.overhead == decentral.overhead(sc10.n, log.n_u, log.n_mec, log.rounds)


def test_run_with_stub_server(sc10):
    sc = gen(n=6, seed=3, f0_max=1.0)
    asg, log = run(sc)
    assert log.n_mec == 0
    assert all(d != 0 for d in asg.target.values())
    assert validate_constraints(sc, asg) == []


def test_decentral_rarely_beats_central():
    # the one-shot scheme gives up optimality, never safety: it should sit
    # at or above the iterative solver's cost on nearly every instance
    wins = 0
    for seed in range(40):
        sc = gen(n=3, seed=seed)
        d = run(sc)[0].cost.total
        c = icrbi.solve(sc)[0].cost.total
        if d >= c - 1e-9:
            wins += 1
    assert wins >= 28


def test_overhead_closed_forms():
    assert icrbi.overhead(30) == 8 * 30 + 30 * 29
    assert icrbi.overhead(1) == 8
    assert decentral.overhead(n=10, n_u=0, n_mec=4, rounds=0) == 28
    assert decentral.overhead(n=10, n_u=3, n_mec=2, rounds=5) == \
        2 * 5 * 3 + 9 * 3 + 2 * 2 + 2 * 10
    assert matching.overhead(n=10, n_h=0, n_mec=4) == 2 * 4 + 3 * 10
    assert matching.overhead(n=10, n_h=3, n_mec=2) == \
        2 * 2 + 4 * 3 * 10 // 2 + 3 * 10 + 21 * 3


def test_round_log_lines():
    log = RoundLog()
    log.events.append((1, 2, 3, 5e8, "request"))
    assert list(log.lines()) == [f"1 2 3 {5e8!r} request"]
