"""Reference solvers: cooperation-free baseline and exhaustive search."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edited_scenario, gen, mk_dev, mk_scenario, mk_task
from coopmec import cli, decentral, icrbi, matching, oracle
from coopmec.errors import InstanceTooLarge
from coopmec.harness import ALGORITHMS, run_algorithm
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edits", [
    [(0, "kappa", "1.0"), (0, "f_max", "1e200")],     # the free server, whatever its kappa
    [(2, "kappa", "0.0"), (2, "nu", "1e300")],        # a UE that computes for free
], ids=["server_kappa1_f1e200", "kappa0_nu1e300"])
@pytest.mark.parametrize("seed", range(6))
def test_brute_force_prices_a_free_host_as_the_solvers_do(tmp_path, seed, edits):
    # a host that draws no CPU power costs nothing at any lattice point, so
    # no solver beats the oracle by more than the CLI's slack
    sc = edited_scenario(tmp_path / "inst.sc", gen(n=3, seed=seed), edits)
    ref = brute_force(sc).cost.total
    best = min(run_algorithm(sc, algo)[0].cost.total for algo in ALGORITHMS)
    assert best >= ref * (1.0 - cli.ORACLE_SLACK)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, seed, edits", [
    (3, 289495, [(3, "power_price", "1e308")]),                   # a host price past the limit
    (2, 724074, [(2, "cycles", "1e-300")]),                       # a window wider than floats
    (3, 705257, [(3, "kappa", "5e-324"), (3, "f_max", "1e300")]),  # F ** nu past the limit
    (3, 705257, [(3, "kappa", "5e-324"), (3, "f_max", "1e300"), (3, "power_price", "0.0")]),
], ids=["power_price1e308", "cycles1e-300", "kappa5e-324_f1e300", "kappa5e-324_f1e300_w0"])
def test_brute_force_saturates_at_the_float_limit(tmp_path, n, seed, edits):
    # an overflowing lattice term is inf, priced out or over budget, and an
    # unpriced host adds nothing even where F ** nu overflows: no solver
    # beats the oracle by more than the CLI's slack
    sc = edited_scenario(tmp_path / "inst.sc", gen(n=n, seed=seed), edits)
    ref = brute_force(sc).cost.total
    best = min(run_algorithm(sc, algo)[0].cost.total for algo in ALGORITHMS)
    assert best >= ref * (1.0 - cli.ORACLE_SLACK)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**31 - 1), nu=st.floats(1.0, 60.0),
       kappa_exp=st.floats(-30.0, -24.0))
def test_no_solver_beats_brute_force_under_any_power_law(n, seed, nu, kappa_exp):
    sc = gen(n=n, seed=seed, nu=nu, kappa=10.0 ** kappa_exp)
    ref = brute_force(sc).cost.total
    for algo in ALGORITHMS:
        assert run_algorithm(sc, algo)[0].cost.total >= ref * (1.0 - cli.ORACLE_SLACK), algo
