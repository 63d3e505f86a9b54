"""Experiment runner: dispatch, aggregation, reproducible CSV output, CLI."""

from __future__ import annotations

import dataclasses
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cell_f, edited_scenario, gen
from coopmec import cli, decentral, harness, matching, model, oracle, scenario
from coopmec.errors import ConfigError, CoopMecError, UnknownAlgorithm
from coopmec.harness import (ALGORITHMS, ExperimentSpec, _fmt, aggregate,
                             apply_sweep, convergence_trace, run_algorithm,
                             run_experiment, write_outputs)
from coopmec.model import validate_constraints
from coopmec.scenario import GenConfig


def small_spec(**kw) -> ExperimentSpec:
    base = dict(algorithms=("icrbi", "noncope"), base=GenConfig(n=3),
                realizations=2)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_normalisation():
    assert small_spec().sweep_values == (5e9,)     # defaults to the base value
    with pytest.raises(UnknownAlgorithm):
        small_spec(algorithms=("icrbi", "simplex"))
    with pytest.raises(ConfigError):
        small_spec(sweep_values=(2e9, 1e9))
    with pytest.raises(ConfigError):
        small_spec(realizations=0)
    with pytest.raises(ConfigError):
        small_spec(sweep_var="bandwidth")
    with pytest.raises(ConfigError):                # no upper-case alias of n
        small_spec(sweep_var="N")
    with pytest.raises(ConfigError):
        apply_sweep(GenConfig(), "n", 2.5)


@pytest.mark.parametrize("argv", [
    ["run", "--algo", "noncope", "--step-rule", "square:-1"],
    ["run", "--algo", "noncope", "--eps", "-3"],
    ["run", "--algo", "noncope,icrbi", "--step-rule", "diminish:nan"],
    ["oracle-check", "--algo", "noncope", "--step-rule", "square:-1"],
    ["oracle-check", "--algo", "bogus"],
], ids=lambda argv: " ".join(argv))
def test_cli_checks_icrbi_settings_before_any_solve(monkeypatch, capsys, argv):
    def no_scenario(cfg):
        pytest.fail("generated a scenario")
    monkeypatch.setattr(harness, "generate", no_scenario)
    monkeypatch.setattr(scenario, "generate", no_scenario)
    try:
        code = cli.main(argv + ["--realizations", "1"])
    except SystemExit as exc:           # argparse: icrbi takes no option
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert (err.startswith("error: ")
            or f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err)


def test_run_algorithm_dispatch(sc3):
    for algo in ALGORITHMS:
        asg, extras = run_algorithm(sc3, algo)
        assert validate_constraints(sc3, asg) == []
        assert {"overhead", "converged", "iterations", "trace"} <= set(extras)
        assert extras["overhead"] >= 0
    _, extras = run_algorithm(sc3, "noncope")
    assert extras["overhead"] == 0 and extras["iterations"] == 0
    with pytest.raises(UnknownAlgorithm):
        run_algorithm(sc3, "bogus")


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("cell", [
    dict(f0_max=1e120), dict(f0_max=1e300),           # server frequency ** nu
    dict(cycles=(1e300, 1e300)), dict(deadline_s=(1e-300, 1e-300)),  # local f_min ** nu
    dict(kappa=1e300),                                # hosted CPU power
    dict(bandwidth=1e308),                            # bandwidth * (T f - c) in U''
    dict(nu=300.0),                                   # window ends ** (nu - 1)
    dict(kappa=1e308),                                # kappa * nu
    dict(kappa=1e308, w=0.0), dict(kappa=1e308, w=2.0),   # ... times a host price
    dict(kappa=1e308, nu=1.0),                        # icrbi's capacity-price step
    dict(eta=1e-320),                                 # icrbi's upload price w / eta
    # p_m / kappa overflows: the speed cap is the ratio of the two roots
    dict(kappa=1e-320, f_ue=(1e300, 1e300)), dict(kappa=1e-320, f_ue=(1e300, 1e300), w=0.0),
    dict(kappa=5e-324, f_ue=(1e200, 1e200)),
    dict(kappa=1e-310, f_ue=(1e120, 1e120)),          # a residual budget / kappa
    dict(f0_max=1e-320), dict(f0_max=5e-324),         # icrbi's fallback capacity-price scale
    dict(w=1e307), dict(w=1e308),                     # icrbi's power-price step, then w + mu
], ids=["f0max1e120", "f0max1e300", "cycles1e300",
        "deadline1e-300", "kappa1e300", "bandwidth1e308", "nu300",
        "kappa1e308", "kappa1e308w0", "kappa1e308w2", "kappa1e308nu1", "eta1e-320",
        "kappa1e-320", "kappa1e-320w0", "kappa5e-324", "kappa1e-310",
        "f0max1e-320", "f0max5e-324", "w1e307", "w1e308"])
def test_extreme_magnitudes_do_not_overflow(algo, cell):
    # the free server compute and a blocked local pair are never priced, so
    # their overflowing power-law terms are never evaluated, and icrbi clamps
    # a window top that would overflow (T f - c)**2 or a bracket product
    sc = gen(n=4, **cell)
    asg, _ = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []


# (id, field, value) edits of a written cell's device or task lines
SLOW_1_HUGE_2 = [(1, "f_max", "1e6"), (2, "f_max", "1e300")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("n, seed, edits", [
    (4, 2, [(3, "kappa", "1e308")]), (4, 2, [(3, "eta", "1e-320")]),
    (4, 2, [(0, "kappa", "1e308")]), (4, 2, [(0, "f_max", "5e-324")]),
    # p_m / kappa overflows: every solver's window top is the clamped ratio of roots
    (4, 0, SLOW_1_HUGE_2 + [(2, "kappa", "1e-320")]),
    (4, 0, SLOW_1_HUGE_2 + [(2, "kappa", "5e-324")]),
    (4, 0, SLOW_1_HUGE_2 + [(2, "kappa", "1e-320"), (2, "nu", "2.0")]),
    # a UE with kappa 0 computes for free: its power law is never raised
    (4, 0, [(1, "f_max", "1e6"), (2, "f_max", "1e200"), (2, "kappa", "0.0")]),
    (3, 299423, [(3, "kappa", "0.0"), (3, "nu", "1e300")]),
    (4, 0, [(3, "kappa", "0.0"), (3, "nu", "1e300"), (3, "f_max", "1e12")]),  # hosting too
    # nor is the edge server's, whatever its kappa
    (4, 679186, [(0, "kappa", "1e200"), (0, "nu", "1e30")]),
    # task edits too.  In icrbi's set-up T f overflows at a window end (task
    # 2 priced at 1e308), then (T f - c)**2 does, then a reachable kappa * nu
    (2, 779665, [(1, "bits", "1e300"), (1, "deadline", "1e300"), (2, "power_price", "1e308")]),
    (2, 339399, [(2, "bits", "1e200"), (2, "deadline", "1e200")]),
    (3, 82079, [(2, "cycles", "1e-300"), (3, "kappa", "1e308")]),
    # icrbi's capacity-price scale: cap ** (nu - 1) overflows under a subnormal kappa
    (4, 494601, [(4, "kappa", "5e-324"), (4, "nu", "60")]),
], ids=["kappa", "eta", "server_kappa", "server_f_max", "kappa1e-320_f1e300",
        "kappa5e-324_f1e300", "kappa1e-320_nu2", "kappa0_f1e200", "kappa0_nu1e300",
        "kappa0_nu1e300_host", "server_kappa1e200_nu1e30", "deadline1e300_w1e308",
        "deadline1e200", "cycles1e-300_kappa1e308", "kappa5e-324_nu60"])
def test_extreme_device_in_a_scenario_file_does_not_overflow(tmp_path, algo, n, seed, edits):
    # one or two devices with a CPU power law, a capacity or a PA efficiency
    # at the float limit, or a task whose sizes are: the other devices and
    # tasks stay ordinary, so the cell still has work
    sc = edited_scenario(tmp_path / "inst.sc", gen(n=n, seed=seed), edits)
    asg, _ = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("seed", [0, 2, 3])
def test_vanishing_cycles_do_not_divide_by_zero(algo, seed):
    # 1e-300 cycles: near f_min, (T f - c)**2 underflows to zero, and the
    # slope there saturates instead of dividing by it
    sc = gen(n=4, seed=seed, cycles=(1e-300, 1e-300))
    asg, _ = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_vanishing_upload_size_validates(algo):
    # 1e-320 bits upload in no time, so a remote window would start at f_min
    # itself, where U is undefined or, a rounding error above, underflows to
    # a zero power that uploads nothing: the bounds block such a pair, and
    # every solver returns a validated assignment within the drop bound
    sc = gen(n=4, data_bits=(1e-320, 1e-320))
    asg, _ = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []
    assert asg.cost.total <= sc.arrays.circuit + sc.arrays.penalty_total


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_vanishing_upload_size_in_a_scenario_file_validates(tmp_path, algo):
    # task 2 of a written cell uploads 1e-300 bits: its upload time is lost
    # against its deadline, so its remote windows would start at f_min
    path = tmp_path / "inst.sc"
    scenario.write_scenario(gen(n=4, seed=2), path)
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("task 2 "))
    parts = lines[i].split()
    parts[3] = "1e-300"                 # task <id> <cycles> <bits> ...
    lines[i] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    sc = scenario.read_scenario(path)
    assert sc.tasks[1].bits == 1e-300
    asg, _ = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []
    assert asg.cost.total <= sc.arrays.circuit + sc.arrays.penalty_total


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_blocked_server_pair_in_a_scenario_file_validates(tmp_path, algo):
    # task 1 uploads 5e-324 bits, so the bounds block its server pair (the
    # window would start at f_min), and UE 4 can host only 0.5 Hz: icrbi's
    # repair must not fall back to the blocked server pair when task 1's
    # relaxed host no longer fits
    path = tmp_path / "inst.sc"
    scenario.write_scenario(gen(n=4, seed=878), path)
    lines = [ln.split() for ln in path.read_text().splitlines()]
    for parts in lines:
        if parts[:2] == ["task", "1"]:
            parts[3] = "5e-324"         # task <id> <cycles> <bits> ...
        if parts[:2] == ["device", "4"]:
            parts[2] = "0.5"            # device <id> <f_max> ...
    path.write_text("\n".join(" ".join(parts) for parts in lines) + "\n")
    sc = scenario.read_scenario(path)
    assert sc.tasks[0].bits == 5e-324 and sc.devices[4].f_max == 0.5
    assert model.feasibility_bounds(sc).blocked[0, 0]
    asg, _ = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []
    assert asg.cost.total <= sc.arrays.circuit + sc.arrays.penalty_total


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_extreme_power_price_in_a_scenario_file_does_not_overflow(tmp_path, algo):
    # task 4 prices its UE's watts at 1e300: icrbi's power prices then pass
    # 1e154, where the sum of squares of a trace norm overflows but the
    # norm does not
    path = tmp_path / "inst.sc"
    scenario.write_scenario(gen(n=5, seed=662), path)
    lines = [ln.split() for ln in path.read_text().splitlines()]
    for parts in lines:
        if parts[:2] == ["task", "4"]:
            parts[6] = "1e300"          # task <id> ... <penalty> <power_price>
    path.write_text("\n".join(" ".join(parts) for parts in lines) + "\n")
    sc = scenario.read_scenario(path)
    assert sc.tasks[3].power_price == 1e300
    asg, extras = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []
    if algo == "icrbi":
        trace = extras["trace"]
        assert max(trace.mu_norm + trace.v_norm) > 1e154
        assert all(map(math.isfinite, trace.mu_norm + trace.v_norm))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_noise_near_overflow_blocks_every_upload(algo):
    # 3000 dBm/Hz is finite in watts, but every rate is then so small that
    # bits / rate overflows: the upload pairs are blocked, not a raw error
    sc = gen(n=4, noise_dbm_per_hz=3000.0)
    asg, _ = run_algorithm(sc, algo)
    assert validate_constraints(sc, asg) == []
    assert all(dev == k for k, dev in asg.target.items())


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_one_validation_per_solve(monkeypatch, algo):
    # every solver returns through make_assignment, which costs and validates
    # once; the dispatcher must not check the same assignment again, and no
    # solver costs its partial assignments along the way.  make_assignment is
    # reached through matching.finish, which builds every returned result
    calls = []
    costed = []
    finished = []
    real_validate = model.validate_constraints
    real_cost = model.assignment_cost
    real_finish = matching.finish

    def counting(sc, asg):
        calls.append(asg)
        return real_validate(sc, asg)

    def counting_cost(sc, target, freqs):
        costed.append(dict(target))
        return real_cost(sc, target, freqs)

    def counting_finish(sc, *candidates):
        finished.append(real_finish(sc, *candidates))
        return finished[-1]

    for name, mod in list(sys.modules.items()):
        if not name.startswith("coopmec."):
            continue
        if getattr(mod, "validate_constraints", None) is real_validate:
            monkeypatch.setattr(mod, "validate_constraints", counting)
        if getattr(mod, "assignment_cost", None) is real_cost:
            monkeypatch.setattr(mod, "assignment_cost", counting_cost)
        if getattr(mod, "finish", None) is real_finish:
            monkeypatch.setattr(mod, "finish", counting_finish)
    for k in range(3):
        asg, _ = run_algorithm(gen(n=10, seed=k), algo)
        assert len(calls) == k + 1
        assert calls[-1] is asg
        assert len(costed) == k + 1
        assert costed[-1] == asg.target
        assert len(finished) == k + 1
        assert finished[-1] is asg


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("cell, costs", [
    (dict(n=3, seed=5), dict.fromkeys(ALGORITHMS, 132.45)),
    (dict(n=3, seed=19), dict.fromkeys(ALGORITHMS, 133.41)),
    (dict(seed=4104, f0_max=6e9), {**dict.fromkeys(ALGORITHMS, 397.09),
                                   "maxtask": 354.50, "minpw": 354.50}),
], ids=["n3seed5", "n3seed19", "seed4104"])
def test_no_solver_costs_more_than_dropping_every_task(algo, cell, costs):
    # each solver once placed a task here whose upload cost more than its
    # penalty (144.24, 145.95 and 463.22 against dropping everything); the
    # prune drops such a task, and no solver then exceeds the drop cost
    sc = gen(**cell)
    asg, _ = run_algorithm(sc, algo)
    assert asg.cost.total <= sc.arrays.circuit + sc.arrays.penalty_total
    assert asg.cost.total == pytest.approx(costs[algo], abs=0.005)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       f0_exp=st.floats(8.0, 11.0), w=st.floats(0.0, 10.0), phi0=st.floats(0.0, 60.0),
       pathloss_exponent=st.floats(2.5, 5.0), ref_gain_exp=st.floats(-5.0, -1.0))
def test_generated_cells_stay_within_the_drop_bound(n, seed, f0_exp, w, phi0,
                                                    pathloss_exponent, ref_gain_exp):
    # every solver either refuses a generated cell with a CoopMecError or
    # returns a validated assignment of finite cost that costs no more than
    # dropping every task (to float round-off).  Penalties low against the
    # power price make uploads that cost more than their penalty common:
    # about one cell in twenty breached the bound before the prune
    try:
        sc = gen(n=n, seed=seed, f0_max=10.0 ** f0_exp, w=w, phi0=phi0,
                 pathloss_exponent=pathloss_exponent, pathloss_ref_gain=10.0 ** ref_gain_exp)
    except CoopMecError:
        return
    ceiling = sc.arrays.circuit + sc.arrays.penalty_total
    for algo in ALGORITHMS:
        try:
            asg, _ = run_algorithm(sc, algo)
        except CoopMecError:
            continue
        assert validate_constraints(sc, asg) == []
        assert math.isfinite(asg.cost.total)
        assert asg.cost.total <= ceiling * (1.0 + 1e-9)


def price_scaled(sc, c):
    """sc with every task's penalty and power price multiplied by c."""
    tasks = tuple(dataclasses.replace(t, penalty=c * t.penalty, power_price=c * t.power_price)
                  for t in sc.tasks)
    return dataclasses.replace(sc, tasks=tasks)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1), f0_max=st.floats(5e9, 8e9),
       steep=st.booleans(), c=st.sampled_from([2.0 ** -10, 2.0, 2.0 ** 10]))
@example(n=20, seed=0, f0_max=6e9, steep=False, c=2.0 ** -10)
@example(n=20, seed=1, f0_max=8e9, steep=True, c=2.0 ** 10)
def test_price_scaling_keeps_every_map_and_scales_the_cost(n, seed, f0_max, steep, c):
    # a metamorphic relation: every price of the cost times a power of two
    # multiplies each term exactly and must leave each solver's choices as
    # they are.  icrbi keeps it because its settle threshold is relative and
    # its preconditioners scale with the prices
    sc = gen(n=n, seed=seed, f0_max=f0_max,
             **(dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2) if steep else {}))
    scaled = price_scaled(sc, c)
    for algo in ALGORITHMS:
        want, _ = run_algorithm(sc, algo)
        got, _ = run_algorithm(scaled, algo)
        assert got.target == want.target
        assert got.cost.reduced == c * want.cost.reduced
        assert got.cost.total == c * want.cost.total


def relabelled(sc, perm):
    """sc with UE perm[k - 1] renamed UE k, its task and its gain row and
    column moving with it; the edge server stays device 0."""
    tasks = tuple(dataclasses.replace(sc.tasks[p - 1], id=k) for k, p in enumerate(perm, 1))
    devices = (sc.devices[0], *(dataclasses.replace(sc.devices[p], id=k)
                                for k, p in enumerate(perm, 1)))
    rows = np.array(perm) - 1
    gains = sc.gains[rows][:, [0, *perm]]
    return dataclasses.replace(sc, tasks=tasks, devices=devices, gains=gains)


@pytest.mark.parametrize("cells", [
    [dict(f0_max=f0, seed=seed) for f0 in (5e9, 6e9, 7e9, 8e9) for seed in range(8)],
    [dict(n=40, seed=seed) for seed in range(5)],
    [cell_f(n=n, seed=seed) for n, seeds in ((10, range(8)), (40, range(2))) for seed in seeds],
], ids=["readme_sweep", "n40", "cell_f"])
def test_relabelling_the_ues_keeps_every_cost(cells):
    # a metamorphic relation: the UEs' numbering is arbitrary, so renaming
    # them (tasks, devices and gain rows and columns alike) may move a cost
    # only by summation order.  Guards per-host bookkeeping and tie-breaks
    # against a dependence on the order of the UEs
    for cell in cells:
        sc = gen(**cell)
        perm = (np.random.default_rng(cell["seed"]).permutation(sc.n) + 1).tolist()
        moved = relabelled(sc, perm)
        for algo in ALGORITHMS:
            want = run_algorithm(sc, algo)[0].cost.total
            got = run_algorithm(moved, algo)[0].cost.total
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), (cell, algo)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=208, deadline=None, derandomize=True)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), f0_max=st.floats(5e9, 8e9),
       steep=st.booleans())
def test_placed_marginal_prices_add_up_to_the_reduced_cost(n, seed, f0_max, steep):
    # matching.prune prices each placement at its marginal cost (pair_cost),
    # which matching ranks by and icrbi sums to choose between its two
    # repaired maps: on a returned assignment the prune keeps every
    # placement, and the sum is the reduced cost up to the order of additions
    sc = gen(n=n, seed=seed, f0_max=f0_max,
             **(dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2) if steep else {}))
    for algo in ALGORITHMS:
        asg, _ = run_algorithm(sc, algo)
        kept, placed = matching.prune(sc, asg.target, asg.f)
        assert kept == asg.target
        c = asg.cost
        scale = sc.arrays.penalty_total + c.transmit + c.compute
        assert abs(placed - c.reduced) <= 1e-12 * scale


def _log_range(lo_exp, hi_exp):
    """(lo, hi) ranges with both ends log-uniform over 10**[lo_exp, hi_exp]."""
    ends = st.tuples(st.floats(lo_exp, hi_exp), st.floats(lo_exp, hi_exp))
    return ends.map(lambda e: (10.0 ** min(e), 10.0 ** max(e)))


ANY_RANGE = st.one_of(st.tuples(st.floats(), st.floats()), _log_range(-320.0, 300.0))
# GenConfig's device and task ranges and power-law fields: (the usual draw,
# the wide one).  Nearly every wide draw ends in a ConfigError, and so did
# three uniform draws in four over ranges like the usual ones
GEN_FIELDS = dict(
    p_max_dbm=(st.tuples(st.floats(20.0, 50.0), st.floats(0.0, 20.0))
               .map(lambda t: (t[0], t[0] + t[1])),
               st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0))),
    data_bits=(_log_range(3.0, 8.0), ANY_RANGE),
    cycles=(_log_range(2.0, 10.0), ANY_RANGE),
    deadline_s=(_log_range(-3.0, 0.0), ANY_RANGE),
    f_ue=(_log_range(7.0, 11.0), ANY_RANGE),
    kappa=(st.floats(-32.0, -22.0).map(lambda e: 10.0 ** e),
           st.one_of(st.floats(), st.sampled_from([0.0, 5e-324, 1e-310, 1.0]))),
    nu=(st.floats(1.0, 6.0), st.one_of(st.floats(), st.sampled_from([0.0, 40.0]))),
    eta=(st.floats(0.01, 1.0), st.floats()),
    p_cir=(st.floats(0.0, 0.1), st.floats()),
)


@st.composite
def gen_fields(draw):
    """Every GEN_FIELDS field from its usual draw, and at most one from its wide one."""
    fields = {name: draw(usual) for name, (usual, _) in GEN_FIELDS.items()}
    wide = draw(st.one_of(st.none(), st.sampled_from(sorted(GEN_FIELDS))))
    if wide is not None:
        fields[wide] = draw(GEN_FIELDS[wide][1])
    return fields


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), fields=gen_fields())
def test_generator_ranges_validate_or_raise(n, seed, fields):
    # generate raises a ConfigError, or every solver raises a CoopMecError
    # or returns a validated assignment of finite cost within the drop bound
    try:
        sc = gen(n=n, seed=seed, **fields)
    except ConfigError:
        return
    ceiling = sc.arrays.circuit + sc.arrays.penalty_total
    for algo in ALGORITHMS:
        try:
            asg, _ = run_algorithm(sc, algo)
        except CoopMecError:
            continue
        assert validate_constraints(sc, asg) == []
        assert math.isfinite(asg.cost.total)
        assert asg.cost.total <= ceiling * (1.0 + 1e-9)


# every numeric field of a written n = 4 cell: (line kind, record id, field index)
FILE_FIELDS = ([(kind, None, 1) for kind in ("n", "bandwidth", "noise_w", "seed")]
               + [("task", k, f) for k in range(1, 5) for f in range(2, 7)]
               + [("device", j, f) for j in range(5) for f in range(2, 10)]
               + [("gains", k, f) for k in range(1, 5) for f in range(2, 7)])
EXTREMES = [0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e-30, 1e30, 1e300, 1e308, math.inf, math.nan]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 5), field=st.sampled_from(FILE_FIELDS),
       value=st.sampled_from(EXTREMES))
@example(seed=0, field=("device", 0, 2), value=5e-324)    # icrbi's capacity-price scale
@example(seed=0, field=("task", 1, 6), value=1e308)       # icrbi's power-price step
def test_mutated_scenario_file_validates_or_raises(tmp_path_factory, seed, field, value):
    # one field of a written cell set to an extreme: the read raises a
    # ConfigError, or every solver raises a CoopMecError or returns a
    # validated assignment of finite cost within the drop bound
    kind, rid, index = field
    path = tmp_path_factory.mktemp("mutated") / "inst.sc"
    scenario.write_scenario(gen(n=4, seed=seed), path)
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.split()[0] == kind
             and (rid is None or ln.split()[1] == str(rid)))
    parts = lines[i].split()
    parts[index] = repr(value)
    lines[i] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    try:
        sc = scenario.read_scenario(path)
    except ConfigError:
        return
    ceiling = sc.arrays.circuit + sc.arrays.penalty_total
    for algo in ALGORITHMS:
        try:
            asg, _ = run_algorithm(sc, algo)
        except CoopMecError:
            continue
        assert validate_constraints(sc, asg) == []
        assert math.isfinite(asg.cost.total)
        assert asg.cost.total <= ceiling * (1.0 + 1e-9)


def scenario_key(sc) -> tuple:
    """A scenario's records, the bytes of its gains, its scalars and every
    ScenarioArrays field (arrays by dtype, shape and bytes, the rest by repr)."""
    arrays = tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
                   for v in sc.arrays)
    return (sc.tasks, sc.devices, sc.gains.dtype.str, sc.gains.shape, sc.gains.tobytes(),
            sc.bandwidth, sc.noise_w, sc.seed, arrays)


def drawn_per_value(spec: ExperimentSpec) -> list[harness.RunRecord]:
    """spec's run records with every (value, realization) drawn by generate."""
    records = []
    for value in spec.sweep_values:
        for r in range(spec.realizations):
            cfg = dataclasses.replace(spec.base, seed=spec.seed_base + r,
                                      **{spec.sweep_var: value})
            sc = scenario.generate(cfg)
            for algo in spec.algorithms:
                asg, extras = run_algorithm(sc, algo)
                records.append(harness.RunRecord(
                    algo, float(value), r, cfg.seed, asg.cost.total, asg.accomplished,
                    asg.accomplished / sc.n, model.ue_total_power(sc, asg),
                    extras["overhead"], extras["converged"], extras["iterations"]))
    return records


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), fading=st.booleans(),
       pathloss_exponent=st.floats(2.5, 5.0), ref_gain_exp=st.floats(-5.0, -1.0),
       f0_max=st.lists(st.floats(1e8, 1e11), min_size=2, max_size=2, unique=True),
       w=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2, unique=True))
def test_a_sweep_value_set_on_one_draw_equals_its_own_draw(n, seed, fading, pathloss_exponent,
                                                           ref_gain_exp, f0_max, w):
    # an f0_max or w sweep draws each realization once and sets the value on
    # that draw; the scenario, and every run record, must be what drawing
    # each value's config again gives
    base = GenConfig(n=n, seed=seed, fading=fading, pathloss_exponent=pathloss_exponent,
                     pathloss_ref_gain=10.0 ** ref_gain_exp)
    for var, values in (("f0_max", sorted(f0_max)), ("w", sorted(w))):
        draw = scenario.generate(dataclasses.replace(base, **{var: values[0]}))
        for value in values:
            own = scenario.generate(dataclasses.replace(base, **{var: value}))
            assert scenario_key(harness._with_value(draw, var, value)) == scenario_key(own)
        spec = ExperimentSpec(algorithms=ALGORITHMS, base=base, sweep_var=var,
                              sweep_values=tuple(values), realizations=2,
                              seed_base=seed)
        assert run_experiment(spec)[1] == drawn_per_value(spec)


def test_run_experiment_aggregates():
    spec = small_spec()
    table, records = run_experiment(spec)
    assert len(table) == 2 and len(records) == 4
    for row in table:
        grp = [r for r in records if r.algorithm == row.algorithm]
        assert row.realizations == 2
        assert math.isclose(row.mean_total_cost,
                            sum(r.total_cost for r in grp) / 2, rel_tol=1e-15)
        assert 0.0 <= row.accomplished_ratio <= 1.0
    with pytest.raises(ConfigError):
        aggregate(spec, records[:-1])      # a lost record must not pass


def test_paired_seeds_across_sweep():
    spec = small_spec(sweep_var="f0_max", sweep_values=(5e9, 8e9))
    _, records = run_experiment(spec)
    seeds = {(r.sweep_value, r.realization): r.seed for r in records}
    assert seeds[(5e9, 0)] == seeds[(8e9, 0)]
    assert seeds[(5e9, 1)] == seeds[(8e9, 1)]


def test_more_server_capacity_never_hurts():
    spec = ExperimentSpec(algorithms=("icrbi", "noncope"), base=GenConfig(n=6),
                          sweep_var="f0_max", sweep_values=(5e9, 8e9),
                          realizations=10)
    table, _ = run_experiment(spec)
    by_algo = {}
    for row in table:
        by_algo.setdefault(row.algorithm, []).append(row.mean_total_cost)
    for algo, costs in by_algo.items():
        assert costs[1] <= costs[0] + 1e-9


def test_outputs_are_byte_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        spec = small_spec(out=str(tmp_path / name))
        table, records = run_experiment(spec)
        paths.append(write_outputs(spec, table, records))
    for key in ("metrics", "runs"):
        assert paths[0][key].read_bytes() == paths[1][key].read_bytes()
    head = paths[0]["metrics"].read_text().splitlines()[0]
    assert head.startswith("algorithm,sweep_var,sweep_value,mean_total_cost")


def test_aggregates_recomputable_from_runs(tmp_path):
    spec = small_spec(out=str(tmp_path))
    table, records = run_experiment(spec)
    paths = write_outputs(spec, table, records)
    rows = [ln.split(",") for ln in
            paths["runs"].read_text().splitlines()[1:]]
    for row in table:
        costs = [float(r[5]) for r in rows
                 if r[0] == row.algorithm and float(r[2]) == row.sweep_value]
        assert sum(costs) / len(costs) == row.mean_total_cost


def test_fmt_writes_numpy_floats_as_plain_reals():
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(0.1) == "0.1" and _fmt(3) == "3" and _fmt(True) == "1"


def test_csv_cells_are_plain_numbers(tmp_path):
    # maxtask on this seed commits a frequency clamped to a numpy residual,
    # so its cost and UE power come out as numpy scalars
    spec = small_spec(algorithms=("maxtask",), base=GenConfig(), realizations=1,
                      seed_base=19, out=str(tmp_path))
    run_experiment(spec)
    for name in ("runs.csv", "metrics.csv"):
        assert "np." not in (tmp_path / name).read_text()


def test_convergence_trace_files(tmp_path):
    spec = ExperimentSpec(algorithms=("icrbi", "maxtask", "decentral"),
                          base=GenConfig(n=5), out=str(tmp_path))
    paths = convergence_trace(spec)
    assert paths["icrbi"].name == "icrbi.csv"
    assert paths["icrbi"].read_text().startswith(
        "iteration,reduced_cost,num_assigned")
    for algo in ("maxtask", "decentral"):
        lines = paths[algo].read_text().splitlines()
        assert lines[0] == "step,total_cost"
        assert len(lines) >= 2
    assert paths["decentral_events"].exists()
    with pytest.raises(UnknownAlgorithm):
        convergence_trace(ExperimentSpec(algorithms=("noncope",),
                                         base=GenConfig(n=5)))


def test_cli_trace_rejects_the_baseline_before_solving(tmp_path, capsys):
    out = tmp_path / "tr"
    assert cli.main(["trace", "--algo", "icrbi,noncope", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_converged_runs_settle_below_threshold(sc10):
    # sc10's decision map never changes after iteration 1, so it stops
    # map-stable at 3, before it would settle (at 26); seed 234's relaxed
    # cost settles first, at 5
    from coopmec import icrbi
    sc234 = gen(n=10, seed=234)
    for sc, stop, iterations in ((sc10, "map_stable", 3), (sc234, "converged", 5)):
        _, trace = icrbi.solve(sc)
        assert trace.termination == stop and trace.converged
        assert trace.iterations == iterations
        costs = trace.reduced_cost
        steps = [abs(b - a) for a, b in zip(costs, costs[1:])]
        assert all(d >= trace.eps for d in steps[:-1])
        assert (steps[-1] < trace.eps) == (stop == "converged")


def test_decentral_settles_no_slower_than_matching():
    # the one-shot scheme usually needs fewer cost updates than the
    # sequential heuristic's one-commit-per-step series
    wins = 0
    for seed in range(100):
        sc = gen(n=10, seed=seed)
        d_asg, log = decentral.run(sc)
        m_asg, state = matching.run(sc, "maxtask")
        if len(log.cost_series(sc, d_asg)) <= len(state.cost_series(sc, m_asg)):
            wins += 1
    assert wins >= 80


def test_cli_gen_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text("n = 3\n")
    out = tmp_path / "scen"
    assert cli.main(["gen", "--config", str(cfg_path), "--out", str(out),
                     "--realizations", "2"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["scenario_0.txt",
                                                     "scenario_1.txt"]
    run_out = tmp_path / "exp"
    rc = cli.main(["run", "--config", str(cfg_path), "--algo", "noncope,maxtask",
                   "--realizations", "2", "--out", str(run_out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "maxtask" in text and "noncope" in text
    lines = (run_out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_trace_and_oracle_check(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text("n = 3\n")
    assert cli.main(["trace", "--config", str(cfg_path),
                     "--out", str(tmp_path / "tr")]) == 0
    assert cli.main(["oracle-check", "--config", str(cfg_path),
                     "--realizations", "3"]) == 0
    assert "ok:" in capsys.readouterr().out
    # a steep power law: the free server's f**nu would overflow the oracle's lattice
    cfg_path.write_text("n = 3\nnu = 40\n")
    assert cli.main(["oracle-check", "--config", str(cfg_path),
                     "--realizations", "3"]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_oracle_check_with_a_zero_optimum(tmp_path, capsys):
    # free power, no circuit draw and light tasks: the optimum costs 0, and
    # a solver that matches it has no gap
    cfg_path = tmp_path / "free.cfg"
    cfg_path.write_text("w = 0\np_cir = 0\nn = 3\ncycles = 1e4, 1e5\n")
    assert cli.main(["oracle-check", "--config", str(cfg_path), "--realizations", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("oracle=0.000000") == 2 and "ok:" in out


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_rejects_a_non_finite_task_count_sweep(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert cli.main(["run", "--sweep", f"n={value}", "--realizations", "1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "task count must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("sweep, message", [
    ("f0_max=5e9,inf", "error: f0_max must be finite, got inf\n"),
    ("w=1,1e400", "error: w must be finite, got inf\n"),
])
def test_cli_rejects_a_non_finite_later_sweep_value(tmp_path, capsys, sweep, message):
    # the first value's scenarios are solved first; the second value's config
    # must still fail generate's check, not a record built on the first draw
    assert cli.main(["run", "--sweep", sweep, "--realizations", "2",
                     "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def test_cli_rejects_malformed_arguments(tmp_path, capsys):
    assert cli.main(["run", "--sweep", "f0_max", "--realizations", "1"]) != 0
    assert "--sweep" in capsys.readouterr().err
    # a count below 1 is an error in every subcommand that takes one
    out = ["--out", str(tmp_path / "out")]
    for argv in (["run", "--realizations", "0", *out], ["gen", "--realizations", "0", *out],
                 ["gen", "--realizations", "-2", *out],
                 ["oracle-check", "--realizations", "0"],
                 ["oracle-check", "--realizations", "-1"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "realizations" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--step-rule", "bogus"], ["gen", "--algo", "icrbi"],
    ["oracle-check", "--out", "X"], ["trace", "--realizations", "7"],
    # icrbi has one step rule: no subcommand takes --step-rule
    ["run", "--step-rule", "diminish"], ["trace", "--step-rule", "diminish"],
    ["oracle-check", "--step-rule", "square"],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_options_the_command_ignores(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def readme_commands() -> list[list[str]]:
    """The `coopmec ...` lines of the README's "Command line" block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("coopmec ")]


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every README command line runs as written, at one realization, with its
    # outputs under tmp_path and `--config cell.cfg` a tiny config there: an
    # option renamed or removed fails here, not in a reader's shell
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cell.cfg").write_text("n = 3\n")
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"gen", "run", "trace", "oracle-check"}
    for argv in commands:
        if "--realizations" in argv:
            argv[argv.index("--realizations") + 1] = "1"
        assert cli.main(argv) == 0, argv


def test_cli_oracle_check_keeps_the_configured_task_count(tmp_path, monkeypatch, capsys):
    # a configured n is checked as configured: above the exhaustive search's
    # limit it is an error, raised before any scenario is drawn
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("n = 10\n")
    drawn = []
    real_generate = scenario.generate

    def recording(cfg):
        drawn.append(cfg.n)
        return real_generate(cfg)

    monkeypatch.setattr(scenario, "generate", recording)
    assert cli.main(["oracle-check", "--config", str(cfg_path), "--realizations", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: n = 10: oracle-check's exhaustive search is limited "
                            f"to {oracle.BRUTE_FORCE_LIMIT} tasks\n")
    assert captured.out == "" and drawn == []
    # a task count within the limit is checked as configured; none gives 3
    cfg_path.write_text("n = 2\n")
    assert cli.main(["oracle-check", "--config", str(cfg_path), "--realizations", "2"]) == 0
    assert cli.main(["oracle-check", "--realizations", "1", "--algo", "noncope"]) == 0
    assert drawn == [2, 2, 3]


def test_cli_reports_bad_generated_records(tmp_path, capsys):
    # a 10 W circuit power exceeds some drawn UE budgets (0.1 to 100 W)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("p_cir = 10\n")
    assert cli.main(["run", "--config", str(cfg_path), "--realizations", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_reports_unbounded_task_count(tmp_path, capsys):
    # a 401-digit n used to end in numpy's raw "Maximum allowed dimension
    # exceeded" inside generate
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("n = 1" + "0" * 400 + "\n")
    assert cli.main(["run", "--config", str(cfg_path), "--realizations", "1",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n must be") and "Traceback" not in err


def test_cli_reports_non_utf8_config(tmp_path, capsys):
    # a latin-1 byte used to end in a raw UnicodeDecodeError traceback
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_bytes("# café\nn = 3\n".encode("latin-1"))
    assert cli.main(["run", "--config", str(cfg_path), "--realizations", "1",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: not UTF-8") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["run", "--seed", "-1"], ["gen", "--seed", "-3"]],
                         ids=lambda argv: " ".join(argv))
def test_cli_rejects_negative_seed(tmp_path, capsys, argv):
    # numpy's generator used to end these in a raw ValueError
    assert cli.main(argv + ["--realizations", "1", "--out", str(tmp_path / "o")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_cli_reports_file_system_errors(tmp_path, monkeypatch, capsys):
    # both used to end in a traceback, the second only after the whole sweep
    missing = str(tmp_path / "missing.cfg")
    assert cli.main(["run", "--config", missing, "--realizations", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
    taken = tmp_path / "taken"
    taken.write_text("")
    def no_solve(*args, **kwargs):
        pytest.fail("solved before the output directory was made")
    monkeypatch.setattr(harness, "run_algorithm", no_solve)
    assert cli.main(["run", "--out", str(taken), "--realizations", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
