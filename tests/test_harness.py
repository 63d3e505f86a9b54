"""Experiment runner: dispatch, aggregation, reproducible CSV output, CLI."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from conftest import gen
from coopmec import cli, decentral, matching, model
from coopmec.errors import ConfigError, UnknownAlgorithm
from coopmec.harness import (ALGORITHMS, ExperimentSpec, _fmt, aggregate,
                             apply_sweep, convergence_trace, run_algorithm,
                             run_experiment, write_outputs)
from coopmec.model import validate_constraints
from coopmec.scenario import GenConfig, write_config


def small_spec(**kw) -> ExperimentSpec:
    base = dict(algorithms=("icrbi", "noncope"), base=GenConfig(n=3),
                realizations=2)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_normalisation():
    spec = small_spec(sweep_var="N", sweep_values=(5, 10))
    assert spec.sweep_var == "n"
    assert small_spec().sweep_values == (5e9,)     # defaults to the base value
    with pytest.raises(UnknownAlgorithm):
        small_spec(algorithms=("icrbi", "simplex"))
    with pytest.raises(ConfigError):
        small_spec(sweep_values=(2e9, 1e9))
    with pytest.raises(ConfigError):
        small_spec(realizations=0)
    with pytest.raises(ConfigError):
        small_spec(sweep_var="bandwidth")
    with pytest.raises(ConfigError):
        apply_sweep(GenConfig(), "n", 2.5)


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
def test_one_validation_per_solve(monkeypatch, algo):
    # every solver returns through make_assignment, which validates; the
    # dispatcher must not check the same assignment again
    calls = []
    real = model.validate_constraints

    def counting(sc, asg):
        calls.append(asg)
        return real(sc, asg)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("coopmec.")
                and getattr(mod, "validate_constraints", None) is real):
            monkeypatch.setattr(mod, "validate_constraints", counting)
    for k in range(3):
        asg, _ = run_algorithm(gen(n=10, seed=k), algo)
        assert len(calls) == k + 1
        assert calls[-1] is asg


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
    assert paths["icrbi"].name == "icrbi_diminish_0.1.csv"
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


def test_converged_runs_settle_below_threshold(sc10):
    from coopmec import icrbi
    for rule in ("diminish", "square"):
        _, trace = icrbi.solve(sc10, step_rule=rule)
        assert trace.termination == "converged"
        assert abs(trace.reduced_cost[-1] - trace.reduced_cost[-2]) < trace.eps


def test_decentral_settles_no_slower_than_matching():
    # the one-shot scheme usually needs fewer cost updates than the
    # sequential heuristic's one-commit-per-step series
    wins = 0
    for seed in range(100):
        sc = gen(n=10, seed=seed)
        _, log = decentral.run(sc)
        _, state = matching.run(sc, "maxtask")
        if len(log.cost_series) <= len(state.cost_series):
            wins += 1
    assert wins >= 80


def test_cli_gen_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    write_config(GenConfig(n=3), cfg_path)
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
    write_config(GenConfig(n=3), cfg_path)
    assert cli.main(["trace", "--config", str(cfg_path),
                     "--out", str(tmp_path / "tr")]) == 0
    assert cli.main(["oracle-check", "--config", str(cfg_path),
                     "--realizations", "3"]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_rejects_malformed_arguments(capsys):
    assert cli.main(["run", "--sweep", "f0_max", "--realizations", "1"]) != 0
    assert "--sweep" in capsys.readouterr().err
    assert cli.main(["run", "--step-rule", "sprint:0.1",
                     "--realizations", "1"]) != 0
    assert "step-rule" in capsys.readouterr().err
