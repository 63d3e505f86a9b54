"""Tests of the benchmark's own code: the output checker must report each
hand-broken assignment, and the tracer must survive a missing hook and
write out every span it records.

    PYTHONPATH=src python -m pytest solverbench -q
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
from types import SimpleNamespace

import pytest

import checker
import tracer as tracer_mod
from tracer import Recorder, Tracer
from coopmec import harness
from coopmec.harness import ALGORITHMS, run_algorithm
from coopmec.scenario import GenConfig, generate


def _kinds(problems) -> set[str]:
    return {p.kind for p in problems}


def _first(pred, algorithm="maxtask", n=10):
    """First default-cell scenario (seeds 0..49) whose `algorithm` output
    satisfies pred(scenario, assignment)."""
    for seed in range(50):
        sc = generate(GenConfig(n=n, seed=seed))
        asg, _ = run_algorithm(sc, algorithm)
        if pred(sc, asg):
            return sc, asg
    raise AssertionError("no scenario in seeds 0..49 has the wanted shape")


def _helper_placed(sc, asg):
    return any(d not in (0, k) for k, d in asg.target.items())


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_solver_outputs_pass(seed):
    sc = generate(GenConfig(n=10, seed=seed))
    for algo in ALGORITHMS:
        asg, _ = run_algorithm(sc, algo)
        assert checker.check_solve(sc, algo, asg) == []


def test_missed_deadline_reported():
    sc, asg = _first(lambda sc, a: any(d != k for k, d in a.target.items()))
    k = next(k for k, d in asg.target.items() if d != k)
    broken = dataclasses.replace(asg, p_t={**asg.p_t, k: asg.p_t[k] / 4.0})
    assert "deadline" in _kinds(checker.check_solve(sc, "maxtask", broken))


def test_over_full_host_reported():
    sc, asg = _first(lambda sc, a: 0 in a.target.values())
    k = next(k for k, d in asg.target.items() if d == 0)
    broken = dataclasses.replace(asg, f={**asg.f, k: 1.5 * sc.devices[0].f_max})
    assert _kinds(checker.check_solve(sc, "maxtask", broken)) == {"capacity"}


def test_mis_summed_cost_reported():
    sc = generate(GenConfig(n=10, seed=0))
    asg, _ = run_algorithm(sc, "icrbi")
    cost = dataclasses.replace(asg.cost, total=asg.cost.total * (1 + 1e-6))
    broken = dataclasses.replace(asg, cost=cost)
    assert _kinds(checker.check_solve(sc, "icrbi", broken)) == {"cost"}


def test_helper_placement_in_noncope_reported():
    sc, asg = _first(_helper_placed)
    assert checker.check_solve(sc, "maxtask", asg) == []
    assert _kinds(checker.check_solve(sc, "noncope", asg)) == {"noncope-helper"}


def test_drop_bound_breach_reported():
    # with the penalties of the accomplished tasks cut to zero the cost is
    # unchanged, but any upload now costs more than dropping everything
    sc, asg = _first(lambda sc, a: any(d != k for k, d in a.target.items()))
    cheap = dataclasses.replace(sc, tasks=tuple(
        dataclasses.replace(t, penalty=0.0) if t.id in asg.target else t
        for t in sc.tasks))
    problems = checker.check_solve(cheap, "maxtask", asg)
    assert _kinds(problems) == {"drop-bound"}
    assert [p.algorithm for p in problems] == ["maxtask"]


def test_replay_checked():
    sc = generate(GenConfig(n=10, seed=0))
    rec = Recorder()
    rec.install()
    try:
        for algo in ALGORITHMS:
            harness.run_algorithm(sc, algo)
    finally:
        rec.uninstall()
    solves = rec.take()
    mods = SimpleNamespace(harness=harness)
    assert checker.check_replay(mods, solves) == []
    cost = dataclasses.replace(solves[0].assignment.cost, total=0.0)
    solves[0].assignment = dataclasses.replace(solves[0].assignment, cost=cost)
    assert _kinds(checker.check_replay(mods, solves)) == {"replay"}


def test_sweep_csv_checked(tmp_path):
    spec = harness.ExperimentSpec(algorithms=ALGORITHMS, base=GenConfig(),
                                  sweep_values=(5e9, 6e9), realizations=3,
                                  out=str(tmp_path))
    rec = Recorder()
    rec.install()
    try:
        harness.run_experiment(spec)
    finally:
        rec.uninstall()
    solves = rec.take()
    runs, metrics = tmp_path / "runs.csv", tmp_path / "metrics.csv"
    assert checker.check_sweep_csv(runs, metrics, solves) == []

    lines = metrics.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 0.5)
    metrics.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    assert _kinds(checker.check_sweep_csv(runs, metrics, solves)) == {"metrics.csv"}
    assert _kinds(checker.check_sweep_csv(runs, metrics, solves[:-1])) == {"runs.csv"}


def test_csv_number_reads_numpy_repr():
    assert checker.csv_number("np.float64(1.5)") == 1.5
    assert checker.csv_number("2.25") == 2.25


def test_tracer_counts_and_restores(tmp_path):
    import coopmec.icrbi as icrbi
    import coopmec.model as model

    before = (model.feasibility_bounds, icrbi.feasibility_bounds, icrbi._Kernel.primal)
    hooks = (("model.feasibility_bounds", "model", "feasibility_bounds"),
             ("icrbi.primal", "icrbi", "_Kernel.primal"),
             ("icrbi.solve", "icrbi", "solve"),
             ("model.gone", "model", "no_such_function"),
             ("icrbi.gone", "icrbi", "_Kernel.no_such_method"))
    tracer = Tracer(tmp_path / "spans.csv.gz", hooks=hooks)
    assert tracer.missing == ["model.gone", "icrbi.gone"]
    tracer.install(0)
    try:
        asg, trace = icrbi.solve(generate(GenConfig(n=6, seed=1)))
    finally:
        tracer.uninstall()
        tracer.close()
    assert (model.feasibility_bounds, icrbi.feasibility_bounds,
            icrbi._Kernel.primal) == before
    calls, total, self_s = tracer.stats["icrbi.solve"]
    assert calls == 1 and 0 < self_s < total
    assert tracer.stats["icrbi.primal"][0] == trace.iterations
    assert tracer.stats["model.feasibility_bounds"][0] >= 1
    assert tracer.stats["model.gone"][0] == 0

    with gzip.open(tmp_path / "spans.csv.gz", "rt", encoding="utf-8") as fh:
        spans = list(csv.DictReader(fh))
    assert len(spans) == tracer.spans_written == sum(c for c, _, _ in tracer.stats.values())
    solve_id = next(s["span"] for s in spans if s["name"] == "icrbi.solve")
    assert all(s["parent"] == solve_id for s in spans if s["name"] == "icrbi.primal")


def test_tracer_writes_every_span(tmp_path, monkeypatch):
    import coopmec.model as model

    monkeypatch.setattr(tracer_mod, "SPAN_CHUNK", 7)
    tracer = Tracer(tmp_path / "spans.csv.gz",
                    hooks=(("model.feasibility_bounds", "model", "feasibility_bounds"),))
    sc = generate(GenConfig(n=4, seed=2))
    tracer.install(0)
    try:
        for _ in range(30):
            model.feasibility_bounds(sc)
    finally:
        tracer.uninstall()
        tracer.close()
    with gzip.open(tmp_path / "spans.csv.gz", "rt", encoding="utf-8") as fh:
        spans = list(csv.DictReader(fh))
    assert [int(s["span"]) for s in spans] == list(range(1, 31))
    assert all(float(s["start_us"]) <= float(s["end_us"]) for s in spans)
