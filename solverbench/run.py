#!/usr/bin/env python3
"""coopmec solver benchmark: one workload per run, one process, one thread.

    python3 solverbench/run.py --workload capacity-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root (the package is imported from ./src).  Set-up
imports ``coopmec`` and solves one warm-up scenario with each algorithm,
several times over, and reports the median as ``setup_s``.  The run then
goes through the blocks of the workload's fixed scenario pool, starting at
block ``--seed``, one round per block, for as long as the next round is
expected to end within ``--seconds`` (see ``workloads``).  It checks every
solve with ``checker`` and prints one metric per line followed by a JSON
summary as the last line.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced rounds,
reports the per-layer metrics of the traced ones plus the tracing overhead,
and writes every span to ``solverbench/out/<workload>-spans.csv.gz``.
"""

from __future__ import annotations

import os

# one thread: pin BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checker
from tracer import HOOKS, Recorder, Solve, Tracer
from workloads import ALGORITHMS, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_ROOT = HERE / "out"

MODULES = ("errors", "model", "scenario", "icrbi", "matching", "decentral",
           "oracle", "harness", "cli")
SPEC = HERE.parent / "BENCHMARK.json"     # workloads and metrics: names, units
SETUP_ROUNDS = 11
REPLAY = 10              # solves of the first round re-run after timing
WARMUP_SEED = 0          # set-up cost should not depend on the run's seed
ORACLE_SEEDS = 8         # N=3 brute-force comparisons per run, after timing

@dataclass
class Round:
    cycle: int
    block: int
    wall: float
    solves: list
    traced: bool
    error: str | None = None
    digest: str | None = None
    stats: dict = field(default_factory=dict)
    written_bytes: int = 0


def load_package(cell: dict) -> tuple[SimpleNamespace, list[float]]:
    """Import ``coopmec`` afresh and warm every solver up, SETUP_ROUNDS times;
    returns the last import's modules and the time of each round."""
    times = []
    mods = None
    for _ in range(SETUP_ROUNDS):
        for name in [m for m in sys.modules if m == "coopmec" or m.startswith("coopmec.")]:
            del sys.modules[name]
        gc.collect()
        t0 = perf_counter()
        importlib.import_module("coopmec")
        mods = SimpleNamespace(**{m: importlib.import_module(f"coopmec.{m}") for m in MODULES})
        sc = mods.scenario.generate(mods.scenario.GenConfig(**{**cell, "seed": WARMUP_SEED}))
        for algo in ALGORITHMS:
            try:
                mods.harness.run_algorithm(sc, algo)
            except mods.errors.CoopMecError:
                pass                # the timed rounds count and report failures
        times.append(perf_counter() - t0)
    return mods, times


def one_round(wl, mods, pool_base: int, cycle: int, block: int, out: Path,
              recorder: Recorder, tracer: Tracer | None,
              round_no: int) -> tuple[Round, list]:
    """Time one round on scenario block ``block``, then (untimed) digest and
    check its outputs and drop the scenarios and assignments, so later
    rounds run on the same heap.  The first REPLAY solves of the first
    round are solved again, to see that a solve does not depend on what
    ran before it."""
    gc.collect()
    recorder.install()
    if tracer is not None:
        tracer.install(round_no)
    error = None
    t0 = perf_counter()
    try:
        wl.run_round(mods, pool_base + block * wl.block_size, out)
    except Exception as exc:        # a failed solve aborts a sweep; reported below
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    recorder.uninstall()
    rnd = Round(cycle=cycle, block=block, wall=wall, solves=recorder.take(),
                traced=tracer is not None, error=error)
    if tracer is not None:
        rnd.stats = {k: tuple(v) for k, v in tracer.stats.items()}
        # the sweeps write their CSVs into `out` through harness.write_outputs
        rnd.written_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    problems = []
    if error is None:
        rnd.digest = wl.digest(out, rnd.solves)
        problems += wl.check_outputs(out, rnd.solves)
    elif not any(s.error for s in rnd.solves):
        problems.append(checker.Problem("round", error))
    for s in rnd.solves:
        if s.assignment is not None:
            problems += checker.check_solve(s.scenario, s.algorithm, s.assignment)
    if cycle == 0 and not rnd.traced:
        problems += checker.check_replay(mods, rnd.solves[:REPLAY])
    for s in rnd.solves:
        s.scenario = s.assignment = None
    return rnd, problems


def run_rounds(wl, mods, seed: int, pool_base: int, out: Path, seconds: float,
               tracer: Tracer | None) -> tuple[list[Round], list]:
    """Whole rounds, at least ``wl.core_blocks`` and at most
    ``wl.pool_blocks``, while the next is expected to end within
    ``seconds``.  Round k runs block (seed + k) mod ``wl.pool_blocks`` of
    the workload's scenario pool, so a run covers as much of the pool as
    its time allows, each block once.  When tracing, each block is run as
    an untraced/traced pair.  A block run twice must print the same digest.
    Pairs alternate their order (untraced first, then traced first) so a
    steady drift in machine speed cancels out of the tracing overhead."""
    recorder = Recorder()
    kinds = (None,) if tracer is None else (None, tracer)
    rounds: list[Round] = []
    problems = []
    spent = 0.0
    while True:
        for tr in (kinds if len(rounds) % (2 * len(kinds)) == 0 else kinds[::-1]):
            cycle = len(rounds) // len(kinds)
            rnd, found = one_round(wl, mods, pool_base, cycle,
                                   (seed + cycle) % wl.pool_blocks, out, recorder, tr,
                                   len(rounds))
            rounds.append(rnd)
            problems += found
            spent += rnd.wall
        cycles = len(rounds) // len(kinds)
        if (any(r.error for r in rounds) or cycles == wl.pool_blocks
                or (cycles >= wl.core_blocks and spent * (cycles + 1) / cycles > seconds)):
            break
    for block in {r.block for r in rounds}:
        digests = {r.digest for r in rounds if r.block == block and r.digest is not None}
        if len(digests) > 1:
            problems.append(checker.Problem("digest", f"block {block} run twice gives "
                                                      f"{sorted(digests)}"))
    return rounds, problems


def core_digest(wl, rounds: list[Round]) -> str:
    """One digest for the first ``wl.core_blocks`` rounds, which every run
    of a seed makes on the same blocks."""
    by_cycle = {r.cycle: r.digest for r in rounds}
    parts = [by_cycle.get(c) for c in range(wl.core_blocks)]
    if None in parts:
        return "none"
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def end_to_end(wl, rounds: list[Round], setup_times: list[float]) -> dict[str, float]:
    """Latency percentiles and throughput pool every solve of the run.  Costs
    cover the first ``wl.core_blocks`` rounds only, so they
    depend only on the seed and the code, not on how many rounds fitted in
    the run."""
    ok = [s for r in rounds for s in r.solves if s.error is None]
    out = {"setup_s": statistics.median(setup_times),
           "solves_per_s": len(ok) / sum(r.wall for r in rounds)}
    for algo in ALGORITHMS:
        lat = [s.seconds * 1e3 for s in ok if s.algorithm == algo] or [0.0, 0.0]
        out[f"solve_ms_p50.{algo}"] = statistics.median(lat)
        out[f"solve_ms_p90.{algo}"] = statistics.quantiles(lat, n=10)[8]
        costs = [s.cost for r in rounds if r.cycle < wl.core_blocks for s in r.solves
                 if s.algorithm == algo and s.error is None]
        out[f"cost_mean.{algo}"] = statistics.fmean(costs) if costs else 0.0
    return out


def layer_metrics(traced: list[Round]) -> dict[str, float]:
    """Per-layer values of the traced rounds: times, calls and bytes are
    means per round (one block), per-solve figures are means over all
    traced solves, and ``icrbi.iterations_max`` is the largest of them."""
    k = len(traced)
    st = {name: [sum(r.stats[name][i] for r in traced) / k for i in range(3)]
          for name, _, _ in HOOKS}

    def calls(name):
        return st[name][0]

    def ms(name):
        return st[name][1] * 1e3

    def self_ms(name):
        return st[name][2] * 1e3

    solves = [s for r in traced for s in r.solves]
    ok = [s for s in solves if s.error is None]
    icrbi = [s for s in ok if s.algorithm == "icrbi"] or [Solve("icrbi", 0, None, None, 0.0)]
    da = [s for s in ok if s.algorithm == "decentral"] or [Solve("decentral", 0, None, None, 0.0)]
    out = {}
    for name, _, _ in HOOKS:
        out[f"{name}.ms"] = ms(name)
        out[f"{name}.calls"] = calls(name)
    out.update({
        "model.feasibility_bounds.per_scenario":
            calls("model.feasibility_bounds") / max(calls("scenario.generate"), 1),
        "model.validate_constraints.per_solve":
            calls("model.validate_constraints") * k / max(len(solves), 1),
        "icrbi.iterations": statistics.fmean(s.iterations for s in icrbi),
        "icrbi.iterations_max": max(s.iterations for s in icrbi),
        "icrbi.nonconverged": sum(not s.converged for s in icrbi) / k,
        "icrbi.primal.us_per_call":
            ms("icrbi.primal") * 1e3 / max(calls("icrbi.primal"), 1),
        "icrbi.remote_pairs": statistics.fmean(s.remote_pairs for s in icrbi),
        "matching.pair_frequency.useful_ratio":
            calls("matching.commit") / max(calls("matching.pair_frequency"), 1),
        "decentral.rounds": statistics.fmean(s.da_rounds for s in da),
        "decentral.events": statistics.fmean(s.da_events for s in da),
        "harness.run_algorithm.self_ms": self_ms("harness.run_algorithm"),
        "harness.write_outputs.bytes": statistics.fmean(r.written_bytes for r in traced),
        "cli.main.self_ms": self_ms("cli.main"),
    })
    return out


def per_layer(wl, rounds: list[Round], tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    traced = ([r for r in rounds if r.traced and r.error is None]
              or [r for r in rounds if r.traced])
    plain = [r for r in rounds if not r.traced and r.error is None]
    out = layer_metrics(traced)
    # each block runs untraced and traced: compare the two on the same blocks
    pairs = [(a.wall, b.wall) for a in plain for b in traced if a.cycle == b.cycle]
    t_off = sum(a for a, _ in pairs)
    t_on = sum(b for _, b in pairs)
    silent = [name for name, _, _ in HOOKS
              if name not in wl.silent_hooks and name not in tracer.missing
              and any(r.stats[name][0] == 0 for r in traced)]
    out.update({
        "trace.overhead_ms": (t_on - t_off) * 1e3 / len(pairs) if pairs else 0.0,
        "trace.overhead_pct": 100.0 * (t_on - t_off) / t_off if t_off else 0.0,
        "trace.hooks_missing": len(tracer.missing),
        "trace.hooks_silent": len(silent),
    })
    notes = [f"hook missing (target gone): {n}" for n in tracer.missing]
    notes += [f"hook silent (expected to fire): {n}" for n in silent]
    return out, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="first block of the scenario pool to run (>= 0)")
    ap.add_argument("--pool-base", type=int, default=0,
                    help="seed of the pool's first scenario; change it to run on "
                         "scenarios no run has seen (default 0)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.pool_base < 0 or args.seconds <= 0:
        ap.error("--seed and --pool-base must be >= 0 and --seconds > 0")
    if not (SRC / "coopmec" / "__init__.py").is_file():
        print(f"error: no coopmec package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (a dependency: loaded before set-up is timed)

    wl = WORKLOADS[args.workload]
    mods, setup_times = load_package(wl.warmup_cell)
    if not Path(mods.harness.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: coopmec imported from {mods.harness.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    out = OUT_ROOT / f"{wl.name}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spans = OUT_ROOT / f"{wl.name}-spans.csv.gz"
    tracer = Tracer(spans) if args.trace else None
    rounds, problems = run_rounds(wl, mods, args.seed, args.pool_base, out,
                                  args.seconds, tracer)
    problems += checker.check_oracle(mods, wl.oracle_cell,
                                     [args.seed + k for k in range(ORACLE_SEEDS)],
                                     ALGORITHMS)

    notes = []
    if tracer is None:
        metrics = end_to_end(wl, rounds, setup_times)
        wanted = spec["end_to_end"]
    else:
        tracer.close()
        metrics, notes = per_layer(wl, rounds, tracer)
        wanted = spec["per_layer"]
        notes.append(f"spans: {tracer.spans_written} written to {spans}")

    attempted = sum(len(r.solves) for r in rounds)
    failed = sum(1 for r in rounds for s in r.solves if s.error is not None)
    for r in rounds:
        for s in r.solves:
            if s.error is not None:
                notes.append(f"failed: {s.algorithm} seed {s.seed}: {s.error}")
    known = [p for p in problems if p.known]
    problems = [p for p in problems if not p.known]
    for p in problems[:50]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for p in known[:50]:
        print(f"KNOWN FAULT {p}", file=sys.stderr)
    for note in notes[:50]:
        print(note, file=sys.stderr)

    digest = core_digest(wl, rounds)
    print(f"workload {wl.name} seed {args.seed} rounds {len(rounds)} "
          f"solves {attempted} failed {failed} problems {len(problems)} "
          f"known-fault breaches {len(known)}")
    print(f"digest of the first {wl.core_blocks} rounds sha256:{digest}")
    print("round seconds: " + " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}"
                                       for r in rounds))
    for m in wanted:
        print(f"{m['name']:44s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
