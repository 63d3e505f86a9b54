"""Seeded Monte-Carlo experiment runner with CSV output.

One experiment sweeps a single generator parameter over a value list, draws
`realizations` scenarios per value (seed = seed_base + realization index, the
same seeds for every sweep value so curves are paired), runs each selected
algorithm, and aggregates per (algorithm, value).  Per-run records are kept
next to the aggregates so every figure can be re-derived; floats are written
with repr() so a rerun of the same spec is byte-identical.

A sweep over `f0_max` or `w` draws each realization once: no draw depends
on either value, so every value's scenario is the one draw with the
server's f_max or every task's power_price set, and it equals what generate
would draw for that value.  The sweep keeps one uncached draw per
realization, and each scenario it solves builds its own caches.  `n` and
`phi0` are drawn again for every value: n sets the length of every draw, and
`rng.uniform(phi0, phi0 + spread)` need not equal a shifted penalty draw bit
for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import decentral, icrbi, matching, oracle
from .errors import ConfigError, UnknownAlgorithm
from .model import Assignment, Scenario, ue_total_power
from .scenario import GenConfig, check_config, generate

ARTIFACT = "coopmec 0.1.0"
ALGORITHMS = ("icrbi", "maxtask", "minpw", "decentral", "noncope")
SWEEP_VARS = ("f0_max", "n", "w", "phi0")
# sweep variables no draw of generate depends on: the server's f_max and the
# tasks' power_price are set after the draw, from cfg.f0_max and cfg.w
DRAW_FREE = ("f0_max", "w")


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: algorithms, base generator config, one swept variable."""

    algorithms: tuple[str, ...]
    base: GenConfig
    sweep_var: str = "f0_max"
    sweep_values: tuple[float, ...] = ()
    realizations: int = 100
    out: str | None = None
    seed_base: int = 0
    step_rule: str = "diminish"

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        var = self.sweep_var
        if var not in SWEEP_VARS:
            raise ConfigError(f"sweep variable {var!r} not one of {SWEEP_VARS}")
        values = tuple(self.sweep_values) or (getattr(self.base, var),)
        object.__setattr__(self, "sweep_values", values)
        if not self.algorithms:
            raise ConfigError("no algorithms selected")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise UnknownAlgorithm(f"algorithm {a!r}")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if var == "n" and not all(math.isfinite(v) for v in values):
            raise ConfigError(f"task count must be finite, got {values!r}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        icrbi.check_settings(self.step_rule)


@dataclass(frozen=True)
class RunRecord:
    """One (algorithm, sweep value, realization) outcome."""

    algorithm: str
    sweep_value: float
    realization: int
    seed: int
    total_cost: float
    accomplished: int
    ratio: float
    ue_power_w: float
    overhead: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class MetricRow:
    """Aggregate over all realizations of one (algorithm, sweep value)."""

    algorithm: str
    sweep_value: float
    mean_total_cost: float
    mean_accomplished: float
    accomplished_ratio: float
    mean_ue_power_w: float
    mean_overhead: float
    realizations: int


def apply_sweep(cfg: GenConfig, var: str, value) -> GenConfig:
    if var == "n":
        if value != int(value):
            raise ConfigError(f"task count must be integral, got {value!r}")
        value = int(value)
    return dataclasses.replace(cfg, **{var: value})


def run_algorithm(sc: Scenario, algorithm: str,
                  step_rule: str = "diminish") -> tuple[Assignment, dict]:
    """Dispatch one solver; extras copy the overhead, converged and iterations
    of the record it returns and keep that record as "trace" (None for the
    baseline).  Every solver returns through matching.finish, which prunes,
    costs and validates its result once, so no assignment is checked again
    here; an icrbi run stopped at icrbi.MAX_ITER still yields its repaired
    assignment."""
    if algorithm == "icrbi":
        asg, trace = icrbi.solve(sc, step_rule=step_rule)
    elif algorithm in matching.CRITERIA:
        asg, trace = matching.run(sc, criterion=algorithm)
    elif algorithm == "decentral":
        asg, trace = decentral.run(sc)
    elif algorithm == "noncope":
        return oracle.non_cope(sc), {"overhead": 0, "converged": True,
                                     "iterations": 0, "trace": None}
    else:
        raise UnknownAlgorithm(f"algorithm {algorithm!r}")
    return asg, {"overhead": trace.overhead, "converged": trace.converged,
                 "iterations": trace.iterations, "trace": trace}


def _scenarios(spec: ExperimentSpec):
    """(sweep value, realization, seed, scenario) in solve order: values
    outer, realizations inner.  For a sweep over a draw-free variable each
    realization is drawn once, at the first value, and every value's
    scenario, the first included, is that draw with the value set; each
    later value's config gets generate's check before its first solve."""
    var = spec.sweep_var
    draws: list[Scenario] = []
    for value in spec.sweep_values:
        cfg = apply_sweep(spec.base, var, value)
        if draws:
            check_config(dataclasses.replace(cfg, seed=spec.seed_base))
        for r in range(spec.realizations):
            seed = spec.seed_base + r
            if var not in DRAW_FREE:
                yield value, r, seed, generate(dataclasses.replace(cfg, seed=seed))
                continue
            if r == len(draws):
                draws.append(generate(dataclasses.replace(cfg, seed=seed)))
            yield value, r, seed, _with_value(draws[r], var, value)


def _with_value(draw: Scenario, var: str, value: float) -> Scenario:
    """A new scenario, with its own caches: `draw` with the server's f_max
    (var f0_max) or every task's power_price (var w) set to value."""
    if var == "f0_max":
        server = dataclasses.replace(draw.devices[0], f_max=value)
        return dataclasses.replace(draw, devices=(server, *draw.devices[1:]))
    tasks = tuple(dataclasses.replace(t, power_price=value) for t in draw.tasks)
    return dataclasses.replace(draw, tasks=tasks)


def run_experiment(spec: ExperimentSpec) -> tuple[list[MetricRow], list[RunRecord]]:
    """Execute the full sweep; write CSVs + metadata when spec.out is set
    (the directory is made first, so a bad path fails before any solve)."""
    if spec.out is not None:
        Path(spec.out).mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    for value, r, seed, sc in _scenarios(spec):
        for algo in spec.algorithms:
            asg, extras = run_algorithm(sc, algo, step_rule=spec.step_rule)
            records.append(RunRecord(
                algorithm=algo, sweep_value=float(value), realization=r,
                seed=seed, total_cost=asg.cost.total,
                accomplished=asg.accomplished,
                ratio=asg.accomplished / sc.n,
                ue_power_w=ue_total_power(sc, asg),
                overhead=extras["overhead"], converged=extras["converged"],
                iterations=extras["iterations"]))
    table = aggregate(spec, records)
    if spec.out is not None:
        write_outputs(spec, table, records)
    return table, records


def aggregate(spec: ExperimentSpec, records: list[RunRecord]) -> list[MetricRow]:
    """Means per (algorithm, sweep value), summed in record (= seed) order."""
    table = []
    for algo in spec.algorithms:
        for value in spec.sweep_values:
            grp = [r for r in records
                   if r.algorithm == algo and r.sweep_value == float(value)]
            m = len(grp)
            if m != spec.realizations:
                raise ConfigError(f"{algo} at {value}: {m} records, "
                                  f"expected {spec.realizations}")
            table.append(MetricRow(
                algorithm=algo, sweep_value=float(value),
                mean_total_cost=sum(r.total_cost for r in grp) / m,
                mean_accomplished=sum(r.accomplished for r in grp) / m,
                accomplished_ratio=sum(r.ratio for r in grp) / m,
                mean_ue_power_w=sum(r.ue_power_w for r in grp) / m,
                mean_overhead=sum(r.overhead for r in grp) / m,
                realizations=m))
    return table


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))           # numpy scalars repr as np.float64(...)
    return str(v)


def _write_rows(path: Path, cls, rows, sweep_var: str) -> None:
    """CSV of `rows` in the field order of `cls`, sweep_var after algorithm."""
    names = [f.name for f in dataclasses.fields(cls)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([names[0], "sweep_var", *names[1:]]) + "\n")
        for row in rows:
            cells = [_fmt(getattr(row, name)) for name in names]
            fh.write(",".join([cells[0], sweep_var, *cells[1:]]) + "\n")


def write_outputs(spec: ExperimentSpec, table: list[MetricRow],
                  records: list[RunRecord]) -> dict[str, Path]:
    out = Path(spec.out)
    paths = {"metrics": out / "metrics.csv", "runs": out / "runs.csv",
             "meta": out / "run_meta.txt"}
    _write_rows(paths["metrics"], MetricRow, table, spec.sweep_var)
    _write_rows(paths["runs"], RunRecord, records, spec.sweep_var)
    with open(paths["meta"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"artifact = {ARTIFACT}\n")
        fh.write(f"algorithms = {', '.join(spec.algorithms)}\n")
        fh.write(f"sweep_var = {spec.sweep_var}\n")
        fh.write("sweep_values = " + ", ".join(_fmt(float(v)) for v in spec.sweep_values) + "\n")
        fh.write(f"realizations = {spec.realizations}\n")
        fh.write(f"seed_base = {spec.seed_base}\n")
        fh.write(f"step_rule = {spec.step_rule}\n")
        fh.write(f"x0 = {_fmt(icrbi.STEP_SCALE)}\n")
        fh.write("eps = auto\n")
        fh.write("[base config]\n")
        for f in dataclasses.fields(spec.base):
            fh.write(f"{f.name} = {getattr(spec.base, f.name)!r}\n")
    return paths


def convergence_trace(spec: ExperimentSpec) -> dict[str, Path]:
    """Per-iteration cost series on one scenario (seed = spec.seed_base).

    The iterative solver writes its own trace format; the matching and
    decentralized algorithms emit (step, total_cost) series.  The baseline
    has no iterations and is rejected before anything is solved."""
    if "noncope" in spec.algorithms:
        raise UnknownAlgorithm("the baseline has no iteration trace")
    out = Path(spec.out if spec.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    sc = generate(dataclasses.replace(spec.base, seed=spec.seed_base))
    paths: dict[str, Path] = {}
    for algo in spec.algorithms:
        asg, extras = run_algorithm(sc, algo, step_rule=spec.step_rule)
        trace = extras["trace"]
        if algo == "icrbi":
            path = out / f"icrbi_{spec.step_rule}_{_fmt(icrbi.STEP_SCALE)}.csv"
            trace.to_csv(path)
        else:
            if algo == "decentral":
                with open(out / "decentral_events.txt", "w", encoding="utf-8",
                          newline="\n") as fh:
                    for line in trace.lines():
                        fh.write(line + "\n")
                paths["decentral_events"] = out / "decentral_events.txt"
            path = out / f"{algo}.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("step,total_cost\n")
                for i, c in enumerate(trace.cost_series(sc, asg)):
                    fh.write(f"{i},{c!r}\n")
        paths[algo] = path
    return paths
