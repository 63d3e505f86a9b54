"""Command-line front end.

Subcommands:
  gen           materialise scenario files from a generator config
  run           Monte-Carlo sweep -> metrics.csv / runs.csv / run_meta.txt
  trace         per-iteration cost series of the iterative solvers
  oracle-check  compare every algorithm against the exhaustive optimum
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import harness, oracle, scenario
from .errors import ConfigError, CoopMecError, InstanceTooLarge
from .harness import ALGORITHMS, ExperimentSpec
from .icrbi import STEP_RULES

ORACLE_SLACK = 0.005          # relative margin an algorithm may beat the grid by


def _parse_algos(raw: list[str] | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if not raw:
        return default
    out: list[str] = []
    for chunk in raw:
        out += [a for a in chunk.split(",") if a]
    return tuple(out)


def _parse_sweep(text: str) -> tuple[str, tuple[float, ...]]:
    var, sep, rest = text.partition("=")
    if not sep or not rest:
        raise ConfigError(f"--sweep expects var=v1,v2,... got {text!r}")
    try:
        values = tuple(float(v) for v in rest.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sweep value in {text!r}: {exc}") from None
    return var, values


def _load_config(path: str | None) -> scenario.GenConfig:
    return scenario.read_config(path) if path else scenario.GenConfig()


_OPTIONS = {
    "--config": dict(help="generator config file"),
    "--algo": dict(action="append",
                   help=f"algorithms, comma separated (default varies); "
                        f"known: {','.join(ALGORITHMS)}"),
    "--realizations": dict(type=int, help="scenarios to draw (default varies)"),
    "--seed": dict(type=int, default=0, help="seed base"),
    "--out": dict(default=None, help="output directory"),
    "--step-rule": dict(default="diminish", help=f"icrbi step rule: {' or '.join(STEP_RULES)}"),
    "--sweep": dict(help="var=v1,v2,... (f0_max, n, w, phi0)"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    """Register only the options a subcommand reads, so argparse rejects the rest."""
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    for r in range(args.realizations):
        seed = args.seed + r
        sc = scenario.generate(dataclasses.replace(cfg, seed=seed))
        path = out / f"scenario_{seed}.txt"
        scenario.write_scenario(sc, path)
        print(path)
    return 0


def _build_spec(args, default_algos: tuple[str, ...]) -> ExperimentSpec:
    cfg = _load_config(args.config)
    sweep_var, sweep_values = ("f0_max", ())
    if getattr(args, "sweep", None):
        sweep_var, sweep_values = _parse_sweep(args.sweep)
    return ExperimentSpec(
        algorithms=_parse_algos(args.algo, default_algos), base=cfg,
        sweep_var=sweep_var, sweep_values=sweep_values,
        realizations=args.realizations, out=getattr(args, "out", None),
        seed_base=args.seed, step_rule=args.step_rule)


def cmd_run(args) -> int:
    spec = _build_spec(args, ALGORITHMS)
    table, records = harness.run_experiment(spec)
    print(f"{'algorithm':<10} {'value':>14} {'mean cost':>12} {'ratio':>7} "
          f"{'UE power':>10} {'overhead':>9}")
    for row in table:
        print(f"{row.algorithm:<10} {row.sweep_value:>14.6g} "
              f"{row.mean_total_cost:>12.4f} {row.accomplished_ratio:>7.3f} "
              f"{row.mean_ue_power_w:>10.4f} {row.mean_overhead:>9.1f}")
    if spec.out:
        print(f"wrote {spec.out}/metrics.csv, runs.csv, run_meta.txt "
              f"({len(records)} runs)")
    return 0


def cmd_trace(args) -> int:
    defaults = ("icrbi", "maxtask", "minpw", "decentral")
    spec = _build_spec(args, defaults)
    for name, path in harness.convergence_trace(spec).items():
        print(f"{name}: {path}")
    return 0


def cmd_oracle_check(args) -> int:
    spec = _build_spec(args, ALGORITHMS)
    # 3-task cells unless a config sets the task count, which must then be
    # one the exhaustive search takes
    cfg = spec.base if args.config else dataclasses.replace(spec.base, n=3)
    if cfg.n > oracle.BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(f"n = {cfg.n}: oracle-check's exhaustive search is limited "
                               f"to {oracle.BRUTE_FORCE_LIMIT} tasks")
    worst: dict[str, float] = {a: 0.0 for a in spec.algorithms}
    for r in range(spec.realizations):
        seed = spec.seed_base + r
        sc = scenario.generate(dataclasses.replace(cfg, seed=seed))
        ref = oracle.brute_force(sc).cost.total
        parts = [f"seed={seed} oracle={ref:.6f}"]
        for algo in spec.algorithms:
            asg, _ = harness.run_algorithm(sc, algo, step_rule=spec.step_rule)
            cost = asg.cost.total
            # every cost is >= 0: against a zero optimum only an equal cost has no gap
            gap = (cost - ref) / ref if ref else (0.0 if cost == ref else math.inf)
            worst[algo] = min(worst[algo], gap)
            parts.append(f"{algo}={cost:.6f} ({gap:+.3%})")
        print("  ".join(parts))
    bad = {a: g for a, g in worst.items() if g < -ORACLE_SLACK}
    if bad:
        for a, g in bad.items():
            print(f"FAIL: {a} beat the oracle by {-g:.3%} (> {ORACLE_SLACK:.1%})")
        return 1
    print(f"ok: no algorithm beats the oracle by more than {ORACLE_SLACK:.1%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="coopmec",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write scenario files")
    _add_options(p_gen, "--config", "--realizations", "--seed", "--out")
    p_gen.set_defaults(fn=cmd_gen, realizations=1)

    p_run = sub.add_parser("run", help="Monte-Carlo sweep")
    _add_options(p_run, "--config", "--algo", "--realizations", "--seed", "--out",
                 "--step-rule", "--sweep")
    p_run.set_defaults(fn=cmd_run, realizations=100)

    p_trace = sub.add_parser("trace", help="per-iteration cost series")
    _add_options(p_trace, "--config", "--algo", "--seed", "--out", "--step-rule")
    p_trace.set_defaults(fn=cmd_trace, realizations=1)       # one scenario

    p_oc = sub.add_parser("oracle-check", help="compare against brute force")
    _add_options(p_oc, "--config", "--algo", "--realizations", "--seed", "--step-rule")
    p_oc.set_defaults(fn=cmd_oracle_check, realizations=20)

    args = parser.parse_args(argv)
    try:
        if args.realizations < 1:
            raise ConfigError(f"--realizations must be >= 1, got {args.realizations}")
        return args.fn(args)
    except (CoopMecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
