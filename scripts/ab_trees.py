#!/usr/bin/env python3
"""In-process A/B of two coopmec source trees: solve latency per solver.

Both trees are loaded into one process, each under its own package name, so
they share the heap, the interpreter and the machine's state at every
moment; two benchmark processes run one after the other do not.  Each round
draws fresh scenarios of one cell set and times every solver on each of them
(harness.run_algorithm, after generate), once per tree, with the two trees
in shuffled order.  For each solver the script prints the median over rounds
of the B/A ratio of the round's p50 and p90 solve time, with its quartiles
and the number of rounds in which B was faster.  It exits 1 if any solve
outcome (cost, map, frequencies, powers, iterations or error) differs
between the trees; for icrbi that includes its stop reason and its
per-iteration trace.  On the capacity cells each round also times
harness.run_experiment of the README capacity sweep (all five solvers,
f0_max 5, 6, 7 and 8 GHz, one realization per scenario of the round, seeded
from the round's first seed) in both trees, and prints a `sweep` row of its
wall-time B/A ratios; the script exits 1 if the two trees' run records
differ.  Unlike the solver rows, that row sees the sweep's own work, such as
drawing the scenarios.  Given the same tree twice it is an A/A run: the noise
floor a B/A ratio must be read against.

With --costs it times nothing and compares what the solvers return
instead, for a change that means to move outputs.  Both trees solve every
scenario of the benchmark pools (POOLS, the pools of scripts/pool_digest.py)
with all five solvers, and for each pool and solver the script prints the
mean of B - A over the pool's runs with its standard error, the runs B
lowers, raises and ties (a tie differs by at most TIE_RTOL relative), the
runs whose decision map differs, the runs whose iteration count (or, for
icrbi, stop reason) differs, the largest rise with its cell and seed, and
the change in accomplished tasks summed over the pool.  A change that
means to move only a cost's last bits reads 0 in both of those counts.
--out FILE writes each run that is not tied, or whose accomplished count,
decision map, iterations, stop reason or error differs, as a CSV row, with
0/1 columns for a differing map and differing steps.  The report exits 0;
with --max-rise X it exits 1 when a cost rises by more than X, or when a
solve raises in one tree only.  An A/A run ties every run and differs in
no map and no step count.

    python scripts/ab_trees.py A_SRC B_SRC [--cells large] [--rounds 20] [--scenarios 20]
    python scripts/ab_trees.py src src --rounds 2          # A/A on this tree
    python scripts/ab_trees.py A_SRC B_SRC --costs [--out FILE] [--max-rise X]

A_SRC and B_SRC are the directories that hold a tree's coopmec package (a
checkout's src/).  Cell sets, which scripts/pool_digest.py imports from here
with POOLS, outcome_line and assignment_line:
    capacity  N=10, server capacity f0_max 5, 6, 7 or 8 GHz
    ratio     n 10, 20 or 30 on the steep-path-loss cell
    large     n 80
    coop      n 10 or 40 on the cooperation-rich cell F (configs/cell_f.cfg)
The first three are solverbench's workloads; coop is not yet one.
"""

import argparse
import csv
import importlib.util
import math
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter


def read_cell(path: Path) -> dict:
    """The GenConfig fields a `key = value` config file sets, a value with a
    comma as a pair of floats, as coopmec's read_config parses them.  A
    tree's package is loaded only once the command line names it, so the
    cells are read here."""
    cell = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, raw = line.split("=", 1)
            cell[key.strip()] = tuple(map(float, raw.split(","))) if "," in raw else float(raw)
    return cell


STEEP = dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2)
CELL_F = read_cell(Path(__file__).resolve().parents[1] / "configs" / "cell_f.cfg")
CELLS = {
    "capacity": [dict(f0_max=f) for f in (5e9, 6e9, 7e9, 8e9)],
    "ratio": [dict(n=n, **STEEP) for n in (10, 20, 30)],
    "large": [dict(n=80)],
    "coop": [dict(CELL_F, n=n) for n in (10, 40)],
}
# pool name -> (number of seeds, cell) for each cell of the same name: the
# scenarios of solverbench's workloads, and cell F's
POOLS = {name: list(zip(seeds, CELLS[name])) for name, seeds in (
    ("capacity", [350] * 4), ("ratio", [550] * 3), ("large", [140]), ("coop", [100, 20]))}
TIE_RTOL = 1e-9         # --costs: two costs this close, relative, are tied


def load_tree(src: str, name: str):
    """Import src/coopmec as the package `name`.  The package is registered
    in sys.modules before its body runs, as the import system does for its
    submodules: dataclasses look their module up there."""
    init = Path(src).resolve() / "coopmec" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("errors", "harness", "scenario")}


def assignment_line(asg) -> str:
    """An assignment's cost breakdown, map, frequencies and powers as text."""
    return (f"{asg.cost!r};{sorted(asg.target.items())};{list(asg.f.items())};"
            f"{list(asg.p_t.items())}")


def outcome_line(algo: str, asg, extras: dict) -> str:
    """A solve's outcome as text: its assignment_line and iteration count,
    and for icrbi its stop reason and per-iteration trace."""
    line = f"{assignment_line(asg)};{extras['iterations']}"
    if algo == "icrbi":
        trace = extras["trace"]
        line += (f";{trace.termination};{trace.reduced_cost};{trace.num_assigned};"
                 f"{trace.mu_norm};{trace.v_norm}")
    return line


def outcome(tree, sc, algo: str) -> tuple[float, str]:
    """(seconds, outcome line) of one solve."""
    t0 = perf_counter()
    try:
        asg, extras = tree["harness"].run_algorithm(sc, algo)
    except tree["errors"].CoopMecError as exc:
        return perf_counter() - t0, f"error {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return seconds, outcome_line(algo, asg, extras)


def one_round(tree, configs: list[dict]) -> tuple[dict[str, list[float]], list[str]]:
    """Solve times per algorithm and the outcome lines of one tree's round."""
    gen = tree["scenario"]
    algorithms = tree["harness"].ALGORITHMS
    times = {algo: [] for algo in algorithms}
    lines = []
    for cfg in configs:
        sc = gen.generate(gen.GenConfig(**cfg))
        for algo in algorithms:
            seconds, line = outcome(tree, sc, algo)
            times[algo].append(seconds)
            lines.append(f"{cfg},{algo},{line}")
    return times, lines


def sweep_round(tree, seed_base: int, realizations: int) -> tuple[float, list[str]]:
    """(seconds, run records as text) of the README capacity sweep."""
    harness = tree["harness"]
    spec = harness.ExperimentSpec(
        algorithms=harness.ALGORITHMS, base=tree["scenario"].GenConfig(),
        sweep_values=tuple(cell["f0_max"] for cell in CELLS["capacity"]),
        realizations=realizations, seed_base=seed_base)
    t0 = perf_counter()
    _, records = harness.run_experiment(spec)
    return perf_counter() - t0, [repr(r) for r in records]


def p90(values: list[float]) -> float:
    """The 90th percentile as solverbench/run.py takes it."""
    return statistics.quantiles(values, n=10)[8]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def cell_label(cell: dict) -> str:
    """A cell's fields as text, a pair of values as `lo,hi`."""
    return " ".join(f"{k}=" + ",".join(f"{x:g}" for x in (v if isinstance(v, tuple) else (v,)))
                    for k, v in cell.items())


def pool_costs(tree, pool: str) -> dict[tuple, tuple | str]:
    """(cell, seed, algorithm) -> (total cost, accomplished tasks, decision
    map, (iterations, icrbi stop reason)), or the error line, of every solve
    of one pool, the solvers in benchmark order."""
    gen, harness = tree["scenario"], tree["harness"]
    costs = {}
    for seeds, cell in POOLS[pool]:
        for seed in range(seeds):
            sc = gen.generate(gen.GenConfig(seed=seed, **cell))
            for algo in harness.ALGORITHMS:
                try:
                    asg, extras = harness.run_algorithm(sc, algo)
                except tree["errors"].CoopMecError as exc:
                    costs[cell_label(cell), seed, algo] = f"error {type(exc).__name__}: {exc}"
                else:
                    stop = extras["trace"].termination if algo == "icrbi" else ""
                    costs[cell_label(cell), seed, algo] = (
                        asg.cost.total, asg.accomplished, sorted(asg.target.items()),
                        (extras["iterations"], stop))
    return costs


def csv_fields(outcome: tuple | str) -> tuple:
    """(cost, tasks) of a pool_costs outcome; (error line, "") for an error."""
    return outcome[:2] if isinstance(outcome, tuple) else (outcome, "")


def cost_report(trees, out: str | None, max_rise: float | None) -> int:
    """Print the --costs report of every pool; the exit status."""
    algorithms = trees["A"]["harness"].ALGORITHMS
    rows, worst, one_sided, moved_maps, moved_steps = [], -math.inf, 0, 0, 0
    print("pool      solver      B - A mean ± se       lowered  raised    tied   maps  steps"
          "  tasks B - A  largest rise")
    for pool in POOLS:
        a_costs, b_costs = (pool_costs(trees[side], pool) for side in "AB")
        for algo in algorithms:
            diffs, tasks, counts, rise = [], 0, [0, 0, 0, 0, 0], None
            for key, a in a_costs.items():
                if key[2] != algo:
                    continue
                b = b_costs[key]
                if isinstance(a, str) or isinstance(b, str):
                    if a != b:
                        one_sided += isinstance(a, str) != isinstance(b, str)
                        rows.append((pool, *key, *csv_fields(a), *csv_fields(b), "", ""))
                    continue
                d = b[0] - a[0]
                tasks += b[1] - a[1]
                diffs.append(d)
                tied = abs(d) <= TIE_RTOL * max(abs(a[0]), abs(b[0]))
                counts[2 if tied else 0 if d < 0 else 1] += 1
                moved = a[2] != b[2], a[3] != b[3]      # decision map, steps
                counts[3] += moved[0]
                counts[4] += moved[1]
                if not tied or a[1] != b[1] or any(moved):
                    rows.append((pool, *key, *a[:2], *b[:2], *map(int, moved)))
                if d > 0 and (rise is None or d > rise[0]):
                    rise = d, key
                worst = max(worst, d)
            mean = statistics.fmean(diffs) if diffs else math.nan
            se = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else math.nan
            top = "none" if rise is None else f"{rise[0]:+.4g} at seed {rise[1][1]}, {rise[1][0]}"
            print(f"{pool:<9} {algo:<10} {mean:+10.4f} ± {se:<9.4f} {counts[0]:7d} "
                  f"{counts[1]:7d} {counts[2]:7d} {counts[3]:6d} {counts[4]:6d} "
                  f"{tasks:+12d}  {top}")
            moved_maps += counts[3]
            moved_steps += counts[4]
    print(f"{len(rows)} runs differ between the trees, {one_sided} raise in one tree only, "
          f"{moved_maps} differ in their decision map, {moved_steps} in their iterations "
          "or stop reason")
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pool", "cell", "seed", "algorithm", "cost_a", "tasks_a",
                             "cost_b", "tasks_b", "map_differs", "steps_differs"])
            writer.writerows(rows)
    if max_rise is not None and (worst > max_rise or one_sided):
        print(f"a cost rises by more than {max_rise}, or a solve raises in one tree only")
        return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a_src")
    ap.add_argument("b_src")
    ap.add_argument("--cells", choices=sorted(CELLS), default="capacity")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--scenarios", type=int, default=20, help="scenarios per round")
    ap.add_argument("--seed", type=int, default=1000,
                    help="first scenario seed; also seeds the tree order")
    ap.add_argument("--costs", action="store_true",
                    help="compare the costs of every pool run instead of timing")
    ap.add_argument("--out", help="--costs: write each differing run to this CSV file")
    ap.add_argument("--max-rise", type=float, default=None,
                    help="--costs: exit 1 when a cost rises by more than this")
    args = ap.parse_args()
    if args.rounds < 1 or args.scenarios < 2:
        ap.error("need at least one round of at least two scenarios")
    if not args.costs and (args.out or args.max_rise is not None):
        ap.error("--out and --max-rise need --costs")
    trees = {"A": load_tree(args.a_src, "coopmec_ab_a"), "B": load_tree(args.b_src, "coopmec_ab_b")}
    if args.costs:
        return cost_report(trees, args.out, args.max_rise)
    algorithms = trees["A"]["harness"].ALGORITHMS
    order = random.Random(args.seed)
    cells = CELLS[args.cells]
    ratios = {(algo, q): [] for algo in algorithms for q in ("p50", "p90")}
    for tree in trees.values():     # untimed: the first solves pay the lazy set-up
        one_round(tree, [dict(cell, seed=args.seed - 1) for cell in cells])
    sweep = args.cells == "capacity"
    sweep_ratios = []
    differ = sweep_differ = 0
    for r in range(args.rounds):
        base = args.seed + r * args.scenarios
        configs = [dict(cells[j % len(cells)], seed=base + j) for j in range(args.scenarios)]
        sides = list(trees)
        order.shuffle(sides)
        result = {side: one_round(trees[side], configs) for side in sides}
        differ += sum(a != b for a, b in zip(result["A"][1], result["B"][1]))
        if sweep:
            timed = {side: sweep_round(trees[side], base, args.scenarios) for side in sides}
            sweep_ratios.append(timed["B"][0] / timed["A"][0])
            sweep_differ += sum(a != b for a, b in zip(timed["A"][1], timed["B"][1]))
        for algo in algorithms:
            a, b = (result[side][0][algo] for side in "AB")
            ratios[algo, "p50"].append(statistics.median(b) / statistics.median(a))
            ratios[algo, "p90"].append(p90(b) / p90(a))
    print(f"{args.cells} cells, {args.rounds} rounds of {args.scenarios} scenarios, "
          f"A {args.a_src}, B {args.b_src}: B/A - 1, median [q1, q3], rounds B faster")
    for algo in algorithms:
        cols = []
        for q in ("p50", "p90"):
            values = ratios[algo, q]
            q1, q2, q3 = quartiles(values)
            won = sum(v < 1.0 for v in values)
            cols.append(f"{q} {q2 - 1:+7.1%} [{q1 - 1:+.1%}, {q3 - 1:+.1%}] {won}/{len(values)}")
        print(f"{algo:>10}  " + "   ".join(cols))
    if sweep:
        q1, q2, q3 = quartiles(sweep_ratios)
        won = sum(v < 1.0 for v in sweep_ratios)
        print(f"{'sweep':>10}  wall {q2 - 1:+7.1%} [{q1 - 1:+.1%}, {q3 - 1:+.1%}] "
              f"{won}/{len(sweep_ratios)}")
    if differ or sweep_differ:
        print(f"{differ} solve outcomes and {sweep_differ} sweep run records differ "
              "between the trees")
        return 1
    print("every solve outcome is the same in both trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
