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
per-iteration trace.  Given the same tree twice it is an A/A run: the noise
floor a B/A ratio must be read against.

    python scripts/ab_trees.py A_SRC B_SRC [--cells large] [--rounds 20] [--scenarios 20]
    python scripts/ab_trees.py src src --rounds 2          # A/A on this tree

A_SRC and B_SRC are the directories that hold a tree's coopmec package (a
checkout's src/).  Cell sets, which scripts/pool_digest.py imports from here
with outcome_line and assignment_line:
    capacity  N=10, server capacity f0_max 5, 6, 7 or 8 GHz
    ratio     n 10, 20 or 30 on the steep-path-loss cell
    large     n 80
"""

import argparse
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

STEEP = dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2)
CELLS = {
    "capacity": [dict(f0_max=f) for f in (5e9, 6e9, 7e9, 8e9)],
    "ratio": [dict(n=n, **STEEP) for n in (10, 20, 30)],
    "large": [dict(n=80)],
}


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


def p90(values: list[float]) -> float:
    """The 90th percentile as solverbench/run.py takes it."""
    return statistics.quantiles(values, n=10)[8]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


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
    args = ap.parse_args()
    if args.rounds < 1 or args.scenarios < 2:
        ap.error("need at least one round of at least two scenarios")
    trees = {"A": load_tree(args.a_src, "coopmec_ab_a"), "B": load_tree(args.b_src, "coopmec_ab_b")}
    algorithms = trees["A"]["harness"].ALGORITHMS
    order = random.Random(args.seed)
    cells = CELLS[args.cells]
    ratios = {(algo, q): [] for algo in algorithms for q in ("p50", "p90")}
    for tree in trees.values():     # untimed: the first solves pay the lazy set-up
        one_round(tree, [dict(cell, seed=args.seed - 1) for cell in cells])
    differ = 0
    for r in range(args.rounds):
        base = args.seed + r * args.scenarios
        configs = [dict(cells[j % len(cells)], seed=base + j) for j in range(args.scenarios)]
        sides = list(trees)
        order.shuffle(sides)
        result = {side: one_round(trees[side], configs) for side in sides}
        differ += sum(a != b for a, b in zip(result["A"][1], result["B"][1]))
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
    if differ:
        print(f"{differ} solve outcomes differ between the trees")
        return 1
    print("every solve outcome is the same in both trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
