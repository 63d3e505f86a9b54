#!/usr/bin/env python3
"""Per-iteration behaviour of the iterative resource-bidding solver.

Solves one seeded scenario under both step-size rules and prints the reduced
cost every few iterations, then writes the full per-iteration traces (and
the matching / distributed cost series) as CSV via the experiment harness.
"""

import argparse

from coopmec import icrbi
from coopmec.harness import ExperimentSpec, convergence_trace
from coopmec.scenario import GenConfig, generate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/trace")
    args = ap.parse_args()

    sc = generate(GenConfig(n=args.n, seed=args.seed))
    for rule in ("diminish", "square"):
        asg, trace = icrbi.solve(sc, step_rule=rule)
        print(f"step rule {rule}  iterations={trace.iterations} "
              f"({trace.termination})  "
              f"final reduced cost={trace.reduced_cost[-1]:.6f}  "
              f"assigned={asg.accomplished}/{sc.n}")
        for t in range(0, trace.iterations, max(1, trace.iterations // 8)):
            print(f"  iter {t:>4}  reduced={trace.reduced_cost[t]:.6f}  "
                  f"assigned={trace.num_assigned[t]}")

    spec = ExperimentSpec(algorithms=("icrbi", "maxtask", "minpw", "decentral"),
                          base=GenConfig(n=args.n), realizations=1,
                          seed_base=args.seed, out=args.out)
    print()
    for name, path in convergence_trace(spec).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
