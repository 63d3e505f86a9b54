#!/usr/bin/env python3
"""One sha256 per benchmark scenario pool over every solver outcome.

For each pool, every scenario is solved by all five algorithms, and each
(scenario, algorithm) outcome is hashed as one line, scripts/ab_trees.py's
outcome_line: the cost breakdown's repr, the target, the frequencies, the
transmit powers and the iteration count, plus icrbi's stop reason and its
per-iteration trace; a solve that raises a CoopMecError hashes its error
instead.  A fourth digest, oracle, hashes oracle.brute_force's outcome
alike on the small cells the benchmark checks the solvers against it on.
A change that claims byte-identical outputs must print the same digests
before and after.

Each pool scenario is also solved again, on a fresh instance and in reverse
algorithm order.  The script exits non-zero if any outcome of that pass
differs from the forward one: what a scenario caches (its arrays, bounds
and matching opening) must carry no state from one solver to the next.

The digests hold only for the CPU dispatch numpy takes: its AVX-512 (X86_V4)
kernels for exp, expm1, log1p and power differ from libm in the last bit on
some inputs, so the first line says whether that dispatch is on.
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" switches it off for
one process.

The pools are the scenarios of solverbench's workloads, built here with
GenConfig from the cell sets of scripts/ab_trees.py:
    capacity  seeds 0-349, server capacity f0_max 5, 6, 7 and 8 GHz (N=10)
    ratio     seeds 0-549, n 10, 20 and 30 on the steep-path-loss cell
    large     seeds 0-139, n 80
    oracle    the default and the steep-path-loss cell: seeds 0-59 at n 3,
              seeds 0-14 at n 4

    PYTHONPATH=src python scripts/pool_digest.py                # all four pools
    PYTHONPATH=src python scripts/pool_digest.py --seeds 2      # a quick slice
"""

import argparse
import hashlib
import math
import sys

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from ab_trees import CELLS, POOLS, STEEP, assignment_line, outcome_line
from coopmec.errors import CoopMecError
from coopmec.harness import ALGORITHMS, run_algorithm
from coopmec.oracle import brute_force
from coopmec.scenario import GenConfig, generate

# the oracle pool: (number of seeds, cells) per task count
ORACLE_POOL = [(60, [dict(n=3), dict(n=3, **STEEP)]), (15, [dict(n=4), dict(n=4, **STEEP)])]
DISPATCH = "on" if __cpu_features__.get("X86_V4") else "off"


def outcome(sc, algo: str) -> str:
    """One solve's outcome as a line of text."""
    try:
        asg, extras = run_algorithm(sc, algo)
    except CoopMecError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return outcome_line(algo, asg, extras)


def pool_digest(seeds: int, cells: list[dict]) -> tuple[str, list[str]]:
    """The pool's digest over the forward pass, and the (cell, seed, algo)
    outcomes that the reverse pass on a fresh instance reads differently."""
    h = hashlib.sha256()
    differ = []
    for cell in cells:
        for seed in range(seeds):
            cfg = GenConfig(seed=seed, **cell)
            sc, fresh = generate(cfg), generate(cfg)
            forward = {algo: outcome(sc, algo) for algo in ALGORITHMS}
            backward = {algo: outcome(fresh, algo) for algo in reversed(ALGORITHMS)}
            for algo in ALGORITHMS:
                h.update(f"{cell},{seed},{algo},{forward[algo]}\n".encode())
                if backward[algo] != forward[algo]:
                    differ.append(f"{cell},{seed},{algo}")
    return h.hexdigest(), differ


def oracle_digest(limit: float) -> str:
    h = hashlib.sha256()
    for seeds, cells in ORACLE_POOL:
        for cell in cells:
            for seed in range(min(seeds, limit)):
                sc = generate(GenConfig(seed=seed, **cell))
                try:
                    line = assignment_line(brute_force(sc))
                except CoopMecError as exc:
                    line = f"error {type(exc).__name__}: {exc}"
                h.update(f"{cell},{seed},{line}\n".encode())
    return h.hexdigest()


def digests(limit: float) -> tuple[dict[str, str], list[str]]:
    """pool -> digest over the first `limit` seeds of each pool, the oracle
    pool's last, and the outcomes that a pool's reverse pass reads
    differently."""
    got, differ = {}, []
    for name, seeds in POOLS.items():
        got[name], pool_differ = pool_digest(min(seeds, limit), CELLS[name])
        differ += pool_differ
    got["oracle"] = oracle_digest(limit)
    return got, differ


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=None,
                    help="digest only the first SEEDS seeds of each pool")
    args = ap.parse_args()
    print(f"numpy {np.__version__}, X86_V4 dispatch {DISPATCH}", flush=True)
    limit = math.inf if args.seeds is None else args.seeds
    got, differ = digests(limit)
    for name, seeds in POOLS.items():
        print(f"{name} seeds 0-{min(seeds, limit) - 1} sha256:{got[name]}")
    seeds = "/".join(f"0-{min(s, limit) - 1}" for s, _ in ORACLE_POOL)
    print(f"oracle seeds {seeds} sha256:{got['oracle']}")
    if differ:
        sys.exit(f"{len(differ)} outcomes differ in reverse solver order, first: {differ[0]}")


if __name__ == "__main__":
    main()
