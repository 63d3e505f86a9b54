"""The benchmark's three workloads.

A workload is a fixed round of work made from a seed base: running it
twice does the same solves on the same scenarios and must print the same
digest.  Each workload has a fixed pool of ``pool_blocks`` blocks; block b
is a round with the seed base ``pool_base + b * block_size``.  A run with
``--seed S`` runs blocks S, S+1, ... (mod ``pool_blocks``), each once, for
as long as its time allows, at least ``core_blocks`` of them.  The pools are
sized so that a run of the default length (40 s) covers the whole pool on a
2-core machine, so runs with any two seeds time the same scenarios: icrbi's cost per solve is
heavy-tailed (a few instances run 2000 iterations), and two disjoint sets
of a few hundred scenarios differ by 20 % in icrbi time.  All calls go through
the public ``coopmec`` API (``cli.main``, ``harness.run_experiment``,
``harness.run_algorithm``, ``scenario.generate``), looked up on the modules
at call time so the benchmark's hooks see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import checker

ALGORITHMS = ("icrbi", "maxtask", "minpw", "decentral", "noncope")

# hooks that never fire when the program does not write CSV / run a sweep
_SWEEP_ONLY = frozenset({"harness.run_experiment", "harness.aggregate",
                         "harness.write_outputs"})


class CapacitySweep:
    """The README command ``coopmec run --sweep f0_max=5e9,6e9,7e9,8e9
    --realizations R --seed BASE --out D``, run in-process through
    ``cli.main``: all five solvers on the default N=10 cell."""

    name = "capacity-sweep"
    why = ("README capacity sweep via cli.main: thousands of small N=10 solves, "
           "icrbi iteration tail and per-call overhead dominate")
    realizations = 25
    block_size = realizations
    pool_blocks = 14
    core_blocks = 8
    warmup_cell = {}
    oracle_cell = {}
    silent_hooks = frozenset()

    def run_round(self, mods, base: int, out: Path) -> None:
        argv = ["run", "--sweep", "f0_max=5e9,6e9,7e9,8e9",
                "--realizations", str(self.realizations), "--seed", str(base),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = mods.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"coopmec {' '.join(argv)} exited with {code}")

    def digest(self, out: Path, solves) -> str:
        return hashlib.sha256((out / "runs.csv").read_bytes()).hexdigest()

    def check_outputs(self, out: Path, solves) -> list:
        return checker.check_sweep_csv(out / "runs.csv", out / "metrics.csv", solves)


class RatioSweep(CapacitySweep):
    """``scripts/ratio_vs_tasks.py``: ``harness.run_experiment`` on the
    steep-path-loss cell (exponent 4.5, reference gain 1e-2), sweeping n over
    10, 20, 30.  The script has no seed option, so its spec is rebuilt here
    with the seed base added."""

    name = "ratio-sweep"
    why = ("README ratio-vs-N experiment on the steep-path-loss cell: n varies "
           "10..30 within a run, icrbi settles fast, matching carries more")
    realizations = 25
    block_size = realizations
    pool_blocks = 22
    core_blocks = 8
    warmup_cell = {"pathloss_exponent": 4.5, "pathloss_ref_gain": 1e-2}
    oracle_cell = warmup_cell
    silent_hooks = frozenset({"cli.main"})

    def run_round(self, mods, base: int, out: Path) -> None:
        spec = mods.harness.ExperimentSpec(
            algorithms=ALGORITHMS, base=mods.scenario.GenConfig(**self.warmup_cell),
            sweep_var="n", sweep_values=(10, 20, 30),
            realizations=self.realizations, out=str(out), seed_base=base)
        mods.harness.run_experiment(spec)


class LargeCell:
    """Single solves through ``harness.run_algorithm`` on the default
    generator at N=80: scenario k of a round uses seed base + k.  A round
    is 10 scenarios (about 2.5 s); a run covers at least 100 scenarios."""

    name = "large-cell"
    why = ("N=80 default cell via run_algorithm: matching preference rebuilds "
           "and the icrbi array kernel dominate, per-call overhead does not")
    scenarios = 10
    block_size = scenarios
    pool_blocks = 14
    core_blocks = 10
    n = 80
    warmup_cell = {"n": 80}
    oracle_cell = {}
    silent_hooks = _SWEEP_ONLY | {"cli.main"}

    def run_round(self, mods, base: int, out: Path) -> None:
        for k in range(self.scenarios):
            sc = mods.scenario.generate(mods.scenario.GenConfig(n=self.n, seed=base + k))
            for algo in ALGORITHMS:
                try:
                    mods.harness.run_algorithm(sc, algo)
                except mods.errors.CoopMecError:
                    pass            # counted as failed by the recorder

    def digest(self, out: Path, solves) -> str:
        h = hashlib.sha256()
        for s in solves:
            asg = s.assignment
            line = (f"{s.seed},{s.algorithm},"
                    + ("error" if asg is None else
                       f"{asg.cost.total!r},{sorted(asg.target.items())}"))
            h.update(line.encode() + b"\n")
        return h.hexdigest()

    def check_outputs(self, out: Path, solves) -> list:
        return []


WORKLOADS = {w.name: w for w in (CapacitySweep(), LargeCell(), RatioSweep())}
