"""Golden run records: refactors that leave the numerics alone must
reproduce them.

`data/golden_csv/runs.csv` is the runs.csv of

    coopmec run --sweep f0_max=5e9,8e9 --realizations 4

(all five algorithms, n = 10, seeds 0-3).  Integer columns must match
exactly, float columns to 1e-12 relative.

`data/golden_trace/` holds the files of `coopmec trace` on the default cell
(seed 0), its subdirectory `n12_f0max8e9_seed3/` those of the same command
with `--seed 3` and a config setting `n = 12`, `f0_max = 8e9`, and
`n40_seed88/` those with `--seed 88` and `n = 40`, whose decentralized run
evicts a held offer (the other two cases evict none).  They must match byte
for byte: they carry the per-commit cost series of matching and decentral,
which runs.csv does not.

`data/regen_golden.py` reruns these commands and rewrites both directories.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import pytest

from coopmec.cli import main
from coopmec.harness import ALGORITHMS, ExperimentSpec, run_experiment
from coopmec.scenario import GenConfig

GOLDEN = Path(__file__).parent / "data" / "golden_csv" / "runs.csv"
GOLDEN_TRACE = Path(__file__).parent / "data" / "golden_trace"
INT_COLUMNS = ("realization", "seed", "accomplished", "overhead", "converged",
               "iterations")
FLOAT_COLUMNS = ("sweep_value", "total_cost", "ratio", "ue_power_w")


def golden_rows(algorithm: str) -> list[dict]:
    with open(GOLDEN, newline="") as fh:
        return [row for row in csv.DictReader(fh) if row["algorithm"] == algorithm]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runs_match_golden_records(algorithm):
    want = golden_rows(algorithm)
    assert len(want) == 8
    spec = ExperimentSpec(algorithms=(algorithm,), base=GenConfig(n=10),
                          sweep_values=(5e9, 8e9), realizations=4)
    _, records = run_experiment(spec)
    assert len(records) == len(want)
    for rec, row in zip(records, want):
        for col in INT_COLUMNS:
            assert int(getattr(rec, col)) == int(row[col]), (col, row)
        for col in FLOAT_COLUMNS:
            assert math.isclose(getattr(rec, col), float(row[col]),
                                rel_tol=1e-12, abs_tol=0.0), (col, row)


# (subdirectory of GOLDEN_TRACE, config file text or None, extra arguments)
TRACE_CASES = [
    ("", None, []),
    ("n12_f0max8e9_seed3", "n = 12\nf0_max = 8e9\n", ["--seed", "3"]),
    ("n40_seed88", "n = 40\n", ["--seed", "88"]),
]


def trace_argv(config, args, scratch: Path) -> list[str]:
    """`coopmec trace` arguments of one case: its config is written to
    scratch, and the trace files go to scratch / "trace"."""
    if config is not None:
        (scratch / "cell.cfg").write_text(config)
        args = args + ["--config", str(scratch / "cell.cfg")]
    return ["trace", "--out", str(scratch / "trace")] + args


@pytest.mark.parametrize("case, config, args", TRACE_CASES,
                         ids=["default", "n12_f0max8e9_seed3", "n40_seed88"])
def test_trace_files_match_golden_bytes(tmp_path, case, config, args):
    golden = GOLDEN_TRACE / case
    out = tmp_path / "trace"
    assert main(trace_argv(config, args, tmp_path)) == 0
    want = sorted(p.name for p in golden.iterdir() if p.is_file())
    if case == "n40_seed88":
        assert (golden / "decentral_events.txt").read_text().count(" evict\n") == 1
    assert sorted(p.name for p in out.iterdir()) == want
    for name in want:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
