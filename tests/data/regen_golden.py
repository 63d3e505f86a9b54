"""Rewrite the golden files from the current code.

    PYTHONPATH=src python tests/data/regen_golden.py

Runs the commands that `tests/test_golden_csv.py` and
`tests/test_golden.py` run, and copies their output over `golden_csv/`
(runs.csv, metrics.csv and run_meta.txt of `coopmec run --sweep
f0_max=5e9,8e9 --realizations 4`), `golden_csv_w/` (the same files of
`coopmec run --sweep w=0.5,1,2 --realizations 3`) and `golden_trace/` (the
files of `coopmec trace` for each case of `test_golden.TRACE_CASES`).  Only a change
that means to alter the numerics should do this; check with `git diff
--stat tests/data` that the diff touches only the rows and files it should.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import GOLDEN_TRACE, TRACE_CASES, trace_argv  # noqa: E402
from test_golden_csv import FILES, GOLDEN, GOLDEN_W, RUN_ARGV, RUN_W_ARGV  # noqa: E402

from coopmec.cli import main  # noqa: E402


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for argv, golden, run in ((RUN_ARGV, GOLDEN, "run"), (RUN_W_ARGV, GOLDEN_W, "run_w")):
            out = scratch / run
            if main(argv + ["--out", str(out)]) != 0:
                raise SystemExit(f"coopmec {' '.join(argv)} failed")
            for name in FILES:
                shutil.copyfile(out / name, golden / name)
        for case, config, args in TRACE_CASES:
            case_dir = scratch / (case or "default")
            case_dir.mkdir()
            if main(trace_argv(config, args, case_dir)) != 0:
                raise SystemExit(f"coopmec trace failed for case {case!r}")
            golden = GOLDEN_TRACE / case
            for path in sorted((case_dir / "trace").iterdir()):
                shutil.copyfile(path, golden / path.name)


if __name__ == "__main__":
    regenerate()
