"""Rewrite the golden files from the current code, and print the pool
digests that tests/test_pool_digest.py compares with.

    PYTHONPATH=src python tests/data/regen_golden.py

Runs the commands that `tests/test_golden_csv.py` and
`tests/test_golden.py` run, and copies their output over `golden_csv/`
(runs.csv, metrics.csv and run_meta.txt of `coopmec run --sweep
f0_max=5e9,8e9 --realizations 4`), `golden_csv_w/` (the same files of
`coopmec run --sweep w=0.5,1,2 --realizations 3`) and `golden_trace/` (the
files of `coopmec trace` for each case of `test_golden.TRACE_CASES`).  Only a change
that means to alter the numerics should do this; check with `git diff
--stat tests/data` that the diff touches only the rows and files it should.

It then prints `test_pool_digest.DIGESTS` as the code now computes it:
scripts/pool_digest.py's digests over the first `test_pool_digest.SEEDS`
seeds of each pool, once in this process and once in a subprocess with
numpy's AVX-512 (X86_V4) dispatch off (NPY_DISABLE_CPU_FEATURES), since
those kernels can differ from libm in the last bit.  On a CPU without
AVX-512 both lines are the "off" path.  It exits non-zero if an outcome of
a pool's reverse pass differs from the forward one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "scripts"))

from test_golden import GOLDEN_TRACE, TRACE_CASES, trace_argv  # noqa: E402
from test_golden_csv import FILES, GOLDEN, GOLDEN_W, RUN_ARGV, RUN_W_ARGV  # noqa: E402
from test_pool_digest import SEEDS  # noqa: E402

from coopmec.cli import main  # noqa: E402

NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


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


def digests() -> tuple[str, dict[str, str]]:
    """(X86_V4 dispatch, pool -> digest over the first SEEDS seeds), as
    tests/test_pool_digest.py computes them."""
    import pool_digest

    got, differ = pool_digest.digests(SEEDS)
    if differ:
        raise SystemExit(f"{len(differ)} outcomes differ in reverse solver order, "
                         f"first: {differ[0]}")
    return pool_digest.DISPATCH, got


def print_digests() -> None:
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    off = subprocess.run([sys.executable, __file__, "--digests"], env=env, check=True,
                         capture_output=True, text=True).stdout
    print("DIGESTS = {")
    for dispatch, got in (digests(), json.loads(off)):
        print(f'    "{dispatch}": {{')
        for name, digest in got.items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        print(json.dumps(digests()))
    else:
        regenerate()
        print_digests()
