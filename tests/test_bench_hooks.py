"""The benchmark's layer hooks resolve on the package.

`solverbench/tracer.py` wraps the functions named in its `HOOKS` table from
outside the package.  A refactor that renames one of them, such as icrbi's
`_Kernel.primal` or `_Kernel.dual_step`, solves as before but leaves that
layer untimed, and only a later benchmark run would report the hook as
missing.  The tracer is loaded here by path, unedited, so such a rename
fails the test suite instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from conftest import gen
# every module a hook names must be loaded before the hooks resolve
from coopmec import cli, decentral, harness, icrbi, matching, model, oracle, scenario  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "solverbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("solverbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod            # dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_benchmark_hook_resolves(tmp_path):
    tracer = load_tracer()
    tr = tracer.Tracer(tmp_path / "spans.csv.gz")
    try:
        # the benchmark reports len(tr.missing) as trace.hooks_missing
        assert tr.missing == []
        tr.install(1)
        try:
            icrbi.solve(gen(n=10, seed=0))
        finally:
            tr.uninstall()
    finally:
        tr.close()
    for name in ("icrbi.solve", "icrbi.primal", "icrbi.dual_step",
                 "icrbi.repair_feasibility", "model.feasibility_bounds"):
        assert tr.stats[name][0] > 0, name
