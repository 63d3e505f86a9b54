"""Byte identity beyond the goldens: scripts/pool_digest.py's four digests
over the first 20 seeds of each pool, against committed values.

The goldens cover a handful of cells; these digests cover every solver's
outcome on 20 seeds of each benchmark pool (capacity, ratio and large) and
the oracle's on its small cells.  A change that claims byte-identical
outputs must leave them as they are; one that moves a solver's outputs on
purpose recomputes them with

    PYTHONPATH=src python scripts/pool_digest.py --seeds 20

once as it is and once with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR", since numpy's AVX-512 (X86_V4) kernels can differ from libm in
the last bit.  The values hold for numpy 2.4.6, the version CI pins.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SEEDS = 20

# X86_V4 dispatch -> pool -> sha256 over the first SEEDS seeds
DIGESTS = {
    "on": {
        "capacity": "c10b12e69f1856975b261b96ebf019e6cce7251ac90c6b1c6e512b0bfb123f75",
        "ratio": "571ba1e9827be44fc342be36ca900020ae5a34b31bf5a17e5e0077a8d8aa0ba2",
        "large": "613bdadc5e8a3d4a4c778f2c8ee9b49e00d26a561aa13bf6a67da76e2380af17",
        "oracle": "f1d7f1bdfd50be7e30c1c91404b5da7cd8ca7de4cead76a1d5884e73cbe2a096",
    },
    "off": {
        "capacity": "32e42142856ee4da9634b9d8e713390afd0c67a617bdd778485b24067c298a4f",
        "ratio": "0326ae6c0705335f8f64b86ac4b3791ce1942d78d757203a70adfa356d696a60",
        "large": "40b1044b6a0143b4937aecef032760e7906415feb14100bc5be981a42cfc3707",
        "oracle": "f1d7f1bdfd50be7e30c1c91404b5da7cd8ca7de4cead76a1d5884e73cbe2a096",
    },
}


def test_pool_digests_match_the_committed_values():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))        # pool_digest imports ab_trees
        import pool_digest as script
    dispatch = "on" if __cpu_features__.get("X86_V4") else "off"
    got, differ = {}, []
    for name, seeds in script.POOLS.items():
        got[name], pool_differ = script.pool_digest(min(seeds, SEEDS), script.CELLS[name])
        differ += pool_differ
    got["oracle"] = script.oracle_digest(SEEDS)
    # every scenario solved again, fresh and in reverse solver order
    assert differ == []
    assert got == DIGESTS[dispatch], f"numpy {np.__version__}, X86_V4 dispatch {dispatch}"

