"""Byte identity beyond the goldens: scripts/pool_digest.py's four digests
over the first 20 seeds of each pool, against committed values.

The goldens cover a handful of cells; these digests cover every solver's
outcome on 20 seeds of each benchmark pool (capacity, ratio and large) and
the oracle's on its small cells.  A change that claims byte-identical
outputs must leave them as they are; one that moves a solver's outputs on
purpose regenerates the goldens and prints these values for both CPU
dispatch paths with

    PYTHONPATH=src python tests/data/regen_golden.py

which computes them once as it is and once with NPY_DISABLE_CPU_FEATURES=
"X86_V4 AVX512_ICL AVX512_SPR", since numpy's AVX-512 (X86_V4) kernels can
differ from libm in the last bit.  The values hold for numpy 2.4.6, the
version CI pins.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SEEDS = 20

# X86_V4 dispatch -> pool -> sha256 over the first SEEDS seeds
DIGESTS = {
    "on": {
        "capacity": "ae73ee46df47f14ad5988fb3008ed67ad63fe90064bf5bb714c135b75bf6d720",
        "ratio": "413acd9d39e6bb7920745ead220b38fe1aff733d80f61ef56d2acac9f46411f0",
        "large": "fb974fa8ad4d46e3f945e6dcc084d3336df70a7376215ef6391341ba9a6a10ff",
        "oracle": "f1d7f1bdfd50be7e30c1c91404b5da7cd8ca7de4cead76a1d5884e73cbe2a096",
    },
    "off": {
        "capacity": "7909efc386ec7dd9f0a292eac7cc723250469843db28b1174723cc6a624f9b26",
        "ratio": "edd09aa86fe663dde3c2a19f96a0960be5af2bb3e20936438eefd710ca6af7d2",
        "large": "c54480e317048fb963b1b817d376a46048b4e00f71ebae2b73afebe3bdee16b9",
        "oracle": "f1d7f1bdfd50be7e30c1c91404b5da7cd8ca7de4cead76a1d5884e73cbe2a096",
    },
}


def test_pool_digests_match_the_committed_values():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))        # pool_digest imports ab_trees
        import pool_digest as script
    got, differ = script.digests(SEEDS)
    # every scenario solved again, fresh and in reverse solver order
    assert differ == []
    assert got == DIGESTS[script.DISPATCH], \
        f"numpy {np.__version__}, X86_V4 dispatch {script.DISPATCH}"
