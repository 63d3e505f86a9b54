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
        "capacity": "3cdfc22bc8193a6e9f56a718378313a8717b53cf842e674756be83e979a9d514",
        "ratio": "5ca987916add9fb87a28077ef110460372846d3adae20d3199f1261ea662ec4d",
        "large": "f186384e5d5bea33ebdad70135594b1ed0f27804b67c562061f26170fcb41d4a",
        "oracle": "f1d7f1bdfd50be7e30c1c91404b5da7cd8ca7de4cead76a1d5884e73cbe2a096",
    },
    "off": {
        "capacity": "a2e2addb619be26fbff58a91da11167ce8dc283ff352444c3fd0b5ccbc9d747e",
        "ratio": "90f86363c202f32fb29a0798bf6947c6c9cb33b9cd8a298cd438e4537938aa8c",
        "large": "deb8a5059eb6b37b87ab52a13e16ce976cf16e4305aa7f35ae899e314ba33066",
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
