"""Byte identity beyond the goldens: scripts/pool_digest.py's five digests
over the first 20 seeds of each pool's cells, against committed values.

The goldens cover a handful of cells; these digests cover every solver's
outcome on 20 seeds of each benchmark pool (capacity, ratio and large) and
of cell F at N=10 and N=40 (coop), and the oracle's on its small cells.  A
change that claims byte-identical outputs must leave them as they are; one
that moves a solver's outputs on purpose regenerates the goldens and prints
these values for both CPU dispatch paths with

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

from conftest import cell_f
from coopmec.scenario import GenConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SEEDS = 20

# X86_V4 dispatch -> pool -> sha256 over the first SEEDS seeds
DIGESTS = {
    "on": {
        "capacity": "f4a690c45f447dd0afc509cd7fbe429eb0be79acac19e7ca9a5499057176c2b2",
        "ratio": "1302d0c6ca0a27b1db814fd311727e5b9fc8501f86c4c2963da0008dd1c4e874",
        "large": "64f24782c7a898d08b93cb00ebe1d90f2d6fb3bc6512233e5d97c5e7504f4569",
        "coop": "74743bdabd763a3c679664cf546f95b53f08112eebdd310bac12de3d3381c24a",
        "oracle": "f1d7f1bdfd50be7e30c1c91404b5da7cd8ca7de4cead76a1d5884e73cbe2a096",
    },
    "off": {
        "capacity": "1a9c7222398cc54623c0e36cb15ea98b6e4939493240fbbb4ba20717f92ef574",
        "ratio": "affa4548b45d8eb4d8a6d507a640e1ec037be05a2b46cba881d1df8c032b7814",
        "large": "6e6ca566836b3421f3cba749013e5f82c49813f02ff31284f9d4677b09b256ea",
        "coop": "639d50e1d202f20ffad5789589e569c7b1adb04ae69e75223d4198cc1553a98a",
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


def test_the_coop_cells_are_cell_f():
    # scripts/ab_trees.py reads configs/cell_f.cfg with its own few lines,
    # since it loads a coopmec tree only once its command line names one
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))
        import ab_trees
    for cell in ab_trees.CELLS["coop"]:
        assert GenConfig(**cell) == GenConfig(**cell_f(n=cell["n"]))
