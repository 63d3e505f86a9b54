"""Golden CSV bytes: the writer must reproduce them exactly.

`data/golden_csv/` holds runs.csv, metrics.csv and run_meta.txt of

    coopmec run --sweep f0_max=5e9,8e9 --realizations 4

(all five algorithms, n = 10, seeds 0-3), written when the CSV columns were
still spelled out by hand.  Unlike `test_golden.py`, which compares run
records to 1e-12, this pins the header, the column order and every cell's
formatting.  `data/golden_csv_w/` holds the same files of

    coopmec run --sweep w=0.5,1,2 --realizations 3

written while every sweep value still drew its own scenarios: with the
f0_max golden it pins both sweeps that set their value on one draw.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from coopmec.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_csv"
RUN_ARGV = ["run", "--sweep", "f0_max=5e9,8e9", "--realizations", "4"]
FILES = ["runs.csv", "metrics.csv", "run_meta.txt"]
GOLDEN_W = Path(__file__).parent / "data" / "golden_csv_w"
RUN_W_ARGV = ["run", "--sweep", "w=0.5,1,2", "--realizations", "3"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(RUN_ARGV + ["--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", FILES)
def test_run_outputs_match_golden_bytes(run_dir, name):
    assert (run_dir / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def run_w_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_w")
    assert main(RUN_W_ARGV + ["--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", FILES)
def test_power_price_sweep_outputs_match_golden_bytes(run_w_dir, name):
    assert (run_w_dir / name).read_bytes() == (GOLDEN_W / name).read_bytes()
