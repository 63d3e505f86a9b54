"""Generator determinism, parameter ranges and file round-trips."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from coopmec.errors import ConfigError
from coopmec.scenario import (GenConfig, generate, read_config, read_scenario,
                              write_config, write_scenario)


def test_default_noise_power():
    # -174 dBm/Hz over 2 MHz, frozen from a 50-digit evaluation
    assert math.isclose(GenConfig().noise_w(), 7.962143411069945015e-15,
                        rel_tol=1e-12)
    assert math.isclose(GenConfig(bandwidth=4e6).noise_w(),
                        2 * GenConfig().noise_w(), rel_tol=1e-12)


def test_generation_is_deterministic():
    a = generate(GenConfig(seed=123))
    b = generate(GenConfig(seed=123))
    assert a.tasks == b.tasks
    assert a.devices == b.devices
    assert np.array_equal(a.gains, b.gains)
    c = generate(GenConfig(seed=124))
    assert not np.array_equal(a.gains, c.gains)


def test_generated_values_respect_ranges():
    cfg = GenConfig(n=40, seed=5)
    sc = generate(cfg)
    assert sc.n == 40 and len(sc.devices) == 41
    for t in sc.tasks:
        assert cfg.cycles[0] <= t.cycles <= cfg.cycles[1]
        assert cfg.data_bits[0] <= t.bits <= cfg.data_bits[1]
        assert cfg.deadline_s[0] <= t.deadline <= cfg.deadline_s[1]
        assert cfg.phi0 <= t.penalty <= cfg.phi0 + cfg.phi_spread
        assert t.power_price == cfg.w
    lo_w = 10 ** (cfg.p_max_dbm[0] / 10) * 1e-3
    hi_w = 10 ** (cfg.p_max_dbm[1] / 10) * 1e-3
    for d in sc.devices[1:]:
        assert cfg.f_ue[0] <= d.f_max <= cfg.f_ue[1]
        assert lo_w <= d.p_max <= hi_w
        assert d.kappa == cfg.kappa and d.p_cir == cfg.p_cir
        assert 0 <= d.position[0] <= cfg.cell_m
        assert 0 <= d.position[1] <= cfg.cell_m
    assert sc.device(0).f_max == cfg.f0_max
    assert sc.device(0).kappa == 0.0
    assert math.isinf(sc.device(0).p_max)


def test_penalty_mean_and_spread():
    sc = generate(GenConfig(n=2000, seed=11))
    phi = np.array([t.penalty for t in sc.tasks])
    assert abs(phi.mean() - 45.0) < 1.0
    assert phi.min() >= 40.0 and phi.max() <= 50.0


def test_gains_follow_pathloss_without_fading():
    cfg = GenConfig(n=6, seed=3, fading=False)
    sc = generate(cfg)
    for i in range(1, sc.n + 1):
        ue = sc.device(i)
        for j in range(sc.n + 1):
            if j == i:
                continue
            other = sc.device(j).position
            d = math.hypot(ue.position[0] - other[0], ue.position[1] - other[1])
            want = cfg.pathloss_ref_gain * max(d, 1.0) ** -cfg.pathloss_exponent
            assert math.isclose(sc.gain(i, j), want, rel_tol=1e-12)
    # the server sits at the cell centre, so no UE is further than half the
    # diagonal away
    half_diag = cfg.cell_m * math.sqrt(2) / 2
    for i in range(1, sc.n + 1):
        p = sc.device(i).position
        assert math.hypot(p[0] - 500.0, p[1] - 500.0) <= half_diag + 1e-9


def test_fading_preserves_mean_scale():
    base = GenConfig(n=200, seed=9, fading=False)
    g0 = generate(base).gains
    g1 = generate(replace(base, fading=True)).gains
    # unit-mean multiplicative fading: the totals agree within a few percent
    assert 0.5 < g1.sum() / g0.sum() < 2.0
    assert (g1 > 0).all()


def test_config_validation():
    with pytest.raises(ConfigError):
        generate(GenConfig(n=0))
    with pytest.raises(ConfigError):
        generate(GenConfig(eta=1.5))
    with pytest.raises(ConfigError):
        generate(GenConfig(deadline_s=(0.05, 0.02)))
    with pytest.raises(ConfigError):
        generate(GenConfig(pathloss_ref_gain=0.0))


def test_config_file_round_trip(tmp_path):
    cfg = GenConfig(n=17, f0_max=7e9, seed=42, fading=False,
                    deadline_s=(0.01, 0.09))
    path = tmp_path / "gen.cfg"
    write_config(cfg, path)
    assert read_config(path) == cfg


def test_config_file_parsing(tmp_path):
    path = tmp_path / "gen.cfg"
    path.write_text("# comment\nn = 4\nfading = false\n\nphi0 = 20  # inline\n")
    cfg = read_config(path)
    assert cfg.n == 4 and cfg.fading is False and cfg.phi0 == 20.0
    path.write_text("bogus_key = 1\n")
    with pytest.raises(ConfigError):
        read_config(path)
    path.write_text("n 4\n")
    with pytest.raises(ConfigError):
        read_config(path)


def test_scenario_file_round_trip(tmp_path):
    sc = generate(GenConfig(n=8, seed=21))
    path = tmp_path / "inst.sc"
    write_scenario(sc, path)
    back = read_scenario(path)
    assert back.tasks == sc.tasks
    assert back.devices == sc.devices
    assert np.array_equal(back.gains, sc.gains)   # repr round-trip is exact
    assert back.bandwidth == sc.bandwidth
    assert back.noise_w == sc.noise_w
    assert back.seed == sc.seed


def test_scenario_file_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.sc"
    path.write_text("not a scenario\n")
    with pytest.raises(ConfigError):
        read_scenario(path)


SCALAR_FLOAT_FIELDS = [f.name for f in fields(GenConfig)
                       if isinstance(getattr(GenConfig(), f.name), float)]


@pytest.mark.parametrize("name", SCALAR_FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_scalars(name, value):
    with pytest.raises(ConfigError, match=name):
        generate(replace(GenConfig(), **{name: value}))


def corrupt_line(tmp_path, prefix, edit):
    """Write a valid scenario, apply `edit` to the fields of the first line
    starting with `prefix`, and read it back."""
    path = tmp_path / "inst.sc"
    write_scenario(generate(GenConfig(n=4, seed=2)), path)
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = " ".join(edit(lines[i].split()))
    path.write_text("\n".join(lines) + "\n")
    return read_scenario(path)


@pytest.mark.parametrize("prefix", ["task 2 ", "device 3 ", "gains 1 "])
def test_scenario_file_rejects_truncated_line(tmp_path, prefix):
    with pytest.raises(ConfigError, match="bad|gain matrix"):
        corrupt_line(tmp_path, prefix, lambda parts: parts[:4])


@pytest.mark.parametrize("prefix", ["task 2 ", "device 3 ", "gains 1 "])
def test_scenario_file_rejects_non_numeric_field(tmp_path, prefix):
    with pytest.raises(ConfigError, match="bad"):
        corrupt_line(tmp_path, prefix, lambda parts: parts[:3] + ["x"] + parts[4:])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_scenario_file_rejects_bad_gain(tmp_path, value):
    # task 1's server gain; its gains line is line 15 of an n=4 file
    # (format, 4 header fields, 4 task lines, 5 device lines)
    with pytest.raises(ConfigError, match=r"inst\.sc:15: .*finite"):
        corrupt_line(tmp_path, "gains 1 ", lambda parts: parts[:2] + [value] + parts[3:])


@pytest.mark.parametrize("prefix", ["task 2 ", "device 3 ", "gains 1 "])
def test_scenario_file_rejects_duplicate_record(tmp_path, prefix):
    # a second record for the same id must not silently replace the first
    path = tmp_path / "inst.sc"
    write_scenario(generate(GenConfig(n=4, seed=2)), path)
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines.insert(i + 1, lines[i])
    path.write_text("\n".join(lines) + "\n")
    kind = prefix.split()[0]
    with pytest.raises(ConfigError, match=rf"inst\.sc:{i + 2}: .*duplicate {kind}"):
        read_scenario(path)
