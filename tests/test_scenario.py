"""Generator determinism, parameter ranges and file round-trips."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopmec.errors import ConfigError
from coopmec.scenario import (GenConfig, generate, read_config, read_scenario,
                              write_scenario)


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
    assert sc.devices[0].f_max == cfg.f0_max
    assert sc.devices[0].kappa == 0.0
    assert math.isinf(sc.devices[0].p_max)


def test_penalty_mean_and_spread():
    sc = generate(GenConfig(n=2000, seed=11))
    phi = np.array([t.penalty for t in sc.tasks])
    assert abs(phi.mean() - 45.0) < 1.0
    assert phi.min() >= 40.0 and phi.max() <= 50.0


def test_gains_follow_pathloss_without_fading():
    cfg = GenConfig(n=6, seed=3, fading=False)
    sc = generate(cfg)
    for i in range(1, sc.n + 1):
        ue = sc.devices[i]
        for j in range(sc.n + 1):
            if j == i:
                continue
            other = sc.devices[j].position
            d = math.hypot(ue.position[0] - other[0], ue.position[1] - other[1])
            want = cfg.pathloss_ref_gain * max(d, 1.0) ** -cfg.pathloss_exponent
            assert math.isclose(sc.gains.item(i - 1, j), want, rel_tol=1e-12)
    # the server sits at the cell centre, so no UE is further than half the
    # diagonal away
    half_diag = cfg.cell_m * math.sqrt(2) / 2
    for i in range(1, sc.n + 1):
        p = sc.devices[i].position
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


def test_config_rejects_unbounded_task_count():
    # numpy's generator used to reject it with a raw "Maximum allowed
    # dimension exceeded"
    with pytest.raises(ConfigError, match="n must be"):
        generate(GenConfig(n=10**400))


def test_config_rejects_negative_seed():
    # numpy's generator used to reject it with a raw ValueError
    with pytest.raises(ConfigError, match="seed"):
        generate(GenConfig(seed=-1))


@pytest.mark.parametrize("override", [
    {"p_max_dbm": (0.0, 0.0)},              # 1 mW, below the 0.1 W circuit power
    {"p_max_dbm": (4000.0, 4000.0)},        # overflows in watts
    {"noise_dbm_per_hz": 4000.0},           # overflows in watts
    {"noise_dbm_per_hz": 3050.0},           # infinite watts
    {"noise_dbm_per_hz": -4000.0},          # zero watts
    {"p_cir": 1e6},
    {"nu": 0.5},
    {"f_ue": (0.0, 0.0)},
    {"f_ue": (-1e9, 1e9)},
    {"data_bits": (0.0, 0.0)},
    {"deadline_s": (0.0, 0.0)},
    {"cycles": (-1.0, 1.0)},
    {"phi0": 1e308},                        # finite penalties, infinite total
    {"phi_spread": 1e308},
    {"n": 4, "pathloss_ref_gain": 1e308},   # finite gains, infinite SNR
    {"pathloss_ref_gain": 1e308},           # ... and at n=10 an infinite faded gain
    {"n": 4, "noise_dbm_per_hz": -3200.0},  # finite SNR numerator over ~1e-323 W
    {"n": 4, "deadline_s": (1e-320, 1e-320)},   # f_min = cycles / deadline overflows
    {"n": 4, "cycles": (1e308, 1e308)},
    {"n": 4, "cycles": (5e-324, 5e-324)},      # a subnormal f_min
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_generate_rejects_bad_records(override):
    # the record constructors' checks surface as ConfigError, never raw
    with pytest.raises(ConfigError):
        generate(GenConfig(**override))


def test_config_file_round_trip(tmp_path):
    cfg = GenConfig(n=17, f0_max=7e9, seed=42, fading=False,
                    deadline_s=(0.01, 0.09), cycles=(1e4, 2e7))
    path = tmp_path / "gen.cfg"
    path.write_text("n = 17\nf0_max = 7000000000.0\nseed = 42\nfading = False\n"
                    "deadline_s = 0.01, 0.09\ncycles = (1e4, 2e7)\n")
    assert read_config(path) == cfg


@pytest.mark.parametrize("line", ["n = 3.5", "f0_max = abc", "cycles = 1, x",
                                  "seed = true", "fading = maybe", "cycles = 1, 2, 3"])
def test_config_file_rejects_bad_value(tmp_path, line):
    # each names the file and line; the first four were raw ValueErrors
    path = tmp_path / "gen.cfg"
    path.write_text(f"# header\n{line}\n")
    with pytest.raises(ConfigError, match=r"gen\.cfg:2: "):
        read_config(path)


FIELD_NAMES = [f.name for f in fields(GenConfig)]
NUMBER = st.one_of(st.integers(-10, 10**6).map(str),
                   st.integers(10**300, 10**400).map(str),     # overflows a float
                   st.floats(allow_nan=True, allow_infinity=True).map(repr))
TOKEN = st.one_of(NUMBER, st.sampled_from(
    ["", "abc", "1e", "0x10", "--1", "1.2.3", "true", "False", "yes", "no", "(", ")"]))
VALUE = st.one_of(TOKEN, st.lists(TOKEN, max_size=4).map(", ".join),
                  st.lists(TOKEN, min_size=2, max_size=2).map(lambda p: f"({p[0]}, {p[1]})"))
LINES = st.lists(st.tuples(st.sampled_from(FIELD_NAMES + ["bogus", "N", "n n", "n_max"]),
                           VALUE), max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=LINES)
@example(lines=[("seed", "1" + "0" * 400)])     # math.isfinite overflowed on it
def test_config_file_parse_fuzz(tmp_path_factory, lines):
    # parsing alone: read_config returns a GenConfig or raises ConfigError,
    # whatever the keys and values (generate is not called)
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines), encoding="utf-8")
    try:
        cfg = read_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, GenConfig)


def test_config_file_rejects_non_utf8(tmp_path):
    # a latin-1 e-acute in a comment used to end in a raw UnicodeDecodeError
    path = tmp_path / "gen.cfg"
    path.write_bytes("# café\nn = 3\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=r"gen\.cfg: not UTF-8"):
        read_config(path)


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


# field index of each float in a record line (after the keyword and the id)
TASK_FIELDS = {"cycles": 2, "bits": 3, "deadline": 4, "penalty": 5, "power_price": 6}
DEVICE_FIELDS = {"f_max": 2, "kappa": 3, "nu": 4, "eta": 5, "p_max": 6, "p_cir": 7,
                 "position x": 8, "position y": 9}
# line numbers in an n=4 file: format, 4 header fields, tasks 1-4, devices 0-4
RECORD_LINES = {"task 2 ": 7, "device 0 ": 10, "device 3 ": 13}
# the grid-powered server is written with p_max inf, which stays valid
RECORD_CASES = [(prefix, name, index, value)
                for prefix, table in (("task 2 ", TASK_FIELDS), ("device 0 ", DEVICE_FIELDS),
                                      ("device 3 ", DEVICE_FIELDS))
                for name, index in table.items() for value in ("nan", "inf", "-inf")
                if (prefix, name, value) != ("device 0 ", "p_max", "inf")]


@pytest.mark.parametrize("prefix, name, index, value", RECORD_CASES)
def test_scenario_file_rejects_non_finite_field(tmp_path, prefix, name, index, value):
    with pytest.raises(ConfigError,
                       match=rf"inst\.sc:{RECORD_LINES[prefix]}: .*{name} must be finite"):
        corrupt_line(tmp_path, prefix,
                     lambda parts: parts[:index] + [value] + parts[index + 1:])


def test_scenario_file_rejects_overflowing_total_penalty(tmp_path):
    # every penalty is finite, their sum is not
    path = tmp_path / "inst.sc"
    write_scenario(generate(GenConfig(n=4, seed=2)), path)
    lines = [ln.split() for ln in path.read_text().splitlines()]
    lines = [p[:5] + ["1e308"] + p[6:] if p[0] == "task" else p for p in lines]
    path.write_text("\n".join(" ".join(p) for p in lines) + "\n")
    with pytest.raises(ConfigError, match=r"inst\.sc: .*total drop penalty"):
        read_scenario(path)


def test_scenario_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "inst.sc"
    write_scenario(generate(GenConfig(n=4, seed=2)), path)
    path.write_bytes(path.read_bytes() + "# café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=r"inst\.sc: not UTF-8"):
        read_scenario(path)


@pytest.mark.parametrize("index, value", [(2, "1e308"), (4, "1e-320")],
                         ids=["cycles", "deadline"])
def test_scenario_file_rejects_overflowing_f_min(tmp_path, index, value):
    # task 2's cycles / deadline is not finite: numpy used to overflow on it
    with pytest.raises(ConfigError, match=r"inst\.sc:7: .*f_min = cycles / deadline overflows"):
        corrupt_line(tmp_path, "task 2 ",
                     lambda parts: parts[:index] + [value] + parts[index + 1:])


def test_scenario_file_rejects_subnormal_f_min(tmp_path):
    # task 2's cycles / deadline keeps too few bits for cycles / f_min to
    # meet the deadline: every solver's local placements would fail C3
    with pytest.raises(ConfigError, match=r"inst\.sc:7: .*f_min = cycles / deadline is subnormal"):
        corrupt_line(tmp_path, "task 2 ", lambda parts: parts[:2] + ["5e-324"] + parts[3:])


def test_scenario_file_rejects_overflowing_snr(tmp_path):
    # one finite gain whose full-power SNR is not
    with pytest.raises(ConfigError, match=r"inst\.sc: .*SNR overflows"):
        corrupt_line(tmp_path, "gains 3 ", lambda parts: parts[:4] + ["1e308"] + parts[5:])


@pytest.mark.parametrize("prefix, index", [("bandwidth ", 1), ("task 2 ", 4)],
                         ids=["bandwidth", "deadline"])
def test_scenario_file_rejects_overflowing_uplink_rate(tmp_path, prefix, index):
    # a finite bandwidth or deadline whose best-link rate, or the bits that
    # rate carries by the deadline, is not finite: every solver used to
    # overflow on it in the feasibility bounds
    with pytest.raises(ConfigError, match=r"inst\.sc: .*uplink rate, or a deadline times it"):
        corrupt_line(tmp_path, prefix,
                     lambda parts: parts[:index] + ["1e+308"] + parts[index + 1:])


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


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [ln.replace("bandwidth 2000000.0", "bandwidth -2000000.0")
                    for ln in lines], r"inst\.sc:3: .*bandwidth must be finite and > 0"),
    (lambda lines: [("noise_w nan" if ln.startswith("noise_w ") else ln)
                    for ln in lines], r"inst\.sc:4: .*noise_w must be finite and > 0"),
    (lambda lines: lines[:3] + ["bandwidth 5.0"] + lines[3:],
     r"inst\.sc:4: .*duplicate bandwidth"),
    (lambda lines: lines + ["frobnicate 3"], r"inst\.sc:19: .*unknown line kind"),
    (lambda lines: [("n 0" if ln.startswith("n ") else ln) for ln in lines],
     r"inst\.sc:2: .*n must be >= 1"),
    (lambda lines: [ln for ln in lines if not ln.startswith("seed ")],
     r"inst\.sc: missing header field\(s\) seed"),
    # a 401-digit n must be refused by counting the 4 task records, never
    # by building a range of n ids
    (lambda lines: [("n 1" + "0" * 400 if ln.startswith("n ") else ln) for ln in lines],
     r"inst\.sc: incomplete task/device records"),
], ids=["negative-bandwidth", "nan-noise", "duplicate-bandwidth", "unknown-kind",
        "zero-tasks", "missing-seed", "unbounded-n"])
def test_scenario_file_rejects_bad_header(tmp_path, edit, message):
    # an n=4 file: format line, n, bandwidth, noise_w, seed, 4 task lines,
    # 5 device lines, 4 gains lines (18 lines)
    path = tmp_path / "inst.sc"
    write_scenario(generate(GenConfig(n=4, seed=2)), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 18 and lines[2] == "bandwidth 2000000.0"
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ConfigError, match=message):
        read_scenario(path)
