"""Random scenario generation and plain-text (de)serialisation.

Scenarios follow the usual single-cell layout: UEs dropped uniformly in a
square cell with the access point / edge server at the centre, log-distance
path loss with optional unit-mean exponential (Rayleigh power) fading, and
task parameters drawn uniformly from fixed ranges.  Everything is driven by
one integer seed so any instance can be replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .model import DeviceProfile, Scenario, TaskSpec

SCENARIO_FORMAT = "coopmec-scenario v1"


@dataclass(frozen=True)
class GenConfig:
    """Generator knobs.  Ranges are inclusive (lo, hi) pairs.

    Defaults: 2 MHz uplink channels at -174 dBm/Hz noise density, CPU power
    kappa * f**3 with kappa = 1e-27, 0.1 W circuit power, UE budgets drawn
    uniformly in dBm over [20, 50], task sizes 0.1..0.5 Mbit, 1e4..1.5e8
    cycles, 20..50 ms deadlines, UE CPUs 0.5..1.5 GHz, drop penalty uniform
    over [phi0, phi0 + 10], PA efficiency 0.5, path loss d^-3.5 with -30 dB
    reference gain at 1 m inside a 1 km square cell.
    """

    n: int = 10
    f0_max: float = 5e9
    bandwidth: float = 2e6
    noise_dbm_per_hz: float = -174.0
    kappa: float = 1e-27
    nu: float = 3.0
    p_cir: float = 0.1
    p_max_dbm: tuple[float, float] = (20.0, 50.0)
    data_bits: tuple[float, float] = (0.1e6, 0.5e6)
    cycles: tuple[float, float] = (1e4, 15e7)
    deadline_s: tuple[float, float] = (0.02, 0.05)
    f_ue: tuple[float, float] = (0.5e9, 1.5e9)
    phi0: float = 40.0
    phi_spread: float = 10.0
    w: float = 1.0
    eta: float = 0.5
    pathloss_exponent: float = 3.5
    pathloss_ref_gain: float = 1e-3
    cell_m: float = 1000.0
    fading: bool = True
    seed: int = 0

    def noise_w(self) -> float:
        """Noise power in watts over the configured bandwidth."""
        return 10.0 ** (self.noise_dbm_per_hz / 10.0) * 1e-3 * self.bandwidth


_RANGE_FIELDS = {"p_max_dbm", "data_bits", "cycles", "deadline_s", "f_ue"}


def check_config(cfg: GenConfig) -> None:
    """ConfigError unless generate can draw from cfg: every scalar finite,
    every range ordered, and each value in its domain."""
    for f in fields(GenConfig):
        value = getattr(cfg, f.name)
        # an int is finite, and math.isfinite overflows on a long one
        if (f.name not in _RANGE_FIELDS and not isinstance(value, int)
                and not math.isfinite(value)):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
    if not 1 <= cfg.n <= np.iinfo(np.intp).max:     # numpy's largest array dimension
        raise ConfigError(f"n must be >= 1 and fit an array dimension, got {cfg.n}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    for name in _RANGE_FIELDS:
        lo, hi = getattr(cfg, name)
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ConfigError(f"{name}: bad range ({lo!r}, {hi!r})")
    if cfg.p_max_dbm[1] / 10.0 >= np.log10(np.finfo(float).max):    # generate's 10 ** (dBm / 10)
        raise ConfigError(f"p_max_dbm: {cfg.p_max_dbm[1]!r} dBm overflows in watts")
    positive = ["f0_max", "bandwidth", "kappa", "nu", "phi_spread", "cell_m",
                "pathloss_exponent", "pathloss_ref_gain"]
    for name in positive:
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if not (cfg.noise_dbm_per_hz / 10.0 < np.log10(np.finfo(float).max)    # guard the exponent
            and 0 < cfg.noise_w() < math.inf):
        raise ConfigError(f"noise_dbm_per_hz: {cfg.noise_dbm_per_hz!r} gives no finite watts > 0")
    if not (0 < cfg.eta <= 1):
        raise ConfigError(f"eta must be in (0, 1], got {cfg.eta}")
    if cfg.p_cir < 0 or cfg.phi0 < 0 or cfg.w < 0:
        raise ConfigError("p_cir, phi0 and w must be >= 0")


def generate(cfg: GenConfig) -> Scenario:
    """Materialise one scenario.  The draw order is fixed (positions, UE CPU
    caps, power budgets, cycles, bits, deadlines, penalties, fading) so a
    seed always reproduces the same instance bit for bit."""
    check_config(cfg)
    n = cfg.n
    rng = np.random.default_rng(cfg.seed)

    pos = rng.uniform(0.0, cfg.cell_m, size=(n, 2))
    f_ue = rng.uniform(*cfg.f_ue, size=n)
    p_max = 10.0 ** (rng.uniform(*cfg.p_max_dbm, size=n) / 10.0) * 1e-3
    cyc = rng.uniform(*cfg.cycles, size=n)
    bits = rng.uniform(*cfg.data_bits, size=n)
    deadline = rng.uniform(*cfg.deadline_s, size=n)
    phi = rng.uniform(cfg.phi0, cfg.phi0 + cfg.phi_spread, size=n)

    centre = (cfg.cell_m / 2.0, cfg.cell_m / 2.0)
    xy = np.vstack([centre, pos])                    # device positions, id order
    d = np.sqrt(((pos[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    gains = cfg.pathloss_ref_gain * np.maximum(d, 1.0) ** (-cfg.pathloss_exponent)
    if cfg.fading:
        with np.errstate(over="ignore"):     # an infinite gain fails Scenario's SNR check
            gains = gains * rng.exponential(1.0, size=gains.shape)

    try:
        tasks = tuple(TaskSpec(id=i, cycles=c, bits=b, deadline=t, penalty=p,
                               power_price=cfg.w)
                      for i, c, b, t, p in zip(range(1, n + 1), cyc.tolist(), bits.tolist(),
                                               deadline.tolist(), phi.tolist()))
        mec = DeviceProfile(id=0, f_max=cfg.f0_max, kappa=0.0, nu=cfg.nu, eta=cfg.eta,
                            p_max=math.inf, p_cir=0.0, position=centre)
        ues = tuple(DeviceProfile(id=i, f_max=f, kappa=cfg.kappa, nu=cfg.nu, eta=cfg.eta,
                                  p_max=p, p_cir=cfg.p_cir, position=(x, y))
                    for i, f, p, (x, y) in zip(range(1, n + 1), f_ue.tolist(), p_max.tolist(),
                                               pos.tolist()))
        return Scenario(tasks=tasks, devices=(mec,) + ues, gains=gains,
                        bandwidth=cfg.bandwidth, noise_w=cfg.noise_w(), seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"seed {cfg.seed}: {exc}") from exc


# ---------------------------------------------------------------------------
# flat key = value config files


def _parse_value(name: str, raw: str):
    """The typed value of one config line; ValueError when it does not parse."""
    raw = raw.strip()
    if name in _RANGE_FIELDS:
        parts = [p for p in raw.replace("(", " ").replace(")", " ").split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"expected 'lo, hi', got {raw!r}")
        return (float(parts[0]), float(parts[1]))
    if name == "fading":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {raw!r}")
    if name in ("n", "seed"):
        return int(raw)
    return float(raw)


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, newlines stripped; ConfigError naming
    the file when it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc


def read_config(path) -> GenConfig:
    """Parse a flat `key = value` file into a GenConfig (unknown keys rejected)."""
    known = {f.name for f in fields(GenConfig)}
    values = {}
    for lineno, line in enumerate(_read_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad {key!r} value: {exc}") from exc
    cfg = replace(GenConfig(), **values)
    check_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# scenario files (versioned, full float precision via repr round-trip)


def write_scenario(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{SCENARIO_FORMAT}\n")
        fh.write(f"n {sc.n}\n")
        fh.write(f"bandwidth {sc.bandwidth!r}\n")
        fh.write(f"noise_w {sc.noise_w!r}\n")
        fh.write(f"seed {sc.seed}\n")
        for t in sc.tasks:
            fh.write(f"task {t.id} {t.cycles!r} {t.bits!r} {t.deadline!r} "
                     f"{t.penalty!r} {t.power_price!r}\n")
        for d in sc.devices:
            fh.write(f"device {d.id} {d.f_max!r} {d.kappa!r} {d.nu!r} {d.eta!r} "
                     f"{d.p_max!r} {d.p_cir!r} {d.position[0]!r} {d.position[1]!r}\n")
        for i in range(sc.n):
            row = " ".join(repr(float(g)) for g in sc.gains[i])
            fh.write(f"gains {i + 1} {row}\n")


# fields of a record line, its keyword included
_RECORD_FIELDS = {"task": 7, "device": 10}
# header fields and their types
_HEADER = {"n": int, "bandwidth": float, "noise_w": float, "seed": int}


def _header_value(kind: str, raw: str):
    value = _HEADER[kind](raw)
    if kind == "n" and value < 1:
        raise ValueError(f"n must be >= 1, got {value}")
    if kind in ("bandwidth", "noise_w") and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{kind} must be finite and > 0, got {value!r}")
    return value


def read_scenario(path) -> Scenario:
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines or lines[0] != SCENARIO_FORMAT:
        raise ConfigError(f"{path}: not a {SCENARIO_FORMAT!r} file")
    header = {}
    tasks = {}
    devices = {}
    gain_rows = {}
    records = {"task": tasks, "device": devices, "gains": gain_rows}
    for lineno, ln in enumerate(lines[1:], 2):
        parts = ln.split()
        kind = parts[0]
        try:
            need = _RECORD_FIELDS.get(kind, 2)
            if len(parts) < need:
                raise ValueError(f"{len(parts)} fields, expected {need}")
            if kind in records and int(parts[1]) in records[kind]:
                raise ValueError(f"duplicate {kind} {int(parts[1])}")
            if kind in header:
                raise ValueError(f"duplicate {kind}")
            if kind == "task":
                tid = int(parts[1])
                tasks[tid] = TaskSpec(id=tid, cycles=float(parts[2]), bits=float(parts[3]),
                                      deadline=float(parts[4]), penalty=float(parts[5]),
                                      power_price=float(parts[6]))
            elif kind == "device":
                did = int(parts[1])
                devices[did] = DeviceProfile(id=did, f_max=float(parts[2]),
                                             kappa=float(parts[3]), nu=float(parts[4]),
                                             eta=float(parts[5]), p_max=float(parts[6]),
                                             p_cir=float(parts[7]),
                                             position=(float(parts[8]), float(parts[9])))
            elif kind == "gains":
                row = [float(x) for x in parts[2:]]
                if not all(math.isfinite(g) and g >= 0.0 for g in row):
                    raise ValueError("gains must be finite and >= 0")
                gain_rows[int(parts[1])] = row
            elif kind in _HEADER:
                header[kind] = _header_value(kind, parts[1])
            else:
                raise ValueError("unknown line kind")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad {kind!r} line: {exc}") from exc
    missing = [k for k in _HEADER if k not in header]
    if missing:
        raise ConfigError(f"{path}: missing header field(s) {', '.join(missing)}")
    n, bandwidth, noise_w, seed = (header[k] for k in _HEADER)
    # count the records first: the header's n may be far too large for a range set
    if (len(tasks) != n or len(devices) != n + 1 or set(tasks) != set(range(1, n + 1))
            or set(devices) != set(range(n + 1))):
        raise ConfigError(f"{path}: incomplete task/device records")
    if any(len(gain_rows.get(i, ())) != n + 1 for i in range(1, n + 1)):
        raise ConfigError(f"{path}: gain matrix must be ({n}, {n + 1})")
    gains = np.array([gain_rows[i] for i in range(1, n + 1)])
    try:
        return Scenario(tasks=tuple(tasks[i] for i in range(1, n + 1)),
                        devices=tuple(devices[j] for j in range(n + 1)),
                        gains=gains, bandwidth=bandwidth, noise_w=noise_w, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
