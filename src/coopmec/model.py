"""Core cost model for cooperative edge task offloading.

A system has N user equipments (UEs), each owning one computation task, plus
one edge server co-located with the access point.  Device ids run 0..N where
device 0 is the edge server and device i (i >= 1) is the UE that owns task i.
A task is either executed locally, offloaded to the edge server, offloaded to
a helper UE, or dropped (penalised).

Units: frequencies in CPU cycles/s, data sizes in bits, bandwidth in Hz,
power in watts, time in seconds.

The central quantity is the transmit-power curve

    U(f) = (noise / gain) * (exp(ln2/B * D*f / (T*f - F)) - 1),

the transmit power that makes upload time plus remote compute time at
frequency f meet the deadline exactly.  U is strictly decreasing and strictly
convex on (F/T, inf); every solver in this package leans on that.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InfeasibleAssignment

LN2 = math.log(2.0)

# exp() overflows float64 above ~709; saturate a little earlier and report +inf
EXP_CAP = 700.0

# relative slack accepted when checking hard constraints (float round-off)
CHECK_TOL = 1e-9

# Hz: every window top is clamped here (speed_cap).  Far below it U is flat to
# double precision, and lo * hi and (T f - c)**2 stay finite at any capacity
F_TOP = 1e150


# ---------------------------------------------------------------------------
# domain types


def _check_finite(owner: str, name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{owner}: {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TaskSpec:
    """One UE's computation task plus its owner's pricing.

    cycles      CPU cycles the task needs (F)
    bits        upload size in bits (D)
    deadline    hard completion deadline in seconds
    penalty     price charged when the task is not accomplished
    power_price price per watt of this UE's power draw
    """

    id: int
    cycles: float
    bits: float
    deadline: float
    penalty: float
    power_price: float = 1.0

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"task id must be >= 1, got {self.id}")
        isfinite = math.isfinite
        if not (isfinite(self.cycles) and isfinite(self.bits) and isfinite(self.deadline)
                and isfinite(self.penalty) and isfinite(self.power_price)):
            for name in ("cycles", "bits", "deadline", "penalty", "power_price"):
                _check_finite(f"task {self.id}", name, getattr(self, name))
        if not (self.cycles > 0 and self.bits > 0 and self.deadline > 0):
            raise ValueError(f"task {self.id}: cycles, bits, deadline must be positive")
        f_min = self.cycles / self.deadline
        if not math.isfinite(f_min):
            raise ValueError(f"task {self.id}: f_min = cycles / deadline overflows")
        if f_min < sys.float_info.min:
            # a subnormal f_min keeps too few bits for cycles / f_min to meet the deadline
            raise ValueError(f"task {self.id}: f_min = cycles / deadline is subnormal")
        if self.penalty < 0 or self.power_price < 0:
            raise ValueError(f"task {self.id}: penalty and power_price must be >= 0")

    @property
    def f_min(self) -> float:
        """Slowest frequency that could ever meet the deadline (F / T_max)."""
        return self.cycles / self.deadline


@dataclass(frozen=True)
class DeviceProfile:
    """Compute/power capabilities of one device.

    kappa and nu parameterise dynamic CPU power kappa * f**nu; eta is the
    transmit power-amplifier efficiency; p_max is the total power budget
    (ignored for the edge server, which is grid powered); p_cir is the
    always-on circuit power.
    """

    id: int
    f_max: float
    kappa: float
    nu: float
    eta: float
    p_max: float
    p_cir: float
    position: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"device id must be >= 0, got {self.id}")
        isfinite = math.isfinite
        server = self.id == 0 and self.p_max == math.inf     # the grid-powered server
        if not (isfinite(self.f_max) and isfinite(self.kappa) and isfinite(self.nu)
                and isfinite(self.eta) and isfinite(self.p_cir)
                and (server or isfinite(self.p_max)) and all(map(isfinite, self.position[:2]))):
            for name in ("f_max", "kappa", "nu", "eta", "p_cir"):
                _check_finite(f"device {self.id}", name, getattr(self, name))
            if not server:
                _check_finite(f"device {self.id}", "p_max", self.p_max)
            for name, value in zip(("position x", "position y"), self.position):
                _check_finite(f"device {self.id}", name, value)
        if self.f_max <= 0:
            raise ValueError(f"device {self.id}: f_max must be positive")
        if self.kappa < 0 or self.nu < 1 or self.p_cir < 0:
            raise ValueError(f"device {self.id}: need kappa >= 0, nu >= 1 and p_cir >= 0")
        if not (0 < self.eta <= 1):
            raise ValueError(f"device {self.id}: eta must be in (0, 1]")
        if self.id > 0 and self.p_max - self.p_cir <= 0:
            raise ValueError(f"device {self.id}: p_max must exceed circuit power")

    @property
    def p_m(self) -> float:
        """Power budget left for compute + transmit after circuit draw."""
        return self.p_max - self.p_cir


@dataclass(frozen=True)
class Scenario:
    """A fully materialised problem instance.

    gains is the (N, N+1) linear channel-gain matrix: row i-1 holds UE i's
    gains towards devices 0..N.  The diagonal-like entry gains[i-1, i]
    (a UE towards itself) is never used.

    Data that depends only on the scenario is computed once and kept on the
    instance: `arrays` when the scenario is built, the feasibility bounds and
    matching's opening on first use.  gains is a read-only copy and so is every
    cached array, so the cache cannot go stale; dataclasses.replace builds a
    new instance with its own cache.  The total drop penalty, a constant term
    of every cost, must be finite, and so must each UE's full-power SNR over
    its best link, from which the feasibility bounds derive every uplink rate,
    that best rate itself, and the bits it carries by the task's deadline.
    """

    tasks: tuple[TaskSpec, ...]
    devices: tuple[DeviceProfile, ...]
    gains: np.ndarray
    bandwidth: float
    noise_w: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "gains", _read_only(np.array(self.gains, dtype=float)))
        if not math.isfinite(sum(t.penalty for t in self.tasks)):
            raise ValueError("the total drop penalty overflows")
        arr = self.arrays
        with np.errstate(all="ignore"):
            snr = self.gains.max(axis=1) * arr.eta * arr.p_m / self.noise_w
            deadline_bits = arr.deadline * (self.bandwidth * np.log1p(snr) / LN2)
        if not np.isfinite(snr).all():
            raise ValueError("the full-power SNR overflows")
        if not np.isfinite(deadline_bits).all():        # also when the rate itself does
            raise ValueError("the best-link uplink rate, or a deadline times it, overflows")

    @cached_property
    def arrays(self) -> ScenarioArrays:
        """Per-task and per-device parameter arrays."""
        return _scenario_arrays(self)

    @cached_property
    def _bounds(self) -> FeasibilityBounds:
        return _compute_bounds(self)

    @property
    def n(self) -> int:
        return len(self.tasks)


# ---------------------------------------------------------------------------
# transmit-power curve
# Twins kept for speed: offload_power_vec (oracle lattice) and _slope_vec (icrbi
# set-up) on arrays; inline U' in balance_root and U, U' in icrbi's primal.


def offload_power(task: TaskSpec, gain: float, bandwidth: float, noise_w: float, f: float) -> float:
    """U(f): transmit power that meets the deadline when the host runs at f.

    Returns +inf when the required power saturates the floating-point range
    (callers treat that as an infeasible operating point).
    """
    denom = task.deadline * f - task.cycles
    if denom <= 0:
        raise DomainError(f"task {task.id}: frequency {f:g} at or below f_min {task.f_min:g}")
    x = LN2 / bandwidth * task.bits * f / denom
    if x > EXP_CAP:
        return math.inf
    return noise_w / gain * math.expm1(x)

def offload_power_derivs(task: TaskSpec, gain: float, bandwidth: float, noise_w: float,
                         f: float) -> tuple[float, float]:
    """First and second derivative of U at f; (-inf, +inf) once saturated:
    where U overflows, and where (T f - c)**2 underflows to zero."""
    cycles, bits, deadline = task.cycles, task.bits, task.deadline
    denom = deadline * f - cycles
    if denom <= 0:
        raise DomainError(f"task {task.id}: frequency {f:g} at or below f_min {task.f_min:g}")
    x = LN2 / bandwidth * bits * f / denom
    if x > EXP_CAP:
        return -math.inf, math.inf
    sq = denom**2
    if sq == 0.0:
        return -math.inf, math.inf
    du = noise_w * LN2 / (bandwidth * gain) * math.exp(x) * (-bits * cycles / sq)
    d2u = -du / denom * (LN2 * bits * cycles / (bandwidth * denom) + 2.0 * deadline)
    return du, d2u


def offload_power_vec(cycles, bits, deadline, gain, bandwidth, noise_w, f):
    """Vectorised U(f); +inf where saturated, +inf where f <= f_min."""
    denom = deadline * f - cycles
    bad = denom <= 0
    denom = np.where(bad, 1.0, denom)
    x = LN2 / bandwidth * bits * f / denom
    out = np.where(x > EXP_CAP, np.inf, noise_w / gain * np.expm1(np.minimum(x, EXP_CAP)))
    return np.where(bad, np.inf, out)


def offload_power_slope_vec(cycles, bits, deadline, gain, bandwidth, noise_w, f):
    """Vectorised U'; -inf at or below f_min, where (T f - c)**2 underflows
    to zero, and where U or U' overflows; -0.0 where (T f - c)**2
    overflows, far out on U's flat tail."""
    with np.errstate(over="ignore"):
        denom = deadline * f - cycles
        sq = denom**2
        bad = (denom <= 0) | (sq == 0.0)
        flat = sq == np.inf
        denom = np.where(bad | flat, 1.0, denom)
        x = LN2 / bandwidth * bits * f / denom
        expx = np.exp(np.minimum(x, EXP_CAP))
        du = noise_w * LN2 / (bandwidth * gain) * expx * (-bits * cycles / denom**2)
    return np.where(bad, -np.inf, np.where(flat, -0.0, np.where(x > EXP_CAP, -np.inf, du)))


# ---------------------------------------------------------------------------
# the stationary frequency:  g(f) = U'(f) + c1 * f**(nu-1) + c2 = 0
#
# g is strictly increasing on (f_min, inf) and tends to -inf at f_min, so its
# root clamped into a window [lo, hi] is the minimiser there.  Both solvers
# share one root: matching prices a pair through balance_root_clamped
# (c2 = 0), and icrbi screens each live pair at its window ends on floats and
# root-solves only the pairs left open, one balance_root call each
# (icrbi._Kernel.primal).  A vector Newton over the open pairs paid about
# 25 numpy calls per step and was slower for both solvers.  At N = 80 a
# primal call makes 17-23 roots, most of them done in about 5 steps.  The
# root evaluates U' and U'' inline, with the factors that do not change from
# step to step computed once per call: on roots recorded from icrbi and
# maxtask solves at N = 10, 80 and 200 that takes about 35 % less time per
# root than calling a U'/U'' helper every step, with identical outputs
# (2-core machine, Python 3.11, numpy 2.4).  No root of the benchmark pools
# takes more than 18 steps.  Started just above f_min, where U' is finite
# but huge, Newton moves by about (T f - c)**2 / (ln2 D F / B) per step and
# would crawl to the step cap, so after ROOT_NEWTON_STEPS steps the root
# only bisects.
#
# icrbi's live pairs are the remote pairs of the tasks whose local run lost
# at the current prices.  A local run that loses at zero prices loses at
# every price, so icrbi's set-up walks such a task's pairs at every
# iteration, and never visits it if it has none.

# residual target |g| <= ROOT_RTOL * scale of the stationary-point root
ROOT_RTOL = 1e-9
ROOT_STEPS = 200            # balance_root's step cap
ROOT_NEWTON_STEPS = 30      # later steps bisect geometrically


def balance_root(cycles, bits, deadline, gain, bandwidth, noise_w, nu1, nu2,
                 c1, c2, a, b, x):
    """Root of g(f) = U'(f) + c1*f**nu1 + c2 in the bracket (a, b), where
    g(a) < 0 < g(b), from the start x inside it; g' reads c1*nu1*f**nu2.

    Safeguarded Newton: the bracket is kept, and a step that leaves it or
    meets a non-increasing g falls back to a geometric bisection, as does
    every step after the first ROOT_NEWTON_STEPS.  Stops at
    |g| <= ROOT_RTOL * (|U'| + c1*f**nu1 + |c2|), once the bracket is
    narrower than 1e-13 * b, or after ROOT_STEPS steps.  U' and U'' are
    offload_power_derivs' expressions, saturated alike."""
    k_x = LN2 / bandwidth * bits
    k_du = noise_w * LN2 / (bandwidth * gain)
    k_bc = -bits * cycles
    k_d2 = LN2 * bits * cycles
    t2 = 2.0 * deadline
    c1_nu1 = c1 * nu1
    c2_abs = c2 if c2 >= 0.0 else -c2
    for it in range(ROOT_STEPS):
        denom = deadline * x - cycles
        if denom <= 0.0:
            du, d2u = -math.inf, math.inf
        else:
            e = k_x * x / denom
            sq = 0.0 if e > EXP_CAP else denom**2
            if sq == 0.0:
                du, d2u = -math.inf, math.inf
            else:
                du = k_du * math.exp(e) * (k_bc / sq)
                d2u = -du / denom * (k_d2 / (bandwidth * denom) + t2)
        cpu = c1 * x ** nu1
        g = du + cpu + c2
        step = math.nan
        if math.isfinite(g):
            scale = (-du if du < 0.0 else du) + cpu + c2_abs
            if (-g if g < 0.0 else g) <= ROOT_RTOL * (1e-300 if scale < 1e-300 else scale):
                return x
            if g >= 0.0:
                b = x
            else:
                a = x
            gp = d2u + c1_nu1 * x ** nu2
            if 0.0 < gp < math.inf and it < ROOT_NEWTON_STEPS:
                step = x - g / gp
        else:
            a = x                           # saturated side is the negative side
        x = step if a < step < b else math.sqrt(a * b)
        if (b - a) <= 1e-13 * b:
            return x
    return x


def balance_root_clamped(task, gain, bandwidth, noise_w, nu, power_coeff,
                         lo: float, hi: float) -> float:
    """Root of U'(f) + power_coeff*f**(nu-1) clamped into [lo, hi]: lo or hi
    when g does not change sign there, else balance_root from sqrt(lo*hi)."""
    if hi < lo:
        raise ValueError(f"empty interval [{lo:g}, {hi:g}]")
    nu = nu if power_coeff else 1.0     # CPU power priced at 0: never raise its law
    du_lo, _ = offload_power_derivs(task, gain, bandwidth, noise_w, lo)
    if du_lo + power_coeff * lo ** (nu - 1.0) >= 0.0:
        return lo
    du_hi, _ = offload_power_derivs(task, gain, bandwidth, noise_w, hi)
    if du_hi + power_coeff * hi ** (nu - 1.0) <= 0.0:
        return hi
    return balance_root(task.cycles, task.bits, task.deadline, gain, bandwidth, noise_w,
                        nu - 1.0, nu - 2.0, power_coeff, 0.0, lo, hi, math.sqrt(lo * hi))


# ---------------------------------------------------------------------------
# scenario-static arrays and feasibility bounds


class ScenarioArrays(NamedTuple):
    """A scenario's parameters as read-only arrays, built once per scenario.

    Per task (length N, entry i-1 is task i): cycles, bits, deadline, f_min,
    penalty, power_price, and the owner UE's eta and p_m.  Per device
    (length N+1, entry j is device j): kappa and nu, the host's effective CPU
    power law, also kept as power_law, a tuple of (kappa, nu) float pairs; it
    is (0.0, 1.0) for the edge server and a UE with kappa 0, which draw no
    CPU power: 0 * f is zero, and their own nu is never raised.  Then f_max,
    speed_cap (every static window's top) and the cost's two prices, tuples
    of floats that every cost and marginal price reads: upload_price[i-1] =
    w_i / eta_i per radiated watt of task i, and cpu_price[j] = w_j * kappa_j
    per f**nu on host j, kappa_j from power_law (0 for the edge server).
    circuit (the priced circuit power of every UE) and penalty_total (the
    penalty of dropping every task) are the constant terms of the cost.
    """

    cycles: np.ndarray
    bits: np.ndarray
    deadline: np.ndarray
    f_min: np.ndarray
    penalty: np.ndarray
    power_price: np.ndarray
    eta: np.ndarray
    p_m: np.ndarray
    kappa: np.ndarray
    nu: np.ndarray
    f_max: np.ndarray
    speed_cap: np.ndarray
    power_law: tuple[tuple[float, float], ...]
    upload_price: tuple[float, ...]
    cpu_price: tuple[float, ...]
    circuit: float
    penalty_total: float


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _array(values) -> np.ndarray:
    return _read_only(np.array(values))


def _scenario_arrays(sc: Scenario) -> ScenarioArrays:
    tasks, devices, ues = sc.tasks, sc.devices, sc.devices[1:]
    cycles = _array([t.cycles for t in tasks])
    deadline = _array([t.deadline for t in tasks])
    # the paper's edge server computes for free, and so does a UE with kappa 0
    law = tuple((d.kappa, d.nu) if d.id and d.kappa else (0.0, 1.0) for d in devices)
    kappa, nu = zip(*law)
    return ScenarioArrays(
        cycles=cycles, bits=_array([t.bits for t in tasks]), deadline=deadline,
        f_min=_read_only(cycles / deadline), penalty=_array([t.penalty for t in tasks]),
        power_price=_array([t.power_price for t in tasks]),
        eta=_array([d.eta for d in ues]), p_m=_array([d.p_m for d in ues]),
        kappa=_array(kappa), nu=_array(nu), f_max=_array([d.f_max for d in devices]),
        speed_cap=_array([speed_cap(d.f_max, d.p_m, *dl) for d, dl in zip(devices, law)]),
        power_law=law, upload_price=tuple(t.power_price / devices[t.id].eta for t in tasks),
        cpu_price=(0.0, *(t.power_price * law[t.id][0] for t in tasks)),
        circuit=sum(t.power_price * devices[t.id].p_cir for t in tasks),
        penalty_total=sum(t.penalty for t in tasks))


class OpenPairs(NamedTuple):
    """The admissible (task, device) pairs, by task and, within a task, by
    device: pair p is task rows[p] + 1 on device cols[p] (read-only arrays),
    and devices[i - 1] lists task i's open devices as Python ints."""

    rows: np.ndarray
    cols: np.ndarray
    devices: list[list[int]]


@dataclass
class FeasibilityBounds:
    """Static per-pair frequency windows and the blocked-pair mask.

    Both arrays are (N, N+1): row i-1 belongs to task i, column j to device j.
    f_lower is the slowest admissible host frequency (delay side), and the
    window tops out at ScenarioArrays.speed_cap[j]; a pair is blocked when the
    window is empty, the deadline cannot be met at any power, or (remote) the
    window would start at f_min, where U is not usable.
    `pairs` enumerates the pairs left open once, on first use, so a solver
    that never reads it (noncope) never pays for it; the solvers that walk
    the admissible pairs walk only those.
    """

    f_lower: np.ndarray
    blocked: np.ndarray

    @cached_property
    def pairs(self) -> OpenPairs:
        rows, cols = np.nonzero(~self.blocked)
        starts = np.searchsorted(rows, np.arange(len(self.blocked) + 1)).tolist()
        devices = cols.tolist()
        return OpenPairs(_read_only(rows), _read_only(cols),
                         [devices[a:b] for a, b in zip(starts, starts[1:])])


def speed_cap(f_cap: float, budget: float, kappa: float, nu: float) -> float:
    """Top of every frequency window: capacity f_cap and, for kappa > 0, the
    CPU power budget (kappa * f**nu <= budget), clamped at F_TOP."""
    if kappa > 0.0:
        quotient = budget / kappa
        if quotient == math.inf:        # a subnormal kappa: take each side's root
            return min(f_cap, budget ** (1.0 / nu) / kappa ** (1.0 / nu), F_TOP)
        f_cap = min(f_cap, quotient ** (1.0 / nu))
    return min(f_cap, F_TOP)


def feasibility_bounds(sc: Scenario) -> FeasibilityBounds:
    """Static feasibility windows from each UE's full power budget, computed
    once per scenario (every later call returns the same object)."""
    return sc._bounds


def _compute_bounds(sc: Scenario) -> FeasibilityBounds:
    n = sc.n
    arr = sc.arrays
    cycles = arr.cycles[:, None]
    bits = arr.bits[:, None]
    deadline = arr.deadline[:, None]
    eta = arr.eta[:, None]
    p_m = arr.p_m[:, None]

    snr = sc.gains * eta * p_m / sc.noise_w
    rate_cap = sc.bandwidth * np.log1p(snr) / LN2
    own = np.arange(1, n + 1)
    rows = np.arange(n)
    rate_cap[rows, own] = np.inf         # local execution has no radio link

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slack = deadline - bits / rate_cap      # a vanishing rate gives -inf: blocked
        f_lower = np.where(slack > 0, cycles / np.where(slack > 0, slack, 1.0), np.inf)
        # an upload time lost against the deadline starts the window at f_min,
        # where U is undefined or, a rounding error above it, zero
        at_f_min = (slack >= deadline) | (deadline * f_lower - cycles <= 0)
    f_lower[rows, own] = arr.f_min

    blocked = f_lower >= arr.speed_cap
    remote = np.ones_like(blocked)
    remote[rows, own] = False
    blocked |= remote.astype(bool) & ((deadline * rate_cap <= bits) | at_f_min)
    return FeasibilityBounds(f_lower=_read_only(f_lower), blocked=_read_only(blocked))


# ---------------------------------------------------------------------------
# assignments, costs, constraint validation


@dataclass(frozen=True)
class CostBreakdown:
    """System cost split by source; `reduced` drops the constant circuit and
    full-penalty terms (the part the solvers actually optimise)."""

    transmit: float
    compute: float
    circuit: float
    penalty: float
    total: float
    reduced: float


@dataclass(frozen=True)
class Assignment:
    """Final offloading decision: task id -> device id, host frequencies and
    transmit powers (offloaded tasks only; local tasks transmit nothing)."""

    target: dict[int, int]
    f: dict[int, float]
    p_t: dict[int, float]
    cost: CostBreakdown

    @property
    def accomplished(self) -> int:
        return len(self.target)


@dataclass(frozen=True)
class Violation:
    constraint: str
    task: int | None
    device: int | None
    amount: float

    def __str__(self):
        where = f"task {self.task}" if self.task is not None else f"device {self.device}"
        if self.task is not None and self.device is not None:
            where = f"task {self.task}@device {self.device}"
        return f"{self.constraint}[{where}] excess {self.amount:.3e}"


def assignment_cost(sc: Scenario, target, freqs) -> tuple[CostBreakdown, dict[int, float]]:
    """Cost breakdown of a (target, frequency) choice; also returns the
    delay-tight transmit powers implied for the offloaded tasks.  Transmit,
    compute and the avoided penalties add up in task order."""
    tasks, gain, arr = sc.tasks, sc.gains.item, sc.arrays
    bandwidth, noise_w, law = sc.bandwidth, sc.noise_w, arr.power_law
    transmit = 0.0
    compute = 0.0
    saved = 0.0
    p_t: dict[int, float] = {}
    for task_id in sorted(target):
        dev = target[task_id]
        task = tasks[task_id - 1]
        f = freqs[task_id]
        if dev != task.id:
            power = offload_power(task, gain(task_id - 1, dev), bandwidth, noise_w, f)
            p_t[task_id] = power
            transmit += arr.upload_price[task_id - 1] * power
        compute += arr.cpu_price[dev] * f ** law[dev][1]
        saved += task.penalty
    circuit, penalty_all = arr.circuit, arr.penalty_total
    total = transmit + compute + circuit + (penalty_all - saved)
    reduced = transmit + compute - saved
    return CostBreakdown(transmit=transmit, compute=compute, circuit=circuit,
                         penalty=penalty_all - saved, total=total, reduced=reduced), p_t


def _ue_power_terms(sc: Scenario, asg: Assignment):
    """(UE id, device, hosted compute watts, own transmit watts) of each UE
    that hosts or uploads a task, by id, over the target entries with ids in
    range; each UE's compute adds its guests' terms in target order."""
    f, p_t, n, devices, law = asg.f, asg.p_t, sc.n, sc.devices, sc.arrays.power_law
    hosted: dict[int, list[float]] = {}
    uploads: dict[int, float] = {}
    for k, dev in asg.target.items():
        if 1 <= k <= n and 0 <= dev <= n:
            if dev:
                hosted.setdefault(dev, []).append(f.get(k, 0.0))
            if dev != k:
                uploads[k] = p_t.get(k, 0.0)
    for i in sorted(hosted.keys() | uploads.keys()):
        dev = devices[i]
        guests = hosted.get(i)
        kappa, nu = law[i]
        compute = kappa * sum(fk ** nu for fk in guests) if guests else 0.0
        yield i, dev, compute, (uploads[i] / dev.eta if i in uploads else 0.0)


def validate_constraints(sc: Scenario, asg: Assignment) -> list[Violation]:
    """Check decision structure (C1; C2: a task id not in 1..N or a device id
    not in 0..N, an entry then left out of C3-C5), deadlines (C3), host
    capacity (C4) and UE power budgets (C5).  Returns one Violation per
    breach, in that order; empty means clean.  One pass over the target
    checks C1-C3 and sums loads in target order; one over the server and
    the UEs that host or upload (_ue_power_terms) checks C4 and C5: an idle
    UE carries no load and draws only its circuit power, below its budget."""
    f, p_t, target, n = asg.f, asg.p_t, asg.target, sc.n
    tasks, gain, bandwidth, noise_w = sc.tasks, sc.gains.item, sc.bandwidth, sc.noise_w
    tol = 1.0 + CHECK_TOL
    out, late, over = [], [], []        # C1-C2 and C4, C3, C5
    load = [0.0] * (n + 1)
    for task_id, dev in target.items():
        if not (1 <= task_id <= n) or not (0 <= dev <= n):
            out.append(Violation("C2", task_id, dev, math.inf))
            continue
        if task_id not in f:
            out.append(Violation("C1", task_id, dev, math.inf))
        if dev != task_id and task_id not in p_t:
            out.append(Violation("C1", task_id, dev, math.inf))
        fk = f.get(task_id, 0.0)
        load[dev] += fk
        if fk <= 0:                     # C3, from the stored frequency and power
            continue
        task = tasks[task_id - 1]
        delay = task.cycles / fk
        if dev != task_id:
            snr = p_t.get(task_id, 0.0) * gain(task_id - 1, dev) / noise_w
            rate = bandwidth * math.log1p(snr) / LN2 if snr > 0 else 0.0
            delay += task.bits / rate if rate > 0 else math.inf
        if delay > task.deadline * tol:
            late.append(Violation("C3", task_id, dev, delay - task.deadline))
    out += [Violation("C1", k, None, math.inf) for k in f if k not in target] + late

    # C4: per-device frequency capacity; C5: per-UE total power (hosted
    # compute + own transmit + circuit)
    server = sc.devices[0]
    if load[0] > server.f_max * tol:
        out.append(Violation("C4", None, 0, load[0] - server.f_max))
    for i, dev, compute, transmit in _ue_power_terms(sc, asg):
        if load[i] > dev.f_max * tol:
            out.append(Violation("C4", None, i, load[i] - dev.f_max))
        draw = dev.p_cir + compute + transmit
        if draw > dev.p_max * tol:
            over.append(Violation("C5", None, i, draw - dev.p_max))
    return out + over


def make_assignment(sc: Scenario, target, freqs) -> Assignment:
    """Assemble an Assignment (recomputing delay-tight transmit powers), then
    validate it; raises InfeasibleAssignment on any violation."""
    cost, p_t = assignment_cost(sc, target, freqs)
    order = sorted(target)
    asg = Assignment(target={k: target[k] for k in order}, f={k: freqs[k] for k in order},
                     p_t=p_t, cost=cost)
    violations = validate_constraints(sc, asg)
    if violations:
        raise InfeasibleAssignment(violations)
    return asg


def ue_total_power(sc: Scenario, asg: Assignment) -> float:
    """Total watts drawn by all UEs (compute + transmit + circuit)."""
    total = 0.0
    terms = {i: (compute, transmit) for i, _, compute, transmit in _ue_power_terms(sc, asg)}
    for i, dev in enumerate(sc.devices[1:], 1):
        compute, transmit = terms.get(i, (0.0, 0.0))
        total = total + dev.p_cir + compute + transmit
    return total
