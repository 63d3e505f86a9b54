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
        for name in ("cycles", "bits", "deadline", "penalty", "power_price"):
            _check_finite(f"task {self.id}", name, getattr(self, name))
        if not (self.cycles > 0 and self.bits > 0 and self.deadline > 0):
            raise ValueError(f"task {self.id}: cycles, bits, deadline must be positive")
        if not math.isfinite(self.cycles / self.deadline):
            raise ValueError(f"task {self.id}: f_min = cycles / deadline overflows")
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
        for name in ("f_max", "kappa", "nu", "eta", "p_cir"):
            _check_finite(f"device {self.id}", name, getattr(self, name))
        if not (self.id == 0 and self.p_max == math.inf):   # the grid-powered server
            _check_finite(f"device {self.id}", "p_max", self.p_max)
        for name, value in zip(("position x", "position y"), self.position):
            _check_finite(f"device {self.id}", name, value)
        if self.f_max <= 0:
            raise ValueError(f"device {self.id}: f_max must be positive")
        if self.kappa < 0 or self.nu < 1:
            raise ValueError(f"device {self.id}: need kappa >= 0 and nu >= 1")
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
    instance: `arrays` when the scenario is built, the feasibility bounds on
    first use.  gains is a read-only copy and so is every cached array, so
    the cache cannot go stale; dataclasses.replace builds a new instance
    with its own cache.  The total drop penalty, a constant term of every
    cost, must be finite, and so must each UE's full-power SNR over its best
    link, from which the feasibility bounds derive every uplink rate, that
    best rate itself, and the bits it carries by the task's deadline.
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

    def task(self, task_id: int) -> TaskSpec:
        return self.tasks[task_id - 1]

    def device(self, device_id: int) -> DeviceProfile:
        return self.devices[device_id]

    def gain(self, task_id: int, device_id: int) -> float:
        return self.gains.item(task_id - 1, device_id)

    def host_price(self, device_id: int) -> float:
        """Power price of a hosting device; edge-server compute is free."""
        return 0.0 if device_id == 0 else self.tasks[device_id - 1].power_price


# ---------------------------------------------------------------------------
# transmit-power curve


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
    """First and second derivative of U at f; (-inf, +inf) once saturated."""
    if task.deadline * f - task.cycles <= 0:
        raise DomainError(f"task {task.id}: frequency {f:g} at or below f_min {task.f_min:g}")
    return _power_derivs(task.cycles, task.bits, task.deadline, gain, bandwidth, noise_w, f)


def _power_derivs(cycles, bits, deadline, gain, bandwidth, noise_w, f):
    """(U', U'') at f on plain floats.  Saturates to (-inf, +inf) at or below
    f_min, where (T f - c)**2 underflows to zero, and where U overflows."""
    denom = deadline * f - cycles
    if denom <= 0:
        return -math.inf, math.inf
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
    to zero, and where U overflows."""
    denom = deadline * f - cycles
    bad = (denom <= 0) | (denom**2 == 0.0)
    denom = np.where(bad, 1.0, denom)
    x = LN2 / bandwidth * bits * f / denom
    expx = np.exp(np.minimum(x, EXP_CAP))
    du = noise_w * LN2 / (bandwidth * gain) * expx * (-bits * cycles / denom**2)
    return np.where((x > EXP_CAP) | bad, -np.inf, du)


# ---------------------------------------------------------------------------
# the stationary frequency:  g(f) = U'(f) + c1 * f**(nu-1) + c2 = 0
#
# g is strictly increasing on (f_min, inf) and tends to -inf at f_min, so its
# root clamped into a window [lo, hi] is the minimiser there.  Both solvers
# share one root: matching prices a pair through balance_root_clamped
# (c2 = 0), and icrbi screens each live pair at its window ends on floats and
# root-solves only the pairs left open, one balance_root call each
# (icrbi._Kernel.primal).  At N = 10 a call leaves about 1.3 pairs open and
# each root takes about 5 steps.  A vector Newton over those few pairs paid
# about 25 numpy calls per step; the scalar root halved icrbi's primal time
# (421 -> 202 us per call on the capacity-sweep benchmark; 2-core machine,
# Python 3.11, numpy 2.4).  Routing matching through that vector Newton gave
# the same frequencies to 1e-16 but was slower: maxtask p50 at N = 80 went
# from 2.4 to 5.7 ms per pair, and +18 % batched per preference build.

# residual target |g| <= ROOT_RTOL * scale of the stationary-point root
ROOT_RTOL = 1e-9


def balance_root(cycles, bits, deadline, gain, bandwidth, noise_w, nu1, nu2,
                 c1, c2, a, b, x):
    """Root of g(f) = U'(f) + c1*f**nu1 + c2 in the bracket (a, b), where
    g(a) < 0 < g(b), from the start x inside it; g' reads c1*nu1*f**nu2.

    Safeguarded Newton: the bracket is kept, and a step that leaves it or
    meets a non-increasing g falls back to a geometric bisection.  Stops at
    |g| <= ROOT_RTOL * (|U'| + c1*f**nu1 + |c2|), once the bracket is
    narrower than 1e-13 * b, or after 200 steps."""
    for _ in range(200):
        du, d2u = _power_derivs(cycles, bits, deadline, gain, bandwidth, noise_w, x)
        cpu = c1 * x ** nu1
        g = du + cpu + c2
        finite = math.isfinite(g)
        if finite and abs(g) <= ROOT_RTOL * max(abs(du) + cpu + abs(c2), 1e-300):
            return x
        if finite and g >= 0.0:
            b = x
        else:
            a = x                           # saturated side is the negative side
        step = math.nan
        if finite:
            gp = d2u + c1 * nu1 * x ** nu2
            if 0.0 < gp < math.inf:
                step = x - g / gp
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
    (length N+1, entry j is device j): kappa, nu, f_max and speed_cap.
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
    return ScenarioArrays(
        cycles=cycles, bits=_array([t.bits for t in tasks]), deadline=deadline,
        f_min=_read_only(cycles / deadline), penalty=_array([t.penalty for t in tasks]),
        power_price=_array([t.power_price for t in tasks]),
        eta=_array([d.eta for d in ues]), p_m=_array([d.p_m for d in ues]),
        kappa=_array([d.kappa for d in devices]), nu=_array([d.nu for d in devices]),
        f_max=_array([d.f_max for d in devices]),
        speed_cap=_array([device_speed_cap(d) for d in devices]),
        circuit=sum(t.power_price * devices[t.id].p_cir for t in tasks),
        penalty_total=sum(t.penalty for t in tasks))


@dataclass
class FeasibilityBounds:
    """Static per-pair frequency windows and the blocked-pair mask.

    All arrays are (N, N+1): row i-1 belongs to task i, column j to device j.
    f_lower is the slowest admissible host frequency (delay side), f_upper the
    fastest the host can afford (capacity and power side); a pair is blocked
    when the window is empty or the deadline cannot be met at any power.
    """

    f_upper: np.ndarray
    f_lower: np.ndarray
    blocked: np.ndarray


def device_speed_cap(dev: DeviceProfile) -> float:
    """Fastest frequency a device can host: capacity and CPU power budget."""
    if dev.id == 0 or dev.kappa == 0.0:
        return dev.f_max
    quotient = dev.p_m / dev.kappa
    if quotient == math.inf:            # a subnormal kappa: take each side's root
        return min(dev.f_max, dev.p_m ** (1.0 / dev.nu) / dev.kappa ** (1.0 / dev.nu))
    return min(dev.f_max, quotient ** (1.0 / dev.nu))


def feasibility_bounds(sc: Scenario) -> FeasibilityBounds:
    """Static feasibility windows from each UE's full power budget, computed
    once per scenario (every later call returns the same object)."""
    return sc._bounds


def _compute_bounds(sc: Scenario) -> FeasibilityBounds:
    n = sc.n
    arr = sc.arrays
    f_upper = np.tile(arr.speed_cap, (n, 1))

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
    f_lower[rows, own] = arr.f_min

    blocked = f_lower >= f_upper
    remote = np.ones_like(blocked)
    remote[rows, own] = False
    blocked |= remote.astype(bool) & (deadline * rate_cap <= bits)
    return FeasibilityBounds(f_upper=_read_only(f_upper), f_lower=_read_only(f_lower),
                             blocked=_read_only(blocked))


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
    delay-tight transmit powers implied for the offloaded tasks."""
    transmit = 0.0
    compute = 0.0
    p_t: dict[int, float] = {}
    for task_id in sorted(target):
        dev = target[task_id]
        task = sc.task(task_id)
        f = freqs[task_id]
        if dev != task.id:
            power = offload_power(task, sc.gain(task_id, dev), sc.bandwidth, sc.noise_w, f)
            p_t[task_id] = power
            transmit += task.power_price / sc.device(task.id).eta * power
        if dev > 0:                     # edge-server compute is free
            compute += sc.host_price(dev) * sc.device(dev).kappa * f ** sc.device(dev).nu
    circuit = sc.arrays.circuit
    penalty_all = sc.arrays.penalty_total
    saved = sum(sc.task(i).penalty for i in target)
    total = transmit + compute + circuit + (penalty_all - saved)
    reduced = transmit + compute - saved
    return CostBreakdown(transmit=transmit, compute=compute, circuit=circuit,
                         penalty=penalty_all - saved, total=total, reduced=reduced), p_t


def _ue_power_terms(sc: Scenario, asg: Assignment):
    """(device, hosted compute watts, own transmit watts) of UE 1..N.

    The hosted tasks are grouped by host once, in target order, so each
    UE's compute sum adds the same terms in the same order as a scan of the
    whole target map would."""
    f, p_t, target = asg.f, asg.p_t, asg.target
    hosted: dict[int, list[int]] = {}
    for k, tgt in target.items():
        hosted.setdefault(tgt, []).append(k)
    for i in range(1, sc.n + 1):
        dev = sc.devices[i]
        guests = hosted.get(i)
        compute = dev.kappa * sum(f.get(k, 0.0) ** dev.nu for k in guests) if guests else 0.0
        yield dev, compute, (p_t.get(i, 0.0) / dev.eta if target.get(i) not in (None, i) else 0.0)


def validate_constraints(sc: Scenario, asg: Assignment) -> list[Violation]:
    """Check decision structure, deadlines (C3), host capacity (C4) and UE
    power budgets (C5).  Returns one Violation per breach; empty means clean."""
    out: list[Violation] = []
    n = sc.n
    for task_id, dev in asg.target.items():
        if not (1 <= task_id <= n) or not (0 <= dev <= n):
            out.append(Violation("C2", task_id, dev, math.inf))
            continue
        if task_id not in asg.f:
            out.append(Violation("C1", task_id, dev, math.inf))
        if dev != task_id and task_id not in asg.p_t:
            out.append(Violation("C1", task_id, dev, math.inf))
    for task_id in asg.f:
        if task_id not in asg.target:
            out.append(Violation("C1", task_id, None, math.inf))

    # C3: deadline per assigned task, from the stored frequency and power
    for task_id, dev in asg.target.items():
        task = sc.task(task_id)
        f = asg.f.get(task_id)
        if f is None or f <= 0:
            continue
        delay = task.cycles / f
        if dev != task_id:
            p = asg.p_t.get(task_id, 0.0)
            snr = p * sc.gain(task_id, dev) / sc.noise_w
            rate = sc.bandwidth * math.log1p(snr) / LN2 if snr > 0 else 0.0
            delay += task.bits / rate if rate > 0 else math.inf
        if delay > task.deadline * (1.0 + CHECK_TOL):
            out.append(Violation("C3", task_id, dev, delay - task.deadline))

    # C4: per-device frequency capacity
    load = {j: 0.0 for j in range(n + 1)}
    for task_id, dev in asg.target.items():
        load[dev] += asg.f.get(task_id, 0.0)
    for j, used in load.items():
        cap = sc.device(j).f_max
        if used > cap * (1.0 + CHECK_TOL):
            out.append(Violation("C4", None, j, used - cap))

    # C5: per-UE total power (hosted compute + own transmit + circuit)
    for i, (dev, compute, transmit) in enumerate(_ue_power_terms(sc, asg), 1):
        draw = dev.p_cir + compute + transmit
        if draw > dev.p_max * (1.0 + CHECK_TOL):
            out.append(Violation("C5", None, i, draw - dev.p_max))
    return out


def make_assignment(sc: Scenario, target, freqs) -> Assignment:
    """Assemble an Assignment (recomputing delay-tight transmit powers), then
    validate it; raises InfeasibleAssignment on any violation."""
    cost, p_t = assignment_cost(sc, target, freqs)
    asg = Assignment(target=dict(sorted(target.items())),
                     f={k: freqs[k] for k in sorted(target)},
                     p_t=p_t, cost=cost)
    violations = validate_constraints(sc, asg)
    if violations:
        raise InfeasibleAssignment(violations)
    return asg


def ue_total_power(sc: Scenario, asg: Assignment) -> float:
    """Total watts drawn by all UEs (compute + transmit + circuit)."""
    total = 0.0
    for dev, compute, transmit in _ue_power_terms(sc, asg):
        total += dev.p_cir
        total += compute
        total += transmit
    return total
