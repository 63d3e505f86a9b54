"""Shared builders for hand-made and generated problem instances.

Hand-built instances stay in the same physical regime as the generator
defaults (2 MHz channels, -174 dBm/Hz noise floor, GHz-scale CPUs) so that
closed-form expectations remain easy to verify on paper.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from coopmec import icrbi
from coopmec.errors import DomainError
from coopmec.model import (CHECK_TOL, EXP_CAP, LN2, CostBreakdown, DeviceProfile, Scenario,
                           TaskSpec, Violation, offload_power)
from coopmec.scenario import GenConfig, generate, read_config, read_scenario, write_scenario

# -174 dBm/Hz over 2 MHz, rounded to three significant digits.  The round
# value makes the reference-point arithmetic exact (see test_model).
NOISE_W = 7.96e-15


def required_rate(task: TaskSpec, f: float) -> float:
    """Upload rate (bit/s) making upload + compute at frequency f hit the
    deadline; with power_for_rate, an independent route to U(f)."""
    denom = task.deadline * f - task.cycles
    if denom <= 0:
        raise DomainError(f"task {task.id}: frequency {f:g} at or below f_min {task.f_min:g}")
    return task.bits * f / denom


def power_for_rate(gain: float, bandwidth: float, noise_w: float, rate: float) -> float:
    """Transmit power sustaining `rate` on an AWGN link of the given gain."""
    x = LN2 * rate / bandwidth
    if x > EXP_CAP:
        return math.inf
    return noise_w / gain * math.expm1(x)


def icrbi_step(t: int) -> float:
    """icrbi.solve's step size at iteration t (1-based)."""
    return icrbi.STEP_SCALE / math.sqrt(t)


def remote_pairs(sc: Scenario, bounds):
    """(ri, rj, lo, hi): the admissible remote pairs (task row, device) in
    icrbi's pair order, by task and then by device, with the frequency
    window the kernel clamps each one into."""
    n = sc.n
    ri, rj = np.nonzero(~bounds.blocked & ~np.eye(n, n + 1, 1, dtype=bool))
    return ri, rj, bounds.f_lower[ri, rj], sc.arrays.speed_cap[rj]


def c5_violations(sc: Scenario, asg) -> list[Violation]:
    """UE power-budget breaches (C5), scanning every target for every UE:
    the O(N^2) reference for model.validate_constraints."""
    out = []
    for i in range(1, sc.n + 1):
        dev = sc.devices[i]
        draw = dev.p_cir
        draw += dev.kappa * sum(asg.f.get(k, 0.0) ** dev.nu
                                for k, tgt in asg.target.items() if tgt == i)
        if asg.target.get(i) not in (None, i):
            draw += asg.p_t.get(i, 0.0) / dev.eta
        if draw > dev.p_max * (1.0 + CHECK_TOL):
            out.append(Violation("C5", None, i, draw - dev.p_max))
    return out


# Reference copies of model.assignment_cost and model.validate_constraints as
# they stood before both were rewritten as single passes over the target and
# the devices, kept with the same float expressions (and their UE power
# helper) so a test can require the rewrite to give equal results on
# in-range assignments.


def reference_assignment_cost(sc: Scenario, target, freqs
                              ) -> tuple[CostBreakdown, dict[int, float]]:
    """Cost breakdown of a (target, frequency) choice; also returns the
    delay-tight transmit powers implied for the offloaded tasks."""
    transmit = 0.0
    compute = 0.0
    p_t: dict[int, float] = {}
    for task_id in sorted(target):
        dev = target[task_id]
        task = sc.tasks[task_id - 1]
        f = freqs[task_id]
        if dev != task.id:
            gain = sc.gains.item(task_id - 1, dev)
            power = offload_power(task, gain, sc.bandwidth, sc.noise_w, f)
            p_t[task_id] = power
            transmit += task.power_price / sc.devices[task.id].eta * power
        if dev > 0:                     # edge-server compute is free
            host = sc.devices[dev]
            compute += sc.tasks[dev - 1].power_price * host.kappa * f ** host.nu
    circuit = sc.arrays.circuit
    penalty_all = sc.arrays.penalty_total
    saved = sum(sc.tasks[i - 1].penalty for i in target)
    total = transmit + compute + circuit + (penalty_all - saved)
    reduced = transmit + compute - saved
    return CostBreakdown(transmit=transmit, compute=compute, circuit=circuit,
                         penalty=penalty_all - saved, total=total, reduced=reduced), p_t


def _reference_ue_power_terms(sc: Scenario, asg):
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


def reference_validate_constraints(sc: Scenario, asg) -> list[Violation]:
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
        task = sc.tasks[task_id - 1]
        f = asg.f.get(task_id)
        if f is None or f <= 0:
            continue
        delay = task.cycles / f
        if dev != task_id:
            p = asg.p_t.get(task_id, 0.0)
            snr = p * sc.gains.item(task_id - 1, dev) / sc.noise_w
            rate = sc.bandwidth * math.log1p(snr) / LN2 if snr > 0 else 0.0
            delay += task.bits / rate if rate > 0 else math.inf
        if delay > task.deadline * (1.0 + CHECK_TOL):
            out.append(Violation("C3", task_id, dev, delay - task.deadline))

    # C4: per-device frequency capacity
    load = {j: 0.0 for j in range(n + 1)}
    for task_id, dev in asg.target.items():
        load[dev] += asg.f.get(task_id, 0.0)
    for j, used in load.items():
        cap = sc.devices[j].f_max
        if used > cap * (1.0 + CHECK_TOL):
            out.append(Violation("C4", None, j, used - cap))

    # C5: per-UE total power (hosted compute + own transmit + circuit)
    for i, (dev, compute, transmit) in enumerate(_reference_ue_power_terms(sc, asg), 1):
        draw = dev.p_cir + compute + transmit
        if draw > dev.p_max * (1.0 + CHECK_TOL):
            out.append(Violation("C5", None, i, draw - dev.p_max))
    return out


def ue_power_scan(sc: Scenario, asg) -> float:
    """Total UE watts by the same O(N^2) scan: the reference for
    model.ue_total_power."""
    total = 0.0
    for i in range(1, sc.n + 1):
        dev = sc.devices[i]
        total += dev.p_cir
        total += dev.kappa * sum(asg.f.get(k, 0.0) ** dev.nu
                                 for k, tgt in asg.target.items() if tgt == i)
        if asg.target.get(i) not in (None, i):
            total += asg.p_t.get(i, 0.0) / dev.eta
    return total


def mk_task(i: int, cycles: float = 1e7, bits: float = 1e5,
            deadline: float = 0.02, penalty: float = 40.0,
            w: float = 1.0) -> TaskSpec:
    return TaskSpec(id=i, cycles=cycles, bits=bits, deadline=deadline,
                    penalty=penalty, power_price=w)


def mk_dev(j: int, f_max: float = 1e9, kappa: float = 1e-27, nu: float = 3.0,
           eta: float = 0.5, p_max: float = 1.0,
           p_cir: float = 0.1) -> DeviceProfile:
    if j == 0:
        # grid powered edge server: no CPU power price, no battery
        return DeviceProfile(id=0, f_max=f_max, kappa=0.0, nu=nu, eta=eta,
                             p_max=math.inf, p_cir=0.0)
    return DeviceProfile(id=j, f_max=f_max, kappa=kappa, nu=nu, eta=eta,
                         p_max=p_max, p_cir=p_cir)


def mk_scenario(tasks, devices, gain=1e-10, bandwidth: float = 2e6,
                noise_w: float = NOISE_W, seed: int = 0) -> Scenario:
    """Assemble a Scenario; `gain` is a scalar or a full (n, n+1) matrix."""
    n = len(tasks)
    gains = np.asarray(gain, dtype=float)
    if gains.ndim == 0:
        gains = np.full((n, n + 1), float(gain))
    assert gains.shape == (n, n + 1)
    return Scenario(tasks=tuple(tasks), devices=tuple(devices), gains=gains,
                    bandwidth=bandwidth, noise_w=noise_w, seed=seed)


def gen(n: int = 10, seed: int = 0, **kw) -> Scenario:
    return generate(GenConfig(n=n, seed=seed, **kw))


CELL_F_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "cell_f.cfg"


def cell_f(**kw) -> dict:
    """The GenConfig fields of the cooperation-rich cell F, as committed in
    configs/cell_f.cfg, with kw set on top: gen(**cell_f(n=40, seed=3))."""
    return {**dataclasses.asdict(read_config(CELL_F_CONFIG)), **kw}


# the fields of a scenario file's task and device lines that edited_scenario sets
TASK_FIELDS = ("cycles", "bits", "deadline", "penalty", "power_price")
DEVICE_FIELDS = ("f_max", "kappa", "nu", "eta")


def edited_scenario(path, sc: Scenario, edits) -> Scenario:
    """Write sc to path, set each (id, field, value) of `edits` in the task
    or device line that field belongs to, and read the file back."""
    write_scenario(sc, path)
    lines = path.read_text().splitlines()
    for ident, name, value in edits:
        kind, fields = ("task", TASK_FIELDS) if name in TASK_FIELDS else ("device", DEVICE_FIELDS)
        i = next(i for i, ln in enumerate(lines) if ln.startswith(f"{kind} {ident} "))
        parts = lines[i].split()
        parts[2 + fields.index(name)] = value
        lines[i] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    return read_scenario(path)


@pytest.fixture
def sc3() -> Scenario:
    return gen(n=3, seed=7)


@pytest.fixture
def sc10() -> Scenario:
    return gen(n=10, seed=0)
