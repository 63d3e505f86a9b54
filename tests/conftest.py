"""Shared builders for hand-made and generated problem instances.

Hand-built instances stay in the same physical regime as the generator
defaults (2 MHz channels, -174 dBm/Hz noise floor, GHz-scale CPUs) so that
closed-form expectations remain easy to verify on paper.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from coopmec.errors import DomainError
from coopmec.model import (CHECK_TOL, EXP_CAP, LN2, DeviceProfile, Scenario, TaskSpec,
                           Violation)
from coopmec.scenario import GenConfig, generate

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


def c5_violations(sc: Scenario, asg) -> list[Violation]:
    """UE power-budget breaches (C5), scanning every target for every UE:
    the O(N^2) reference for model.validate_constraints."""
    out = []
    for i in range(1, sc.n + 1):
        dev = sc.device(i)
        draw = dev.p_cir
        draw += dev.kappa * sum(asg.f.get(k, 0.0) ** dev.nu
                                for k, tgt in asg.target.items() if tgt == i)
        if asg.target.get(i) not in (None, i):
            draw += asg.p_t.get(i, 0.0) / dev.eta
        if draw > dev.p_max * (1.0 + CHECK_TOL):
            out.append(Violation("C5", None, i, draw - dev.p_max))
    return out


def ue_power_scan(sc: Scenario, asg) -> float:
    """Total UE watts by the same O(N^2) scan: the reference for
    model.ue_total_power."""
    total = 0.0
    for i in range(1, sc.n + 1):
        dev = sc.device(i)
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


@pytest.fixture
def sc3() -> Scenario:
    return gen(n=3, seed=7)


@pytest.fixture
def sc10() -> Scenario:
    return gen(n=10, seed=0)
