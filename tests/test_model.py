"""Transmit-power curve, feasibility windows and cost accounting."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NOISE_W, c5_violations, gen, mk_dev, mk_scenario, mk_task,
                      power_for_rate, reference_assignment_cost, reference_validate_constraints,
                      required_rate, ue_power_scan)
from coopmec import icrbi, model
from coopmec.errors import CoopMecError, DomainError, InfeasibleAssignment
from coopmec.harness import ALGORITHMS, run_algorithm
from coopmec.model import (ROOT_RTOL, Assignment, DeviceProfile, TaskSpec, assignment_cost,
                           balance_root, feasibility_bounds, make_assignment,
                           offload_power, offload_power_derivs, offload_power_slope_vec,
                           offload_power_vec, ue_total_power, validate_constraints)

# Reference operating point: 0.1 Mbit over a 2 MHz link with gain 1e-10,
# 1e7 cycles due in 20 ms.  At f = 1 GHz the exponent is exactly 5 ln 2,
# so U = (7.96e-15 / 1e-10) * (2**5 - 1) = 2.4676e-3 W on the nose.
REF_GAIN = 1e-10


def ref_task() -> TaskSpec:
    return mk_task(1)          # cycles 1e7, bits 1e5, deadline 0.02


def ref_power(f: float) -> float:
    return offload_power(ref_task(), REF_GAIN, 2e6, NOISE_W, f)


def test_reference_point_value():
    assert math.isclose(ref_power(1e9), 2.4676e-3, rel_tol=1e-12)


def test_reference_point_derivatives():
    # frozen from a 50-digit evaluation of the closed form
    u1, u2 = offload_power_derivs(ref_task(), REF_GAIN, 2e6, NOISE_W, 1e9)
    assert math.isclose(u1, -8.8279224916114634607e-12, rel_tol=1e-10)
    assert math.isclose(u2, 6.5906937892756920566e-20, rel_tol=1e-10)


def test_unit_point():
    # sigma2 = h = B = 1, D = 1, F = 1, T = 2: at f = 1 the exponent is ln 2
    task = TaskSpec(id=1, cycles=1.0, bits=1.0, deadline=2.0, penalty=1.0)
    assert math.isclose(offload_power(task, 1.0, 1.0, 1.0, 1.0), 1.0,
                        rel_tol=1e-14)
    u1, _ = offload_power_derivs(task, 1.0, 1.0, 1.0, 1.0)
    assert math.isclose(u1, -2.0 * math.log(2.0), rel_tol=1e-13)


def test_large_f_saturation_value():
    # f -> inf leaves exponent ln2 * D / (T B) = 2.5 ln 2
    expect = 3.706855982595934635384577e-4
    assert math.isclose(ref_power(1e18), expect, rel_tol=1e-6)


def test_rate_power_composition():
    task = ref_task()
    for f in np.geomspace(task.f_min * 1.01, task.f_min * 1e3, 37):
        r = required_rate(task, f)
        want = power_for_rate(REF_GAIN, 2e6, NOISE_W, r)
        assert math.isclose(ref_power(f), want, rel_tol=1e-12)


def test_vectorised_curve_matches_scalar():
    task = ref_task()
    fs = np.geomspace(task.f_min * 1.02, task.f_min * 200, 64)
    u = offload_power_vec(task.cycles, task.bits, task.deadline, REF_GAIN,
                          2e6, NOISE_W, fs)
    u1 = offload_power_slope_vec(task.cycles, task.bits, task.deadline,
                                 REF_GAIN, 2e6, NOISE_W, fs)
    for k, f in enumerate(fs):
        s = ref_power(float(f))
        s1, _ = offload_power_derivs(task, REF_GAIN, 2e6, NOISE_W, float(f))
        assert math.isclose(u[k], s, rel_tol=1e-14)
        assert math.isclose(u1[k], s1, rel_tol=1e-14)


def test_below_fmin_is_domain_error():
    task = ref_task()
    for f in (task.f_min, task.f_min * 0.999, 0.5 * task.f_min):
        with pytest.raises(DomainError):
            offload_power(task, REF_GAIN, 2e6, NOISE_W, f)
        with pytest.raises(DomainError):
            offload_power_derivs(task, REF_GAIN, 2e6, NOISE_W, f)
    assert ref_power(task.f_min * 1.001) > 0.0


def test_overflow_saturates_to_inf():
    # 10 Hz of bandwidth pushes the exponent far past the overflow cap
    task = ref_task()
    assert math.isinf(offload_power(task, REF_GAIN, 10.0, NOISE_W, 6e8))
    u = offload_power_vec(task.cycles, task.bits, task.deadline, REF_GAIN,
                          10.0, NOISE_W, np.array([6e8, 7e8]))
    assert np.isinf(u).all()


def test_huge_bandwidth_keeps_the_second_derivative_finite():
    # bandwidth * (T f - c) overflows to inf, so the term it divides is 0
    task = ref_task()
    for f in (1e9, 1e12):
        denom = task.deadline * f - task.cycles
        u1, u2 = offload_power_derivs(task, 1.0, 1e308, 1e-3, f)
        assert u1 < 0
        assert u2 == -u1 / denom * (2.0 * task.deadline)


def test_underflowing_denominator_saturates():
    # 1e-300 cycles: at twice f_min, T f - c = 1e-300 and its square
    # underflows to zero while the exponent is only 3.5.  The slope there is
    # far below any double, so U' saturates to -inf as it does past the
    # exponent cap, in the scalar and the vector form alike
    task = TaskSpec(id=1, cycles=1e-300, bits=1e5, deadline=0.02, penalty=1.0)
    f = 2.0 * task.f_min
    assert (task.deadline * f - task.cycles)**2 == 0.0
    assert offload_power_derivs(task, REF_GAIN, 2e6, NOISE_W, f) == (-math.inf, math.inf)
    assert 0.0 < offload_power(task, REF_GAIN, 2e6, NOISE_W, f) < math.inf
    u1 = offload_power_slope_vec(task.cycles, task.bits, task.deadline, REF_GAIN,
                                 2e6, NOISE_W, np.array([f, 1e-150]))
    assert u1[0] == -math.inf and -math.inf < u1[1] < 0.0


def test_finite_differences_match_derivatives():
    task = ref_task()
    for f in np.geomspace(task.f_min * 1.05, task.f_min * 100, 101):
        f = float(f)
        h = f * 1e-6
        u1, u2 = offload_power_derivs(task, REF_GAIN, 2e6, NOISE_W, f)
        fd1 = (ref_power(f + h) - ref_power(f - h)) / (2 * h)
        a = offload_power_derivs(task, REF_GAIN, 2e6, NOISE_W, f + h)[0]
        b = offload_power_derivs(task, REF_GAIN, 2e6, NOISE_W, f - h)[0]
        fd2 = (a - b) / (2 * h)
        assert math.isclose(u1, fd1, rel_tol=1e-6)
        assert math.isclose(u2, fd2, rel_tol=1e-6)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=1.02, max_value=50.0),
       b=st.floats(min_value=1.02, max_value=50.0))
def test_curve_is_decreasing_and_convex(a: float, b: float):
    task = ref_task()
    f1, f2 = sorted((a * task.f_min, b * task.f_min))
    u1, u2 = ref_power(f1), ref_power(f2)
    # strict decrease needs a gap above float rounding granularity: inputs
    # one ulp apart can evaluate to values inverted by one rounding step
    if f2 > f1 * (1 + 1e-9):
        assert u1 > u2
    mid = ref_power(0.5 * (f1 + f2))
    assert mid <= 0.5 * (u1 + u2) * (1 + 1e-12)


@pytest.mark.parametrize("guarded", [True, False])
def test_root_started_just_above_f_min_does_not_crawl(monkeypatch, guarded):
    # started just above f_min, where U' is finite but huge, each Newton step
    # moves by about (T f - c)**2 / (ln2 D F / B): unguarded, the root is
    # still near f_min after 200 steps (relative |g| = 1); the geometric
    # bisection after ROOT_NEWTON_STEPS steps meets the tolerance within 80
    task = ref_task()
    c1, c2, a, b = 1e-27 * 3.0 * 0.5, 1e-19, 5.005e8, 3e9
    if guarded:
        monkeypatch.setattr(model, "ROOT_STEPS", 80)
    else:
        monkeypatch.setattr(model, "ROOT_NEWTON_STEPS", model.ROOT_STEPS)
    root = balance_root(task.cycles, task.bits, task.deadline, REF_GAIN, 2e6, NOISE_W,
                        2.0, 1.0, c1, c2, a, b, a * (b / a) ** 1e-3)
    du, _ = offload_power_derivs(task, REF_GAIN, 2e6, NOISE_W, root)
    g, scale = du + c1 * root**2 + c2, abs(du) + c1 * root**2 + c2
    assert a < root < b
    assert (abs(g) <= ROOT_RTOL * scale) == guarded


def test_domain_type_validation():
    with pytest.raises(ValueError):
        TaskSpec(id=0, cycles=1.0, bits=1.0, deadline=1.0, penalty=1.0)
    with pytest.raises(ValueError):
        mk_task(1, deadline=-0.1)
    with pytest.raises(ValueError):
        DeviceProfile(id=1, f_max=1e9, kappa=1e-27, nu=3.0, eta=1.5,
                      p_max=1.0, p_cir=0.1)
    with pytest.raises(ValueError):
        # circuit draw alone exhausts the budget
        DeviceProfile(id=1, f_max=1e9, kappa=1e-27, nu=3.0, eta=0.5,
                      p_max=0.1, p_cir=0.1)
    with pytest.raises(ValueError, match="p_cir >= 0"):
        DeviceProfile(id=1, f_max=1e9, kappa=1e-27, nu=3.0, eta=0.5,
                      p_max=-1.0, p_cir=-1.0000000005)


TASK = dict(id=1, cycles=1e8, bits=2e5, deadline=0.05, penalty=40.0, power_price=1.0)
DEVICE = dict(id=2, f_max=1e9, kappa=1e-27, nu=3.0, eta=0.5, p_max=1.0, p_cir=0.1,
              position=(10.0, 20.0))
INF, NAN = math.inf, math.nan
# (constructor, fields set, the error's text); a position is given as position x or y
NON_FINITE_CASES = [
    (TaskSpec, {"cycles": INF}, "task 1: cycles must be finite, got inf"),
    (TaskSpec, {"cycles": -INF}, "task 1: cycles must be finite, got -inf"),
    (TaskSpec, {"cycles": NAN}, "task 1: cycles must be finite, got nan"),
    (TaskSpec, {"bits": INF}, "task 1: bits must be finite, got inf"),
    (TaskSpec, {"bits": -INF}, "task 1: bits must be finite, got -inf"),
    (TaskSpec, {"bits": NAN}, "task 1: bits must be finite, got nan"),
    (TaskSpec, {"deadline": INF}, "task 1: deadline must be finite, got inf"),
    (TaskSpec, {"deadline": -INF}, "task 1: deadline must be finite, got -inf"),
    (TaskSpec, {"deadline": NAN}, "task 1: deadline must be finite, got nan"),
    (TaskSpec, {"penalty": INF}, "task 1: penalty must be finite, got inf"),
    (TaskSpec, {"penalty": -INF}, "task 1: penalty must be finite, got -inf"),
    (TaskSpec, {"penalty": NAN}, "task 1: penalty must be finite, got nan"),
    (TaskSpec, {"power_price": INF}, "task 1: power_price must be finite, got inf"),
    (TaskSpec, {"power_price": -INF}, "task 1: power_price must be finite, got -inf"),
    (TaskSpec, {"power_price": NAN}, "task 1: power_price must be finite, got nan"),
    (DeviceProfile, {"f_max": INF}, "device 2: f_max must be finite, got inf"),
    (DeviceProfile, {"f_max": -INF}, "device 2: f_max must be finite, got -inf"),
    (DeviceProfile, {"f_max": NAN}, "device 2: f_max must be finite, got nan"),
    (DeviceProfile, {"kappa": INF}, "device 2: kappa must be finite, got inf"),
    (DeviceProfile, {"kappa": -INF}, "device 2: kappa must be finite, got -inf"),
    (DeviceProfile, {"kappa": NAN}, "device 2: kappa must be finite, got nan"),
    (DeviceProfile, {"nu": INF}, "device 2: nu must be finite, got inf"),
    (DeviceProfile, {"nu": -INF}, "device 2: nu must be finite, got -inf"),
    (DeviceProfile, {"nu": NAN}, "device 2: nu must be finite, got nan"),
    (DeviceProfile, {"eta": INF}, "device 2: eta must be finite, got inf"),
    (DeviceProfile, {"eta": -INF}, "device 2: eta must be finite, got -inf"),
    (DeviceProfile, {"eta": NAN}, "device 2: eta must be finite, got nan"),
    (DeviceProfile, {"p_max": INF}, "device 2: p_max must be finite, got inf"),
    (DeviceProfile, {"p_max": -INF}, "device 2: p_max must be finite, got -inf"),
    (DeviceProfile, {"p_max": NAN}, "device 2: p_max must be finite, got nan"),
    (DeviceProfile, {"p_cir": INF}, "device 2: p_cir must be finite, got inf"),
    (DeviceProfile, {"p_cir": -INF}, "device 2: p_cir must be finite, got -inf"),
    (DeviceProfile, {"p_cir": NAN}, "device 2: p_cir must be finite, got nan"),
    (DeviceProfile, {"position x": INF}, "device 2: position x must be finite, got inf"),
    (DeviceProfile, {"position x": -INF}, "device 2: position x must be finite, got -inf"),
    (DeviceProfile, {"position x": NAN}, "device 2: position x must be finite, got nan"),
    (DeviceProfile, {"position y": INF}, "device 2: position y must be finite, got inf"),
    (DeviceProfile, {"position y": -INF}, "device 2: position y must be finite, got -inf"),
    (DeviceProfile, {"position y": NAN}, "device 2: position y must be finite, got nan"),
    # only the grid-powered server may have p_max inf
    (DeviceProfile, {"id": 0, "p_cir": 0.0, "p_max": -INF},
     "device 0: p_max must be finite, got -inf"),
    (DeviceProfile, {"id": 0, "p_cir": 0.0, "p_max": NAN},
     "device 0: p_max must be finite, got nan"),
    # two bad fields: the first in the check's order is named
    (TaskSpec, {"bits": NAN, "penalty": INF}, "task 1: bits must be finite, got nan"),
    (TaskSpec, {"power_price": NAN, "cycles": -INF}, "task 1: cycles must be finite, got -inf"),
    (DeviceProfile, {"p_max": NAN, "kappa": INF}, "device 2: kappa must be finite, got inf"),
    (DeviceProfile, {"position x": NAN, "p_cir": INF}, "device 2: p_cir must be finite, got inf"),
    (DeviceProfile, {"position y": NAN, "p_max": INF}, "device 2: p_max must be finite, got inf"),
]


def record(cls, fields: dict):
    """A TaskSpec or DeviceProfile of the valid TASK or DEVICE with fields set."""
    if cls is TaskSpec:
        return TaskSpec(**dict(TASK, **fields))
    kw = dict(DEVICE, **fields)
    kw["position"] = (kw.pop("position x", 10.0), kw.pop("position y", 20.0))
    return DeviceProfile(**kw)


@pytest.mark.parametrize("cls, fields, message", NON_FINITE_CASES)
def test_a_non_finite_record_field_names_itself(cls, fields, message):
    with pytest.raises(ValueError) as exc:
        record(cls, fields)
    assert str(exc.value) == message


def test_only_the_server_may_have_an_infinite_power_budget():
    assert record(DeviceProfile, {"id": 0, "p_cir": 0.0, "p_max": INF}).p_max == INF
    with pytest.raises(ValueError) as exc:
        record(DeviceProfile, {"p_max": INF})
    assert str(exc.value) == "device 2: p_max must be finite, got inf"


def test_device_speed_cap():
    # the edge server has no power constraint at all, however large its kappa
    server = DeviceProfile(id=0, f_max=5e9, kappa=1.0, nu=3.0, eta=0.5, p_max=math.inf,
                           p_cir=0.0)
    # power-limited: ((1.1 - 0.1) / 1e-27) ** (1/3) = 1e9 < f_max
    ue = mk_dev(1, f_max=2e9, p_max=1.1, p_cir=0.1)
    # capacity-limited
    fast = mk_dev(2, f_max=2e9, p_max=100.0)
    sc = mk_scenario([mk_task(1), mk_task(2)], [server, ue, fast])
    top, slow, quick = sc.arrays.speed_cap.tolist()
    assert top == 5e9
    assert math.isclose(slow, 1e9, rel_tol=1e-12)
    assert quick == 2e9


def test_speed_cap_clamps_every_window_top():
    assert model.speed_cap(1e300, math.inf, 0.0, 3.0) == model.F_TOP
    # p_m / kappa overflows for a subnormal kappa: the ratio of the two roots
    assert math.isclose(model.speed_cap(1e300, 0.1, 1e-320, 3.0),
                        0.1 ** (1 / 3) / 1e-320 ** (1 / 3), rel_tol=1e-12)
    assert model.speed_cap(1e300, 0.1, 1e-320, 2.0) == model.F_TOP
    assert model.speed_cap(1e9, 0.0, 1e-27, 3.0) == 0.0     # no budget left


def test_bounds_block_oversized_tasks_on_ues():
    # f_min = 1e8 / 0.02 = 5 GHz exceeds every UE CPU; after ~4 ms of upload
    # the server must run ~6.25 GHz, which an 8 GHz server still fits
    tasks = [mk_task(1, cycles=1e8), mk_task(2)]
    devices = [mk_dev(0, f_max=8e9), mk_dev(1), mk_dev(2)]
    b = feasibility_bounds(mk_scenario(tasks, devices))
    assert b.blocked[0, 1] and b.blocked[0, 2]
    assert not b.blocked[0, 0]
    assert not b.blocked[1, 2]          # the small task fits a helper


def test_bounds_block_unreachable_uplinks():
    # at gain 1e-18 the full-budget rate is ~100 bps, so 0.1 Mbit never
    # arrives inside the deadline: every remote column is blocked
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)],
                     gain=1e-18)
    b = feasibility_bounds(sc)
    assert b.blocked[0, 0]
    assert not b.blocked[0, 1]          # local execution is unaffected
    arr = sc.arrays
    rate = sc.bandwidth * math.log2(1 + sc.gains.item(0, 0) * arr.eta[0] * arr.p_m[0] / sc.noise_w)
    assert rate < 1e5 / 0.02


def test_bounds_lower_upper_consistency(sc10):
    b = feasibility_bounds(sc10)
    ok = ~b.blocked
    top = np.broadcast_to(sc10.arrays.speed_cap, b.f_lower.shape)
    assert (b.f_lower[ok] <= top[ok] * (1 + 1e-12)).all()
    for i in range(1, sc10.n + 1):
        if not b.blocked[i - 1, i]:
            assert math.isclose(b.f_lower[i - 1, i], sc10.tasks[i - 1].f_min,
                                rel_tol=1e-12)


def test_empty_assignment_cost():
    tasks = [mk_task(1, penalty=40.0), mk_task(2, penalty=45.0)]
    sc = mk_scenario(tasks, [mk_dev(0, f_max=5e9), mk_dev(1), mk_dev(2)])
    cost, p_t = assignment_cost(sc, {}, {})
    assert p_t == {}
    assert math.isclose(cost.total, 2 * 0.1 + 85.0, rel_tol=1e-12)
    assert cost.reduced == 0.0
    assert cost.transmit == 0.0 and cost.compute == 0.0


def test_single_local_task_cost():
    tasks = [mk_task(1, penalty=40.0), mk_task(2, penalty=45.0)]
    sc = mk_scenario(tasks, [mk_dev(0, f_max=5e9), mk_dev(1), mk_dev(2)])
    f = tasks[0].f_min
    cost, p_t = assignment_cost(sc, {1: 1}, {1: f})
    assert p_t == {}
    compute = 1e-27 * f ** 3
    assert math.isclose(cost.total, compute + 0.2 + 45.0, rel_tol=1e-12)
    assert math.isclose(cost.reduced, compute - 40.0, rel_tol=1e-12)


def test_cost_does_not_depend_on_the_target_order():
    # every task runs locally, so the avoided penalties sum to the scenario's
    # penalty_total when they add up in task order; in reverse order they do
    # not (a penalty term of 2.8e-14 instead of 0.0)
    sc = gen(n=4, kappa=1e-320, f_ue=(1e300, 1e300))
    for algo in ALGORITHMS:
        asg, _ = run_algorithm(sc, algo)
        assert asg.target == {k: k for k in range(1, 5)}
        backward, _ = assignment_cost(sc, dict(reversed(asg.target.items())), asg.f)
        assert backward == asg.cost
        assert asg.cost.penalty == 0.0


def test_total_reduced_identity(sc10):
    # total and reduced differ by the constant circuit + penalty mass
    const = (sum(t.power_price * sc10.devices[t.id].p_cir for t in sc10.tasks)
             + sum(t.penalty for t in sc10.tasks))
    for target, freqs in ({}, {}), ({1: 1}, {1: sc10.tasks[0].f_min}):
        cost, _ = assignment_cost(sc10, target, freqs)
        assert math.isclose(cost.total - cost.reduced, const, rel_tol=1e-12)


def test_offloading_charges_owner_transmit_power():
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)])
    cost, p_t = assignment_cost(sc, {1: 0}, {1: 1e9})
    u = ref_power(1e9)
    assert math.isclose(p_t[1], u, rel_tol=1e-12)
    assert math.isclose(cost.transmit, u / 0.5, rel_tol=1e-12)
    assert cost.compute == 0.0          # edge-server cycles are free


def test_validate_flags_capacity_breach():
    tasks = [mk_task(1), mk_task(2)]
    sc = mk_scenario(tasks, [mk_dev(0, f_max=5e9), mk_dev(1, p_max=10.0),
                             mk_dev(2, p_max=10.0)])
    cost, p_t = assignment_cost(sc, {1: 1, 2: 1}, {1: 0.8e9, 2: 0.8e9})
    asg = Assignment(target={1: 1, 2: 1}, f={1: 0.8e9, 2: 0.8e9},
                     p_t=p_t, cost=cost)
    kinds = {v.constraint for v in validate_constraints(sc, asg)}
    assert "C4" in kinds
    with pytest.raises(InfeasibleAssignment):
        make_assignment(sc, asg.target, asg.f)


def test_validate_flags_power_breach():
    # hosting at 0.99 GHz costs ~0.97 W compute + 0.1 W circuit > 1 W budget
    tasks = [mk_task(1), mk_task(2)]
    sc = mk_scenario(tasks, [mk_dev(0, f_max=5e9), mk_dev(1), mk_dev(2)])
    cost, p_t = assignment_cost(sc, {2: 1}, {2: 0.99e9})
    asg = Assignment(target={2: 1}, f={2: 0.99e9}, p_t=p_t, cost=cost)
    vs = validate_constraints(sc, asg)
    assert [v.constraint for v in vs] == ["C5"]
    assert vs[0].device == 1


def test_validate_flags_missed_deadline():
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)])
    cost, p_t = assignment_cost(sc, {1: 1}, {1: 4e8})   # f_min is 5e8
    asg = Assignment(target={1: 1}, f={1: 4e8}, p_t=p_t, cost=cost)
    vs = validate_constraints(sc, asg)
    assert [v.constraint for v in vs] == ["C3"]


def test_validate_accepts_clean_assignment():
    sc = mk_scenario([mk_task(1)], [mk_dev(0, f_max=5e9), mk_dev(1)])
    asg = make_assignment(sc, {1: 1}, {1: sc.tasks[0].f_min})
    assert validate_constraints(sc, asg) == []
    assert asg.accomplished == 1


@pytest.mark.parametrize("target, f", [({1: 5}, 5e9), ({4: 0}, 5e9), ({0: 0}, 1e3),
                                       ({-1: 1}, 5e9)],
                         ids=["device5", "task4", "task0", "task-1"])
def test_validate_reports_an_out_of_range_id_as_c2_only(target, f):
    # the entry is reported once, as C2, and left out of C3-C5: it once raised
    # IndexError ({1: 5}, {4: 0}), missed task 3's deadline at 1 kHz ({0: 0})
    # or broke UE 1's power budget at 5 GHz ({-1: 1})
    sc = gen(n=3, seed=1)
    (k, dev), = target.items()
    asg = Assignment(target=target, f={k: f}, p_t={k: 1.0},
                     cost=assignment_cost(sc, {}, {})[0])
    assert validate_constraints(sc, asg) == [model.Violation("C2", k, dev, math.inf)]


def test_ue_total_power_accounting():
    tasks = [mk_task(1), mk_task(2)]
    sc = mk_scenario(tasks, [mk_dev(0, f_max=5e9), mk_dev(1), mk_dev(2)])
    asg = make_assignment(sc, {1: 1, 2: 0}, {1: 5e8, 2: 1e9})
    want = 0.2 + 1e-27 * 5e8 ** 3 + asg.p_t[2] / 0.5
    assert math.isclose(ue_total_power(sc, asg), want, rel_tol=1e-12)


POWER_CELLS = {"default": {}, "f0_8e9": dict(f0_max=8e9),
               "steep": dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2)}


@st.composite
def scenario_and_assignment(draw):
    """A generated scenario with either a solver's (valid) assignment or a
    random one: any task on any device, frequencies up to 1.5x the host's
    capacity, transmit powers up to twice the owner's budget, now and then
    a missing frequency, and the target map in random insertion order."""
    n = draw(st.integers(1, 12))
    cell = POWER_CELLS[draw(st.sampled_from(sorted(POWER_CELLS)))]
    sc = gen(n=n, seed=draw(st.integers(0, 10_000)), **cell)
    if draw(st.booleans()):
        with mock.patch.object(icrbi, "MAX_ITER", 50):
            asg, _ = run_algorithm(sc, draw(st.sampled_from(ALGORITHMS)))
        return sc, asg
    devices = draw(st.lists(st.one_of(st.none(), st.integers(0, n)),
                            min_size=n, max_size=n))
    target, f, p_t = {}, {}, {}
    for k in draw(st.permutations(range(1, n + 1))):
        dev = devices[k - 1]
        if dev is None:
            continue
        target[k] = dev
        if draw(st.integers(0, 9)):
            f[k] = draw(st.floats(0.01, 1.5)) * sc.devices[dev].f_max
        if dev != k:
            p_t[k] = draw(st.floats(0.0, 2.0)) * sc.devices[k].p_max
    cost, _ = assignment_cost(sc, {}, {})
    return sc, Assignment(target=target, f=f, p_t=p_t, cost=cost)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=scenario_and_assignment())
def test_power_checks_match_quadratic_scan(case):
    sc, asg = case
    c5 = [v for v in validate_constraints(sc, asg) if v.constraint == "C5"]
    assert c5 == c5_violations(sc, asg)
    assert ue_total_power(sc, asg) == ue_power_scan(sc, asg)


def _priced(cost_fn, sc, asg):
    try:
        return cost_fn(sc, asg.target, asg.f)
    except (CoopMecError, KeyError) as exc:     # a missing frequency, or one at f_min
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=scenario_and_assignment())
def test_one_pass_checks_match_the_reference(case):
    # validate_constraints and assignment_cost against verbatim copies of
    # their multi-pass forms: the same violations (kind, task, device,
    # amount, order), the same cost breakdown and transmit powers
    sc, asg = case
    assert validate_constraints(sc, asg) == reference_validate_constraints(sc, asg)
    assert _priced(assignment_cost, sc, asg) == _priced(reference_assignment_cost, sc, asg)
