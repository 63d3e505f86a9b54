"""Output checks the benchmark applies to every solve, in code of its own.

Nothing here calls the package's validator or cost model: deadlines, host
capacity, UE power budgets and the system cost are recomputed from the
scenario's raw numbers, so a change that breaks the package's own checks in
the same way as its solvers still shows up here.  The only package calls are
the brute-force oracle and ``cli.ORACLE_SLACK`` in ``check_oracle``, which
compare solvers against an independent exhaustive search.

Every check returns a list of ``Problem``; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

# the validator's relative slack for hard constraints (float round-off)
REL_SLACK = 1e-9
# relative agreement demanded of a recomputed cost; observed agreement is ~1e-15
COST_RTOL = 1e-9
# relative agreement of metrics.csv means with means recomputed from runs.csv
MEAN_RTOL = 1e-12

# (check, algorithm) pairs that the program is known to breach.  They are
# run and printed as KNOWN FAULT, but do not make a run incorrect.
# "drop-bound": every solver sometimes commits uploads whose weighted
# transmit power exceeds the tasks' drop penalties, so the system costs more
# than dropping every task.  maxtask, minpw, decentral and noncope do so on
# the default cell at n=3, seed 5, and on ratio-sweep seed 561 at n=10;
# icrbi on the default cell with seed 4104 and f0_max 6e9.  Which runs
# include such an instance depends on the seed, so gating on it would mark
# the same code correct on one seed and incorrect on the next.  Remove a pair
# once its fault is mended.
KNOWN_FAULTS = frozenset(("drop-bound", a)
                         for a in ("icrbi", "maxtask", "minpw", "decentral", "noncope"))


@dataclass(frozen=True)
class Problem:
    """One breach: ``kind`` names the check, ``detail`` says where and by how
    much, ``algorithm`` names the solver when the check is of one solve."""

    kind: str
    detail: str
    algorithm: str = ""

    @property
    def known(self) -> bool:
        return (self.kind, self.algorithm) in KNOWN_FAULTS

    def __str__(self):
        return f"{self.kind}: {self.detail}"


def csv_number(text: str) -> float:
    """A float cell of the harness CSVs.  Some cells are written as
    ``np.float64(x)`` (numpy 2 repr of a numpy scalar); that is a formatting
    fault of the writer, not a wrong value, so the number inside is read."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def drop_all_cost(sc) -> float:
    """Cost of accomplishing nothing: every UE's circuit draw plus every penalty."""
    return sum(t.power_price * sc.devices[t.id].p_cir + t.penalty for t in sc.tasks)


def system_cost(sc, target, f, p_t) -> float:
    """Total system cost of a decision from its own (target, f, p_t).

    Weighted PA input power for every upload, weighted CPU power for every
    hosted task (the edge server's compute is free), circuit power of every
    UE, and the penalty of every task left out."""
    tasks = {t.id: t for t in sc.tasks}
    transmit = sum(tasks[k].power_price / sc.devices[k].eta * p_t[k]
                   for k, dev in target.items() if dev != k)
    compute = 0.0
    for k, dev in target.items():
        if dev == 0:
            continue
        host = sc.devices[dev]
        compute += tasks[dev].power_price * host.kappa * f[k] ** host.nu
    circuit = sum(t.power_price * sc.devices[t.id].p_cir for t in sc.tasks)
    penalty = sum(t.penalty for t in sc.tasks if t.id not in target)
    return transmit + compute + circuit + penalty


def ue_power(sc, target, f, p_t) -> float:
    """Watts drawn by all UEs: circuit, hosted compute and own PA input."""
    total = 0.0
    for dev in sc.devices[1:]:
        total += dev.p_cir
        total += sum(dev.kappa * f[k] ** dev.nu for k, d in target.items() if d == dev.id)
        if target.get(dev.id, dev.id) != dev.id:
            total += p_t[dev.id] / dev.eta
    return total


def _structure(sc, asg) -> list[Problem]:
    n = len(sc.tasks)
    out = []
    for k, dev in asg.target.items():
        if not (1 <= k <= n and 0 <= dev <= n):
            out.append(Problem("structure", f"task {k} -> device {dev} out of range"))
            continue
        f = asg.f.get(k)
        if f is None or not (math.isfinite(f) and f > 0):
            out.append(Problem("structure", f"task {k}: frequency {f!r}"))
        if dev != k:
            p = asg.p_t.get(k)
            if p is None or not (math.isfinite(p) and p > 0):
                out.append(Problem("structure", f"task {k} -> {dev}: transmit power {p!r}"))
    for k in set(asg.f) - set(asg.target):
        out.append(Problem("structure", f"frequency for unassigned task {k}"))
    return out


def check_solve(sc, algorithm: str, asg) -> list[Problem]:
    """Every per-solve check: structure, deadline (Shannon rate at the stored
    p_t), host capacity, UE power budget, recomputed cost, the drop-everything
    bound, and no helper placement for the non-cooperative baseline."""
    out = _structure(sc, asg)
    if out:
        return out
    tasks = {t.id: t for t in sc.tasks}
    slack = 1.0 + REL_SLACK

    for k, dev in asg.target.items():
        task = tasks[k]
        delay = task.cycles / asg.f[k]
        if dev != k:
            snr = asg.p_t[k] * float(sc.gains[k - 1, dev]) / sc.noise_w
            rate = sc.bandwidth * math.log2(1.0 + snr)
            delay += task.bits / rate if rate > 0 else math.inf
        if not delay <= task.deadline * slack:
            out.append(Problem("deadline", f"task {k} on device {dev}: "
                                           f"{delay:.6g} s > {task.deadline:.6g} s"))

    for host in sc.devices:
        load = sum(asg.f[k] for k, d in asg.target.items() if d == host.id)
        if not load <= host.f_max * slack:
            out.append(Problem("capacity", f"device {host.id}: load {load:.6g} Hz "
                                           f"> f_max {host.f_max:.6g} Hz"))

    for dev in sc.devices[1:]:
        draw = dev.p_cir + sum(dev.kappa * asg.f[k] ** dev.nu
                               for k, d in asg.target.items() if d == dev.id)
        if asg.target.get(dev.id, dev.id) != dev.id:
            draw += asg.p_t[dev.id] / dev.eta
        if not draw <= dev.p_max * slack:
            out.append(Problem("power", f"UE {dev.id}: draw {draw:.6g} W "
                                        f"> p_max {dev.p_max:.6g} W"))

    total = system_cost(sc, asg.target, asg.f, asg.p_t)
    if not _close(total, asg.cost.total, COST_RTOL):
        out.append(Problem("cost", f"{algorithm}: reported {asg.cost.total!r}, "
                                   f"recomputed {total!r}"))
    ceiling = drop_all_cost(sc)
    if not asg.cost.total <= ceiling * slack:
        out.append(Problem("drop-bound", f"{algorithm}: cost {asg.cost.total!r} "
                                         f"> drop-everything cost {ceiling!r}", algorithm))

    if algorithm == "noncope":
        for k, dev in asg.target.items():
            if dev not in (0, k):
                out.append(Problem("noncope-helper", f"task {k} placed on helper UE {dev}"))
    return out


def check_sweep_csv(runs_path, metrics_path, solves) -> list[Problem]:
    """runs.csv must hold one row per solve, in solve order, agreeing with the
    solve's own result; metrics.csv must hold the per-(algorithm, value)
    means of runs.csv."""
    with open(runs_path, newline="", encoding="utf-8") as fh:
        runs = list(csv.DictReader(fh))
    with open(metrics_path, newline="", encoding="utf-8") as fh:
        metrics = list(csv.DictReader(fh))
    out = []
    if len(runs) != len(solves):
        return [Problem("runs.csv", f"{len(runs)} rows for {len(solves)} solves")]
    for i, (row, s) in enumerate(zip(runs, solves)):
        asg = s.assignment
        n = len(s.scenario.tasks)
        want = {"algorithm": s.algorithm, "seed": str(s.scenario.seed),
                "accomplished": str(len(asg.target))}
        bad = [key for key, v in want.items() if row[key] != v]
        if csv_number(row["total_cost"]) != asg.cost.total:
            bad.append("total_cost")
        if not _close(csv_number(row["ratio"]), len(asg.target) / n, MEAN_RTOL):
            bad.append("ratio")
        if not _close(csv_number(row["ue_power_w"]),
                      ue_power(s.scenario, asg.target, asg.f, asg.p_t), COST_RTOL):
            bad.append("ue_power_w")
        if bad:
            out.append(Problem("runs.csv", f"row {i + 1}: {', '.join(bad)} disagree "
                                           f"with the {s.algorithm} solve"))

    groups: dict[tuple[str, str], list[dict]] = {}
    for row in runs:
        groups.setdefault((row["algorithm"], row["sweep_value"]), []).append(row)
    seen = set()
    for row in metrics:
        key = (row["algorithm"], row["sweep_value"])
        seen.add(key)
        grp = groups.get(key)
        if not grp:
            out.append(Problem("metrics.csv", f"{key}: no runs.csv rows"))
            continue
        if int(row["realizations"]) != len(grp):
            out.append(Problem("metrics.csv", f"{key}: realizations "
                                              f"{row['realizations']} != {len(grp)}"))
        for mean_col, run_col in (("mean_total_cost", "total_cost"),
                                  ("mean_accomplished", "accomplished"),
                                  ("accomplished_ratio", "ratio"),
                                  ("mean_ue_power_w", "ue_power_w"),
                                  ("mean_overhead", "overhead")):
            mean = math.fsum(csv_number(r[run_col]) for r in grp) / len(grp)
            if not _close(csv_number(row[mean_col]), mean, MEAN_RTOL):
                out.append(Problem("metrics.csv", f"{key}: {mean_col} {row[mean_col]} "
                                                  f"!= recomputed {mean!r}"))
    for key in set(groups) - seen:
        out.append(Problem("metrics.csv", f"{key}: missing row"))
    return out


def check_oracle(mods, cell: dict, seeds, algorithms) -> list[Problem]:
    """On small instances of a workload's cell, no solver may beat the
    exhaustive optimum by more than the CLI's oracle slack, and every
    solver's output passes ``check_solve``."""
    out = []
    limit = mods.oracle.BRUTE_FORCE_LIMIT
    slack = mods.cli.ORACLE_SLACK
    for seed in seeds:
        sc = mods.scenario.generate(mods.scenario.GenConfig(
            **{**cell, "n": min(3, limit), "seed": seed}))
        ref = mods.oracle.brute_force(sc).cost.total
        for algo in algorithms:
            asg, _ = mods.harness.run_algorithm(sc, algo)
            out += check_solve(sc, algo, asg)
            gap = (asg.cost.total - ref) / ref
            if gap < -slack:
                out.append(Problem("oracle", f"seed {seed}: {algo} beats brute force "
                                             f"by {-gap:.3%} (slack {slack:.1%})"))
    return out


def check_replay(mods, solves) -> list[Problem]:
    """Solving a recorded solve's scenario again gives the same cost and
    placement: a solve must not depend on the solves that ran before it."""
    out = []
    for s in solves:
        if s.assignment is None:
            continue
        asg, _ = mods.harness.run_algorithm(s.scenario, s.algorithm)
        if (asg.cost.total, asg.target) != (s.assignment.cost.total, s.assignment.target):
            out.append(Problem("replay", f"{s.algorithm} seed {s.seed}: cost "
                                         f"{s.assignment.cost.total!r} first, "
                                         f"{asg.cost.total!r} when solved again"))
    return out
