"""Iterative dual-relaxation offloading solver (CLI label: icrbi).

The binary placement variables are relaxed and the coupling constraints
(per-UE power, per-device frequency capacity) are priced by nonnegative
multipliers.  Each iteration minimises the priced objective exactly: for
every admissible (task, device) pair the stationary host frequency is the
root of a strictly increasing scalar function (clamped into the feasibility
window), each task then keeps the cheapest option that beats dropping, with
local execution taking priority whenever it survives the filter.  The
multipliers follow a projected subgradient step; each coordinate's
subgradient is normalised by the constraint magnitude (power budget or CPU
capacity) and preconditioned by a static price scale (the kernel's
mu_scale and v_scale) so one step scale works across the very different
units of power and frequency.

The kernel keeps the admissible remote pairs as a flat list (a few percent
of the (N, N+1) matrix on a default cell) and computes every term that does
not depend on the multipliers once per solve.  The Newton iteration for the
stationary frequencies runs on 1-D arrays and drops each pair as soon as it
is resolved; the per-pair arithmetic is the one a dense evaluation would do,
so the iterates do not depend on the layout.  The local test comes first,
and only the pairs of the tasks whose local option lost are root-solved: a
task that runs locally reads none of its remote pairs, so their stationary
frequencies keep their previous values (the window midpoint before the
first solve), which warm-start the Newton iteration once the task's local
option loses.  A pair solved from such a stale start ends at the same root
to within the root tolerance, not always bit for bit.  A task whose
effective power price w_i + mu_i is zero stays at the lower end of each
window.  The priced pair cost is convex in f, so the clamped stationary
frequency is its minimum over the window: each iteration prices a pair
once, there, and the committed pairs' upload and hosted CPU power come from
those same values.  The edge server's compute is free, so its hosted power
is zero.

The relaxed iterate may violate capacity, so the final decision map is
re-committed through the matching module's residual-budget subproblem
(cheapest-to-place first, edge-server fallback, leftover capacity
redistributed); the returned assignment always validates.

The repair reads only the 0/1 decision map, so the loop stops as soon as
that map stops changing: when no new map has appeared for MAP_STABLE_K
iterations ("map_stable"), unless the relaxed cost settled first
("converged") or the iteration cap came first ("max_iter").  A map-stable
stop probes along the current subgradient with ever longer steps for the
first map the prices would move to, repairs it next to the final map, and
keeps the cheaper (a Lagrangian heuristic in the sense of Fisher,
Management Science 1981).  Both rule-based stops count as converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matching
from .errors import ConfigError, UnknownAlgorithm
from .model import (ROOT_RTOL, Assignment, FeasibilityBounds, Scenario,
                    feasibility_bounds, make_assignment, offload_power_derivs_vec,
                    offload_power_slope_vec, offload_power_vec)

STEP_RULES = ("diminish", "square")
MAX_ITER = 2000         # iteration cap: a run stopped here reports "max_iter"
MAP_STABLE_K = 10       # stop after this many iterations without a new decision map
PROBE_DOUBLINGS = 12    # the exit probe tries steps 2s, 4s, ..., 2**12 s
# Hz: the kernel clamps every window top here.  Far below it the upload curve
# is flat to double precision, and the clamp keeps lo * hi and (T f - c)**2
# finite however large a device's capacity
F_TOP = 1e150


def step_size(rule: str, x0: float, t: int) -> float:
    """Step scale at iteration t (1-based)."""
    if rule == "diminish":
        return x0 / math.sqrt(t)
    if rule == "square":
        return x0 / t
    raise UnknownAlgorithm(f"step rule {rule!r}")


def check_settings(step_rule: str, x0: float, eps: float | None) -> None:
    """Reject an unknown step rule (UnknownAlgorithm), or a step scale or
    eps that cannot run (ConfigError)."""
    if step_rule not in STEP_RULES:
        raise UnknownAlgorithm(f"step rule {step_rule!r}")
    if not (0 < x0 < math.inf and (eps is None or 0 < eps < math.inf)):
        raise ConfigError(f"icrbi needs finite x0 > 0 and finite eps > 0, "
                          f"got x0={x0!r}, eps={eps!r}")


def overhead(n: int) -> int:
    """Signalling scalars of one solve: CSI and task data in, decisions out."""
    return 8 * n + n * (n - 1)


@dataclass
class IcrbiTrace:
    """Per-iteration progress of one solve."""

    reduced_cost: list[float] = field(default_factory=list)
    num_assigned: list[int] = field(default_factory=list)
    mu_norm: list[float] = field(default_factory=list)
    v_norm: list[float] = field(default_factory=list)
    termination: str = ""               # "converged", "map_stable" or "max_iter"
    eps: float = float("nan")
    n_root_pairs: int = 0
    overhead: int = 0

    @property
    def iterations(self) -> int:
        return len(self.reduced_cost)

    @property
    def converged(self) -> bool:
        """Stopped by a rule (settled or map-stable), not by the cap."""
        return self.termination in ("converged", "map_stable")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iteration,reduced_cost,num_assigned,mu_norm,v_norm\n")
            for t in range(self.iterations):
                fh.write(f"{t + 1},{self.reduced_cost[t]!r},{self.num_assigned[t]},"
                         f"{self.mu_norm[t]!r},{self.v_norm[t]!r}\n")


# ---------------------------------------------------------------------------
# pair-list kernel


class _Usage(NamedTuple):
    """The committed pairs of one iterate, as primal priced them, scattered
    into zero (N, N+1) matrices: upload power U(x) at the remote pairs,
    hosted CPU power kappa * x**nu (zero at the edge server), the committed
    frequencies x and the 0/1 decisions."""

    transmit: np.ndarray
    hosted: np.ndarray
    freq: np.ndarray
    a: np.ndarray


class _Kernel:
    """Per-iteration primal/dual maths over the admissible remote pairs.

    Only a valid pair (task i, device j != i) has a stationary frequency, so
    those pairs are kept as a flat list: pair p is (task row ri[p], device
    rj[p]), in row-major order of the (N, N+1) remote mask.  The per-pair
    curve constants and every term that does not depend on the duals (U' at
    both window ends, the window ends raised to nu - 1) are gathered once,
    here.  The decision rule still reads (N, N+1) matrices: primal scatters
    the intercepts of the pairs that beat dropping into them, so the argmin
    tie-break and the local-first priority work on the same values as a
    dense evaluation would.  The dual iterate is a pair of nonnegative
    prices in raw objective units: mu[i-1] adds to UE i's per-watt price
    w_i for its power budget, v[j] prices device j's CPU capacity per cycle/s.
    """

    def __init__(self, sc: Scenario, bounds: FeasibilityBounds):
        n = sc.n
        self.n = n
        self.bandwidth = sc.bandwidth
        self.noise_w = sc.noise_w
        arr = sc.arrays
        self.phi = arr.penalty
        self.w = arr.power_price
        self.eta = arr.eta
        self.p_m = arr.p_m
        self.kappa_d = arr.kappa
        nu_d = arr.nu
        self.kappa_nu = self.kappa_d * nu_d
        self.fmax_d = arr.f_max
        self.host_w = np.concatenate([[0.0], self.w])      # compute price per device
        self.rows = np.arange(n)
        self.own = self.rows + 1
        own_mask = np.zeros((n, n + 1), dtype=bool)
        own_mask[self.rows, self.own] = True
        valid = ~bounds.blocked
        self.local_ok = valid[self.rows, self.own]
        self.f_min = arr.f_min
        self.own_kappa = self.kappa_d[self.own]
        # a blocked local pair is never priced
        self.fmin_nu = np.where(self.local_ok, self.f_min, 0.0) ** nu_d[self.own]

        ri, rj = np.nonzero(valid & ~own_mask)
        self.ri, self.rj = ri, rj
        self.pair_of = np.full((n, n + 1), -1)
        self.pair_of[ri, rj] = np.arange(ri.size)
        # per-pair curve inputs, one row each: cycles, bits, deadline, gain;
        # the Newton step also reads the host's nu - 1 and nu - 2
        self.curve = np.array([arr.cycles[ri], arr.bits[ri], arr.deadline[ri],
                               sc.gains[ri, rj]])
        self.nu = nu_d[rj]
        # the server's compute is free (c1 = 0 at rj == 0), so its power law
        # is never raised: exponent 0 there keeps c1 * f**(nu-1) at zero
        nu1 = np.where(rj > 0, self.nu - 1.0, 0.0)
        nu2 = np.where(rj > 0, self.nu - 2.0, 0.0)
        self.newton_consts = np.vstack([self.curve, nu1, nu2])
        lo = bounds.f_lower[ri, rj]
        hi = np.minimum(bounds.f_upper[ri, rj], F_TOP)
        self.lo, self.hi = lo, hi
        # dual-independent terms
        self.du_lo = offload_power_slope_vec(*self.curve, self.bandwidth, self.noise_w, lo)
        self.du_hi = offload_power_slope_vec(*self.curve, self.bandwidth, self.noise_w, hi)
        # step preconditioners, the price at which each multiplier starts to
        # bite.  Power: UE i's budget competes with its own per-watt price, so
        # mu steps are scaled by w_i.  Frequency: a capacity price only
        # matters once it is comparable to the marginal power cost of one more
        # cycle/s at the fast end, so v steps are scaled by that slope (mean
        # weighted transmit slope U' at the window top of the open server
        # pairs for device 0; the compute-power slope at the speed cap for UE
        # hosts).  Without this, frequency prices sit ~9 orders of magnitude
        # below binding level and the dual loop never moves.  Where no power
        # price gives a slope (every task's w_i = 0), the server's scale falls
        # back to the mean penalty per cycle/s of its capacity: a unit scale
        # there would make the first step price every hosted task out at once.
        w = self.w
        self.mu_scale = np.where(w > 0, w, 1.0)
        self.v_scale = np.ones(n + 1)
        self.v_scale[0] = np.mean(self.phi) / sc.devices[0].f_max
        srv = rj == 0
        if srv.any():
            slope = float(((w / self.eta)[ri[srv]] * np.abs(self.du_hi[srv])).mean())
            if math.isfinite(slope) and slope > 0:
                self.v_scale[0] = slope
        caps = arr.speed_cap.tolist()
        for j in range(1, n + 1):
            dev = sc.devices[j]
            slope = w[j - 1] * dev.kappa * dev.nu * caps[j] ** (dev.nu - 1.0)
            self.v_scale[j] = slope if slope > 0 else self.v_scale[0]
        self.lo_nu1, self.hi_nu1 = lo ** nu1, hi ** nu1
        self.warm_lo, self.warm_hi = lo * (1 + 1e-12), hi * (1 - 1e-12)
        self.mid = np.sqrt(lo * hi)

    def _gamma_batch(self, c1, c2, fixed, live, warm=None):
        """Clamped stationary frequency of every `live` pair, in pair order.

        The marginal g = U' + c1 * f**(nu-1) + c2 is increasing in f, so a
        live pair sits at lo when g(lo) >= 0 (or when `fixed`), at hi when
        g(hi) <= 0, and otherwise at the root that a safeguarded Newton
        iteration finds inside the bracket.  Each step works only on the
        pairs still unresolved.  A pair that is not live is not solved: it
        keeps its warm-start value (the window midpoint without one), ready
        to warm-start a later call in which it is live again."""
        out = np.where(live, self.lo, self.mid if warm is None else warm)
        act = live & ~fixed & (self.du_lo + c1 * self.lo_nu1 + c2 < 0.0)
        take_hi = act & (self.du_hi + c1 * self.hi_nu1 + c2 <= 0.0)
        out[take_hi] = self.hi[take_hi]
        idx = np.flatnonzero(act & ~take_hi)
        if idx.size == 0:
            return out
        if warm is not None:
            x = np.clip(warm[idx], self.warm_lo[idx], self.warm_hi[idx])
        else:
            x = self.mid[idx]
        # one row per quantity, one column per unresolved pair; a and b
        # (the last two rows) bracket the root and are narrowed in place
        s = np.vstack([self.newton_consts[:, idx], c1[idx], c2[idx],
                       self.lo[idx], self.hi[idx]])
        for _ in range(80):
            cyc, bits, dl, gain, nu1, nu2, k1, k2, a, b = s
            du, d2u = offload_power_derivs_vec(cyc, bits, dl, gain, self.bandwidth,
                                               self.noise_w, x)
            xp = x ** nu1
            g = du + k1 * xp + k2
            gp = d2u + k1 * nu1 * x ** nu2
            scale = np.abs(du) + k1 * xp + np.abs(k2)
            done = np.isfinite(g) & (np.abs(g) <= ROOT_RTOL * scale)
            out[idx[done]] = x[done]
            if done.all():
                return out
            neg = ~np.isfinite(g) | (g < 0.0)
            np.copyto(a, x, where=neg)
            np.copyto(b, x, where=~neg)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - g / gp
            ok = np.isfinite(newton) & (newton > a) & (newton < b)
            x = np.where(ok, newton, np.sqrt(a * b))
            narrow = ~done & ((b - a) <= 1e-12 * b)
            out[idx[narrow]] = x[narrow]
            keep = ~(done | narrow)
            if not keep.any():
                return out
            idx, s, x = idx[keep], s[:, keep], x[keep]
        out[idx] = x
        return out

    def primal(self, mu, v, warm=None):
        """One exact minimisation of the priced objective.

        Returns (use, gamma): the committed pairs' power terms, frequencies
        and 0/1 decisions, and the per-pair stationary frequencies, which
        warm-start the next call.  A task whose local option survives never
        reads its remote pairs, so only the pairs of the other tasks are
        root-solved; the rest keep the gamma of `warm` (the window midpoint
        on the first call), which no decision or power term reads."""
        n, ri, rj = self.n, self.ri, self.rj
        wi_eff = self.w + mu
        wh_eff = np.concatenate([[0.0], wi_eff])
        # local execution: the priced cost is increasing in f, so f_min is enough
        lam_local = (wi_eff * self.own_kappa * self.fmin_nu
                     + v[self.own] * self.f_min - self.phi)
        take_local = self.local_ok & (lam_local <= 0.0)
        # a task whose power is free (w_i + mu_i = 0) pays nothing for upload,
        # so its priced pair cost is non-decreasing in f: gamma stays at lo
        free = wi_eff == 0.0
        ratio = self.eta / np.where(free, 1.0, wi_eff)
        c1 = (self.kappa_nu * wh_eff)[rj] * ratio[ri]
        c2 = v[rj] * ratio[ri]
        gamma = self._gamma_batch(c1, c2, free[ri], ~take_local[ri], warm)

        pi = (wi_eff / self.eta)[ri]
        pc = (wh_eff * self.kappa_d)[rj]
        u_g = offload_power_vec(*self.curve, self.bandwidth, self.noise_w, gamma)
        du_g = offload_power_slope_vec(*self.curve, self.bandwidth, self.noise_w, gamma)
        g_nu = np.where(rj > 0, gamma, 0.0) ** self.nu      # the server's compute is free
        # gamma minimises the convex priced pair cost over its window
        lam = pi * u_g + pc * g_nu + v[rj] * gamma - self.phi[ri]
        ok = lam <= 0.0
        with np.errstate(invalid="ignore"):
            icpt = pi[ok] * (u_g[ok] - gamma[ok] * du_g[ok])
        intercept = np.full((n, n + 1), np.inf)
        intercept[ri[ok], rj[ok]] = icpt
        remote_rows = np.zeros(n, dtype=bool)
        remote_rows[ri[ok]] = True
        remote_rows &= ~take_local

        transmit, hosted, x = np.zeros((3, n, n + 1))
        a = np.zeros((n, n + 1), dtype=np.int8)
        lr = self.rows[take_local]
        a[lr, lr + 1] = 1
        x[lr, lr + 1] = self.f_min[take_local]
        hosted[lr, lr + 1] = (self.fmin_nu * self.own_kappa)[take_local]
        if remote_rows.any():
            best = np.argmin(intercept[remote_rows], axis=1)
            rr = self.rows[remote_rows]
            p = self.pair_of[rr, best]
            a[rr, best] = 1
            x[rr, best] = gamma[p]
            transmit[rr, best] = u_g[p]
            hosted[rr, best] = g_nu[p] * self.kappa_d[best]
        return _Usage(transmit, hosted, x, a), gamma

    def dual_step(self, mu, v, use: _Usage, s: float):
        """Projected, preconditioned subgradient step of size s; returns the
        next (mu, v)."""
        transmit_in = use.transmit.sum(axis=1) / self.eta          # PA input watts
        compute_w = use.hosted[:, 1:].sum(axis=0)
        g_mu = self.mu_scale * (transmit_in + compute_w - self.p_m) / self.p_m
        load = use.freq.sum(axis=0)
        g_v = self.v_scale * (load - self.fmax_d) / self.fmax_d
        return np.maximum(0.0, mu + s * g_mu), np.maximum(0.0, v + s * g_v)

    def reduced_cost(self, use: _Usage) -> float:
        transmit = ((self.w / self.eta)[:, None] * use.transmit).sum()
        compute = (use.hosted * self.host_w[None, :]).sum()
        saved = (self.phi * (use.a.sum(axis=1) > 0)).sum()
        return float(transmit + compute - saved)


# ---------------------------------------------------------------------------
# repair


def decisions_from(a: np.ndarray) -> dict[int, int]:
    """Decision matrix -> {task id: device id} map (assigned tasks only)."""
    out = {}
    rows, cols = np.nonzero(a)
    for r, c in zip(rows.tolist(), cols.tolist()):
        out[r + 1] = c
    return out


def _recommit(sc: Scenario, decisions: dict[int, int], bounds: FeasibilityBounds
              ) -> tuple[dict[int, int], dict[int, float]]:
    """The (target, frequencies) a decision map re-commits to under residual
    budgets; see repair_feasibility."""
    state = matching.new_state(sc)
    order = sorted(decisions, key=lambda k: (bounds.f_lower[k - 1, decisions[k]], k))
    for k in order:
        for dev in ([decisions[k]] if decisions[k] == 0 else [decisions[k], 0]):
            f = matching.pair_frequency(sc, state, k, dev)
            if f is not None:
                matching.commit(sc, state, k, dev, f)
                break
    return state.omega, matching.redistribute_mec(state, sc)


def _placed_cost(sc: Scenario, target: dict[int, int], freqs: dict[int, float]) -> float:
    """Upload and host power cost of the placed pairs minus the penalties
    they avoid: the total cost less the terms every map shares."""
    return sum(matching.pair_cost(sc, k, dev, freqs[k]) for k, dev in sorted(target.items()))


def repair_feasibility(sc: Scenario, decisions: dict[int, int],
                       bounds: FeasibilityBounds,
                       rival: dict[int, int] | None = None) -> Assignment:
    """Re-commit a raw decision map under residual budgets.

    Tasks are placed cheapest-to-fit first (ascending static minimum
    frequency at their chosen device); a task that no longer fits falls back
    to the edge server if that still works, otherwise it is dropped.
    Leftover edge capacity is redistributed.  Given a rival map as well,
    both are re-committed and the cheaper is kept, `decisions` on a tie;
    only the kept one is assembled.  The result always validates."""
    target, freqs = _recommit(sc, decisions, bounds)
    if rival is not None:
        alt = _recommit(sc, rival, bounds)
        if _placed_cost(sc, *alt) < _placed_cost(sc, target, freqs):
            target, freqs = alt
    return make_assignment(sc, target, freqs)


# ---------------------------------------------------------------------------
# full solve


def _ray_map(kern: _Kernel, mu, v, use: _Usage, s: float, warm):
    """The first decision map along the subgradient ray from (mu, v) that
    differs from use.a, at steps 2s, 4s, ..., 2**PROBE_DOUBLINGS s; None if
    every probe keeps the map.  The probes leave the iterate alone."""
    for k in range(1, PROBE_DOUBLINGS + 1):
        probe, _ = kern.primal(*kern.dual_step(mu, v, use, s * 2.0 ** k), warm)
        if not np.array_equal(probe.a, use.a):
            return probe.a
    return None


def solve(sc: Scenario, step_rule: str = "diminish", x0: float = 0.1,
          eps: float | None = None) -> tuple[Assignment, IcrbiTrace]:
    """Run the dual iteration until the relaxed cost settles or the decision
    map stops changing, then repair.

    Stops when |C(t) - C(t-1)| < eps (default 1e-4 * |C(1)|), when no new
    0/1 decision map has appeared for MAP_STABLE_K iterations, or after
    MAX_ITER iterations, whichever comes first; trace.termination says which
    ("converged", "map_stable" or "max_iter").  A settled or capped run
    repairs its final decision map.  A map-stable run also probes along the
    current subgradient with ever longer steps (2s, 4s, ..., 2**12 s) for
    the first map that differs, repairs both, and returns the cheaper, the
    final map on a tie.  The probes are not iterations: they add nothing to
    the trace."""
    check_settings(step_rule, x0, eps)
    bounds = feasibility_bounds(sc)
    ray = None
    kern = _Kernel(sc, bounds)
    mu, v = np.zeros(sc.n), np.zeros(sc.n + 1)
    trace = IcrbiTrace(termination="max_iter", n_root_pairs=int(kern.ri.size),
                       overhead=overhead(sc.n))
    warm = None
    prev_cost = None
    seen: set[bytes] = set()
    last_new = 0
    for t in range(1, MAX_ITER + 1):
        use, warm = kern.primal(mu, v, warm)
        cost = kern.reduced_cost(use)
        trace.reduced_cost.append(cost)
        trace.num_assigned.append(int(use.a.sum()))
        trace.mu_norm.append(float(np.linalg.norm(mu)))
        trace.v_norm.append(float(np.linalg.norm(v)))
        key = use.a.tobytes()
        if key not in seen:
            seen.add(key)
            last_new = t
        if len(trace.reduced_cost) == 1:
            trace.eps = eps if eps is not None else max(1e-4 * abs(cost), 1e-12)
        elif abs(cost - prev_cost) < trace.eps:
            trace.termination = "converged"
            break
        s = step_size(step_rule, x0, t)
        if t - last_new >= MAP_STABLE_K:
            trace.termination = "map_stable"
            ray = _ray_map(kern, mu, v, use, s, warm)
            break
        mu, v = kern.dual_step(mu, v, use, s)
        prev_cost = cost
    rival = decisions_from(ray) if ray is not None else None
    return repair_feasibility(sc, decisions_from(use.a), bounds, rival), trace
