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
capacity) and preconditioned by a static price scale (dual_scales) so one
step scale works across the very different units of power and frequency.

The relaxed iterate may violate capacity, so the final decision map is
re-committed through the matching module's residual-budget subproblem
(cheapest-to-place first, edge-server fallback, leftover capacity
redistributed); the returned assignment always validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matching
from .errors import InfeasiblePair, NonConvergence, UnknownAlgorithm
from .model import (Assignment, FeasibilityBounds, Scenario, balance_root,
                    device_speed_cap, feasibility_bounds, make_assignment,
                    offload_power_derivs_vec, offload_power_vec)

STEP_RULES = ("diminish", "square")


def step_size(rule: str, x0: float, t: int) -> float:
    """Step scale at iteration t (1-based)."""
    if rule == "diminish":
        return x0 / math.sqrt(t)
    if rule == "square":
        return x0 / t
    raise UnknownAlgorithm(f"step rule {rule!r}")


@dataclass(frozen=True)
class DualState:
    """Nonnegative constraint prices, in raw objective units.

    mu[i-1] prices UE i's power budget (adds to the task's per-watt price
    w_i), v[j] prices device j's CPU capacity (per cycle/s).  Updates use
    magnitude-normalised subgradients preconditioned by dual_scales() so a
    handful of O(0.1) steps reaches binding-level prices in either unit.
    """

    mu: np.ndarray
    v: np.ndarray
    step_rule: str = "diminish"
    x0: float = 0.1
    t: int = 1

    @classmethod
    def zeros(cls, n: int, step_rule: str = "diminish", x0: float = 0.1) -> "DualState":
        return cls(mu=np.zeros(n), v=np.zeros(n + 1), step_rule=step_rule, x0=x0)


@dataclass
class IcrbiTrace:
    """Per-iteration progress of one solve."""

    reduced_cost: list[float] = field(default_factory=list)
    num_assigned: list[int] = field(default_factory=list)
    mu_norm: list[float] = field(default_factory=list)
    v_norm: list[float] = field(default_factory=list)
    termination: str = ""
    eps: float = float("nan")
    n_root_pairs: int = 0

    @property
    def iterations(self) -> int:
        return len(self.reduced_cost)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iteration,reduced_cost,num_assigned,mu_norm,v_norm\n")
            for t in range(self.iterations):
                fh.write(f"{t + 1},{self.reduced_cost[t]!r},{self.num_assigned[t]},"
                         f"{self.mu_norm[t]!r},{self.v_norm[t]!r}\n")


def dual_scales(sc: Scenario, bounds: FeasibilityBounds) -> tuple[np.ndarray, np.ndarray]:
    """Per-constraint step preconditioners: the price at which each
    multiplier starts to bite.

    Power: UE i's budget competes with its own per-watt price, so mu steps
    are scaled by w_i.  Frequency: a capacity price only matters once it is
    comparable to the marginal power cost of one more cycle/s at the fast
    end, so v steps are scaled by that slope (mean weighted transmit slope
    into the edge server for device 0; the compute-power slope at the speed
    cap for UE hosts).  Without this, frequency prices sit ~9 orders of
    magnitude below binding level and the dual loop never moves."""
    n = sc.n
    w = np.array([t.power_price for t in sc.tasks])
    mu_scale = np.where(w > 0, w, 1.0)
    v_scale = np.ones(n + 1)
    valid0 = ~bounds.blocked[:, 0]
    if valid0.any():
        cyc = np.array([t.cycles for t in sc.tasks])
        bits = np.array([t.bits for t in sc.tasks])
        dl = np.array([t.deadline for t in sc.tasks])
        eta = np.array([sc.devices[i].eta for i in range(1, n + 1)])
        f_up = np.where(valid0, bounds.f_upper[:, 0], 2.0 * cyc / dl)
        du, _ = offload_power_derivs_vec(cyc, bits, dl, sc.gains[:, 0],
                                         sc.bandwidth, sc.noise_w, f_up)
        slopes = (w / eta) * np.abs(du)
        mean_slope = float(slopes[valid0].mean())
        if math.isfinite(mean_slope) and mean_slope > 0:
            v_scale[0] = mean_slope
    for j in range(1, n + 1):
        dev = sc.devices[j]
        cap = device_speed_cap(dev)
        slope = w[j - 1] * dev.kappa * dev.nu * cap ** (dev.nu - 1.0)
        v_scale[j] = slope if slope > 0 else v_scale[0]
    return mu_scale, v_scale


# ---------------------------------------------------------------------------
# vectorised kernel


class _Kernel:
    """Flattened scenario arrays plus the per-iteration primal/dual maths."""

    def __init__(self, sc: Scenario, bounds: FeasibilityBounds):
        self.sc = sc
        n = sc.n
        self.n = n
        self.cycles = np.array([t.cycles for t in sc.tasks])[:, None]
        self.bits = np.array([t.bits for t in sc.tasks])[:, None]
        self.deadline = np.array([t.deadline for t in sc.tasks])[:, None]
        self.phi = np.array([t.penalty for t in sc.tasks])
        self.w = np.array([t.power_price for t in sc.tasks])
        self.eta = np.array([sc.devices[i].eta for i in range(1, n + 1)])
        self.p_m = np.array([sc.devices[i].p_m for i in range(1, n + 1)])
        self.kappa_d = np.array([d.kappa for d in sc.devices])
        self.nu_d = np.array([d.nu for d in sc.devices])
        self.fmax_d = np.array([d.f_max for d in sc.devices])
        self.gains = sc.gains
        self.rows = np.arange(n)
        self.own = self.rows + 1
        own_mask = np.zeros((n, n + 1), dtype=bool)
        own_mask[self.rows, self.own] = True
        self.own_mask = own_mask
        self.valid = ~bounds.blocked
        self.remote = self.valid & ~own_mask
        self.local_ok = self.valid[self.rows, self.own]
        self.lo = np.where(self.remote, bounds.f_lower, 1.0)
        self.hi = np.where(self.remote, bounds.f_upper, 2.0)
        self.f_min = (self.cycles / self.deadline)[:, 0]
        self.host_w = np.concatenate([[0.0], self.w])      # compute price per device
        self.mu_scale, self.v_scale = dual_scales(sc, bounds)

    def _u(self, x):
        return offload_power_vec(self.cycles, self.bits, self.deadline, self.gains,
                                 self.sc.bandwidth, self.sc.noise_w, x)

    def _du(self, x):
        return offload_power_derivs_vec(self.cycles, self.bits, self.deadline,
                                        self.gains, self.sc.bandwidth,
                                        self.sc.noise_w, x)

    def _coeffs(self, duals: DualState):
        wi_eff = self.w + duals.mu
        wh_eff = np.concatenate([[0.0], self.w + duals.mu])
        c1 = (self.kappa_d * self.nu_d * wh_eff)[None, :] * (self.eta / wi_eff)[:, None]
        c2 = duals.v[None, :] * (self.eta / wi_eff)[:, None]
        return wi_eff, wh_eff, duals.v, c1, c2

    def _gamma_batch(self, c1, c2, warm=None, rtol=1e-9):
        """Clamped stationary frequencies for all admissible remote pairs."""
        act = self.remote.copy()
        lo, hi = self.lo, self.hi
        nu1 = (self.nu_d - 1.0)[None, :]
        nu2 = (self.nu_d - 2.0)[None, :]

        def g_of(x):
            du, d2u = self._du(np.where(act0, x, 2.0))
            xp = x ** nu1
            g = du + c1 * xp + c2
            gp = d2u + c1 * nu1 * x ** nu2
            scale = np.abs(du) + c1 * xp + np.abs(c2)
            return g, gp, scale

        act0 = act
        out = np.where(self.remote, lo, 0.0)
        g_lo, _, _ = g_of(lo)
        act = act & (g_lo < 0.0)
        g_hi, _, _ = g_of(hi)
        take_hi = act & (g_hi <= 0.0)
        out = np.where(take_hi, hi, out)
        act = act & ~take_hi

        if not act.any():
            return out
        a = lo.copy()
        b = hi.copy()
        if warm is not None:
            x = np.clip(warm, lo * (1 + 1e-12), hi * (1 - 1e-12))
        else:
            x = np.sqrt(lo * hi)
        act0 = act
        for _ in range(80):
            g, gp, scale = g_of(x)
            done = act & np.isfinite(g) & (np.abs(g) <= rtol * scale)
            out = np.where(done, x, out)
            act = act & ~done
            if not act.any():
                break
            neg = ~np.isfinite(g) | (g < 0.0)
            a = np.where(act & neg, x, a)
            b = np.where(act & ~neg, x, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - g / gp
            ok = np.isfinite(newton) & (newton > a) & (newton < b)
            x_new = np.where(ok, newton, np.sqrt(a * b))
            narrow = act & ((b - a) <= 1e-12 * b)
            out = np.where(narrow, x_new, out)
            act = act & ~narrow
            x = np.where(act, x_new, x)
            if not act.any():
                break
        out = np.where(act, x, out)
        return out

    def primal(self, duals: DualState, warm=None):
        """One exact minimisation of the priced objective.

        Returns (x, a, gamma): committed frequencies, 0/1 decisions, and the
        full stationary-frequency matrix (for warm starting)."""
        n = self.n
        wi_eff, wh_eff, v_raw, c1, c2 = self._coeffs(duals)
        gamma = self._gamma_batch(c1, c2, warm)

        price_i = (wi_eff / self.eta)[:, None]
        comp_price = (wh_eff * self.kappa_d)[None, :]

        def lam_remote(x):
            return (price_i * self._u(x) + comp_price * x ** self.nu_d[None, :]
                    + v_raw[None, :] * x - self.phi[:, None])

        big = np.inf
        lam_min = np.where(self.remote,
                           np.minimum(np.minimum(lam_remote(self.lo),
                                                 lam_remote(self.hi)),
                                      lam_remote(gamma)),
                           big)
        # local execution: the priced cost is increasing in f, so f_min is enough
        own_kappa = self.kappa_d[self.own]
        own_nu = self.nu_d[self.own]
        lam_local = (wi_eff * own_kappa * self.f_min ** own_nu
                     + v_raw[self.own] * self.f_min - self.phi)
        lam_min[self.rows, self.own] = np.where(self.local_ok, lam_local, big)

        mtilde = self.valid & (lam_min <= 0.0)

        du_g, _ = self._du(np.where(self.remote, gamma, 2.0))
        with np.errstate(invalid="ignore"):
            intercept = price_i * (self._u(gamma) - gamma * du_g)
        intercept = np.where(mtilde & self.remote, intercept, np.inf)

        a = np.zeros((n, n + 1), dtype=np.int8)
        x = np.zeros((n, n + 1))
        any_option = mtilde.any(axis=1)
        take_local = mtilde[self.rows, self.own]
        remote_rows = any_option & ~take_local
        a[self.rows[take_local], self.own[take_local]] = 1
        x[self.rows[take_local], self.own[take_local]] = self.f_min[take_local]
        if remote_rows.any():
            best = np.argmin(intercept[remote_rows], axis=1)
            rr = self.rows[remote_rows]
            a[rr, best] = 1
            x[rr, best] = gamma[rr, best]
        return x, a, gamma

    def dual_step(self, duals: DualState, x, a) -> DualState:
        used_t = np.where(self.remote & (a > 0), self._u(x), 0.0)
        transmit_in = used_t.sum(axis=1) / self.eta                # PA input watts
        hosted = (np.where(a > 0, x, 0.0) ** self.nu_d[None, :]) * self.kappa_d[None, :]
        compute_w = hosted[:, 1:].sum(axis=0)
        g_mu = self.mu_scale * (transmit_in + compute_w - self.p_m) / self.p_m
        load = np.where(a > 0, x, 0.0).sum(axis=0)
        g_v = self.v_scale * (load - self.fmax_d) / self.fmax_d
        s = step_size(duals.step_rule, duals.x0, duals.t)
        return DualState(mu=np.maximum(0.0, duals.mu + s * g_mu),
                         v=np.maximum(0.0, duals.v + s * g_v),
                         step_rule=duals.step_rule, x0=duals.x0, t=duals.t + 1)

    def reduced_cost(self, x, a) -> float:
        used_t = np.where(self.remote & (a > 0), self._u(x), 0.0)
        transmit = ((self.w / self.eta)[:, None] * used_t).sum()
        hosted = (np.where(a > 0, x, 0.0) ** self.nu_d[None, :]) * self.kappa_d[None, :]
        compute = (hosted * self.host_w[None, :]).sum()
        saved = (self.phi * (a.sum(axis=1) > 0)).sum()
        return float(transmit + compute - saved)


# ---------------------------------------------------------------------------
# public per-step operations


def gamma_root(sc: Scenario, i: int, j: int, duals: DualState) -> float:
    """Unclamped stationary frequency of pair (task i, device j != i); +inf
    when the priced marginal never turns positive (solution escapes upward)."""
    if j == i:
        raise ValueError("local execution has no stationary frequency")
    task = sc.task(i)
    dev = sc.device(j)
    wi = task.power_price + duals.mu[i - 1]
    wh = 0.0 if j == 0 else sc.task(j).power_price + duals.mu[j - 1]
    eta_i = sc.device(i).eta
    c1 = dev.kappa * dev.nu * eta_i * wh / wi
    c2 = eta_i * duals.v[j] / wi
    return balance_root(task, sc.gain(i, j), sc.bandwidth, sc.noise_w, dev.nu, c1, c2)


def solve_gamma(sc: Scenario, bounds: FeasibilityBounds, i: int, j: int,
                duals: DualState) -> float:
    """Stationary frequency clamped into the pair's feasibility window."""
    root = gamma_root(sc, i, j, duals)
    lo = bounds.f_lower[i - 1, j]
    hi = bounds.f_upper[i - 1, j]
    return min(max(root, lo), hi)


def primal_update(sc: Scenario, bounds: FeasibilityBounds, duals: DualState):
    """Exact priced-objective minimiser: (frequency matrix, 0/1 decision matrix)."""
    x, a, _ = _Kernel(sc, bounds).primal(duals)
    return x, a


def dual_update(sc: Scenario, bounds: FeasibilityBounds, duals: DualState,
                x, a) -> DualState:
    """Projected subgradient step on the normalised constraints."""
    return _Kernel(sc, bounds).dual_step(duals, x, a)


def decisions_from(a: np.ndarray) -> dict[int, int]:
    """Decision matrix -> {task id: device id} map (assigned tasks only)."""
    out = {}
    rows, cols = np.nonzero(a)
    for r, c in zip(rows.tolist(), cols.tolist()):
        out[r + 1] = c
    return out


def repair_feasibility(sc: Scenario, decisions: dict[int, int],
                       bounds: FeasibilityBounds) -> Assignment:
    """Re-commit a raw decision map under residual budgets.

    Tasks are placed cheapest-to-fit first (ascending static minimum
    frequency at their chosen device); a task that no longer fits falls back
    to the edge server if that still works, otherwise it is dropped.
    Leftover edge capacity is redistributed.  The result always validates."""
    state = matching.new_state(sc)
    order = sorted(decisions, key=lambda k: (bounds.f_lower[k - 1, decisions[k]], k))
    for k in order:
        for dev in ([decisions[k]] if decisions[k] == 0 else [decisions[k], 0]):
            try:
                f = matching.pair_frequency(sc, state, k, dev)
            except InfeasiblePair:
                continue
            matching.commit(sc, state, k, dev, f)
            break
    matching.redistribute_mec(state, sc)
    return make_assignment(sc, state.omega, state.freqs)


# ---------------------------------------------------------------------------
# full solve


def solve(sc: Scenario, step_rule: str = "diminish", x0: float = 0.1,
          eps: float | None = None, max_iter: int = 2000
          ) -> tuple[Assignment, IcrbiTrace]:
    """Run the dual iteration until the relaxed cost settles, then repair.

    Stops when |C(t) - C(t-1)| < eps (default 1e-4 * |C(1)|).  Raises
    NonConvergence after max_iter, carrying the trace and the repaired
    assignment of the final iterate."""
    if step_rule not in STEP_RULES:
        raise UnknownAlgorithm(f"step rule {step_rule!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    bounds = feasibility_bounds(sc)
    kern = _Kernel(sc, bounds)
    duals = DualState.zeros(sc.n, step_rule=step_rule, x0=x0)
    trace = IcrbiTrace(n_root_pairs=int(kern.remote.sum()))
    warm = None
    prev_cost = None
    converged = False
    x = a = None
    for _ in range(max_iter):
        x, a, warm = kern.primal(duals, warm)
        cost = kern.reduced_cost(x, a)
        trace.reduced_cost.append(cost)
        trace.num_assigned.append(int(a.sum()))
        trace.mu_norm.append(float(np.linalg.norm(duals.mu)))
        trace.v_norm.append(float(np.linalg.norm(duals.v)))
        if len(trace.reduced_cost) == 1:
            trace.eps = eps if eps is not None else max(1e-4 * abs(cost), 1e-12)
        elif abs(cost - prev_cost) < trace.eps:
            converged = True
            break
        duals = kern.dual_step(duals, x, a)
        prev_cost = cost
    asg = repair_feasibility(sc, decisions_from(a), bounds)
    if not converged:
        trace.termination = "max_iter"
        raise NonConvergence(f"no settlement within {max_iter} iterations",
                             assignment=asg, trace=trace)
    trace.termination = "converged"
    return asg, trace
