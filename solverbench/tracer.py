"""Hooks the benchmark installs from outside the package.

``Recorder`` wraps ``harness.run_algorithm`` during timed rounds: it times each
call and keeps the scenario, the assignment and a few scalar counters, so the
checker can look at every solve.  ``Tracer`` wraps one function per layer
(see ``HOOKS``) during traced rounds and records spans (name, start, end,
parent) with self time and per-hook counters.

A function imported with ``from .model import ...`` is bound again in the
importing module, so a hook replaces every binding of the target object in
every loaded ``coopmec`` module, and ``uninstall`` puts each one back.  A
target that no longer exists is reported as missing instead of raising.
"""

from __future__ import annotations

import functools
import gzip
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "coopmec"
# spans buffered in memory before they are written out
SPAN_CHUNK = 50_000

# (metric prefix, module, attribute path inside the module)
HOOKS = (
    ("scenario.generate", "scenario", "generate"),
    ("model.feasibility_bounds", "model", "feasibility_bounds"),
    ("model.validate_constraints", "model", "validate_constraints"),
    ("model.assignment_cost", "model", "assignment_cost"),
    ("icrbi.solve", "icrbi", "solve"),
    ("icrbi.primal", "icrbi", "_Kernel.primal"),
    ("icrbi.dual_step", "icrbi", "_Kernel.dual_step"),
    ("icrbi.repair_feasibility", "icrbi", "repair_feasibility"),
    ("matching.run", "matching", "run"),
    ("matching.build_preferences", "matching", "build_preferences"),
    ("matching.pair_frequency", "matching", "pair_frequency"),
    ("matching.commit", "matching", "commit"),
    ("matching.redistribute_mec", "matching", "redistribute_mec"),
    ("decentral.run", "decentral", "run"),
    ("decentral.mec_admission", "decentral", "mec_admission"),
    ("decentral.deferred_acceptance", "decentral", "deferred_acceptance"),
    ("oracle.non_cope", "oracle", "non_cope"),
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.run_algorithm", "harness", "run_algorithm"),
    ("harness.aggregate", "harness", "aggregate"),
    ("harness.write_outputs", "harness", "write_outputs"),
    ("cli.main", "cli", "main"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def resolve(module: str, path: str):
    """(owner, attribute, target) for a hook, or None when it does not exist."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    parts = path.split(".")
    try:
        for part in parts[:-1]:
            owner = getattr(owner, part)
        target = getattr(owner, parts[-1])
    except AttributeError:
        return None
    return (owner, parts[-1], target) if callable(target) else None


def patch(owner, attr: str, target, replacement) -> list[tuple]:
    """Swap ``target`` for ``replacement``: on the class when ``owner`` is a
    class, else in every package module that binds it.  Returns the undo log."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return [(owner, attr, target)]
    undo = []
    for mod in _package_modules():
        for name in [k for k, v in vars(mod).items() if v is target]:
            setattr(mod, name, replacement)
            undo.append((mod, name, target))
    return undo


def unpatch(undo: list[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


@dataclass
class Solve:
    """One ``run_algorithm`` call as seen from outside."""

    algorithm: str
    seed: int
    scenario: object
    assignment: object
    seconds: float
    cost: float = 0.0
    iterations: int = 0
    converged: bool = True
    remote_pairs: int = 0
    da_rounds: int = 0
    da_events: int = 0
    error: str | None = None


class Recorder:
    """Times every ``harness.run_algorithm`` call and keeps its result."""

    def __init__(self):
        self.solves: list[Solve] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        found = resolve("harness", "run_algorithm")
        if found is None:
            raise RuntimeError("coopmec.harness.run_algorithm not found")
        owner, attr, target = found
        self._undo = patch(owner, attr, target, self._wrap(target))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def take(self) -> list[Solve]:
        solves, self.solves = self.solves, []
        return solves

    def _wrap(self, fn):
        @functools.wraps(fn)
        def run_algorithm(sc, algorithm, *args, **kwargs):
            t0 = perf_counter()
            try:
                asg, extras = fn(sc, algorithm, *args, **kwargs)
            except Exception as exc:
                self.solves.append(Solve(algorithm, sc.seed, sc, None, perf_counter() - t0,
                                         error=f"{type(exc).__name__}: {exc}"))
                raise
            dt = perf_counter() - t0
            trace = extras.get("trace")
            self.solves.append(Solve(
                algorithm, sc.seed, sc, asg, dt, cost=asg.cost.total,
                iterations=int(extras.get("iterations", 0)),
                converged=bool(extras.get("converged", True)),
                remote_pairs=int(getattr(trace, "n_root_pairs", 0)),
                da_rounds=int(getattr(trace, "rounds", 0)) if algorithm == "decentral" else 0,
                da_events=len(getattr(trace, "events", ())) if algorithm == "decentral" else 0))
            return asg, extras

        return run_algorithm


class Tracer:
    """Span recorder for the functions named in ``HOOKS``.

    Per hook it keeps calls, inclusive seconds and self seconds (inclusive
    minus the time covered by hooked calls made inside it).  Every span is
    written to ``spans_path`` (gzip CSV, times in microseconds from the
    first span): spans are buffered and flushed every ``SPAN_CHUNK`` spans.
    The clock stops while a chunk is written, so span times and the
    counters leave the flushes out; a traced round's wall time keeps them."""

    def __init__(self, spans_path, hooks=HOOKS):
        self.hooks = hooks
        self.missing = [name for name, mod, path in hooks if resolve(mod, path) is None]
        self.stats: dict[str, list[float]] = {}
        self.spans_written = 0
        self._spans: list[tuple] = []
        self._file = gzip.open(spans_path, "wt", encoding="utf-8", newline="\n",
                               compresslevel=1)
        self._file.write("round,span,parent,name,start_us,end_us,self_us\n")
        self._t_ref = None
        self._paused = 0.0
        self._stack: list[list] = []
        self._next_id = 1
        self._round = 0
        self._undo: list[tuple] = []

    def install(self, round_no: int) -> None:
        """Reset the counters and wrap every hook that exists."""
        self._round = round_no
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in self.hooks}
        for name, mod, path in self.hooks:
            found = resolve(mod, path)
            if found is not None:
                owner, attr, target = found
                self._undo += patch(owner, attr, target, self._wrap(name, target))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []
        self._flush()

    def close(self) -> None:
        """Write the buffered spans and close the spans file."""
        self._flush()
        self._file.close()

    def _flush(self) -> None:
        t_start = perf_counter()
        spans, self._spans = self._spans, []
        if spans and self._t_ref is None:
            self._t_ref = spans[0][4]
        t_ref = self._t_ref
        self._file.writelines(
            f"{rnd},{sid},{parent},{name},{(t0 - t_ref) * 1e6:.3f},"
            f"{(t1 - t_ref) * 1e6:.3f},{self_s * 1e6:.3f}\n"
            for rnd, sid, parent, name, t0, t1, self_s in spans)
        self.spans_written += len(spans)
        self._paused += perf_counter() - t_start

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats[name]

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter() - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter() - self._paused
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self._spans.append((self._round, span_id, parent, name, t0, t1,
                                    dur - frame[1]))
                if len(self._spans) >= SPAN_CHUNK:
                    self._flush()
            return result

        return hooked
