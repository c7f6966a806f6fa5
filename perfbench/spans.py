"""Call wrappers that measure the singheat package from outside it.

`Meter` times every `solver.simulate` call, each of its steps, and the
coarse calls of the analysis; it is installed for the whole run.  `Tracer`
records one span per call of each layer's public callables and is installed
only around traced passes; the per-layer counts and self times are computed
from the recorded span tree.

Wrappers are bound at the module attribute each caller looks up, so a name
imported into several modules (`cli` imports `simulate`, `steady_profile` and
the envelope checks by name) is replaced everywhere it is bound.
"""

from __future__ import annotations

import math
import sys
import time
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

perf_counter = time.perf_counter


def _package_modules():
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "singheat" or name.startswith("singheat."))
    ]


class Patches:
    """Rebinds attributes of modules and classes, and restores them."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, fn, wrapper) -> None:
        """Replace every module-level binding of `fn` in the package."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_callables():
    """(span name, owner, attribute) of each wrapped public callable."""
    from singheat import cli, constants, decay, grid, lagrangian, solver, source, steady

    table = [("grid.Field", grid.Field, "__init__")]
    table += [(f"grid.{attr}", grid, attr)
              for attr in ("derivative", "trapezoid_integral", "antiderivative")]
    table.append(("source.evaluate", source.SourceTerm, "evaluate"))
    table += [("source.dfdt", cls, "dfdt") for cls in vars(source).values()
              if isinstance(cls, type) and issubclass(cls, source.SourceTerm)
              and "dfdt" in vars(cls)]
    table.append(("source.compute_N_infinity", source, "compute_N_infinity"))
    table += [("steady.steady_profile", steady, "steady_profile"),
              ("steady.solve_cnu", steady, "solve_cnu"),
              ("constants.from_problem", constants.TheoremConstants, "from_problem"),
              ("solver.simulate", solver, "simulate"),
              ("solver.step", solver, "step"),
              ("solver.diagnostics", solver, "diagnostics")]
    table += [("decay.envelope", decay, attr)
              for attr in ("check_homogeneous_envelope", "check_inhomogeneous_envelope",
                           "check_gradient_energy_envelope", "check_direct_convergence")]
    table.append(("decay.fit_rate", decay, "fit_rate"))
    table += [(f"lagrangian.{attr}", lagrangian, attr)
              for attr in ("initial_map", "source_from_sheet", "solve_ssm")]
    table += [("cli.output", grid, "write_field_csv"),
              ("cli.output", decay, "envelope_csv"),
              ("cli.output", cli, "_write_manifest")]
    table += [("cli.output", cls, attr)
              for cls, attr in ((solver.SimulationRecord, "diagnostics_csv"),
                                (constants.TheoremConstants, "to_json"),
                                (decay.DecayReport, "to_json"),
                                (steady.SteadyState, "to_json"),
                                (steady.SteadyState, "profile_csv"),
                                (lagrangian.SheetState, "to_csv"))]
    return table


#: callables whose calls are the small repeated work inside a march or inside
#: a larger call; the others are the coarse steps of an operation's analysis
FINE = {"grid.Field", "grid.derivative", "grid.trapezoid_integral", "grid.antiderivative",
        "source.evaluate", "source.dfdt", "solver.simulate", "solver.step",
        "solver.diagnostics"}


def patch(patches: Patches, owner, attr: str, wrap) -> None:
    """Replace a module function everywhere it is bound, or a class attribute."""
    if isinstance(owner, type):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            patches.set(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            patches.set(owner, attr, wrap(raw))
    else:
        fn = getattr(owner, attr)
        patches.rebind(fn, wrap(fn))


@dataclass
class March:
    """One `solver.simulate` call as seen from outside."""

    seconds: float
    n: int
    steps: int                 # completed implicit-Euler steps
    failure: str | None        # the record's failure annotation
    error_class: str | None    # class of the exception that ended the march
    record: object = None      # kept until the operation's checks have run
    step_cost: array = None    # seconds per step, its diagnostics included
    step_iters: array = None   # Newton iterations per step; -1 for a failed step

    @property
    def overhead(self) -> float:
        """Seconds inside simulate outside the steps (steady state, first record)."""
        return self.seconds - sum(self.step_cost)


def least_costs(passes) -> dict:
    """The least time seen for each kind of sample in any pass.

    `passes` holds, per pass, (kind, seconds) samples; samples of one kind
    are the same work.  Other tenants of the machine only ever add time to a
    sample, so the least of many repeats of identical work is the steadiest
    estimate of its cost.
    """
    least: dict = {}
    for samples in passes:
        for kind, seconds in samples:
            if seconds < least.get(kind, math.inf):
                least[kind] = seconds
    return least


def least_cost(passes) -> float:
    """Seconds of one pass with each unit of work at its least observed cost.

    Every pass does the same work, so a pass costs the sum, over the first
    pass's samples, of the least time of their kinds.
    """
    least = least_costs(passes)
    return sum(least[kind] for kind, _ in passes[0])


def march_samples(key, march):
    """A march's steps, one kind per Newton count, and its time outside them."""
    yield (key, "outside steps"), march.overhead
    for cost, iters in zip(march.step_cost, march.step_iters):
        yield (key, iters), cost


class Meter:
    """Times marches step by step, and the coarse calls of the analysis.

    Every simulate call becomes a `March`.  A step's time runs from its start
    to the next step's start, so it includes the per-step diagnostics.
    `simulate` returns a failed march as a record carrying only the message,
    so the exception class is taken from `step` on its way out.

    Outside marches, each outermost call of a coarse layer callable (not in
    `FINE`) is appended to `units` as (callable, seconds).  These timers add
    about a microsecond to calls that take a millisecond or more.
    """

    def __init__(self):
        from singheat import solver

        self.marches: list[March] = []
        self.units: list[tuple] = []
        self._starts = None
        self._iters = None
        self._error_class = None
        self._in_unit = False
        self._patches = Patches()
        simulate, step = solver.simulate, solver.step

        def timed_simulate(cfg, *args, **kwargs):
            self._error_class = None
            self._starts, self._iters = starts, iters = array("d"), array("i")
            t0 = perf_counter()
            try:
                record = simulate(cfg, *args, **kwargs)
            except Exception as err:
                seconds = perf_counter() - t0
                self._starts = None
                self.marches.append(March(seconds, cfg.grid.n, 0, str(err),
                                          type(err).__name__, None, array("d"), array("i")))
                raise
            t1 = perf_counter()
            self._starts = None
            cost = array("d", (b - a for a, b in zip(starts, [*starts[1:], t1])))
            self.marches.append(March(t1 - t0, cfg.grid.n, len(record.times) - 1,
                                      record.failure, self._error_class, record,
                                      cost, iters))
            return record

        def metered_step(*args, **kwargs):
            starts, iters = self._starts, self._iters
            if starts is None:
                return step(*args, **kwargs)
            starts.append(perf_counter())
            try:
                result = step(*args, **kwargs)
            except Exception as err:
                self._error_class = type(err).__name__
                iters.append(-1)
                raise
            iters.append(result[1])
            return result

        self._patches.rebind(simulate, timed_simulate)
        self._patches.rebind(step, metered_step)
        for name, owner, attr in layer_callables():
            if name not in FINE:
                kind = f"{owner.__name__}.{attr}"
                patch(self._patches, owner, attr, lambda fn, kind=kind: self._unit(kind, fn))

    def _unit(self, kind: str, fn):
        def timed(*args, **kwargs):
            if self._in_unit or self._starts is not None:
                return fn(*args, **kwargs)
            self._in_unit = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.units.append((kind, perf_counter() - t0))
                self._in_unit = False

        return timed

    def close(self) -> None:
        self._patches.restore()


def self_times(parent, start, end) -> np.ndarray:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap one another.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    return dur - covered


class Tracer:
    """Span recorder for the package's layer boundaries.

    Spans are kept in flat arrays (name id, parent index, start, end) and
    written out once at the end; counts are taken at the same wrappers.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen_t = weakref.WeakKeyDictionary()
        self._patches = Patches()

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` recording a span per call; `observe(args, result)`."""
        nid = self._name(name)
        stack, names, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                self.failed[name] += 1
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_step(self, args, result) -> None:
        self.counts["solver.steps_ok"] += 1
        self.counts["solver.newton_iters"] += result[1]

    def _observe_evaluate(self, args, result) -> None:
        # times closer than 1e-12 are one sample: step asks for k*dt + dt
        # and the diagnostics for (k + 1)*dt
        src, t = args[0], round(args[1], 12)
        seen = self._seen_t.setdefault(src, set())
        if t in seen:
            self.counts["source.evaluate.repeats"] += 1
        else:
            seen.add(t)

    def install(self) -> None:
        observers = {"solver.step": self._observe_step,
                     "source.evaluate": self._observe_evaluate}
        for name, owner, attr in layer_callables():
            patch(self._patches, owner, attr,
                  lambda fn, name=name: self.wrap(name, fn, observers.get(name)))

    def uninstall(self) -> None:
        self._patches.restore()
        self._seen_t = weakref.WeakKeyDictionary()

    def span_stats(self) -> dict:
        """Per span name: calls, self seconds and failed calls."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        own = self_times(np.frombuffer(self.parent, dtype=np.int32),
                         np.frombuffer(self.start), np.frombuffer(self.end))
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "failed": self.failed[name]}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


#: per-layer metrics of the traced run: name -> (unit, span name, statistic)
PER_LAYER = {
    "grid.Field.constructions": ("count", "grid.Field", "calls"),
    "grid.Field.s": ("s", "grid.Field", "self_s"),
    "grid.derivative.calls": ("count", "grid.derivative", "calls"),
    "grid.trapezoid_integral.calls": ("count", "grid.trapezoid_integral", "calls"),
    "grid.antiderivative.calls": ("count", "grid.antiderivative", "calls"),
    "source.evaluate.calls": ("count", "source.evaluate", "calls"),
    "source.evaluate.us": ("us", "source.evaluate", "us"),
    "source.compute_N_infinity.s": ("s", "source.compute_N_infinity", "self_s"),
    "source.dfdt.calls": ("count", "source.dfdt", "calls"),
    "steady.steady_profile.s": ("s", "steady.steady_profile", "self_s"),
    "steady.solve_cnu.s": ("s", "steady.solve_cnu", "self_s"),
    "constants.from_problem.s": ("s", "constants.from_problem", "self_s"),
    "solver.simulate.s": ("s", "solver.simulate", "self_s"),
    "solver.step.calls": ("count", "solver.step", "calls"),
    "solver.step.us": ("us", "solver.step", "us"),
    "solver.step.failed": ("count", "solver.step", "failed"),
    "solver.diagnostics.calls": ("count", "solver.diagnostics", "calls"),
    "solver.diagnostics.us": ("us", "solver.diagnostics", "us"),
    "decay.envelope.s": ("s", "decay.envelope", "self_s"),
    "decay.fit_rate.calls": ("count", "decay.fit_rate", "calls"),
    "lagrangian.initial_map.s": ("s", "lagrangian.initial_map", "self_s"),
    "lagrangian.source_from_sheet.s": ("s", "lagrangian.source_from_sheet", "self_s"),
    "lagrangian.solve_ssm.s": ("s", "lagrangian.solve_ssm", "self_s"),
    "cli.output.s": ("s", "cli.output", "self_s"),
}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass counts and self times, and microseconds of self time per call."""
    stats = tracer.span_stats()
    empty = {"calls": 0, "self_s": 0.0, "failed": 0}
    out = {}
    for metric, (unit, span, stat) in PER_LAYER.items():
        s = stats.get(span, empty)
        if stat == "us":
            value = 1e6 * s["self_s"] / s["calls"] if s["calls"] else 0.0
        else:
            value = s[stat] / passes
        out[metric] = (value, unit)
    counts = tracer.counts
    evaluations = stats.get("source.evaluate", empty)["calls"]
    out["source.evaluate.repeat_frac"] = (
        counts["source.evaluate.repeats"] / evaluations if evaluations else 0.0, "1")
    out["solver.newton_iters"] = (counts["solver.newton_iters"] / passes, "count")
    steps = counts["solver.steps_ok"]
    out["solver.newton_iters_per_step"] = (
        counts["solver.newton_iters"] / steps if steps else 0.0, "count")
    out["cli.output.bytes"] = (counts["cli.output.bytes"] / passes, "B")
    out["cli.output.files"] = (counts["cli.output.files"] / passes, "count")
    return out
