"""Span recording around the program's layer boundaries.

The benchmark times each layer from outside the program: :func:`instrument`
wraps the public entry points of each layer (``Scenario.build``,
``allocators.build``, ``ListScheduler.run``, ``RedistributionCost.time`` and
``.price_batch``, ``FluidSimulator.run``, ``LiveFluidEngine.advance_until``,
``.inject`` and ``.drain``, ``OnlineSimulator.submit`` and the admission
policies' ``admit``) for the duration of a ``with`` block and restores them
on exit.  Every wrapped
call records one span (layer, name, start, end, parent span, op id) in the
:class:`Tracer`'s memory.  The spans are written once, at the end, as Chrome
trace-event JSON (:meth:`Tracer.write_chrome`, opens in Perfetto), and the
per-layer table and metrics are computed from the same spans.

A layer's *self* time is its span's duration minus the time covered by its
child spans.  Counters the program already keeps (simulated events, solver
rows, splits, solve and event-loop seconds) are read from the wrapped call's
result or as a before/after difference on the engine, so they are counted
exactly where the work happens.

Scalar pricing calls (``RedistributionCost.time``) are too frequent to keep
one span each: their time is folded into the enclosing span as child time and
into the layer's totals.  Cache-miss pricings are counted by path: the
scalar estimate (``bottleneck_time_estimate_mapped``) or the vectorised
``BatchPricer``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

__all__ = ["Tracer", "Span", "instrument", "capture_schedules",
           "LAYER_METRICS", "layer_metrics", "layer_table"]

@dataclass(slots=True)
class Span:
    """One wrapped call: ``[start, end)`` in seconds of ``perf_counter``."""

    sid: int
    layer: str
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    child_s: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory span recorder with per-layer counters.

    ``op`` is the id of the benchmark operation in progress; the op loop
    sets it before each op so that every span it causes carries the id.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None
        self.counters: dict[str, float] = {}
        self.t0 = perf_counter()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(sid=len(self.spans), layer=layer, name=name,
                  start=perf_counter(),
                  parent=parent.sid if parent is not None else None,
                  op=self.op)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.dur

    def point(self, layer: str, name: str, dur: float) -> None:
        """Fold one unrecorded call of ``dur`` seconds into the totals."""
        if self._stack:
            self._stack[-1].child_s += dur
        self.count(f"{layer}.{name}.calls")
        self.count(f"{layer}.{name}.s", dur)

    @property
    def in_layer(self) -> str | None:
        return self._stack[-1].layer if self._stack else None

    # ------------------------------------------------------------------ #
    def write_chrome(self, path: Path, meta: dict) -> None:
        """Write every span as Chrome trace-event JSON (Perfetto opens it)."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "perfbench"}}]
        for sp in self.spans:
            events.append({
                "name": sp.name, "cat": sp.layer, "ph": "X",
                "ts": round((sp.start - self.t0) * 1e6, 3),
                "dur": round(sp.dur * 1e6, 3), "pid": 1, "tid": 1,
                "args": {"id": sp.sid, "parent": sp.parent, "op": sp.op,
                         "self_us": round(sp.self_s * 1e6, 3), **sp.args},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "otherData": meta}))


# --------------------------------------------------------------------- #
# wrapping
# --------------------------------------------------------------------- #
class _Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        # an attribute the owner only inherited (a registry's bound
        # method, a policy's admit) is deleted so the original shows again
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _spanned(tracer: Tracer, layer: str, name: str, fn: Callable,
             after: Callable | None = None,
             before: Callable | None = None) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(layer, name) as sp:
            state = before(args) if before is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                after(sp, args, result, state)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


_ENGINE_COUNTERS = ("events", "solves_component", "solve_rows", "splits",
                    "solve_s", "event_s")


def _engine_snapshot(args) -> tuple:
    eng = args[0]
    return tuple(getattr(eng, k) for k in _ENGINE_COUNTERS)


@contextmanager
def capture_schedules(sink: list) -> Iterator[None]:
    """Append every schedule a mapper returns to ``sink`` (output checks).

    One list append per mapping call; used with tracing on and off alike so
    both passes validate the same schedules.
    """
    from repro.scheduling.mapping import ListScheduler

    run = ListScheduler.run

    def capturing(self):
        schedule = run(self)
        sink.append(schedule)
        return schedule

    ListScheduler.run = capturing
    try:
        yield
    finally:
        ListScheduler.run = run


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's entry points with spans for the ``with`` block."""
    from repro.experiments.scenarios import Scenario
    from repro.online import admission
    from repro.online.engine import OnlineSimulator
    from repro.online.live import LiveFluidEngine
    from repro.redistribution import cost
    from repro.redistribution.pricing import BatchPricer
    from repro.registry import allocators
    from repro.scheduling.mapping import ListScheduler
    from repro.simulation.simulator import FluidSimulator

    patches = _Patches()

    def after_map(sp, args, result, state):
        sp.args["cluster"] = args[0].cluster.name

    def after_sim(sp, args, result, state):
        for k in _ENGINE_COUNTERS:
            tracer.count(f"simulation.{k}", getattr(result, k))

    def after_live(sp, args, result, state):
        eng = args[0]
        for k, old in zip(_ENGINE_COUNTERS, state):
            tracer.count(f"live.{k}", getattr(eng, k) - old)

    def after_submit(sp, args, result, state):
        if not result:
            tracer.count("online.rejected")

    patches.set(Scenario, "build",
                _spanned(tracer, "dag", "Scenario.build", Scenario.build))
    patches.set(allocators, "build",
                _spanned(tracer, "allocation", "allocators.build",
                         allocators.build))
    patches.set(ListScheduler, "run",
                _spanned(tracer, "mapping", "ListScheduler.run",
                         ListScheduler.run, after=after_map))
    patches.set(FluidSimulator, "run",
                _spanned(tracer, "simulation", "FluidSimulator.run",
                         FluidSimulator.run, after=after_sim))
    for name in ("advance_until", "inject", "drain"):
        patches.set(LiveFluidEngine, name,
                    _spanned(tracer, "live", f"LiveFluidEngine.{name}",
                             getattr(LiveFluidEngine, name),
                             before=_engine_snapshot, after=after_live))
    patches.set(OnlineSimulator, "submit",
                _spanned(tracer, "online", "OnlineSimulator.submit",
                         OnlineSimulator.submit, after=after_submit))
    for policy in (admission.AcceptAll, admission.QueueCap,
                   admission.LoadShed):
        patches.set(policy, "admit",
                    _spanned(tracer, "online", "admission.admit",
                             policy.admit))

    # pricing: only price_batch gets spans (see the module docstring)
    scalar_time = cost.RedistributionCost.time
    estimate = cost.bottleneck_time_estimate_mapped
    vector = BatchPricer.price

    def timed_scalar(self, *args, **kwargs):
        if tracer.in_layer == "redistribution":   # inside price_batch
            return scalar_time(self, *args, **kwargs)
        t = perf_counter()
        try:
            return scalar_time(self, *args, **kwargs)
        finally:
            tracer.point("redistribution", "scalar", perf_counter() - t)

    def counted_estimate(*args, **kwargs):
        tracer.count("redistribution.scalar_priced")
        return estimate(*args, **kwargs)

    def counted_vector(self, src, dsts, data_bytes):
        priced = vector(self, src, dsts, data_bytes)
        if priced is not None:
            tracer.count("redistribution.vector_priced",
                         sum(1 for r in priced if r is not None))
        return priced

    patches.set(cost.RedistributionCost, "time", timed_scalar)
    patches.set(cost, "bottleneck_time_estimate_mapped", counted_estimate)
    patches.set(cost.RedistributionCost, "price_batch",
                _spanned(tracer, "redistribution", "price_batch",
                         cost.RedistributionCost.price_batch))
    patches.set(BatchPricer, "price", counted_vector)
    try:
        yield tracer
    finally:
        patches.restore()


# --------------------------------------------------------------------- #
# per-layer metrics and table
# --------------------------------------------------------------------- #
#: per-layer metric -> unit (the names BENCHMARK.json lists)
LAYER_METRICS = {
    "dag.build_s": "s", "dag.calls": "count",
    "allocation.busy_s": "s", "allocation.calls": "count",
    "allocation.max_ms": "ms",
    "mapping.busy_s": "s", "mapping.calls": "count",
    "mapping.grelon_busy_s": "s",
    "redistribution.busy_s": "s", "redistribution.scalar_calls": "count",
    "redistribution.batch_calls": "count",
    "redistribution.batch_share": "ratio",
    "simulation.busy_s": "s", "simulation.events": "count",
    "simulation.solves_component": "count", "simulation.solve_rows": "count",
    "simulation.splits": "count", "simulation.solve_s": "s",
    "simulation.event_s": "s", "simulation.us_per_event": "us",
    "live.advance_s": "s", "live.inject_s": "s", "live.drain_s": "s",
    "live.events": "count", "live.solves_component": "count",
    "live.solve_rows": "count", "live.splits": "count", "live.solve_s": "s",
    "live.event_s": "s", "live.us_per_event": "us",
    "online.submit_s": "s", "online.sched_s": "s", "online.admit_s": "s",
    "online.rejected": "count",
    "simulation.rel_makespan": "ratio",
    "tracing.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float,
                  rel_makespan: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value from the spans and counters.

    ``rel_makespan`` is the simulated RATS ÷ HCPA makespan ratio the
    workload computed from its outputs.  A layer the workload bypasses reads
    0 (no calls, no time).
    """
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    longest: dict[str, float] = {}
    grelon = 0.0
    for sp in tracer.spans:
        total[sp.name] = total.get(sp.name, 0.0) + sp.dur
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_s
        calls[sp.name] = calls.get(sp.name, 0) + 1
        longest[sp.name] = max(longest.get(sp.name, 0.0), sp.dur)
        if sp.name == "ListScheduler.run" \
                and sp.args.get("cluster") == "grelon":
            grelon += sp.self_s
    c = tracer.counters.get
    sim_events = c("simulation.events", 0.0)
    live_events = c("live.events", 0.0)
    live_s = sum(total.get(f"LiveFluidEngine.{n}", 0.0)
                 for n in ("advance_until", "inject", "drain"))
    scalar_priced = c("redistribution.scalar_priced", 0.0)
    vector_priced = c("redistribution.vector_priced", 0.0)
    priced = scalar_priced + vector_priced
    out = {
        "dag.build_s": total.get("Scenario.build", 0.0),
        "dag.calls": calls.get("Scenario.build", 0),
        "allocation.busy_s": self_s.get("allocators.build", 0.0),
        "allocation.calls": calls.get("allocators.build", 0),
        "allocation.max_ms": longest.get("allocators.build", 0.0) * 1e3,
        "mapping.busy_s": self_s.get("ListScheduler.run", 0.0),
        "mapping.calls": calls.get("ListScheduler.run", 0),
        "mapping.grelon_busy_s": grelon,
        "redistribution.busy_s": (total.get("price_batch", 0.0)
                                  + c("redistribution.scalar.s", 0.0)),
        "redistribution.scalar_calls": int(c("redistribution.scalar.calls",
                                             0)),
        "redistribution.batch_calls": calls.get("price_batch", 0),
        "redistribution.batch_share": (vector_priced / priced
                                       if priced else 0.0),
        "simulation.busy_s": total.get("FluidSimulator.run", 0.0),
        "simulation.us_per_event": (total.get("FluidSimulator.run", 0.0)
                                    * 1e6 / sim_events
                                    if sim_events else 0.0),
        "live.advance_s": total.get("LiveFluidEngine.advance_until", 0.0),
        "live.inject_s": total.get("LiveFluidEngine.inject", 0.0),
        "live.drain_s": total.get("LiveFluidEngine.drain", 0.0),
        "live.us_per_event": (live_s * 1e6 / live_events
                              if live_events else 0.0),
        "online.submit_s": total.get("OnlineSimulator.submit", 0.0),
        "online.sched_s": self_s.get("OnlineSimulator.submit", 0.0),
        "online.admit_s": total.get("admission.admit", 0.0),
        "online.rejected": int(c("online.rejected", 0)),
        "simulation.rel_makespan": rel_makespan,
        "tracing.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for layer in ("simulation", "live"):
        for k in _ENGINE_COUNTERS:
            value = c(f"{layer}.{k}", 0)
            out[f"{layer}.{k}"] = value if k.endswith("_s") else int(value)
    return {name: out[name] for name in LAYER_METRICS}


def layer_table(tracer: Tracer) -> list[str]:
    """One line per span name: layer, calls, total and self seconds."""
    rows: dict[tuple[str, str], list[float]] = {}
    for sp in tracer.spans:
        row = rows.setdefault((sp.layer, sp.name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.dur
        row[2] += sp.self_s
    for key, label in (("redistribution.scalar", "RedistributionCost.time"),):
        n = tracer.counters.get(f"{key}.calls", 0)
        if n:
            t = tracer.counters[f"{key}.s"]
            rows[("redistribution", label)] = [n, t, t]
    lines = [f"{'layer':<15} {'span':<30} {'calls':>8} {'total_s':>9} "
             f"{'self_s':>9}"]
    for (layer, name), (n, tot, own) in sorted(
            rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{layer:<15} {name:<30} {int(n):>8} {tot:>9.3f} "
                     f"{own:>9.3f}")
    return lines
