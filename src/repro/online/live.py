"""The live fluid engine: the batch simulator's engine, made injectable.

:class:`~repro.simulation.simulator.FluidSimulator` replays one complete
schedule and returns.  The online mode needs the same physics — Max-Min
fair fluid flows over link-connected components, lazily re-solved — but
with jobs *entering mid-flight*: a new DAG's tasks append to the live
processor queues and its redistribution flows join the live component
registry, re-solving only the components they touch.

:class:`LiveFluidEngine` is the simulator's own engine
(:class:`~repro.simulation.simulator._FluidEngine`: task bookkeeping,
edge→flow expansion, event loop and component registry) with a guarded
public API on top:

* :meth:`inject` — add a scheduled job at the current virtual time
  (finite, not in the past, under a fresh job id);
* :meth:`advance_until` — run the event loop up to a target time and
  stop, so arrivals can interleave with in-flight events;
* :meth:`drain` and :meth:`pop_completed_jobs` — finish every job and
  collect per-job completions (:class:`LiveJobState`).

Equivalence contract
--------------------
Because the engine is shared code (not a transplant), a single job
injected at t=0 and drained produces byte-identical traces to
``simulate(schedule)`` — the property ``tests/test_online_engine.py``
pins against the dense-DAG golden scenario.

Tasks are namespaced ``"<job_id>/<task>"`` internally; a uniform prefix
preserves every heap tie-break order within a job, which is why the
single-job equivalence is exact and not merely numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.scheduling.schedule import Schedule
from repro.simulation.simulator import _TIME_EPS, _FluidEngine

__all__ = ["LiveFluidEngine", "LiveJobState"]


def _check_time(t: float) -> None:
    """Reject NaN and infinite virtual times before they reach the loop."""
    if not math.isfinite(t):
        raise ValueError(f"virtual time must be finite, got {t!r}")


@dataclass
class LiveJobState:
    """Per-job execution state the engine tracks for metrics."""

    job_id: str
    inject_time: float
    n_tasks: int
    n_done: int = 0
    start: float | None = None
    completion: float | None = None

    @property
    def finished(self) -> bool:
        return self.n_done == self.n_tasks


class LiveFluidEngine(_FluidEngine):
    """Persistent, injectable fluid simulation over one platform.

    Parameters
    ----------
    cluster:
        The shared platform every injected schedule was mapped onto
        (anything with a ``.topology``, including multi-cluster
        platforms).  Processor ids in injected schedules are global ids
        on this platform.
    collect_flow_traces:
        Keep per-flow trace records (off by default, as in batch).
    lazy:
        Re-solve only touched components (default); ``False`` re-solves
        every live component at every flow-set change — the same
        byte-identical full-solve oracle the batch engine offers.
    """

    def __init__(self, cluster, *, collect_flow_traces: bool = False,
                 lazy: bool = True) -> None:
        super().__init__(cluster, collect_flow_traces=collect_flow_traces,
                         lazy=lazy)
        self.jobs: dict[str, LiveJobState] = {}

    def inject(self, job_id: str, schedule: Schedule, at: float) -> None:
        """Add a scheduled job's tasks and flows at virtual time ``at``.

        ``at`` must be finite and must not precede the current virtual
        time; ready source tasks start immediately at ``at``.
        """
        _check_time(at)
        if job_id in self.jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        if at < self.now - _TIME_EPS:
            raise ValueError(
                f"cannot inject {job_id!r} at t={at} (now={self.now})")
        job = self.jobs[job_id] = LiveJobState(
            job_id=job_id, inject_time=at,
            n_tasks=schedule.graph.num_tasks)
        self._add_schedule(schedule, at, prefix=f"{job_id}/", job=job)

    def advance_until(self, t: float) -> None:
        """Process every pending event at or before ``t``; the virtual
        clock ends at ``max(now, t)``.  Idle gaps just advance the clock —
        components carry their own materialisation times.  ``t`` must be
        finite: an idle engine's next event is at ``inf``, so no target
        could ever be passed."""
        _check_time(t)
        if t < self.now - _TIME_EPS:
            raise ValueError(f"cannot rewind from t={self.now} to t={t}")
        self._run(t)
        if t > self.now:
            self.now = t

    def drain(self) -> None:
        """Run the event loop until every injected task has finished."""
        self._run()

    def pop_completed_jobs(self) -> list[str]:
        """Job ids that finished since the last call (completion order)."""
        out = self._newly_completed
        self._newly_completed = []
        return out

    @property
    def idle(self) -> bool:
        return len(self.done_tasks) == self.total
