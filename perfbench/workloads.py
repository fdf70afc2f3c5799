"""The benchmark's three workloads: seeded inputs, the op loop, output checks.

Each workload is a class built from ``(seed, seconds)``.  :meth:`setup`
generates the inputs from the seed alone and warms the program's lazy state
on a fixed small input; :meth:`one_pass` drives the ops once in a closed loop
(the next op starts when the previous one returns: the simulators run in
virtual time) and :meth:`check` verifies what the pass produced.
:func:`measure` runs ``PASSES`` passes over the same ops and returns an
:class:`Outcome` with each op's median host time over the passes, the
checks' verdicts and the simulated results.  A shared host's speed changes
in spells of a few seconds, so an op's median over passes spread across the
run is its cost at the speed the run mostly had, whichever ops a spell
happens to hit.  (Slower changes, over minutes, no run can filter.)
The amount of work is a fixed function of ``seconds`` (sized to take about
that long on a 2-core x86 box at the commit that introduced the benchmark),
never of the host clock, so every simulated quantity repeats exactly for
one seed.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from perfbench.tracing import capture_schedules

__all__ = ["Outcome", "measure", "PaperCampaign", "OnlineGrid5000",
           "LargeGridStream", "WORKLOADS"]


@dataclass
class Outcome:
    """What one or more measured passes over the same ops produced."""

    op_s: list[float] = field(default_factory=list)   # host s per op
    pass_s: list[float] = field(default_factory=list)  # host s per pass
    size: str = ""                    # the stated input size
    fingerprint: list = field(default_factory=list)   # exact sim outputs
    sim: dict[str, float] = field(default_factory=dict)
    failed_ops: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Median host seconds of a pass."""
        return statistics.median(self.pass_s)

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: int, message: str) -> None:
        """Count op ``op`` as failed (once, however many checks it fails)."""
        self.failed_ops.add(min(op, self.attempted - 1))
        if len(self.errors) < 10:
            self.errors.append(f"op {op}: {message}")


def measure(workload, prepared, passes: int, tracer=None) -> Outcome:
    """Run ``passes`` passes of ``workload`` over the same ops.

    Each op's time is its median over the passes.  Every pass is checked,
    and every later pass must reproduce the first one's simulated outputs
    exactly; an op that fails in any pass counts as failed once.
    """
    out = None
    times: list[list[float]] = []         # op times, one list per pass
    for k in range(passes):
        gc.collect()                # each pass starts from the same heap
        one = Outcome()
        t = perf_counter()
        raw = workload.one_pass(prepared, tracer, one)
        one.pass_s.append(perf_counter() - t)
        workload.check(prepared, raw, one)
        raw = None
        times.append(one.op_s)
        if out is None:
            out = one
            continue
        for i, (a, b) in enumerate(zip(out.fingerprint, one.fingerprint)):
            if a != b:
                out.fail(i, f"pass {k + 1} differs from pass 1")
        if len(one.fingerprint) != len(out.fingerprint):
            out.fail(out.attempted, f"pass {k + 1} ran a different op count")
        out.op_s = [statistics.median(t) for t in zip(*times)]
        out.pass_s += one.pass_s
        out.failed_ops |= one.failed_ops
        out.errors += one.errors
    return out


def _geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def _drain(engine, out: Outcome) -> None:
    """Drain; a failure is reported, and the jobs it leaves unfinished fail
    the per-job checks that follow."""
    try:
        engine.drain()
    except Exception as exc:
        out.errors.append(f"drain: {exc!r}")


def _closed_loop(ops: list[Callable[[], object]], tracer,
                 out: Outcome) -> list[object]:
    """Run ``ops`` back to back, timing each; exceptions fail the op.

    With a tracer, each op is one top-level ``op`` span carrying its index.
    """
    results: list[object] = []
    for i, op in enumerate(ops):
        t = perf_counter()
        try:
            if tracer is None:
                results.append(op())
            else:
                tracer.op = i
                with tracer.span("op", "op"):
                    results.append(op())
        except Exception as exc:  # one failed op must not end the run
            results.append(exc)
            out.failed_ops.add(i)
            out.errors.append(f"op {i}: {exc!r}")
        out.op_s.append(perf_counter() - t)
    if tracer is not None:
        tracer.op = None
    return results


# --------------------------------------------------------------------- #
# paper_campaign
# --------------------------------------------------------------------- #
class PaperCampaign:
    """The batch pipeline as the paper reproduction runs it.

    Inputs: a seeded sample of the 557 paper configurations, stratified by
    the shape parameters that set a run's cost.  The strata are the
    random families' (task count, width, density) cells, a quarter of the
    cells layered and the rest irregular as in the paper's population, with
    regularity and jump spread evenly over the cells, and the kernel
    families' FFT sizes plus Strassen.  The sample cycles through the
    strata, each cycle drawing a DAG sample of every stratum not drawn
    before, the seed picking which.  The campaign's stages (Figures 2-3
    and 6-7 on grillon, Tables V-VI on chti, grillon and grelon) are
    compiled by the plan compiler, which deduplicates the shared runs.  One
    op is one ``ExperimentRunner.run``: graph, allocation, mapping,
    simulation.

    The n=100 cells are left out: one of them takes 1-4 s, so a run could
    hold only one DAG sample of each, and the op tail would rest on which
    few DAGs the seed drew.  Without them a run holds over two cycles: two
    of the three DAG samples of every random cell and a seeded draw of the
    kernel samples, and the ops' costs spread smoothly over the tail.  One pass:
    the ops are many and spread over the run, so a spell of host speed
    moves few of them.
    """

    name = "paper_campaign"
    PASSES = 1
    TASK_COUNTS = (25, 50)
    #: configurations per second of requested run time (11 runs each)
    SCENARIOS_PER_S = 1.3

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.n_scenarios = max(3, round(seconds * self.SCENARIOS_PER_S))

    @classmethod
    def strata(cls) -> list[dict]:
        """One shape per stratum, cheapest first (small sizes stay small)."""
        from repro.experiments.scenarios import (DENSITIES, FFT_POINTS,
                                                 JUMPS, REGULARITIES, WIDTHS)

        out = [{"family": "fft", "k": FFT_POINTS[0]}, {"family": "strassen"}]
        out += [{"family": "fft", "k": k} for k in FFT_POINTS[1:]]
        cells = [(n, w, d) for n in cls.TASK_COUNTS for w in WIDTHS
                 for d in DENSITIES]
        for i, (n, w, d) in enumerate(cells):
            shape = {"family": "layered" if i % 4 == 0 else "irregular",
                     "n_tasks": n, "width": w, "density": d,
                     "regularity": REGULARITIES[i % 2]}
            if shape["family"] == "irregular":
                shape["jump"] = JUMPS[i % 3]
            out.append(shape)
        return out

    def sample(self) -> list:
        """The seeded sample: strata in order, cycled, no duplicates; a
        stratum whose DAG samples are all drawn is skipped."""
        from repro.experiments.scenarios import (KERNEL_SAMPLES,
                                                 RANDOM_SAMPLES, Scenario)

        rng = random.Random(f"paper_campaign:{self.seed}")
        strata = self.strata()
        picked: list = []
        for i in range(self.n_scenarios * len(strata)):
            if len(picked) == self.n_scenarios:
                break
            shape = strata[i % len(strata)]
            kernel = shape["family"] in ("fft", "strassen")
            free = [s for s in range(KERNEL_SAMPLES if kernel
                                     else RANDOM_SAMPLES)
                    if Scenario(sample=s, **shape) not in picked]
            if free:
                picked.append(Scenario(sample=rng.choice(free), **shape))
        return picked

    @staticmethod
    def compile(scenarios: list):
        from repro.experiments.figures import figure2_3_stage, figure6_7_stage
        from repro.experiments.plan import CampaignPlan
        from repro.experiments.tables import tables5_6_stage
        from repro.platforms.grid5000 import CHTI, GRELON, GRILLON

        plan = CampaignPlan([
            figure2_3_stage(scenarios, GRILLON),
            figure6_7_stage(scenarios, GRILLON),
            tables5_6_stage(scenarios, [CHTI, GRILLON, GRELON]),
        ])
        return plan.compile()

    def setup(self):
        from repro.experiments.scenarios import Scenario

        runs = self.compile(self.sample()).runs
        # warm-up on a fixed small input: every cluster and spec, and a
        # DAG dense enough for the simulator to split components
        warm = self.compile([Scenario(family="strassen", sample=0),
                             Scenario(family="fft", k=8, sample=0)]).runs
        self._run_cells(warm, None, Outcome())
        return runs

    @staticmethod
    def _run_cells(runs, tracer, out: Outcome) -> list:
        """Run every cell; returns ``(result, schedule)`` per op."""
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(record_timings=False)
        mapped: list = []

        def op(run) -> tuple:
            mapped.clear()
            result = runner.run(run.scenario, run.cluster, run.spec)
            return result, mapped[-1]

        with capture_schedules(mapped):
            return _closed_loop([lambda r=r: op(r) for r in runs],
                                tracer, out)

    def one_pass(self, runs, tracer, out: Outcome) -> list:
        return self._run_cells(runs, tracer, out)

    def check(self, runs, done, out: Outcome) -> None:
        scenarios = {r.scenario for r in runs}
        out.size = (f"{len(scenarios)} configurations, {len(runs)} "
                    f"deduplicated runs on chti/grillon/grelon")
        hcpa: dict[tuple[str, str], float] = {}
        rats: list[tuple[str, str, float]] = []
        for i, pair in enumerate(done):
            if isinstance(pair, Exception):
                out.fingerprint.append(repr(pair))
                continue
            result, schedule = pair
            out.fingerprint.append(result)
            try:
                schedule.validate()
            except ValueError as exc:
                out.fail(i, f"invalid schedule: {exc}")
                continue
            if not (math.isfinite(result.makespan) and result.makespan > 0):
                out.fail(i, f"simulated makespan {result.makespan!r}")
                continue
            key = (result.scenario_id, result.cluster)
            if runs[i].spec.is_adaptive:
                rats.append((*key, result.makespan))
            else:
                hcpa[key] = result.makespan
        out.sim["rel_makespan"] = _geomean(
            m / hcpa[(s, c)] for s, c, m in rats if (s, c) in hcpa)
        # each run is one job arriving at t=0 on an empty cluster
        out.sim["sim_jct_p50_s"] = statistics.median(
            [*hcpa.values(), *(m for _, _, m in rats)] or [0.0])


# --------------------------------------------------------------------- #
# online_grid5000
# --------------------------------------------------------------------- #
class OnlineGrid5000:
    """The online path on the paper's three clusters joined by a WAN.

    Inputs: a Poisson stream (``stream_from_spec``) over ``grid5000-grid``
    below saturation, whose arrival times come from the seed.  The job mix
    is fixed, so that the seed varies the traffic and not the job sizes
    (kernel DAG samples differ enough in cost to move the median JCT by a
    fifth): every sample of the two random families and the first two
    samples of each kernel family, ten DAGs in all, with hcpa, rats-delta
    and rats-timecost assigned round-robin (ten and three are coprime, so
    every DAG runs under every algorithm).  One op is one
    ``OnlineSimulator.submit`` (advance, admit, residual schedule, inject);
    a final ``drain`` follows and counts in the pass's wall time.  Each pass
    replays the whole stream on a fresh simulator.
    """

    name = "online_grid5000"
    PASSES = 3
    RATE = 0.01                  # jobs per simulated second
    JOBS_PER_S = 35              # of requested run time, over all passes
    SHAPES = (
        {"family": "layered", "n_tasks": 25, "width": 0.5, "density": 0.2,
         "regularity": 0.8},
        {"family": "irregular", "n_tasks": 25, "width": 0.5, "density": 0.2,
         "regularity": 0.8, "jump": 2},
        {"family": "fft", "k": 4},
        {"family": "strassen"},
    )

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.n_jobs = max(8, round(seconds * self.JOBS_PER_S / self.PASSES))

    def stream_spec(self) -> dict:
        from repro.experiments.scenarios import RANDOM_SAMPLES

        workloads = []
        for shape in self.SHAPES:
            kernel = shape["family"] in ("fft", "strassen")
            workloads.extend({**shape, "sample": s}
                             for s in range(2 if kernel else RANDOM_SAMPLES))
        return {"kind": "poisson", "rate": self.RATE, "jobs": self.n_jobs,
                "seed": self.seed, "workloads": workloads,
                "algorithms": ["hcpa", "rats-delta", "rats-timecost"]}

    @staticmethod
    def platform():
        from repro.registry import platforms

        return platforms.build("grid5000-grid")

    def setup(self):
        from repro.online.stream import stream_from_spec

        platform = self.platform()
        jobs = list(stream_from_spec(self.stream_spec()))
        # warm-up on a fixed small stream over the same platform, fast
        # enough for jobs to overlap (component merges and splits)
        warm = stream_from_spec({"kind": "poisson", "rate": 1.0,
                                 "jobs": 6, "seed": 0,
                                 "workloads": [{"family": "fft", "k": 8},
                                               {"family": "strassen"}],
                                 "algorithms": ["hcpa", "rats-delta",
                                                "rats-timecost"]})
        self._drive(platform, list(warm), None,
                    Outcome())
        return platform, jobs

    @staticmethod
    def _drive(platform, jobs, tracer, out: Outcome):
        from repro.online.engine import OnlineSimulator

        sim = OnlineSimulator(platform)
        _closed_loop([lambda j=j: sim.submit(j) for j in jobs], tracer, out)
        _drain(sim, out)
        return sim

    def one_pass(self, prepared, tracer, out: Outcome):
        platform, jobs = prepared
        return self._drive(platform, jobs, tracer, out)

    def check(self, prepared, sim, out: Outcome) -> None:
        platform, jobs = prepared
        result = sim.result()
        out.size = (f"{len(jobs)} jobs at {self.RATE:g}/s on "
                    f"{platform.name} ({platform.num_procs} procs)")
        by_id = {r.job_id: r for r in result.records}
        for i, job in enumerate(jobs):
            rec = by_id.get(job.job_id)
            out.fingerprint.append(rec)
            if rec is None:
                out.fail(i, f"job {job.job_id}: no record after drain")
            elif rec.admitted and not (rec.finished
                                       and rec.completion >= rec.arrival):
                out.fail(i, f"job {job.job_id}: admitted but not finished "
                         f"after drain ({rec})")
        out.fingerprint.append(("events", result.events,
                                "makespan", result.makespan))
        out.sim["sim_jct_p50_s"] = result.metrics.jct["p50"]
        # the paper's headline per DAG: RATS span over HCPA span
        spans: dict[tuple[str, bool], list[float]] = {}
        for job in jobs:
            rec = by_id.get(job.job_id)
            if rec is not None and rec.finished:
                spans.setdefault((rec.scenario, job.spec.is_adaptive),
                                 []).append(rec.completion - rec.start)
        out.sim["rel_makespan"] = _geomean(
            _geomean(v) / _geomean(spans[(sc, False)])
            for (sc, adaptive), v in spans.items()
            if adaptive and (sc, False) in spans)


# --------------------------------------------------------------------- #
# large_grid_stream
# --------------------------------------------------------------------- #
class LargeGridStream:
    """The live fluid engine alone on a 24,576-processor grid.

    Inputs: the pre-built pipeline schedules of
    :func:`repro.experiments.bench.large_platform_jobs` (every hop a 16->11
    processor redistribution) on 128 clusters of 192 processors, jobs
    round-robin over the clusters, at Poisson arrival times drawn from the
    seed.  One op is one arrival step: ``advance_until`` then ``inject``; a
    final ``drain`` follows and counts in the pass's wall time.  Each pass
    replays every arrival on a fresh engine.
    """

    name = "large_grid_stream"
    PASSES = 3
    CLUSTERS, PROCS, CHAIN = 128, 192, 30
    MEAN_GAP = 0.35              # simulated seconds between arrivals
    JOBS_PER_S = 48              # of requested run time, over all passes

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.n_jobs = max(8, round(seconds * self.JOBS_PER_S / self.PASSES))

    def setup(self):
        from repro.experiments.bench import large_platform_jobs

        platform, jobs = large_platform_jobs(
            n_clusters=self.CLUSTERS, procs=self.PROCS, n_jobs=self.n_jobs,
            chain_len=self.CHAIN)
        rng = random.Random(f"large_grid_stream:{self.seed}")
        arrivals, t = [], 0.0
        for _ in jobs:
            t += rng.expovariate(1.0 / self.MEAN_GAP)
            arrivals.append(t)
        # warm-up: the first pipelines on a throwaway engine, same platform
        self._drive(platform, jobs[:4], [0.1 * i for i in range(4)], None,
                    Outcome())
        return platform, jobs, arrivals

    @staticmethod
    def _drive(platform, jobs, arrivals, tracer, out: Outcome):
        from repro.online.live import LiveFluidEngine

        eng = LiveFluidEngine(platform)

        def step(j: int) -> None:
            eng.advance_until(arrivals[j])
            eng.inject(f"job{j}", jobs[j], arrivals[j])

        _closed_loop([lambda j=j: step(j) for j in range(len(jobs))],
                     tracer, out)
        _drain(eng, out)
        return eng

    def one_pass(self, prepared, tracer, out: Outcome):
        platform, jobs, arrivals = prepared
        return self._drive(platform, jobs, arrivals, tracer, out)

    def check(self, prepared, eng, out: Outcome) -> None:
        platform, jobs, arrivals = prepared
        out.size = (f"{len(jobs)} jobs x {self.CHAIN} tasks on "
                    f"{self.CLUSTERS}x{self.PROCS} procs "
                    f"({len(platform.topology.capacity_array)} links)")
        states = [eng.jobs.get(f"job{j}") for j in range(len(jobs))]
        for j, (state, t) in enumerate(zip(states, arrivals)):
            ok = (state is not None and state.finished
                  and state.completion >= t)
            out.fingerprint.append(
                (state.start, state.completion) if state else None)
            if not ok:
                out.fail(j, f"job{j}: not finished after drain")
        out.fingerprint.append(("events", eng.events,
                                "makespan", eng.makespan()))
        out.sim["sim_jct_p50_s"] = statistics.median(
            [st.completion - t for st, t in zip(states, arrivals)
             if st is not None and st.finished] or [0.0])
        out.sim["rel_makespan"] = 0.0      # no scheduler runs here


WORKLOADS = {w.name: w for w in (PaperCampaign, OnlineGrid5000,
                                 LargeGridStream)}
