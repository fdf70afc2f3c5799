#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_campaign --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

``--trace 0`` measures the end-to-end metrics with tracing off: set-up runs
three times (median reported), then the workload's measured passes over the
same ops, each op timed at its median over the passes.  ``--trace 1`` runs one pass
untraced in a fresh child process and one traced in this one, so that both
passes start from the same cache state; it checks that both simulated the
same thing, prints the per-layer table and metrics, and writes
the spans as Chrome trace-event JSON under ``.bench_build/perfbench/``.
``--workload all`` runs each workload in a child process of its own (fresh
caches, its own peak memory) and merges their results.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the root
of a source checkout (``src/repro`` must exist); everything it writes stays
under ``.bench_build/`` in that checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: how many times set-up runs in a ``--trace 0`` run (median reported)
SETUPS = 3

#: end-to-end metric -> unit (the names BENCHMARK.json lists)
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_jct_p50_s": "sim_s",
}

#: percentiles tried for ``op_tail_ms``, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def pin_environment() -> dict[str, str]:
    """Clear ``REPRO_*`` knobs and keep every cache inside the checkout.

    Runs before ``repro`` or numpy is imported.  Returns the pinned
    variables for the result stamp.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    pinned = {
        "XDG_CACHE_HOME": str(ROOT / ".bench_build" / "cache"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    os.environ.update(pinned)
    return pinned


def tail(op_s: list[float]) -> tuple[float, float, int]:
    """(percentile, nearest-rank value, samples beyond it) for op_tail_ms:
    the highest ladder percentile with at least 10 samples beyond it."""
    ordered = sorted(op_s)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(round(p * n / 100, 6)))
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def tree_stamp() -> dict:
    """Identify the measured tree: git revision if any, and a source hash."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {"git_revision": revision, "src_sha256": digest.hexdigest()}


def stamp(pinned: dict, kernels: dict) -> dict:
    """The result stamp; paths inside the checkout are made relative."""
    import numpy

    def rel(value):
        return (value.replace(f"{ROOT}{os.sep}", "")
                if isinstance(value, str) else value)

    return {**tree_stamp(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "c_kernels": {k: rel(v) for k, v in kernels.items()},
            "environment": {k: rel(v) for k, v in pinned.items()}}


def end_to_end(setup_s: list[float], out) -> dict[str, float]:
    done = out.attempted - out.failed
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": done / out.wall_s,      # median pass
        "op_p50_ms": statistics.median(out.op_s) * 1e3,
        "op_tail_ms": tail(out.op_s)[1] * 1e3,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
        "sim_jct_p50_s": out.sim["sim_jct_p50_s"],
    }


def child(*args: str) -> tuple[list[str], dict]:
    """Run this script with ``args`` in a fresh process; returns its report
    lines and the JSON object of its last line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def digest(value: object) -> str:
    """A process-independent fingerprint of one simulated output (the
    reprs of its floats are exact)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def measured_passes(workload, setups: int, passes: int, tracer=None):
    """Set up ``setups`` times, then run ``passes`` passes; returns the
    set-up seconds and the passes' :class:`Outcome`."""
    from perfbench import tracing
    from perfbench.workloads import measure

    setup_s = []
    for _ in range(setups):
        prepared = None             # each set-up starts from the same heap
        gc.collect()
        t = perf_counter()
        prepared = workload.setup()
        setup_s.append(perf_counter() - t)
    with (nullcontext() if tracer is None else tracing.instrument(tracer)):
        return setup_s, measure(workload, prepared, passes, tracer)


def plain_pass(name: str, seed: int, seconds: float) -> dict:
    """The untraced pass of a ``--trace 1`` run, as the child runs it."""
    from perfbench.workloads import WORKLOADS

    _, out = measured_passes(WORKLOADS[name](seed, seconds), 1, 1)
    return {"wall_s": out.wall_s,
            "digests": [digest(x) for x in out.fingerprint],
            "failed_ops": sorted(out.failed_ops), "errors": out.errors}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 meta: dict) -> dict:
    """One workload run; prints its report and returns the result object."""
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds)
    if traced:
        _, plain = child("--workload", name, "--seed", str(seed),
                         "--seconds", str(seconds), "--plain-pass")
    tracer = tracing.Tracer() if traced else None
    setup_s, out = measured_passes(workload, 1 if traced else SETUPS,
                                   1 if traced else workload.PASSES, tracer)
    p, _, beyond = tail(out.op_s)
    print(f"# {name} seed={seed} size: {out.size}")
    passes = ", ".join(f"{s:.2f}" for s in out.pass_s)
    print(f"# op_tail_ms is p{p:g} of {len(out.op_s)} ops ({beyond} beyond); "
          + (f"each op timed at its median of {len(out.pass_s)} passes "
             f"({passes} s)" if len(out.pass_s) > 1 else f"one pass ({passes} s)"))
    print(f"# stamp: {json.dumps(meta)}")

    if not traced:
        metrics = end_to_end(setup_s, out)
        units = END_TO_END
    else:
        # the traced pass must reproduce the untraced one exactly
        digests = [digest(x) for x in out.fingerprint]
        for i, (a, b) in enumerate(zip(plain["digests"], digests)):
            if a != b:
                out.fail(i, "traced pass differs from the untraced pass")
        if len(plain["digests"]) != len(digests):
            out.fail(out.attempted, "traced pass ran a different op count")
        out.failed_ops |= set(plain["failed_ops"])
        out.errors += plain["errors"]
        metrics = tracing.layer_metrics(tracer, plain["wall_s"], out.wall_s,
                                        out.sim["rel_makespan"])
        units = tracing.LAYER_METRICS
        for line in tracing.layer_table(tracer):
            print(f"# {line}")
        path = BUILD / f"trace-{name}-seed{seed}.json"
        tracer.write_chrome(path, {"workload": name, "seed": seed,
                                   "size": out.size, **meta})
        print(f"# chrome trace: {path.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans)")

    print(f"# error_rate = {out.failed}/{out.attempted}")
    for message in out.errors:
        print(f"# FAILED {message}")
    for key in units:
        print(f"{name:<18} {key:<30} {metrics[key]:>14.6g} {units[key]}")
    return {"correct": out.failed == 0, "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def run_all(names: list[str], seed: int, seconds: float, trace: int) -> dict:
    """Every workload in a child process of its own; merged result."""
    results = {}
    for name in names:
        lines, results[name] = child("--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", str(trace))
        print("\n".join(lines), flush=True)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the untraced half of a --trace 1 run, in its own process
    parser.add_argument("--plain-pass", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    pinned = pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.workload == "all":
        result = run_all(list(WORKLOADS), args.seed, args.seconds,
                         args.trace)
    else:
        from repro.network import _ckernel

        kernels = _ckernel.warm()        # compile before anything is timed
        if args.plain_pass:
            result = plain_pass(args.workload, args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), stamp(pinned, kernels))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
