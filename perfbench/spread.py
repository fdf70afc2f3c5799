#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread over several seeds.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] \
        [--trace 0|1] [--write perfbench/BASELINE.json]

Runs ``perfbench/run.py`` once per seed (1..runs) for each workload, as
separate processes, and prints for every metric the median and the
quartile spread: (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``, marked against the end-to-end
bounds in ``BENCHMARK.json``.  ``--write`` merges the seeds, medians,
spreads, raw values, result stamp and each workload's reason into one JSON
file, under ``end_to_end`` or (with ``--trace 1``) ``per_layer``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = next(json.loads(line.removeprefix("# stamp: "))
                           for line in lines
                           if line.startswith("# stamp: "))
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="*", default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    report = (json.loads(args.write.read_text())
              if args.write is not None and args.write.exists()
              else {"run_seconds": spec["run_seconds"], "workloads": {}})
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        stamp = None
        seeds = list(range(1, args.runs + 1))
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            failed += result["failed"]
            stamp = result["stamp"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            rows[name] = {"unit": units[name],
                          "median": statistics.median(vals),
                          "spread": spread(vals) if len(vals) > 1 else 0.0,
                          "values": vals}
            bound = bounds.get(name)
            mark = ("" if bound is None or name == "setup_s"
                    else "  ok" if rows[name]["spread"] < bound / 3
                    else "  WIDE" if rows[name]["spread"] > bound
                    else "  > bound/3")
            print(f"  {workload:<18} {name:<28} median "
                  f"{rows[name]['median']:>12.5g} {units[name]:<6} spread "
                  f"{rows[name]['spread']:.3f}"
                  + (f" (bound {bound})" if bound is not None else "")
                  + mark, flush=True)
        entry = report["workloads"].setdefault(workload, {})
        entry["why"] = next(w["why"] for w in spec["workloads"]
                            if w["name"] == workload)
        entry[section] = {"seeds": seeds, "failed": failed, "stamp": stamp,
                          "metrics": rows}
    if args.write is not None:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
