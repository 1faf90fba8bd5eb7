"""Steadiness mode: run workloads repeatedly and compare spreads to bounds.

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workload decide --runs 5
    python3 perfbench/steady.py --runs 1             # one pass over all metrics

Each run is a fresh `perfbench/run.py --trace 0` process with its own seed
(0, 1, ...) and BENCHMARK.json's run_seconds, one at a time.  For every end-to-end metric the report gives
the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json.  A spread
under a third of the bound is steady.  The results, with each run's
printed report, go to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    worst = "steady"
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results, reports = [], []
        for seed in range(args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            reports.append(proc.stdout)
        (out_dir / f"steady-{workload}.json").write_text(
            json.dumps([dict(r, report=t) for r, t in zip(results, reports)]))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} of {attempted} ops failed"
              f" (error_rate {failed / attempted:.6f})")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
              f" {'bound':>6}  unit")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            med, q1, q3, spread = summary(values)
            bound = bounds[name]
            if spread >= bound:
                verdict, worst = "TOO WIDE", "too wide"
            elif spread >= bound / 3:
                verdict = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                verdict = "steady"
            print(f"  {name:32} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f}"
                  f" {bound:>6}  {first['unit']:6} {verdict}")
    print(f"overall: {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
