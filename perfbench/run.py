"""weylcalc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload enumerate --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; weylcalc is imported from src/
with no install.  One closed-loop client replays the workload's op list
through weylcalc.cli.run, one whole pass in each fresh worker process,
with one worker at a time, for about --seconds seconds.  No pass sees
state that an earlier pass left behind.  A worker sets up (import, op
list, warm-up), times its pass, captures every output, then times a
reference task; the first worker also checks its outputs and every later
pass must give the same bytes.  With --trace 0 the last line carries the
end-to-end metrics, and cold starts of `python -m weylcalc` run between
passes, one at a time.  With --trace 1 untraced and traced passes
alternate and the last line carries the per-layer metrics.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracle  # noqa: E402

MIN_PASSES = 2  # a run compares the bytes of at least two passes
COLD_STARTS = 40  # `python -m weylcalc` runs, spread over the run
CHILD_TIMEOUT = 120

# The reference task: the oracle's closure of a dense 5-tuple (120 states),
# rendered and put through a JSON round trip.  It is code of the
# benchmark's own that no change to weylcalc touches, and it leaves no
# cyclic garbage, so it does not shift the collector's schedule for the
# ops around it.  It takes about REF_NOMINAL_S on an undisturbed core and
# is timed between ops whenever REF_EVERY_S of op time has passed.
REF_TUPLE = tuple((16 - k, 21 - k) for k in range(5))
REF_RANK = 10
REF_NOMINAL_S = 0.001
REF_EVERY_S = 0.01
BRACKET_REFS = 5  # reference timings on each side of a set-up or a cold start


# -- percentiles ------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def highest_percentile(n: int, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile with at least ten samples beyond it."""
    ok = [p for p in candidates if n * (100 - p) / 100 >= 10]
    return max(ok) if ok else None


# -- the worker: one pass in a fresh process ----------------------------------

def run_op(cli, op):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(op.stdin or "")
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            traceback.print_exc()
    dt = perf_counter() - t0
    sys.stdin = sys.__stdin__
    return code, out.getvalue(), err.getvalue(), dt


def digest(code, out, err) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16]


def setup(workload, seed):
    """Import weylcalc, build the op list and warm up; returns the seconds."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    from weylcalc import cli

    ops = corpus.build(workload, seed)
    for op in corpus.warm_ops(seed):
        run_op(cli, op)
    return cli, ops, perf_counter() - t0


def reference_seconds() -> float:
    """One timing of the reference task, with the cyclic collector off so
    that no collection lands in it."""
    gc.disable()
    try:
        t0 = perf_counter()
        members = oracle.closure(REF_TUPLE, REF_RANK)
        text = "\n".join(oracle.render_ms(m) for m in members)
        json.loads(json.dumps(text.split("\n")))
        return perf_counter() - t0
    finally:
        gc.enable()


def check_outputs(workload, seed, ops, outputs):
    """[(op index, reason)] of the ops whose output is wrong."""
    golden = None
    if seed == corpus.DEFAULT_SEED and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text()).get(workload)
        if golden is not None and len(golden) != len(ops):
            print(f"golden.json holds {len(golden)} digests for {len(ops)} ops;"
                  " digests not checked", file=sys.stderr)
            golden = None
    failures = []
    for k, (op, (code, out, err)) in enumerate(zip(ops, outputs)):
        try:
            oracle.check(op, code, out, err)
            if golden is not None:
                oracle.expect(digest(code, out, err) == golden[k],
                              "output differs from the seed commit")
        except oracle.CheckFailed as exc:
            failures.append((k, str(exc)))
        except Exception as exc:  # a crash in a check is a failed op too
            failures.append((k, f"check crashed: {exc!r}"))
    return failures


def worker(args):
    """Set up and run one pass, with reference timings before the set-up
    and between the ops; prints one JSON line."""
    reference_seconds()  # the first call is slower: the interpreter is still specializing
    setup_refs = [reference_seconds() for _ in range(BRACKET_REFS)]
    cli, ops, setup_s = setup(args.workload, args.seed)
    setup_refs += [reference_seconds() for _ in range(BRACKET_REFS)]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    outputs, times, refs = [], [], [reference_seconds()]
    since_ref = 0.0
    try:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            code, out, err, dt = run_op(cli, op)
            outputs.append((code, out, err))
            times.append(dt)
            since_ref += dt
            if since_ref >= REF_EVERY_S:
                refs.append(reference_seconds())
                since_ref = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    refs.append(reference_seconds())

    result = {
        "setup_s": setup_s,
        "setup_refs": setup_refs,
        "times": times,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "refs": refs,
        "digests": [digest(*o) for o in outputs],
        "output_bytes": sum(len(out.encode()) for _, out, _ in outputs),
        "exit2": sum(code == 2 for code, _, _ in outputs),
    }
    if tracer is not None:
        result["layer"] = spans.layer_metrics(tracer.spans, len(ops), 1, len(ops),
                                              tracer.missing)
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    if args.check:
        t0 = perf_counter()
        result["failures"] = check_outputs(args.workload, args.seed, ops, outputs)
        result["check_s"] = perf_counter() - t0
    print(json.dumps(result))
    return 0


# -- the parent: fresh workers, cold starts, metrics ------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv):
    """Wall seconds and completed process of a subprocess run from the root."""
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
    return perf_counter() - t0, proc


def run_worker(workload, seed, trace, check):
    """One pass in a fresh worker process; its result, with `scale` added:
    the factor that turns the pass's times into times on a core where the
    reference takes REF_NOMINAL_S, and `setup_scale`, the same for the
    set-up from the reference timings on either side of it."""
    argv = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    _, proc = run_child(argv + ["--check"] if check else argv)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["scale"] = REF_NOMINAL_S / statistics.mean(result["refs"])
    result["setup_scale"] = REF_NOMINAL_S / statistics.mean(result["setup_refs"])
    return result


def run_passes(args, between=None):
    """Workers, one at a time, until the next pass would end after
    --seconds; at least MIN_PASSES.  The first worker checks its outputs,
    and that check is not counted in the run's time.  With --trace 1 the
    passes alternate untraced and traced.  between(share of the run done)
    runs after each pass."""
    results, checking = [], 0.0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        r = run_worker(args.workload, args.seed, args.trace and len(results) % 2,
                       check=not results)
        checking += r.get("check_s", 0.0)
        results.append(r)
        last = perf_counter() - t0 - r.get("check_s", 0.0)
        if between is not None:
            between(min(1.0, (perf_counter() - start - checking) / args.seconds))
        if (len(results) >= MIN_PASSES
                and perf_counter() - start - checking + last > args.seconds):
            break
    if between is not None:
        between(1.0)
    return results


def failed_ops(results, ops):
    """Failed executions: every pass of an op whose checked output is
    wrong, and every pass whose bytes differ from the checked pass."""
    first = results[0]
    bad = {}
    for k, reason in first["failures"]:
        bad[k] = reason
        print(f"op {k} failed: {' '.join(ops[k].argv)}: {reason}", file=sys.stderr)
    failed = 0
    for p, r in enumerate(results):
        for k, d in enumerate(r["digests"]):
            if k in bad:
                failed += 1
            elif d != first["digests"][k]:
                failed += 1
                print(f"op {k} pass {p} differs from pass 0: {' '.join(ops[k].argv)}",
                      file=sys.stderr)
    return failed


def cold_start(cli, op):
    """Wall ms of `python -m weylcalc <op>`, scaled by the reference
    timings on either side of it, and whether its output is right."""
    refs = [reference_seconds() for _ in range(BRACKET_REFS)]
    dt, proc = run_child([sys.executable, "-m", "weylcalc", *op.argv])
    refs += [reference_seconds() for _ in range(BRACKET_REFS)]
    ms = 1000 * dt * REF_NOMINAL_S / statistics.mean(refs)
    want = run_op(cli, op)[:3]
    try:
        oracle.expect((proc.returncode, proc.stdout, proc.stderr) == want,
                      "cold start differs from in-process run")
        oracle.check(op, *want)
    except oracle.CheckFailed as exc:
        print(f"cold start failed: {' '.join(op.argv)}: {exc}", file=sys.stderr)
        return ms, False
    return ms, True


def end_to_end(args):
    """Passes in fresh workers, with cold starts spread between them so
    that a slow spell of the machine touches few of their samples."""
    cli, ops, _ = setup(args.workload, args.seed)  # for checking cold starts only
    cold_ops = corpus.cold_ops(args.seed, COLD_STARTS)
    cold, cold_failed = [], 0

    def between(share):
        nonlocal cold_failed
        while len(cold) < COLD_STARTS * share:
            ms, ok = cold_start(cli, cold_ops[len(cold)])
            cold.append(ms)
            cold_failed += not ok

    results = run_passes(args, between)
    failed = failed_ops(results, ops) + cold_failed
    attempted = len(results) * len(ops) + len(cold)

    # On the shared 2-core machine the benchmark was built on, the speed of
    # a core changes within a tenth of a second and its average over a run
    # drifts by a fifth or more over minutes, alike in CPU and wall time.
    # Reference timings between the ops of a pass follow those changes, so
    # each pass's times are scaled by the mean of its reference timings,
    # and a set-up or a cold start by those on either side of it.
    rates = [len(ops) / sum(r["times"]) / r["scale"] for r in results]
    per_op = [statistics.median(r["times"][k] * r["scale"] for r in results)
              for k in range(len(ops))]
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (1000 * percentile(per_op, 50), "ms"),
        "latency_p90_ms": (1000 * percentile(per_op, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
        "setup_s": (statistics.median(r["setup_s"] * r["setup_scale"] for r in results), "s"),
        "cold_start_ms": (statistics.median(cold), "ms"),
    }
    scales = [r["scale"] for r in results]
    notes = {
        "error_rate": f"{failed / attempted:.6f} ({failed} of {attempted} ops)",
        "latency samples": f"{len(per_op)} ops, each the median of {len(results)} passes;"
                           f" highest percentile with >= 10 samples beyond it:"
                           f" p{highest_percentile(len(per_op))}",
        "reference": f"{sum(len(r['refs']) for r in results)} timings; pass scales"
                     f" {min(scales):.4f} to {max(scales):.4f}",
        "unscaled": f"{statistics.median(len(ops) / sum(r['times']) for r in results):.4f} ops/s"
                    f" median pass, setup {statistics.median(r['setup_s'] for r in results):.4f} s",
        "repeat_share": f"{corpus.repeat_share(ops):.3f}",
        "samples": f"{len(results)} passes in fresh workers, {len(cold)} cold starts",
    }
    return metrics, notes, attempted, failed


def interpreter_ms(code, count=7):
    return statistics.median(
        1000 * run_child([sys.executable, "-c", code])[0] for _ in range(count))


def import_ms(count=7):
    code = ("import time; t = time.perf_counter(); import weylcalc.cli;"
            " print(time.perf_counter() - t)")
    return statistics.median(
        1000 * float(run_child([sys.executable, "-c", code])[1].stdout) for _ in range(count))


def traced(args):
    """Untraced and traced passes in turn, each in a fresh worker; a
    per-layer metric is the median over the traced passes, times scaled
    like the end-to-end ones."""
    ops = corpus.build(args.workload, args.seed)
    results = run_passes(args)
    failed = failed_ops(results, ops)
    plain = [r for r in results if "layer" not in r]
    with_trace = [r for r in results if "layer" in r]
    metrics = {}
    for name in with_trace[0]["layer"]:
        unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_yield") else "count"
        metrics[name] = (statistics.median(
            r["layer"][name] * (r["scale"] if unit == "ms" else 1) for r in with_trace), unit)
    rate = {k: statistics.median(len(ops) / sum(r["times"]) / r["scale"] for r in rs)
            for k, rs in (("plain", plain), ("traced", with_trace))}
    metrics.update({
        "cli.output_bytes": (with_trace[0]["output_bytes"], "bytes"),
        "cli.exit2_ops": (with_trace[0]["exit2"], "count"),
        "cli.import_ms": (import_ms(), "ms"),
        "cli.interpreter_ms": (interpreter_ms("pass"), "ms"),
        "trace.op_ms": (1000 / rate["traced"], "ms"),
        "trace.ops_per_s_untraced": (rate["plain"], "1/s"),
        "trace.ops_per_s_traced": (rate["traced"], "1/s"),
        "trace.overhead_pct": (100 * (rate["plain"] / rate["traced"] - 1), "%"),
    })
    notes = {"missing": ", ".join(with_trace[0]["missing"]) or "none",
             "repeat_share": f"{corpus.repeat_share(ops):.3f}",
             "spans": f"{with_trace[-1]['spans']} in the last of {len(with_trace)} traced"
                      f" passes, written to {OUT_DIR.name}/spans-{args.workload}-{args.seed}.jsonl"}
    return metrics, notes, len(results) * len(ops), failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true",
                    help="run one pass in this process, print its raw result and exit")
    ap.add_argument("--check", action="store_true",
                    help="with --worker: also check the pass's outputs")
    args = ap.parse_args(argv)

    if not (SRC / "weylcalc" / "cli.py").is_file():
        print(f"error: no weylcalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    if args.worker:
        return worker(args)

    metrics, notes, attempted, failed = (traced if args.trace else end_to_end)(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10} {name:32} {value:14.4f} {unit}")
    for name, text in notes.items():
        print(f"{args.workload:10} {name:32} {text}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
