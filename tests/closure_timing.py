"""Time the closure engine against the breadth-first search it replaced.

Run from the root of a checkout:

    PYTHONPATH=src python tests/closure_timing.py --seed 0 --repeat 9

Each case times closures._left_closure (the walk over arrangements that
pass tests (a) and (b)) and helpers.search_closure (the reference: the
listing for doubly sorted seeds at rank >= span, a breadth-first search
for every other seed) in turn, in process, and keeps the best of --repeat
runs of each. The cases are four dense seven- and eight-part seeds, a
1,200-part doubly sorted chain, and every seed that the enumerate and
cli-mix ops of perfbench/corpus.py hand to _left_closure (recorded while
the op runs through cli.run), summed per workload. Both engines must list
the same left tuples. The name does not start with `test_`, so pytest does
not collect this script.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

from helpers import dense_seeds, perfbench_corpus, search_closure

from weylcalc import Multisegment, Segment, cli, closures, qchars


def named_cases():
    chain = Multisegment(Segment(3 * k, 3 * k + 1) for k in range(1199, -1, -1))
    return [(label, ms, rank) for label, ms, rank, _ in dense_seeds()] + [
        ("[3597,3598]...[0,1], 1,200 parts", chain, 3600)]


def corpus_seeds(workload, seed):
    """(ms, rank) of every _left_closure call made by the workload's ops."""
    calls, engine = [], closures._left_closure

    def record(ms, rank):
        calls.append((ms, rank))
        return engine(ms, rank)

    with patch.object(closures, "_left_closure", record), \
            patch.object(qchars, "_left_closure", record):
        for op in perfbench_corpus().build(workload, seed):
            with patch.object(sys, "stdin", io.StringIO(op.stdin or "")), \
                    redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.run(list(op.argv))
    return calls


def best_pair(ms, rank, repeat):
    """Best seconds of the engine and of the search, run in turn."""
    best, lefts = [float("inf")] * 2, [None] * 2
    for _ in range(repeat):
        for k, f in enumerate((closures._left_closure, search_closure)):
            start = time.perf_counter()
            lefts[k] = f(ms, rank)[1]
            best[k] = min(best[k], time.perf_counter() - start)
    assert sorted(lefts[0]) == sorted(lefts[1]), (ms, rank)
    return best, len(lefts[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    ap.add_argument("--repeat", type=int, default=9, help="runs per case (default 9)")
    args = ap.parse_args(argv)
    print("case\trank\tcalls\tmembers\tengine ms\tsearch ms\tsearch / engine")
    rows = [(name, rank, [(ms, rank)]) for name, ms, rank in named_cases()]
    rows += [(f"{w} seed {args.seed}", "-", corpus_seeds(w, args.seed))
             for w in ("enumerate", "cli-mix")]
    for name, rank, seeds in rows:
        engine = search = members = 0
        for ms, r in seeds:
            (e, s), n = best_pair(ms, r, args.repeat)
            engine, search, members = engine + e, search + s, members + n
        print(f"{name}\t{rank}\t{len(seeds)}\t{members}\t{engine * 1e3:.3f}\t"
              f"{search * 1e3:.3f}\t{search / engine:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
