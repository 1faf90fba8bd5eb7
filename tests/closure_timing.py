"""Time the closure engine and the weigher against the references they replaced.

Run from the root of a checkout:

    PYTHONPATH=src python tests/closure_timing.py --seed 0 --repeat 9

The first table times closure(...).lefts (closures._left_closure's walk
on tuples, permuted and sorted for a seed not in plus order) and
helpers.search_closure (the reference: the listing for doubly sorted
seeds at rank >= span, a breadth-first search for every other seed). The
second times str(closure(...)), the walk on texts, against the listing it
replaced (helpers.listed_closure, sorted, then helpers.column_text), on
the closure ops of the enumerate workload at --seed and the next seed,
split at 120 members; then len(closure(...)) on twelve lefts each below
every right endpoint, 12! members counted with none listed. The third
times the search of qchars._weight_keys (its __wrapped__: the dominant
weight keys, from the matchings of lefts to js that pass (a) and (b), with
no member built, and no memo) and helpers.weigh_each (every member of
listed_closure's listing weighed in turn); its last column times
_weight_keys on each seed shifted by 1,000 once the seed's own shape is in
the memo, a translated repeat that the memo answers. Each pair runs in
turn, in process, and keeps the best of --repeat runs of each; both sides
must give the same left tuples, the same bytes, or the same factor table
and keys. The cases are four dense seven- and eight-part seeds, a
1,200-part doubly sorted chain (first table only), and
every seed that the ops of perfbench/corpus.py hand to the function timed
(recorded while the op runs through cli.run), summed per workload: the
enumerate and cli-mix ops for the engine, the decide and cli-mix ops for
the weigher. The name does not start with `test_`, so pytest does not
collect this script.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

from helpers import (
    column_text,
    dense_seeds,
    listed_closure,
    perfbench_corpus,
    search_closure,
    weigh_each,
)

from weylcalc import Multisegment, Segment, cli, closure, closures, qchars, sort_plus, span


def named_cases():
    chain = Multisegment(Segment(3 * k, 3 * k + 1) for k in range(1199, -1, -1))
    return [(label, ms, rank) for label, ms, rank, _ in dense_seeds()] + [
        ("[3597,3598]...[0,1], 1,200 parts", chain, 3600)]


def corpus_seeds(workload, seed, name, module):
    """(ms, rank) of every call of module's function name that the workload's ops make.

    Callers read the function off its module at call time, so wrapping
    that one binding while the ops run sees every call.
    """
    calls, timed = [], getattr(module, name)

    def record(ms, rank):
        calls.append((ms, rank))
        return timed(ms, rank)

    with patch.object(module, name, record):
        for op in perfbench_corpus().build(workload, seed):
            with patch.object(sys, "stdin", io.StringIO(op.stdin or "")), \
                    redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.run(list(op.argv))
    return calls


def listed(ms, rank):
    return list(closure(ms, rank).lefts)


def searched(ms, rank):
    return sorted(search_closure(ms, rank)[1])


def walked_text(ms, rank):
    return str(closure(ms, rank))


def listed_text(ms, rank):
    js, order = listed_closure(ms, rank)
    return column_text(js, sorted(order))


def keyed(ms, rank):
    q = qchars._weight_keys.__wrapped__(ms, rank)  # the search, not a memo hit
    return q._factors, q._keys


def translated(ms, rank, repeat):
    """Best seconds of _weight_keys on ms shifted by 1,000, ms's shape in the memo."""
    moved, best = Multisegment(p.shift(1000) for p in ms), float("inf")
    with patch.dict(qchars._weight_keys.memo, clear=True):
        qchars._weight_keys(ms, rank)
        for _ in range(repeat):
            start = time.perf_counter()
            q = qchars._weight_keys(moved, rank)
            best = min(best, time.perf_counter() - start)
    assert (q._factors, q._keys) == keyed(moved, rank), (ms, rank)
    return best


def best_pair(new, old, ms, rank, repeat):
    """Best seconds of new and of old, run in turn, and the size of the result."""
    best, got = [float("inf")] * 2, [None] * 2
    for _ in range(repeat):
        for k, f in enumerate((new, old)):
            start = time.perf_counter()
            got[k] = f(ms, rank)
            best[k] = min(best[k], time.perf_counter() - start)
    assert got[0] == got[1], (ms, rank)
    if new is walked_text:
        return best, got[0].count("\n") + 1
    return best, len(got[0]) if new is listed else len(got[0][1])


def table(header, new, old, rows, repeat, hit=None):
    """One line per row of cases; with hit, a last column sums hit(ms, rank, repeat)."""
    print(header)
    for name, rank, seeds in rows:
        fast = slow = size = again = 0
        for ms, r in seeds:
            (f, s), n = best_pair(new, old, ms, r, repeat)
            fast, slow, size = fast + f, slow + s, size + n
            again += hit(ms, r, repeat) if hit else 0
        print(f"{name}\t{rank}\t{len(seeds)}\t{size}\t{fast * 1e3:.3f}\t"
              f"{slow * 1e3:.3f}\t{slow / fast:.2f}" + (f"\t{again * 1e3:.3f}" if hit else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    ap.add_argument("--repeat", type=int, default=9, help="runs per case (default 9)")
    args = ap.parse_args(argv)
    rows = [(name, rank, [(ms, rank)]) for name, ms, rank in named_cases()]
    rows += [(f"{w} seed {args.seed}", "-",
              corpus_seeds(w, args.seed, "closure", closures))
             for w in ("enumerate", "cli-mix")]
    table("case\trank\tcalls\tmembers\tengine ms\tsearch ms\tsearch / engine",
          listed, searched, rows, args.repeat)
    seeds = [(ms, rank) for s in (args.seed, args.seed + 1)
             for ms, rank in corpus_seeds("enumerate", s, "closure", closures)]
    sizes = {case: len(listed_closure(*case)[1]) for case in seeds}
    rows = [(f"enumerate seeds {args.seed}-{args.seed + 1}, {name} members", "-",
             [case for case in seeds if (sizes[case] <= 120) == small])
            for name, small in (("<= 120", True), ("> 120", False))]
    print()
    table("case\trank\tcalls\tmembers\twalk ms\tlisting ms\tlisting / walk",
          walked_text, listed_text, rows, args.repeat)
    twelve = Multisegment(Segment(k, 20 + k) for k in range(11, -1, -1))
    best = float("inf")
    for _ in range(args.repeat):
        start = time.perf_counter()
        count = len(closure(twelve, span(twelve)))
        best = min(best, time.perf_counter() - start)
    assert count == 479001600
    print(f"len, 12 lefts below 12 js\t{span(twelve)}\t1\t{count}\t{best * 1e3:.3f}")
    rows = [(name, rank, [(sort_plus(ms), rank)])
            for name, ms, rank in named_cases()[:-1]]
    rows += [(f"{w} seed {args.seed}", "-",
              corpus_seeds(w, args.seed, "_weight_keys", qchars))
             for w in ("decide", "cli-mix")]
    print()
    table("case\trank\tcalls\tkeys\tweigher ms\teach ms\teach / weigher\ttranslate ms",
          keyed, weigh_each, rows, args.repeat, translated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
