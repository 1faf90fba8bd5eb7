"""Time a fundamental character's tail text against its per-term rows.

Run from the root of a checkout:

    PYTHONPATH=src python tests/qchar_timing.py --seed 0 --repeat 9

`str` of a fundamental_qchar takes the walk that built its keys again, on
the rendered factors (qchars._tails): each row is one concatenation per
down-step. The reference joins each term's rendered factors in turn
(QChar._rows, which `str` still takes for every other character). Each
pair runs in turn, in process, and keeps the best of --repeat runs of
each; both must give the same bytes. The cases are [34,41] at rank 14
(6,435 terms) and every single-segment `qchar` op of the enumerate
workload (perfbench/corpus.py), summed; the build column times
fundamental_qchar itself. The name does not start with `test_`, so pytest
does not collect this script.
"""

from __future__ import annotations

import argparse
import sys
import time

from helpers import per_term_text, perfbench_corpus

from weylcalc import Segment, cli, fundamental_qchar


def corpus_singles(seed):
    """(segment, rank) of every single-segment qchar op of enumerate."""
    out = []
    for op in perfbench_corpus().build("enumerate", seed):
        if op.argv[0] == "qchar" and "--json" not in op.argv:
            ms = cli.parse_multisegment(op.argv[-1])
            if len(ms) == 1:
                out.append((ms[0], int(op.argv[op.argv.index("--rank") + 1])))
    return out


def best(f, q, repeat):
    out, t = None, float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = f(q)
        t = min(t, time.perf_counter() - start)
    return t, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    ap.add_argument("--repeat", type=int, default=9, help="runs per case (default 9)")
    args = ap.parse_args(argv)
    rows = [("[34,41]", 14, [(Segment(34, 41), 14)]),
            (f"enumerate seed {args.seed} singles", "-", corpus_singles(args.seed))]
    print("case\trank\tcalls\tterms\tbuild ms\ttail ms\trows ms\trows / tail")
    for name, rank, cases in rows:
        build = tail = joined = terms = 0
        for seg, r in cases:
            b, q = best(lambda s: fundamental_qchar(s, r), seg, args.repeat)
            t, text = best(str, q, args.repeat)
            j, want = best(per_term_text, q, args.repeat)
            assert text == want, (seg, r)
            build, tail, joined, terms = build + b, tail + t, joined + j, terms + len(q)
        print(f"{name}\t{rank}\t{len(cases)}\t{terms}\t{build * 1e3:.3f}\t"
              f"{tail * 1e3:.3f}\t{joined * 1e3:.3f}\t{joined / tail:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
