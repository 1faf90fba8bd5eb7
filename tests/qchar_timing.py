"""Time q-character text: fundamental tails and packed product rows.

Run from the root of a checkout:

    PYTHONPATH=src python tests/qchar_timing.py --seed 0 --repeat 9

The first table times fundamental characters. fundamental_qchar builds
its factor table and shape alone (build); its keys are built on first
read (keys: build plus the walk on index pieces). `str` takes the walk of
_tails on the rendered factors, each row one concatenation per down-step
(tail). The reference joins each term's rendered factors in turn, from its
sorted keys (helpers.per_term_text, rows). The cases are [34,41] at rank
14 (6,435 terms), every single-segment `qchar` op of the enumerate
workload (perfbench/corpus.py), summed, and the length-1 characters at
ranks 1 and 2, the size of cli-mix's ops. Its last row times `str` of
the search of _dominant (its __wrapped__, no memo) on [1,2][5,5] at rank 1,
and in a last column the same on [101,102][105,105], a translate that the
memo answers once [1,2][5,5] is in it.

The second table times products through cli.run: the packed rows, sorted
on byte keys and rendered per 64-bit chunk (rows), against the same ops
with every product decoded to tuple keys and sorted on them
(helpers.keyed_qchar, keyed). The cases are every product `qchar` op of
the enumerate workload, summed, and [0,3][2,5][4,7] at rank 7 (172,480
terms). Both sides must print the same bytes.

Each pair runs in process and keeps the best of --repeat runs of each;
the products take their runs in turn, so that both sides see the same
machine. The name does not start with `test_`, so pytest does not
collect this script.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import time
from contextlib import redirect_stdout
from unittest.mock import patch

from helpers import keyed_qchar, per_term_text, perfbench_corpus

from weylcalc import Segment, cli, fundamental_qchar, qchars
from weylcalc.qchars import _dominant


def corpus_qchars(seed):
    """argv of every text qchar op of enumerate, single segments first."""
    ops = [op.argv for op in perfbench_corpus().build("enumerate", seed)
           if op.argv[0] == "qchar" and "--json" not in op.argv]
    singles = [a for a in ops if a[-1].count("[") == 1]
    return singles, [a for a in ops if a[-1].count("[") > 1]


def single(argv):
    """(segment, rank) of a single-segment qchar argv."""
    return cli.parse_multisegment(argv[-1])[0], int(argv[argv.index("--rank") + 1])


def best(f, q, repeat):
    out, t = None, float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = f(q)
        t = min(t, time.perf_counter() - start)
    return t, out


def printed(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return out.getvalue()


def keyed(argv):
    with patch.object(qchars, "weyl_qchar", keyed_qchar), \
            patch.object(qchars, "_dominant", lambda ms, r: keyed_qchar(ms, r, True)):
        return printed(argv)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    ap.add_argument("--repeat", type=int, default=9, help="runs per case (default 9)")
    args = ap.parse_args(argv)
    singles, products = corpus_qchars(args.seed)
    rows = [("[34,41]", 14, [(Segment(34, 41), 14)]),
            (f"enumerate seed {args.seed} singles", "-", list(map(single, singles))),
            ("length 1", "1-2", [(Segment(i, i + 1), r) for r in (1, 2) for i in (-1, 1)])]
    print("case\trank\tcalls\tterms\tbuild us\tkeys us\ttail us\trows us\trows / tail"
          "\ttranslate us")
    for name, rank, cases in rows:
        build = keys = tail = joined = terms = 0
        for seg, r in cases:
            b, q = best(lambda s: fundamental_qchar(s, r), seg, args.repeat)
            k, _ = best(lambda s: fundamental_qchar(s, r)._keys, seg, args.repeat)
            t, text = best(str, q, args.repeat)
            j, want = best(per_term_text, q, args.repeat)
            assert text == want, (seg, r)
            build, keys, tail, joined = build + b, keys + k, tail + t, joined + j
            terms += len(q)
        print(f"{name}\t{rank}\t{len(cases)}\t{terms}\t{build * 1e6:.1f}\t"
              f"{keys * 1e6:.1f}\t{tail * 1e6:.1f}\t{joined * 1e6:.1f}\t{joined / tail:.2f}\t-")
    ms, moved = map(cli.parse_multisegment, ("[1,2][5,5]", "[101,102][105,105]"))
    d, _ = best(lambda m: str(_dominant.__wrapped__(m, 1)), ms, args.repeat)
    with patch.dict(_dominant.memo, clear=True):
        _dominant(ms, 1)
        h, text = best(lambda m: str(_dominant(m, 1)), moved, args.repeat)
    assert text == str(_dominant.__wrapped__(moved, 1))
    print(f"dominant [1,2][5,5]\t1\t1\t1\t-\t-\t{d * 1e6:.1f}\t-\t-\t{h * 1e6:.1f}")
    print("\ncase\tcalls\tbytes\trows ms\tkeyed ms\tkeyed / rows")
    cases = [(f"enumerate seed {args.seed} products", products, args.repeat),
             ("[0,3][2,5][4,7] at rank 7", [("qchar", "--rank", "7", "[0,3][2,5][4,7]")],
              min(args.repeat, 3))]
    for name, ops, repeat in cases:
        fast = slow = size = 0
        for op in ops:
            text, want = printed(op), keyed(op)
            assert text == want, op
            f = s = float("inf")
            for _ in range(repeat):  # no run pays for garbage that an earlier one left
                gc.collect()
                f = min(f, best(printed, op, 1)[0])
                gc.collect()
                s = min(s, best(keyed, op, 1)[0])
            fast, slow, size = fast + f, slow + s, size + len(text)
        print(f"{name}\t{len(ops)}\t{size}\t{fast * 1e3:.2f}\t{slow * 1e3:.2f}\t"
              f"{slow / fast:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
