"""Time each layer against the reference it replaced, in process.

Run from the root of a checkout:

    PYTHONPATH=src python tests/layer_timing.py --seed 0 --repeat 9

Seven tables follow, a line per case and a timed column per callable. One
timer serves them all: on each of --repeat rounds it runs a row's callables
in turn, each after gc.collect(), and keeps each one's best; a row of
several inputs sums those bests. Only the JSON renders take a result
computed afresh, untimed, before each run, so that no render reads what an
earlier one cached. Every line asserts that the engine and its reference
agree. The corpora are the op lists of perfbench/corpus.py at --seed; the
seeds that ops hand to a function are recorded while they run through
cli.run.

1. closure(...).lefts, closures._left_closure's walk on tuples (engine),
   against helpers.search_closure, the breadth-first search it replaced,
   sorted (search), on four dense seeds, a 1,200-part doubly sorted chain
   and the seeds that the enumerate and cli-mix ops hand to closures.closure,
   summed per workload: equal left tuples.
2. str(closure(...)), the walk on texts (walk), against the listing it
   replaced, helpers.listed_closure sorted and then helpers.column_text
   (listing), on the enumerate closure seeds of --seed and the next seed,
   split at 120 members: equal bytes. A last line times len(closure(...))
   on twelve lefts each below every right endpoint: 12! members counted
   with none listed.
3. The search of qchars._weight_keys, its __wrapped__ with no memo
   (weigher), against helpers.weigh_each, every listed member weighed in
   turn (each), on the dense seeds, plus-sorted, and the seeds that the
   decide and cli-mix ops weigh: equal factor tables and keys. The last
   column times _weight_keys on each seed shifted by 1,000 once the seed's
   own shape is in the memo, which answers it.
4. Fundamental characters: fundamental_qchar, which builds its factor table
   and shape alone (build); its keys, built on first read by the walk on
   index pieces (keys, build included); str, the walk of _tails on the
   rendered factors (tail); and helpers.per_term_text, a join of each term's
   rendered factors from its sorted keys (rows). The cases are [34,41] at
   rank 14 (6,435 terms), every single-segment text qchar op of enumerate,
   and the length-1 characters at ranks 1 and 2, the size of cli-mix's ops:
   equal text. A last line times str of _dominant's search (its
   __wrapped__) on [1,2][5,5] at rank 1 and, in the translate column, str
   of _dominant on [101,102][105,105], which the memo answers once it holds
   [1,2][5,5].
5. Products through cli.run: the packed rows, sorted on byte keys and
   rendered per 64-bit chunk (rows), against the same ops with every
   product decoded to tuple keys and sorted on them, helpers.keyed_qchar
   (keyed), on every product text qchar op of enumerate and on
   [0,3][2,5][4,7] at rank 7 (172,480 terms, at most 3 rounds): equal bytes.
6. The literal parsers cli.parse_multisegment and cli.parse_lweight, one
   findall a literal (token), against helpers.scan_multisegment and
   helpers.scan_lweight, two regex calls a part (reference), on every
   literal of each workload's ops as cli.run reads them (the positionals of
   each argv, a `-` taking the op's stdin once; an argv that only argparse
   reads is skipped), all of a workload and kind in one loop: equal values,
   or equal errors once the reference's code-point offsets count UTF-8
   bytes.
7. --json: the text render (text), json.dumps of the tree that --json
   printed before, helpers.JSON_REFERENCE (reference), and the direct
   renderer (direct), on qchar [34,41] at rank 14, the 5,040-member closure
   [16,23][15,22]...[10,17] at rank 12, the 720-row dominant-weights
   [39,46][37,45][34,44][31,43][28,41][26,40] at rank 19, the 1,800-term
   product [25,27][20,23][24,25] at rank 5, and every cli-mix --json op
   that exits 0, summed: equal bytes from both JSON renders.

The name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial
from unittest.mock import patch

from helpers import (JSON_REFERENCE, column_text, dense_seeds, keyed_qchar, listed_closure,
                     parse_outcome, per_term_text, perfbench_corpus, scan_lweight,
                     scan_multisegment, search_closure, weigh_each)

from weylcalc import (Multisegment, Segment, cli, closure, closures, fundamental_qchar, qchars,
                      sort_plus, span)


def best(sides, repeat, fresh=None):
    """(best seconds, last result) of each side. On each of repeat rounds the
    sides run in turn, each after gc.collect(), with no argument, or on
    fresh() computed untimed before it."""
    times, outs = [float("inf")] * len(sides), [None] * len(sides)
    for _ in range(repeat):
        for k, f in enumerate(sides):
            outs[k] = None  # the last result is freed untimed
            args = (fresh(),) if fresh else ()
            gc.collect()
            start = time.perf_counter()
            out = f(*args)
            times[k] = min(times[k], time.perf_counter() - start)
            outs[k] = out
    return times, outs


def summed(cases, repeat, sides, check, fresh=None):
    """(each side's best seconds summed over cases, the summed sizes).

    sides(*case) gives a case's callables and fresh(*case), if given, the
    function that computes their argument; check(case, results) asserts
    that the results agree and gives the case's size."""
    times, size = [], 0
    for case in cases:
        t, outs = best(sides(*case), repeat, fresh and fresh(*case))
        times.append(t)
        size += check(case, outs)
    return [sum(t) for t in zip(*times)], size


@cache
def ops(workload, seed):
    return perfbench_corpus().build(workload, seed)


def run(argv, stdin=None):
    """(stdout, exit code) of cli.run(argv), reading stdin as its input."""
    out = io.StringIO()
    with patch.object(sys, "stdin", io.StringIO(stdin or "")), redirect_stdout(out), \
            redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return out.getvalue(), code


def handed(workload, seed, module, name):
    """(ms, rank) of every call of module's function name that the workload's ops make.

    Callers read the function off its module at call time, so wrapping
    that one binding while the ops run sees every call.
    """
    calls, timed = [], getattr(module, name)

    def record(ms, rank):
        calls.append((ms, rank))
        return timed(ms, rank)

    with patch.object(module, name, record):
        for op in ops(workload, seed):
            run(op.argv, op.stdin)
    return calls


def shifted(ms):
    return Multisegment(p.shift(1000) for p in ms)


def primed(search, ms, rank):
    """Empty search's memo and put ms's shape in it, which answers ms's translates."""
    search.memo.clear()
    search(ms, rank)


def named_cases():
    chain = Multisegment(Segment(3 * k, 3 * k + 1) for k in range(1199, -1, -1))
    return [(label, ms, rank) for label, ms, rank, _ in dense_seeds()] + [
        ("[3597,3598]...[0,1], 1,200 parts", chain, 3600)]


def engine_and_reference(header, rows, repeat, sides, check):
    """Print header and a line per row (name, rank, cases): the engine's and the
    reference's summed best ms, their ratio, and a column for any third side."""
    print(header)
    for name, rank, cases in rows:
        (new, old, *hit), size = summed(cases, repeat, sides, check)
        print(f"{name}\t{rank}\t{len(cases)}\t{size}\t{new * 1e3:.3f}\t{old * 1e3:.3f}\t"
              f"{old / new:.2f}" + "".join(f"\t{t * 1e3:.3f}" for t in hit))


def agree(a, b, size=len):
    """A check that results a and b are equal, the case's size that of result a."""
    def check(case, outs):
        assert outs[a] == outs[b], case
        return size(outs[a])
    return check


def lines(text):
    return text.count("\n") + 1


def lefts_table(seed, repeat):
    rows = [(name, rank, [(ms, rank)]) for name, ms, rank in named_cases()]
    rows += [(f"{w} seed {seed}", "-", handed(w, seed, closures, "closure"))
             for w in ("enumerate", "cli-mix")]
    engine_and_reference(
        "case\trank\tcalls\tmembers\tengine ms\tsearch ms\tsearch / engine", rows, repeat,
        lambda ms, r: [lambda: list(closure(ms, r).lefts),
                       lambda: sorted(search_closure(ms, r)[1])], agree(0, 1))


def listing(ms, rank):
    js, order = listed_closure(ms, rank)
    return column_text(js, sorted(order))


def text_table(seed, repeat):
    seeds = [case for s in (seed, seed + 1)
             for case in handed("enumerate", s, closures, "closure")]
    sizes = {case: len(listed_closure(*case)[1]) for case in seeds}
    rows = [(f"enumerate seeds {seed}-{seed + 1}, {name} members", "-",
             [case for case in seeds if (sizes[case] <= 120) == small])
            for name, small in (("<= 120", True), ("> 120", False))]

    engine_and_reference(
        "case\trank\tcalls\tmembers\twalk ms\tlisting ms\tlisting / walk", rows, repeat,
        lambda ms, r: [lambda: str(closure(ms, r)), partial(listing, ms, r)],
        agree(0, 1, lines))
    twelve = Multisegment(Segment(k, 20 + k) for k in range(11, -1, -1))
    (t,), (count,) = best([lambda: len(closure(twelve, span(twelve)))], repeat)
    assert count == 479001600
    print(f"len, 12 lefts below 12 js\t{span(twelve)}\t1\t{count}\t{t * 1e3:.3f}")


def weighed(ms, rank):
    q = qchars._weight_keys.__wrapped__(ms, rank)  # the search, not a memo hit
    return q._factors, q._keys


def weigher_sides(ms, rank):
    primed(qchars._weight_keys, ms, rank)
    return [partial(weighed, ms, rank), partial(weigh_each, ms, rank),
            partial(qchars._weight_keys, shifted(ms), rank)]


def weigher_table(seed, repeat):
    rows = [(name, rank, [(sort_plus(ms), rank)]) for name, ms, rank in named_cases()[:-1]]
    rows += [(f"{w} seed {seed}", "-", handed(w, seed, qchars, "_weight_keys"))
             for w in ("decide", "cli-mix")]

    def check(case, outs):
        assert outs[0] == outs[1], case
        moved = weighed(shifted(case[0]), case[1])
        assert (outs[2]._factors, outs[2]._keys) == moved, case
        return len(outs[0][1])

    engine_and_reference(
        "case\trank\tcalls\tkeys\tweigher ms\teach ms\teach / weigher\ttranslate ms", rows,
        repeat, weigher_sides, check)


def fundamental_sides(seg, rank):
    q = fundamental_qchar(seg, rank)
    return [partial(fundamental_qchar, seg, rank), lambda: fundamental_qchar(seg, rank)._keys,
            partial(str, q), partial(per_term_text, q)]


def fundamental_table(seed, repeat):
    texts = [op.argv for op in ops("enumerate", seed)
             if op.argv[0] == "qchar" and "--json" not in op.argv]
    singles = [(cli.parse_multisegment(a[-1])[0], int(a[a.index("--rank") + 1]))
               for a in texts if a[-1].count("[") == 1]
    rows = [("[34,41]", 14, [(Segment(34, 41), 14)]),
            (f"enumerate seed {seed} singles", "-", singles),
            ("length 1", "1-2", [(Segment(i, i + 1), r) for r in (1, 2) for i in (-1, 1)])]
    print("case\trank\tcalls\tterms\tbuild us\tkeys us\ttail us\trows us\trows / tail"
          "\ttranslate us")
    for name, rank, cases in rows:
        times, terms = summed(cases, repeat, fundamental_sides, agree(2, 3, lines))
        print(f"{name}\t{rank}\t{len(cases)}\t{terms}\t"
              + "".join(f"{t * 1e6:.1f}\t" for t in times) + f"{times[3] / times[2]:.2f}\t-")
    dominant = qchars._dominant
    ms, moved = map(cli.parse_multisegment, ("[1,2][5,5]", "[101,102][105,105]"))
    primed(dominant, ms, 1)
    (d, h), (_, text) = best([lambda: str(dominant.__wrapped__(ms, 1)),
                              lambda: str(dominant(moved, 1))], repeat)
    assert text == str(dominant.__wrapped__(moved, 1))
    print(f"dominant [1,2][5,5]\t1\t1\t1\t-\t-\t{d * 1e6:.1f}\t-\t-\t{h * 1e6:.1f}")


def printed(argv):
    text, code = run(argv)
    assert code == 0, argv
    return text


def keyed(argv):
    with patch.object(qchars, "weyl_qchar", keyed_qchar), \
            patch.object(qchars, "_dominant", lambda ms, r: keyed_qchar(ms, r, True)):
        return printed(argv)


def product_table(seed, repeat):
    products = [(op.argv,) for op in ops("enumerate", seed) if op.argv[0] == "qchar"
                and "--json" not in op.argv and op.argv[-1].count("[") > 1]
    rows = [(f"enumerate seed {seed} products", products, repeat),
            ("[0,3][2,5][4,7] at rank 7", [(("qchar", "--rank", "7", "[0,3][2,5][4,7]"),)],
             min(repeat, 3))]
    print("case\tcalls\tbytes\trows ms\tkeyed ms\tkeyed / rows")
    for name, cases, rounds in rows:
        (fast, slow), size = summed(
            cases, rounds, lambda op: [partial(printed, op), partial(keyed, op)], agree(0, 1))
        print(f"{name}\t{len(cases)}\t{size}\t{fast * 1e3:.2f}\t{slow * 1e3:.2f}\t"
              f"{slow / fast:.2f}")


def literals(workload, seed):
    """{kind: [text, ...]} of the workload's ops, in op order."""
    out = {"ms": [], "w": []}
    for op in ops(workload, seed):
        args = cli._read(list(op.argv))
        if args is None:
            continue
        stdin = [op.stdin or ""]  # cli.run reads stdin once
        for dest, kind, _ in args.spec.positionals:
            text = getattr(args, dest)
            if text != "-" or stdin:
                out[kind].append(stdin.pop() if text == "-" else text)
    return out


def parse_all(parse, texts):
    for text in texts:
        try:
            parse(text)
        except Exception:  # noqa: BLE001 - rejected literals are timed too
            pass


def parse_table(seed, repeat):
    parsers = {"ms": (cli.parse_multisegment, scan_multisegment),
               "w": (cli.parse_lweight, scan_lweight)}
    print("workload\tkind\tliterals\trejected\ttoken us\treference us\treference / token")
    for workload in ("enumerate", "decide", "cli-mix"):
        for kind, texts in literals(workload, seed).items():
            if not texts:
                print(f"{workload}\t{kind}\t0\t0\t-\t-\t-")
                continue
            parse, reference = parsers[kind]
            outcomes = [parse_outcome(parse, text) for text in texts]
            assert outcomes == [parse_outcome(reference, text, in_bytes=True)
                                for text in texts], workload
            rejected = sum(issubclass(got[0], Exception) for got in outcomes)
            (fast, slow), _ = best([partial(parse_all, parse, texts),
                                    partial(parse_all, reference, texts)], repeat)
            print(f"{workload}\t{kind}\t{len(texts)}\t{rejected}\t{fast * 1e6:.1f}\t"
                  f"{slow * 1e6:.1f}\t{slow / fast:.2f}")


def renders(argv):
    """The text, reference and direct renders of the result of argv's command."""
    cmd, tree = cli._BY_NAME[argv[0]], JSON_REFERENCE[argv[0]]
    return [cmd.render[0], lambda r: json.dumps(tree(r)), cmd.render[1]]


def maker(argv):
    """A function that computes the op's result afresh."""
    args = cli._read(list(argv))
    parsed = [(cli.parse_multisegment if kind == "ms" else cli.parse_lweight)(
        getattr(args, dest)) for dest, kind, _ in args.spec.positionals]
    return lambda: args.spec.compute(args, *parsed)


def json_table(seed, repeat):
    chain = "".join(f"[{16 - k},{23 - k}]" for k in range(7))
    rows = [("qchar [34,41]", [("qchar", "--rank", "14", "[34,41]")]),
            ("closure 5,040 members", [("closure", "--rank", "12", chain)]),
            ("dominant-weights 720 rows", [("dominant-weights", "--rank", "19",
                                            "[39,46][37,45][34,44][31,43][28,41][26,40]")]),
            ("qchar product 1,800 terms", [("qchar", "--rank", "5", "[25,27][20,23][24,25]")]),
            (f"cli-mix seed {seed}", [tuple(op.stdin if a == "-" else a for a in op.argv)
                                      for op in ops("cli-mix", seed)
                                      if "--json" in op.argv and op.exit_code == 0])]
    print("case\tops\tjson bytes\ttext ms\treference ms\tdirect ms\treference / direct"
          "\tdirect / text")
    for name, argvs in rows:
        (text, ref, direct), size = summed([(a,) for a in argvs], repeat, renders,
                                           agree(2, 1), maker)
        print(f"{name}\t{len(argvs)}\t{size}\t{text * 1e3:.3f}\t{ref * 1e3:.3f}\t"
              f"{direct * 1e3:.3f}\t{ref / direct:.2f}\t{direct / text:.2f}")


TABLES = (lefts_table, text_table, weigher_table, fundamental_table, product_table,
          parse_table, json_table)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    ap.add_argument("--repeat", type=int, default=9, help="rounds per row (default 9)")
    args = ap.parse_args(argv)
    for k, table in enumerate(TABLES):
        if k:
            print()
        table(args.seed, args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
