"""Time `--json`: the direct renderers against json.dumps of the reference trees.

Run from the root of a checkout:

    PYTHONPATH=src python tests/json_timing.py --seed 0 --repeat 9

Each case is a CLI op whose result is computed afresh, untimed, before
every render, so that no render reads what an earlier one cached. Three
renders are timed: the text output (text), json.dumps of the object tree
that `--json` printed before (helpers.JSON_REFERENCE, reference), and the
`--json` renderer, which builds the JSON text from the same pieces as the
text with no object tree (direct). Both JSON renders must give the same
bytes.

The cases are `qchar` on [34,41] at rank 14 (6,435 terms), `closure` on
[16,23][15,22]...[10,17] at rank 12 (5,040 members), `dominant-weights`
on [39,46][37,45][34,44][31,43][28,41][26,40] at rank 19 (720 rows),
`qchar` on the product [25,27][20,23][24,25] at rank 5 (1,800 terms), and
every `--json` op of the cli-mix workload (perfbench/corpus.py) that exits
0, summed. Each render keeps the best of --repeat runs, the three in turn.
The name does not start with `test_`, so pytest does not collect this
script.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from helpers import JSON_REFERENCE, perfbench_corpus

from weylcalc import cli

CHAIN = "".join(f"[{16 - k},{23 - k}]" for k in range(7))
LARGE = [("qchar [34,41]", ("qchar", "--rank", "14", "[34,41]")),
         ("closure 5,040 members", ("closure", "--rank", "12", CHAIN)),
         ("dominant-weights 720 rows",
          ("dominant-weights", "--rank", "19", "[39,46][37,45][34,44][31,43][28,41][26,40]")),
         ("qchar product 1,800 terms", ("qchar", "--rank", "5", "[25,27][20,23][24,25]"))]


def maker(argv):
    """(the command, a function that computes the op's result afresh)."""
    args = cli._read(list(argv))
    cmd = args.spec
    parsed = [(cli.parse_multisegment if kind == "ms" else cli.parse_lweight)(
        getattr(args, dest)) for dest, kind, _ in cmd.positionals]
    return cmd, lambda: cmd.compute(args, *parsed)


def renders(cmd):
    """The three renders of a result of cmd: text, reference and direct."""
    tree = JSON_REFERENCE[cmd.name]
    return cmd.render[0], lambda r: json.dumps(tree(r)), cmd.render[1]


def timed(ops, repeat):
    """(bytes, best seconds of each render summed over ops); checks equal bytes."""
    size, total = 0, [0.0, 0.0, 0.0]
    for argv in ops:
        cmd, make = maker(argv)
        sides = renders(cmd)
        outs = [f(make()) for f in sides]
        assert outs[1] == outs[2], argv
        size += len(outs[2])
        best = [float("inf")] * 3
        for _ in range(repeat):
            for k, f in enumerate(sides):
                result = make()
                gc.collect()
                start = time.perf_counter()
                f(result)
                best[k] = min(best[k], time.perf_counter() - start)
        total = [t + b for t, b in zip(total, best)]
    return size, total


def cli_mix_json(seed):
    """argv of every cli-mix --json op that exits 0, stdin read into its place."""
    return [tuple(op.stdin if a == "-" else a for a in op.argv)
            for op in perfbench_corpus().build("cli-mix", seed)
            if "--json" in op.argv and op.exit_code == 0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    ap.add_argument("--repeat", type=int, default=9, help="runs per render (default 9)")
    args = ap.parse_args(argv)
    mix = cli_mix_json(args.seed)
    cases = [(name, [op]) for name, op in LARGE] + [(f"cli-mix seed {args.seed}", mix)]
    print("case\tops\tjson bytes\ttext ms\treference ms\tdirect ms\treference / direct"
          "\tdirect / text")
    for name, ops in cases:
        size, (text, ref, direct) = timed(ops, args.repeat)
        print(f"{name}\t{len(ops)}\t{size}\t{text * 1e3:.3f}\t{ref * 1e3:.3f}\t"
              f"{direct * 1e3:.3f}\t{ref / direct:.2f}\t{direct / text:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
