"""Time the literal parsers against the scanning reference they replaced.

Run from the root of a checkout:

    PYTHONPATH=src python tests/parse_timing.py --seed 0 --repeat 9

The cases are every multisegment and l-weight literal of the three
benchmark workloads' op lists at --seed (perfbench/corpus.py), read as
cli.run reads them: the positionals of each canonical argv, a `-` taking
the op's stdin once; an argv that only argparse reads is skipped. Each
literal goes through cli.parse_multisegment or cli.parse_lweight (token:
one findall a literal, an error walk only on rejection) and through
helpers.scan_multisegment or helpers.scan_lweight (reference: two regex
calls a part). Both must give the same value, or the same error once the
reference's code-point offsets are counted in UTF-8 bytes.

Both sides parse every literal of a workload and kind in one timed loop,
in turn, and keep the best of --repeat loops. The name does not start
with `test_`, so pytest does not collect this script.
"""

from __future__ import annotations

import argparse
import sys
import time

from helpers import parse_outcome, perfbench_corpus, scan_lweight, scan_multisegment

from weylcalc import cli

PARSERS = {"ms": (cli.parse_multisegment, scan_multisegment),
           "w": (cli.parse_lweight, scan_lweight)}


def literals(workload, seed):
    """{kind: [text, ...]} of the workload's ops, in op order."""
    out = {"ms": [], "w": []}
    for op in perfbench_corpus().build(workload, seed):
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    ap.add_argument("--repeat", type=int, default=9, help="runs per case (default 9)")
    args = ap.parse_args(argv)
    print("workload\tkind\tliterals\trejected\ttoken us\treference us\treference / token")
    for workload in ("enumerate", "decide", "cli-mix"):
        for kind, texts in literals(workload, args.seed).items():
            parse, reference = PARSERS[kind]
            rejected = 0
            for text in texts:
                got = parse_outcome(parse, text)
                assert got == parse_outcome(reference, text, in_bytes=True), repr(text)
                rejected += issubclass(got[0], Exception)
            fast = slow = float("inf")
            for _ in range(args.repeat):
                start = time.perf_counter()
                parse_all(parse, texts)
                middle = time.perf_counter()
                parse_all(reference, texts)
                fast = min(fast, middle - start)
                slow = min(slow, time.perf_counter() - middle)
            print(f"{workload}\t{kind}\t{len(texts)}\t{rejected}\t{fast * 1e6:.1f}\t"
                  f"{slow * 1e6:.1f}\t{slow / fast:.2f}" if texts else
                  f"{workload}\t{kind}\t0\t0\t-\t-\t-")
    return 0


if __name__ == "__main__":
    sys.exit(main())
