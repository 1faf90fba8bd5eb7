"""Check the closure-free shortcuts on every tuple of a small box.

Run from the root of a checkout:

    PYTHONPATH=src python tests/certify_box.py --rank 4 --window 5 --parts 4

The box holds, at every rank 1..R, each plus-sorted multiset of at most P
segments valid at the rank, inside [0, W], with least left endpoint 0. The
checks are those of tests/helpers.certify_box, which Tier-1 runs on the box
R = 3, W = 4, P = 3. The script prints how many cases each check covered
and every failure, and exits 1 if there is one. The name does not start
with `test_`, so pytest does not collect this script.
"""

from __future__ import annotations

import argparse
import sys
import time

from helpers import certify_box


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rank", type=int, default=3, help="largest rank R (default 3)")
    ap.add_argument("--window", type=int, default=4, help="window [0, W] (default 4)")
    ap.add_argument("--parts", type=int, default=3, help="at most P parts (default 3)")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    cases, failures = certify_box(args.rank, args.window, args.parts)
    for name, count in cases.items():
        print(f"{name}\t{count}")
    print(f"failures\t{len(failures)}")
    for name, ms, rank in failures:
        print(f"FAIL\t{name}\t--rank {rank}\t{ms}")
    print(f"seconds\t{time.perf_counter() - start:.1f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
