"""Write tests/data/cli_golden.json: the exact CLI bytes the golden test pins.

Run from the root of a checkout:

    PYTHONPATH=src python tests/make_cli_golden.py

Each case is an argv list and an optional stdin text; the file records
stdout, stderr and the exit code of `weylcalc.cli.run` (argparse's
SystemExit counts as an exit code). The name does not start with `test_`,
so pytest does not collect this script.

Python 3.10 to 3.12 print the same bytes for every case, and the script
rewrites the file only on those. From 3.13 on, argparse wraps some usage
text differently, so on any other minor version the script writes just
the records that differ from the file to cli_golden_<major>.<minor>.json;
`load_golden` puts them in place of the shared ones, and every version is
still held to exact bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
SHARED_VERSIONS = {(3, 10), (3, 11), (3, 12)}


def version_file(version=sys.version_info) -> Path:
    """Where a minor version's own records live."""
    return GOLDEN.with_name(f"cli_golden_{version[0]}.{version[1]}.json")


def load_golden(version=sys.version_info) -> list[dict]:
    """The golden records as the given Python version must print them."""
    records = json.loads(GOLDEN.read_text())
    own = version_file(version)
    if tuple(version[:2]) not in SHARED_VERSIONS and own.exists():
        at = {(tuple(r["argv"]), r["stdin"]): k for k, r in enumerate(records)}
        for r in json.loads(own.read_text()):
            records[at[tuple(r["argv"]), r["stdin"]]] = r
    return records

# (subcommand, rank, positionals, extra options, stdin)
INPUTS = [
    ("closure", 6, ["[0,6][2,7][1,8]"], [], None),
    ("closure", 1, ["[2,3][1,2][0,1]"], [], None),
    ("closure", 3, ["-"], [], "[0,2][1,3]\n"),
    ("closed", 6, ["[2,6][0,7][1,8]"], [], None),
    ("closed", 6, ["[0,6][2,7][1,8]"], [], None),
    ("socle", 1, ["[2,3][1,2][0,1]"], [], None),
    ("socle", 6, ["[0,6][2,7][1,8]"], [], None),
    ("hom", 6, ["[2,6][0,7][1,8]", "[0,6][2,7][1,8]"], [], None),
    ("hom", 6, ["[0,6][2,7][1,8]", "[2,6][0,7][1,8]"], [], None),
    ("hom", 1, ["[2,3][1,3][0,1]", "-"], [], "[2,3][1,2][0,1]"),
    ("dominant-weights", 1, ["[2,3][1,2][0,1]"], [], None),
    ("dominant-weights", 3, ["[0,2][1,3][2,3]"], [], None),
    # equal js give a weight with an exponent 2; a part of length rank + 1
    # is degenerate and weighs nothing
    ("dominant-weights", 2, ["[0,2][1,2][0,1][0,1]"], [], None),
    ("dominant-weights", 2, ["[0,3][1,2][2,3]"], [], None),
    ("qchar", 2, ["[0,1]"], [], None),
    ("qchar", 3, ["[0,2][1,2]"], [], None),
    ("qchar", 2, ["[0,3][1,1]"], [], None),
    # a 35-term fundamental character and a 3-part product (140 terms, some
    # with multiplicity 2) pin the term order and the rendering of longer
    # weights
    ("qchar", 6, ["[0,3]"], [], None),
    ("qchar", 3, ["[0,2][1,3][3,4]"], [], None),
    ("dominant", 6, ["[0,6][2,7][1,8]"], [], None),
    ("dominant", 4, ["[0,2][1,3][2,4]"], [], None),
    ("alpha-decompose", 2, ["w[0,2]^1 * w[1,2]^-1 * w[1,3]^1"], [], None),
    ("alpha-decompose", 2, ["w[0,1]^1"], [], None),
    ("alpha-decompose", 3, ["1"], [], None),
    ("alpha-decompose", 2, ["-"], [],
     "w[0,1]^2 * w[0,2]^-2 * w[1,2]^2 * w[1,3]^-1 * w[2,3]^1 * w[2,4]^-1\n"),
    # root-lattice edge cases: coefficients that cross a gap between two
    # factors, the twin outside the lattice, a degenerate factor and a
    # factor too long for the rank
    ("alpha-decompose", 1, ["w[0,1]^1 * w[5,6]^1"], [], None),
    ("alpha-decompose", 1, ["w[0,1]^1 * w[5,6]^-1"], [], None),
    ("alpha-decompose", 2, ["w[0,0]^1"], [], None),
    ("alpha-decompose", 2, ["w[0,4]^1"], [], None),
    ("leq", 2, ["w[0,2]^1 * w[1,2]^-1", "w[0,1]^1"], [], None),
    ("leq", 2, ["w[0,1]^1", "w[0,2]^1 * w[1,2]^-1"], [], None),
    # the quotient w[0,1] * w[5,6]^-1 lies outside the lattice
    ("leq", 1, ["w[5,6]^1", "w[0,1]^1"], [], None),
    ("dual", 2, ["[0,1][1,2]"], ["--side", "right"], None),
    ("dual", 2, ["[0,1][1,2]"], ["--side", "left"], None),
    ("iota", 7, ["[2,5][3,9]"], ["--sign", "plus", "--at", "1"], None),
    ("iota", 7, ["[3,9][2,5]"], ["--sign", "minus", "--at", "1"], None),
    ("iota", 7, ["[2,5][3,9]"], ["--sign", "plus", "--at", "2"], None),
    ("normalform", 8, ["[0,6][4,8][2,5]"], ["--sign", "minus"], None),
    ("normalform", 8, ["[0,6][4,8][2,5]"], ["--sign", "plus"], None),
    # both check every part against the rank, so a part too long for it
    # fails in text mode too
    ("normalform", 1, ["[0,5][1,2]"], ["--sign", "plus"], None),
    ("iota", 1, ["[0,5][1,2]"], ["--sign", "minus", "--at", "1"], None),
    ("ext-check", 2, ["[0,1]", "[3,4]"], [], None),
    ("ext-check", 6, ["[2,6][0,7][1,8]", "[0,6][2,7][1,8]"], [], None),
    # supports of 3 weights each, 2 of them shared, over different lefts
    ("ext-check", 3, ["[3,5][3,4][2,3]", "[3,5][2,5][1,4][3,3]"], [], None),
    # the second argument's parts are checked too; between two bad tuples
    # the first argument's plus order names the part
    ("ext-check", 2, ["[0,1]", "[0,5]"], [], None),
    ("ext-check", 2, ["[0,5][1,9]", "[1,9][0,5]"], [], None),
    # equal weights, a degenerate part on one side only: shared weights in JSON
    ("ext-check", 2, ["[0,1][2,3]", "[2,3][0,1][4,4]"], [], None),
    ("subcat", 1, ["[2,3][1,2][0,1]", "w[1,3]^1"], [], None),
    ("subcat", 1, ["[2,3][1,2][0,1]", "w[0,3]^1"], [], None),
    # a base part too long for the rank is an error, as in every subcommand
    ("subcat", 1, ["[0,9][1,1]", "w[0,1]^1"], [], None),
    # a malformed base fails before the l-weight is read from stdin
    ("subcat", 1, ["[2,3][1,2", "-"], [], "w[1,3]^1"),
    ("subcat", 1, ["-", "w[1,3"], [], "[2,3][1,2][0,1]"),
    # stdin stands for one argument at most; its parse error comes first
    ("hom", 2, ["-", "-"], [], "[0,1]x"),
    ("hom", 2, ["-", "-"], [], "[0,1]"),
    ("closure", 2, ["-"], [], ""),
    ("closure", 0, ["[0,1]"], [], None),
    ("closure", -1, ["[0,1]"], [], None),
    ("closure", 2, ["[3,1]"], [], None),
    ("qchar", 1, ["[0,3]"], [], None),
    ("leq", 2, ["w[0,1]^1 *", "1"], [], None),
    # j < i messages print the parsed ints, not the matched text
    ("closure", 2, ["[3,-0]"], [], None),
    ("closure", 2, ["[05,3]"], [], None),
    ("alpha-decompose", 2, ["w[07,-01]^1"], [], None),
]

SUBCOMMANDS = [
    "closure", "closed", "socle", "hom", "dominant-weights", "qchar",
    "dominant", "alpha-decompose", "leq", "dual", "iota", "normalform",
    "ext-check", "subcat",
]

# argparse rejects these before any subcommand runs
USAGE_ERRORS = [
    ["closure", "[0,1]"],
    ["closure", "--rank", "x", "[0,1]"],
    ["dual", "--rank", "2", "--side", "up", "[0,1]"],
    ["iota", "--rank", "2", "--sign", "plus", "[0,1][1,2]"],
    ["hom", "--rank", "2", "[0,1]"],
    ["nosuch", "--rank", "2"],
    [],
]

# argv shapes that argparse reads in ways a hand reader easily gets wrong:
# = forms, abbreviations, repeats, options after a positional, `--`, and
# ints that str.isdigit and int() disagree on
FALLBACK_SHAPES = [
    ["closed", "--rank=3", "[0,1]"],
    ["closed", "--ra", "3", "[0,1]"],
    ["closed", "--j", "--rank", "3", "[0,1]"],
    ["closed", "--rank", "3", "--rank", "4", "[0,1]"],
    ["hom", "[0,1]", "--rank", "3", "[1,2]"],
    ["closed", "--rank", "3", "--", "[0,1]"],
    ["closed", "--rank", " 3", "[0,1]"],
    ["closed", "--rank", "3_0", "[0,1]"],
    ["closed", "--rank", "²", "[0,1]"],
    ["closed", "--rank", "3", "-[0,1]"],
]


def cases() -> list[tuple[list[str], str | None]]:
    out = []
    for cmd, rank, positionals, extra, stdin in INPUTS:
        argv = [cmd, "--rank", str(rank), *extra, *positionals]
        out.append((argv, stdin))
        out.append((argv[:3] + ["--json"] + argv[3:], stdin))
    out += [(["--help"], None)] + [([cmd, "--help"], None) for cmd in SUBCOMMANDS]
    out += [(argv, None) for argv in USAGE_ERRORS + FALLBACK_SHAPES]
    return out


def invoke(argv: list[str], stdin: str | None) -> dict:
    """Run one CLI call in-process and record what it printed and returned."""
    from weylcalc import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "exit": code}


def main() -> None:
    # argparse wraps help and usage text to the terminal width
    os.environ["COLUMNS"] = "80"
    records = [invoke(argv, stdin) for argv, stdin in cases()]
    if sys.version_info[:2] in SHARED_VERSIONS:
        GOLDEN.parent.mkdir(exist_ok=True)
        path = GOLDEN
    else:
        shared, path = json.loads(GOLDEN.read_text()), version_file()
        if [(r["argv"], r["stdin"]) for r in shared] != cases():
            sys.exit(f"{GOLDEN} lists other cases: rewrite it on 3.10-3.12 first")
        records = [r for r, s in zip(records, shared) if r != s]
    path.write_text(json.dumps(records, indent=0) + "\n")
    print(f"wrote {len(records)} cases to {path}")


if __name__ == "__main__":
    main()
