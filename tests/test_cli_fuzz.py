"""Seeded CLI fuzzing: user input may only ever give exit 0 or exit 2.

Every call goes through `cli.run` with a fixed seed: all subcommands,
ranks -1..4, text and JSON, valid literals and literals with a stray or
truncated token, `-` with empty or filled stdin. argparse rejecting the
arguments counts as exit 2; `run` returning 2 must print `error: ...`.
A second run puts integers past Python's 4,300-digit int/str limit into
those calls.
"""

import io
import random
import re
import sys

from weylcalc import cli

SUBCOMMANDS = {
    "closure": ("ms",), "closed": ("ms",), "socle": ("ms",), "hom": ("ms", "ms"),
    "dominant-weights": ("ms",), "qchar": ("ms",), "dominant": ("ms",),
    "alpha-decompose": ("w",), "leq": ("w", "w"), "dual": ("ms",),
    "iota": ("ms",), "normalform": ("ms",), "ext-check": ("ms", "ms"),
    "subcat": ("ms", "w"),
}
NOISE = "[],-0123456789wx^* "


def _multisegment(rng):
    parts = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(-1, 3)
        parts.append(f"[{i},{i + rng.randint(0, 5)}]")
    return "".join(parts)


def _lweight(rng):
    if rng.random() < 0.1:
        return "1"
    factors = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(-1, 3)
        factors.append(f"w[{i},{i + rng.randint(0, 5)}]^{rng.randint(-2, 2)}")
    return " * ".join(factors)


def _mangle(rng, text):
    """Drop the tail, drop one character, or insert a stray one."""
    k = rng.randrange(len(text) + 1)
    how = rng.randrange(3)
    if how == 0:
        return text[:k]
    if how == 1:
        return text[:k] + text[k + 1:]
    return text[:k] + rng.choice(NOISE) + text[k:]


def _argv(rng):
    cmd = rng.choice(sorted(SUBCOMMANDS))
    argv = [cmd, "--rank", str(rng.randint(-1, 4))]
    if rng.random() < 0.5:
        argv.append("--json")
    if cmd == "dual":
        argv += ["--side", rng.choice(["left", "right"])]
    if cmd in ("iota", "normalform"):
        argv += ["--sign", rng.choice(["plus", "minus"])]
    if cmd == "iota":
        argv += ["--at", str(rng.randint(0, 3))]
    stdin = ""
    for kind in SUBCOMMANDS[cmd]:
        text = _multisegment(rng) if kind == "ms" else _lweight(rng)
        if rng.random() < 0.3:
            text = _mangle(rng, text)
        if rng.random() < 0.15:
            stdin = text if rng.random() < 0.7 else ""
            text = "-"
        argv.append(text)
    if rng.random() < 0.05:
        # a missing or extra argument is argparse's to reject
        argv = argv[:-1] if rng.random() < 0.5 else argv + ["[0,1]"]
    return argv, stdin


def test_fuzzed_invocations_exit_0_or_2(capsys, monkeypatch):
    rng = random.Random(20251018)
    codes = {0: 0, 2: 0}
    for _ in range(3000):
        argv, stdin = _argv(rng)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            codes[2] += 1
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, stdin, err)
        if code == 2:
            assert err.startswith("error: "), (argv, stdin, err)
        codes[code] += 1
    # the mix reaches both outcomes often
    assert min(codes.values()) > 500, codes


# Subcommands whose work does not grow with the rank; qchar and dominant
# walk C(rank + 1, length) paths and leq and alpha-decompose sweep rows of
# rank + 2 entries, so a huge rank is no input for them.
RANK_FREE = {"closure", "closed", "socle", "hom", "dominant-weights", "ext-check",
             "subcat", "dual", "iota", "normalform"}
LIMIT = "9" * 4300  # the largest integer int() reads by default


def _huge(rng):
    """An integer of 4,000 to 5,000 digits, as text."""
    n = rng.randint(4000, 5000)
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=n - 1))


def _shifted(text, d):
    """text with every integer after '[' or ',' moved by d: a translate."""
    return re.sub(r"(?<=[\[,])-?\d+", lambda m: str(int(m[0]) + d), text)


def _huge_argv(rng):
    """_argv's call with 4,000-5,000-digit integers put in its integer slots:
    the rank, --at, a whole literal moved by a huge shift, one endpoint,
    exponents, and eleven copies of a factor whose exponents sum past the
    limit."""
    argv, stdin = _argv(rng)
    cmd = argv[0]
    for k, token in enumerate(argv):
        prev = argv[k - 1]
        if prev == "--rank" and cmd in RANK_FREE and rng.random() < 0.3:
            argv[k] = _huge(rng)
        elif prev == "--at" and rng.random() < 0.5:
            argv[k] = rng.choice(["", "-"]) + _huge(rng)
        elif k > 2 and token.startswith(("[", "w[")) and rng.random() < 0.6:
            how = rng.randrange(4)
            if how == 0:  # every endpoint
                argv[k] = _shifted(token, int(rng.choice(["", "-"]) + _huge(rng)))
            elif how == 1 and (found := list(re.finditer(r"-?\d+", token))):  # one integer
                m = rng.choice(found)
                argv[k] = token[:m.start()] + _huge(rng) + token[m.end():]
            elif how == 2 and token.startswith("w["):  # the exponents
                argv[k] = re.sub(r"(?<=\^)-?\d+", lambda m: rng.choice(["", "-"]) + _huge(rng),
                                 token)
            elif token.startswith("w["):  # a sum past the limit
                argv[k] = " * ".join([f"w[0,{rng.randint(1, 2)}]^{LIMIT}"] * 11)
    return argv, stdin


def test_fuzzed_huge_integers_exit_0_or_2(capsys, monkeypatch):
    rng = random.Random(20261022)
    digits = sys.get_int_max_str_digits()
    codes = {0: 0, 2: 0}
    for _ in range(600):
        sys.set_int_max_str_digits(0)  # _shifted adds to huge integers
        try:
            argv, stdin = _huge_argv(rng)
        finally:
            sys.set_int_max_str_digits(digits)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            codes[2] += 1
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, stdin, err[:300])
        assert err.startswith("error: ") if code == 2 else err == "", (argv, err[:300])
        assert sys.get_int_max_str_digits() == digits
        codes[code] += 1
    assert min(codes.values()) > 100, codes
