"""Seeded CLI fuzzing: user input may only ever give exit 0 or exit 2.

Every call goes through `cli.run` with a fixed seed: all subcommands,
ranks -1..4, text and JSON, valid literals and literals with a stray or
truncated token, `-` with empty or filled stdin. argparse rejecting the
arguments counts as exit 2; `run` returning 2 must print `error: ...`.
"""

import io
import random

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
