"""Seeded op lists for the three workloads.

An op is one CLI invocation: an argv, optional stdin text, the exit code it
must give and a cost class.  Every workload has a fixed mix of cost classes;
the seed only draws which concrete inputs fill each class (endpoint gaps,
translation, argument order, stdin use, op order).  Costs inside a class do
not depend on those draws, so different seeds measure the same amount of
work and their figures can be compared.

Closure inputs are doubly sorted tuples built from an *order type*: the
ascending sequence of left ('L') and right ('R') endpoints, all distinct.
Whether two parts are connected depends only on comparisons between
endpoints once the rank is at least the span, so every tuple with the same
order type has a closure of the same size and structure.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Optional

WORKLOADS = ("enumerate", "decide", "cli-mix")
DEFAULT_SEED = 0

_SEG_RE = re.compile(r"\[(-?\d+),(-?\d+)\]")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    stdin: Optional[str] = None
    exit_code: int = 0
    cls: str = ""


# -- literals ---------------------------------------------------------------

def ms_text(parts) -> str:
    return "".join(f"[{i},{j}]" for i, j in parts)


def lweight_text(exps) -> str:
    """exps: iterable of ((i, j), e); renders in canonical order."""
    items = sorted((seg, e) for seg, e in exps if e)
    if not items:
        return "1"
    return " * ".join(f"w[{i},{j}]^{e}" for (i, j), e in items)


def order_type_tuple(rng, pattern: str, base: int, max_gap: int = 3):
    """Doubly sorted tuple whose endpoints follow `pattern` ascending.

    The k-th smallest left endpoint pairs with the k-th smallest right
    endpoint, so parts come out in decreasing order of both endpoints.
    """
    lefts, rights = [], []
    v = base
    for ch in pattern:
        (lefts if ch == "L" else rights).append(v)
        v += rng.randint(1, max_gap)
    parts = list(zip(lefts, rights))
    parts.reverse()
    return parts


def span(parts) -> int:
    return max(j for _, j in parts) - min(i for i, _ in parts) - 1


DENSE = "dense"
NEAR = "near"


def pattern(kind: str, r: int) -> str:
    """dense: every left below every right, so all pairs are connected.
    near: the largest left sits above the smallest right, so exactly the
    first and last parts start out unconnected."""
    if kind == DENSE:
        return "L" * r + "R" * r
    return "L" * (r - 1) + "R" + "L" + "R" * (r - 1)


# -- shapes -----------------------------------------------------------------

def shape_key(op: Op) -> tuple:
    """The op up to a common translation of every endpoint in its arguments."""
    args = [op.stdin if a == "-" and op.stdin is not None else a for a in op.argv]
    ends = [int(x) for a in args for m in _SEG_RE.finditer(a) for x in m.groups()]
    lo = min(ends) if ends else 0

    def shift(m):
        return f"[{int(m.group(1)) - lo},{int(m.group(2)) - lo}]"

    return tuple(_SEG_RE.sub(shift, a) for a in args)


def repeat_share(ops) -> float:
    """Fraction of ops whose shape already occurred earlier in the list."""
    seen, repeats = set(), 0
    for op in ops:
        k = shape_key(op)
        repeats += k in seen
        seen.add(k)
    return repeats / len(ops)


def _translate(text: str, d: int) -> str:
    return _SEG_RE.sub(lambda m: f"[{int(m.group(1)) + d},{int(m.group(2)) + d}]", text)


def _translated(op: Op, d: int) -> Op:
    argv = tuple(_translate(a, d) for a in op.argv)
    stdin = None if op.stdin is None else _translate(op.stdin, d)
    return Op(argv, stdin, op.exit_code, op.cls)


def _unique(rng, make, seen):
    """Draw from make(rng) until the op's shape is new."""
    for _ in range(1000):
        op = make(rng)
        k = shape_key(op)
        if k not in seen:
            seen.add(k)
            return op
    raise RuntimeError("could not draw a new shape")


# -- enumerate --------------------------------------------------------------
#
# Why: closure BFS, path enumeration and text rendering do the work, and no
# op repeats the shape of another, so nothing can be reused between ops.
# This is the workload that exercises enumeration and rendering and that
# bypasses any cache.
#
# The mix puts a block of like-cost ops at each reported percentile: 4-part
# closures and small characters below the median, 5-part closures around
# it, 6-part dense closures around p90 and two big ops above.

ENUM_CLOSURES = {4: (10, 10), 5: (20, 20), 6: (10, 2), 7: (1, 0)}  # r: (dense, near)
# (rank, length) of the single-segment characters; [0,7] at rank 14 has
# 6435 paths and prints about 600 KB
QCHAR_SINGLES = tuple((n, ln) for n in range(6, 15) for ln in (1, 2)) + (
    (6, 3), (7, 3), (8, 3), (9, 3), (10, 3), (14, 7))
# (rank, lengths) of the products; no (length, rank) pair occurs twice in
# the whole list, so even a cache of fundamental characters would miss.
PRODUCTS = ((3, (1, 2, 3)), (4, (1, 2)), (4, (3, 4)), (5, (1, 2, 3)), (5, (4, 5)))


def _closure_op(rng, r, kind, k):
    parts = order_type_tuple(rng, pattern(kind, r), rng.randint(10, 40))
    rank = span(parts) + k % 3
    return Op(("closure", "--rank", str(rank), ms_text(parts)), cls=f"closure-{kind}-{r}")


def _enumerate(rng):
    ops, seen = [], set()
    for r, counts in ENUM_CLOSURES.items():
        for kind, count in zip((DENSE, NEAR), counts):
            for k in range(count):
                ops.append(_unique(rng, partial(_closure_op, r=r, kind=kind, k=k), seen))
    for n, length in QCHAR_SINGLES:
        a = rng.randint(20, 40)
        ops.append(Op(("qchar", "--rank", str(n), ms_text([(a, a + length)])),
                      cls=f"qchar-{n}-{length}"))
    for n, lengths in PRODUCTS:
        order = list(lengths)
        rng.shuffle(order)
        parts = []
        for length in order:
            a = rng.randint(20, 26)
            parts.append((a, a + length))
        ops.append(Op(("qchar", "--rank", str(n), ms_text(parts)),
                      cls=f"product-{n}-{len(lengths)}"))
    rng.shuffle(ops)
    return ops


# -- decide -----------------------------------------------------------------
#
# Why: the same closure and q-character layers as enumerate, but each op
# reduces its result to a bit or a short list: hom, socle, dominant-weights
# and ext-check build a whole closure, ext-check builds the same closure
# twice, dominant-weights weighs every member and dominant builds the full
# product to keep a small part.  About half of the ops repeat the shape of
# an earlier op up to translation.  Pruning and reuse should move this
# workload and leave enumerate alone.
#
# Tuples have 4 to 6 parts, so that a pass stays near three seconds and a
# run holds several passes; enumerate carries the 7-part closure.  4-part
# ops sit below the median, 5-part ops and 3-part products around it,
# 6-part ops and 4-part products around p90.

DECIDE_COUNTS = {
    # r: (hom, socle, dominant-weights, ext-check); order types alternate
    4: (10, 10, 10, 10),
    5: (10, 10, 10, 10),
    6: (3, 3, 3, 3),
}
# part-start steps of the dominant products [k,k+2][k+s1,k+s1+2]... at rank 4
DOMINANT_STEPS = ((1, 1), (1, 2), (2, 1), (0, 1), (1, 1, 1), (1, 2, 1), (1, 1, 1, 1))
DOMINANT_COPIES = {3: 2, 4: 2, 5: 1}


def _decide_op(rng, cmd, r, kind, k):
    parts = order_type_tuple(rng, pattern(kind, r), rng.randint(10, 40))
    rank = str(span(parts) + k % 3)
    ms = ms_text(parts)
    if cmd == "hom":
        # the source pairs the same left endpoints with the same right
        # endpoints in another order
        rights = [j for _, j in parts]
        lefts = [i for i, _ in parts]
        while True:
            rng.shuffle(lefts)
            if all(i <= j for i, j in zip(lefts, rights)):
                break
        src = ms_text(zip(lefts, rights))
        return Op(("hom", "--rank", rank, src, ms), cls=f"hom-{r}")
    if cmd == "ext-check":
        perm = parts[:]
        rng.shuffle(perm)
        return Op(("ext-check", "--rank", rank, ms, ms_text(perm)), cls=f"ext-check-{r}")
    return Op((cmd, "--rank", rank, ms), cls=f"{cmd}-{r}")


def _decide(rng):
    groups = []
    for r, counts in DECIDE_COUNTS.items():
        for cmd, count in zip(("hom", "socle", "dominant-weights", "ext-check"), counts):
            groups.append([partial(_decide_op, cmd=cmd, r=r, kind=(DENSE, NEAR)[k % 2], k=k)
                           for k in range(count)])
    for steps in DOMINANT_STEPS:
        def make(rng, steps=steps):
            k = rng.randint(10, 40)
            starts = [k]
            for s in steps:
                starts.append(starts[-1] + s)
            return Op(("dominant", "--rank", "4", ms_text((a, a + 2) for a in starts)),
                      cls=f"dominant-{len(starts)}")
        groups.append([make] * DOMINANT_COPIES[len(steps) + 1])
    return _half_repeats(rng, groups)


def _half_repeats(rng, groups):
    """In each group the first ceil(n/2) makers draw new shapes and the rest
    repeat them in order under a fresh translation, placed later in the
    list.  Repeating in order keeps each group's mix of order types, and so
    its cost, the same for every seed."""
    ops, seen, repeats = [], set(), []
    for makers in groups:
        uniques = [_unique(rng, m, seen) for m in makers[: (len(makers) + 1) // 2]]
        ops.extend(uniques)
        repeats.extend(uniques[k] for k in range(len(makers) - len(uniques)))
    rng.shuffle(ops)
    for orig in repeats:
        at = ops.index(orig)
        d = rng.choice([-7, -5, -3, 3, 5, 7])
        ops.insert(rng.randint(at + 1, len(ops)), _translated(orig, d))
    return ops


# -- cli-mix ----------------------------------------------------------------
#
# Why: small queries on every subcommand, in text and --json, with some
# arguments read from stdin and about one op in ten malformed.  Per-op cost
# is argparse set-up, parsing, rendering and root arithmetic; the closure
# and q-character layers do almost nothing.  It is the bypass workload for
# closure and q-character work, the target of CLI and import work, and the
# only workload that takes the error path.

def rand_segment(rng, rank, lo=-3, hi=6, min_len=0):
    ln = rng.randint(min_len, rank + 1)
    i = rng.randint(lo, hi)
    return (i, i + ln)


def rand_ms(rng, rank, parts=None, **kw):
    if parts is None:
        parts = rng.randint(1, 3)
    return [rand_segment(rng, rank, **kw) for _ in range(parts)]


def root_exps(i, j, rank, c):
    """Exponents of alpha(i, j)^c in the segment generators, degenerate
    generators (length 0 or rank + 1) dropped."""
    out = {}
    for seg, e in (((i, j), 1), ((i + 1, j + 1), 1), ((i + 1, j), -1), ((i, j + 1), -1)):
        ln = seg[1] - seg[0]
        if 0 < ln < rank + 1:
            out[seg] = out.get(seg, 0) + e * c
    return out


def compose(coefs, rank):
    """coefs: {(i, j): c} -> exponent map of the product of root powers."""
    out = {}
    for (i, j), c in coefs.items():
        for seg, e in root_exps(i, j, rank, c).items():
            out[seg] = out.get(seg, 0) + e
    return {s: e for s, e in out.items() if e}


def rand_roots(rng, rank, k, sign=0):
    coefs = {}
    while len(coefs) < k:
        ln = rng.randint(1, rank)
        i = rng.randint(-2, 4)
        c = rng.randint(1, 2) if sign >= 0 else -rng.randint(1, 2)
        coefs[(i, i + ln)] = c
    return coefs


def _mul(a, b):
    out = dict(a)
    for s, e in b.items():
        out[s] = out.get(s, 0) + e
    return {s: e for s, e in out.items() if e}


def _rand_lweight(rng, rank):
    exps = {}
    for _ in range(rng.randint(1, 3)):
        i, j = rand_segment(rng, rank, min_len=1)
        if j - i <= rank:
            exps[(i, j)] = exps.get((i, j), 0) + rng.choice([-2, -1, 1, 2])
    return {s: e for s, e in exps.items() if e}


def _mix_op(rng, cmd, rank):
    """A well-formed small op for cmd and its argv tail."""
    r = str(rank)
    if cmd in ("closure", "closed", "socle", "dominant-weights"):
        return (cmd, "--rank", r, ms_text(rand_ms(rng, rank)))
    if cmd == "hom":
        return (cmd, "--rank", r, ms_text(rand_ms(rng, rank)), ms_text(rand_ms(rng, rank)))
    if cmd == "ext-check":
        return (cmd, "--rank", r, ms_text(rand_ms(rng, rank)), ms_text(rand_ms(rng, rank)))
    if cmd in ("qchar", "dominant"):
        # products grow as C(rank + 1, l) per part: keep them small
        rank = min(rank, 3)
        parts = rng.randint(1, 2) if cmd == "qchar" else rng.randint(2, 3)
        return (cmd, "--rank", str(rank), ms_text(rand_ms(rng, rank, parts=parts)))
    if cmd == "alpha-decompose":
        w = compose(rand_roots(rng, rank, rng.randint(1, 3)), rank)
        if rng.random() < 0.4:
            # a generator of length l with l*e not divisible by rank + 1
            # moves w out of the root lattice
            i, j = rand_segment(rng, rank, min_len=1)
            ln = j - i
            if 0 < ln <= rank:
                e = next(e for e in (1, 2, -1) if (ln * e) % (rank + 1))
                w = _mul(w, {(i, j): e})
        return (cmd, "--rank", r, lweight_text(w.items()))
    if cmd == "leq":
        w1 = _rand_lweight(rng, rank)
        sign = 1 if rng.random() < 0.5 else -1
        coefs = rand_roots(rng, rank, rng.randint(1, 2), sign)
        w2 = _mul(w1, compose(coefs, rank))
        return (cmd, "--rank", r, lweight_text(w1.items()), lweight_text(w2.items()))
    if cmd == "dual":
        return (cmd, "--rank", r, "--side", rng.choice(["left", "right"]),
                ms_text(rand_ms(rng, rank)))
    if cmd == "iota":
        parts = rand_ms(rng, rank, parts=rng.randint(2, 3))
        return (cmd, "--rank", r, "--sign", rng.choice(["plus", "minus"]),
                "--at", str(rng.randint(1, len(parts) - 1)), ms_text(parts))
    if cmd == "normalform":
        return (cmd, "--rank", r, "--sign", rng.choice(["plus", "minus"]),
                ms_text(rand_ms(rng, rank)))
    if cmd == "subcat":
        base = rand_ms(rng, rank)
        lefts = sorted({i for i, _ in base})
        rights = sorted({j for _, j in base})
        exps = {}
        for _ in range(rng.randint(1, 2)):
            i, j = rng.choice(lefts), rng.choice(rights)
            if rng.random() < 0.3:
                i -= 1  # a left endpoint that base lacks
            if i <= j:
                exps[(i, j)] = rng.randint(1, 2)
        return (cmd, "--rank", r, ms_text(base), lweight_text(exps.items()))
    raise ValueError(cmd)


SUBCOMMANDS = (
    "closure", "closed", "socle", "hom", "dominant-weights", "qchar", "dominant",
    "alpha-decompose", "leq", "dual", "iota", "normalform", "ext-check", "subcat",
)
MIX_PER_MODE = 6  # ops per subcommand and output mode


def _malformed(rng):
    """Input errors that the CLI must report with exit 2 and `error: ...`."""
    rank = rng.randint(1, 6)
    r = str(rank)
    ms = ms_text(rand_ms(rng, rank))
    choice = rng.randrange(8)
    if choice == 0:
        argv = ("closure", "--rank", r, ms + "[0,")
    elif choice == 1:
        a = rng.randint(1, 5)
        argv = ("socle", "--rank", r, f"[{a + 2},{a}]")
    elif choice == 2:
        argv = ("closure", "--rank", "0", ms)
    elif choice == 3:
        a = rng.randint(0, 5)
        argv = ("qchar", "--rank", r, f"[{a},{a + rank + 2}]")
    elif choice == 4:
        argv = ("alpha-decompose", "--rank", r, "w[0,2]^")
    elif choice == 5:
        return Op(("hom", "--rank", r, "-", "-"), stdin=ms + "\n", exit_code=2, cls="error")
    elif choice == 6:
        base = rand_ms(rng, rank)
        i, j = base[0]
        argv = ("subcat", "--rank", r, ms_text(base), f"w[{i},{j}]^-1")
    else:
        parts = rand_ms(rng, rank, parts=2)
        argv = ("iota", "--rank", r, "--sign", "plus", "--at", "3", ms_text(parts))
    return Op(argv, exit_code=2, cls="error")


def _cli_mix(rng):
    ops = []
    for cmd in SUBCOMMANDS:
        for json_mode in (False, True):
            for _ in range(MIX_PER_MODE):
                argv = list(_mix_op(rng, cmd, rng.randint(1, 6)))
                if json_mode:
                    argv.insert(3, "--json")
                stdin = None
                if rng.random() < 0.1:
                    # read the last positional argument from stdin
                    stdin, argv[-1] = argv[-1] + "\n", "-"
                ops.append(Op(tuple(argv), stdin, 0, f"{cmd}{'-json' if json_mode else ''}"))
    ops.extend(_malformed(rng) for _ in range(len(ops) // 9))
    rng.shuffle(ops)
    return ops


def cold_ops(seed: int, count: int):
    """Small well-formed ops without stdin, run as fresh subprocesses."""
    rng = random.Random(f"cold-{seed}")
    out = []
    while len(out) < count:
        cmd = rng.choice(("closure", "hom", "socle", "qchar", "normalform", "leq"))
        out.append(Op(_mix_op(rng, cmd, rng.randint(1, 4)), cls="cold"))
    return out


# Below every rank at which enumerate and decide build closures (at least
# the span of a 4-part tuple, 6) or characters (3 and up).
WARM_RANK = 2


def warm_ops(seed: int):
    """One well-formed op per subcommand and output mode, all at WARM_RANK.

    They run before the timed pass to finish argparse, regex and JSON
    set-up.  At that rank they share no closure seed and no fundamental
    character with enumerate or decide, so a cache inside weylcalc gains
    nothing on those workloads from the warm-up.
    """
    rng = random.Random(f"warm-{seed}")
    ops = []
    for cmd in SUBCOMMANDS:
        for json_mode in (False, True):
            argv = list(_mix_op(rng, cmd, WARM_RANK))
            if json_mode:
                argv.insert(3, "--json")
            ops.append(Op(tuple(argv), cls=f"warm-{cmd}"))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The op list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}-{seed}")
    make = {"enumerate": _enumerate, "decide": _decide, "cli-mix": _cli_mix}[workload]
    return make(rng)

