"""Output checks that hold for any seed, written independently of weylcalc.

Tuples are tuples of (i, j) pairs and l-weights are sorted tuples of
(i, j, exponent) triples.  The closure oracle is a breadth-first search over
left endpoints: a crossing move on connected parts m < l exchanges their
left endpoints, and so does a swap of two parts with equal right endpoints,
so the right-endpoint sequence of the seed never changes.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations
from math import comb, factorial

from corpus import root_exps

_SEG_RE = re.compile(r"\[(-?\d+),(-?\d+)\]")
_FACTOR_RE = re.compile(r"([wa])\[(-?\d+),(-?\d+)\]\^(-?\d+)")


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


# -- the mathematics --------------------------------------------------------

def connected(a, b, rank) -> bool:
    (ai, aj), (bi, bj) = a, b
    return (bi < ai <= bj < aj and aj - bi <= rank + 1) or (
        ai < bi <= aj < bj and bj - ai <= rank + 1
    )


def closure(parts, rank) -> list:
    """Every tuple reachable from parts, sorted lexicographically."""
    rights = tuple(j for _, j in parts)
    r = len(parts)
    start = tuple(i for i, _ in parts)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for lefts in frontier:
            for m in range(r):
                for l in range(m + 1, r):
                    if rights[m] == rights[l] or connected(
                        (lefts[m], rights[m]), (lefts[l], rights[l]), rank
                    ):
                        s = list(lefts)
                        s[m], s[l] = s[l], s[m]
                        s = tuple(s)
                        if s not in seen:
                            seen.add(s)
                            nxt.append(s)
        frontier = nxt
    return sorted(tuple(zip(lefts, rights)) for lefts in seen)


def is_dense(parts, rank) -> bool:
    """Both endpoint sequences strictly decreasing, every left endpoint at
    most every right one and the rank at least the span: every order of the
    left endpoints is reached."""
    lefts, rights = [i for i, _ in parts], [j for _, j in parts]
    return (
        all(a[0] > b[0] and a[1] > b[1] for a, b in zip(parts, parts[1:]))
        and max(lefts) <= min(rights)
        and max(rights) - min(lefts) <= rank + 1
    )


def is_closed(parts, rank) -> bool:
    return not any(connected(a, b, rank) for a, b in combinations(parts, 2))


def weight(parts, rank) -> tuple:
    """Product of the part generators; length 0 and rank + 1 drop out."""
    c = Counter((i, j) for i, j in parts if 0 < j - i < rank + 1)
    return tuple(sorted((i, j, e) for (i, j), e in c.items()))


def sort_plus(parts) -> tuple:
    return tuple(sorted(parts, key=lambda p: (-p[1], -p[0])))


def dominant_weights(parts, rank) -> list:
    return sorted({weight(t, rank) for t in closure(sort_plus(parts), rank)})


def socle(parts, rank) -> list:
    reps = {sort_plus(t) for t in closure(parts, rank) if is_closed(t, rank)}
    return sorted((weight(t, rank), t) for t in reps)


def decompose(w, rank):
    """Root coefficients {(i, j): c} of the l-weight w, or None.

    Peels roots off in lexicographic order: no other root touches the
    generator w[i,j] of the smallest root a[i,j] in a product, so the
    exponent of the smallest generator is that root's coefficient.  Roots
    never start right of the support, which bounds the search.
    """
    w = {(i, j): e for i, j, e in w}
    hi = max((i for i, _ in w), default=0)
    coefs = {}
    while w:
        i, j = min(w)
        if not 1 <= j - i <= rank or i > hi:
            return None
        c = coefs[(i, j)] = w[(i, j)]
        for seg, e in root_exps(i, j, rank, -c).items():
            ne = w.get(seg, 0) + e
            if ne:
                w[seg] = ne
            else:
                del w[seg]
    return coefs


def qchar_mass(parts, rank) -> int:
    """Number of paths in the product: prod C(rank + 1, length) over the
    non-degenerate parts."""
    out = 1
    for i, j in parts:
        if 0 < j - i < rank + 1:
            out *= comb(rank + 1, j - i)
    return out


def quotient(w2, w1) -> tuple:
    acc = Counter({(i, j): e for i, j, e in w2})
    acc.subtract({(i, j): e for i, j, e in w1})
    return tuple(sorted((i, j, e) for (i, j), e in acc.items() if e))


# -- rendering and parsing --------------------------------------------------

def render_ms(parts) -> str:
    return "".join(f"[{i},{j}]" for i, j in parts)


def parse_ms(text):
    return tuple((int(a), int(b)) for a, b in _SEG_RE.findall(text))


def parse_factors(text, letter="w"):
    text = text.strip()
    if text == "1":
        return ()
    out = []
    for f in text.split(" * "):
        m = _FACTOR_RE.fullmatch(f.strip())
        expect(m and m.group(1) == letter, f"bad factor {f!r}")
        out.append((int(m.group(2)), int(m.group(3)), int(m.group(4))))
    return tuple(out)


def json_weight(items):
    return tuple((d["segment"][0], d["segment"][1], d["exp"]) for d in items)


def json_ms(items):
    return tuple(tuple(p) for p in items)


def lines(out: str) -> list:
    expect(out.endswith("\n"), "output does not end in a newline")
    body = out[:-1]
    return body.split("\n") if body else []


def qchar_terms(out, json_mode):
    """[(weight, multiplicity)] from qchar or dominant output."""
    if json_mode:
        return [(json_weight(t["weight"]), t["mult"]) for t in json.loads(out)["terms"]]
    terms = []
    for line in lines(out):
        m, _, w = line.partition(" * ")
        terms.append((parse_factors(w), int(m)))
    return terms


# -- per-op checks ----------------------------------------------------------

def _positionals(argv):
    """Positional arguments after the subcommand, options dropped."""
    out, k = [], 1
    while k < len(argv):
        a = argv[k]
        if a == "--json":
            k += 1
        elif a.startswith("--") and len(a) > 2:
            k += 2
        else:
            out.append(a)
            k += 1
    return out


def _option(argv, name):
    return argv[argv.index(name) + 1]


def check(op, code, out, err) -> None:
    """Raise CheckFailed unless the op's exit code and output are right."""
    expect(code == op.exit_code, f"exit code {code}, expected {op.exit_code}: {err.strip()}")
    if code == 2:
        expect(out == "" and err.startswith("error: "), "malformed input not reported")
        return
    expect(err == "", f"unexpected stderr {err.strip()!r}")
    argv = op.argv
    cmd, json_mode = argv[0], "--json" in argv
    rank = int(_option(argv, "--rank"))
    args = [op.stdin if a == "-" else a for a in _positionals(argv)]
    payload = json.loads(out) if json_mode else None
    text = None if json_mode else lines(out)

    if cmd == "closure":
        parts = parse_ms(args[0])
        want = closure(parts, rank)
        if is_dense(parts, rank):
            expect(len(want) == factorial(len(parts)), "oracle: dense tuple lacks r! members")
        if json_mode:
            expect([json_ms(t) for t in payload["members"]] == want, "closure members")
            expect([json_ms(t) for t in payload["closed"]]
                   == [t for t in want if is_closed(t, rank)], "closure closed members")
        else:
            expect(text == [render_ms(t) for t in want], "closure members")
    elif cmd == "closed":
        got = payload["closed"] if json_mode else text == ["true"]
        expect(got == is_closed(parse_ms(args[0]), rank), "closed verdict")
    elif cmd in ("qchar", "dominant"):
        parts = parse_ms(args[0])
        terms = qchar_terms(out, json_mode)
        expect(all(m > 0 for _, m in terms), "non-positive multiplicity")
        expect(len({w for w, _ in terms}) == len(terms), "repeated weight")
        expect([w for w, _ in terms] == sorted(w for w, _ in terms), "terms out of order")
        if cmd == "qchar":
            expect(sum(m for _, m in terms) == qchar_mass(parts, rank), "qchar mass")
        else:
            expect(all(e > 0 for w, _ in terms for _, _, e in w), "non-dominant term")
            expect(dict(terms).get(weight(parts, rank), 0) >= 1, "highest weight missing")
    elif cmd == "dominant-weights":
        want = dominant_weights(parse_ms(args[0]), rank)
        got = ([json_weight(w) for w in payload["weights"]] if json_mode
               else [parse_factors(line) for line in text])
        expect(got == want, "dominant weights")
    elif cmd == "hom":
        src, dst = parse_ms(args[0]), parse_ms(args[1])
        want = int(weight(src, rank) in dominant_weights(dst, rank))
        expect((payload["hom_dim"] if json_mode else int(text[0])) == want, "hom dim")
    elif cmd == "socle":
        want = socle(parse_ms(args[0]), rank)
        if json_mode:
            got = [(json_weight(s["weight"]), json_ms(s["rep"])) for s in payload["summands"]]
        else:
            got = [(parse_factors(w), parse_ms(t)) for w, t in
                   (line.split("\t") for line in text)]
        expect(got == want, "socle summands")
    elif cmd == "ext-check":
        a = set(dominant_weights(parse_ms(args[0]), rank))
        shared = sorted(a & set(dominant_weights(parse_ms(args[1]), rank)))
        verdict = "INCONCLUSIVE" if shared else "VANISHES"
        if json_mode:
            expect(payload["verdict"] == verdict, "ext verdict")
            expect([json_weight(w) for w in payload["shared_weights"]] == shared, "shared weights")
        else:
            expect(text == [verdict], "ext verdict")
    elif cmd == "alpha-decompose":
        want = decompose(parse_factors(args[0]), rank)
        if json_mode:
            got = payload["coefficients"]
            expect(payload["in_root_lattice"] == (want is not None), "lattice verdict")
            got = None if got is None else json_weight(got)
        else:
            got = None if text == ["not-in-root-lattice"] else parse_factors(text[0], "a")
        if want is not None:
            want = tuple(sorted((i, j, c) for (i, j), c in want.items()))
        expect(got == want, "root decomposition")
    elif cmd == "dual":
        parts = parse_ms(args[0])
        if _option(argv, "--side") == "right":
            want = tuple((j, rank + 1 + i) for i, j in parts)
        else:
            want = tuple((j - rank - 1, i) for i, j in parts)
        got = json_ms(payload["result"]) if json_mode else parse_ms(text[0])
        expect(got == want, "dual")
    elif cmd in ("iota", "normalform"):
        parts = parse_ms(args[0])
        got = json_ms(payload["result"]) if json_mode else parse_ms(text[0])
        expect(sorted(i for i, _ in got) == sorted(i for i, _ in parts)
               and sorted(j for _, j in got) == sorted(j for _, j in parts),
               "straightening changed the endpoint multisets")
        if cmd == "normalform":
            js = [j for _, j in got]
            want_order = sorted(js, reverse=_option(argv, "--sign") == "plus")
            expect(js == want_order, "normal form not sorted")
            if json_mode:
                expect(json_weight(payload["weight"]) == weight(got, rank), "normal form weight")
    elif cmd == "leq":
        coefs = decompose(quotient(parse_factors(args[1]), parse_factors(args[0])), rank)
        want = coefs is not None and all(c > 0 for c in coefs.values())
        got = payload["leq"] if json_mode else text == ["true"]
        expect(got == want, "dominance order")
    elif cmd == "subcat":
        base = parse_ms(args[0])
        w = parse_factors(args[1])
        lefts, rights = {i for i, _ in base}, {j for _, j in base}
        want = all(i in lefts and j in rights and 0 <= j - i <= rank + 1 for i, j, _ in w)
        got = payload["member"] if json_mode else text == ["true"]
        expect(got == want, "subcategory membership")
    else:
        raise CheckFailed(f"no check for {cmd}")

