"""Shared generators and brute-force oracles for the randomized tests.

Every generator takes an explicit random.Random so each test controls its
own seed and stays reproducible in isolation; a fixed corpus seeds its own.
"""

from __future__ import annotations

import copy
import importlib.util
import itertools
import json
import operator
import pickle
import random
import re
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

from weylcalc import (
    ExtVerdict,
    LWeight,
    Multisegment,
    QChar,
    RootVector,
    Segment,
    closed_elements,
    closure,
    enumerate_paths,
    ext_vanishing,
    hom_dim,
    in_plus_order,
    is_closed,
    is_doubly_sorted,
    path_weight,
    socle,
    sort_plus,
    span,
    swap,
    tau,
    weight_of,
    weyl_dominant_part,
    weyl_dominant_weights,
)
from weylcalc.closures import _bounds
from weylcalc.errors import ParseError, RangeError
from weylcalc.qchars import _fold, fundamental_qchar
from weylcalc.segments import check_valid, is_degenerate


def random_segment(rng, rank, lo=-3, hi=6):
    ln = rng.randint(0, rank + 1)
    i = rng.randint(lo, hi - ln)
    return Segment(i, i + ln)


def random_multisegment(rng, rank, parts=None):
    if parts is None:
        parts = rng.randint(1, 3)
    return Multisegment(random_segment(rng, rank) for _ in range(parts))


def criterion2_instances():
    """The fixed (ms, rank) corpus of acceptance criterion 2."""
    rng = random.Random(92200)
    out = []
    for _ in range(220):
        rank = rng.randint(1, 4)
        out.append((random_multisegment(rng, rank, parts=rng.randint(1, 3)), rank))
    return out


def random_doubly_sorted(rng, parts=None):
    """Tuple with both endpoint sequences weakly decreasing.

    Pick the rank afterwards; any rank >= span keeps every part valid.
    """
    if parts is None:
        parts = rng.randint(1, 4)
    iseq = sorted((rng.randint(-3, 3) for _ in range(parts)), reverse=True)
    jseq = [0] * parts
    cur = None
    for s in range(parts - 1, -1, -1):
        lo = iseq[s] if cur is None else max(iseq[s], cur)
        jseq[s] = lo + rng.randint(0, 2)
        cur = jseq[s]
    return Multisegment(Segment(iseq[s], jseq[s]) for s in range(parts))


def random_connected_pair(rng, rank):
    """(a, b) with b.i < a.i <= b.j < a.j and a.j - b.i <= rank + 1."""
    while True:
        i2 = rng.randint(-3, 2)
        i1 = i2 + rng.randint(1, 3)
        j2 = i1 + rng.randint(0, 3)
        j1 = j2 + rng.randint(1, 3)
        if j1 - i2 <= rank + 1:
            return Segment(i1, j1), Segment(i2, j2)


def random_dense_triple(rng):
    """((a, b, c), rank) with strictly decreasing left and right endpoints,
    every left endpoint <= the smallest right endpoint, and a rank large
    enough that all three pairs are connected."""
    i1, i2, i3 = sorted(rng.sample(range(-4, 5), 3), reverse=True)
    j3 = i1 + rng.randint(0, 2)
    j2 = j3 + rng.randint(1, 2)
    j1 = j2 + rng.randint(1, 2)
    rank = max(1, j1 - i3 - 1) + rng.randint(0, 2)
    ms = Multisegment([Segment(i1, j1), Segment(i2, j2), Segment(i3, j3)])
    return ms, rank


def random_nested_triple(rng):
    """((a, b, c), rank) with strictly decreasing left endpoints but strictly
    increasing right endpoints: each part strictly inside the next."""
    i1, i2, i3 = sorted(rng.sample(range(-4, 5), 3), reverse=True)
    j1 = i1 + rng.randint(0, 2)
    j2 = j1 + rng.randint(1, 2)
    j3 = j2 + rng.randint(1, 2)
    rank = max(1, j3 - i3 - 1) + rng.randint(0, 2)
    ms = Multisegment([Segment(i1, j1), Segment(i2, j2), Segment(i3, j3)])
    return ms, rank


def tau_saturate(ms, rank):
    """Everything reachable from ms by crossing moves alone (no swaps)."""
    seen = {ms}
    frontier = [ms]
    r = len(ms)
    while frontier:
        nxt = []
        for t in frontier:
            for m in range(1, r):
                for l in range(m + 1, r + 1):
                    u = tau(t, m, l, rank)
                    if u is not None and u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    return seen


def move_saturate(ms, rank):
    """Everything reachable from ms by crossing moves and equal-j swaps.

    A closure oracle that applies the public tau and swap to whole
    multisegments, with no assumption about which endpoints a move
    touches.
    """
    seen = {ms}
    frontier = [ms]
    r = len(ms)
    while frontier:
        nxt = []
        for t in frontier:
            for m in range(1, r):
                for l in range(m + 1, r + 1):
                    moved = [tau(t, m, l, rank)]
                    if t[m - 1].j == t[l - 1].j:
                        moved.append(swap(t, m, l))
                    for u in moved:
                        if u is not None and u not in seen:
                            seen.add(u)
                            nxt.append(u)
        frontier = nxt
    return seen


def is_listed(seed, rank):
    """Doubly sorted at rank >= span: every valid arrangement is a member.

    Then each plus-order prefix holds the seed's largest left endpoints, so
    test (b) cannot fail, and (a) is A_k <= j_k, as max j - rank - 1 <= min i.
    search_closure lists such a seed rather than searching it, and
    certify_box counts the tuples on each side.
    """
    return is_doubly_sorted(seed) and rank >= span(seed)


def search_closure(seed, rank):
    """(js, left tuples) of closure(seed) by the engine closures had first.

    The reference for closures._left_closure and listed_closure. A listed
    seed (is_listed) takes, by increasing j, any distinct unused left
    endpoint <= j, and once the unused ones are distinct and <= the next j,
    each of their orders completes a member. Any other seed is searched
    breadth first from the seed: a state moves by every crossing move whose
    window it hits and by every swap of two parts with equal j, and a
    visited set keeps each state once.
    """
    for p in seed:
        check_valid(p, rank)
    start, js = zip(*seed)
    if is_listed(seed, rank):
        out = []
        level = [((), start[::-1])]  # (suffix, unused lefts ascending)
        for j in reversed(js):
            nxt = []
            for suffix, pool in level:
                if pool[-1] <= j and len(set(pool)) == len(pool):
                    out += [a + suffix for a in itertools.permutations(pool)]
                    continue
                for x, v in enumerate(pool):
                    if v > j:
                        break
                    if not x or pool[x - 1] != v:
                        nxt.append(((v,) + suffix, pool[:x] + pool[x + 1:]))
            level = nxt
        return js, out
    pairs = list(itertools.combinations(range(len(js)), 2))
    ties = [(m, l) for m, l in pairs if js[m] == js[l]]
    windows = [(h, k, js[h] - rank - 1, js[k]) for h, k in
               (p if js[p[0]] > js[p[1]] else p[::-1] for p in pairs)
               if 0 < js[h] - js[k] <= rank]
    seen = {start}
    order = [start]
    for cur in order:  # breadth first: order grows while it is walked
        moves = [(h, k) for h, k, lo, hi in windows if lo <= cur[k] < cur[h] <= hi]
        for m, l in moves + ties:
            nxt = list(cur)
            nxt[m], nxt[l] = cur[l], cur[m]
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return js, order


def listed_closure(seed, rank):
    """(js, left tuples) of closure(seed), each once, by the level walk closures had.

    The reference for closures._left_closure's memoized walk, which replaced
    it. By increasing j (plus order), a position takes each distinct unused
    left in its window, once the least one left over still fits the next;
    at a block end of closures._bounds' table the unused lefts must be
    bounded entry by entry by its sorted prefix. Once the unused lefts are
    distinct and fit every remaining window, past every such bound, each
    of their orders completes a member. The tuples come in seed order,
    unsorted.
    """
    for p in seed:
        check_valid(p, rank)
    start, js = zip(*seed)
    at = sorted(range(len(js)), key=js.__getitem__, reverse=True)  # plus order
    ls, jp = [start[k] for k in at], [js[k] for k in at]
    bounds = _bounds(ls, jp)
    first, low = min(bounds, default=len(ls)), jp[0] - rank - 1
    out, level = [], [((), tuple(sorted(ls)))]  # (suffix, unused lefts ascending)
    for t in range(len(ls) - 1, -1, -1):
        j, lo, bound, nxt = jp[t], jp[t - 1] - rank - 1, bounds.get(t), []
        for suffix, pool in level:
            if t < first and low <= pool[0] <= pool[-1] <= j and len(set(pool)) > t:
                out += [a + suffix for a in itertools.permutations(pool)]
                continue
            for x, v in enumerate(pool):
                if v > j:
                    break
                if x and pool[x - 1] == v:
                    continue
                rest = pool[:x] + pool[x + 1:]
                if lo <= rest[0] and (bound is None or all(map(operator.le, rest, bound))):
                    nxt.append(((v,) + suffix, rest))
        level = nxt
    if at != sorted(at):
        back = operator.itemgetter(*sorted(range(len(at)), key=at.__getitem__))
        out = list(map(back, out))
    return js, out


def column_text(js, lefts):
    """str of the closure whose sorted left tuples are lefts, as first written.

    Each (left, j) piece is formatted once per column and the columns are
    joined into rows: the reference for the text that closures._left_closure
    builds inside its walk.
    """
    vs = set(lefts[0])
    cols = [map({v: f"[{v},{j}]" for v in vs}.__getitem__, col)
            for col, j in zip(zip(*lefts), js)]
    return "\n".join(map("".join, zip(*cols)))


def listing_mismatches(seed, rank):
    """The outputs of closure(seed, rank) that disagree with listed_closure.

    Checked on fresh closures: str and len (which must leave lefts unbuilt
    for a seed in plus order), lefts and their order, str and len again
    once lefts is built and after a pickle round trip at protocols 0 and
    5, closed_lefts (the members that pass is_closed) and `in` on every
    member. An empty list means all agree.
    """
    js, order = listed_closure(seed, rank)
    lefts = tuple(sorted(order))
    want = column_text(js, lefts), len(lefts)
    cs = closure(seed, rank)
    text, size = str(cs), len(cs)
    bad = ["lazy"] if "lefts" in vars(cs) and in_plus_order(seed) else []
    bad += [] if text == want[0] else ["str"]
    bad += [] if size == want[1] else ["len"]
    cs = closure(seed, rank)
    bad += [] if cs.js == js and cs.lefts == lefts else ["lefts"]
    kept = [cs] + [pickle.loads(pickle.dumps(cs, p)) for p in (0, 5)]
    bad += [] if all((str(c), len(c)) == want for c in kept) else ["str and len kept"]
    closed = tuple([a for a in lefts if is_closed(
        Multisegment(map(Segment, a, js)), rank)])
    bad += [] if cs.closed_lefts == closed else ["closed_lefts"]
    fresh = closure(seed, rank)
    bad += [] if all(tuple(zip(a, js)) in fresh for a in lefts) else ["in"]
    return bad


def dense_seeds():
    """(label, ms, rank, members) of four dense seeds that is_listed rejects.

    Seven or eight parts, below the span or at it but not doubly sorted,
    with thousands of members each.
    """
    def M(*pairs):
        return Multisegment(Segment(i, j) for i, j in pairs)

    dense = M(*((6 - k, 13 - k) for k in range(7)))
    spread = M((0, 6), (3, 7), (1, 8), (2, 9), (4, 10), (5, 11), (6, 12))
    return [
        ("[6,13]...[0,7]", dense, 10, 3000),
        ("[6,13]...[0,7]", dense, 11, 4320),
        ("sort_plus([0,6][3,7]...[6,12])", sort_plus(spread), 11, 4320),
        ("[7,15]...[0,8]", M(*((k, k + 8) for k in range(7, -1, -1))), 12, 25920),
    ]


def block_permutations(ms):
    """All reorderings that permute parts within runs of equal right endpoint.

    Only meaningful when equal right endpoints are already contiguous.
    """
    runs = [list(grp) for _, grp in itertools.groupby(ms, key=lambda s: s.j)]
    out = []
    for combo in itertools.product(*(itertools.permutations(r) for r in runs)):
        out.append(Multisegment(s for run in combo for s in run))
    return out


def crosses(ai, aj, bi, bj, rank):
    """The crossing rule as first written, on bare endpoints, two branches.

    The oracle for multisegments.connected, which states it as one window.
    """
    if bi < ai <= bj < aj:
        return aj - bi <= rank + 1
    if ai < bi <= aj < bj:
        return bj - ai <= rank + 1
    return False


def canonical_closed_by_min_search(ms):
    """canonical_closed as first written: an O(r^2) search per position.

    Assigns to each position p (taken from r down to 1) the smallest
    unused source position s with i_s <= j_p, then pairs that left
    endpoint with j_p. The oracle for closures.canonical_closed.
    """
    r = len(ms)
    sigma, used = {}, set()
    for p in range(r, 0, -1):
        s = min(
            s for s in range(1, r + 1) if s not in used and ms[s - 1].i <= ms[p - 1].j
        )
        sigma[p] = s
        used.add(s)
    return Multisegment(
        Segment(ms[sigma[p] - 1].i, ms[p - 1].j) for p in range(1, r + 1)
    )


def passes_bounds(seed, cand, rank):
    """Membership test (a)+(b) on plain pairs; (b) is below_by_sorting.

    cand is a tuple of (left, right) pairs set against seed's right
    endpoints; (a) every pair is a valid part at the rank, (b) every
    prefix of left endpoints at an end of an equal-j block, in plus order,
    is bounded by the seed's. closures._left_closure proves that it matches
    closure(seed).members; the tests check it against move_saturate.
    """
    if len(cand) != len(seed) or any(c[1] != p.j for c, p in zip(cand, seed)):
        return False
    lefts = [c[0] for c in sorted(cand, key=lambda c: -c[1])]
    return (
        sorted(lefts) == sorted(p.i for p in seed)
        and all(0 <= c[1] - c[0] <= rank + 1 for c in cand)
        and below_by_sorting(sort_plus(seed), lefts)
    )


def below_by_sorting(seed, lefts):
    """Test (b) as first written: sort both prefixes at every block end.

    seed is plus-sorted and lefts is a rearrangement of its left endpoints
    in the same positions. The oracle for the table of closures._bounds,
    which skips the block ends where the seed's prefix holds its largest
    left endpoints.
    """
    r = len(seed)
    return all(
        all(a <= b for a, b in zip(sorted(lefts[:t], reverse=True),
                                   sorted((p.i for p in seed[:t]), reverse=True)))
        for t in range(1, r + 1) if t == r or seed[t].j != seed[t - 1].j
    )


def sweep_roots(w, rank):
    """decompose_into_roots swept start by start, or None outside the lattice.

    The oracle for the gap crossing: every start between the first and the
    last factor is solved row by row, as the equations are written.
    """
    exp = w.exponents()
    if not all(1 <= seg.length <= rank for seg in exp):
        return None
    coef, prev = {}, [0] * (rank + 2)
    starts = [seg.i for seg in exp]
    for s in range(min(starts, default=0), max(starts, default=-1) + 1):
        row = [0] * (rank + 2)
        for d in range(1, rank + 1):
            c = exp.get(Segment(s, s + d), 0) - prev[d] + prev[d + 1] + row[d - 1]
            row[d] = c
            if c:
                coef[Segment(s, s + d)] = c
        prev = row
    return None if any(prev) else RootVector(coef)


def path_product(ms, rank):
    """The q-character of ms as {LWeight: multiplicity}, from paths alone.

    The product over all parts of the sums of their path weights,
    multiplied pair by pair as LWeights: no QChar and no factor table. A
    degenerate part has one path, with no corner, so it contributes 1.
    """
    acc = Counter({LWeight.identity(): 1})
    for p in ms:
        weights = [path_weight(g, rank) for g in enumerate_paths(p, rank)]
        nxt = Counter()
        for w, m in acc.items():
            for v in weights:
                nxt[w * v] += m
        acc = nxt
    return dict(acc)


def per_term_text(q):
    """str of a QChar as first written: one join of rendered factors per term.

    It reads the sorted keys alone, so it is the reference for the tail
    text of fundamental characters and for the rows of products.
    """
    get = [LWeight._factor % (i, j, e) for (i, j), e in q._factors].__getitem__
    return "\n".join([f"{m} * {' * '.join(map(get, k)) or '1'}"
                      for k, m in sorted(q._keys.items())])


def keyed_product(chars, dominant=False):
    """The product of chars, or its dominant terms, decoded to tuple keys.

    The reference for the packed rows of qchars._convolve: the same k-fold
    sum on packed ints, with slot s of the segments in sorted order at bits
    w*s and each term re-packed from its keys, then every distinct 64-bit
    chunk is decoded to its (s, d) and each row's key is the sorted indices
    of its factors in the table of those used. It returns a QChar on that
    (table, keys) form, whose str and JSON rows sort the keys.
    """
    slots = dict(zip(sorted({f[0] for q in chars for f in q._factors}), itertools.count()))
    bias = sum([max([abs(e) for _, e in q._factors], default=0) for q in chars])
    w = max(8, 1 << bias.bit_length().bit_length())
    packed = [[(sum([e << w * slots[s] for s, e in map(q._factors.__getitem__, k)]), m)
               for k, m in q._keys.items()] for q in chars]
    n, per = len(slots), max(1, 64 // w)
    half, mask, top = 1 << w - 1, (1 << w) - 1, (1 << w * per) - 1
    high = half * ((1 << w * n) - 1) // mask
    rise, need = itertools.repeat(0), 0
    if dominant:
        ups = [sum([e << w * slots[s] for s, e in dict(q._factors).items() if e > 0])
               for q in chars[:0:-1]]
        rise, need = list(itertools.accumulate(ups, initial=0))[::-1], high
    acc = _fold({high: 1}, packed, rise, need)
    cols = []
    for lo in range(0, w * n, w * per):
        chunks = [v >> lo & top for v in acc]
        found = {x: [(s, d) for s in range(lo // w, min(lo // w + per, n))
                     if (d := x >> w * s - lo & mask) != half] for x in set(chunks)}
        cols.append((chunks, found))
    used = sorted({f for _, found in cols for fs in found.values() for f in fs})
    index, segs = {f: r for r, f in enumerate(used)}, list(slots)
    keys = itertools.repeat(())
    for chunks, found in cols:
        decoded = {x: tuple(map(index.__getitem__, fs)) for x, fs in found.items()}
        keys = map(operator.add, keys, map(decoded.__getitem__, chunks))
    return QChar._of([(segs[s], d - half) for s, d in used], dict(zip(keys, acc.values())))


def keyed_qchar(ms, rank, dominant=False):
    """weyl_qchar(ms, rank), or _dominant, with every product by keyed_product.

    A lone fundamental character is rebuilt on its keys, so its str sorts them.
    """
    for p in ms:
        check_valid(p, rank)
    parts = [p for p in ms if not is_degenerate(p, rank)]
    chars = [fundamental_qchar(p, rank) for p in
             (sorted(parts, key=lambda p: -(p.i + p.j)) if dominant else parts)]
    if len(chars) == 1 and not dominant:
        return QChar._of(chars[0]._factors, chars[0]._keys)
    return keyed_product(chars, dominant) if chars else QChar.one()


def weigh_each(seed, rank):
    """(table, keys) of the weights of closure(seed)'s members, weighed one by one.

    The reference for qchars._weight_keys: every left tuple that
    listed_closure lists is weighed against the table of the
    seed's non-degenerate (left, j) pairs, e up to the copies of both, and
    its key is the sorted tuple of its factors' indices, a pair held c
    times taking the index of e = c.
    """
    js, order = listed_closure(seed, rank)
    factors, cols = [], {j: {} for j in js}
    for i, j in sorted({(i, j) for i in order[0] for j in js if 0 < j - i <= rank}):
        cols[j][i] = len(factors)
        e = min(order[0].count(i), js.count(j))
        factors += [(Segment(i, j), c) for c in range(1, e + 1)]
    cols = [cols[j] for j in js]
    keys = (Counter(map(dict.get, cols, a)).items() for a in order)
    return factors, {tuple(sorted(r + c - 1 for r, c in k if r is not None)): 1
                     for k in keys}


_SEG_RE = re.compile(r"\[(-?\d+),(-?\d+)\]")
_WFACTOR_RE = re.compile(r"w\[(-?\d+),(-?\d+)\]\^(-?\d+)")
_SPACE_RE = re.compile(r"\s*")


def _scan(text, factor_re, sep, what):
    """The factor matches of text: sep between factors, whitespace skipped."""
    out, pos = [], 0
    while True:
        pos = _SPACE_RE.match(text, pos).end()
        if pos == len(text):
            return out
        if out and sep:
            if text[pos] != sep:
                raise ParseError(f"expected '{sep}' at byte {pos}", pos)
            pos = _SPACE_RE.match(text, pos + 1).end()
        m = factor_re.match(text, pos)
        if not m:
            raise ParseError(f"bad {what} at byte {pos}", pos)
        i, j = int(m[1]), int(m[2])
        if j < i:
            raise RangeError(f"segment [{i},{j}] at byte {pos} has j < i")
        out.append(m)
        pos = m.end()


def scan_multisegment(text):
    """cli.parse_multisegment as a loop of two regex calls a part, as first
    written; its offsets count code points. The reference for the token parser."""
    found = _scan(text, _SEG_RE, "", "multisegment syntax")
    if not found:
        raise ParseError("empty multisegment", 0)
    return Multisegment(Segment(int(m[1]), int(m[2])) for m in found)


def scan_lweight(text):
    """cli.parse_lweight as first written, on _scan (code-point offsets)."""
    if text.strip() == "1":
        return LWeight.identity()
    found = _scan(text, _WFACTOR_RE, "*", "l-weight factor")
    if not found:
        raise ParseError("empty l-weight", 0)
    return LWeight((Segment(int(m[1]), int(m[2])), int(m[3])) for m in found)


def parse_outcome(parse, text, in_bytes=False):
    """What parse does with text, as a comparable tuple: the value with the
    type of each part, or the exception's type, message and offset. With
    in_bytes, a code-point offset and the message's `at byte N` become
    UTF-8 byte counts."""
    try:
        value = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        msg, at = str(exc), getattr(exc, "offset", None)
        if in_bytes and (m := re.search(r"at byte (\d+)", msg)):
            n = len(text[:int(m[1])].encode())
            msg = f"{msg[:m.start(1)]}{n}{msg[m.end(1):]}"
            at = None if at is None else n
        return type(exc), msg, at
    parts = value if isinstance(value, tuple) else value._exp
    return type(value), value, [type(p) for p in parts]


def mangled_literal(rng, kind):
    """A multisegment (kind "ms") or l-weight ("w") literal, mostly valid, with
    odd digits and spaces, then up to three random edits."""
    def num():
        digits = rng.choice(["0", "7", "12", "007", "\u0663", "1\u06630",
                             str(2 ** 64 + rng.randrange(9))])
        return rng.choice(["", "", "-"]) + digits
    space = lambda: rng.choice(["", "", "", " ", "\t", "\n", "\xa0", "  "])
    parts = []
    for _ in range(rng.randint(0, 4)):
        i = rng.randint(-3, 5)
        a, b = (str(i), str(i + rng.randint(-1, 4))) if rng.random() < 0.7 else (num(), num())
        parts.append(f"[{a},{b}]" if kind == "ms" else f"w[{a},{b}]^{num()}")
    text = space() + (space() if kind == "ms" else f"{space()}*{space()}").join(parts) + space()
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        k = rng.randrange(len(text) + 1)
        noise = rng.choice(["*", "^", "+", "[", "]", ",", "-", "w", "1", "0", " ", "\t",
                            "\n", "\xa0", "\u0663", "x", "\ud800", "* ", ""])
        text = rng.choice([text[:k] + noise + text[k:], text[:k] + noise + text[k + 1:],
                           text[:k], text + noise])
    return text


def json_factor(f):
    return {"segment": [f[0], f[1]], "exp": f[2]}


def json_lweight(w):
    """Sorted factors of an LWeight or a RootVector as segment/exp records."""
    return list(map(json_factor, w.sort_key()))


def json_rows(q):
    """(factor records, multiplicity) per term of a QChar, by sort_key.

    It reads the sorted keys of a copy, so that q builds none, and renders
    each key's factors itself, not through the pieces that `str` and
    `--json` join.
    """
    q = copy.copy(q)
    get = [json_factor((i, j, e)) for (i, j), e in q._factors].__getitem__
    return [(list(map(get, k)), m) for k, m in sorted(q._keys.items())]


def json_qchar_terms(q):
    """Terms of a QChar by sort_key, one record per distinct factor."""
    return [{"weight": fs, "mult": m} for fs, m in json_rows(q)]


def closure_json(cs):
    return {
        "rank": cs.rank,
        "seed": cs.seed,
        "members": cs.members,
        "closed": cs.closed_members,
        "orbit_reps": cs.orbit_representatives,
    }


# The object trees that `--json` once handed to json.dumps, by subcommand:
# the reference for the renderers that print the JSON text directly.
JSON_REFERENCE = {
    "closure": closure_json,
    "closed": lambda r: {"closed": r},
    "socle": lambda ss: {"summands": [{"weight": json_lweight(s.weight),
                                       "rep": s.representative} for s in ss]},
    "hom": lambda d: {"hom_dim": d},
    "dominant-weights": lambda q: {"weights": [fs for fs, _ in json_rows(q)]},
    "qchar": lambda q: {"terms": json_qchar_terms(q)},
    "dominant": lambda q: {"terms": json_qchar_terms(q)},
    "alpha-decompose": lambda rv: {"in_root_lattice": rv is not None,
                                   "coefficients": None if rv is None else json_lweight(rv)},
    "leq": lambda r: {"leq": r},
    "dual": lambda ms: {"result": ms},
    "iota": lambda ms: {"result": ms},
    "normalform": lambda r: {"result": r[0], "weight": json_lweight(r[1])},
    "ext-check": lambda c: {"verdict": c.verdict.value,
                            "shared_weights": [json_lweight(w) for w in c.shared_weights]},
    "subcat": lambda r: {"member": r},
}


@contextmanager
def reference_json():
    """Within the block, cli.run prints --json as json.dumps of JSON_REFERENCE's trees."""
    from weylcalc import cli

    rows = tuple(c._replace(render=(c.render[0], lambda r, f=JSON_REFERENCE[c.name]:
                                    json.dumps(f(r)))) for c in cli.COMMANDS)
    with patch.object(cli, "COMMANDS", rows), \
            patch.object(cli, "_BY_NAME", {c.name: c for c in rows}):
        yield


def perfbench_corpus():
    """The benchmark's corpus module, perfbench/corpus.py, loaded by path."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@contextmanager
def counted_lweights():
    """Within the block, every LWeight built appends to the list it yields."""
    calls = []
    wrap, init = LWeight._wrap.__func__, LWeight.__init__

    def counted_wrap(cls, exp):
        calls.append("_wrap")
        return wrap(cls, exp)

    def counted_init(self, *args):
        calls.append("__init__")
        init(self, *args)

    with patch.object(LWeight, "_wrap", classmethod(counted_wrap)), \
            patch.object(LWeight, "__init__", counted_init):
        yield calls
    assert "_wrap" not in vars(LWeight) and "__init__" not in vars(LWeight)


def box_tuples(max_rank, window, parts):
    """(ms, rank) for every tuple of the box, ranks 1..max_rank.

    The box holds every plus-sorted multiset of at most `parts` segments
    valid at the rank, inside [0, window], with least left endpoint 0.
    Translation moves any tuple to least left endpoint 0, so the box
    covers every tuple of its shape up to translation.
    """
    for rank in range(1, max_rank + 1):
        segs = [Segment(i, j) for i in range(window + 1)
                for j in range(i, min(window, i + rank + 1) + 1)]
        for n in range(1, parts + 1):
            for combo in itertools.combinations_with_replacement(segs, n):
                if min(p.i for p in combo) == 0:
                    yield sort_plus(Multisegment(combo)), rank


def certify_box(max_rank, window, parts):
    """(cases per check, failures) over box_tuples(max_rank, window, parts).

    Each tuple checks the closure engine, the closure-free paths and the
    theorems they rest on against the closure and the oracles here:
    - members: closure members equal move_saturate's;
    - bounds: test (a)+(b) on every rearrangement of the left endpoints
      (passes_bounds) agrees with `in` and with the listed left tuples;
    - one orbit and socle, at rank >= span: one closed orbit, and socle's
      representative is it;
    - closed elements, at every rank: closed_elements of the tuple and of
      its reverse are the orbit representatives of the listing (above the
      span they come from canonical_closed, with nothing listed);
    - dominant support: weyl_dominant_weights is the support of
      weyl_dominant_part (the dominant weights are the closure's);
    - hom: hom_dim(member, seed) is 1 for every member;
    - hom near miss: for every rearrangement that forms valid segments but
      is not a member, hom_dim(near miss, seed) is 1 iff its weight is one
      of the closure's;
    - render and closed: str(cs) is the members one per line, and
      closed_members are the members that pass is_closed, in member order;
    - listing: a fresh closure's str, len, lefts (in order), closed_lefts
      and `in` agree with listed_closure, the walk closures had before,
      for a seed in plus order str and len build no lefts, and str and
      len still agree once lefts is built and after pickling
      (listing_mismatches);
    - ext and ext verdict: ext_vanishing's shared weights, for the tuple
      with itself, with its parts reversed, with up to two earlier tuples
      of the box that share a weight with it at the rank and with the
      tuple before it at the rank, are the intersection of their
      weyl_dominant_weights sorted by sort_key, and the verdict is VANISHES
      iff that is empty ("ext overlap" counts the pairs with some but not
      all weights shared, "ext equal weights" those whose own weights are
      equal, "ext vanishes" those with none shared).
    The cases also count the tuples that is_listed accepts
    ("listed": doubly sorted at rank >= span, where (b) always holds and
    closures._bounds' table is empty) and the others ("not listed"), so a
    sweep shows both were checked.
    A failure is recorded as (check, ms, rank).
    """
    cases, failures = Counter(), []

    def check(name, ok):  # reads the loop's ms and rank
        cases[name] += 1
        if not ok:
            failures.append((name, ms, rank))

    holder = {}  # (rank, weight) -> (ms, weights) of the latest tuple with it
    previous = {}  # rank -> (ms, weights) of the latest tuple at the rank
    for ms, rank in box_tuples(max_rank, window, parts):
        cases["tuples"] += 1
        cs = closure(ms, rank)
        cases["listed" if is_listed(ms, rank) else "not listed"] += 1
        weights = weyl_dominant_weights(ms, rank)
        ordered = sorted(weights, key=LWeight.sort_key)  # not the set's order
        earlier = {holder[rank, w][0]: holder[rank, w] for w in ordered
                   if (rank, w) in holder}
        pairs = [(ms, weights), (Multisegment(reversed(ms)), weights),
                 *list(earlier.values())[:2]]
        if rank in previous:
            pairs.append(previous[rank])
        for other, theirs in pairs:
            shared = sorted(weights & theirs, key=LWeight.sort_key)
            cert = ext_vanishing(ms, other, rank)
            check("ext verdict", (cert.verdict is ExtVerdict.VANISHES) == (not shared))
            check("ext", list(cert.shared_weights) == shared)
            cases["ext overlap"] += 0 < len(shared) < max(len(weights), len(theirs))
            cases["ext equal weights"] += weight_of(ms, rank) == weight_of(other, rank)
            cases["ext vanishes"] += not shared
        holder.update(((rank, w), (ms, weights)) for w in weights)
        previous[rank] = ms, weights
        check("members", set(cs.members) == move_saturate(ms, rank))
        check("render", str(cs) == "\n".join(map(str, cs.members)))
        check("closed", list(cs.closed_members)
              == [t for t in cs.members if is_closed(t, rank)])
        check("listing", listing_mismatches(ms, rank) == [])
        member_lefts = set(cs.lefts)
        for lefts in set(itertools.permutations(p.i for p in ms)):
            # plain pairs, since some rearrangements are not segments
            cand = tuple((a, p.j) for a, p in zip(lefts, ms))
            check("bounds", passes_bounds(ms, cand, rank) == (cand in cs)
                  == (lefts in member_lefts))
            if cand not in cs and all(0 <= j - a <= rank + 1 for a, j in cand):
                near = Multisegment(Segment(a, j) for a, j in cand)
                check("hom near miss", hom_dim(near, ms, rank)
                      == (weight_of(near, rank) in weights))
        check("closed elements", closed_elements(ms, rank) == cs.orbit_representatives
              == closed_elements(Multisegment(reversed(ms)), rank))
        if rank >= span(ms):
            check("one orbit", len(cs.orbit_representatives) == 1)
            reps = [s.representative for s in socle(ms, rank)]
            check("socle", reps == list(cs.orbit_representatives))
        check("dominant support", weights == set(weyl_dominant_part(ms, rank)))
        for t in cs.members:
            check("hom", hom_dim(t, ms, rank) == 1)
    return cases, failures
