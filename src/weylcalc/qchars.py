"""Snake paths and q-character multisets of fundamental and standard modules.

A path for the segment [i, j] at a given rank is a sequence
g(0), ..., g(rank + 1) with g(0) = 2j, g(rank + 1) = rank + 1 + 2i and
unit steps. Interior local minima and maxima are its corners; each
corner at position r contributes the segment
[(g(r) - r) / 2, (g(r) + r) / 2] with exponent +1 (minimum) or -1
(maximum).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from functools import reduce, wraps
from itertools import accumulate, combinations, count, repeat, starmap
from operator import add
from typing import Callable, Iterable, Mapping, Union

from .errors import InvalidSegment, PreconditionViolated
from .lweights import _RECORD, LWeight
from .multisegments import Multisegment, connected, is_doubly_sorted, weight_of
from .segments import Segment, check_valid, is_degenerate

Path = tuple[int, ...]
TermSource = Union[Mapping[LWeight, int], Iterable[tuple[LWeight, int]]]
_lib = sys.modules[__package__]  # the package: _lib.closures loads closures on first use
_SHAPES = 64  # the shapes each _translated memo keeps; a decide pass meets about 19


class QChar:
    """A finite multiset of l-weights with positive multiplicities.

    Stored ranked: `_factors` is a sorted table of distinct (Segment, e)
    factors, each used by some term except in _weight_keys' tables (below),
    and `_keys` maps each term, an ascending tuple of factor indices, to its
    multiplicity, so the keys sort as the terms' sort_keys do. The keys are
    built on first read from fundamental_qchar's `_shape` (length, ups), by
    _tails, or from _convolve's `_cols`, rows in sort_key order: `str` reads
    those forms, not the keys. The renderers render each factor once;
    LWeights are built only when asked for.
    """

    __slots__ = ("_factors", "_keymap", "_shape", "_cols")

    def __init__(self, terms: TermSource = ()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[LWeight, int] = {}
        for w, m in items:
            if not isinstance(w, LWeight):
                raise TypeError(f"expected LWeight key, got {type(w).__name__}")
            if not isinstance(m, int):
                raise TypeError(f"expected int multiplicity, got {type(m).__name__}")
            if m < 0:
                raise PreconditionViolated("multiplicities must be positive")
            if m:
                acc[w] = acc.get(w, 0) + m
        # indexing keeps the order of items, so keys sort as sort_keys do
        self._factors = sorted({f for w in acc for f in w._exp.items()})
        index = {f: r for r, f in enumerate(self._factors)}
        self._keymap = {tuple(sorted(map(index.__getitem__, w._exp.items()))): m
                        for w, m in acc.items()}
        self._shape = self._cols = None

    @classmethod
    def _of(cls, factors: list, keys, shape=None, cols=None) -> "QChar":
        q = cls.__new__(cls)
        q._factors, q._keymap, q._shape, q._cols = factors, keys, shape, cols
        return q

    def __reduce__(self):
        keys = None if self._shape or self._cols else self._keymap
        return QChar._of, (self._factors, keys, self._shape, self._cols)

    @property
    def _keys(self) -> dict:
        if self._keymap is None:  # built from the rows of a product, else by the walk
            at = range(len(self._factors))
            self._keymap = dict(zip(map(reduce, repeat(add), self._pieces(at, tuple)),
                                    self._cols[1])) if self._cols else dict.fromkeys(
                _tails(*self._shape, list(zip(at)), (), ()), 1)
        return self._keymap

    @classmethod
    def one(cls) -> "QChar":
        return cls._of([], {(): 1})

    def terms(self) -> dict[LWeight, int]:
        get = self._factors.__getitem__
        return {LWeight._wrap(dict(map(get, k))): m for k, m in self._keys.items()}

    def multiplicity(self, w: LWeight) -> int:
        index = {f: r for r, f in enumerate(self._factors)}
        try:
            key = tuple(sorted(map(index.__getitem__, w._exp.items())))
        except KeyError:
            return 0
        return self._keys.get(key, 0)

    def support(self) -> set[LWeight]:
        return set(self.terms())

    def total_mass(self) -> int:
        """Number of terms counted with multiplicity."""
        return sum(self._cols[1] if self._cols else self._keys.values())

    def dominant_part(self) -> dict[LWeight, int]:
        """Terms whose weight has no negative exponent."""
        return {w: m for w, m in self.terms().items() if w.is_dominant}

    def __mul__(self, other: "QChar") -> "QChar":
        if not isinstance(other, QChar):
            return NotImplemented
        return _convolve((self, other))

    def __len__(self) -> int:
        return len(self._cols[1] if self._cols else self._keys)  # a product's rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, QChar):
            return NotImplemented
        return self.terms() == other.terms()

    def _common(self, other: "QChar") -> set:
        """self's keys that other also has, once rewritten in self's table."""
        at = {f: r for r, f in enumerate(self._factors)}
        return self._keys.keys() & {tuple([at.get(other._factors[r]) for r in k])
                                    for k in other._keys}

    def _shared(self, keys: set) -> tuple[LWeight, ...]:
        """The weights of keys, a subset of self's (as _common gives), by sort_key."""
        get = self._factors.__getitem__
        return tuple([LWeight._wrap(dict(map(get, k))) for k in sorted(keys)])

    def _rows(self, render: Callable, join: Callable) -> list[tuple]:
        """(join of the rendered factors, multiplicity) per term, by sort_key."""
        get, keys = [render((i, j, e)) for (i, j), e in self._factors].__getitem__, self._keys
        return [(join(map(get, k)), keys[k]) for k in sorted(keys)]

    def _lines(self, fmt: str, sep: str, one: str = "1", end: str = "\n") -> str:
        """A line a term by sort_key, joined by end: factors by fmt joined by sep, or one."""
        get = [fmt % (i, j, e) for (i, j), e in self._factors].__getitem__
        return end.join([sep.join(map(get, k)) or one for k in sorted(self._keys)])

    def _pieces(self, items: list, join: Callable) -> Iterable[tuple]:
        """A product's rows in order, each a tuple of pieces, one per column:
        join of the items (items[r] for factor r) of a distinct chunk, built once."""
        cols, _, codes = self._cols
        get = dict(zip(codes, items)).__getitem__
        return zip(*[map({x: join(map(get, cs)) for x, cs in found.items()}.__getitem__,
                         chunks) for chunks, found in cols])

    def __str__(self) -> str:
        fmt = " * " + LWeight._factor
        texts = [fmt % (i, j, e) for (i, j), e in self._factors]
        if self._shape:  # fundamental_qchar's: the walk of its keys, on texts
            return "\n".join(_tails(*self._shape, texts, "1", ""))
        rows = zip(map("".join, self._pieces(texts, "".join)), self._cols[1]) \
            if self._cols else self._rows(fmt.__mod__, "".join)  # a product: one join a row
        return "\n".join([f"{m}{fs or ' * 1'}" for fs, m in rows])

    def _json(self) -> str:
        """json.dumps of {"terms": [{"weight": records, "mult": m}, ...]}: str's rows
        on the factors' records, each after ", ", which a row drops in front."""
        recs = [", " + _RECORD % (i, j, e) for (i, j), e in self._factors]
        if self._shape:  # every mult is 1: the separator ends a row and starts the next
            rows = [r[2:] for r in _tails(*self._shape, recs, "", "")]
            return '{"terms": [{"weight": [%s], "mult": 1}]}' % (
                '], "mult": 1}, {"weight": ['.join(rows))
        rows = zip(map("".join, self._pieces(recs, "".join)), self._cols[1]) \
            if self._cols else self._rows(lambda f: ", " + _RECORD % f, "".join)
        return '{"terms": [%s]}' % ", ".join(
            ['{"weight": [%s], "mult": %s}' % (fs[2:], m) for fs, m in rows])

    def __repr__(self) -> str:
        return f"QChar({len(self)} terms, mass {self.total_mass()})"


def _packed(chars) -> tuple[dict, int, list]:
    """(slots, w, terms): the chars' terms on packed exponent ints.

    slots numbers the chars' segments from the last in sorted order; terms[c]
    lists chars[c]'s terms as (sum of e << w*slot, mult), a shaped char's from
    its walk on ints (_tails), so products pack as sums. The chars' largest
    |e| sum to a bound on a product's, and w is the least of 8, 16, 32, ...
    that puts it below 2**(w-1): a product plus 2**(w-1) in each slot holds
    e + 2**(w-1) there.
    """
    slots = dict(zip(sorted({f[0] for q in chars for f in q._factors})[::-1], count()))
    bias = sum([max([abs(e) for _, e in q._factors], default=0) for q in chars])
    w = max(8, 1 << bias.bit_length().bit_length())
    ats = [[e << w * slots[s] for s, e in q._factors] for q in chars]
    return slots, w, [list(zip(_tails(*q._shape, at, 0, 0), repeat(1))) if q._shape
                      else [(sum(map(at.__getitem__, k)), m) for k, m in q._keys.items()]
                      for q, at in zip(chars, ats)]


def _fold(acc: dict, packed: list, rise: Iterable, high: int) -> dict[int, int]:
    """acc times each packed char in turn; x is kept iff x + rise[k] has all of high."""
    for terms, later in zip(packed, rise):
        nxt: dict[int, int] = {}
        get = nxt.get
        for v, m in acc.items():
            for u, n in terms:
                x = v + u
                if (x + later) & high == high:
                    nxt[x] = get(x, 0) + m * n
        acc = nxt
    return acc


def _convolve(chars, dominant: bool = False) -> QChar:
    """The product of chars, or its dominant terms: one packed convolution.

    The chars' terms are convolved on packed ints (_packed) in one k-fold
    pass. Slots start at B = 2**(w-1), so slot s ends at d = e + B. With
    dominant set, the pass is an exact branch and bound: rise[k] packs how
    far the chars from k on can still raise each exponent, the sum of their
    largest positive exponents there. A slot of x + rise[k] holds
    e + B + rise < 2B, so x survives iff every top bit (the mask high) is
    set, each e can still reach 0. rise is 0 after the last char: exactly
    the dominant terms remain, and only they decode. They sort as sort_key
    on byte keys: Knuth 7.1.3's test for zero fields sets a slot with d == B
    to all ones and any other to d - 1, and the big-endian bytes drop their
    trailing all-ones slots, so a term whose later e are all 0 is a prefix.
    Each distinct 64-bit chunk (a column of _cols) decodes once, to the
    codes (r << w) + d of its factors, r counted from the first segment.
    """
    slots, w, packed = _packed(chars)
    segs, n, per, step = list(slots)[::-1], len(slots), max(1, 64 // w), w // 8
    half, mask = 1 << w - 1, (1 << w) - 1
    ones = ((1 << w * n) - 1) // mask
    high, low, rise, need = half * ones, (half - 1) * ones, repeat(0), 0
    if dominant:  # a segment's last factor in a sorted table has its largest e
        ups = [sum([e << w * slots[s] for s, e in dict(q._factors).items() if e > 0])
               for q in chars[:0:-1]]
        rise, need = list(accumulate(ups, initial=0))[::-1], high
    acc = _fold({high: 1}, packed, rise, need)
    bykey = {(v + low - ((((z := v ^ high) & low) + low | z) & high))  # z: 0 where d == B
             .to_bytes(step * n, "big").rstrip(b"\xff"): m for v, m in acc.items()}
    if step > 1:  # a slot's own trailing 0xff bytes come back
        bykey = {k + b"\xff" * (-len(k) % step): m for k, m in bykey.items()}
    keys, cols, wide = sorted(bykey), [], per * step
    for lo in range(0, step * n or 1, wide):
        span = min(wide, step * n - lo)
        at = [(lo // step + t << w, w * (span // step - 1 - t)) for t in range(span // step)]
        chunks = [k[lo:lo + wide] for k in keys]
        cols.append((chunks, {x: [r + u + 1 for r, t in at if (u := y >> t & mask) != mask]
                              for x in set(chunks)
                              for y in (int.from_bytes(x.ljust(span, b"\xff"), "big"),)}))
    used = sorted({c for _, found in cols for cs in found.values() for c in cs})
    return QChar._of([(segs[c >> w], (c & mask) - half) for c in used], None, None,
                     (cols, list(map(bykey.__getitem__, keys)), used))


def enumerate_paths(seg: Segment, rank: int) -> list[Path]:
    """All paths for the segment, ordered by their descent positions.

    A path takes rank + 1 unit steps from 2j down to rank + 1 + 2i,
    so it has exactly j - i down-steps; choosing their positions
    enumerates the full family.
    """
    check_valid(seg, rank)
    steps = rank + 1
    start = 2 * seg.j
    out: list[Path] = []
    for downs in combinations(range(steps), seg.length):
        down_set = set(downs)
        g = [start]
        for t in range(steps):
            g.append(g[-1] - 1 if t in down_set else g[-1] + 1)
        out.append(tuple(g))
    return out


def corners(g: Path) -> tuple[list[Segment], list[Segment]]:
    """Interior minima and maxima with their attached segments.

    Returns (plus, minus): plus collects local minima, minus local
    maxima. g(r) - r is even at every corner, so the division is exact.
    """
    n = len(g) - 2
    plus: list[Segment] = []
    minus: list[Segment] = []
    for r in range(1, n + 1):
        if g[r - 1] == g[r] + 1 == g[r + 1]:
            plus.append(Segment((g[r] - r) // 2, (g[r] + r) // 2))
        elif g[r - 1] == g[r] - 1 == g[r + 1]:
            minus.append(Segment((g[r] - r) // 2, (g[r] + r) // 2))
    return plus, minus


def path_weight(g: Path, rank: int) -> LWeight:
    """Product of corner generators, minima direct and maxima inverted.

    The corner at position r has length r with 1 <= r <= rank, so the
    corners are distinct and none of them is degenerate.
    """
    plus, minus = corners(g)
    return LWeight({**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1)})


def _tails(length: int, ups: int, at: list, head, empty) -> list:
    """fundamental_qchar's paths in key order, at[r] standing for factor r.

    add joins head, the pieces and the empty tail: (), 1-tuples and () give
    the keys, "1", texts " * w[i,j]^e" and "" str's rows, 0, ints and 0 sums.
    """
    last = ups * (2 * length - 1) - 1
    # tails[u]: ends, ascending, of the paths whose latest down placed has u ups
    tails = [[empty]] + [[at[last + u]] for u in range(1, ups + 1)]
    for k in range(1, length):
        b = ups * (2 * (length - k) - 1)
        nxt: list[list] = [[] for _ in tails]
        for u, rows in enumerate(nxt):
            for v in range(u):  # the minimum, the maximum
                rows += map(add, repeat(at[b + 2 * v] + at[b + 2 * u - 1]), tails[v])
            rows += tails[u]
        tails = nxt
    rows = []
    for u in range(ups):
        rows += map(add, repeat(head + at[u]), tails[u])
    rows += map(add, repeat(head), tails[ups])
    return rows


def fundamental_qchar(seg: Segment, rank: int) -> QChar:
    """Multiset of path weights for a non-degenerate segment: its table and shape.

    With L = j - i downs and U = rank + 1 - L ups, a path is the weakly
    increasing sequence u_0 <= ... <= u_(L-1) in [0, U] of the ups before
    each down, and its corner after d downs and u ups is the segment
    [j-d, j+u]. A run of downs starting at down k > 0 gives the minimum
    after (k, u_(k-1)) and the maximum after (k, u_k); the first run gives
    the maximum after (0, u_0) if u_0 > 0, and the last run ends in the
    minimum after (L, u_(L-1)) if u_(L-1) < U. The table lists these
    corners in sorted order, each used by some path: the minima with u < U
    at d = L (index u); for 0 < d < L, with b = U(2(L-d) - 1), the maximum
    for u > 0 (index b + 2u - 1) and the minimum for u < U (index b + 2u);
    the maxima with u > 0 at d = 0 (index U(2L-1) - 1 + u). So a key lists
    the corners from the last down back to the first. _tails builds the keys
    from the back, one down at a time from the first, sharing their ends
    between paths; a down's indices, put in front, are below all placed so
    far, so the keys come out ascending. No walk is taken here: `_keys`
    takes it on first read, `str` on the factors' texts (no join per term)
    and _packed on packed ints. Distinct paths have distinct weights.
    """
    if not 1 <= seg.length <= rank:
        raise InvalidSegment(
            f"fundamental character needs 1 <= length <= rank, got {seg}"
            f" at rank {rank}"
        )
    (i, j), length, ups = seg, seg.length, rank + 1 - seg.length  # corners are valid
    factors = [(tuple.__new__(Segment, (i + a, j + u)), e) for a in range(length + 1)
               for u in range(ups + 1) for e in (-1, 1)
               if ((0 < a and 0 < u) if e < 0 else (a < length and u < ups))]
    return QChar._of(factors, None, (length, ups))


def weyl_qchar(ms: Multisegment, rank: int) -> QChar:
    """Product of the fundamental characters of the non-degenerate parts."""
    for p in ms:
        check_valid(p, rank)
    chars = [fundamental_qchar(p, rank) for p in ms if not is_degenerate(p, rank)]
    return _convolve(chars) if len(chars) > 1 else chars[0] if chars else QChar.one()


def _translated(search: Callable) -> Callable:
    """search memoized up to translation: shifting the parts by d shifts the
    table by d in order, so the keys and _cols stand. A miss runs search on
    the caller's tuple (an invalid part raises as uncached) and keeps its
    fields by the parts less their least left endpoint, and the rank; a hit
    shifts the table back, into a new QChar. The oldest of _SHAPES goes first."""
    @wraps(search)
    def memoized(ms: Multisegment, rank: int) -> QChar:
        d = min(ms, default=(0,))[0]  # segments sort by left endpoint first
        key = tuple([(i - d, j - d) for i, j in ms]), rank
        if (hit := memo.get(key)) is None:
            if len(memo) >= _SHAPES:  # list() and pop(k, None) hold across threads
                memo.pop(next(iter(list(memo)), None), None)
            memo[key] = d, (q := search(ms, rank))._factors, q._keymap, q._shape, q._cols
            return q
        at, factors, *fields = hit
        return QChar._of([(tuple.__new__(Segment, (i + d - at, j + d - at)), e)
                          for (i, j), e in factors] if d != at else factors, *fields)
    memo = memoized.memo = {}
    return memoized


@_translated
def _dominant(ms: Multisegment, rank: int) -> QChar:
    """weyl_qchar(ms, rank)'s dominant terms, without the full product."""
    for p in ms:
        check_valid(p, rank)
    # The product commutes; taking parts with the highest centre i + j
    # first makes partial products fail sooner.
    chars = [fundamental_qchar(p, rank) for p in sorted(
        (p for p in ms if not is_degenerate(p, rank)), key=lambda p: -(p.i + p.j))]
    return _convolve(chars, dominant=True) if chars else QChar.one()


@_translated
def _weight_keys(seed: Multisegment, rank: int) -> QChar:
    """The weights of closure(seed)'s members, each once, as a ranked QChar.

    The table lists the (segment, e) a member can hold, sorted: the seed's
    non-degenerate (left, j) pairs, e up to the copies of both; at[left, j]
    is (its e = 1 index,). A key, mapped to 1, is a weight's ascending indices.
    A plus-sorted seed's members are the matchings of lefts to js with (a)
    and (b) (_left_closure), so none is built: by decreasing v, the c copies
    of a left v take c unused js in [v, v + rank + 1]. Keys sharing a set of
    used js get v's piece, the index of (v, j, m) per j taken m times, in
    front in bulk, so they come out ascending. (b) caps the lefts >= v that
    the t largest js may hold, at each t of closures._bounds' table.
    """
    for p in seed:
        check_valid(p, rank)
    ls, js = map(sorted, zip(*seed))
    vs, ws, n = dict.fromkeys(ls), dict.fromkeys(js), len(js)
    pairs = [(i, j) for i in vs for j in ws if 0 < j - i <= rank]
    at = {p: (r,) for r, p in enumerate(pairs)}
    factors = list(zip(map(tuple.__new__, repeat(Segment), pairs), repeat(1)))
    if len(vs) < n > len(ws):  # a pair may be held more than once
        factors = sorted(factors + [(s, e) for s, _ in factors for e in
                                    range(2, min(ls.count(s[0]), js.count(s[1])) + 1)])
        at = {s: (r,) for r, (s, e) in enumerate(factors) if e == 1}
    bounds = _lib.closures._bounds(*zip(*seed))
    caps = {v: [((1 << t) - 1 << n - t, k) for t, b in bounds.items()
                if (k := t - bisect_left(b, v)) < min(t, n - bisect_left(ls, v))]
            for v in vs} if bounds else {}  # (mask of the t largest js, k) that bind
    groups = {0: [()]}  # keys by mask of used js; equal js are taken lowest first
    for v in reversed(vs):
        opts = [(1 << x, 1 << x - 1 if x and js[x - 1] == j else 0, at.get((v, j), ()))
                for x, j in enumerate(js) if 0 <= j - v <= rank + 1]
        if (c := ls.count(v)) > 1:  # c at once; a pair taken m times has e = m
            opts = [(sum(b), sum(t) & ~sum(b), tuple([r + m - 1 for r, m in
                     Counter(sum(p, ())).items()])) for b, t, p in
                    starmap(zip, combinations(opts, c))]
        nxt: dict[int, list] = {}
        for mask, keys in groups.items():
            for b, t, piece in opts:
                if mask & (b | t) == t:
                    nxt.setdefault(mask | b, []).extend(map(add, repeat(piece), keys))
        groups = {m: keys for m, keys in nxt.items() if all(
            (m & top).bit_count() <= k for top, k in caps[v])} if caps.get(v) else nxt
    return QChar._of(factors, dict.fromkeys(groups[(1 << n) - 1], 1))


def weyl_dominant_part(ms: Multisegment, rank: int) -> dict[LWeight, int]:
    """weyl_qchar(ms, rank).dominant_part(), by the pruned search of _convolve."""
    return _dominant(ms, rank).terms()


def pair_simple_qchar(ms: Multisegment, rank: int) -> QChar:
    """Simple-module character of a connected ordered pair.

    Restricts the product of path families to strictly non-crossing
    pairs: g1 stays strictly above g2 at every position. Requires a
    two-part tuple with weakly decreasing right endpoints whose parts
    are connected.
    """
    if len(ms) != 2:
        raise PreconditionViolated("pair_simple_qchar needs exactly two parts")
    a, b = ms
    if a.j < b.j:
        raise PreconditionViolated(
            "pair_simple_qchar needs weakly decreasing right endpoints"
        )
    if not connected(a, b, rank):
        raise PreconditionViolated("pair_simple_qchar needs a connected pair")
    paths_a = [(g, path_weight(g, rank)) for g in enumerate_paths(a, rank)]
    paths_b = [(g, path_weight(g, rank)) for g in enumerate_paths(b, rank)]
    acc: dict[LWeight, int] = {}
    for g1, w1 in paths_a:
        for g2, w2 in paths_b:
            if all(x > y for x, y in zip(g1, g2)):
                w = w1 * w2
                acc[w] = acc.get(w, 0) + 1
    return QChar(acc)


def soclehom_weight(ms: Multisegment, rank: int) -> LWeight:
    """The weight picking out the one-dimensional Hom space of a closure.

    For a doubly sorted tuple this is the product over parts of
    w[i_s, j_1 + 1] * w[j_s, j_1 + 1]^-1, with degenerate factors
    collapsing at the given rank.
    """
    if not is_doubly_sorted(ms):
        raise PreconditionViolated("soclehom_weight needs a doubly sorted tuple")
    top = ms[0].j + 1
    lefts, rights = (Multisegment(Segment(e, top) for e in ends) for ends in zip(*ms))
    return weight_of(lefts, rank) * weight_of(rights, rank).inverse()
