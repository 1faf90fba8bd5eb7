"""Snake paths and q-character multisets of fundamental and standard modules.

A path for the segment [i, j] at a given rank is a sequence
g(0), ..., g(rank + 1) with g(0) = 2j, g(rank + 1) = rank + 1 + 2i and
unit steps. Interior local minima and maxima are its corners; each
corner at position r contributes the segment
[(g(r) - r) / 2, (g(r) + r) / 2] with exponent +1 (minimum) or -1
(maximum).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping, Union

from .errors import InvalidSegment, PreconditionViolated
from .lweights import LWeight, _ranked, lweight_of_segment
from .multisegments import Multisegment, connected, is_doubly_sorted
from .segments import Segment, check_valid, is_degenerate

Path = tuple[int, ...]
TermSource = Union[Mapping[LWeight, int], Iterable[tuple[LWeight, int]]]


class QChar:
    """A finite multiset of l-weights with positive multiplicities.

    `str` lists the terms by sort_key, rendered from one table of their
    distinct factors (lweights._ranked).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermSource = ()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[LWeight, int] = {}
        for w, m in items:
            if m < 0:
                raise PreconditionViolated("multiplicities must be positive")
            if m:
                acc[w] = acc.get(w, 0) + m
        self._terms = acc

    @classmethod
    def one(cls) -> "QChar":
        return cls({LWeight.identity(): 1})

    def terms(self) -> dict[LWeight, int]:
        return dict(self._terms)

    def multiplicity(self, w: LWeight) -> int:
        return self._terms.get(w, 0)

    def support(self) -> set[LWeight]:
        return set(self._terms)

    def total_mass(self) -> int:
        """Number of terms counted with multiplicity."""
        return sum(self._terms.values())

    def dominant_part(self) -> dict[LWeight, int]:
        """Terms whose weight has no negative exponent."""
        return {w: m for w, m in self._terms.items() if w.is_dominant}

    def __mul__(self, other: "QChar") -> "QChar":
        if not isinstance(other, QChar):
            return NotImplemented
        acc: dict[LWeight, int] = {}
        for wa, ma in self._terms.items():
            for wb, mb in other._terms.items():
                w = wa * wb
                acc[w] = acc.get(w, 0) + ma * mb
        out = QChar.__new__(QChar)
        out._terms = acc
        return out

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QChar):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self) -> str:
        lines = _ranked(self._terms, LWeight._factor.__mod__)
        return "\n".join([f"{m} * {' * '.join(fs) or '1'}" for fs, m in lines])

    def __repr__(self) -> str:
        return f"QChar({len(self._terms)} terms, mass {self.total_mass()})"


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
    exp = dict.fromkeys(plus, 1)
    exp.update(dict.fromkeys(minus, -1))
    return LWeight(exp)


def fundamental_qchar(seg: Segment, rank: int) -> QChar:
    """Multiset of path weights for a non-degenerate segment.

    Corners are read from the down-step positions: a maximal run of downs
    that starts at step a > 0 after k downs is the maximum [j-k, j+a-k]^-1,
    and one that ends at step b < rank after d downs, its own counted, is
    the minimum [j-d, j+b+1-d]^+1.
    """
    if not 1 <= seg.length <= rank:
        raise InvalidSegment(
            f"fundamental character needs 1 <= length <= rank, got {seg}"
            f" at rank {rank}"
        )
    j, length = seg.j, seg.length
    # corner[d][r]: the segment of the corner at position r after d downs
    corner = [[Segment(j - d, j - d + r) for r in range(rank + 1)]
              for d in range(length + 1)]
    acc: dict[LWeight, int] = {}
    for downs in combinations(range(rank + 1), length):
        exp: dict[Segment, int] = {}
        prev = -2
        for d, t in enumerate(downs):
            if t != prev + 1:  # a run starts at t; the one before ended at prev
                if prev >= 0:
                    exp[corner[d][prev + 1]] = 1
                if t:
                    exp[corner[d][t]] = -1
            prev = t
        if prev < rank:
            exp[corner[length][prev + 1]] = 1
        w = LWeight._wrap(exp)
        acc[w] = acc.get(w, 0) + 1
    out = QChar.__new__(QChar)
    out._terms = acc
    return out


def weyl_qchar(ms: Multisegment, rank: int) -> QChar:
    """Convolution of the fundamental characters of the non-degenerate parts."""
    q = None
    for p in ms:
        check_valid(p, rank)
        if not is_degenerate(p, rank):
            f = fundamental_qchar(p, rank)
            q = f if q is None else q * f
    return QChar.one() if q is None else q


def _tops(terms: Mapping[LWeight, int]) -> Counter:
    """Per segment, the largest positive exponent among the terms' weights."""
    top: Counter = Counter()
    for w in terms:
        for seg, e in w._exp.items():
            if e > top[seg]:
                top[seg] = e
    return top


def weyl_dominant_part(ms: Multisegment, rank: int) -> dict[LWeight, int]:
    """weyl_qchar(ms, rank).dominant_part(), without the full product.

    An exact branch and bound over the fundamental characters of the
    non-degenerate parts, convolved one factor at a time with equal
    partial products merged. rise[k] is how far the factors from k on
    can still raise each exponent: the sum of the largest positive
    exponent each of them has there. A partial product is dropped as
    soon as one of its negative exponents can no longer reach 0. rise is
    empty after the last factor, so exactly the dominant terms remain.
    """
    for p in ms:
        check_valid(p, rank)
    # The product commutes; taking parts with the highest centre i + j
    # first makes partial products fail sooner.
    parts = sorted(
        (p for p in ms if not is_degenerate(p, rank)), key=lambda p: -(p.i + p.j)
    )
    factors = [fundamental_qchar(p, rank).terms() for p in parts]
    rise = [Counter()]
    for terms in reversed(factors):
        rise.append(rise[-1] + _tops(terms))
    rise.reverse()

    cur = {LWeight.identity(): 1}
    for k, terms in enumerate(factors):
        later = rise[k + 1]
        nxt: dict[LWeight, int] = {}
        for wa, ma in cur.items():
            for wb, mb in terms.items():
                w = wa * wb
                for seg, e in w._exp.items():
                    if e < 0 and e + later.get(seg, 0) < 0:
                        break
                else:
                    nxt[w] = nxt.get(w, 0) + ma * mb
        cur = nxt
    return cur


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
    out = QChar.__new__(QChar)
    out._terms = acc
    return out


def soclehom_weight(ms: Multisegment, rank: int) -> LWeight:
    """The weight picking out the one-dimensional Hom space of a closure.

    For a doubly sorted tuple this is the product over parts of
    w[i_s, j_1 + 1] * w[j_s, j_1 + 1]^-1, with degenerate factors
    collapsing at the given rank.
    """
    if not is_doubly_sorted(ms):
        raise PreconditionViolated("soclehom_weight needs a doubly sorted tuple")
    top = ms[0].j + 1
    w = LWeight.identity()
    for p in ms:
        w = w * lweight_of_segment(Segment(p.i, top), rank)
        w = w * lweight_of_segment(Segment(p.j, top), rank).inverse()
    return w
