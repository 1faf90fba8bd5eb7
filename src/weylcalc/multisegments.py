"""Ordered tuples of segments and the crossing calculus on them.

Part order matters everywhere: permutations of the same parts are
distinct multisegments. Part indices in the public API are 1-based.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import IndexOutOfRange, PreconditionViolated
from .lweights import LWeight
from .segments import Segment, check_valid, is_degenerate


class Multisegment(tuple):
    """A nonempty tuple of segments, compared lexicographically."""

    def __new__(cls, parts: Iterable[Segment]):
        parts = tuple(parts)
        if not parts:
            raise PreconditionViolated("a multisegment needs at least one part")
        for p in parts:
            if not isinstance(p, Segment):
                raise TypeError(f"expected Segment part, got {type(p).__name__}")
        return super().__new__(cls, parts)

    def __str__(self) -> str:
        return "".join(str(p) for p in self)

    def __repr__(self) -> str:
        return f"Multisegment({self})"

    def _json(self) -> str:
        """json.dumps of the parts: [[i, j], ...]."""
        return "[%s]" % ", ".join(["[%s, %s]" % p for p in self])


def weight_of(ms: Multisegment, rank: int) -> LWeight:
    """Product of the part generators, degenerate parts dropping out."""
    for p in ms:
        check_valid(p, rank)
    return LWeight((p, 1) for p in ms if not is_degenerate(p, rank))


def connected(a: Segment, b: Segment, rank: int) -> bool:
    """Whether two segments cross properly within the rank's reach.

    Name the pair so that j_h > j_k. Then h and k are connected iff their
    left endpoints fall in the window j_h - rank - 1 <= i_k < i_h <= j_k:
    k starts first, h starts before k ends, and the union [i_k, j_h]
    spans at most rank + 1. Parts with equal j are never connected.
    Symmetric and invariant under simultaneous translation.
    """
    h, k = (b, a) if a.j < b.j else (a, b)
    return h.j - rank - 1 <= k.i < h.i <= k.j < h.j


def _check_index(r: int, p: int, name: str = "index") -> None:
    if not 1 <= p <= r:
        raise IndexOutOfRange(f"{name} {p} outside 1..{r}")


def tau(ms: Multisegment, m: int, l: int, rank: int) -> Optional[Multisegment]:
    """Crossing move on parts m < l; None encodes the zero result.

    When the parts are connected, part m becomes [i_l, j_m] and part l
    becomes [i_m, j_l]; everything else stays in place. Right endpoints
    therefore never move between positions.
    """
    r = len(ms)
    _check_index(r, m, "m")
    _check_index(r, l, "l")
    if not m < l:
        raise IndexOutOfRange(f"need m < l, got ({m},{l})")
    pm, pl = ms[m - 1], ms[l - 1]
    if not connected(pm, pl, rank):
        return None
    parts = list(ms)
    parts[m - 1] = Segment(pl.i, pm.j)
    parts[l - 1] = Segment(pm.i, pl.j)
    return Multisegment(parts)


def tau_word(
    ms: Optional[Multisegment], ops: Iterable[tuple[int, int]], rank: int
) -> Optional[Multisegment]:
    """Apply crossing moves left to right, with None absorbing."""
    for m, l in ops:
        if ms is None:
            return None
        ms = tau(ms, m, l, rank)
    return ms


def swap(ms: Multisegment, m: int, l: int) -> Multisegment:
    """Transpose parts m and l."""
    r = len(ms)
    _check_index(r, m, "m")
    _check_index(r, l, "l")
    parts = list(ms)
    parts[m - 1], parts[l - 1] = parts[l - 1], parts[m - 1]
    return Multisegment(parts)


def sort_plus(ms: Multisegment) -> Multisegment:
    """Right endpoints weakly decreasing, ties by left endpoint decreasing."""
    return Multisegment(sorted(ms, key=lambda p: (-p.j, -p.i)))


def sort_minus(ms: Multisegment) -> Multisegment:
    """Right endpoints weakly increasing, ties by left endpoint increasing."""
    return Multisegment(sorted(ms, key=lambda p: (p.j, p.i)))


def in_plus_order(ms: Multisegment) -> bool:
    """Right endpoints weakly decreasing."""
    return all(ms[s].j >= ms[s + 1].j for s in range(len(ms) - 1))


def in_minus_order(ms: Multisegment) -> bool:
    """Right endpoints weakly increasing."""
    return all(ms[s].j <= ms[s + 1].j for s in range(len(ms) - 1))


def is_doubly_sorted(ms: Multisegment) -> bool:
    """Both endpoint sequences weakly decreasing."""
    return all(
        ms[s].i >= ms[s + 1].i and ms[s].j >= ms[s + 1].j
        for s in range(len(ms) - 1)
    )


def span(ms: Multisegment) -> int:
    """max j - min i - 1; the smallest rank whose reach covers the tuple."""
    return max(p.j for p in ms) - min(p.i for p in ms) - 1


def dual_right(ms: Multisegment, rank: int) -> Multisegment:
    """[i, j] -> [j, rank + 1 + i] partwise."""
    for p in ms:
        check_valid(p, rank)
    return Multisegment(Segment(p.j, rank + 1 + p.i) for p in ms)


def dual_left(ms: Multisegment, rank: int) -> Multisegment:
    """[i, j] -> [j - rank - 1, i] partwise; inverse of dual_right."""
    for p in ms:
        check_valid(p, rank)
    return Multisegment(Segment(p.j - rank - 1, p.i) for p in ms)


def iota_plus(a: Segment, b: Segment, rank: int) -> tuple[Segment, Segment]:
    """Ordering move toward decreasing right endpoints.

    Keeps an already ordered pair, swaps a non-connected unordered pair,
    and crosses a connected one into ([i1, j2], [i2, j1]).
    """
    if b.j <= a.j:
        return (a, b)
    if connected(a, b, rank):
        return (Segment(a.i, b.j), Segment(b.i, a.j))
    return (b, a)


def iota_minus(a: Segment, b: Segment, rank: int) -> tuple[Segment, Segment]:
    """Mirror of iota_plus, toward increasing right endpoints."""
    if a.j <= b.j:
        return (a, b)
    if connected(a, b, rank):
        return (Segment(a.i, b.j), Segment(b.i, a.j))
    return (b, a)


def iota_at(ms: Multisegment, p: int, sign: int, rank: int) -> Multisegment:
    """Apply the sign's ordering move to the window (p, p+1), 1-based.

    Every part must be valid at the rank, as in weight_of.
    """
    r = len(ms)
    if not 1 <= p <= r - 1:
        raise IndexOutOfRange(f"window index {p} outside 1..{r - 1}")
    if sign not in (1, -1):
        raise PreconditionViolated(f"sign must be +1 or -1, got {sign}")
    for q in ms:
        check_valid(q, rank)
    move = iota_plus if sign == 1 else iota_minus
    na, nb = move(ms[p - 1], ms[p], rank)
    parts = list(ms)
    parts[p - 1], parts[p] = na, nb
    return Multisegment(parts)


def normal_form(ms: Multisegment, sign: int, rank: int) -> Multisegment:
    """Full ordering pass: the composite of window moves, rightmost first.

    The word is (iota_{r-1} ... iota_1)(iota_{r-1} ... iota_2) ...
    (iota_{r-1}), each inner block applied left to right after the
    blocks to its right. The result lies in the sign's sorted family.
    Every part must be valid at the rank, as in weight_of.
    """
    for q in ms:
        check_valid(q, rank)
    if sign not in (1, -1):
        raise PreconditionViolated(f"sign must be +1 or -1, got {sign}")
    move = iota_plus if sign == 1 else iota_minus
    parts = list(ms)
    r = len(parts)
    for k in range(r - 1, 0, -1):
        for p in range(k, r):
            parts[p - 1], parts[p] = move(parts[p - 1], parts[p], rank)
    return Multisegment(parts)
