"""Saturation of a multisegment under crossing moves and equal-j swaps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import PreconditionViolated
from .multisegments import (
    Multisegment,
    connected,
    crosses,
    in_plus_order,
    is_doubly_sorted,
    span,
    sort_plus,
)
from .segments import Segment, check_valid


@dataclass(frozen=True)
class ClosureSet:
    """The saturation of a seed tuple at a fixed rank.

    members are sorted lexicographically; closed_members is the subset
    with no connected pair; orbit_representatives are the distinct
    sort_plus forms of the closed members, sorted.
    """

    rank: int
    seed: Multisegment
    members: tuple[Multisegment, ...]
    closed_members: tuple[Multisegment, ...]
    orbit_representatives: tuple[Multisegment, ...]

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, ms) -> bool:
        return ms in self._member_set

    def __len__(self) -> int:
        return len(self.members)


def is_closed(ms: Multisegment, rank: int) -> bool:
    """No pair of parts is connected; such tuples admit no crossing move."""
    for p in ms:
        check_valid(p, rank)
    return not any(connected(a, b, rank) for a, b in combinations(ms, 2))


def closure(ms: Multisegment, rank: int) -> ClosureSet:
    """Saturation under all crossing moves and equal-j swaps.

    Both moves exchange the left endpoints of two parts and leave every
    right endpoint in place: tau_{m,l} when the parts are connected, a
    swap when j_m == j_l. So the search runs over tuples of left
    endpoints set against the seed's fixed right endpoints; every state
    is a permutation of the seed's left endpoints, which bounds the
    search, and members sort exactly as their left tuples do.
    """
    seed = ms if isinstance(ms, Multisegment) else Multisegment(ms)
    for p in seed:
        check_valid(p, rank)
    js = tuple(p.j for p in seed)
    r = len(seed)
    pairs = [
        (m, l, js[m], js[l]) for m in range(r) for l in range(m + 1, r)
    ]
    start = tuple(p.i for p in seed)
    seen = {start}
    order = [start]
    closed = set()
    for cur in order:  # breadth first: order grows while it is walked
        crossed = False
        for m, l, jm, jl in pairs:
            im, il = cur[m], cur[l]
            if jm != jl:
                if not crosses(im, jm, il, jl, rank):
                    continue
                crossed = True
            elif im == il:
                continue
            nxt = list(cur)
            nxt[m], nxt[l] = il, im
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
        if not crossed:
            closed.add(cur)

    # A move keeps every part valid (a connected pair's union spans at most
    # rank + 1), so members skip Multisegment's part check and share one
    # Segment per (i, j).
    segs = {(i, j): Segment(i, j) for i in set(start) for j in set(js) if i <= j}
    lefts = sorted(seen)
    members = tuple(
        tuple.__new__(Multisegment, [segs[p] for p in zip(a, js)]) for a in lefts
    )
    closed_members = tuple(t for t, a in zip(members, lefts) if a in closed)
    reps = tuple(sorted({sort_plus(t) for t in closed_members}))
    return ClosureSet(rank, seed, members, closed_members, reps)


def closed_elements(ms: Multisegment, rank: int) -> tuple[Multisegment, ...]:
    """Closed members of the closure, one sort_plus representative per orbit."""
    return closure(ms, rank).orbit_representatives


def canonical_closed(ms: Multisegment, rank: int) -> Multisegment:
    """The closed element reachable from a doubly sorted tuple.

    Assigns to each position p (taken from r down to 1) the smallest
    unused source position s with i_s <= j_p, then pairs that left
    endpoint with j_p. Requires rank >= span(ms) and both endpoint
    sequences weakly decreasing.
    """
    r = len(ms)
    if not is_doubly_sorted(ms):
        raise PreconditionViolated("canonical_closed needs a doubly sorted tuple")
    if rank < span(ms):
        raise PreconditionViolated(
            f"canonical_closed needs rank >= span = {span(ms)}, got {rank}"
        )
    sigma: dict[int, int] = {}
    used: set[int] = set()
    for p in range(r, 0, -1):
        s = min(
            s for s in range(1, r + 1) if s not in used and ms[s - 1].i <= ms[p - 1].j
        )
        sigma[p] = s
        used.add(s)
    return Multisegment(
        Segment(ms[sigma[p] - 1].i, ms[p - 1].j) for p in range(1, r + 1)
    )


def dominant_ancestor(ms: Multisegment, rank: int) -> Multisegment:
    """A tuple whose closure contains ms, with the same right endpoints.

    Peeling the minimal left endpoint and re-splicing, applied
    recursively, amounts to sorting the left endpoints descending
    against the unchanged right-endpoint sequence; pairing is valid
    because right endpoints weakly decrease. Requires ms in plus order
    and rank >= span(ms).
    """
    if not in_plus_order(ms):
        raise PreconditionViolated(
            "dominant_ancestor needs weakly decreasing right endpoints"
        )
    if rank < span(ms):
        raise PreconditionViolated(
            f"dominant_ancestor needs rank >= span = {span(ms)}, got {rank}"
        )
    lefts = sorted((p.i for p in ms), reverse=True)
    return Multisegment(Segment(a, p.j) for a, p in zip(lefts, ms))
