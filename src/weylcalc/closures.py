"""Saturation of a multisegment under crossing moves and equal-j swaps."""

from __future__ import annotations

from bisect import insort
from collections import Counter
from functools import cached_property
from itertools import combinations, permutations
from operator import ge

from .errors import PreconditionViolated
from .multisegments import (
    Multisegment,
    connected,
    in_plus_order,
    is_doubly_sorted,
    span,
    sort_plus,
)
from .segments import Segment, check_valid


class _Record:
    """A frozen dataclass's repr, ==, hash and pickle over __match_args__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # pickle and copy rebuild from the positional fields
        return type(self), self._values()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class ClosureSet(_Record):
    """The saturation of a seed tuple at a fixed rank.

    Every member sets a permutation of the seed's left endpoints against
    its right endpoints js, so the closure is held as left tuples: lefts
    sorted (the members' lexicographic order). closed_lefts, those with no
    connected pair, are the lefts that hit no pair's window of _windows.
    closed_lefts, members, closed_members and orbit_representatives (the
    distinct sort_plus forms of the closed members, sorted) are built on
    first use. len needs none of them, nor does str, which formats each
    (left, j) piece once and joins the rows column by column; pickle keeps
    only the four fields.
    """

    __match_args__ = ("rank", "seed", "js", "lefts")

    def __init__(self, rank, seed, js, lefts):
        self.__dict__.update(rank=rank, seed=seed, js=js, lefts=lefts)

    def _build(self, lefts) -> tuple[Multisegment, ...]:
        # One shared Segment per (left, j) pair. A move keeps every part valid
        # (a connected pair's union spans at most rank + 1), so members skip
        # Multisegment's part check.
        segs = {(i, j): Segment(i, j) for i in set(self.lefts[0]) for j in set(self.js)
                if i <= j}
        return tuple(
            tuple.__new__(Multisegment, [segs[p] for p in zip(a, self.js)])
            for a in lefts
        )

    @cached_property
    def closed_lefts(self) -> tuple[tuple[int, ...], ...]:
        keep = self.lefts
        for h, k, lo, hi in _windows(self.js, self.rank)[0]:
            keep = [a for a in keep if not lo <= a[k] < a[h] <= hi]
        return tuple(keep)

    @cached_property
    def members(self) -> tuple[Multisegment, ...]:
        return self._build(self.lefts)

    @cached_property
    def closed_members(self) -> tuple[Multisegment, ...]:
        return self._build(self.closed_lefts)

    @cached_property
    def orbit_representatives(self) -> tuple[Multisegment, ...]:
        return tuple(sorted({sort_plus(t) for t in self.closed_members}))

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, ms) -> bool:
        return ms in self._member_set

    def __len__(self) -> int:
        return len(self.lefts)

    def __str__(self) -> str:
        vs = set(self.lefts[0])  # every member's lefts are these, permuted
        cols = [map({v: f"[{v},{j}]" for v in vs}.__getitem__, col)
                for col, j in zip(zip(*self.lefts), self.js)]
        return "\n".join(map("".join, zip(*cols)))


def is_closed(ms: Multisegment, rank: int) -> bool:
    """No pair of parts is connected; such tuples admit no crossing move."""
    for p in ms:
        check_valid(p, rank)
    return not any(connected(a, b, rank) for a, b in combinations(ms, 2))


def _windows(js, rank):
    """(windows, ties) of the pairs of parts with right endpoints js.

    A pair h, k with j_h > j_k crosses iff its left endpoints fall in the
    window j_h - rank - 1 <= i_k < i_h <= j_k (see connected), listed as
    (h, k, j_h - rank - 1, j_k); a pair whose js are rank + 1 or more
    apart never does. ties are the pairs with equal j. A state is closed
    iff it hits no window; its moves are the windows it hits and the ties.
    """
    windows, ties = [], []
    for m, l in combinations(range(len(js)), 2):
        h, k = (m, l) if js[m] > js[l] else (l, m)
        if js[m] == js[l]:
            ties.append((m, l))
        elif js[h] - js[k] <= rank:
            windows.append((h, k, js[h] - rank - 1, js[k]))
    return windows, ties


def _listed(seed: Multisegment, rank: int) -> bool:
    """Whether _left_closure lists seed's closure: doubly sorted, rank >= span."""
    return seed[0][1] - seed[-1][0] <= rank + 1 and is_doubly_sorted(seed)


def _left_closure(seed: Multisegment, rank: int):
    """(js, left tuples) of the closure.

    Both moves swap the left endpoints of two parts: tau_{m,l} when they
    are connected, a swap when j_m == j_l. So every state is a permutation
    A of the seed's left endpoints set against its fixed right endpoints.

    If the seed is doubly sorted and rank >= span, the closure is every A
    with A_k <= j_k for all k. Moves keep parts valid, and [A_k, j_k] is
    valid iff A_k <= j_k, as j_k - A_k <= max j - min i <= rank + 1.
    Conversely, if j_h > j_k and A_h < A_k, swapping the pair gives a valid
    B, and B -> A is the crossing move on h, k: its window j_h - rank - 1
    <= A_h < A_k <= j_k holds, as min i >= max j - rank - 1. Sum A_k * j_k
    rises from A to B, so such swaps end at an A with no such pair, which
    equal-j swaps reach from the seed. So no search: positions take, by
    increasing j, any distinct unused left endpoint <= j (never none, the
    seed being valid); once the unused ones are distinct and <= the next
    j, each of their orders completes a member.

    Any other seed is searched breadth first; see _windows.
    """
    for p in seed:
        check_valid(p, rank)
    start, js = zip(*seed)
    if _listed(seed, rank):
        out = []
        level = [((), start[::-1])]  # (suffix, unused lefts ascending)
        for j in reversed(js):
            nxt = []
            for suffix, pool in level:
                if pool[-1] <= j and len(set(pool)) == len(pool):
                    out += [a + suffix for a in permutations(pool)]
                    continue
                for x, v in enumerate(pool):
                    if v > j:
                        break
                    if not x or pool[x - 1] != v:
                        nxt.append(((v,) + suffix, pool[:x] + pool[x + 1:]))
            level = nxt
        return js, out
    windows, ties = _windows(js, rank)
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


def _below(seed: Multisegment, lefts) -> bool:
    """Test (b) on a rearrangement lefts of plus-sorted seed's left endpoints.

    lefts, set against the seed's right endpoints, is a member of the
    closure iff (a) every part [lefts[k], j_k] is valid at the rank and
    (b) at the end of each block of equal j, and for every a, the prefix
    of lefts has no more entries >= a than that of the seed: a pointwise
    bound on the sorted entries. (b) is necessary: a crossing move on h, k
    with j_h > j_k puts the larger left endpoint at the later position, so
    no prefix count of entries >= a ever rises; equal-j swaps leave block
    ends alone. Sufficiency is unproved. Both prefixes are kept sorted and
    negated, so the bound reads >= entry by entry at each block end: O(r).
    """
    mine, theirs, r = [], [], len(seed)
    for t in range(r):
        insort(mine, -lefts[t])
        insort(theirs, -seed[t].i)
        end = t == r - 1 or seed[t + 1].j != seed[t].j
        if end and not all(map(ge, mine, theirs)):
            return False
    return True


def _has_member_weighing(seed: Multisegment, want: dict, rank: int) -> bool:
    """Whether a member of closure(seed) weighs want; seed is plus-sorted.

    want maps (i, j) to the multiplicity of a non-degenerate part. Equal-j
    swaps make the order inside a block of equal j free, so a member's
    block j is want's parts ending at j, filled up with degenerate parts
    [j, j] and [j - rank - 1, j]. The fillers are forced: taken by
    increasing j, block j must take every unused j - rank - 1, which no
    later block can, then copies of j. A short or overfull block means no
    member, and so does any part of want left unplaced, since then some
    block runs out of left endpoints. A listed seed passes test (b) of
    _below in every arrangement (its prefixes hold its largest left
    endpoints), so _left_closure's proof makes the valid candidate a member
    and (b) is not run. On a searched seed (b) decides, at O(r^2): False is
    proved, as (b) is necessary; True rests on its unproved sufficiency,
    which the box certificate checks.
    """
    for p in seed:
        check_valid(p, rank)
    pool, size = Counter(p.i for p in seed), Counter(p.j for p in seed)
    block: dict[int, list[int]] = {j: [] for j in size}
    for s, e in want.items():
        pool[s.i] -= e
        block.setdefault(s.j, []).extend([s.i] * e)
    if any(c < 0 for c in pool.values()):
        return False
    for j in sorted(size):
        lo = j - rank - 1
        free = size[j] - len(block[j]) - pool[lo]
        if free < 0 or pool[j] < free:
            return False
        block[j] += [lo] * pool[lo] + [j] * free
        pool[lo], pool[j] = 0, pool[j] - free
    return _listed(seed, rank) or _below(
        seed, [i for j in sorted(size, reverse=True) for i in block[j]])


def closure(ms: Multisegment, rank: int) -> ClosureSet:
    """Saturation under all crossing moves and equal-j swaps; see _left_closure."""
    seed = ms if isinstance(ms, Multisegment) else Multisegment(ms)
    js, order = _left_closure(seed, rank)
    return ClosureSet(rank, seed, js, tuple(sorted(order)))


def closed_elements(ms: Multisegment, rank: int) -> tuple[Multisegment, ...]:
    """Closed members of the closure, one sort_plus representative per orbit."""
    return closure(ms, rank).orbit_representatives


def canonical_closed(ms: Multisegment, rank: int) -> Multisegment:
    """The closed element reachable from a doubly sorted tuple.

    At rank >= span the lower end of connected's window never binds, so
    parts h, k with j_h > j_k are connected iff i_k < i_h <= j_k. Taken by
    increasing j, each right endpoint takes the largest unused left
    endpoint <= j: the top of a stack onto which the left endpoints are
    pushed in increasing order once they are <= j. A later part never gets
    a left endpoint in (i_k, j_k], since k would have taken it, so the
    result is closed. Requires rank >= span(ms) and both endpoint
    sequences weakly decreasing.
    """
    if not is_doubly_sorted(ms):
        raise PreconditionViolated("canonical_closed needs a doubly sorted tuple")
    if rank < span(ms):
        raise PreconditionViolated(
            f"canonical_closed needs rank >= span = {span(ms)}, got {rank}"
        )
    lefts, stack, out = [p.i for p in ms], [], []
    for p in reversed(ms):
        while lefts and lefts[-1] <= p.j:
            stack.append(lefts.pop())
        out.append(Segment(stack.pop(), p.j))
    return Multisegment(reversed(out))


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
