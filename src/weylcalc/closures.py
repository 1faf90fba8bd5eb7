"""Saturation of a multisegment under crossing moves and equal-j swaps."""

from __future__ import annotations

from bisect import insort
from collections import Counter
from functools import cached_property
from itertools import accumulate, combinations, permutations
from operator import ge, itemgetter, le

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
    first use. len needs none of them, nor does in, which tests (a) and (b)
    (_left_closure), nor str, which formats each (left, j) piece once and
    joins the rows column by column; pickle keeps only the four fields.
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
        for h, k, lo, hi in _windows(self.js, self.rank):
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

    def __contains__(self, ms) -> bool:
        hash(ms)  # an unhashable ms raises TypeError, as in a set of members
        if not (isinstance(ms, tuple) and len(ms) == len(self.js)
                and all(isinstance(p, tuple) and len(p) == 2 for p in ms)):
            return False
        ls, js = zip(*ms)  # a member: the seed's js in place, its lefts permuted
        if js != self.js or Counter(ls) != Counter(self.lefts[0]) or not all(
                0 <= j - i <= self.rank + 1 for i, j in ms):
            return False
        plus = [i for i, _ in sorted(ms, key=itemgetter(1), reverse=True)]
        return _passes(plus, sort_plus(self.seed))  # block ends see no order inside

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
    """The windows of the pairs of parts with right endpoints js.

    A pair h, k with j_h > j_k crosses iff its left endpoints fall in the
    window j_h - rank - 1 <= i_k < i_h <= j_k (see connected), listed as
    (h, k, j_h - rank - 1, j_k); a pair whose js are rank + 1 or more
    apart never does. A member is closed iff it hits no window.
    """
    return [(h, k, js[h] - rank - 1, js[k]) for h, k in permutations(range(len(js)), 2)
            if 0 < js[h] - js[k] <= rank]


def _bounds(ls, jp) -> dict[int, list]:
    """Test (b)'s table: {t: sorted(ls[:t])} at each block end t where it binds.

    ls and jp are a seed's left endpoints and js in plus order. (b): at the
    end t of each block of equal j, and for every a, the first t entries of
    an arrangement hold no more entries >= a than ls[:t], a bound entry by
    entry on the sorted prefixes. It is necessary: a crossing move on h, k
    with j_h > j_k puts the larger left at the later position, so no such
    count rises; equal-j swaps leave block ends alone. No arrangement fails
    it where ls[:t] holds the t largest lefts, so a doubly sorted seed's
    table is empty, as is any whose ls never rise. The sorted prefixes are
    one list kept by insort and copied where (b) binds: O(r^2) at most.
    """
    if all(map(ge, ls, ls[1:])):
        return {}
    top = list(accumulate(sorted(ls, reverse=True)))  # sums of the t largest
    run, out = [], {}
    for t, s in enumerate(accumulate(ls[:-1]), 1):
        insort(run, ls[t - 1])
        if jp[t - 1] != jp[t] and s < top[t - 1]:
            out[t] = run[:]
    return out


def _passes(cand, seed) -> bool:
    """Whether lefts cand, in plus order, pass (b) against the plus-sorted seed."""
    run = []  # sorted(cand[:t])
    for t, b in _bounds(*zip(*seed)).items():
        for x in cand[len(run):t]:
            insort(run, x)
        if not all(map(le, run, b)):
            return False
    return True


def _left_closure(seed: Multisegment, rank: int):
    """(js, left tuples) of the closure, each once, in seed order.

    Both moves swap the left endpoints of two parts: tau_{m,l} when they
    are connected, a swap when j_m == j_l. So the members are arrangements
    A of the seed's left endpoints against its js; with positions in plus
    order (j weakly decreasing), they are those with (a) j_k - rank - 1 <=
    A_k <= j_k for all k and (b) of _bounds, where necessity is shown.
    Sufficiency, for positions h < k with j_h > j_k:
    1. The crossing move on h, k applies iff A_k < A_h and the swap has
       (a): connected's window j_h - rank - 1 <= A_k < A_h <= j_k is that,
       the other two bounds following from j_k < j_h.
    2. So if A has (a) and A_h < A_k, the swap B has (a), and B moves to A.
    3. Let B have (a) and (b), with blocks (of equal j) whose multisets are
       not the seed's. At the first block end where the prefix multisets
       differ, let N(a) and S(a) count the entries >= a in B's and the
       seed's prefix, a* be the largest a with N(a) < S(a), x, at h, the
       largest entry below a* in B's block ending there (one exists, the
       earlier blocks agreeing), and k the first later position whose entry
       y is in (x, a*] (one exists: N(a* + 1) = S(a* + 1), so a* is short
       in B's prefix). Swapping x and y gives B' with (a) by 2, which moves
       to B. Only counts for a in (x, y] change, by +1 at the block ends
       from here up to k. Here they were strict: N(a*) < S(a*), and in [a,
       a*) B's prefix holds only entries of the earlier blocks. Later, no
       entry in (x, a*] came between, so (b) at a* + 1 keeps them strict.
       So B' has (b), and Sum A_k * j_k rose by (y - x)(j_h - j_k) > 0, so
       lifting reaches the seed's block multisets, hence the seed by swaps.
    The walk lists these: by increasing j, a position takes each distinct
    unused left endpoint in its window. At a block start t of _bounds'
    table, the unused ones (the prefix before t) must be bounded entry by
    entry by its sorted entries. A state whose least unused left fits no
    part left is dropped. Past every such bound, once the unused lefts are
    distinct and fit every remaining window, each of their orders
    completes a member.
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
                out += [a + suffix for a in permutations(pool)]
                continue
            for x, v in enumerate(pool):
                if v > j:
                    break
                if x and pool[x - 1] == v:
                    continue
                rest = pool[:x] + pool[x + 1:]
                if lo <= rest[0] and (bound is None or all(map(le, rest, bound))):
                    nxt.append(((v,) + suffix, rest))
        level = nxt
    if at != sorted(at):
        out = list(map(itemgetter(*sorted(range(len(at)), key=at.__getitem__)), out))
    return js, out


def _has_member_weighing(seed: Multisegment, want: dict, rank: int) -> bool:
    """Whether a member of closure(seed) weighs want; seed is plus-sorted.

    want maps (i, j) to the multiplicity of a non-degenerate part. Equal-j
    swaps make the order inside a block of equal j free, so a member's
    block j is want's parts ending at j, filled up with degenerate parts
    [j, j] and [j - rank - 1, j]. The fillers are forced: taken by
    increasing j, block j must take every unused j - rank - 1, which no
    later block can, then copies of j. A short or overfull block means no
    member, and so does any part of want left unplaced, since then some
    block runs out of left endpoints. The candidate so built has (a), so it
    is a member iff it passes (b) (_left_closure) at every t of _bounds'
    table, which is empty for a doubly sorted seed: O(r^2) at most.
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
    cand = [i for j in sorted(size, reverse=True) for i in block[j]]
    return _passes(cand, seed)


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

    Taken by increasing j, each right endpoint takes the largest unused
    left endpoint <= j: the top of a stack onto which the left endpoints
    are pushed in increasing order once they are <= j. These are the
    blocks of the one closed orbit (weyl.socle). Requires rank >= span(ms)
    and both endpoint sequences weakly decreasing.
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

    Its left endpoints are ms's, sorted descending: its prefixes hold the
    largest, so every valid arrangement passes (b) (_left_closure).
    Requires ms in plus order and rank >= span(ms).
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
