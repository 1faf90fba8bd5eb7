"""Saturation of a multisegment under crossing moves and equal-j swaps."""

from __future__ import annotations

from bisect import bisect_right, insort
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
    sorted (the members' lexicographic order). closure() lists none. lefts
    (_left_closure's walk on tuples), closed_lefts (those that hit no
    pair's window of _windows: no connected pair), members, closed_members
    and orbit_representatives (the closed members' distinct sort_plus
    forms, sorted) are built on first use. len counts by the walk, and str
    takes it on texts if the seed is in plus order.
    """

    __match_args__ = ("rank", "seed", "js", "lefts")

    def __init__(self, rank, seed, js, lefts):
        self.__dict__.update(rank=rank, seed=seed, js=js, lefts=lefts)

    def _build(self, lefts) -> tuple[Multisegment, ...]:
        # One shared Segment per (left, j) pair. A move keeps every part valid
        # (a connected pair's union spans at most rank + 1), so members skip
        # Multisegment's part check.
        segs = {(i, j): tuple.__new__(Segment, (i, j)) for i in {p.i for p in self.seed}
                for j in set(self.js) if i <= j}
        return tuple(
            tuple.__new__(Multisegment, [segs[p] for p in zip(a, self.js)])
            for a in lefts
        )

    @cached_property
    def lefts(self) -> tuple[tuple[int, ...], ...]:
        js = self.js
        if all(map(ge, js, js[1:])):  # in plus order the rows come sorted
            return tuple(_left_closure(self.seed, self.rank, *_TUPLES))
        at = sorted(range(len(js)), key=js.__getitem__, reverse=True)
        rows = _left_closure(list(map(self.seed.__getitem__, at)), self.rank, *_TUPLES)
        return tuple(sorted(map(itemgetter(*map(at.index, range(len(at)))), rows)))

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
        if js != self.js or Counter(ls) != Counter([p.i for p in self.seed]) or not all(
                0 <= j - i <= self.rank + 1 for i, j in ms):
            return False
        plus = [i for i, _ in sorted(ms, key=itemgetter(1), reverse=True)]
        return _passes(plus, sort_plus(self.seed))  # block ends see no order inside

    def __len__(self) -> int:
        return _left_closure(sort_plus(self.seed), self.rank, *_COUNT)

    def __str__(self) -> str:
        if all(map(ge, self.js, self.js[1:])):
            return _left_closure(self.seed, self.rank, *_TEXT)[1:]
        return "\n".join(["".join(map("[{},{}]".format, a, self.js)) for a in self.lefts])

    def _json(self) -> str:
        """json.dumps of closure --json's record: members as str builds them, on JSON
        texts; closed members and orbit representatives off closed_lefts by % rows."""
        def rows(js, lefts):
            row = "[%s]" % ", ".join([f"[%s, {j}]" for j in js])
            return ", ".join(map(row.__mod__, lefts))
        members = _left_closure(self.seed, self.rank, *_JSON).replace("\n", ", [")[2:] \
            if all(map(ge, self.js, self.js[1:])) else rows(self.js, self.lefts)
        reps = {tuple([i for _, i in sorted(zip(self.js, a), reverse=True)])
                for a in self.closed_lefts}  # each closed member's sort_plus
        return ('{"rank": %s, "seed": %s, "members": [%s], "closed": [%s], '
                '"orbit_reps": [%s]}' % (self.rank, self.seed._json(),
                                         members, rows(self.js, self.closed_lefts),
                                         rows(sorted(self.js)[::-1], sorted(reps))))


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


# _left_closure's outputs, as (piece, one, join): left tuples, their number,
# str's and --json's texts, a newline leading each row. one(v, j) is the rows
# of left v alone at j; join(kids, get) maps each (pool, es) of kids to the rows
# of get(k) after piece, for each (piece, k) of es whose pool k has rows (none falsy).
_TUPLES = (lambda v, j: (v,), lambda v, j: [(v,)],
           lambda kids, get: {m: [p + r for p, k in es if (c := get(k)) for r in c]
                              for m, es in kids})
_COUNT = (lambda v, j: None, lambda v, j: 1,
          lambda kids, get: {m: sum([c for _, k in es if (c := get(k))]) for m, es in kids})
_TEXT = ("\n[{},{}]".format, "\n[{},{}]".format,
         lambda kids, get: {m: "".join([c.replace("\n", p) for p, k in es if (c := get(k))])
                            for m, es in kids})
_JSON = ("\n[{}, {}], ".format, "\n[{}, {}]]".format, _TEXT[2])


def _left_closure(seed: Multisegment, rank: int, piece, one, join):
    """The closure's rows, by left tuples in lexicographic order; seed in plus order.

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
    The walk fills the positions from the first with distinct unused lefts
    in their windows. What completes a state depends only on its pool of
    unused lefts: (a) on the position, r minus the pool's size, and (b) at
    a block end t on the placed prefix, the pool's complement, checked on
    _bounds' table. So the pools, bit masks over the sorted lefts, form a
    DAG: found level by level, then joined once each from the last back,
    in ascending v, so the rows come out sorted. A pool that fails (a) or
    (b), or that no row completes, is dropped.
    """
    ls, js = zip(*seed)
    n, bounds = len(js), _bounds(ls, js)
    vals = sorted(ls)  # bit x of a pool stands for vals[x]; bits[v] masks v's copies
    bits = {v: (1 << vals.count(v)) - 1 << vals.index(v) for v in vals}
    levels, level = [], [(1 << n) - 1]
    for t in range(n - 1):
        j, cs, kids = js[t], None, []
        lo, lim = j - rank - 1, 1 << bisect_right(vals, js[t + 1])
        for m in level:
            if m >= lim:  # its largest left fits no later window, so goes here
                v = vals[m.bit_length() - 1]
                opts = [(bits[v], piece(v, j))] if lo <= v else []
            else:
                opts = cs = cs or [(g, piece(v, j)) for v, g in bits.items() if lo <= v <= j]
            es = []
            for g, p in opts:
                if h := m & g:  # equal lefts give up their lowest bit first
                    es.append((p, m ^ (h & -h)))
            kids.append((m, es))
        levels.append(kids)
        level = {r for _, es in kids for _, r in es if r < lim}
        if b := bounds.get(t + 1):
            level = [r for r in level if all(map(
                le, [v for x, v in enumerate(vals) if not r >> x & 1], b))]
    j = js[-1]  # the pools of one left at the last position: the leaves
    rows = {m: one(v, j) for m in level if (v := vals[m.bit_length() - 1]) >= j - rank - 1}
    for kids in levels[::-1]:
        rows = join(kids, rows.get)
    return rows[(1 << n) - 1]


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
    for p in seed:
        check_valid(p, rank)
    cs = ClosureSet.__new__(ClosureSet)  # no lefts: they are listed on first read
    cs.__dict__.update(rank=rank, seed=seed, js=tuple(zip(*seed))[1])
    return cs


def closed_elements(ms: Multisegment, rank: int) -> tuple[Multisegment, ...]:
    """Closed members of the closure, one sort_plus representative per orbit.

    Below the span they are read off the listing (orbit_representatives).
    At rank >= span, where every part is valid (none is longer than span +
    1), the closed members are one orbit under equal-j swaps, found with no
    member listed. No window's lower end binds there, so A is closed iff,
    for j_h > j_k, A_h <= A_k or A_h > j_k: iff, by increasing j, each block
    of equal j holds the largest unused left endpoints <= j. A member
    minimising Sum A_k * j_k admits no crossing move, so the closure meets
    that orbit and, by equal-j swaps, holds it. The canonical closed element
    of sort_plus(ms)'s dominant ancestor, valid and closed, lies in it.
    """
    seed = ms if isinstance(ms, Multisegment) else Multisegment(ms)
    if rank < span(seed):
        return closure(seed, rank).orbit_representatives
    return (sort_plus(canonical_closed(dominant_ancestor(sort_plus(seed), rank), rank)),)


def canonical_closed(ms: Multisegment, rank: int) -> Multisegment:
    """The closed element reachable from a doubly sorted tuple.

    Taken by increasing j, each right endpoint takes the largest unused
    left endpoint <= j: the top of a stack onto which the left endpoints
    are pushed in increasing order once they are <= j. These are the
    blocks of the one closed orbit (closed_elements). Requires rank >=
    span(ms) and both endpoint sequences weakly decreasing.
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
