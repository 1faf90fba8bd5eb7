"""Shared generators and brute-force oracles for the randomized tests.

Every generator takes an explicit random.Random so each test controls its
own seed and stays reproducible in isolation; a fixed corpus seeds its own.
"""

from __future__ import annotations

import itertools
import random

from weylcalc import Multisegment, Segment, swap, tau


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


def block_permutations(ms):
    """All reorderings that permute parts within runs of equal right endpoint.

    Only meaningful when equal right endpoints are already contiguous.
    """
    runs = [list(grp) for _, grp in itertools.groupby(ms, key=lambda s: s.j)]
    out = []
    for combo in itertools.product(*(itertools.permutations(r) for r in runs)):
        out.append(Multisegment(s for run in combo for s in run))
    return out
