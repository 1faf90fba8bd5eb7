import random
from itertools import combinations

import pytest

from helpers import (
    block_permutations,
    canonical_closed_by_min_search,
    move_saturate,
    random_doubly_sorted,
    random_multisegment,
    random_segment,
    tau_saturate,
)

from weylcalc import (
    Multisegment,
    PreconditionViolated,
    Segment,
    canonical_closed,
    closed_elements,
    closure,
    connected,
    dominant_ancestor,
    dual_left,
    is_closed,
    is_doubly_sorted,
    sort_minus,
    sort_plus,
    span,
)


def M(*pairs):
    return Multisegment(Segment(i, j) for i, j in pairs)


GOLDEN_SEED = M((0, 6), (2, 7), (1, 8))


class TestGoldenClosures:
    def test_rank_six_two_members(self):
        cs = closure(GOLDEN_SEED, 6)
        assert set(cs.members) == {GOLDEN_SEED, M((2, 6), (0, 7), (1, 8))}
        assert set(cs.closed_members) == {M((2, 6), (0, 7), (1, 8))}
        assert cs.orbit_representatives == (M((1, 8), (0, 7), (2, 6)),)

    def test_rank_seven_four_members(self):
        cs = closure(GOLDEN_SEED, 7)
        assert set(cs.members) == {
            GOLDEN_SEED,
            M((2, 6), (0, 7), (1, 8)),
            M((1, 6), (2, 7), (0, 8)),
            M((2, 6), (1, 7), (0, 8)),
        }
        assert set(cs.closed_members) == {M((2, 6), (1, 7), (0, 8))}

    def test_swap_only_orbit(self):
        cs = closure(M((0, 2), (1, 2)), 2)
        assert set(cs.members) == {M((0, 2), (1, 2)), M((1, 2), (0, 2))}
        assert set(cs.closed_members) == set(cs.members)
        assert cs.orbit_representatives == (M((1, 2), (0, 2)),)

    def test_rank_one_three_members(self):
        cs = closure(M((2, 3), (1, 2), (0, 1)), 1)
        assert set(cs.members) == {
            M((2, 3), (1, 2), (0, 1)),
            M((1, 3), (2, 2), (0, 1)),
            M((2, 3), (0, 2), (1, 1)),
        }
        assert set(cs.closed_members) == {
            M((1, 3), (2, 2), (0, 1)),
            M((2, 3), (0, 2), (1, 1)),
        }
        assert closed_elements(M((2, 3), (1, 2), (0, 1)), 1) == (
            M((1, 3), (2, 2), (0, 1)),
            M((2, 3), (0, 2), (1, 1)),
        )


class TestClosureSetApi:
    def test_membership_and_len(self):
        cs = closure(GOLDEN_SEED, 6)
        assert GOLDEN_SEED in cs
        assert M((2, 6), (0, 7), (1, 8)) in cs
        assert M((1, 6), (2, 7), (0, 8)) not in cs
        assert len(cs) == 2

    def test_text_and_len_build_no_member(self):
        cs = closure(M((-2, 0), (-3, -1), (1, 1)), 3)
        assert str(cs) == "[-3,0][-2,-1][1,1]\n[-2,0][-3,-1][1,1]"
        # seven lefts all below seven js at rank >= span: every order is a member
        large = closure(M(*[(16 - k, 23 - k) for k in range(7)]), 12)
        for cs, size in ((cs, 2), (large, 5040)):
            text = str(cs)
            assert len(cs) == size
            assert "members" not in vars(cs)
            assert text == "\n".join(map(str, cs.members))

    def test_membership_builds_no_member(self):
        # in tests (a) and (b) on the candidate: on the 5,040-member closure
        # neither the members nor a set of them is built
        large = closure(M(*[(16 - k, 23 - k) for k in range(7)]), 12)
        assert M(*[(10 + k, 23 - k) for k in range(7)]) in large
        assert M(*[(16 - k, 23 - k) for k in range(6)] + [(17, 17)]) not in large
        assert tuple((16 - k, 22 - k) for k in range(7)) not in large
        assert vars(large).keys() == {"rank", "seed", "js"}
        # a seed not in plus order reads its left multiset from the seed too
        small = closure(M((0, 6), (2, 7), (1, 8)), 6)
        assert M((2, 6), (0, 7), (1, 8)) in small
        assert vars(small).keys() == {"rank", "seed", "js"}

    def test_members_sorted_and_consistent(self):
        rng = random.Random(51)
        for _ in range(60):
            rank = rng.randint(1, 4)
            ms = random_multisegment(rng, rank, parts=rng.randint(1, 3))
            cs = closure(ms, rank)
            assert list(cs.members) == sorted(cs.members)
            assert ms in cs
            assert set(cs.closed_members) <= set(cs.members)
            assert all(is_closed(t, rank) for t in cs.closed_members)
            assert set(cs.orbit_representatives) == {
                sort_plus(t) for t in cs.closed_members
            }


def test_is_closed_means_no_connected_pair():
    assert not is_closed(GOLDEN_SEED, 6)
    assert is_closed(M((2, 6), (0, 7), (1, 8)), 6)
    assert is_closed(M((0, 1)), 5)


class TestConservation:
    def test_members_share_endpoint_multisets(self):
        rng = random.Random(52)
        for _ in range(60):
            rank = rng.randint(1, 4)
            ms = random_multisegment(rng, rank, parts=rng.randint(2, 3))
            isort = sorted(s.i for s in ms)
            jsort = sorted(s.j for s in ms)
            for t in closure(ms, rank).members:
                assert sorted(s.i for s in t) == isort
                assert sorted(s.j for s in t) == jsort

    def test_monotone_in_rank(self):
        rng = random.Random(53)
        for _ in range(40):
            rank = rng.randint(1, 4)
            ms = random_multisegment(rng, rank, parts=rng.randint(2, 3))
            small = set(closure(ms, rank).members)
            big = set(closure(ms, rank + 1).members)
            assert small <= big


def test_closure_agrees_with_word_oracle():
    # for a sorted seed the closure is exactly the crossing-word saturation
    # padded by permutations within equal-right-endpoint runs
    rng = random.Random(54)
    for _ in range(40):
        rank = rng.randint(1, 4)
        ms = sort_plus(random_multisegment(rng, rank, parts=rng.randint(2, 3)))
        oracle = {
            v for u in tau_saturate(ms, rank) for v in block_permutations(u)
        }
        assert set(closure(ms, rank).members) == oracle


def test_closure_agrees_with_move_oracle():
    # 200 seeds at ranks 1-6, 1-5 parts packed into [-1, rank + 1]: narrow
    # enough that many pairs connect, one wider than the rank's reach so
    # that the span bound still decides some pairs; odd seeds plus-sorted
    grown = 0
    for seed in range(200):
        rng = random.Random(seed)
        rank = rng.randint(1, 6)
        ms = Multisegment(
            random_segment(rng, rank, lo=-1, hi=rank + 1)
            for _ in range(rng.randint(1, 5))
        )
        if seed % 2:
            ms = sort_plus(ms)
        members = tuple(sorted(move_saturate(ms, rank)))
        closed = tuple(
            t for t in members
            if not any(connected(a, b, rank) for a, b in combinations(t, 2))
        )
        reps = tuple(sorted({sort_plus(t) for t in closed}))
        cs = closure(ms, rank)
        assert cs.members == members, (seed, ms, rank)
        assert cs.closed_members == closed, (seed, ms, rank)
        assert cs.orbit_representatives == reps, (seed, ms, rank)
        grown += len(members) > 2
    assert grown >= 60


class TestCanonicalClosed:
    def test_frozen_examples(self):
        assert canonical_closed(M((2, 5), (1, 4), (0, 3)), 5) == M((0, 5), (1, 4), (2, 3))
        assert canonical_closed(M((1, 2), (0, 1)), 2) == M((0, 2), (1, 1))

    def test_requires_doubly_sorted_input(self):
        with pytest.raises(PreconditionViolated):
            canonical_closed(M((0, 1), (1, 2)), 5)

    def test_requires_rank_at_least_span(self):
        with pytest.raises(PreconditionViolated):
            canonical_closed(M((2, 5), (1, 4), (0, 3)), 3)

    def test_produces_the_unique_orbit(self):
        rng = random.Random(55)
        seen = tied = 0
        while seen < 80:
            ms = random_doubly_sorted(rng)
            rank = span(ms) + rng.randint(1, 3)
            if rank < 1:
                continue
            seen += 1
            cs = closure(ms, rank)
            assert len(cs.orbit_representatives) == 1
            cc = canonical_closed(ms, rank)
            assert cc == canonical_closed_by_min_search(ms)
            assert is_closed(cc, rank)
            assert cc in cs
            assert sort_plus(cc) == cs.orbit_representatives[0]
            ends = [p.i for p in ms] + [p.j for p in ms]
            tied += len(set(ends)) < len(ends)
        assert tied >= 30


class TestDominantAncestor:
    def test_frozen_example(self):
        assert dominant_ancestor(M((1, 8), (0, 7), (2, 6)), 8) == M((2, 8), (1, 7), (0, 6))

    def test_requires_plus_order(self):
        with pytest.raises(PreconditionViolated):
            dominant_ancestor(M((0, 1), (1, 2)), 5)
        with pytest.raises(PreconditionViolated,
                           match="^dominant_ancestor needs rank >= span = 5, got 2$"):
            dominant_ancestor(M((5, 6), (0, 1)), 2)

    def test_ancestor_contains_input_in_its_closure(self):
        rng = random.Random(56)
        seen = 0
        while seen < 60:
            rank = rng.randint(1, 4)
            ms = sort_plus(random_multisegment(rng, rank, parts=rng.randint(1, 3)))
            if span(ms) > rank:
                continue
            seen += 1
            anc = dominant_ancestor(ms, rank)
            assert is_doubly_sorted(anc)
            assert ms in closure(anc, rank)


def test_dual_closure_orbit_correspondence():
    # left-dualizing a minus-sorted seed turns its closure orbits into the
    # closure orbits of the dual, up to re-sorting each member
    rng = random.Random(57)
    for _ in range(40):
        rank = rng.randint(1, 4)
        ms = sort_minus(random_multisegment(rng, rank, parts=rng.randint(2, 3)))
        lhs = {sort_plus(u) for u in closure(sort_plus(dual_left(ms, rank)), rank).members}
        rhs = {sort_plus(dual_left(t, rank)) for t in closure(ms, rank).members}
        assert lhs == rhs
