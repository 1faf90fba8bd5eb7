import math
import random

import pytest

from helpers import (
    criterion2_instances,
    random_connected_pair,
    random_doubly_sorted,
    random_multisegment,
)

from weylcalc import (
    InvalidSegment,
    LWeight,
    Multisegment,
    PreconditionViolated,
    QChar,
    Segment,
    closure,
    corners,
    enumerate_paths,
    fundamental_qchar,
    pair_simple_qchar,
    path_weight,
    soclehom_weight,
    sort_plus,
    span,
    weight_of,
    weyl_dominant_part,
    weyl_qchar,
)


def M(*pairs):
    return Multisegment(Segment(i, j) for i, j in pairs)


def w(i, j, e=1):
    return LWeight({Segment(i, j): e})


class TestPaths:
    def test_enumeration_frozen(self):
        assert enumerate_paths(Segment(0, 1), 2) == [
            (2, 1, 2, 3),
            (2, 3, 2, 3),
            (2, 3, 4, 3),
        ]

    def test_endpoints_and_steps(self):
        rng = random.Random(61)
        for _ in range(100):
            rank = rng.randint(1, 6)
            ln = rng.randint(1, rank)
            i = rng.randint(-2, 3)
            seg = Segment(i, i + ln)
            paths = enumerate_paths(seg, rank)
            assert len(paths) == math.comb(rank + 1, ln)
            for g in paths:
                assert len(g) == rank + 2
                assert g[0] == 2 * seg.j
                assert g[-1] == rank + 1 + 2 * seg.i
                assert all(abs(g[r + 1] - g[r]) == 1 for r in range(rank + 1))
                assert sum(1 for r in range(rank + 1) if g[r + 1] < g[r]) == ln

    def test_corners(self):
        plus, minus = corners((2, 3, 2, 3))
        assert plus == [Segment(0, 2)]
        assert minus == [Segment(1, 2)]
        plus, minus = corners((2, 1, 2, 3))
        assert plus == [Segment(0, 1)]
        assert minus == []

    def test_weights_frozen(self):
        assert path_weight((2, 1, 2, 3), 2) == w(0, 1)
        assert path_weight((2, 3, 2, 3), 2) == w(0, 2) * w(1, 2, -1)
        assert path_weight((2, 3, 4, 3), 2) == w(1, 3, -1)

    def test_minus_corners_sit_strictly_above(self):
        rng = random.Random(62)
        for _ in range(100):
            rank = rng.randint(1, 6)
            ln = rng.randint(1, rank)
            i = rng.randint(-2, 3)
            seg = Segment(i, i + ln)
            for g in enumerate_paths(seg, rank):
                for c in corners(g)[1]:
                    assert c.i + c.j > seg.i + seg.j


class TestQCharAlgebra:
    def test_one(self):
        one = QChar.one()
        assert one.total_mass() == 1
        assert one.multiplicity(LWeight.identity()) == 1

    def test_convolution(self):
        a = fundamental_qchar(Segment(0, 1), 2)
        b = fundamental_qchar(Segment(2, 3), 2)
        prod = a * b
        assert prod.total_mass() == a.total_mass() * b.total_mass()
        assert prod.multiplicity(w(0, 1) * w(2, 3)) == 1

    def test_rendering_sorted_and_stable(self):
        q = fundamental_qchar(Segment(0, 1), 2)
        assert str(q) == "1 * w[0,1]^1\n1 * w[0,2]^1 * w[1,2]^-1\n1 * w[1,3]^-1"


class TestFundamental:
    def test_frozen_terms(self):
        q = fundamental_qchar(Segment(0, 1), 2)
        assert dict(q.terms()) == {
            w(0, 1): 1,
            w(0, 2) * w(1, 2, -1): 1,
            w(1, 3, -1): 1,
        }
        q2 = fundamental_qchar(Segment(2, 3), 2)
        assert dict(q2.terms()) == {
            w(2, 3): 1,
            w(2, 4) * w(3, 4, -1): 1,
            w(3, 5, -1): 1,
        }

    def test_rejects_degenerate_segments(self):
        with pytest.raises(InvalidSegment):
            fundamental_qchar(Segment(0, 0), 2)
        with pytest.raises(InvalidSegment):
            fundamental_qchar(Segment(0, 3), 2)

    def test_terms_are_distinct_path_weights(self):
        for rank in range(1, 5):
            for ln in range(1, rank + 1):
                seg = Segment(0, ln)
                q = fundamental_qchar(seg, rank)
                paths = enumerate_paths(seg, rank)
                assert q.total_mass() == len(paths)
                assert len(q) == len(paths)  # distinct weights, all mult 1


class TestWeylQChar:
    def test_square_frozen(self):
        q = weyl_qchar(M((0, 1), (0, 1)), 2)
        assert q.total_mass() == 9
        assert dict(q.terms()) == {
            w(0, 1, 2): 1,
            w(0, 1) * w(0, 2) * w(1, 2, -1): 2,
            w(0, 1) * w(1, 3, -1): 2,
            w(0, 2, 2) * w(1, 2, -2): 1,
            w(0, 2) * w(1, 2, -1) * w(1, 3, -1): 2,
            w(1, 3, -2): 1,
        }

    def test_degenerate_parts_contribute_nothing(self):
        lhs = weyl_qchar(M((0, 1), (0, 3)), 2)
        assert lhs == fundamental_qchar(Segment(0, 1), 2)
        assert weyl_qchar(M((0, 3)), 2) == QChar.one()

    def test_dominant_part_matches_closure_weights(self):
        q = weyl_qchar(GOLDEN := M((0, 6), (2, 7), (1, 8)), 6)
        assert set(q.dominant_part()) == {
            weight_of(t, 6) for t in closure(GOLDEN, 6).members
        }
        assert set(q.dominant_part()) == {w(0, 6) * w(2, 7), w(2, 6)}

    def test_highest_weight_has_multiplicity_one(self):
        rng = random.Random(63)
        for _ in range(60):
            rank = rng.randint(1, 4)
            ms = random_multisegment(rng, rank)
            assert weyl_qchar(ms, rank).multiplicity(weight_of(ms, rank)) == 1


class TestWeylDominantPart:
    """The pruned search against the full product, multiplicities included."""

    def test_criterion2_corpus(self):
        for ms, rank in criterion2_instances():
            assert weyl_dominant_part(ms, rank) == weyl_qchar(ms, rank).dominant_part()

    def test_random_tuples_with_degenerate_parts(self):
        # parts start close together so that they interact; about a third
        # of the tuples have several dominant terms and a fifth a
        # degenerate part
        rng = random.Random(66)
        for _ in range(400):
            rank = rng.randint(1, 4)
            base = rng.randint(-2, 2)
            parts = []
            for _ in range(rng.randint(0, 4)):
                i = base + rng.randint(0, 3)
                if rng.random() < 0.3:
                    length = rng.randint(0, rank + 1)
                else:
                    length = rng.randint(1, rank)
                parts.append(Segment(i, i + length))
            # an empty part list is the empty product, as for weyl_qchar
            ms = Multisegment(parts) if parts else ()
            oracle = weyl_qchar(ms, rank).dominant_part()
            assert weyl_dominant_part(ms, rank) == oracle, (ms, rank)

    def test_frozen_examples(self):
        assert weyl_dominant_part(M((0, 1), (0, 1)), 2) == {w(0, 1, 2): 1}
        # five overlapping parts, too slow for the oracle in every run: 46
        # weights of total multiplicity 67, as weyl_qchar gives
        ms = M((0, 2), (1, 3), (2, 4), (3, 5), (4, 6))
        part = weyl_dominant_part(ms, 4)
        assert (len(part), sum(part.values()), max(part.values())) == (46, 67, 3)
        assert part[weight_of(ms, 4)] == 1

    def test_all_degenerate_parts_give_the_identity(self):
        assert weyl_dominant_part(M((0, 0), (2, 5), (3, 3)), 2) == {
            LWeight.identity(): 1
        }

    @pytest.mark.parametrize(
        "pairs", [((0, 4),), ((0, 1), (0, 4)), ((0, 0), (1, 2), (5, 9), (0, 7))]
    )
    def test_invalid_part_fails_like_weyl_qchar(self, pairs):
        with pytest.raises(InvalidSegment) as expected:
            weyl_qchar(M(*pairs), 2)
        with pytest.raises(InvalidSegment) as got:
            weyl_dominant_part(M(*pairs), 2)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


class TestPairSimple:
    def test_frozen_example(self):
        q = pair_simple_qchar(M((1, 2), (0, 1)), 2)
        assert q.total_mass() == 6
        assert len(q) == 6
        assert dict(q.dominant_part()) == {w(0, 1) * w(1, 2): 1}

    def test_strictly_smaller_than_weyl(self):
        rng = random.Random(64)
        for _ in range(50):
            rank = rng.randint(2, 6)
            a, b = random_connected_pair(rng, rank)
            ms = sort_plus(Multisegment([a, b]))
            simple = pair_simple_qchar(ms, rank)
            full = weyl_qchar(ms, rank)
            assert simple.total_mass() < full.total_mass()
            for wt, mult in simple.terms().items():
                assert mult <= full.multiplicity(wt)

    def test_mass_is_the_lgv_determinant(self):
        # Lindstrom-Gessel-Viennot: non-intersecting pairs of paths number
        # C(a) C(b) minus the count with swapped endpoints
        def paths(rank, down):
            return math.comb(rank + 1, down) if 0 <= down <= rank + 1 else 0

        rng = random.Random(67)
        for _ in range(300):
            rank = rng.randint(1, 6)
            a, b = random_connected_pair(rng, rank)
            mass = pair_simple_qchar(Multisegment([a, b]), rank).total_mass()
            assert mass == (
                paths(rank, a.length) * paths(rank, b.length)
                - paths(rank, a.j - b.i) * paths(rank, b.j - a.i)
            ), (a, b, rank)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            pair_simple_qchar(M((0, 1)), 2)
        with pytest.raises(PreconditionViolated):
            pair_simple_qchar(M((0, 1), (1, 2)), 2)  # wrong order
        with pytest.raises(PreconditionViolated):
            pair_simple_qchar(M((0, 7), (2, 6)), 8)  # nested, not connected


class TestSocleHomWeight:
    def test_single_part(self):
        assert soclehom_weight(M((0, 1)), 2) == w(0, 2) * w(1, 2, -1)

    def test_collapse_case(self):
        assert soclehom_weight(M((1, 2), (0, 1)), 2) == w(2, 3, -1)

    def test_requires_doubly_sorted(self):
        with pytest.raises(PreconditionViolated):
            soclehom_weight(M((0, 1), (1, 2)), 2)

    def test_always_in_fundamental_support_when_single(self):
        # r = 1: the result is the second-highest weight of the fundamental
        # character whenever the segment is not full length
        rng = random.Random(65)
        for _ in range(40):
            rank = rng.randint(2, 6)
            ln = rng.randint(1, rank - 1)
            i = rng.randint(-2, 3)
            ms = Multisegment([Segment(i, i + ln)])
            got = soclehom_weight(ms, rank)
            assert got in fundamental_qchar(Segment(i, i + ln), rank).support()
