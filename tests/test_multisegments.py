import random
from collections import Counter

import pytest

from helpers import crosses, random_multisegment, random_segment

from weylcalc import (
    IndexOutOfRange,
    InvalidSegment,
    LWeight,
    Multisegment,
    PreconditionViolated,
    Segment,
    connected,
    dual_left,
    dual_right,
    in_minus_order,
    in_plus_order,
    iota_at,
    iota_minus,
    iota_plus,
    is_doubly_sorted,
    normal_form,
    sort_minus,
    sort_plus,
    span,
    swap,
    tau,
    tau_word,
    weight_of,
)


def M(*pairs):
    return Multisegment(Segment(i, j) for i, j in pairs)


def w(i, j, e=1):
    return LWeight({Segment(i, j): e})


def test_multisegment_is_an_ordered_tuple():
    ms = M((0, 6), (2, 7), (1, 8))
    assert len(ms) == 3
    assert ms[0] == Segment(0, 6)
    assert str(ms) == "[0,6][2,7][1,8]"
    assert ms != M((2, 7), (0, 6), (1, 8))


def test_multisegment_must_be_nonempty():
    with pytest.raises(Exception):
        Multisegment([])
    with pytest.raises(TypeError, match="expected Segment part, got tuple"):
        Multisegment([(0, 1)])


class TestWeight:
    def test_product_of_generators(self):
        assert weight_of(M((0, 6), (2, 7), (1, 8)), 8) == w(0, 6) * w(2, 7) * w(1, 8)

    def test_degenerate_parts_drop_out(self):
        # at rank 6 both length-7 parts collapse
        assert weight_of(M((0, 6), (2, 7), (1, 8)), 6) == w(0, 6) * w(2, 7)
        assert weight_of(M((1, 3), (2, 2), (0, 1)), 1) == w(0, 1)

    def test_all_degenerate_gives_identity(self):
        assert weight_of(M((0, 2), (3, 3)), 1).is_identity


class TestConnected:
    def test_overlapping_in_both_patterns(self):
        assert connected(Segment(0, 6), Segment(2, 7), 6)
        assert connected(Segment(2, 7), Segment(0, 6), 6)

    def test_span_cap(self):
        assert not connected(Segment(0, 6), Segment(1, 8), 6)
        assert connected(Segment(0, 6), Segment(1, 8), 7)

    def test_nested_never_connected(self):
        assert not connected(Segment(0, 7), Segment(2, 6), 8)
        assert not connected(Segment(2, 6), Segment(0, 7), 8)

    def test_equal_never_connected(self):
        assert not connected(Segment(1, 2), Segment(1, 2), 5)

    def test_adjacent_minimal_case(self):
        # at rank 1 the span cap rank+1 = 2 is exactly met in both orders
        assert connected(Segment(2, 3), Segment(1, 2), 1)
        assert connected(Segment(1, 2), Segment(2, 3), 1)
        assert not connected(Segment(1, 3), Segment(0, 1), 1)  # span 3 over cap

    def test_window_matches_the_two_branch_rule(self):
        # the oracle is the rule as first written, on bare endpoints; the
        # draws cover equal j, equal i, and interleaved pairs whose union
        # is exactly rank + 1 (connected) or rank + 2 (not)
        rng = random.Random(68)
        seen = Counter()
        for _ in range(20000):
            rank = rng.randint(1, 6)
            ai, bi = rng.randint(-4, 4), rng.randint(-4, 4)
            aj, bj = ai + rng.randint(0, rank + 2), bi + rng.randint(0, rank + 2)
            want = crosses(ai, aj, bi, bj, rank)
            assert connected(Segment(ai, aj), Segment(bi, bj), rank) == want
            assert connected(Segment(bi, bj), Segment(ai, aj), rank) == want
            interleaved = bi < ai <= bj < aj or ai < bi <= aj < bj
            union = max(aj, bj) - min(ai, bi)
            seen["connected"] += want
            seen["equal j"] += aj == bj
            seen["equal i"] += ai == bi
            seen["union rank + 1"] += interleaved and union == rank + 1
            seen["union rank + 2"] += interleaved and union == rank + 2
        assert min(seen.values()) >= 300, seen


class TestTau:
    def test_exchanges_inner_endpoints(self):
        ms = M((0, 6), (2, 7), (1, 8))
        assert tau(ms, 1, 2, 6) == M((2, 6), (0, 7), (1, 8))
        assert tau(M((2, 3), (1, 2)), 1, 2, 1) == M((1, 3), (2, 2))
        assert tau(M((0, 2), (2, 3)), 1, 2, 2) == M((2, 2), (0, 3))

    def test_zero_on_non_connected_parts(self):
        assert tau(M((0, 7), (2, 6)), 1, 2, 8) is None
        assert tau(M((0, 6), (2, 7), (1, 8)), 2, 3, 6) is None

    def test_positions_are_one_based_and_ordered(self):
        ms = M((0, 6), (2, 7), (1, 8))
        for m, l in [(0, 1), (2, 2), (2, 1), (1, 4)]:
            with pytest.raises(IndexOutOfRange):
                tau(ms, m, l, 6)

    def test_word_absorbs_zero(self):
        ms = M((0, 6), (2, 7), (1, 8))
        assert tau_word(ms, [], 6) == ms
        assert tau_word(ms, [(1, 2)], 6) == tau(ms, 1, 2, 6)
        assert tau_word(ms, [(2, 3), (1, 2)], 6) is None
        assert tau_word(None, [(1, 2)], 6) is None

    def test_preserves_endpoint_multisets(self):
        rng = random.Random(4242)
        for _ in range(200):
            rank = rng.randint(1, 5)
            ms = random_multisegment(rng, rank, parts=rng.randint(2, 4))
            r = len(ms)
            m = rng.randint(1, r - 1)
            l = rng.randint(m + 1, r)
            out = tau(ms, m, l, rank)
            if out is None:
                continue
            assert sorted(s.i for s in out) == sorted(s.i for s in ms)
            assert [s.j for s in out] == [s.j for s in ms]


class TestNilHecke:
    def test_square_zero(self):
        rng = random.Random(11)
        for _ in range(300):
            rank = rng.randint(1, 5)
            ms = random_multisegment(rng, rank, parts=3)
            for m, l in [(1, 2), (1, 3), (2, 3)]:
                assert tau_word(ms, [(m, l), (m, l)], rank) is None

    def test_far_commutation(self):
        rng = random.Random(12)
        for _ in range(300):
            rank = rng.randint(1, 5)
            ms = random_multisegment(rng, rank, parts=4)
            a = tau_word(ms, [(1, 2), (3, 4)], rank)
            b = tau_word(ms, [(3, 4), (1, 2)], rank)
            assert a == b

    def test_braid(self):
        rng = random.Random(13)
        for _ in range(300):
            rank = rng.randint(1, 5)
            ms = random_multisegment(rng, rank, parts=3)
            a = tau_word(ms, [(1, 2), (1, 3), (2, 3)], rank)
            b = tau_word(ms, [(2, 3), (1, 3), (1, 2)], rank)
            assert a == b


def test_swap_exchanges_parts():
    assert swap(M((0, 6), (2, 7), (1, 8)), 1, 3) == M((1, 8), (2, 7), (0, 6))


class TestSorting:
    def test_plus_order_key(self):
        assert sort_plus(M((0, 1), (2, 3))) == M((2, 3), (0, 1))
        # ties on j break by larger i first
        assert sort_plus(M((1, 2), (0, 2))) == M((1, 2), (0, 2))
        assert sort_plus(M((0, 2), (1, 2))) == M((1, 2), (0, 2))

    def test_minus_order_key(self):
        assert sort_minus(M((2, 3), (0, 1))) == M((0, 1), (2, 3))
        assert sort_minus(M((1, 2), (0, 2))) == M((0, 2), (1, 2))

    def test_predicates(self):
        assert in_plus_order(M((2, 7), (0, 6)))
        assert not in_plus_order(M((0, 6), (2, 7)))
        assert in_minus_order(M((0, 6), (2, 7)))
        assert is_doubly_sorted(M((2, 5), (1, 4), (0, 3)))
        assert not is_doubly_sorted(M((0, 5), (1, 4)))
        # plus order alone is not enough
        assert in_plus_order(M((0, 8), (4, 6))) and not is_doubly_sorted(M((0, 8), (4, 6)))


def test_span_frozen_values():
    assert span(M((0, 6), (2, 7), (1, 8))) == 7
    assert span(M((0, 3))) == 2
    assert span(M((1, 1))) == -1  # single point tuple, deliberately signed


class TestDuals:
    def test_right_dual_reflects_around_top(self):
        assert dual_right(M((0, 1), (1, 2)), 2) == M((1, 3), (2, 4))

    def test_left_dual_inverts_right(self):
        rng = random.Random(21)
        for _ in range(200):
            rank = rng.randint(1, 5)
            ms = random_multisegment(rng, rank)
            assert dual_left(dual_right(ms, rank), rank) == ms
            assert dual_right(dual_left(ms, rank), rank) == ms

    def test_duals_preserve_connectivity(self):
        rng = random.Random(22)
        for _ in range(200):
            rank = rng.randint(1, 5)
            a = random_segment(rng, rank)
            b = random_segment(rng, rank)
            lhs = connected(a, b, rank)
            da, = dual_right(Multisegment([a]), rank)
            db, = dual_right(Multisegment([b]), rank)
            assert connected(db, da, rank) == lhs

    def test_duals_reject_invalid_parts(self):
        with pytest.raises(InvalidSegment):
            dual_right(M((0, 4)), 2)


class TestIota:
    def test_pair_cases(self):
        # crossing pair: endpoints recombine
        assert iota_plus(Segment(2, 5), Segment(3, 9), 7) == (Segment(2, 9), Segment(3, 5))
        # already in plus order: keep
        assert iota_plus(Segment(3, 9), Segment(2, 5), 7) == (Segment(3, 9), Segment(2, 5))
        assert iota_plus(Segment(3, 5), Segment(2, 9), 7) == (Segment(2, 9), Segment(3, 5))

    def test_minus_is_the_mirror(self):
        rng = random.Random(31)
        for _ in range(300):
            rank = rng.randint(1, 6)
            a = random_segment(rng, rank)
            b = random_segment(rng, rank)
            x, y = iota_plus(b, a, rank)
            assert iota_minus(a, b, rank) == (y, x)

    def test_window_application(self):
        ms = M((0, 6), (4, 8), (2, 5))
        assert iota_at(ms, 1, 1, 8) == M((0, 8), (4, 6), (2, 5))
        with pytest.raises(IndexOutOfRange):
            iota_at(ms, 3, 1, 8)
        with pytest.raises(IndexOutOfRange):
            iota_at(ms, 0, 1, 8)
        with pytest.raises(PreconditionViolated):
            iota_at(ms, 1, 2, 8)

    def test_rejects_a_part_too_long_for_the_rank(self):
        # checked before the window moves, like weight_of and normal_form;
        # [0,5] is never connected at rank 1, so iota would only swap it
        for p in (1, 2):
            with pytest.raises(InvalidSegment, match=r"segment \[0,5\] has length 5"):
                iota_at(M((1, 2), (0, 5), (2, 3)), p, -1, 1)

    def test_preserves_endpoint_multisets(self):
        # crossing re-pairs endpoints, so the weight can change but the
        # multisets of left and right endpoints cannot
        rng = random.Random(32)
        for _ in range(300):
            rank = rng.randint(1, 6)
            ms = random_multisegment(rng, rank, parts=rng.randint(2, 4))
            p = rng.randint(1, len(ms) - 1)
            sign = rng.choice([1, -1])
            out = iota_at(ms, p, sign, rank)
            assert sorted(s.i for s in out) == sorted(s.i for s in ms)
            assert sorted(s.j for s in out) == sorted(s.j for s in ms)


class TestNormalForm:
    def test_frozen_examples(self):
        ms = M((0, 6), (4, 8), (2, 5))
        assert normal_form(ms, 1, 8) == M((0, 8), (4, 6), (2, 5))
        assert normal_form(ms, -1, 8) == M((4, 5), (0, 6), (2, 8))

    def test_lands_in_sorted_order(self):
        rng = random.Random(33)
        for _ in range(300):
            rank = rng.randint(1, 6)
            ms = random_multisegment(rng, rank, parts=rng.randint(1, 4))
            plus = normal_form(ms, 1, rank)
            minus = normal_form(ms, -1, rank)
            assert in_plus_order(plus)
            assert in_minus_order(minus)
            assert sorted(s.i for s in plus) == sorted(s.i for s in ms)
            assert sorted(s.j for s in minus) == sorted(s.j for s in ms)

    def test_fixed_points(self):
        ms = M((2, 7), (0, 6))
        assert normal_form(ms, 1, 7) == ms

    def test_equals_folding_iota_at_over_the_word(self):
        # (iota_{r-1} ... iota_1)(iota_{r-1} ... iota_2) ... (iota_{r-1}),
        # the rightmost block first and each block left to right
        rng = random.Random(34)
        for _ in range(400):
            rank = rng.randint(1, 6)
            ms = random_multisegment(rng, rank, parts=rng.randint(1, 6))
            r = len(ms)
            for sign in (1, -1):
                out = ms
                for k in range(r - 1, 0, -1):
                    for p in range(k, r):
                        out = iota_at(out, p, sign, rank)
                assert normal_form(ms, sign, rank) == out

    def test_rejects_a_bad_sign_at_every_length(self):
        for ms in (M((0, 1)), M((0, 1), (1, 2)), M((0, 1), (1, 2), (2, 3))):
            with pytest.raises(PreconditionViolated, match="sign must be"):
                normal_form(ms, 2, 2)

    def test_rejects_a_part_too_long_for_the_rank(self):
        for ms in (M((0, 5)), M((0, 5), (1, 2))):
            for sign in (1, -1):
                with pytest.raises(InvalidSegment, match=r"\[0,5\]"):
                    normal_form(ms, sign, 1)
