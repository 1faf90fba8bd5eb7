import copy
import pickle

import pytest

from weylcalc import (
    InvalidSegment,
    Segment,
    check_valid,
    is_degenerate,
    params_of_segment,
    segment_of_params,
)


def test_segment_requires_ordered_endpoints():
    with pytest.raises(InvalidSegment):
        Segment(3, 1)


def test_length_and_rendering():
    s = Segment(2, 7)
    assert s.length == 5
    assert str(s) == "[2,7]"
    assert str(Segment(-1, 4)) == "[-1,4]"
    assert str(Segment(4, 4)) == "[4,4]"


def test_shift():
    assert Segment(0, 3).shift(2) == Segment(2, 5)
    assert Segment(0, 3).shift(-1) == Segment(-1, 2)


def test_ordering_is_lexicographic():
    assert Segment(0, 5) < Segment(1, 2)
    assert Segment(1, 2) < Segment(1, 3)
    assert sorted([Segment(1, 2), Segment(0, 5), Segment(1, 3)]) == [
        Segment(0, 5),
        Segment(1, 2),
        Segment(1, 3),
    ]


def test_check_valid_accepts_lengths_up_to_rank_plus_one():
    check_valid(Segment(4, 4), 2)
    check_valid(Segment(0, 2), 2)
    check_valid(Segment(0, 3), 2)
    with pytest.raises(InvalidSegment):
        check_valid(Segment(0, 4), 2)


def test_degenerate_iff_empty_or_full():
    assert is_degenerate(Segment(4, 4), 5)
    assert is_degenerate(Segment(0, 6), 5)
    assert not is_degenerate(Segment(0, 5), 5)
    assert not is_degenerate(Segment(0, 1), 5)


def test_params_round_trip():
    s = Segment(1, 4)
    assert params_of_segment(s) == (3, 5)
    assert segment_of_params(3, 5) == s
    for i in range(-3, 4):
        for j in range(i, i + 5):
            m, a = params_of_segment(Segment(i, j))
            assert segment_of_params(m, a) == Segment(i, j)


def test_params_validation():
    # m and a must have equal parity, and m must be a length
    with pytest.raises(InvalidSegment):
        segment_of_params(2, 5)
    with pytest.raises(InvalidSegment):
        segment_of_params(-1, 5)


def test_segments_are_hashable_and_frozen():
    s = Segment(0, 1)
    assert len({s, Segment(0, 1), Segment(0, 2)}) == 2
    with pytest.raises(Exception):
        s.i = 5


def test_keyword_construction_and_repr():
    s = Segment(i=1, j=3)
    assert s == Segment(1, 3)
    assert (s.i, s.j) == (1, 3)
    assert repr(s) == "Segment(i=1, j=3)"
    with pytest.raises(InvalidSegment):
        Segment(i=3, j=1)


def test_segment_is_the_plain_pair():
    s = Segment(1, 3)
    assert s == (1, 3)
    assert hash(s) == hash((1, 3))
    assert {(1, 3): "x"}[s] == "x"
    with pytest.raises(AttributeError):
        s.i = 5
    with pytest.raises(AttributeError):
        s.extra = 0


def test_match_by_position_and_keyword():
    match Segment(2, 7):
        case Segment(a, b):
            assert (a, b) == (2, 7)
    match Segment(2, 7):
        case Segment(j=b, i=a):
            assert (a, b) == (2, 7)


def test_pickle_and_deepcopy_round_trip():
    from weylcalc import LWeight, Multisegment, closure

    ms = Multisegment([Segment(0, 6), Segment(2, 7), Segment(1, 8)])
    objects = [
        Segment(-1, 4),
        ms,
        LWeight({Segment(0, 1): 2, Segment(1, 3): -1}),
        closure(ms, 7),
    ]
    for obj in objects:
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(back) is type(obj)
            assert back == obj
            assert hash(back) == hash(obj)
    back = pickle.loads(pickle.dumps(objects[1]))
    assert all(type(p) is Segment for p in back)
