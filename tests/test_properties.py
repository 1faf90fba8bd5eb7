"""Property tests for the closure engine, the crossing move, the parser,
the reflection duals and the root lattice."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from weylcalc import (  # noqa: E402
    Multisegment,
    RootVector,
    Segment,
    closure,
    compose_roots,
    connected,
    decompose_into_roots,
    dual_left,
    dual_right,
    tau,
)
from weylcalc.cli import parse_multisegment  # noqa: E402

PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)


@st.composite
def ranked_multisegments(draw, min_parts=1, max_parts=5):
    """(ms, rank) with every part valid at rank, endpoints in a small window."""
    rank = draw(st.integers(1, 6))
    parts = []
    for _ in range(draw(st.integers(min_parts, max_parts))):
        i = draw(st.integers(-3, 4))
        parts.append(Segment(i, i + draw(st.integers(0, rank + 1))))
    return Multisegment(parts), rank


@PROPERTY
@given(ranked_multisegments())
def test_closure_keeps_right_endpoints_and_left_multiset(case):
    ms, rank = case
    js = [p.j for p in ms]
    lefts = sorted(p.i for p in ms)
    cs = closure(ms, rank)
    assert ms in cs
    for t in cs.members:
        assert [p.j for p in t] == js
        assert sorted(p.i for p in t) == lefts


@PROPERTY
@given(ranked_multisegments(min_parts=2), st.data())
def test_tau_exchanges_two_left_endpoints(case, data):
    ms, rank = case
    m = data.draw(st.integers(1, len(ms) - 1))
    l = data.draw(st.integers(m + 1, len(ms)))
    out = tau(ms, m, l, rank)
    a, b = ms[m - 1], ms[l - 1]
    if not connected(a, b, rank):
        assert out is None
        return
    lefts = [p.i for p in ms]
    lefts[m - 1], lefts[l - 1] = lefts[l - 1], lefts[m - 1]
    assert out == Multisegment(Segment(i, p.j) for i, p in zip(lefts, ms))


@PROPERTY
@given(ranked_multisegments(max_parts=6))
def test_parse_inverts_str(case):
    ms, _ = case
    assert parse_multisegment(str(ms)) == ms


@PROPERTY
@given(ranked_multisegments(max_parts=6))
def test_duals_invert_each_other(case):
    ms, rank = case
    assert dual_left(dual_right(ms, rank), rank) == ms
    assert dual_right(dual_left(ms, rank), rank) == ms


@st.composite
def ranked_root_vectors(draw):
    """(rv, rank) with nonzero coefficients on roots a[i,j], 1 <= j - i <= rank."""
    rank = draw(st.integers(1, 6))
    coef = {}
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(-3, 4))
        seg = Segment(i, i + draw(st.integers(1, rank)))
        coef[seg] = draw(st.integers(-3, 3).filter(bool))
    return RootVector(coef), rank


@PROPERTY
@given(ranked_root_vectors())
def test_decompose_inverts_compose(case):
    rv, rank = case
    assert decompose_into_roots(compose_roots(rv, rank), rank) == rv
