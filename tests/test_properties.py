"""Property tests for the closure engine, the crossing move, the parser,
the reflection duals and the root lattice."""

import io
import json
from contextlib import redirect_stdout
from itertools import permutations
from unittest.mock import patch

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from weylcalc import (  # noqa: E402
    InvalidSegment,
    LWeight,
    Multisegment,
    NotInRootLattice,
    QChar,
    RootVector,
    Segment,
    closure,
    compose_roots,
    connected,
    decompose_into_roots,
    dual_left,
    dual_right,
    fundamental_qchar,
    sort_plus,
    span,
    tau,
    weyl_dominant_part,
    weyl_dominant_weights,
    weyl_qchar,
)
from weylcalc import cli, qchars  # noqa: E402
from weylcalc.cli import (  # noqa: E402
    json_lweight,
    json_qchar_terms,
    parse_lweight,
    parse_multisegment,
)
from helpers import keyed_product, keyed_qchar, move_saturate, passes_bounds  # noqa: E402
from weylcalc.qchars import _convolve, _dominant  # noqa: E402

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
@given(ranked_multisegments(max_parts=6))
def test_membership_test_is_exactly_the_member_set(case):
    # every member passes test (a)+(b), and every rearrangement of the
    # left endpoints that passes it is a member; the members are
    # move_saturate's, since the closure lists what passes (b) itself
    ms, rank = case
    members = move_saturate(ms, rank)
    assert set(closure(ms, rank).members) == members
    assert all(passes_bounds(ms, t, rank) for t in members)
    for lefts in set(permutations(p.i for p in ms)):
        cand = tuple((a, p.j) for a, p in zip(lefts, ms))
        assert passes_bounds(ms, cand, rank) == (cand in members)


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


@st.composite
def closure_seeds(draw):
    """(ms, rank) with negative or multi-digit endpoints, repeated lefts
    and equal js: doubly sorted at rank >= span (listed) or in any order."""
    rank, base = draw(st.integers(1, 7)), draw(st.sampled_from((-23, -4, 0, 9, 98)))
    n = draw(st.integers(1, 5))
    parts = [(base + i, base + i + draw(st.integers(0, rank + 1)))
             for i in draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))]
    if draw(st.booleans()):  # pair the lefts and the js, each sorted descending
        parts = list(zip(*[sorted(c, reverse=True) for c in zip(*parts)]))
        rank = max(rank, span(Multisegment(Segment(*p) for p in parts)))
    return Multisegment(Segment(*p) for p in parts), rank


@PROPERTY
@given(closure_seeds())
@example((Multisegment([Segment(-12, -3)]), 9))  # one part
@example((Multisegment([Segment(10, 11), Segment(-5, -4)]), 3))  # one member
@example((Multisegment([Segment(-10, 12), Segment(-10, 12), Segment(-11, 10)]), 22))
def test_closure_text_is_its_members_one_per_line(case):
    ms, rank = case
    cs = closure(ms, rank)
    assert str(cs) == "\n".join(map(str, cs.members))


@PROPERTY
@given(ranked_multisegments(max_parts=6))
def test_parse_inverts_str(case):
    ms, _ = case
    assert parse_multisegment(str(ms)) == ms


@st.composite
def lweights(draw):
    """LWeights with mixed-sign exponents; the empty draw is the identity."""
    exp = {}
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(-3, 4))
        exp[Segment(i, i + draw(st.integers(0, 6)))] = draw(
            st.integers(-4, 4).filter(bool)
        )
    return LWeight(exp)


@PROPERTY
@given(lweights())
@example(LWeight.identity())
def test_parse_lweight_inverts_str(w):
    assert parse_lweight(str(w)) == w


def segment_order_key(w):
    """sort_key as first written: the segments sorted, then their exponents."""
    return tuple((seg.i, seg.j, w.exponent(seg)) for seg in sorted(w.support()))


def render_by_segment(w):
    """str(LWeight) as first written, from each Segment's own str."""
    return " * ".join(f"w{seg}^{w.exponent(seg)}" for seg in sorted(w.support())) or "1"


def _w(*factors):
    return LWeight({Segment(i, j): e for i, j, e in factors})


@PROPERTY
@given(st.lists(st.tuples(lweights(), st.integers(1, 3)), max_size=8))
@example([(_w((0, 1, 1)), 2), (LWeight.identity(), 1), (_w((-1, 0, -1)), 3)])
@example([(_w((0, 1, 1), (2, 3, -1)), 1), (_w((0, 1, 1)), 2)])  # a proper prefix
@example([(_w((0, 2, 2)), 1), (_w((0, 2, 1), (1, 2, 1)), 1), (_w((0, 2, 1)), 3)])
@example([(_w((-12, -3, -10), (10, 15, 1)), 1), (_w((-3, 10, 11)), 2),
          (_w((-12, 4, 2)), 1)])
@example([])
def test_qchar_renders_each_term_from_its_sort_key(terms):
    q = QChar(terms)
    ordered = sorted(q.terms().items(), key=lambda kv: segment_order_key(kv[0]))
    assert all(w.sort_key() == segment_order_key(w) for w, _ in ordered)
    assert str(q) == "\n".join(f"{m} * {render_by_segment(w)}" for w, m in ordered)
    assert json_qchar_terms(QChar(q.terms())) == [
        {"weight": json_lweight(w), "mult": m} for w, m in ordered
    ]
    if not terms:
        assert (str(q), json_qchar_terms(QChar(q.terms()))) == ("", [])


def run_with_dominant_weights(weights, *flags):
    """cli stdout for dominant-weights when the keyed weigher returns weights."""
    out = io.StringIO()
    keyed = QChar(dict.fromkeys(weights, 1))
    with patch.object(qchars, "_weight_keys", lambda ms, rank: keyed):
        with redirect_stdout(out):
            assert cli.run(["dominant-weights", "--rank", "1", "[0,1]", *flags]) == 0
    return out.getvalue()


@PROPERTY
@given(st.lists(lweights(), max_size=8))
@example([LWeight.identity(), _w((0, 1, 1)), _w((0, 1, 1), (2, 3, 1))])
@example([])
def test_dominant_weights_render_from_sorted_sort_keys(weights):
    # the renderers against rendering each weight from its own sort_key
    keys = sorted({w.sort_key() for w in weights})
    text = "\n".join(map(LWeight._format, keys))
    assert run_with_dominant_weights(weights) == text + "\n"
    factors = [[{"segment": [i, j], "exp": e} for i, j, e in k] for k in keys]
    assert json.loads(run_with_dominant_weights(weights, "--json")) == {
        "weights": factors
    }


@st.composite
def fundamentals(draw, max_rank=4):
    """fundamental_qchar of a non-degenerate segment at a small rank."""
    rank = draw(st.integers(1, max_rank))
    i = draw(st.integers(-2, 3))
    return fundamental_qchar(Segment(i, i + draw(st.integers(1, rank))), rank)


def weight_lists(max_size):
    return st.lists(st.tuples(lweights(), st.integers(1, 3)), max_size=max_size)


# the ways a character is built: from terms, as int keys, as a product
QCHARS = st.one_of(
    weight_lists(8).map(QChar),
    fundamentals(),
    st.tuples(fundamentals(3), fundamentals(3)).map(lambda ab: ab[0] * ab[1]),
)
SMALL_QCHARS = st.one_of(weight_lists(4).map(QChar), fundamentals(3))


@PROPERTY
@given(QCHARS, lweights(), st.data())
def test_qchar_agrees_with_its_terms(q, other, data):
    terms = q.terms()
    rebuilt = QChar(terms)
    # a fundamental character's table holds factors no term uses
    assert rebuilt == q and q == rebuilt and str(rebuilt) == str(q)
    assert QChar(list(terms.items())) == q
    assert (len(q), q.total_mass()) == (len(terms), sum(terms.values()))
    assert q.support() == set(terms)
    assert q.dominant_part() == {w: m for w, m in terms.items() if w.is_dominant}
    assert all(q.multiplicity(w) == m for w, m in terms.items())
    assert q.multiplicity(other) == terms.get(other, 0)
    # a weight made of factors in q's table, a term or not
    picked = data.draw(st.lists(st.sampled_from(q._factors), max_size=4)
                       if q._factors else st.just([]))
    w = LWeight(dict(picked))
    assert q.multiplicity(w) == terms.get(w, 0)


@PROPERTY
@given(SMALL_QCHARS, SMALL_QCHARS, SMALL_QCHARS)
def test_qchar_product_commutes_and_associates(a, b, c):
    assert a * b == b * a and str(a * b) == str(b * a)
    assert (a * b) * c == a * (b * c)
    assert (a * b).total_mass() == a.total_mass() * b.total_mass()
    assert a * QChar.one() == a


# characters whose exponents reach past one byte: every slot width
SCALED = st.tuples(weight_lists(4), st.sampled_from([1, 64, 300, 2 ** 15, 2 ** 40])).map(
    lambda ws: QChar([(w ** ws[1], m) for w, m in ws[0]]))


@PROPERTY
@given(st.lists(st.one_of(SMALL_QCHARS, SCALED, st.just(QChar.one())), min_size=1,
                max_size=3), st.booleans())
def test_packed_rows_match_the_tuple_keys(chars, dominant):
    q, oracle = _convolve(chars, dominant), keyed_product(chars, dominant)
    assert str(q) == str(oracle)
    assert json_qchar_terms(q) == json_qchar_terms(oracle)
    assert q._keymap is None and q._factors == oracle._factors
    assert list(q._keys.items()) == sorted(oracle._keys.items())


@st.composite
def small_products(draw):
    """(ms, rank) of one to three valid parts at rank <= 4, degenerate ones too."""
    rank = draw(st.integers(1, 4))
    parts = draw(st.lists(st.builds(lambda i, n: Segment(i, i + n), st.integers(-4, 4),
                                    st.integers(0, rank + 1)), min_size=1, max_size=3))
    return Multisegment(parts), rank


@PROPERTY
@given(small_products())
def test_cli_products_match_the_tuple_keys(case):
    ms, rank = case
    for got, want in [(weyl_qchar(ms, rank), keyed_qchar(ms, rank)),
                      (_dominant(ms, rank), keyed_qchar(ms, rank, dominant=True))]:
        assert str(got) == str(want) and json_qchar_terms(got) == json_qchar_terms(want)
        assert got._keys == want._keys and list(got._keys) == sorted(want._keys)


def shifted(ms, d):
    return Multisegment(p.shift(d) for p in ms)


def shifted_weight(w, d):
    return LWeight({seg.shift(d): e for seg, e in w.exponents().items()})


# the searches memoized up to translation, each with the form its callers pass
MEMOIZED = [(qchars._weight_keys, sort_plus), (_dominant, lambda ms: ms)]


@PROPERTY
@given(ranked_multisegments(max_parts=4), st.integers(-40, 40))
def test_shifting_a_tuple_shifts_its_dominant_weights(case, d):
    # the translate comes right after its shape, so the memo answers it
    ms, rank = case
    weights, part = weyl_dominant_weights(ms, rank), weyl_dominant_part(ms, rank)
    moved = shifted(ms, d)
    assert weyl_dominant_weights(moved, rank) == {shifted_weight(w, d) for w in weights}
    assert weyl_dominant_part(moved, rank) == {
        shifted_weight(w, d): m for w, m in part.items()}


@PROPERTY
@given(ranked_multisegments(max_parts=4), st.integers(-40, 40))
def test_a_memo_hit_is_the_search_of_the_translate(case, d):
    ms, rank = case
    for search, form in MEMOIZED:
        moved = form(shifted(ms, d))
        with patch.dict(search.memo, clear=True):
            search(form(ms), rank)
            got = search(moved, rank)
            assert len(search.memo) == 1  # the translate was a hit
        want = search.__wrapped__(moved, rank)
        assert (got._factors, got._keys, str(got)) == (want._factors, want._keys, str(want))


@PROPERTY
@given(ranked_multisegments(max_parts=4), st.integers(-40, 40))
def test_an_invalid_translate_fails_as_the_search_does(case, d):
    # a translate is valid at the rank of its shape; at a lower rank the
    # longest part is not, and the memo neither answers nor keeps it
    ms, rank = case
    low = max(p.length for p in ms) - 2
    assume(low >= 0)
    for search, form in MEMOIZED:
        moved = form(shifted(ms, d))
        with patch.dict(search.memo, clear=True):
            search(form(ms), rank)
            with pytest.raises(InvalidSegment) as got:
                search(moved, low)
            assert len(search.memo) == 1
        with pytest.raises(InvalidSegment) as want:
            search.__wrapped__(moved, low)
        assert str(got.value) == str(want.value)


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


@st.composite
def near_lattice_weights(draw):
    """(w, rank): a lattice element times one stray factor of length 0..rank + 2."""
    rv, rank = draw(ranked_root_vectors())
    i = draw(st.integers(-3, 4))
    stray = LWeight({Segment(i, i + draw(st.integers(0, rank + 2))): 1})
    return compose_roots(rv, rank) * stray ** draw(st.sampled_from([-1, 1])), rank


@PROPERTY
@given(st.one_of(st.tuples(lweights(), st.integers(1, 6)), near_lattice_weights()))
def test_decompose_recomposes_or_refuses(case):
    w, rank = case
    try:
        rv = decompose_into_roots(w, rank)
    except NotInRootLattice:
        return
    assert compose_roots(rv, rank) == w
