import copy
import io
import json
import math
import pickle
import random
import sys
import threading
from collections import Counter
from contextlib import redirect_stdout
from unittest.mock import patch

import pytest

from helpers import (
    counted_lweights,
    criterion2_instances,
    json_qchar_terms,
    keyed_product,
    keyed_qchar,
    path_product,
    per_term_text,
    random_connected_pair,
    random_doubly_sorted,
    random_multisegment,
)

from weylcalc import cli
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
from weylcalc import qchars
from weylcalc.qchars import _convolve, _dominant


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
        assert repr(one) == "QChar(1 terms, mass 1)"
        assert (one == 1) is False
        with pytest.raises(TypeError):
            one * 2

    def test_convolution(self):
        a = fundamental_qchar(Segment(0, 1), 2)
        b = fundamental_qchar(Segment(2, 3), 2)
        prod = a * b
        assert prod.total_mass() == a.total_mass() * b.total_mass()
        assert prod.multiplicity(w(0, 1) * w(2, 3)) == 1

    def test_rendering_sorted_and_stable(self):
        q = fundamental_qchar(Segment(0, 1), 2)
        assert str(q) == "1 * w[0,1]^1\n1 * w[0,2]^1 * w[1,2]^-1\n1 * w[1,3]^-1"

    @pytest.mark.parametrize("pairs, rank, size", [
        (((0, 5),), 10, 462),
        (((25, 27), (20, 23), (24, 25)), 5, 1800),
    ])
    def test_rendering_of_factor_heavy_characters_follows_sort_keys(
        self, pairs, rank, size
    ):
        # the ranked factor table against rendering each term from its own
        # sort_key, on characters whose terms carry up to 11 factors
        q = weyl_qchar(M(*pairs), rank)
        ordered = sorted((w.sort_key(), m) for w, m in q.terms().items())
        assert len(ordered) == size
        assert str(q) == "\n".join(
            f"{m} * {LWeight._format(key)}" for key, m in ordered
        )
        assert json_qchar_terms(QChar(q.terms())) == [
            {"weight": [{"segment": [i, j], "exp": e} for i, j, e in key], "mult": m}
            for key, m in ordered
        ]

    def test_rejects_keys_that_are_not_lweights(self):
        with pytest.raises(TypeError, match="expected LWeight key, got str"):
            QChar({"x": 1})
        with pytest.raises(TypeError, match="expected LWeight key, got Segment"):
            QChar([(Segment(0, 1), 1)])

    def test_rejects_multiplicities_that_are_not_ints(self):
        with pytest.raises(TypeError, match="expected int multiplicity, got float"):
            QChar({LWeight.identity(): 1.5})
        with pytest.raises(TypeError, match="expected int multiplicity, got str"):
            QChar([(w(0, 1), "2")])
        with pytest.raises(PreconditionViolated):
            QChar({w(0, 1): -1})
        assert str(QChar([(w(0, 1), 2), (w(0, 1), 1), (w(1, 2), 0)])) == "3 * w[0,1]^1"


def rendered(terms):
    """str and json_qchar_terms of a weight map, each term from its own sort_key."""
    ordered = sorted((w.sort_key(), m) for w, m in terms.items())
    text = "\n".join(f"{m} * {LWeight._format(key)}" for key, m in ordered)
    records = [
        {"weight": [{"segment": [i, j], "exp": e} for i, j, e in key], "mult": m}
        for key, m in ordered
    ]
    return text, records


def check_product_against_paths(ms, rank):
    q = weyl_qchar(ms, rank)
    oracle = path_product(ms, rank)
    assert q.terms() == oracle, (ms, rank)
    text, records = rendered(oracle)
    assert str(q) == text
    assert json_qchar_terms(q) == records
    return q


def dominant_terms(terms):
    return {wt: m for wt, m in terms.items() if wt.is_dominant}


def interacting_tuples(rng, count):
    """(ms, rank) whose parts start close together, so that they interact.

    About a third of the tuples have several dominant terms and a fifth a
    degenerate part; an empty part list is the empty product, ().
    """
    for _ in range(count):
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
        yield (Multisegment(parts) if parts else ()), rank


class TestNoWeightPerPath:
    """Characters, their products and renderings make no LWeight per term."""

    def test_largest_shape_builds_no_lweight(self):
        out = io.StringIO()
        with counted_lweights() as calls:
            q = fundamental_qchar(Segment(0, 7), 14)
            text = str(q)
            records = json_qchar_terms(q)
            with redirect_stdout(out):
                assert cli.run(["qchar", "--rank", "14", "[0,7]"]) == 0
                assert cli.run(["qchar", "--rank", "14", "[0,7]", "--json"]) == 0
            assert calls == []
            # the counter sees the weights that terms() builds
            assert len(q.terms()) == len(calls) == 6435
        assert out.getvalue() == f"{text}\n{json.dumps({'terms': records})}\n"

    def test_largest_product_builds_no_lweight(self):
        argv = ["qchar", "--rank", "5", "[25,27][20,23][24,25]"]
        out = io.StringIO()
        with counted_lweights() as calls:
            q = weyl_qchar(M((25, 27), (20, 23), (24, 25)), 5)
            text = str(q)
            records = json_qchar_terms(q)
            pair = fundamental_qchar(Segment(25, 27), 5) * fundamental_qchar(
                Segment(20, 23), 5)
            with redirect_stdout(out):
                assert cli.run(argv) == 0
                assert cli.run(argv + ["--json"]) == 0
            assert calls == []
        assert (len(q), len(pair)) == (1800, 300)
        assert out.getvalue() == f"{text}\n{json.dumps({'terms': records})}\n"

    @pytest.mark.parametrize("pairs, rank, size", [
        (((0, 2), (1, 3), (2, 4), (3, 5), (4, 6)), 4, 46),
        (((25, 27), (25, 27), (26, 28)), 4, 2),
        (((0, 1), (0, 3)), 2, 1),
        (((0, 0), (3, 3)), 2, 1),
    ])
    def test_dominant_part_builds_only_the_weights_it_returns(self, pairs, rank, size):
        with counted_lweights() as calls:
            part = weyl_dominant_part(M(*pairs), rank)
            assert len(calls) == len(part) == size

    def test_cli_dominant_builds_no_lweight(self):
        argv = ["dominant", "--rank", "4", "[0,2][1,3][2,4][3,5][4,6]"]
        part = weyl_dominant_part(M((0, 2), (1, 3), (2, 4), (3, 5), (4, 6)), 4)
        out = io.StringIO()
        with counted_lweights() as calls:
            with redirect_stdout(out):
                assert cli.run(argv) == 0
                assert cli.run(argv + ["--json"]) == 0
            assert calls == []
        text, records = rendered(part)
        assert out.getvalue() == f"{text}\n{json.dumps({'terms': records})}\n"


class TestProductAgainstPaths:
    """weyl_qchar, str and JSON against path_product, which multiplies LWeights."""

    @pytest.mark.parametrize("pairs, rank", [
        # the five products of the enumerate benchmark (seed 0)
        (((25, 30), (23, 27)), 5),
        (((25, 27), (20, 23), (24, 25)), 5),
        (((25, 26), (25, 27)), 4),
        (((26, 28), (20, 21), (22, 25)), 3),
        (((21, 24), (24, 28)), 4),
    ])
    def test_benchmark_products(self, pairs, rank):
        check_product_against_paths(M(*pairs), rank)

    @pytest.mark.parametrize("pairs, rank, top", [
        (((0, 2), (0, 2)), 4, 2),
        (((0, 2), (0, 2), (0, 2)), 3, 3),
        (((1, 2), (1, 2), (0, 4), (1, 2)), 3, 3),
    ])
    def test_repeated_parts(self, pairs, rank, top):
        q = check_product_against_paths(M(*pairs), rank)
        assert max(abs(e) for wt in q.terms() for e in wt.exponents().values()) == top

    def test_random_interacting_tuples(self):
        for ms, rank in interacting_tuples(random.Random(66), 150):
            check_product_against_paths(ms, rank)


class TestPackedEdges:
    """Slot widths past one byte, and products with the identity or nothing."""

    def test_a_130_fold_power_needs_two_byte_slots(self):
        # [0,1] at rank 1 has the character w[0,1] + w[1,2]^-1, so exponents
        # reach 130 and -130
        q = weyl_qchar(M(*[(0, 1)] * 130), 1)
        assert q.terms() == {
            w(0, 1, k) * w(1, 2, k - 130): math.comb(130, k) for k in range(131)
        }
        assert q.total_mass() == 2 ** 130

    @pytest.mark.parametrize("e", [200, 2 ** 70])
    def test_large_exponents_times_a_fundamental_character(self, e):
        q = QChar({w(0, 1, e) * w(1, 2, -e): 3, w(0, 2, -e): 2, w(1, 2): 1,
                   LWeight.identity(): 1})
        f = fundamental_qchar(Segment(0, 1), 2)
        expected = Counter()
        for wa, ma in q.terms().items():
            for wb, mb in f.terms().items():
                expected[wa * wb] += ma * mb
        text, records = rendered(expected)
        for product in (q * f, f * q):
            assert product.terms() == dict(expected)
            assert str(product) == text
            assert json_qchar_terms(product) == records

    def test_identity_and_empty_tables(self):
        one, f = QChar.one(), fundamental_qchar(Segment(0, 1), 2)
        assert one * one == one and str(one * one) == "1 * 1"
        assert one * f == f == f * one and str(one * f) == str(f)
        assert (QChar({LWeight.identity(): 2}) * f).terms() == dict.fromkeys(f.terms(), 2)
        empty = QChar()
        for product in (empty * f, f * empty, empty * one, empty * empty):
            assert (len(product), product.terms(), str(product)) == (0, {}, "")


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


def check_against_paths(seg, rank):
    """str, JSON and terms() of fundamental_qchar against the path weights,
    each rendered on its own from its sort_key."""
    q = fundamental_qchar(seg, rank)
    oracle = Counter(path_weight(g, rank) for g in enumerate_paths(seg, rank))
    ordered = sorted((w.sort_key(), m) for w, m in oracle.items())
    assert q.terms() == dict(oracle), (seg, rank)
    assert str(q) == "\n".join(f"{m} * {LWeight._format(key)}" for key, m in ordered)
    assert json_qchar_terms(q) == [
        {"weight": [{"segment": [i, j], "exp": e} for i, j, e in key], "mult": m}
        for key, m in ordered
    ]


class TestFundamentalAgainstPaths:
    """fundamental_qchar writes int keys from down-steps; path_weight is the oracle."""

    def test_terms_are_the_path_weights(self):
        for rank in range(1, 11):
            for ln in range(1, rank + 1):
                for i in (-3, 0, 5):
                    check_against_paths(Segment(i, i + ln), rank)

    def test_largest_benchmark_shape(self):
        check_against_paths(Segment(0, 7), 14)

    def test_keys_are_built_in_ascending_order(self):
        # the renderers' sort is then a linear pass; check_against_paths
        # is the oracle for the keys' content
        for rank in range(1, 11):
            for ln in range(1, rank + 1):
                keys = list(fundamental_qchar(Segment(-2, -2 + ln), rank)._keys)
                assert keys == sorted(keys), (ln, rank)
                assert all(a < b for k in keys for a, b in zip(k, k[1:])), (ln, rank)

    def test_tables_list_only_used_factors_in_sorted_order(self):
        # no degenerate [j,j] or [i,i+rank+1] slot and no corner a path lacks
        for rank in range(1, 10):
            for ln in range(1, rank + 1):
                seg = Segment(1, 1 + ln)
                q = fundamental_qchar(seg, rank)
                used = {r for k in q._keys for r in k}
                assert used == set(range(len(q._factors))), (seg, rank)
                assert q._factors == sorted(q._factors), (seg, rank)
                assert q.terms() == {
                    path_weight(g, rank): 1 for g in enumerate_paths(seg, rank)
                }

    def test_one_part_weyl_character_is_the_fundamental_one(self):
        for rank in range(1, 6):
            for ln in range(1, rank + 1):
                seg = Segment(2, 2 + ln)
                assert weyl_qchar(M((2, 2 + ln)), rank) == fundamental_qchar(seg, rank)


class TestTailText:
    """A fundamental character's str takes the walk of its keys on texts."""

    def test_every_shape_to_rank_10(self):
        for rank in range(1, 11):
            for ln in range(1, rank + 1):
                for i in (-13, -1, 0, 9, 123):
                    q = fundamental_qchar(Segment(i, i + ln), rank)
                    assert q._shape == (ln, rank + 1 - ln)
                    assert str(q) == per_term_text(q), (i, ln, rank)

    def test_any_segment_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(st.integers(1, 12), st.integers(-10**6, 10**6), st.data())
        def check(rank, i, data):
            seg = Segment(i, i + data.draw(st.integers(1, rank)))
            q = fundamental_qchar(seg, rank)
            assert str(q) == per_term_text(q)
            assert str(weyl_qchar(M(seg), rank)) == str(q)

        check()

    def test_largest_benchmark_shape_renders_without_rows(self):
        q = fundamental_qchar(Segment(34, 41), 14)
        want = per_term_text(q)
        out = io.StringIO()
        joins = AssertionError("a join per term")
        with patch.object(QChar, "_rows", side_effect=joins):
            text = str(q)
            with redirect_stdout(out):
                assert cli.run(["qchar", "--rank", "14", "[34,41]"]) == 0
        assert text == want and out.getvalue() == want + "\n"
        assert text.count("\n") + 1 == len(q) == 6435

    def test_other_characters_keep_the_per_term_rows(self):
        f = fundamental_qchar(Segment(-2, 0), 4)
        rebuilt = QChar(f.terms())
        chars = [f * fundamental_qchar(Segment(1, 2), 4), rebuilt, f * QChar.one(),
                 _dominant(M((-2, 0), (1, 2)), 4)]
        assert str(rebuilt) == str(f)
        for q in chars:
            assert q._shape is None
            rows = []
            real = QChar._rows

            def spy(self, *args):
                rows.append(self)
                return real(self, *args)

            with patch.object(QChar, "_rows", spy):
                text = str(q)
            # a product joins its columns' chunk texts once a row; a
            # character built from terms joins each term's rendered factors
            assert rows == ([] if q._cols else [q]) and text == per_term_text(q)
        assert [q._cols is None for q in chars] == [False, True, False, False]


class TestPickleAndCopy:
    @pytest.mark.parametrize("make", [
        lambda: fundamental_qchar(Segment(-1, 1), 3),
        lambda: fundamental_qchar(Segment(0, 1), 2) * fundamental_qchar(
            Segment(1, 3), 2),
        lambda: _dominant(M((0, 2), (1, 3), (2, 4)), 4),
        lambda: QChar({w(0, 1) * w(1, 3, -1): 2, w(2, 2): 1}),
        QChar.one,
    ], ids=["fundamental", "product", "dominant", "terms", "one"])
    def test_round_trips_keep_terms_and_text(self, make):
        q = make()
        clones = [pickle.loads(pickle.dumps(q, protocol))
                  for protocol in range(0, pickle.HIGHEST_PROTOCOL + 1)]
        for back in clones + [copy.copy(q), copy.deepcopy(q)]:
            assert type(back) is QChar
            assert back == q and str(back) == str(q)
            assert (back._factors, back._keys, back._shape) == (
                q._factors, q._keys, q._shape)

    @pytest.mark.parametrize("make", [
        lambda: fundamental_qchar(Segment(-1, 1), 3),
        lambda: weyl_qchar(M((0, 2), (1, 3)), 3),
        lambda: _dominant(M((0, 2), (1, 3), (2, 4)), 4),
    ], ids=["fundamental", "product", "dominant"])
    def test_the_pickle_does_not_hold_built_keys(self, make):
        # keys built from the shape or the columns are not carried
        q = make()
        before = pickle.dumps(q, 0)
        assert q._keys and pickle.dumps(q, 0) == before
        assert pickle.loads(before)._keymap is None


class TestPackedRows:
    """A product's rows, sorted on their packed sums, against the tuple keys.

    helpers.keyed_product decodes each term to its tuple of factor indices
    and sorts those, as _convolve did before its rows were sorted on bytes.
    """

    @staticmethod
    def check(q, oracle):
        text, records = str(q), json_qchar_terms(q)
        assert (len(q), q.total_mass()) == (len(oracle), oracle.total_mass())
        assert q._cols is None or q._keymap is None  # rows read the columns alone
        assert q._factors == oracle._factors
        assert text == str(oracle) == per_term_text(oracle)
        assert records == json_qchar_terms(oracle)
        assert list(q._keys.items()) == sorted(oracle._keys.items())

    def test_len_and_repr_of_a_product_build_no_keys(self):
        # a product's length and mass are its rows': the 1,800-term product
        # of the enumerate corpus and a dominant part build no keys for them
        for ms, rank, dominant in [(M((25, 27), (20, 23), (24, 25)), 5, False),
                                   (M((0, 2), (1, 3), (2, 4)), 4, True)]:
            q = _dominant(ms, rank) if dominant else weyl_qchar(ms, rank)
            oracle = keyed_qchar(ms, rank, dominant)
            assert (len(q), repr(q)) == (len(oracle), repr(oracle)), (ms, rank)
            assert q.total_mass() == oracle.total_mass() and q._keymap is None
        assert len(weyl_qchar(M((25, 27), (20, 23), (24, 25)), 5)) == 1800

    def test_a_products_rows_join_as_the_unpacked_rows_do(self):
        # a separator join must meet every factor pair of a row, also where
        # the row's pieces come from different columns
        q = weyl_qchar(M((25, 27), (20, 23), (24, 25)), 5)
        unpacked = QChar(q.terms())
        assert len(q._cols[0]) > 1 and unpacked._cols is None
        assert str(q) == str(unpacked) and q._json() == unpacked._json()
        assert str(q).split("\n", 1)[0] == "1 * w[20,23]^1 * w[24,25]^1 * w[25,27]^1"

    def test_random_interacting_tuples(self):
        for ms, rank in interacting_tuples(random.Random(68), 300):
            self.check(weyl_qchar(ms, rank), keyed_qchar(ms, rank))
            self.check(_dominant(ms, rank), keyed_qchar(ms, rank, dominant=True))

    def test_negative_one_part_and_degenerate_tuples(self):
        cases = [(M((-5, -3), (-4, -1)), 3), (M((-2, 0)), 3),
                 (M((0, 0), (1, 5), (3, 3)), 3), (M((0, 0), (2, 4), (-1, 1), (3, 3)), 3),
                 (M((-7, -6), (-7, -6)), 2)]
        for ms, rank in cases:
            self.check(weyl_qchar(ms, rank), keyed_qchar(ms, rank))
            self.check(_dominant(ms, rank), keyed_qchar(ms, rank, dominant=True))

    def test_identity_and_empty_characters(self):
        one, f = QChar.one(), fundamental_qchar(Segment(-1, 0), 2)
        for chars in [(one, one), (one, f), (f, one), (QChar(), f), (one,)]:
            q = _convolve(chars)
            self.check(q, keyed_product(chars))
        assert str(_convolve((one, one))) == "1 * 1"
        assert str(_convolve((QChar(), f))) == "" and len(_convolve((QChar(), f))) == 0

    def test_a_130_fold_power_on_two_byte_slots(self):
        chars = [fundamental_qchar(Segment(0, 1), 1)] * 130
        self.check(_convolve(chars), keyed_product(chars))
        self.check(_convolve(chars, dominant=True), keyed_product(chars, dominant=True))

    def test_a_two_byte_slot_that_ends_in_0xff_keeps_its_byte(self):
        # e = 256 sits in its slot as d - 1 = 0x80ff, so the bytes of w[0,1]^256
        # end in 0xff; stripping it alone would sort it before w[0,1]^53 (0x8034)
        q = QChar({w(0, 1, 256): 1, w(0, 1, 53): 2, w(0, 1, 256) * w(1, 2, -3): 1,
                   w(1, 2, -256): 1, LWeight.identity(): 1})
        for chars in [(q, QChar.one()), (q, fundamental_qchar(Segment(0, 1), 2)),
                      (fundamental_qchar(Segment(0, 1), 2), q)]:
            product = _convolve(chars)
            self.check(product, keyed_product(chars))
        lines = str(q * QChar.one()).splitlines()
        assert lines[:4] == ["1 * 1", "2 * w[0,1]^53", "1 * w[0,1]^256",
                             "1 * w[0,1]^256 * w[1,2]^-3"]

    @pytest.mark.parametrize("e", [127, 128, 2 ** 15, 2 ** 31, 2 ** 70])
    def test_every_width_orders_as_sort_key(self, e):
        q = QChar({w(0, 1, e) * w(1, 2, -e): 3, w(0, 2, -e): 2, w(1, 2): 1,
                   w(0, 1, 1 - e): 1, LWeight.identity(): 1})
        f = fundamental_qchar(Segment(0, 1), 2)
        for chars in [(q, f), (f, q), (q, q)]:
            self.check(_convolve(chars), keyed_product(chars))
            self.check(_convolve(chars, dominant=True), keyed_product(chars, dominant=True))

    def test_every_corpus_and_golden_op_gives_the_oracle_bytes(self):
        from make_cli_golden import invoke, load_golden
        from helpers import perfbench_corpus

        corpus = perfbench_corpus()
        cases = {(tuple(c["argv"]), c["stdin"]) for c in load_golden()
                 if c["argv"][:1] in (["qchar"], ["dominant"])}
        for workload in ("enumerate", "decide", "cli-mix"):
            for seed in (0, 1):
                cases |= {(op.argv, op.stdin) for op in corpus.build(workload, seed)
                          if op.argv[0] in ("qchar", "dominant")}
        assert len(cases) == 150
        for argv, stdin in sorted(cases, key=str):
            got = invoke(list(argv), stdin)
            with patch.object(qchars, "weyl_qchar", keyed_qchar), \
                    patch.object(qchars, "_dominant", lambda ms, r: keyed_qchar(ms, r, True)):
                assert invoke(list(argv), stdin) == got, argv


class TestLazyKeys:
    """A character is built in the form its output reads; keys wait for a reader."""

    @staticmethod
    def spied_tails():
        heads, real = [], qchars._tails

        def spy(length, ups, at, head, empty):
            heads.append(head)
            return real(length, ups, at, head, empty)

        return heads, patch.object(qchars, "_tails", spy)

    def test_str_and_a_single_segment_op_walk_the_paths_once_on_texts(self):
        heads, spy = self.spied_tails()
        out = io.StringIO()
        with spy:
            q = fundamental_qchar(Segment(3, 6), 8)
            assert heads == [] and q._keymap is None
            text = str(q)
            assert heads == ["1"] and q._keymap is None
            with redirect_stdout(out):
                assert cli.run(["qchar", "--rank", "8", "[3,6]"]) == 0
            assert heads == ["1", "1"]
            assert len(q._keys) == math.comb(9, 3) and heads == ["1", "1", ()]
        assert out.getvalue() == text + "\n" and text == per_term_text(q)

    def test_products_pack_each_factor_from_its_walk_on_ints(self):
        heads, spy = self.spied_tails()
        with spy, patch.dict(_dominant.memo, clear=True):  # no shape kept by an earlier test
            q = weyl_qchar(M((0, 2), (1, 3), (5, 5)), 3)
            d = _dominant(M((0, 2), (1, 3)), 3)
            assert heads == [0, 0, 0, 0]
            str(q), str(d), json_qchar_terms(q)
            assert heads == [0, 0, 0, 0] and q._keymap is None and d._keymap is None
        assert q == QChar(path_product(M((0, 2), (1, 3)), 3))


class TestTranslatedMemo:
    """_dominant and _weight_keys answer a translate of a kept shape from the memo."""

    def test_a_hit_builds_no_keys_until_read(self):
        ms, moved = M((0, 2), (1, 3), (2, 4)), M((7, 9), (8, 10), (9, 11))
        with patch.dict(_dominant.memo, clear=True):
            first = _dominant(ms, 4)
            assert first._keys  # the miss's caller reads its keys: the memo keeps none
            q = _dominant(moved, 4)
            assert len(_dominant.memo) == 1 and q is not first
            text = (len(q), repr(q), str(q), json_qchar_terms(q))
            assert q._keymap is None
            again = _dominant(ms, 4)  # a hit at the kept place shares the table
            assert again._factors is first._factors and again._keymap is None
        want = _dominant.__wrapped__(moved, 4)
        assert text == (len(want), repr(want), str(want), json_qchar_terms(want))
        assert (q._factors, q._keys) == (want._factors, want._keys)

    def test_a_hit_pickles_and_copies(self):
        with patch.dict(_dominant.memo, clear=True), \
                patch.dict(qchars._weight_keys.memo, clear=True):
            _dominant(M((0, 2), (1, 3), (2, 4)), 4)
            qchars._weight_keys(M((1, 3), (0, 2)), 2)
            hits = [_dominant(M((-5, -3), (-4, -2), (-3, -1)), 4),
                    qchars._weight_keys(M((4, 6), (3, 5)), 2)]
        for q in hits:
            before = pickle.dumps(q, 0)
            clones = [pickle.loads(pickle.dumps(q, protocol))
                      for protocol in range(0, pickle.HIGHEST_PROTOCOL + 1)]
            for back in clones + [copy.copy(q), copy.deepcopy(q)]:
                assert type(back) is QChar and back == q and str(back) == str(q)
                assert (back._factors, back._keys) == (q._factors, q._keys)
            assert pickle.dumps(q, 0) == before  # keys read since are not carried

    def test_the_memo_keeps_its_bound_dropping_the_oldest(self):
        shapes = [M((0, 1), (k, k + 1)) for k in range(2, qchars._SHAPES + 12)]
        with patch.dict(_dominant.memo, clear=True):
            for ms in shapes:
                _dominant(ms, 1)
                assert len(_dominant.memo) <= qchars._SHAPES
            kept = list(_dominant.memo)
        assert kept == [(tuple(map(tuple, ms)), 1) for ms in shapes[-qchars._SHAPES:]]

    def test_threads_evicting_at_once_raise_nothing(self):
        # four threads on two cores, switching every microsecond, each on its
        # own translates of 50 shapes, through a two-shape memo: misses evict
        # while hits read, and every answer is the search's
        shapes = [M((d, d + 1), (d + k, d + k + 1)) for k in range(2, 52)
                  for d in (0, 7, -3, 20)]
        errors, sizes = [], []

        def run(part):
            try:
                for ms in part:
                    assert str(_dominant(ms, 1)) == str(_dominant.__wrapped__(ms, 1))
                    sizes.append(len(_dominant.memo))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        threads = [threading.Thread(target=run, args=(shapes[k::4],)) for k in range(4)]
        try:
            sys.setswitchinterval(1e-6)
            with patch.dict(_dominant.memo, clear=True), patch.object(qchars, "_SHAPES", 2):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # a check and its eviction may interleave: each thread adds one at most
        assert errors == [] and len(sizes) == 200 and max(sizes) <= 2 + len(threads) - 1


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
        assert str(weyl_qchar(M((0, 0), (1, 5), (3, 3)), 3)) == "1 * 1"

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
        for ms, rank in interacting_tuples(random.Random(66), 400):
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

    def test_criterion2_corpus_against_paths(self):
        # an oracle that shares no code with _convolve
        for ms, rank in criterion2_instances():
            expected = dominant_terms(path_product(ms, rank))
            assert weyl_dominant_part(ms, rank) == expected, (ms, rank)

    def test_random_tuples_against_paths(self):
        for ms, rank in interacting_tuples(random.Random(67), 150):
            expected = dominant_terms(path_product(ms, rank))
            assert weyl_dominant_part(ms, rank) == expected, (ms, rank)

    def test_a_130_fold_power_needs_two_byte_slots(self):
        assert weyl_dominant_part(M(*[(0, 1)] * 130), 1) == {w(0, 1, 130): 1}

    def test_wide_slots_against_paths(self):
        # [0,1] and [1,2] at rank 1 each reach |e| = 65: two-byte slots
        ms = M(*[(0, 1)] * 65, *[(1, 2)] * 65)
        part = weyl_dominant_part(ms, 1)
        assert part == {w(0, 1, k) * w(1, 2, k): math.comb(65, k) for k in range(66)}
        assert (len(part), sum(part.values())) == (66, 2 ** 65)
        assert part == dominant_terms(path_product(ms, 1))

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

    def test_equal_right_endpoints_are_weakly_decreasing_but_not_connected(self):
        # equal j passes the order test and fails at the connection test
        with pytest.raises(PreconditionViolated,
                           match="^pair_simple_qchar needs a connected pair$"):
            pair_simple_qchar(M((0, 2), (1, 2)), 3)


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
