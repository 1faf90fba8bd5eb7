import io
import random
from collections import Counter
from contextlib import redirect_stdout
from unittest.mock import patch

import pytest

from helpers import counted_lweights, random_doubly_sorted, random_multisegment

from weylcalc import (
    cli,
    closures,
    qchars,
    weyl,
    ExtVerdict,
    InvalidSegment,
    LWeight,
    Multisegment,
    NotDominant,
    Segment,
    closure,
    dominance_leq,
    ext_vanishing,
    hom_dim,
    is_irreducible_weyl,
    mixed_weyl_maps,
    socle,
    sort_plus,
    span,
    subcategory_membership,
    weight_of,
    weyl_dominant_weights,
    weyl_qchar,
    weylpermute_check,
)


def M(*pairs):
    return Multisegment(Segment(i, j) for i, j in pairs)


def w(i, j, e=1):
    return LWeight({Segment(i, j): e})


class TestDominantWeights:
    def test_golden_rank_six(self):
        assert weyl_dominant_weights(M((0, 6), (2, 7), (1, 8)), 6) == {
            w(0, 6) * w(2, 7),
            w(2, 6),
        }

    def test_golden_rank_one(self):
        assert weyl_dominant_weights(M((2, 3), (1, 2), (0, 1)), 1) == {
            w(0, 1) * w(1, 2) * w(2, 3),
            w(0, 1),
            w(2, 3),
        }

    def test_part_order_is_irrelevant(self):
        a = weyl_dominant_weights(M((0, 6), (2, 7), (1, 8)), 6)
        b = weyl_dominant_weights(M((2, 7), (1, 8), (0, 6)), 6)
        assert a == b

    def test_every_member_weight_is_dominated_by_the_top(self):
        rng = random.Random(71)
        for _ in range(60):
            rank = rng.randint(1, 4)
            ms = random_multisegment(rng, rank)
            top = weight_of(ms, rank)
            for t in closure(sort_plus(ms), rank).members:
                assert dominance_leq(weight_of(t, rank), top, rank)

    def test_patches_on_the_owners_are_seen_while_they_last(self):
        # weyl reads qchars._weight_keys and qchars reads closures._bounds off
        # their modules at each call, so after the first calls a patch on the
        # owner is seen while it is active and leaves nothing bound behind
        weyl_dominant_weights(M((0, 2), (1, 3)), 2)
        ext_vanishing(M((0, 2), (1, 3)), M((0, 3), (1, 2)), 2)
        calls = Counter()

        def counted(name, f):
            return lambda *a: calls.update([name]) or f(*a)

        weigh = counted("weigh", qchars._weight_keys)
        bounds = counted("bounds", closures._bounds)
        with patch.dict(qchars._weight_keys.memo, clear=True):  # every shape misses
            with patch.object(qchars, "_weight_keys", weigh), \
                    patch.object(closures, "_bounds", bounds):
                weyl_dominant_weights(M((0, 3), (1, 4), (2, 5)), 3)
            assert calls["weigh"] >= 1 and calls["bounds"] >= 1
            for module in (weyl, qchars):
                assert weigh not in vars(module).values()
                assert bounds not in vars(module).values()
            seen = dict(calls)
            weyl_dominant_weights(M((0, 2), (2, 4), (1, 5)), 3)
        assert calls == seen


class TestHom:
    def test_frozen_pair(self):
        src = M((2, 6), (0, 7), (1, 8))
        dst = M((0, 6), (2, 7), (1, 8))
        assert hom_dim(src, dst, 6) == 1
        assert hom_dim(dst, src, 6) == 0

    def test_identity(self):
        ms = M((0, 6), (2, 7), (1, 8))
        assert hom_dim(ms, ms, 6) == 1

    def test_maps_both_ways_force_equal_weights(self):
        rng = random.Random(72)
        for _ in range(80):
            rank = rng.randint(1, 4)
            a = random_multisegment(rng, rank)
            b = random_multisegment(rng, rank)
            if hom_dim(a, b, rank) == 1 and hom_dim(b, a, rank) == 1:
                assert weight_of(a, rank) == weight_of(b, rank)


class TestSocle:
    def test_golden_rank_six(self):
        out = socle(M((0, 6), (2, 7), (1, 8)), 6)
        assert [(str(s.weight), str(s.representative)) for s in out] == [
            ("w[2,6]^1", "[1,8][0,7][2,6]")
        ]

    def test_golden_rank_one(self):
        out = socle(M((2, 3), (1, 2), (0, 1)), 1)
        assert [(str(s.weight), str(s.representative)) for s in out] == [
            ("w[0,1]^1", "[1,3][2,2][0,1]"),
            ("w[2,3]^1", "[2,3][0,2][1,1]"),
        ]

    def test_multiplicity_free_and_inside_dominant_support(self):
        rng = random.Random(73)
        for _ in range(60):
            rank = rng.randint(1, 4)
            ms = random_multisegment(rng, rank)
            out = socle(ms, rank)
            weights = [s.weight for s in out]
            assert len(weights) == len(set(weights))
            support = set(weyl_qchar(sort_plus(ms), rank).dominant_part())
            assert set(weights) <= support
            for s in out:
                assert hom_dim(s.representative, ms, rank) == 1

    def test_single_summand_above_the_span(self):
        rng = random.Random(74)
        seen = 0
        while seen < 40:
            ms = random_doubly_sorted(rng)
            rank = span(ms) + rng.randint(1, 3)
            if rank < 1:
                continue
            seen += 1
            assert len(socle(ms, rank)) == 1


def test_irreducibility_detection():
    assert not is_irreducible_weyl(M((0, 6), (2, 7), (1, 8)), 6)
    assert is_irreducible_weyl(M((2, 6), (0, 7), (1, 8)), 6)
    assert is_irreducible_weyl(M((0, 1)), 3)


class TestWeylPermute:
    def test_connected_pairs_need_midpoint_order(self):
        assert weylpermute_check(M((2, 5), (1, 4)), 3)
        assert not weylpermute_check(M((1, 4), (2, 5)), 3)

    def test_vacuous_when_nothing_connects(self):
        assert weylpermute_check(M((0, 1), (3, 4)), 2)
        assert weylpermute_check(M((3, 4), (0, 1)), 2)


class TestExt:
    def test_disjoint_supports_vanish(self):
        cert = ext_vanishing(M((0, 1)), M((3, 4)), 2)
        assert cert.verdict is ExtVerdict.VANISHES
        assert cert.shared_weights == ()

    def test_shared_weight_is_inconclusive(self):
        cert = ext_vanishing(M((0, 1)), M((0, 1)), 2)
        assert cert.verdict is ExtVerdict.INCONCLUSIVE
        assert w(0, 1) in cert.shared_weights

    def test_symmetric(self):
        rng = random.Random(75)
        for _ in range(40):
            rank = rng.randint(1, 4)
            a = random_multisegment(rng, rank)
            b = random_multisegment(rng, rank)
            assert ext_vanishing(a, b, rank).verdict is ext_vanishing(b, a, rank).verdict

    @pytest.mark.parametrize("rank, texts", [
        (4, ["[0,2][1,3][2,4][3,5][4,6][5,7]", "[5,7][3,5][0,2][4,6][1,3][2,4]"]),
        # plus forms that differ by degenerate parts only
        (2, ["[0,2][1,3][4,4]", "[1,3][0,2][2,5]"]),
    ])
    def test_equal_weights_build_no_closure_and_no_weight(self, monkeypatch, rank, texts):
        # a tuple against a rearrangement of it: the verdict needs neither
        # a closure nor an LWeight, and text mode prints only it
        searched = []
        weigh = qchars._weight_keys
        monkeypatch.setattr(qchars, "_weight_keys",
                            lambda *a: searched.append(a) or weigh(*a))
        out = io.StringIO()
        with counted_lweights() as built, redirect_stdout(out):
            assert cli.run(["ext-check", "--rank", str(rank), *texts]) == 0
            cert = ext_vanishing(*map(cli.parse_multisegment, texts), rank)
            assert cert.verdict is ExtVerdict.INCONCLUSIVE
        assert (out.getvalue(), built, searched) == ("INCONCLUSIVE\n", [], [])
        a, b = (weyl_dominant_weights(cli.parse_multisegment(t), rank) for t in texts)
        assert cert.shared_weights == tuple(sorted(a & b, key=LWeight.sort_key))
        assert len(a & b) > 1 and searched
        done = len(searched)
        assert cert.shared_weights is cert.shared_weights and len(searched) == done

    def test_shared_weights_reuse_the_verdicts_key_set(self, monkeypatch):
        # an INCONCLUSIVE pair of different weights meets its keys once:
        # reading shared_weights sorts the key set that decided the verdict
        calls = []
        common = qchars.QChar._common
        monkeypatch.setattr(qchars.QChar, "_common",
                            lambda *a: calls.append(a) or common(*a))
        a, b = M((3, 5), (3, 4), (2, 3)), M((3, 5), (2, 5), (1, 4), (3, 3))
        cert = ext_vanishing(a, b, 3)
        assert cert.verdict is ExtVerdict.INCONCLUSIVE and len(calls) == 1
        shared = weyl_dominant_weights(a, 3) & weyl_dominant_weights(b, 3)
        assert cert.shared_weights == tuple(sorted(shared, key=LWeight.sort_key))
        assert len(calls) == 1 and len(shared) > 1

    def test_verdicts_and_errors_match_the_supports(self):
        rng = random.Random(2020)
        seen = Counter()
        for _ in range(600):
            rank = rng.randint(1, 4)
            a = random_multisegment(rng, rank, parts=rng.randint(1, 4))
            kind = rng.choice(["random", "rearranged", "degenerate", "invalid"])
            if kind == "random":
                b = random_multisegment(rng, rank, parts=rng.randint(1, 4))
            else:
                parts = list(a)
                if kind == "degenerate":
                    # equal weights, plus forms differing by degenerate parts
                    parts = [p for p in parts if 0 < p.length <= rank]
                    for _ in range(rng.randint(int(parts in (list(a), [])), 2)):
                        i = rng.randint(-3, 6)
                        parts.append(Segment(i, i + rng.choice([0, rank + 1])))
                elif kind == "invalid":
                    i = rng.randint(-3, 6)
                    parts.insert(rng.randint(0, len(parts)), Segment(i, i + rank + 2))
                rng.shuffle(parts)
                b = Multisegment(parts)
                if kind == "invalid" and rng.random() < 0.3:
                    # both invalid: the first one's plus order names the part
                    a = Multisegment([*a, Segment(i, i + rank + 3)])
                if kind == "invalid" and rng.random() < 0.5:
                    a, b = b, a
            try:
                mine = ext_vanishing(a, b, rank)
            except InvalidSegment as err:
                mine = str(err)
            try:
                ours, theirs = weyl_dominant_weights(a, rank), weyl_dominant_weights(b, rank)
            except InvalidSegment as err:
                assert mine == str(err), (a, b, rank)
                seen["error"] += 1
                continue
            shared = tuple(sorted(ours & theirs, key=LWeight.sort_key))
            verdict = ExtVerdict.INCONCLUSIVE if shared else ExtVerdict.VANISHES
            assert (mine.verdict, mine.shared_weights) == (verdict, shared), (a, b, rank)
            seen[verdict] += 1
            if weight_of(a, rank) == weight_of(b, rank):
                seen["equal weights"] += 1
                seen["other plus forms"] += sort_plus(a) != sort_plus(b)
        assert min(seen.values()) >= 50, seen


class TestSubcategory:
    BASE = M((2, 3), (1, 2), (0, 1))

    def test_frozen_memberships(self):
        assert subcategory_membership(self.BASE, w(0, 1), 1)
        assert subcategory_membership(self.BASE, w(2, 3), 1)
        assert subcategory_membership(self.BASE, w(1, 3), 1)
        assert not subcategory_membership(self.BASE, w(0, 3), 1)  # too long at rank 1
        assert not subcategory_membership(self.BASE, w(0, 4), 3)  # 4 not a right end

    def test_identity_always_belongs(self):
        assert subcategory_membership(self.BASE, LWeight.identity(), 1)

    def test_rejects_non_dominant_input(self):
        with pytest.raises(NotDominant):
            subcategory_membership(self.BASE, w(0, 1, -1), 1)

    def test_checks_the_base_parts_first(self):
        with pytest.raises(InvalidSegment, match=r"\[0,9\]"):
            subcategory_membership(M((0, 9), (1, 1)), w(0, 1), 1)
        with pytest.raises(InvalidSegment):
            subcategory_membership(M((0, 9), (1, 1)), w(0, 1, -1), 1)

    def test_closure_weights_stay_inside(self):
        rng = random.Random(76)
        for _ in range(40):
            rank = rng.randint(1, 4)
            ms = sort_plus(random_multisegment(rng, rank))
            for t in closure(ms, rank).members:
                wt = weight_of(t, rank)
                if wt.is_dominant:
                    assert subcategory_membership(ms, wt, rank)


class TestMixed:
    def test_frozen_example(self):
        out = mixed_weyl_maps(M((0, 6), (4, 8), (2, 5)), 8)
        assert out.head == w(0, 8) * w(4, 6) * w(2, 5)
        assert out.socle_candidate == w(4, 5) * w(0, 6) * w(2, 8)
        assert out.head_witness == M((0, 8), (4, 6), (2, 5))
        assert out.socle_witness == M((4, 5), (0, 6), (2, 8))

    def test_witnesses_carry_their_weights(self):
        rng = random.Random(77)
        for _ in range(60):
            rank = rng.randint(1, 5)
            ms = random_multisegment(rng, rank, parts=rng.randint(1, 4))
            out = mixed_weyl_maps(ms, rank)
            assert weight_of(out.head_witness, rank) == out.head
            assert weight_of(out.socle_witness, rank) == out.socle_candidate
            # both passes straighten by crossing connected pairs, and each
            # crossing multiplies the weight by inverse positive roots
            assert dominance_leq(out.head, weight_of(ms, rank), rank)
            assert dominance_leq(out.socle_candidate, weight_of(ms, rank), rank)
