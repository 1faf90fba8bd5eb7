"""End-to-end acceptance gate.

One test per criterion. Each records a single [PASS]/[FAIL] checklist line,
printed by conftest after the run so it is visible in any pytest invocation,
and fails only through its asserts. Random checks use fixed seeds.
"""

import math
import pathlib
import random
import time
from contextlib import contextmanager

import _checklist

from helpers import (
    criterion2_instances,
    random_connected_pair,
    random_dense_triple,
    random_doubly_sorted,
    random_multisegment,
    random_nested_triple,
)

from weylcalc import (
    LWeight,
    Multisegment,
    RootVector,
    Segment,
    canonical_closed,
    closed_elements,
    closure,
    compose_roots,
    corners,
    decompose_into_roots,
    dominance_leq,
    enumerate_paths,
    fundamental_qchar,
    hom_dim,
    in_minus_order,
    in_plus_order,
    iota_plus,
    is_closed,
    lweight_of_segment,
    normal_form,
    path_weight,
    socle,
    soclehom_weight,
    sort_plus,
    span,
    tau,
    tau_word,
    weyl_dominant_weights,
    weyl_qchar,
)


def M(*pairs):
    return Multisegment(Segment(i, j) for i, j in pairs)


def w(i, j, e=1):
    return LWeight({Segment(i, j): e})


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        _checklist.record(name, False)
        print(f"[FAIL] {name}")
        raise
    _checklist.record(name, True)
    print(f"[PASS] {name}")


def test_criterion_1_golden_closures():
    with criterion("criterion 1: golden closures"):
        t0 = time.monotonic()
        rank6 = closure(M((0, 6), (2, 7), (1, 8)), 6)
        rank7 = closure(M((0, 6), (2, 7), (1, 8)), 7)
        swaps = closure(M((0, 2), (1, 2)), 2)
        reps1 = closed_elements(M((2, 3), (1, 2), (0, 1)), 1)
        elapsed = time.monotonic() - t0

        assert set(rank6.members) == {
            M((0, 6), (2, 7), (1, 8)),
            M((2, 6), (0, 7), (1, 8)),
        }
        assert set(rank7.members) == {
            M((0, 6), (2, 7), (1, 8)),
            M((2, 6), (0, 7), (1, 8)),
            M((1, 6), (2, 7), (0, 8)),
            M((2, 6), (1, 7), (0, 8)),
        }
        assert set(swaps.members) == {M((0, 2), (1, 2)), M((1, 2), (0, 2))}
        assert elapsed < 1.0, f"golden closures took {elapsed:.3f}s"

        assert len(reps1) == 2
        assert M((1, 3), (2, 2), (0, 1)) in reps1
        # At rank 1 the seed's connected pairs are parts 1-2 and 2-3 ([0,1]
        # ends before 2). tau_{1,2} gives [1,3][2,2][0,1] and tau_{2,3} gives
        # [2,3][0,2][1,1]; neither has a connected pair or a shared right
        # endpoint, so both are closed and already in plus order.
        # [1,3][1,1][0,2] cannot appear: its left endpoints {0,1,1} differ
        # from the seed's {0,1,2}, which every crossing move preserves.
        assert M((2, 3), (0, 2), (1, 1)) in reps1


def test_criterion_2_dominant_support_oracle():
    with criterion("criterion 2: dominant support vs product character oracle"):
        t0 = time.monotonic()
        for ms, rank in criterion2_instances():
            oracle = set(weyl_qchar(ms, rank).dominant_part())
            assert weyl_dominant_weights(ms, rank) == oracle, (ms, rank)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_3_unique_closed_orbit_above_span():
    with criterion("criterion 3: unique closed orbit above the span"):
        t0 = time.monotonic()
        rng = random.Random(93300)
        seen = 0
        while seen < 120:
            ms = random_doubly_sorted(rng)
            rank = span(ms) + rng.randint(1, 3)
            if rank < 1:
                continue
            seen += 1
            cs = closure(ms, rank)
            assert len(cs.orbit_representatives) == 1, (ms, rank)
            cc = canonical_closed(ms, rank)
            assert is_closed(cc, rank)
            assert cc in cs
            assert sort_plus(cc) == cs.orbit_representatives[0], (ms, rank)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"orbit sweep took {elapsed:.1f}s"


def test_criterion_4_path_combinatorics():
    with criterion("criterion 4: path counts and extreme weights"):
        for rank in range(1, 9):
            for ln in range(1, rank + 1):
                seg = Segment(0, ln)
                paths = enumerate_paths(seg, rank)
                assert len(paths) == math.comb(rank + 1, ln)
                flat = [g for g in paths if not corners(g)[1]]
                assert len(flat) == 1
                assert path_weight(flat[0], rank) == w(0, ln)
                support = {path_weight(g, rank) for g in paths}
                assert w(ln, rank + 1, -1) in support


def test_criterion_5_nil_hecke_relations():
    with criterion("criterion 5: crossing operator relations"):
        rng = random.Random(95500)
        for _ in range(1050):
            rank = rng.randint(1, 6)
            r = rng.randint(2, 5)
            ms = random_multisegment(rng, rank, parts=r)
            m = rng.randint(1, r - 1)
            l = rng.randint(m + 1, r)
            assert tau_word(ms, [(m, l), (m, l)], rank) is None
            if r >= 3:
                m, p, l = sorted(rng.sample(range(1, r + 1), 3))
                a = tau_word(ms, [(m, p), (m, l), (p, l)], rank)
                b = tau_word(ms, [(p, l), (m, l), (m, p)], rank)
                assert a == b, (ms, rank, m, p, l)
            if r >= 4:
                a = tau_word(ms, [(1, 2), (3, 4)], rank)
                b = tau_word(ms, [(3, 4), (1, 2)], rank)
                assert a == b, (ms, rank)

        # composite identity on dense triples: both endpoint sequences
        # strictly decreasing, all left endpoints at most the lowest right
        nonzero = 0
        for _ in range(150):
            ms, rank = random_dense_triple(rng)
            lhs = tau_word(ms, [(1, 2), (2, 3), (1, 2)], rank)
            assert lhs == tau(ms, 1, 3, rank), (ms, rank)
            if lhs is not None:
                nonzero += 1
        assert nonzero >= 100, f"dense sample too thin: {nonzero}"

        # with the right endpoints increasing instead, every pair is nested
        # and both sides are zero for trivial reasons
        for _ in range(150):
            ms, rank = random_nested_triple(rng)
            assert tau_word(ms, [(1, 2), (2, 3), (1, 2)], rank) is None
            assert tau(ms, 1, 3, rank) is None


def test_criterion_6_socle_weight_multiplicity_one():
    with criterion("criterion 6: socle hom weight has multiplicity one"):
        t0 = time.monotonic()
        rng = random.Random(96600)
        seen = 0
        while seen < 60:
            ms = random_doubly_sorted(rng, parts=rng.randint(1, 3))
            if span(ms) > 4:
                continue
            rank = span(ms) + rng.randint(1, 2)
            if rank < 1:
                continue
            seen += 1
            q = weyl_qchar(ms, rank)
            assert q.multiplicity(soclehom_weight(ms, rank)) == 1, (ms, rank)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"multiplicity sweep took {elapsed:.1f}s"


def test_criterion_7_root_lattice_algebra():
    with criterion("criterion 7: root lattice round trips, rectangles, bounds"):
        rng = random.Random(97700)
        for _ in range(520):
            rank = rng.randint(1, 6)
            cells = {}
            for _ in range(rng.randint(0, 5)):
                i = rng.randint(-4, 5)
                cells[Segment(i, i + rng.randint(1, rank))] = rng.randint(-4, 4)
            rv = RootVector(cells)
            assert decompose_into_roots(compose_roots(rv, rank), rank) == rv

        for _ in range(150):
            rank = rng.randint(2, 6)
            a, b = random_connected_pair(rng, rank)
            before = lweight_of_segment(a, rank) * lweight_of_segment(b, rank)
            after = lweight_of_segment(Segment(b.i, a.j), rank) * lweight_of_segment(
                Segment(a.i, b.j), rank
            )
            rectangle = RootVector(
                {Segment(x, y): 1 for x in range(b.i, a.i) for y in range(b.j, a.j)}
            )
            assert decompose_into_roots(before * after.inverse(), rank) == rectangle

        for rank in range(1, 7):
            for i in (-2, 0, 1):
                for ln in range(1, rank + 1):
                    seg = Segment(i, i + ln)
                    top = LWeight({seg: 1})
                    bottom = LWeight({Segment(i + ln, rank + 1 + i): -1})
                    for wt in fundamental_qchar(seg, rank).support():
                        assert dominance_leq(bottom, wt, rank)
                        assert dominance_leq(wt, top, rank)


def test_criterion_8_straightening_golden_and_landing():
    with criterion("criterion 8: straightening goldens and landing orders"):
        assert iota_plus(Segment(2, 5), Segment(3, 9), 7) == (Segment(2, 9), Segment(3, 5))
        assert iota_plus(Segment(3, 9), Segment(2, 5), 7) == (Segment(3, 9), Segment(2, 5))
        assert iota_plus(Segment(3, 5), Segment(2, 9), 7) == (Segment(2, 9), Segment(3, 5))
        seed = M((0, 6), (4, 8), (2, 5))
        assert normal_form(seed, 1, 8) == M((0, 8), (4, 6), (2, 5))
        assert normal_form(seed, -1, 8) == M((4, 5), (0, 6), (2, 8))

        rng = random.Random(98800)
        for _ in range(520):
            rank = rng.randint(1, 6)
            ms = random_multisegment(rng, rank, parts=rng.randint(1, 4))
            assert in_plus_order(normal_form(ms, 1, rank))
            assert in_minus_order(normal_form(ms, -1, rank))


def test_criterion_9_hom_and_socle_consistency():
    with criterion("criterion 9: hom and socle consistency"):
        for ms, rank in criterion2_instances():
            support = set(weyl_qchar(ms, rank).dominant_part())
            out = socle(ms, rank)
            weights = [s.weight for s in out]
            assert len(weights) == len(set(weights)), (ms, rank)
            assert set(weights) <= support, (ms, rank)
            for s in out:
                assert hom_dim(s.representative, ms, rank) == 1, (ms, rank)
            assert hom_dim(ms, ms, rank) == 1
            if rank > span(ms):
                assert len(out) == 1, (ms, rank)


def test_criterion_10_scope_note():
    with criterion("criterion 10: scope note present"):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "Scope and limits" in text
        assert "connected pairs" in text
        assert "not computed" in text
