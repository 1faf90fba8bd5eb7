import random
import time

import pytest
from helpers import sweep_roots

from weylcalc import (
    InvalidRoot,
    LWeight,
    NotInRootLattice,
    RootVector,
    Segment,
    alpha,
    compose_roots,
    decompose_into_roots,
    dominance_leq,
    lweight_of_segment,
)


def w(i, j, e=1):
    return LWeight({Segment(i, j): e})


class TestLWeightGroup:
    def test_identity(self):
        one = LWeight.identity()
        assert one.is_identity
        assert str(one) == "1"
        assert one * w(0, 1) == w(0, 1)
        assert LWeight.generator(Segment(0, 1)) == w(0, 1)
        with pytest.raises(TypeError):
            one * 2
        with pytest.raises(TypeError, match="expected Segment key, got tuple"):
            LWeight({(0, 1): 1})

    def test_cancellation(self):
        assert (w(0, 1) * w(0, 1, -1)).is_identity

    def test_accumulation(self):
        assert w(0, 1) * w(0, 1) == w(0, 1, 2)

    def test_inverse(self):
        x = w(0, 2) * w(1, 2, -1)
        assert x.inverse() == w(0, 2, -1) * w(1, 2)
        assert (x * x.inverse()).is_identity

    def test_pow(self):
        x = w(0, 2) * w(1, 2, -1)
        assert x ** 3 == x * x * x
        assert (x ** 0).is_identity
        assert x ** -1 == x.inverse()

    def test_rendering_sorted_by_segment(self):
        x = w(1, 2, -1) * w(0, 2) * w(1, 3)
        assert str(x) == "w[0,2]^1 * w[1,2]^-1 * w[1,3]^1"

    def test_exponent_lookup(self):
        x = w(0, 2) * w(1, 2, -1)
        assert x.exponent(Segment(0, 2)) == 1
        assert x.exponent(Segment(1, 2)) == -1
        assert x.exponent(Segment(5, 6)) == 0
        assert x.support() == {Segment(0, 2), Segment(1, 2)}

    def test_dominant_means_all_exponents_positive(self):
        assert (w(0, 1) * w(2, 3)).is_dominant
        assert LWeight.identity().is_dominant
        assert not (w(0, 1) * w(2, 3, -1)).is_dominant


def test_generator_of_segment():
    assert lweight_of_segment(Segment(0, 2), 2) == w(0, 2)
    # full-length and empty segments collapse to the identity
    assert lweight_of_segment(Segment(0, 3), 2).is_identity
    assert lweight_of_segment(Segment(1, 1), 5).is_identity


def test_alpha_frozen_values():
    assert alpha(1, 2, 4) == w(1, 2) * w(2, 3) * w(1, 3, -1)
    assert alpha(0, 2, 2) == w(0, 2) * w(1, 3) * w(1, 2, -1)
    assert alpha(0, 1, 1) == w(0, 1) * w(1, 2)


def test_alpha_rejects_out_of_band_spans():
    with pytest.raises(InvalidRoot):
        alpha(0, 0, 3)
    with pytest.raises(InvalidRoot):
        alpha(0, 4, 3)
    alpha(0, 3, 3)


def test_root_vector_basics():
    rv = RootVector({Segment(0, 1): 2, Segment(1, 2): -1})
    assert str(rv) == "a[0,1]^2 * a[1,2]^-1"
    assert rv.coefficient(Segment(0, 1)) == 2
    assert rv.coefficient(Segment(4, 5)) == 0
    assert rv.coefficients() == {Segment(0, 1): 2, Segment(1, 2): -1}
    assert not rv.in_positive_cone
    assert RootVector({Segment(0, 1): 2}).in_positive_cone
    assert RootVector().is_zero
    assert RootVector().in_positive_cone


def test_compose_matches_alpha_products():
    rv = RootVector({Segment(0, 1): 1, Segment(1, 2): 2})
    assert compose_roots(rv, 3) == alpha(0, 1, 3) * alpha(1, 2, 3) ** 2


def test_decompose_frozen_example():
    x = w(0, 2) * w(1, 3) * w(1, 2, -1)
    assert decompose_into_roots(x, 2) == RootVector({Segment(0, 2): 1})


def test_decompose_identity_is_zero():
    assert decompose_into_roots(LWeight.identity(), 3).is_zero


def test_decompose_rejects_non_lattice_weights():
    cases = [
        (w(0, 1), 2),
        (w(0, 1, 2), 2),
        # coefficients would have to run on past the last factor
        (w(0, 1) * w(5, 6, -1), 1),
        # lattice elements times a degenerate factor (length 0, rank + 1)
        (alpha(0, 1, 2) * w(0, 0), 2),
        (alpha(0, 1, 2) * w(1, 4), 2),
    ]
    for weight, rank in cases:
        with pytest.raises(NotInRootLattice) as exc:
            decompose_into_roots(weight, rank)
        assert str(exc.value) == f"{weight} is not in the root lattice at rank {rank}"


def test_compose_decompose_round_trip():
    rng = random.Random(20260822)
    for _ in range(150):
        rank = rng.randint(1, 5)
        cells = {}
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(-3, 4)
            j = i + rng.randint(1, rank)
            cells[Segment(i, j)] = rng.randint(-3, 3)
        rv = RootVector(cells)
        assert decompose_into_roots(compose_roots(rv, rank), rank) == rv


def test_decompose_brute_force_cross_check():
    # every small integer combination of the rank-2 roots on a 3x3 window
    # recomposes and decomposes back to itself
    rank = 2
    roots = [Segment(i, j) for i in range(0, 3) for j in range(i + 1, i + rank + 1)]
    rng = random.Random(7)
    for _ in range(80):
        rv = RootVector({s: rng.randint(-2, 2) for s in roots})
        assert decompose_into_roots(compose_roots(rv, rank), rank) == rv


def test_empty_start_row_map_has_order_rank_plus_one():
    # between starts the sweep applies (x_1..x_r) -> (x_2-x_1, ..., x_r-x_1, -x_1)
    def step(x):
        return [b - x[0] for b in x[1:]] + [-x[0]]

    for rank in range(1, 10):
        for k in range(rank):
            x = [int(d == k) for d in range(rank)]
            y = x
            for n in range(1, rank + 2):
                y = step(y)
                assert (y == x) == (n == rank + 1), (rank, k, n)


def test_decompose_matches_the_start_by_start_sweep():
    # lattice elements and near misses whose factors sit a few starts apart,
    # so gaps of every residue mod rank + 1 are crossed
    rng = random.Random(20261018)
    hits = misses = 0
    for _ in range(1500):
        rank = rng.randint(1, 5)
        cells = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(-2, 2) + rng.choice([0, rng.randint(0, 3 * rank + 4)])
            cells[Segment(i, i + rng.randint(1, rank))] = rng.choice([-2, -1, 1, 2])
        weight = LWeight(cells)
        if rng.random() < 0.4:
            weight = compose_roots(RootVector(cells), rank)
        if rng.random() < 0.3:
            i = rng.randint(-2, 12)
            weight = weight * w(i, i + rng.randint(1, rank), rng.choice([-1, 1]))
        oracle = sweep_roots(weight, rank)
        assert dominance_leq(LWeight(), weight, rank) == (
            oracle is not None and oracle.in_positive_cone), (weight, rank)
        if oracle is None:
            misses += 1
            with pytest.raises(NotInRootLattice):
                decompose_into_roots(weight, rank)
        else:
            hits += 1
            assert decompose_into_roots(weight, rank) == oracle, (weight, rank)
    assert hits > 300 and misses > 300, (hits, misses)


def test_decompose_skips_a_gap_with_a_zero_row():
    far = 10**9
    weight = alpha(0, 1, 2) * alpha(far, far + 2, 2)
    assert decompose_into_roots(weight, 2) == RootVector(
        {Segment(0, 1): 1, Segment(far, far + 2): 1}
    )


def test_leq_crosses_a_billion_wide_gap_in_a_period():
    # a gap cycles with period dividing rank + 1, so no coefficient is listed
    far = 10**9
    start = time.perf_counter()
    assert not dominance_leq(LWeight(), w(0, 1) * w(far + 1, far + 2), 1)
    assert not dominance_leq(LWeight(), alpha(0, 1, 2) * alpha(far, far + 2, 2) ** -1, 2)
    assert dominance_leq(LWeight(), alpha(0, 1, 2) * alpha(far, far + 2, 2), 2)
    assert time.perf_counter() - start < 1


class TestDominance:
    def test_reflexive(self):
        assert dominance_leq(w(0, 1), w(0, 1), 2)

    def test_frozen_comparable_pair(self):
        lo = w(0, 2) * w(1, 2, -1)
        assert dominance_leq(lo, w(0, 1), 2)
        assert not dominance_leq(w(0, 1), lo, 2)

    def test_incomparable_generators(self):
        assert not dominance_leq(w(0, 1), w(1, 2), 2)
        assert not dominance_leq(w(1, 2), w(0, 1), 2)

    def test_shift_by_positive_root_always_below(self):
        rng = random.Random(99)
        for _ in range(60):
            rank = rng.randint(1, 4)
            i = rng.randint(-2, 3)
            j = i + rng.randint(1, rank)
            top = w(rng.randint(-2, 2), rng.randint(3, 6))
            assert dominance_leq(top * alpha(i, j, rank).inverse(), top, rank)


class TestSparseVectorPins:
    s = Segment(0, 1)

    def test_types_never_compare_equal(self):
        lw, rv = LWeight({self.s: 1}), RootVector({self.s: 1})
        assert lw != rv and rv != lw
        assert len({lw: "w", rv: "a"}) == 2

    def test_repr_and_empty_rendering(self):
        assert repr(LWeight({self.s: 1})) == "LWeight(w[0,1]^1)"
        assert repr(RootVector({self.s: 2})) == "RootVector(a[0,1]^2)"
        assert str(LWeight()) == str(RootVector()) == "1"
        assert repr(LWeight()) == "LWeight(1)"
        assert repr(RootVector()) == "RootVector(1)"

    def test_equal_values_hash_equal(self):
        t = Segment(1, 3)
        for cls in (LWeight, RootVector):
            a = cls({self.s: 2, t: -1})
            b = cls([(t, -1), (self.s, 1), (self.s, 1)])
            assert a == b and hash(a) == hash(b)
            assert a.sort_key() == b.sort_key() == ((0, 1, 2), (1, 3, -1))
            assert a.support() == {self.s, t}
        assert hash(w(0, 1) * w(0, 1)) == hash(w(0, 1, 2))
