"""Differential tests of the closure engine and the closure-free decisions.

The closure lists the arrangements of the seed's left endpoints that pass
tests (a) and (b) (the table of `closures._bounds`), which
`closures._left_closure` proves exact; here it is compared with
`helpers.search_closure`, the breadth-first search it replaced, and with
`helpers.move_saturate`, and so is `in`, which tests (a) and (b) itself.
Its rows, text, count and closed lefts are compared with
`helpers.listed_closure`, the level walk that the memoized walk replaced
(`helpers.listing_mismatches`). The hom decision by one forced candidate
member, `closed_elements` above the span (`canonical_closed` of the
dominant ancestor; one closed orbit, proved in its docstring) and the
integer weigher of `weyl_dominant_weights` are compared with forms built
from `closure(...).members`, on seeded random seeds: plus-sorted and unsorted,
with ties in i and in j, at ranks below and above the span; and on every
tuple of a small box (`helpers.certify_box`). The weigher's int keys
(`qchars._weight_keys`) are compared with the weights of the members,
rendered and intersected as `LWeight`s.
"""

import io
import random
import time
from collections import Counter
from contextlib import redirect_stdout
from itertools import permutations
from unittest.mock import patch

import pytest
from helpers import (
    below_by_sorting,
    box_tuples,
    certify_box,
    dense_seeds,
    is_listed,
    listed_closure,
    listing_mismatches,
    move_saturate,
    passes_bounds,
    perfbench_corpus,
    random_doubly_sorted,
    search_closure,
    weigh_each,
)

from weylcalc import (
    ExtVerdict,
    InvalidSegment,
    LWeight,
    Multisegment,
    PreconditionViolated,
    QChar,
    Segment,
    SocleSummand,
    closed_elements,
    closure,
    ext_vanishing,
    hom_dim,
    in_plus_order,
    is_closed,
    is_doubly_sorted,
    socle,
    sort_plus,
    span,
    weight_of,
    weyl_dominant_weights,
)
from weylcalc import cli, closures, qchars
from weylcalc.closures import _bounds
from weylcalc.qchars import _weight_keys


def M(*pairs):
    return Multisegment(Segment(i, j) for i, j in pairs)


def random_seed(rng, max_parts=6):
    """(ms, rank): endpoints in a narrow window, so ties in i and j are common.

    Half the seeds are plus-sorted; the rank falls below or above the span.
    """
    rank = rng.randint(1, 7)
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        i = rng.randint(-2, 3)
        parts.append(Segment(i, i + rng.randint(0, rank + 1)))
    ms = Multisegment(parts)
    return (sort_plus(ms) if rng.random() < 0.5 else ms), rank


def member_weights(ms, rank):
    return {weight_of(t, rank) for t in closure(sort_plus(ms), rank).members}


def test_membership_test_matches_closure_members():
    # against move_saturate, since the closure lists what passes (b) itself
    rng = random.Random(6001)
    below = above = 0
    for _ in range(250):
        ms, rank = random_seed(rng, max_parts=5)
        below += rank < span(ms)
        above += rank >= span(ms)
        members = move_saturate(ms, rank)
        for lefts in set(permutations(p.i for p in ms)):
            # plain pairs, since some rearrangements are not segments
            cand = tuple((a, p.j) for a, p in zip(lefts, ms))
            assert passes_bounds(ms, cand, rank) == (cand in members), (ms, rank, cand)
    assert below > 50 and above > 50


def test_every_tuple_of_a_small_box_passes_the_certificate():
    # ranks 1..3, window [0, 4], at most 3 parts; tests/certify_box.py
    # runs the same checks on larger boxes
    cases, failures = certify_box(3, 4, 3)
    assert failures == []
    assert cases["tuples"] == cases["listing"] == cases["closed elements"] == 1159
    assert cases["one orbit"] == 796
    assert cases["hom near miss"] == 420
    assert cases["listed"] == 591 and cases["not listed"] == 568
    assert cases["ext"] == cases["ext verdict"] == 4556
    assert cases["ext overlap"] == 326 and cases["ext vanishes"] == 1010
    assert cases["ext equal weights"] == 3220


def check_generated_closure(ms, rank):
    cs = closure(ms, rank)
    saturated = move_saturate(ms, rank)
    assert len(cs) == len(saturated) and set(cs.members) == saturated, (ms, rank)
    assert list(cs.closed_members) == [t for t in cs.members if is_closed(t, rank)]
    return cs


def test_generated_closure_matches_move_saturation():
    # doubly sorted seeds of 1-7 parts with lefts in [-3, 3], so repeated
    # lefts and equal js are common, at ranks span to span + 3
    rng = random.Random(6006)
    sizes = []
    for _ in range(120):
        ms = random_doubly_sorted(rng, parts=rng.randint(1, 7))
        for rank in range(max(span(ms), 1), span(ms) + 4):
            sizes.append(len(check_generated_closure(ms, rank)))
    assert max(sizes) > 100 and sizes.count(1) > 20


def test_closure_lists_what_the_search_reaches():
    # seeds in any order, with ties in i and j, at ranks span - 3 .. span + 2:
    # the same js and left tuples as the breadth-first search (each once there)
    rng = random.Random(6009)
    seen = Counter()
    for _ in range(300):
        ms, _ = random_seed(rng)
        for rank in range(max(span(ms) - 3, 1), span(ms) + 3):
            if any(p.length > rank + 1 for p in ms):
                continue
            cs = closure(ms, rank)
            js, lefts = search_closure(ms, rank)
            assert cs.js == js and cs.lefts == tuple(sorted(lefts)), (ms, rank)
            seen["below the span" if rank < span(ms) else "at or above"] += 1
            seen["not in plus order"] += not in_plus_order(ms)
            seen["not listed"] += not is_listed(ms, rank)
            seen["members"] += len(cs)
    assert min(seen.values()) > 400, seen


@pytest.mark.parametrize("label, ms, rank, size", dense_seeds())
def test_dense_seeds_that_are_not_listed(label, ms, rank, size):
    # below the span, or at it but not doubly sorted: the search's members
    assert not is_listed(ms, rank)
    cs = closure(ms, rank)
    assert len(cs) == size
    assert cs.lefts == tuple(sorted(search_closure(ms, rank)[1]))


def corpus_closure_seeds(workload, corpus_seeds):
    """(ms, rank) of every closure op of the workload's op lists."""
    corpus = perfbench_corpus()
    return [(cli.parse_multisegment(op.argv[-1]), int(op.argv[2]))
            for corpus_seed in corpus_seeds for op in corpus.build(workload, corpus_seed)
            if op.argv[0] == "closure"]


def test_walk_matches_the_listing_on_dense_and_corpus_seeds():
    # the memoized walk against the level walk it replaced, on the dense
    # seeds (3,000-25,920 members) and every enumerate closure seed of
    # corpus seeds 0 and 1 (up to 5,040 members)
    seeds = corpus_closure_seeds("enumerate", (0, 1))
    assert len(seeds) == 146
    for ms, rank in [(ms, rank) for _, ms, rank, _ in dense_seeds()] + seeds:
        assert listing_mismatches(ms, rank) == [], (ms, rank)


def test_walk_matches_the_listing_property():
    # plus-sorted seeds, many with repeated lefts or a binding (b) table,
    # and the same seeds in the order drawn, most not in plus order
    hyp = pytest.importorskip("hypothesis")
    seen = Counter()

    @fixed(hyp, examples=300)
    @hyp.given(any_seed(hyp), hyp.strategies.booleans())
    @hyp.example((M((2, 4), (0, 4), (0, 2), (2, 2)), 3), False)  # (b) binds at 2
    @hyp.example((M((0, 2), (1, 4), (2, 3)), 2), False)  # binds, not in plus order
    def check(case, plus):
        ms, rank = case
        ms = sort_plus(ms) if plus else ms
        assert listing_mismatches(ms, rank) == [], (ms, rank)
        bound = bool(_bounds(*zip(*sort_plus(ms))))
        kind = "plus order" if in_plus_order(ms) else "other order"
        seen[f"{kind}, {'bound' if bound else 'unbound'}"] += 1
        seen[f"{kind}, repeated lefts"] += len({p.i for p in ms}) < len(ms)

    check()
    assert min(seen.values()) > 25, seen


def test_text_and_count_list_no_lefts():
    # str and len walk the pools on texts and on ints; lefts is listed on
    # first read, already sorted, and len and str still walk and agree with it
    cs = closure(M(*[(16 - k, 23 - k) for k in range(7)]), 12)
    text, size = str(cs), len(cs)
    assert "lefts" not in cs.__dict__
    assert size == 5040 and text.count("\n") == 5039
    js, order = listed_closure(cs.seed, 12)
    assert cs.lefts == tuple(sorted(order)) and "lefts" in cs.__dict__
    assert len(cs) == size and str(cs) == text


def test_count_of_twelve_parts_in_every_order():
    # twelve lefts, each below every right endpoint, at rank >= span: all
    # 12! orders are members, counted over the 2^12 pools without listing
    ms = M(*[(k, 20 + k) for k in range(11, -1, -1)])
    start = time.perf_counter()
    cs = closure(ms, span(ms))
    assert len(cs) == 479001600
    assert time.perf_counter() - start < 1
    assert "lefts" not in cs.__dict__


def test_generated_closure_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def doubly_sorted(draw):
        r = draw(st.integers(1, 7))
        lefts = sorted(draw(st.lists(st.integers(-2, 3), min_size=r, max_size=r)),
                       reverse=True)
        js = []  # from the smallest left up, each j >= its left and the last j
        for i in reversed(lefts):
            js.append(max([i] + js[-1:]) + draw(st.integers(0, 2)))
        ms = M(*zip(lefts, reversed(js)))
        return ms, max(span(ms), 1) + draw(st.integers(0, 3))

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(doubly_sorted())
    def check(case):
        check_generated_closure(*case)

    check()


def test_membership_is_exact_and_rejects_other_shapes():
    cs = closure(M((0, 6), (2, 7), (1, 8)), 7)
    assert M((1, 6), (2, 7), (0, 8)) in cs
    assert ((1, 6), (2, 7), (0, 8)) in cs
    assert M((0, 6), (2, 7)) not in cs
    assert M((0, 6), (2, 7), (1, 8), (0, 0)) not in cs
    assert M((0, 6), (2, 8), (1, 7)) not in cs
    assert M((0, 6), (2, 7), (0, 8)) not in cs
    assert ((0, 6, 1), (2, 7), (1, 8)) not in cs
    assert (0, 6, 2) not in cs
    assert "[0,6][2,7][1,8]" not in cs
    assert not passes_bounds(cs.seed, ((0, 6), (2, 7)), 7)
    assert not passes_bounds(cs.seed, ((0, 6), (2, 8), (1, 7)), 7)
    assert not passes_bounds(cs.seed, ((0, 6), (2, 7), (0, 8)), 7)


def any_seed(hyp):
    """A strategy for (ms, rank) of random_seed's shapes: any order, ties in i and j.

    Every part is valid; the rank falls below or above the span. Examples
    are drawn in a fixed order, so the counts a test keeps repeat.
    """
    st = hyp.strategies

    @st.composite
    def seeds(draw):
        rank = draw(st.integers(1, 7))
        starts = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=6))
        return M(*[(i, i + draw(st.integers(0, rank + 1))) for i in starts]), rank

    return seeds()


def fixed(hyp, examples=150):
    return hyp.settings(derandomize=True, database=None, deadline=None,
                        max_examples=examples)


def test_membership_property():
    # in, by (a) and (b), against the search's member list, on every kind
    # of rearrangement of the seed's left endpoints
    hyp = pytest.importorskip("hypothesis")
    seen = Counter()

    @fixed(hyp)
    @hyp.given(any_seed(hyp), hyp.strategies.randoms(use_true_random=False))
    @hyp.example((M((0, 2), (1, 1)), 1), random.Random(0))  # fails (b) alone
    def check(case, rng):
        ms, rank = case
        js, found = search_closure(ms, rank)
        members, cs = set(found), closure(ms, rank)
        for _ in range(6):
            lefts = rng.sample([p.i for p in ms], len(ms))
            cand = tuple(zip(lefts, js))  # plain pairs: some are not segments
            valid = all(0 <= j - i <= rank + 1 for i, j in cand)
            assert (cand in cs) == (tuple(lefts) in members), (ms, rank, cand)
            if valid:
                member = M(*cand) in cs
                assert member == (tuple(lefts) in members), (ms, rank, cand)
                seen["member" if member else "fails (b)"] += 1
            seen["fails (a)"] += not valid

    check()
    assert min(seen.values()) > 50, seen


def test_hom_matches_closure_weights():
    rng = random.Random(6002)
    ones = 0
    for _ in range(300):
        dst, rank = random_seed(rng)
        weights = member_weights(dst, rank)
        members = closure(sort_plus(dst), rank).members
        for _ in range(3):
            if rng.random() < 0.6:
                src = list(rng.choice(members))
                if rng.random() < 0.3:  # more parts than the target
                    i = rng.randint(-3, 3)
                    src.append(Segment(i, i + rng.randint(0, rank + 1)))
                rng.shuffle(src)
                src = Multisegment(src)
            else:
                src, _ = random_seed(rng)
                if any(p.length > rank + 1 for p in src):
                    continue
            expected = 1 if weight_of(src, rank) in weights else 0
            ones += expected
            assert hom_dim(src, dst, rank) == expected, (src, dst, rank)
    assert ones > 200


def test_hom_rejects_a_left_endpoint_the_target_lacks():
    # want's [-3,1] uses a left endpoint -3 that the target has no copy of
    assert hom_dim(M((0, 2), (1, 6), (-3, 1)), M((2, 2), (0, 1)), 4) == 0


def closure_socle(ms, rank):
    out = [
        SocleSummand(weight_of(t, rank), t)
        for t in closure(ms, rank).orbit_representatives
    ]
    out.sort(key=lambda s: (s.weight.sort_key(), s.representative))
    return out


def test_socle_above_the_span_matches_closure_orbits():
    rng = random.Random(6003)
    for _ in range(300):
        ms, _ = random_seed(rng)
        for rank in range(max(span(ms), 1), max(span(ms), 1) + 3):
            assert socle(ms, rank) == closure_socle(ms, rank), (ms, rank)


def greedy_blocks(ms):
    """{j: lefts ascending} that the stack greedy puts in each block of equal j.

    By increasing j, each block takes the largest unused left endpoints <= j.
    """
    pool, out = sorted(p.i for p in ms), {}
    for j, n in sorted(Counter(p.j for p in ms).items()):
        out[j] = [v for v in pool if v <= j][-n:]
        for v in out[j]:
            pool.remove(v)
    return out


def blocks(lefts, js):
    return {j: sorted(v for v, k in zip(lefts, js) if k == j) for j in js}


def test_closed_members_above_the_span_are_the_greedy_blocks():
    # closed_elements' one closed orbit, on seeds that are not doubly sorted
    rng = random.Random(6010)
    seen = Counter()
    for _ in range(400):
        ms, _ = random_seed(rng)
        if is_doubly_sorted(sort_plus(ms)):
            continue
        greedy = greedy_blocks(ms)
        for rank in range(max(span(ms), 1), span(ms) + 3):
            cs = closure(ms, rank)
            assert [blocks(a, cs.js) for a in cs.closed_lefts] == \
                [greedy] * len(cs.closed_lefts), (ms, rank)
            rep = socle(ms, rank)[0].representative
            assert blocks([p.i for p in rep], [p.j for p in rep]) == greedy
            seen["seeds"] += 1
            seen["orbit > 1"] += len(cs.closed_lefts) > 1
    assert seen["seeds"] > 300 and seen["orbit > 1"] > 50, seen


def test_socle_below_the_span_keeps_every_orbit():
    ms = M((2, 3), (1, 2), (0, 1))
    assert len(socle(ms, 1)) == 2
    assert socle(ms, 1) == closure_socle(ms, 1)


def test_closed_elements_above_the_span_list_no_member():
    # 12! members at rank 23; the one orbit comes from canonical_closed alone
    ms = M(*((11 - k, 23 - k) for k in range(12)))
    listing = AssertionError("closure listed")
    with patch.object(closures, "_left_closure", side_effect=listing), \
            patch.object(closures, "closure", side_effect=listing):
        start = time.perf_counter()
        assert closed_elements(ms, 23) == (M(*((k, 23 - k) for k in range(12))),)
        assert time.perf_counter() - start < 1
        with pytest.raises(PreconditionViolated):
            closed_elements((), 3)


def test_dominant_weights_match_member_weights():
    rng = random.Random(6004)
    for _ in range(300):
        ms, rank = random_seed(rng)
        assert weyl_dominant_weights(ms, rank) == member_weights(ms, rank), (ms, rank)


def by_sort_key(weights):
    return sorted(weights, key=LWeight.sort_key)


def test_weight_keys_render_as_the_sorted_member_weights():
    rng = random.Random(6007)
    squares = 0
    for _ in range(300):
        ms, rank = random_seed(rng)
        q = _weight_keys(sort_plus(ms), rank)
        keys = q._keys
        assert set(keys.values()) == {1}
        rows = q._rows(LWeight._factor.__mod__)
        text = "\n".join([" * ".join(fs) or "1" for fs, _ in rows])
        weights = by_sort_key(member_weights(ms, rank))
        assert text == "\n".join(map(str, weights)), (ms, rank)
        squares += any(2 in w.exponents().values() for w in weights)
    assert squares > 20


def related_seed(rng, ms, rank):
    """A seed at rank whose support shares some weights with ms's.

    A member of ms's closure weighs only weights of ms. A degenerate part
    added to it may bring a left endpoint that ms lacks, so that the factor
    tables differ, and weights that ms lacks.
    """
    parts = list(rng.choice(closure(sort_plus(ms), rank).members))
    j = rng.randint(-2, 6)
    parts.append(Segment(j - rng.choice((0, rank + 1)), j))
    rng.shuffle(parts)
    return Multisegment(parts)


def test_ext_vanishing_shares_the_intersection_of_member_weights():
    rng = random.Random(6008)
    seen = Counter()
    for _ in range(500):
        ms, rank = random_seed(rng)
        other = related_seed(rng, ms, rank)
        if rng.random() < 0.2:
            other, _ = random_seed(rng)
            if any(p.length > rank + 1 for p in other):
                continue
        ours, theirs = member_weights(ms, rank), member_weights(other, rank)
        shared = by_sort_key(ours & theirs)
        cert = ext_vanishing(ms, other, rank)
        assert list(cert.shared_weights) == shared, (ms, other, rank)
        assert (cert.verdict is ExtVerdict.VANISHES) == (not shared)
        seen["vanishes"] += not shared
        if 0 < len(shared) < len(ours | theirs):
            seen["overlaps"] += 1
            seen["squares"] += any(2 in w.exponents().values() for w in shared)
            tables = (_weight_keys(sort_plus(t), rank)._factors for t in (ms, other))
            seen["other tables"] += next(tables) != next(tables)
    assert seen["vanishes"] > 30 and seen["overlaps"] > 50, seen
    assert seen["squares"] > 5 and seen["other tables"] > 25, seen


def test_cli_weighs_without_hashing_lweights():
    # dominant-weights and text ext-check stay on int keys: no set of
    # LWeights is built on the way
    def refuse(self):
        raise AssertionError("an LWeight was hashed")

    runs = [
        ["dominant-weights", "--rank", "2", "[0,2][1,2][0,1][0,1]"],
        ["dominant-weights", "--rank", "3", "--json", "[0,4][1,2][2,3]"],
        ["ext-check", "--rank", "3", "[3,5][3,4][2,3]", "[3,5][2,5][1,4][3,3]"],
        ["ext-check", "--rank", "6", "[2,6][0,7][1,8]", "[0,6][2,7][1,8]"],
    ]
    with patch.object(LWeight, "__hash__", refuse):
        for argv in runs:
            with redirect_stdout(io.StringIO()) as out:
                assert cli.run(argv) == 0, argv
            assert out.getvalue().strip(), argv


def check_bulk_keys(seed, rank):
    """A plus-sorted seed's keys, from its matchings, against weighing each member.

    No member may be listed while the keys are built, and the table and
    the key dict must equal those of helpers.weigh_each, the per-member
    reference over helpers.listed_closure; no key may need sorting. A
    listed seed has an empty (b) table. Returns the number of keys.
    """
    listing = AssertionError("listed member by member")
    with patch.object(closures, "_left_closure", side_effect=listing):
        q = _weight_keys(seed, rank)
    factors, keys = weigh_each(seed, rank)
    assert q._factors == factors and q._keys == keys, (seed, rank)
    assert all(type(s) is Segment for s, _ in q._factors)
    assert all(list(k) == sorted(set(k)) for k in q._keys), (seed, rank)
    if is_listed(seed, rank):
        assert _bounds(*zip(*seed)) == {}, (seed, rank)
    return len(keys)


def test_bulk_keys_match_the_member_weigher_on_every_listed_box_tuple():
    # the listed tuples of the Tier-1 box certificate (R = 3, W = 4, P = 3)
    seen = Counter()
    for ms, rank in box_tuples(3, 4, 3):
        if is_listed(ms, rank):
            seen["listed"] += 1
            seen["keys"] += check_bulk_keys(ms, rank)
            lefts, js = zip(*ms)
            seen["repeated lefts"] += len(set(lefts)) < len(ms)
            seen["repeated js"] += len(set(js)) < len(ms)
            seen["both repeated"] += len(set(lefts)) < len(ms) > len(set(js))
            seen["degenerate"] += any(p.length in (0, rank + 1) for p in ms)
    assert seen == {"listed": 591, "keys": 796, "repeated lefts": 371,
                    "repeated js": 371, "both repeated": 262, "degenerate": 426}


def test_bulk_keys_match_the_member_weigher_on_the_decide_corpus():
    # every listed seed of the decide ops of corpus seeds 0-3, plus forms
    # as the weigher sees them; every dominant-weights seed is listed
    corpus, seen = perfbench_corpus(), Counter()
    for corpus_seed in range(4):
        for op in corpus.build("decide", corpus_seed):
            rank = int(op.argv[op.argv.index("--rank") + 1])
            for text in op.argv[3:]:
                seed = sort_plus(cli.parse_multisegment(text))
                if not is_listed(seed, rank):
                    assert op.argv[0] not in ("dominant-weights", "ext-check"), op
                    continue
                seen[op.argv[0]] += 1
                seen["largest"] = max(seen["largest"], check_bulk_keys(seed, rank))
    assert seen["dominant-weights"] == 4 * 23 and seen["ext-check"] == 8 * 23, seen
    assert seen["largest"] == 720, seen


def test_bulk_keys_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def listed(draw):
        # equal lefts, or equal js, put a part of length rank + 1 at rank = span
        r = draw(st.integers(1, 6))
        lefts = sorted(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)),
                       reverse=True)
        shape = draw(st.sampled_from(["free", "equal lefts", "equal js"]))
        if shape == "equal lefts":
            lefts = [lefts[0]] * r
        js = []  # from the smallest left up, each j >= its left and the last j
        for i in reversed(lefts):
            js.append(max([i] + js[-1:]) + draw(st.integers(0, 2)))
        if shape == "equal js":
            js = [js[-1]] * r
        ms = M(*zip(lefts, reversed(js)))
        return ms, max(span(ms), 1) + draw(st.integers(0, 2))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(listed())
    @hyp.example((M((0, 3), (0, 3), (0, 0)), 2))  # lengths rank + 1 and 0, held twice
    @hyp.example((M((2, 4), (1, 4), (1, 2), (0, 2)), 3))
    def check(case):
        assert is_listed(*case)
        check_bulk_keys(*case)

    check()


def test_weight_keys_match_the_member_weigher_on_every_box_tuple():
    # every tuple of the Tier-1 box certificate (R = 3, W = 4, P = 3),
    # listed or not; the (b) table binds on some of the others
    seen = Counter()
    for ms, rank in box_tuples(3, 4, 3):
        kind = "listed" if is_listed(ms, rank) else "not listed"
        seen[kind] += 1
        seen[kind + " keys"] += check_bulk_keys(ms, rank)
        seen["bound"] += bool(_bounds(*zip(*ms)))
        seen["below the span"] += rank < span(ms)
    assert seen == {"listed": 591, "listed keys": 796, "not listed": 568,
                    "not listed keys": 659, "bound": 248, "below the span": 363}


def test_weight_keys_property():
    # random_seed's shapes, plus-sorted as the weigher takes them
    hyp = pytest.importorskip("hypothesis")
    seen = Counter()

    @fixed(hyp)
    @hyp.given(any_seed(hyp))
    @hyp.example((M((1, 2), (0, 2), (1, 1)), 1))
    @hyp.example((M((0, 6), (2, 7), (1, 8)), 7))
    def check(case):
        seed, rank = sort_plus(case[0]), case[1]
        check_bulk_keys(seed, rank)
        seen["bound" if _bounds(*zip(*seed)) else "unbound"] += 1
        seen["below the span"] += rank < span(seed)
        seen["not doubly sorted"] += not is_doubly_sorted(seed)

    check()
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("text, rank", [
    ("[20,26][19,24][17,23][15,22]", 12),
    ("[39,46][37,45][34,44][31,43][28,41][26,40]", 19),  # the 720-member decide seed
])
def test_dominant_weights_of_a_listed_seed_weigh_no_member(text, rank):
    # the closure listing refuses to run, and the output is that of the
    # per-member path, helpers.weigh_each over that listing
    argv = ["dominant-weights", "--rank", str(rank), text]
    each = lambda ms, rank: QChar._of(*weigh_each(ms, rank))  # noqa: E731
    with patch.object(qchars, "_weight_keys", each), \
            redirect_stdout(io.StringIO()) as weighed:
        assert cli.run(argv) == 0
    listing = AssertionError("listed member by member")
    with patch.object(closures, "_left_closure", side_effect=listing), \
            redirect_stdout(io.StringIO()) as built:
        assert cli.run(argv) == 0
    assert built.getvalue() == weighed.getvalue() and built.getvalue().count("\n") > 20


def test_dense_seeds_decide_without_the_closure():
    # [r-1,2r-1]...[0,r] has r! members at rank 2r - 2 and above
    r = 8
    dst = M(*((r - 1 - k, 2 * r - 1 - k) for k in range(r)))
    nested = M(*((k, 2 * r - 1 - k) for k in range(r)))
    assert hom_dim(nested, dst, 2 * r - 1) == 1
    assert hom_dim(dst, nested, 2 * r - 1) == 0
    assert socle(dst, span(dst)) == [SocleSummand(weight_of(nested, span(dst)), nested)]


def test_below_matches_sorting_every_prefix():
    # test (b) read from the table of _bounds, which skips the block ends
    # where it cannot fail, against sorting both prefixes at every block
    # end, on rearrangements of plus-sorted seeds with many ties
    rng = random.Random(6005)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        ms, _ = random_seed(rng, max_parts=8)
        seed = sort_plus(ms)
        lefts = [p.i for p in seed]
        rng.shuffle(lefts)
        table = _bounds(*zip(*seed))
        got = all(all(a <= b for a, b in zip(sorted(lefts[:t]), bound))
                  for t, bound in table.items())
        assert got == below_by_sorting(seed, lefts), (seed, lefts)
        assert closures._passes(lefts, seed) == got, (seed, lefts)
        verdicts[got] += 1
    assert min(verdicts.values()) > 300, verdicts


def test_bounds_table_matches_sorting_each_prefix():
    # _bounds keeps one sorted prefix and copies it where (b) binds: where
    # the prefix is not the multiset of the t largest left endpoints
    rng = random.Random(6006)
    empty = 0
    for _ in range(3000):
        ms, _ = random_seed(rng, max_parts=9)
        ls, jp = zip(*sort_plus(ms))
        largest = sorted(ls, reverse=True)
        want = {t: sorted(ls[:t]) for t in range(1, len(ls))
                if jp[t - 1] != jp[t] and sorted(ls[:t]) != sorted(largest[:t])}
        table = _bounds(ls, jp)
        assert table == want, (ls, jp)
        assert len({id(b) for b in table.values()}) == len(table)  # no shared list
        empty += not table
    assert 300 < empty < 2700, empty
    # lefts that never rise bind nowhere, whatever the js
    assert _bounds((5, 5, 3, 1, 1), (9, 8, 8, 7, 2)) == {}
    assert _bounds((1, 3), (9, 8)) == {1: [1]}


def test_hom_on_a_nested_target_compares_every_block_end():
    # [k, 2r-1-k]: in plus order the lefts rise, so (b) binds at every
    # block end and the candidate's running prefix is compared r - 1 times
    r = 300
    nested = M(*((k, 2 * r - 1 - k) for k in range(r)))
    table = _bounds(*zip(*sort_plus(nested)))
    assert list(table) == list(range(1, r))
    assert all(b == list(range(t)) for t, b in table.items())
    assert hom_dim(nested, nested, 2 * r - 1) == 1
    # the same lefts and js, each left one block later: fails (b) at t = 1
    shifted = M(*((k + 1, 2 * r - 1 - k) for k in range(r - 1)), (0, r))
    assert hom_dim(shifted, nested, 2 * r - 1) == 0


def test_hom_runs_test_b_only_on_searched_targets():
    # a listed target's (b) table is empty, so (b) never runs: every hom of
    # the decide corpus, seeds 0-3, and the 3,000-part chain at rank 3000
    corpus, parse = perfbench_corpus(), cli.parse_multisegment
    chain = M(*((k - 1, k) for k in range(3000, 0, -1)))
    cases = [(chain, chain, 3000)]
    for corpus_seed in range(4):
        cases += [(parse(op.argv[3]), parse(op.argv[4]), int(op.argv[2]))
                  for op in corpus.build("decide", corpus_seed) if op.argv[0] == "hom"]
    assert len(cases) == 1 + 4 * 23
    assert all(is_listed(sort_plus(dst), rank) for _, dst, rank in cases)
    tables = []

    def record(*args):
        tables.append(_bounds(*args))
        return tables[-1]

    with patch.object(closures, "_bounds", record):
        answers = Counter(hom_dim(src, dst, rank) for src, dst, rank in cases)
    assert answers == {1: len(cases)}, answers  # every decide hom is a yes
    assert tables == [{}] * len(cases)
    # a target not listed whose forced candidate fails (b): hom is 0, by (b)
    src, dst = M((1, 2), (0, 1)), M((0, 2), (1, 1))
    assert not is_listed(dst, 1)
    with patch.object(closures, "_bounds", record):
        assert hom_dim(src, dst, 1) == 0
    assert tables[len(cases):] == [{1: [0]}]  # [1] is not bounded by [0]
    assert weight_of(src, 1) not in weyl_dominant_weights(dst, 1)


class TestErrorsUnchanged:
    def test_hom_weighs_the_source_first(self):
        with pytest.raises(InvalidSegment, match=r"\[0,5\]"):
            hom_dim(M((0, 5)), M((0, 9)), 1)

    def test_hom_checks_the_target_in_plus_order(self):
        with pytest.raises(InvalidSegment, match=r"segment \[1,9\] has length 8"):
            hom_dim(M((0, 1)), M((0, 5), (1, 9)), 1)

    def test_dominant_weights_and_socle_name_the_same_part(self):
        with pytest.raises(InvalidSegment, match=r"\[1,9\]"):
            weyl_dominant_weights(M((0, 5), (1, 9)), 1)
        with pytest.raises(InvalidSegment, match=r"\[0,5\]"):
            socle(M((0, 5), (1, 9), (20, 20)), 1)
