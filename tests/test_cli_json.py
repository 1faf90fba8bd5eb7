"""`--json` text against json.dumps of the object trees it replaced.

Every `--json` renderer prints its JSON text directly, from the same pieces
as the text output. helpers.JSON_REFERENCE keeps the object trees that
json.dumps printed before, and helpers.reference_json runs cli.run with
them; both must give the same stdout, stderr and exit code, byte for byte.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from helpers import (  # noqa: E402
    JSON_REFERENCE,
    json_lweight,
    json_qchar_terms,
    perfbench_corpus,
    reference_json,
)
from make_cli_golden import invoke, load_golden  # noqa: E402

from weylcalc import LWeight, QChar, RootVector, Segment, cli  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def mismatches(calls) -> list:
    """The (argv, stdin) of calls whose output differs from the reference's."""
    calls = list(calls)
    got = [invoke(list(argv), stdin) for argv, stdin in calls]
    with reference_json():
        want = [invoke(list(argv), stdin) for argv, stdin in calls]
    return [call for call, g, w in zip(calls, got, want) if g != w]


def test_every_golden_json_record_matches_the_reference():
    records = [(c["argv"], c["stdin"]) for c in load_golden() if "--json" in c["argv"]]
    assert len(records) == 63
    assert mismatches(records) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_every_cli_mix_json_op_matches_the_reference(seed):
    ops = [(op.argv, op.stdin) for op in perfbench_corpus().build("cli-mix", seed)
           if "--json" in op.argv]
    assert len(ops) == 84
    assert mismatches(ops) == []


@pytest.mark.parametrize("workload", ["enumerate", "decide"])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_json_form_of_every_workload_op_matches_the_reference(workload, seed):
    ops = [((op.argv[0], "--json", *op.argv[1:]), op.stdin)
           for op in perfbench_corpus().build(workload, seed)]
    assert len(ops) > 100
    assert mismatches(ops) == []


BIG = st.integers(2**63, 2**80) | st.integers(-2**80, -2**63)
EXPONENT = st.integers(-3, 3).filter(bool) | BIG


@st.composite
def factors(draw, exponent=EXPONENT):
    """(segment, e) factors with negative endpoints, any length to 5."""
    out = draw(st.lists(st.tuples(st.integers(-40, 10), st.integers(0, 5), exponent),
                        max_size=5))
    return [(Segment(i, i + n), e) for i, n, e in out]


@PROPERTY
@given(factors())
def test_weights_render_as_the_reference(fs):
    for w in (LWeight(fs), RootVector(fs)):
        assert w._json() == json.dumps(json_lweight(w))


@PROPERTY
@given(st.lists(st.tuples(factors(), st.integers(1, 3) | BIG.map(abs)), max_size=6))
@example([])
@example([([], 1)])  # the row of the empty weight
def test_any_characters_terms_render_as_the_reference(terms):
    q = QChar([(LWeight(fs), m) for fs, m in terms])
    assert q._json() == json.dumps({"terms": json_qchar_terms(q)})
    render = cli._BY_NAME["dominant-weights"].render[1]
    assert render(q) == json.dumps(JSON_REFERENCE["dominant-weights"](q))


def literal(parts) -> str:
    return "".join(f"[{i},{i + n}]" for i, n in parts)


PARTS = st.lists(st.tuples(st.integers(-9, 3), st.integers(0, 4)), min_size=1, max_size=4)
WEIGHT = factors(st.integers(-3, 3).filter(bool) | BIG).map(
    lambda fs: " * ".join(f"w[{i},{j}]^{e}" for (i, j), e in fs) or "1")


@PROPERTY
@given(st.sampled_from(sorted(JSON_REFERENCE)), st.integers(1, 4), PARTS, PARTS, WEIGHT,
       WEIGHT)
@example("closure", 2, [(1, 0), (-1, 2)], [(0, 1)], "1", "1")  # not in plus order
@example("dominant-weights", 1, [(0, 2)], [(0, 1)], "1", "1")  # one empty row
@example("closure", 12, [(16 - k, 7) for k in range(7)], [(0, 1)], "1", "1")  # 5,040 members
@example("alpha-decompose", 2, [(0, 1)], [(0, 1)],
         f"w[0,1]^{2**64} * w[0,2]^{-2**64} * w[1,2]^{2**64}", "1")
def test_every_subcommand_renders_as_the_reference(name, rank, a, b, w1, w2):
    cmd = cli._BY_NAME[name]
    tuples, weights = iter([literal(a), literal(b)]), iter([w1, w2])
    positionals = [next(tuples) if kind == "ms" else next(weights)
                   for _, kind, _ in cmd.positionals]
    options = {"--side": "left", "--sign": "plus", "--at": "1"}
    argv = [name, "--rank", str(rank), "--json",
            *[t for o in cmd.options for t in (o, options[o])], *positionals]
    assert mismatches([(argv, None)]) == []
