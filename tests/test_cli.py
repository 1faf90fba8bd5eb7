import io
import json
import random
import re

import pytest

from helpers import (
    mangled_literal,
    parse_outcome,
    random_multisegment,
    scan_lweight,
    scan_multisegment,
)

from weylcalc import LWeight, Multisegment, ParseError, RangeError, Segment, alpha
from weylcalc import cli, closures
from weylcalc.cli import main, parse_lweight, parse_multisegment, run


def M(*pairs):
    return Multisegment(Segment(i, j) for i, j in pairs)


class TestParseMultisegment:
    def test_basic(self):
        assert parse_multisegment("[0,6][2,7][1,8]") == M((0, 6), (2, 7), (1, 8))
        assert parse_multisegment("[-2,-1]") == M((-2, -1))

    def test_whitespace_between_blocks(self):
        assert parse_multisegment("[0,6] [2,7]\n[1,8]") == M((0, 6), (2, 7), (1, 8))
        assert parse_multisegment("  [0,1]  ") == M((0, 1))

    def test_round_trip(self):
        rng = random.Random(81)
        for _ in range(100):
            ms = random_multisegment(rng, rng.randint(1, 6), parts=rng.randint(1, 4))
            assert parse_multisegment(str(ms)) == ms

    def test_errors_carry_byte_offsets(self):
        with pytest.raises(ParseError) as e:
            parse_multisegment("[0,1]x")
        assert e.value.offset == 5
        with pytest.raises(ParseError):
            parse_multisegment("")
        with pytest.raises(ParseError):
            parse_multisegment("x[0,1]")

    def test_reversed_endpoints_are_a_range_error(self):
        with pytest.raises(RangeError):
            parse_multisegment("[3,1]")


class TestParseLWeight:
    def test_identity(self):
        assert parse_lweight("1").is_identity

    def test_round_trip(self):
        rng = random.Random(82)
        for _ in range(100):
            cells = {}
            for _ in range(rng.randint(0, 4)):
                i = rng.randint(-3, 4)
                cells[Segment(i, i + rng.randint(0, 4))] = rng.randint(-3, 3)
            lw = LWeight(cells)
            assert parse_lweight(str(lw)) == lw

    def test_rejects_malformed_input(self):
        for bad in ["", "2", "w[0,1]", "w[0,1]^1 x", "w[0,1]^1 *", "1 * w[0,1]^1"]:
            with pytest.raises(ParseError):
                parse_lweight(bad)


class TestTokenParsers:
    @pytest.mark.parametrize("kind, parse, reference", [
        ("ms", parse_multisegment, scan_multisegment),
        ("w", parse_lweight, scan_lweight)])
    def test_agree_with_the_scanning_reference(self, kind, parse, reference):
        # value and part types, or exception type, message and offset; the
        # reference counts code points, so its offsets are turned into bytes
        rng = random.Random(40)
        outcomes, texts = set(), []
        for _ in range(20_000):
            texts.append(text := mangled_literal(rng, kind))
            got = parse_outcome(parse, text)
            assert got == parse_outcome(reference, text, in_bytes=True), repr(text)
            outcomes.add(got[0])
        seen = "".join(texts)
        assert all(c in seen for c in ["*", "^", "+", "\t", "\n", "\xa0", "\u0663", "007",
                                       str(2 ** 64)])
        assert any(t.rstrip().endswith("*") for t in texts)
        assert any(t.isspace() for t in texts)
        # every outcome is met: accepted, a syntax error and a reversed part
        assert outcomes == {ParseError, RangeError, Multisegment if kind == "ms" else LWeight}

    @pytest.mark.parametrize("parse, text, error, message", [
        (parse_lweight, "w[0,1]^1 w[1,2]^1", ParseError, "expected '*' at byte 9"),
        (parse_lweight, " \t\n", ParseError, "empty l-weight"),
        (parse_lweight, "w[0,1]^1 * ", ParseError, "bad l-weight factor at byte 11"),
        (parse_multisegment, "[0,1] [3,1]", RangeError, "segment [3,1] at byte 6 has j < i"),
        (parse_multisegment, "[3,1]x", RangeError, "segment [3,1] at byte 0 has j < i"),
    ])
    def test_first_error_from_the_left(self, parse, text, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse(text)

    def test_offsets_count_utf8_bytes(self):
        # '٣' (ARABIC-INDIC DIGIT THREE) is a digit of two bytes
        assert parse_multisegment("[\u0663,4]") == M((3, 4))
        for text, at in [("[\u0663,4]x", 6), ("\xa0[3,1]", 2), ("[0,1]\xa0x", 7)]:
            with pytest.raises((ParseError, RangeError), match=f"at byte {at}\\b"):
                parse_multisegment(text)
        with pytest.raises(ParseError) as e:
            parse_lweight("w[\u0663,4]^1 x")
        assert (str(e.value), e.value.offset) == ("expected '*' at byte 10", 10)
        assert parse_lweight(" 1 ").is_identity


class TestRun:
    def test_closure_text(self, capsys):
        assert run(["closure", "--rank", "6", "[0,6][2,7][1,8]"]) == 0
        assert capsys.readouterr().out == "[0,6][2,7][1,8]\n[2,6][0,7][1,8]\n"

    @pytest.mark.parametrize("rank, seed, text", [
        (3, "[-2,0][-3,-1]", "[-3,0][-2,-1]\n[-2,0][-3,-1]"),
        # equal j, with the degenerate part [1,1]
        (2, "[1,1][-1,1]", "[-1,1][1,1]\n[1,1][-1,1]"),
    ])
    def test_closure_text_renders_each_member_part_by_part(
        self, capsys, rank, seed, text
    ):
        assert run(["closure", "--rank", str(rank), seed]) == 0
        assert capsys.readouterr().out == text + "\n"
        members = closures.closure(parse_multisegment(seed), rank).members
        assert text == "\n".join("".join(map(str, t)) for t in members)

    def test_closure_json(self, capsys):
        assert run(["closure", "--rank", "6", "--json", "[0,6][2,7][1,8]"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rank": 6,
            "seed": [[0, 6], [2, 7], [1, 8]],
            "members": [[[0, 6], [2, 7], [1, 8]], [[2, 6], [0, 7], [1, 8]]],
            "closed": [[[2, 6], [0, 7], [1, 8]]],
            "orbit_reps": [[[1, 8], [0, 7], [2, 6]]],
        }

    def test_socle(self, capsys):
        assert run(["socle", "--rank", "1", "[2,3][1,2][0,1]"]) == 0
        assert capsys.readouterr().out == (
            "w[0,1]^1\t[1,3][2,2][0,1]\n" "w[2,3]^1\t[2,3][0,2][1,1]\n"
        )

    def test_hom(self, capsys):
        assert run(["hom", "--rank", "6", "[2,6][0,7][1,8]", "[0,6][2,7][1,8]"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_hom_on_a_long_tuple(self, capsys):
        # 3,000 j-blocks of one part: past the recursion limit of a search
        # that recursed per block. The chain is doubly sorted, so its (b)
        # table is empty and hom runs no test (b); socle at rank >= span is
        # linear only if its canonical closed element takes each left
        # endpoint off a stack
        t = "".join(f"[{k - 1},{k}]" for k in range(3000, 0, -1))
        assert run(["hom", "--rank", "3000", t, t]) == 0
        assert capsys.readouterr().out == "1\n"
        assert run(["socle", "--rank", "3000", t]) == 0
        closed = "[0,3000]" + "".join(f"[{k},{k}]" for k in range(2999, 0, -1))
        assert capsys.readouterr().out == f"w[0,3000]^1\t{closed}\n"
        # at rank 5 a 1,000-part chain is below the span, but doubly sorted,
        # so its (b) table is empty; a tuple is in its own closure
        searched = "".join(f"[{k - 1},{k}]" for k in range(1000, 0, -1))
        assert run(["hom", "--rank", "5", searched, searched]) == 0
        assert capsys.readouterr().out == "1\n"
        # closures listed with no search: 1,200 j-levels, past the recursion
        # limit of a generator that recursed per level; and 12 equal parts,
        # 12! orders of a multiset but one member
        chain = "".join(f"[{3 * k},{3 * k + 1}]" for k in range(1199, -1, -1))
        assert run(["closure", "--rank", "3600", chain]) == 0
        assert capsys.readouterr().out == chain + "\n"
        assert run(["closure", "--rank", "5", "[0,5]" * 12]) == 0
        assert capsys.readouterr().out == "[0,5]" * 12 + "\n"

    def test_closed_predicate(self, capsys):
        assert run(["closed", "--rank", "6", "[2,6][0,7][1,8]"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert run(["closed", "--rank", "6", "[0,6][2,7][1,8]"]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_qchar(self, capsys):
        assert run(["qchar", "--rank", "2", "[0,1]"]) == 0
        assert capsys.readouterr().out == (
            "1 * w[0,1]^1\n" "1 * w[0,2]^1 * w[1,2]^-1\n" "1 * w[1,3]^-1\n"
        )

    def test_dominant(self, capsys):
        assert run(["dominant", "--rank", "6", "[0,6][2,7][1,8]"]) == 0
        assert capsys.readouterr().out == "1 * w[0,6]^1 * w[2,7]^1\n1 * w[2,6]^1\n"

    def test_dominant_weights(self, capsys):
        assert run(["dominant-weights", "--rank", "1", "[2,3][1,2][0,1]"]) == 0
        assert capsys.readouterr().out == (
            "w[0,1]^1\n" "w[0,1]^1 * w[1,2]^1 * w[2,3]^1\n" "w[2,3]^1\n"
        )

    def test_degenerate_dominant_weights_print_the_empty_weight(self, capsys):
        assert run(["dominant-weights", "--rank", "1", "[0,2]"]) == 0
        assert capsys.readouterr() == ("1\n", "")

    def test_alpha_decompose(self, capsys):
        assert run(["alpha-decompose", "--rank", "2", str(alpha(0, 2, 2))]) == 0
        assert capsys.readouterr().out == "a[0,2]^1\n"

    def test_alpha_decompose_crosses_a_huge_gap(self, capsys):
        # a billion empty starts between the factors, crossed in O(rank)
        w = "w[0,1]^1 * w[1000000000,1000000001]^-1"
        assert run(["alpha-decompose", "--rank", "2", w]) == 0
        assert capsys.readouterr().out == "not-in-root-lattice\n"

    def test_alpha_decompose_miss_is_not_an_error(self, capsys):
        assert run(["alpha-decompose", "--rank", "2", "w[0,1]^1"]) == 0
        assert capsys.readouterr().out == "not-in-root-lattice\n"
        assert run(["alpha-decompose", "--rank", "2", "--json", "w[0,1]^1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "in_root_lattice": False,
            "coefficients": None,
        }

    def test_leq(self, capsys):
        assert run(["leq", "--rank", "2", "w[0,2]^1 * w[1,2]^-1", "w[0,1]^1"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_dual(self, capsys):
        assert run(["dual", "--rank", "2", "--side", "right", "[0,1][1,2]"]) == 0
        assert capsys.readouterr().out == "[1,3][2,4]\n"

    def test_iota(self, capsys):
        assert run(["iota", "--rank", "7", "--sign", "plus", "--at", "1", "[2,5][3,9]"]) == 0
        assert capsys.readouterr().out == "[2,9][3,5]\n"

    def test_normalform(self, capsys):
        assert run(["normalform", "--rank", "8", "--sign", "minus", "[0,6][4,8][2,5]"]) == 0
        assert capsys.readouterr().out == "[4,5][0,6][2,8]\n"

    def test_normalform_json_carries_weight(self, capsys):
        rc = run(["normalform", "--rank", "8", "--sign", "minus", "--json", "[0,6][4,8][2,5]"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "result": [[4, 5], [0, 6], [2, 8]],
            "weight": [
                {"segment": [0, 6], "exp": 1},
                {"segment": [2, 8], "exp": 1},
                {"segment": [4, 5], "exp": 1},
            ],
        }

    def test_ext_check(self, capsys):
        assert run(["ext-check", "--rank", "2", "[0,1]", "[3,4]"]) == 0
        assert capsys.readouterr().out == "VANISHES\n"

    def test_subcat(self, capsys):
        assert run(["subcat", "--rank", "1", "[2,3][1,2][0,1]", "w[1,3]^1"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[0,6][2,7][1,8]\n"))
        assert run(["closure", "--rank", "6", "-"]) == 0
        assert capsys.readouterr().out == "[0,6][2,7][1,8]\n[2,6][0,7][1,8]\n"

    def test_stdin_dash_at_most_once(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[0,1]\n"))
        assert run(["hom", "--rank", "2", "-", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_deterministic_output(self, capsys):
        run(["qchar", "--rank", "3", "[0,2][1,2]"])
        first = capsys.readouterr().out
        run(["qchar", "--rank", "3", "[0,2][1,2]"])
        assert capsys.readouterr().out == first


class TestErrors:
    def test_parse_error_exit_code_and_message(self, capsys):
        assert run(["closure", "--rank", "2", "[0,1]x"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "error: bad multisegment syntax at byte 5\n"

    def test_range_error(self, capsys):
        assert run(["closure", "--rank", "2", "[3,1]"]) == 2
        assert capsys.readouterr().err == "error: segment [3,1] at byte 0 has j < i\n"

    def test_rank_must_be_positive(self, capsys):
        assert run(["closure", "--rank", "0", "[0,1]"]) == 2
        assert capsys.readouterr().err == "error: rank must be >= 1, got 0\n"

    def test_invalid_segment_for_rank(self, capsys):
        # a segment longer than rank+1 cannot be weighed
        assert run(["qchar", "--rank", "1", "[0,3]"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_rank_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            run(["closure", "[0,1]"])

    def test_internal_error_exits_1(self, capsys, monkeypatch):
        def boom(ms, rank):
            raise RuntimeError("boom")

        monkeypatch.setattr(closures, "closure", boom)
        assert run(["closure", "--rank", "2", "[0,1]"]) == 1
        assert capsys.readouterr() == ("", "internal error: boom\n")


class TestParserOnlyOnFallback:
    def test_one_parser_serves_every_outcome(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        ok = ["dominant", "--rank", "4", "--json", "[0,2][1,3][2,4]"]
        assert run(ok) == 0
        first = capsys.readouterr().out
        # canonical argv never builds the parser; the usage error below does
        assert built == []
        with pytest.raises(SystemExit) as usage:
            run(["closure", "--rank", "x", "[0,1]"])
        assert usage.value.code == 2
        assert capsys.readouterr().err.endswith("invalid int value: 'x'\n")
        assert run(["qchar", "--rank", "1", "[0,3]"]) == 2
        assert capsys.readouterr().err == (
            "error: segment [0,3] has length 3, not valid at rank 1\n"
        )
        assert run(ok[:3] + ok[4:]) == 0
        assert capsys.readouterr().out == (
            "1 * w[0,2]^1 * w[1,3]^1 * w[2,4]^1\n"
            "1 * w[0,2]^1 * w[1,4]^1 * w[2,3]^1\n"
            "1 * w[0,3]^1 * w[1,2]^1 * w[2,4]^1\n"
            "1 * w[0,3]^1 * w[1,4]^1\n"
            "1 * w[0,4]^1 * w[1,2]^1 * w[2,3]^1\n"
            "2 * w[0,4]^1 * w[1,3]^1\n"
        )
        assert run(ok) == 0
        assert capsys.readouterr().out == first
        assert built == [1]


def test_main_returns_int(capsys):
    assert main(["closed", "--rank", "2", "[0,1]"]) == 0
    assert capsys.readouterr().out == "true\n"
