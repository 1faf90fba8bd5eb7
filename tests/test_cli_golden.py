"""Pin the exact CLI bytes: stdout, stderr and exit code of every case.

The cases and their expected output live in data/cli_golden.json, written
by make_cli_golden.py; they cover every subcommand in text and JSON mode,
`-` for stdin, error precedence, usage errors and every --help text.
"""

import json

import pytest

from make_cli_golden import GOLDEN as SHARED
from make_cli_golden import SHARED_VERSIONS, cases, invoke, load_golden

GOLDEN = load_golden()


def _id(case):
    return " ".join(case["argv"]) or "(no arguments)"


@pytest.mark.parametrize("case", GOLDEN, ids=[_id(c) for c in GOLDEN])
def test_cli_bytes_match_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = invoke(case["argv"], case["stdin"])
    assert got == case


def test_golden_covers_every_subcommand_in_both_modes():
    from weylcalc.cli import build_parser

    sub = build_parser()._subparsers._group_actions[0]
    ran = {(c["argv"][0], "--json" in c["argv"]) for c in GOLDEN
           if c["argv"] and c["exit"] == 0 and "--help" not in c["argv"]}
    for name in sub.choices:
        assert (name, False) in ran and (name, True) in ran, name


def test_golden_file_matches_its_generator():
    assert [(c["argv"], c["stdin"]) for c in GOLDEN] == cases()


@pytest.mark.parametrize("path", sorted(SHARED.parent.glob("cli_golden_*.json")),
                         ids=lambda p: p.name)
def test_version_records_only_replace_shared_ones(path):
    # a minor version's own file holds only records whose bytes differ from
    # the shared file, each for a case the shared file has
    shared = {(tuple(c["argv"]), c["stdin"]): c
              for c in load_golden(min(SHARED_VERSIONS))}
    own = json.loads(path.read_text())
    assert own and all(shared[tuple(r["argv"]), r["stdin"]] != r for r in own)
