"""The canonical argv reader against argparse, and what a call imports.

`cli._read` may only ever return None (argparse then reads the argv) or
exactly the namespace `parse_args` builds. The argvs come from the CLI
goldens, the benchmark corpus and a hypothesis property over the real
option vocabulary; the shapes argparse reads in surprising ways must be
left to it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from helpers import perfbench_corpus  # noqa: E402
from make_cli_golden import FALLBACK_SHAPES  # noqa: E402
from weylcalc import cli  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text())
PARSER = cli.build_parser()


CORPUS = {w: [list(op.argv) for op in perfbench_corpus().build(w, 0)]
          for w in ("enumerate", "decide", "cli-mix")}


def _argparse(argv):
    """vars() of parse_args, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _agrees(argv) -> bool:
    got = cli._read(argv)
    return got is None or vars(got) == _argparse(argv)


def test_reader_agrees_with_argparse_on_every_golden_and_corpus_argv():
    argvs = [c["argv"] for c in GOLDEN] + [a for w in CORPUS.values() for a in w]
    assert [a for a in argvs if not _agrees(a)] == []


def test_reader_reads_every_well_formed_cli_mix_argv():
    well_formed = [a for a in CORPUS["cli-mix"] if _argparse(a) is not None]
    assert len(well_formed) > 100
    assert [a for a in well_formed if cli._read(a) is None] == []


@pytest.mark.parametrize("argv", FALLBACK_SHAPES, ids=" ".join)
def test_surprising_shapes_go_to_argparse(argv):
    assert cli._read(argv) is None


NAMES = [cmd.name for cmd in cli.COMMANDS] + ["nosuch", "clos", ""]
FLAGS = [
    "--rank", "--json", "--side", "--sign", "--at",
    "--ra", "--j", "--js", "--si", "--s", "--a",
    "--rank=3", "--json=", "--side=left", "--sign=plus", "--at=1",
    "--", "-", "-h", "--help", "-x", "-1",
]
INTS = ["0", "1", "3", "-1", "-0", "007", "²", " 3", "3_0", "3 ", "٣", "+3"]
CHOICES = ["right", "left", "plus", "minus", "up"]
LITERALS = ["[0,1]", "[1,2][0,1]", "w[0,1]^1", "1", "-", "-[0,1]", "[0,", "x", "", " "]
VALUES = INTS + CHOICES + LITERALS


def _flat(pieces):
    return [t for piece in pieces for t in piece]


def _near_canonical(cmd):
    """cmd's name; --rank, --json or not and cmd's options in any order, with
    mostly valid values, at times one dropped or one given twice; then
    mostly the right number of literals."""
    def valued(opt, good):
        return st.tuples(st.just(opt), st.sampled_from(good) | st.sampled_from(VALUES))

    options = [valued("--rank", ["1", "3", "-1"])] + [
        valued(o, cli._OPTIONS[o].get("choices", ["1", "2"])) for o in cmd.options]
    pieces = st.tuples(st.sampled_from([(), ("--json",)]), *options).flatmap(st.permutations)

    def assemble(ps, edit, again, pos):
        ps = {"keep": ps, "drop": ps[1:], "repeat": [*ps, again]}[edit]
        return [cmd.name, *_flat(ps), *pos]

    n = len(cmd.positionals)
    return st.builds(
        assemble, pieces, st.sampled_from(["keep", "keep", "drop", "repeat"]),
        st.one_of(options),
        st.lists(st.sampled_from(LITERALS[:4]), min_size=n, max_size=n)
        | st.lists(st.sampled_from(LITERALS), min_size=n - 1, max_size=n + 1))


ANY_TOKEN = st.sampled_from(FLAGS + VALUES)
NOISE = st.builds(
    lambda name, pieces: [name, *_flat(pieces)], st.sampled_from(NAMES),
    st.lists(st.tuples(st.sampled_from(FLAGS), ANY_TOKEN) | st.tuples(ANY_TOKEN),
             max_size=7))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(cli.COMMANDS).flatmap(_near_canonical))
def test_reader_on_near_canonical_argvs_is_none_or_argparse(argv):
    assert _agrees(argv)


@settings(max_examples=400, deadline=None)
@given(NOISE)
def test_reader_on_any_tokens_is_none_or_argparse(argv):
    assert _agrees(argv)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, imported", [
    (["closed", "--rank", "2", "[0,1]"], []),
    (["closed", "--rank", "2", "--json", "[0,1]"], ["json"]),
    (["closed", "--rank=2", "[0,1]"], ["argparse"]),
])
def test_a_call_imports_argparse_and_json_only_when_it_needs_them(argv, imported):
    probe = (
        "import sys\n"
        "from weylcalc import cli\n"
        f"cli.run({argv!r})\n"
        "print([m for m in ('argparse', 'json') if m in sys.modules])\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(imported)


def test_the_packed_products_import_nothing():
    # the products run on plain ints: no array, struct or numpy at import,
    # and no module outside weylcalc imported on first use
    probe = (
        "import sys\n"
        "from weylcalc import cli\n"
        "before = set(sys.modules)\n"
        "cli.run(['qchar', '--rank', '5', '[25,27][20,23][24,25]'])\n"
        "cli.run(['dominant', '--rank', '4', '[0,2][0,2][1,3]'])\n"
        "cli.run(['dominant-weights', '--rank', '4', '[0,2][0,2][1,3]'])\n"
        "print(sorted(m for m in set(sys.modules) - before"
        " if not m.startswith('weylcalc.')),"
        " [m for m in ('array', 'ctypes', 'numpy') if m in before])\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] []"


def test_the_cli_imports_no_dataclasses():
    # ClosureSet and ExtCertificate are plain classes: dataclasses would
    # bring inspect, ast, dis and tokenize into every cold start
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import weylcalc.cli\n"
        "print([m for m in ('dataclasses', 'inspect') if m in set(sys.modules) - before])\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_python_m_reads_sys_argv_through_the_reader():
    done = _python("-m", "weylcalc", "closed", "--rank", "2", "[0,1]")
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


_FOOTPRINTS = [  # argv, the weylcalc modules it loads beyond cli's own imports
    (["closure", "--rank", "6", "[0,6][2,7][1,8]"], {"closures"}),
    (["closed", "--rank", "2", "[0,1]"], {"closures"}),
    (["socle", "--rank", "6", "[0,6][2,7][1,8]"], {"closures", "weyl"}),
    (["hom", "--rank", "6", "[2,6][0,7][1,8]", "[0,6][2,7][1,8]"], {"closures", "weyl"}),
    (["subcat", "--rank", "2", "[0,1][1,2]", "w[0,2]^1"], {"closures", "weyl"}),
    (["ext-check", "--rank", "3", "[3,5][3,4][2,3]", "[3,5][2,5][1,4][3,3]"],
     {"closures", "qchars", "weyl"}),
    (["dominant-weights", "--rank", "4", "[1,3][0,4][2,5]"], {"closures", "qchars"}),
    (["qchar", "--rank", "2", "[0,1][1,2]"], {"qchars"}),
    (["dominant", "--rank", "2", "[0,1][1,2][0,1]"], {"qchars"}),
    (["leq", "--rank", "1", "1", "w[0,1]^1"], set()),
    (["alpha-decompose", "--rank", "2", "w[0,2]^1 * w[1,2]^-1 * w[1,3]^1"], set()),
    (["normalform", "--rank", "3", "--sign", "plus", "[0,2][1,3]"], set()),
    (["dual", "--rank", "3", "--side", "right", "[0,2][1,3]"], set()),
    (["iota", "--rank", "3", "--sign", "minus", "--at", "1", "[0,2][1,3]"], set()),
]


def test_every_subcommand_has_a_footprint():
    assert sorted(argv[0] for argv, _ in _FOOTPRINTS) == sorted(cli._BY_NAME)


@pytest.mark.parametrize("argv, loaded", _FOOTPRINTS)
def test_a_call_loads_only_the_modules_its_command_runs(argv, loaded):
    probe = (
        "import sys\n"
        "from weylcalc import cli\n"
        f"code = cli.run({argv!r})\n"
        "print(code, sorted(m[9:] for m in sys.modules if m.startswith('weylcalc.')))\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    core = {"cli", "errors", "lweights", "multisegments", "segments"}
    assert done.stdout.splitlines()[-1] == f"0 {sorted(core | loaded)}"


def test_importing_the_package_loads_no_submodule():
    done = _python("-c", "import sys, weylcalc\n"
                         "print([m for m in sys.modules if m.startswith('weylcalc.')])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_star_import_binds_exactly_the_public_names():
    import weylcalc

    done = _python("-c", "ns = {}\n"
                         "exec('from weylcalc import *', ns)\n"
                         "print(sorted(ns.keys() - {'__builtins__'}))")
    assert done.returncode == 0, done.stderr
    assert len(weylcalc.__all__) == 66
    assert done.stdout.splitlines()[-1] == repr(sorted(weylcalc.__all__))


def _public_samples() -> list:
    """One instance of every public type, and a few more of some."""
    import weylcalc as w

    ms = cli.parse_multisegment("[0,6][2,7][1,8]")
    pair = cli.parse_multisegment("[0,2][1,3]"), cli.parse_multisegment("[1,3][0,2][4,4]")
    root = cli.parse_lweight("w[0,2]^1 * w[1,2]^-1 * w[1,3]^1")
    errors = [cls("bad input") for cls in (getattr(w, n) for n in w.__all__)
              if isinstance(cls, type) and issubclass(cls, Exception)]
    cert = w.ext_vanishing(*pair, 2)
    return errors + [
        w.ParseError("bad input", 3), w.Segment(0, 2), ms, w.weight_of(ms, 6),
        w.decompose_into_roots(root, 2), w.closure(ms, 6), cert, cert.verdict,
        w.ext_vanishing(*pair, 2), w.weyl_qchar(ms, 6), w.fundamental_qchar(w.Segment(0, 2), 3),
        w.socle(ms, 6)[0], w.mixed_weyl_maps(ms, 6),
    ]


def test_every_public_type_pickles_where_only_the_package_is_imported():
    # the child unpickles what this process pickled, then pickles it back,
    # with no weylcalc name read before
    import pickle

    import weylcalc

    samples = _public_samples()
    public = {getattr(weylcalc, n) for n in weylcalc.__all__}
    assert {type(x) for x in samples} == {t for t in public if isinstance(t, type)}
    probe = ("import pickle, sys, weylcalc\n"
             "sys.stdout.buffer.write(pickle.dumps(pickle.loads(sys.stdin.buffer.read())))")
    done = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps(samples),
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for x, y in zip(samples, pickle.loads(done.stdout), strict=True):
        assert type(y) is type(x), x
        if isinstance(x, Exception):
            assert (y.args, vars(y)) == (x.args, vars(x)), x
        else:
            assert y == x, x
