"""Pin the public names, the CLI entry points and the runtime dependencies."""

import ast
import copy
import importlib
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest.mock import patch

import pytest

import weylcalc
from weylcalc import (
    ClosureSet, ExtCertificate, ExtVerdict, Multisegment, closure, closures,
    cli, ext_vanishing,
)

EXPORTS = [
    "ClosureSet", "ExtCertificate", "ExtVerdict", "IndexOutOfRange",
    "InvalidRoot", "InvalidSegment", "LWeight", "MixedWeylMaps",
    "Multisegment", "NotDominant", "NotInRootLattice", "ParseError",
    "PreconditionViolated", "QChar", "RangeError", "RootVector", "Segment",
    "SocleSummand", "WeylcalcError", "alpha", "canonical_closed",
    "check_valid", "closed_elements", "closure", "compose_roots", "connected",
    "corners", "decompose_into_roots", "dominance_leq", "dominant_ancestor",
    "dual_left", "dual_right", "enumerate_paths", "ext_vanishing",
    "fundamental_qchar", "hom_dim", "in_minus_order", "in_plus_order",
    "iota_at", "iota_minus", "iota_plus", "is_closed", "is_degenerate",
    "is_doubly_sorted", "is_irreducible_weyl", "lweight_of_segment",
    "mixed_weyl_maps", "normal_form", "pair_simple_qchar", "params_of_segment",
    "path_weight", "segment_of_params", "socle", "soclehom_weight",
    "sort_minus", "sort_plus", "span", "subcategory_membership", "swap", "tau",
    "tau_word", "weight_of", "weyl_dominant_part", "weyl_dominant_weights",
    "weyl_qchar", "weylpermute_check",
]


def test_package_exports_are_frozen_and_resolve():
    assert len(EXPORTS) == 66
    assert sorted(weylcalc.__all__) == EXPORTS
    assert weylcalc.__all__ == sorted(weylcalc.__all__)
    for name in EXPORTS:
        assert getattr(weylcalc, name) is not None, name
    ns = {}
    exec("from weylcalc import *", ns)
    assert ns.keys() - {"__builtins__"} == set(EXPORTS)
    # no helper leaks: beyond the exports sit the seven submodules the
    # package imports, cli (imported above), __version__, __all__ and the
    # module dunders
    assert set(dir(weylcalc)) - set(EXPORTS) == {
        "closures", "errors", "lweights", "multisegments", "qchars",
        "segments", "weyl", "cli", "__version__", "__all__",
        "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
        "__name__", "__package__", "__path__", "__spec__",
    }


def test_the_package_copies_no_public_name():
    # each read goes to the home module, so a patch there is seen while it
    # lasts and gone after, whichever read came first
    spy = object()
    with patch.object(closures, "closure", spy):
        assert weylcalc.closure is spy
    assert weylcalc.closure is closures.closure
    assert "closure" not in vars(weylcalc)
    exec("from weylcalc import *", {})
    for name in EXPORTS:
        getattr(weylcalc, name)
    assert not vars(weylcalc).keys() & set(EXPORTS)


def test_cli_entry_points_exist():
    # pyproject's console script binds main; the benchmark tracer wraps the rest
    for name in ("run", "main", "build_parser", "parse_multisegment", "parse_lweight"):
        assert callable(getattr(cli, name)), name


def test_console_script_runs_main(capsys):
    tomllib = pytest.importorskip("tomllib")  # 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["weylcalc"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    assert entry(["closure", "--rank", "6", "[0,6][2,7][1,8]"]) == 0
    assert capsys.readouterr().out == "[0,6][2,7][1,8]\n[2,6][0,7][1,8]\n"


def test_src_imports_only_the_standard_library():
    # README promises no runtime dependencies; relative imports stay inside
    files = sorted(Path(weylcalc.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_the_ranked_format_has_one_owner():
    # QChar's (factor table, keys) form is read and built in qchars.py
    # alone, and turned into LWeights without a copy only by the modules
    # that own LWeight and QChar
    owners = {"_factors": {"qchars.py"}, "_keys": {"qchars.py"},
              "QChar._of": {"qchars.py"},
              "LWeight._wrap": {"lweights.py", "qchars.py"}}
    seen = {name: set() for name in owners}
    for path in sorted(Path(weylcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in ("_factors", "_keys"):
                seen[node.attr].add(path.name)
            elif isinstance(node.value, ast.Name):
                name = f"{node.value.id}.{node.attr}"
                if name in seen:
                    seen[name].add(path.name)
    for name, files in seen.items():
        assert files <= owners[name], (name, sorted(files - owners[name]))


def test_modules_import_only_lower_layers():
    # closures weighs nothing, qchars weighs closures, weyl decides on both
    # and cli fronts them all; no module imports one above it, at the top or
    # late, by reading it off the package at call time: _lib.<module>, or
    # _lib.<public name>, which the package loads from its defining module
    above = {"closures": {"qchars", "weyl", "cli"}, "qchars": {"weyl", "cli"},
             "weyl": {"cli"}}
    for path in sorted(Path(weylcalc.__file__).parent.glob("*.py")):
        imported = {node.module if isinstance(node, ast.ImportFrom)
                    else weylcalc._HOME.get(node.attr, node.attr)
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    or isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "_lib"}
        assert not imported & above.get(path.stem, set()), path.name


ms = cli.parse_multisegment


@dataclass(frozen=True)
class ExtTwin:
    verdict: ExtVerdict
    shared_weights: tuple


@dataclass(frozen=True)
class ClosureTwin:
    rank: int
    seed: Multisegment
    js: tuple
    lefts: tuple


def _certificates():
    """(name, make) pairs: make() gives a fresh certificate, eager or deferred."""
    a, b = ms("[0,2][1,3]"), ms("[1,3][0,2][4,4]")
    far = ms("[5,6]")
    shared = ext_vanishing(a, b, 2).shared_weights
    yield "eager", lambda: ExtCertificate(ExtVerdict.INCONCLUSIVE, shared)
    yield "deferred, equal weights", lambda: ext_vanishing(a, b, 2)
    yield "deferred, other weights", lambda: ext_vanishing(
        ms("[3,5][3,4][2,3]"), ms("[3,5][2,5][1,4][3,3]"), 3)
    yield "vanishing", lambda: ext_vanishing(a, far, 2)
    yield "deferred by hand", lambda: ExtCertificate(
        ExtVerdict.INCONCLUSIVE, (), lambda: shared)


def _closure_sets():
    for text, rank in [("[0,6][2,7][1,8]", 6), ("[2,3][1,2][0,1]", 1), ("[0,1]", 2)]:
        cs = closure(ms(text), rank)
        yield f"{text} at rank {rank}", lambda cs=cs: cs
        yield f"{text} rebuilt from its four fields", lambda cs=cs: ClosureSet(
            cs.rank, cs.seed, cs.js, cs.lefts)


def _twin_of(x):
    if isinstance(x, ExtCertificate):
        return ExtTwin(x.verdict, x.shared_weights)
    return ClosureTwin(x.rank, x.seed, x.js, x.lefts)


@pytest.mark.parametrize("cls, twin, makers", [
    (ExtCertificate, ExtTwin, list(_certificates())),
    (ClosureSet, ClosureTwin, list(_closure_sets())),
])
def test_records_behave_as_frozen_dataclasses(cls, twin, makers):
    # ExtCertificate and ClosureSet are plain classes, so that importing
    # the package needs no dataclasses; each must act as its twin here
    assert cls.__match_args__ == twin.__match_args__
    for name, make in makers:
        x = make()
        t = _twin_of(make())
        assert repr(make()) == repr(t).replace(twin.__name__, cls.__name__), name
        assert hash(make()) == hash(t), name
        for other_name, other_make in makers:
            y, u = other_make(), _twin_of(other_make())
            assert (make() == y) is (t == u), (name, other_name)
            assert (make() != y) is (t != u), (name, other_name)
        for other in (None, 1, (x.__match_args__[0],), t):
            assert (x == other) is False and (x != other) is True, (name, other)
            assert x.__eq__(other) is NotImplemented
        for field_name in (*x.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(x, field_name, None)
            with pytest.raises(AttributeError):
                delattr(x, field_name)
        assert repr(x) == repr(make()), name
        for how, clone in [("pickle", lambda x: pickle.loads(pickle.dumps(x))),
                           ("copy", copy.copy), ("deepcopy", copy.deepcopy)]:
            x, y = make(), clone(make())  # y's source was never read before
            assert type(y) is cls and y == x and repr(y) == repr(x), (name, how)
            assert clone(_twin_of(x)) == _twin_of(x), (name, how)
            if cls is ClosureSet:
                assert y.closed_lefts == x.closed_lefts, (name, how)
                assert x.__reduce__()[1] == (x.rank, x.seed, x.js, x.lefts), name


def test_records_unpack_by_position():
    match ext_vanishing(ms("[0,1]"), ms("[0,1]"), 2):
        case ExtCertificate(ExtVerdict.INCONCLUSIVE, (w,)):
            assert str(w) == "w[0,1]^1"
        case _:
            pytest.fail("no match")
    match closure(ms("[0,1]"), 2):
        case ClosureSet(2, seed, js, lefts):
            assert (str(seed), js, lefts) == ("[0,1]", (1,), ((0,),))
        case _:
            pytest.fail("no match")
