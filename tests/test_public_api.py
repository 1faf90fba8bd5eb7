"""Pin the public names, the CLI entry points and the runtime dependencies."""

import ast
import sys
from pathlib import Path

import weylcalc
from weylcalc import cli

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
    for name in EXPORTS:
        assert getattr(weylcalc, name) is not None, name


def test_cli_entry_points_exist():
    # pyproject's console script binds main; the benchmark tracer wraps the rest
    for name in ("run", "main", "build_parser", "parse_multisegment", "parse_lweight"):
        assert callable(getattr(cli, name)), name


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
    # QChar's (factor table, keys) form is read in qchars.py alone, built
    # there and in closures._weight_keys, and turned into LWeights without
    # a copy only by the modules that own LWeight and QChar
    owners = {"_factors": {"qchars.py"}, "_keys": {"qchars.py"},
              "QChar._of": {"qchars.py", "closures.py"},
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
