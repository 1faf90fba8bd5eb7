"""weylcalc: exact multisegment combinatorics for standard modules.

The package computes with segments [i, j], l-weights in the free
abelian group on segment generators, ordered multisegments and their
crossing calculus, closure sets, snake-path q-characters, and the
module-theoretic decision procedures built on top of them.

Importing the package loads no submodule. A public name is read off its
submodule, loaded on first need, at every access; none is copied (PEP 562).
"""

# The one list of public names, by defining submodule, pinned by
# tests/test_public_api.py's EXPORTS; __all__ and __dir__ read it.
_HOME = {name: module for module, names in {
    "closures": "ClosureSet canonical_closed closed_elements closure"
                " dominant_ancestor is_closed",
    "errors": "IndexOutOfRange InvalidRoot InvalidSegment NotDominant"
              " NotInRootLattice ParseError PreconditionViolated RangeError"
              " WeylcalcError",
    "lweights": "LWeight RootVector alpha compose_roots decompose_into_roots"
                " dominance_leq lweight_of_segment",
    "multisegments": "Multisegment connected dual_left dual_right in_minus_order"
                     " in_plus_order iota_at iota_minus iota_plus is_doubly_sorted"
                     " normal_form sort_minus sort_plus span swap tau tau_word"
                     " weight_of",
    "qchars": "QChar corners enumerate_paths fundamental_qchar pair_simple_qchar"
              " path_weight soclehom_weight weyl_dominant_part weyl_qchar",
    "segments": "Segment check_valid is_degenerate params_of_segment"
                " segment_of_params",
    "weyl": "ExtCertificate ExtVerdict MixedWeylMaps SocleSummand ext_vanishing"
            " hom_dim is_irreducible_weyl mixed_weyl_maps socle"
            " subcategory_membership weyl_dominant_weights weylpermute_check",
}.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:  # read off its home each time: nothing is copied here
        return getattr(globals().get(_HOME[name]) or __getattr__(_HOME[name]), name)
    if name in _HOME.values():  # a submodule: importing it binds it here
        __import__(f"{__name__}.{name}")  # seen by -X importtime, unlike import_module
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # the public names, every submodule whether loaded or not, and the dunders
    hidden = {"_HOME", "__getattr__", "__dir__"}
    return sorted({*globals(), *_HOME, *_HOME.values()} - hidden)
