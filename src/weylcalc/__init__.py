"""weylcalc: exact multisegment combinatorics for standard modules.

The package computes with segments [i, j], l-weights in the free
abelian group on segment generators, ordered multisegments and their
crossing calculus, closure sets, snake-path q-characters, and the
module-theoretic decision procedures built on top of them.
"""

from .closures import (
    ClosureSet,
    canonical_closed,
    closed_elements,
    closure,
    dominant_ancestor,
    is_closed,
)
from .errors import (
    IndexOutOfRange,
    InvalidRoot,
    InvalidSegment,
    NotDominant,
    NotInRootLattice,
    ParseError,
    PreconditionViolated,
    RangeError,
    WeylcalcError,
)
from .lweights import (
    LWeight,
    RootVector,
    alpha,
    compose_roots,
    decompose_into_roots,
    dominance_leq,
    lweight_of_segment,
)
from .multisegments import (
    Multisegment,
    connected,
    dual_left,
    dual_right,
    in_minus_order,
    in_plus_order,
    iota_at,
    iota_minus,
    iota_plus,
    is_doubly_sorted,
    normal_form,
    sort_minus,
    sort_plus,
    span,
    swap,
    tau,
    tau_word,
    weight_of,
)
from .qchars import (
    QChar,
    corners,
    enumerate_paths,
    fundamental_qchar,
    pair_simple_qchar,
    path_weight,
    soclehom_weight,
    weyl_dominant_part,
    weyl_qchar,
)
from .segments import (
    Segment,
    check_valid,
    is_degenerate,
    params_of_segment,
    segment_of_params,
)
from .weyl import (
    ExtCertificate,
    ExtVerdict,
    MixedWeylMaps,
    SocleSummand,
    ext_vanishing,
    hom_dim,
    is_irreducible_weyl,
    mixed_weyl_maps,
    socle,
    subcategory_membership,
    weyl_dominant_weights,
    weylpermute_check,
)

__version__ = "0.1.0"

# The import block above is the one list of public names, pinned by
# tests/test_public_api.py's EXPORTS; submodules and __version__ fall out.
__all__ = sorted(name for name, value in globals().items()
                 if name[0] != "_"
                 and getattr(value, "__module__", "").startswith("weylcalc."))
