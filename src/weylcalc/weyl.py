"""Decision procedures for standard modules.

Everything here reduces module-theoretic questions (dominant weight
sets, Hom dimensions, socle summands, tensor-order certificates) to the
closure and q-character layers.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple

from .closures import _has_member_weighing, _Record, closed_elements, is_closed
from .errors import NotDominant
from .lweights import LWeight
from .multisegments import Multisegment, connected, normal_form, sort_plus, weight_of
from .segments import check_valid

_lib = sys.modules[__package__]  # the package: _lib.qchars loads qchars on first use


def weyl_dominant_weights(ms: Multisegment, rank: int) -> set[LWeight]:
    """Dominant l-weight support of the standard module attached to ms.

    The weights of the closure of the plus-sorted tuple, so permuting ms
    changes nothing. qchars._weight_keys gives them as int keys into a factor
    table, built from the matchings of lefts to js that pass tests (a) and
    (b), with no member built; one LWeight per key.
    """
    return _lib.qchars._weight_keys(sort_plus(ms), rank).support()


def hom_dim(src: Multisegment, dst: Multisegment, rank: int) -> int:
    """dim Hom(W(src), W(dst)): 1 if src's weight is dominant in dst, else 0.

    Decided without building the closure; see _has_member_weighing.
    """
    want = weight_of(src, rank).exponents()
    return 1 if _has_member_weighing(sort_plus(dst), want, rank) else 0


class SocleSummand(NamedTuple):
    weight: LWeight
    representative: Multisegment


def socle(ms: Multisegment, rank: int) -> list[SocleSummand]:
    """Socle summands: one weight per closed orbit of the closure (closed_elements)."""
    out = [SocleSummand(weight_of(t, rank), t) for t in closed_elements(ms, rank)]
    out.sort(key=lambda s: (s.weight.sort_key(), s.representative))
    return out


def is_irreducible_weyl(ms: Multisegment, rank: int) -> bool:
    """The standard module is simple exactly when the tuple is closed."""
    return is_closed(ms, rank)


def weylpermute_check(ms: Multisegment, rank: int) -> bool:
    """Midpoint condition for an order-insensitive standard module.

    True iff every connected ordered pair (p < s) satisfies
    i_p + j_p >= i_s + j_s.
    """
    return not any(connected(a, b, rank) and a.i + a.j < b.i + b.j
                   for a, b in combinations(ms, 2))


class ExtVerdict(Enum):
    VANISHES = "VANISHES"
    INCONCLUSIVE = "INCONCLUSIVE"


class ExtCertificate(_Record):
    """Verdict plus the shared dominant weights that block a vanishing claim.

    A frozen dataclass in behaviour; given _build, shared_weights is _build()
    on first use (see ext_vanishing), and the builder is dropped.
    """

    __match_args__ = ("verdict", "shared_weights")

    def __init__(self, verdict: ExtVerdict, shared_weights: tuple, _build=None):
        kept = {"_build": _build} if _build else {"shared_weights": shared_weights}
        self.__dict__.update(kept, verdict=verdict)

    @cached_property
    def shared_weights(self) -> tuple[LWeight, ...]:
        return self.__dict__.pop("_build")()


def _meet(plus: tuple[Multisegment, ...], rank: int) -> tuple[set, Callable]:
    """plus[0]'s weight keys that plus[1]'s closure shares, and their weights' builder."""
    weigh = _lib.qchars._weight_keys
    ours = weigh(plus[0], rank)  # a support depends on the plus form alone
    keys = ours._common(weigh(plus[1], rank))
    return keys, lambda: ours._shared(keys)


def ext_vanishing(ms1: Multisegment, ms2: Multisegment, rank: int) -> ExtCertificate:
    """Disjoint dominant supports force Ext vanishing; overlap decides nothing.

    Each closure holds its seed, so each support holds its own tuple's
    weight: equal weights (the plus forms' non-degenerate parts agree) are
    INCONCLUSIVE with no closure built. Other pairs, and any pair with an
    invalid part, go to qchars._weight_keys, which checks every part, plus[0]'s
    first; the verdict is whether their keys meet (QChar._common). The
    shared weights are built from those keys on first use.
    """
    plus = sort_plus(ms1), sort_plus(ms2)
    # a part is a pair i <= j: degenerate at length 0 or rank + 1, invalid above
    kept = [[p for p in t if 0 < p[1] - p[0] <= rank] for t in plus]
    if kept[0] == kept[1] and max([p[1] - p[0] for p in plus[0] + plus[1]]) <= rank + 1:
        return ExtCertificate(ExtVerdict.INCONCLUSIVE, (), lambda: _meet(plus, rank)[1]())
    keys, build = _meet(plus, rank)
    if not keys:
        return ExtCertificate(ExtVerdict.VANISHES, ())
    return ExtCertificate(ExtVerdict.INCONCLUSIVE, (), build)


def subcategory_membership(base: Multisegment, w: LWeight, rank: int) -> bool:
    """Whether a dominant weight lives in the tensor subcategory of base.

    Every support segment must start at some left endpoint of base, end
    at some right endpoint of base, and fit within the rank's reach.
    Raises InvalidSegment on a base part invalid at the rank, then
    NotDominant on a non-dominant weight.
    """
    for p in base:
        check_valid(p, rank)
    if not w.is_dominant:
        raise NotDominant(f"{w} has a negative exponent")
    lefts = {p.i for p in base}
    rights = {p.j for p in base}
    return all(
        seg.i in lefts and seg.j in rights and 0 <= seg.length <= rank + 1
        for seg in w.support()
    )


class MixedWeylMaps(NamedTuple):
    """Head and socle-candidate weights of a mixed module, with witnesses."""

    head: LWeight
    socle_candidate: LWeight
    head_witness: Multisegment
    socle_witness: Multisegment


def mixed_weyl_maps(ms: Multisegment, rank: int) -> MixedWeylMaps:
    """Weights of the two normal forms, which receive and emit the mixed module."""
    plus = normal_form(ms, 1, rank)
    minus = normal_form(ms, -1, rank)
    return MixedWeylMaps(
        weight_of(plus, rank), weight_of(minus, rank), plus, minus
    )
