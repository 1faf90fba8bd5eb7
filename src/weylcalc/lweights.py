"""The free abelian group on segment generators, roots, and dominance.

An l-weight is a finite product of generators w[i,j] with integer
exponents; a root vector collects exponents of the root generators
a[i,j]. Both are zero-pruned sparse maps keyed by Segment on one shared
base class, which gives them equality, hashing, ordering and rendering.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from .errors import InvalidRoot, NotInRootLattice
from .segments import Segment, check_valid, is_degenerate

ExponentSource = Union[Mapping[Segment, int], Iterable[tuple[Segment, int]]]
_RECORD = '{"segment": [%s, %s], "exp": %s}'  # a factor (i, j, e) as json.dumps prints it


def _accumulate(source: ExponentSource) -> dict[Segment, int]:
    items = source.items() if hasattr(source, "items") else source
    acc: dict[Segment, int] = {}
    for seg, e in items:
        if not isinstance(seg, Segment):
            raise TypeError(f"expected Segment key, got {type(seg).__name__}")
        ne = acc.get(seg, 0) + int(e)
        if ne:
            acc[seg] = ne
        elif seg in acc:
            del acc[seg]
    return acc


class _SparseVector:
    """A zero-pruned integer map keyed by Segment; treat instances as immutable.

    Equality and hashing are by the map, and only between instances of the
    same concrete type. `str` renders sorted `_factor` factors (`w[i,j]^e`)
    joined by ` * `, or `1` for the empty vector.
    """

    __slots__ = ("_exp",)

    def __init__(self, exponents: ExponentSource = ()):
        self._exp = _accumulate(exponents)

    @classmethod
    def _wrap(cls, exp: dict[Segment, int]):
        """An instance over an already zero-pruned map, taken without a copy."""
        v = cls.__new__(cls)
        v._exp = exp
        return v

    def support(self) -> set[Segment]:
        return set(self._exp)

    def sort_key(self) -> tuple:
        """Canonical order: sorted (i, j, exponent) triples."""
        return tuple(sorted([(i, j, e) for (i, j), e in self._exp.items()]))

    @classmethod
    def _format(cls, key: tuple) -> str:
        """The rendering of an instance whose sort_key is key."""
        return " * ".join([cls._factor % f for f in key]) or "1"

    def _json(self) -> str:
        """json.dumps of the sorted factors' segment/exp records."""
        return "[%s]" % ", ".join([_RECORD % f for f in self.sort_key()])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._exp == other._exp

    def __hash__(self) -> int:
        return hash(frozenset(self._exp.items()))

    def __str__(self) -> str:
        return self._format(self.sort_key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class LWeight(_SparseVector):
    """A multiplicative l-weight: exponents of the generators w[i,j].

    Supports * (group law), ** (integer powers) and inverse().
    """

    __slots__ = ()
    _factor = "w[%s,%s]^%s"

    @classmethod
    def identity(cls) -> "LWeight":
        return cls()

    @classmethod
    def generator(cls, seg: Segment) -> "LWeight":
        return cls({seg: 1})

    def exponents(self) -> dict[Segment, int]:
        return dict(self._exp)

    def exponent(self, seg: Segment) -> int:
        return self._exp.get(seg, 0)

    @property
    def is_identity(self) -> bool:
        return not self._exp

    @property
    def is_dominant(self) -> bool:
        """Member of the dominant monoid: every exponent nonnegative."""
        return all(e > 0 for e in self._exp.values())

    def __mul__(self, other: "LWeight") -> "LWeight":
        if not isinstance(other, LWeight):
            return NotImplemented
        out = dict(self._exp)
        for seg, e in other._exp.items():
            ne = out.get(seg, 0) + e
            if ne:
                out[seg] = ne
            elif seg in out:
                del out[seg]
        return LWeight._wrap(out)

    def inverse(self) -> "LWeight":
        return LWeight._wrap({seg: -e for seg, e in self._exp.items()})

    def __pow__(self, k: int) -> "LWeight":
        return LWeight._wrap({seg: e * k for seg, e in self._exp.items()} if k else {})


def lweight_of_segment(seg: Segment, rank: int) -> LWeight:
    """Generator for a valid segment; degenerate segments give the identity."""
    check_valid(seg, rank)
    if is_degenerate(seg, rank):
        return LWeight.identity()
    return LWeight({seg: 1})


class RootVector(_SparseVector):
    """Integer coefficients on the root generators a[i,j], keyed by segment.

    The root a[i,j] exists for 1 <= j - i <= rank; the vector itself is
    rank-agnostic storage, validity is checked where roots are composed.
    """

    __slots__ = ()
    _factor = "a[%s,%s]^%s"

    def __init__(self, coefficients: ExponentSource = ()):
        super().__init__(coefficients)

    def coefficients(self) -> dict[Segment, int]:
        return dict(self._exp)

    def coefficient(self, seg: Segment) -> int:
        return self._exp.get(seg, 0)

    @property
    def is_zero(self) -> bool:
        return not self._exp

    @property
    def in_positive_cone(self) -> bool:
        return all(c > 0 for c in self._exp.values())


def alpha(i: int, j: int, rank: int) -> LWeight:
    """The root generator a[i,j] expanded in the segment generators.

    a[i,j] = w[i,j] w[i+1,j+1] w[i+1,j]^-1 w[i,j+1]^-1 with degenerate
    factors dropped.
    """
    if not 1 <= j - i <= rank:
        raise InvalidRoot(f"root ({i},{j}) needs 1 <= j - i <= rank = {rank}")
    w = lweight_of_segment(Segment(i, j), rank)
    w = w * lweight_of_segment(Segment(i + 1, j + 1), rank)
    w = w * lweight_of_segment(Segment(i + 1, j), rank).inverse()
    w = w * lweight_of_segment(Segment(i, j + 1), rank).inverse()
    return w


def compose_roots(rv: RootVector, rank: int) -> LWeight:
    """Product of alpha(i,j)^c over the vector's coefficients."""
    w = LWeight.identity()
    for seg in sorted(rv.support()):
        w = w * alpha(seg.i, seg.j, rank) ** rv.coefficient(seg)
    return w


def _sweep(exp: dict, rank: int, coef=None) -> tuple[int, list[int]]:
    """The least nonzero coefficient met, or 1, and the last row c[s, 0..rank+1].

    Each start solves its row from the one before. At a start where exp
    has no factor that step is the row map (x_1..x_r) -> (x_2 - x_1, ...,
    x_r - x_1, -x_1), of order rank + 1, so the rows of a run of empty
    starts cycle with a period dividing rank + 1. With coef None a run of g
    empty starts is crossed in min(g, rank + 1 + g mod (rank + 1)) rows,
    which meet every row of the cycle and end on the run's last. With coef
    a dict, every start is swept and its nonzero coefficients go into coef.
    Either way a run entered with a zero row is skipped, since it stays zero.
    """
    starts = sorted({i for i, _ in exp})
    least, prev = 1, [0] * (rank + 2)  # c[s-1,d] for d = 0..rank+1; both ends stay 0
    for s, nxt in zip(starts, starts[1:] + [x + 1 for x in starts[-1:]]):
        empty = nxt - s - 1
        if coef is None:
            empty = min(empty, rank + 1 + empty % (rank + 1))
        for t in range(s, s + 1 + empty):
            if t > s and not any(prev):
                break
            row = [0] * (rank + 2)
            for d in range(1, rank + 1):
                c = exp.get((t, t + d), 0) - prev[d] + prev[d + 1] + row[d - 1]
                if c:
                    row[d], least = c, min(least, c)
                    if coef is not None:
                        coef[Segment(t, t + d)] = c
            prev = row
    return least, prev


def decompose_into_roots(w: LWeight, rank: int) -> RootVector:
    """Write w as an integer combination of roots, or raise NotInRootLattice.

    Write c[s,d] for the coefficient of a[s,s+d]. Expanding alpha, the
    exponent of w[s,s+d] in compose_roots(c) is
    c[s,d] + c[s-1,d] - c[s-1,d+1] - c[s,d-1], with c = 0 outside
    1 <= d <= rank: one equation per non-degenerate generator and one
    unknown per root. Rows before the first start of w's support are 0,
    and sweeping s up to the last start, d from 1 to rank inside each s,
    solves the rest exactly (see _sweep). Past the last start every
    exponent is 0 and the row map is invertible, so c has finite support
    iff the last row is 0. Since compose_roots never yields a factor of any
    other length, w is in the lattice iff every factor has length in
    1..rank and the last row is 0. That is decided first, crossing gaps
    between starts in O(rank) rows; only a member is swept start by start
    to list its coefficients.
    """
    exp = w.exponents()
    if all(1 <= seg.length <= rank for seg in exp) and not any(_sweep(exp, rank)[1]):
        coef: dict[Segment, int] = {}
        _sweep(exp, rank, coef)
        return RootVector._wrap(coef)
    raise NotInRootLattice(f"{w} is not in the root lattice at rank {rank}")


def dominance_leq(w1: LWeight, w2: LWeight, rank: int) -> bool:
    """Dominance order: w1 <= w2 iff w2 / w1 is a nonnegative root combination."""
    exp = (w2 * w1.inverse())._exp
    if not all(1 <= seg.length <= rank for seg in exp):
        return False
    least, last = _sweep(exp, rank)
    return least > 0 and not any(last)
