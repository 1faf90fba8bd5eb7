"""Integer segments and their rank-dependent validity."""

from __future__ import annotations

from operator import itemgetter

from .errors import InvalidSegment


class Segment(tuple):
    """The interval [i, j] of integers, i <= j.

    Stored as the plain pair (i, j), so hashing and comparison run at C
    speed. Segments are ordered lexicographically by (i, j), which is
    also the order used for canonical rendering, and a segment compares
    and hashes equal to the plain tuple (i, j).
    """

    __slots__ = ()
    __match_args__ = ("i", "j")

    def __new__(cls, i: int, j: int):
        if j < i:
            raise InvalidSegment(f"segment [{i},{j}] has j < i")
        return tuple.__new__(cls, (i, j))

    i = property(itemgetter(0), doc="Left endpoint.")
    j = property(itemgetter(1), doc="Right endpoint.")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    @property
    def length(self) -> int:
        return self[1] - self[0]

    def shift(self, d: int) -> "Segment":
        return Segment(self[0] + d, self[1] + d)

    def __str__(self) -> str:
        return f"[{self[0]},{self[1]}]"

    def __repr__(self) -> str:
        return f"Segment(i={self[0]}, j={self[1]})"


def check_valid(seg: Segment, rank: int) -> None:
    """Raise InvalidSegment unless 0 <= length <= rank + 1."""
    if not 0 <= seg.length <= rank + 1:
        raise InvalidSegment(
            f"segment {seg} has length {seg.length}, not valid at rank {rank}"
        )


def is_degenerate(seg: Segment, rank: int) -> bool:
    """Segments of length 0 or rank + 1 carry the trivial generator."""
    return seg.length == 0 or seg.length == rank + 1


def segment_of_params(m: int, a: int) -> Segment:
    """Segment for an (index, exponent) pair with m >= 0 and a - m even.

    The pair (m, q^a) corresponds to the interval [(a-m)/2, (a+m)/2].
    """
    if m < 0:
        raise InvalidSegment(f"index m = {m} must be nonnegative")
    if (a - m) % 2:
        raise InvalidSegment(f"pair (m, a) = ({m}, {a}) needs a - m even")
    return Segment((a - m) // 2, (a + m) // 2)


def params_of_segment(seg: Segment) -> tuple[int, int]:
    """Inverse of segment_of_params: [i, j] -> (j - i, i + j)."""
    return seg.length, seg.i + seg.j
