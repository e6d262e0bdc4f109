"""Fixed-point points, trie squares, and Morton-key arithmetic.

Points live on the integer grid [0, 2**w)**d with d in {2, 3} and w up to
32 bits per axis.  A trie square is a node of the implicit 2**d-ary
subdivision of that grid, named by its minimum corner and a height h (side
length 2**h); the corner of a valid square has its low h bits zero on every
axis.  The Morton key of a point interleaves coordinate bits with axis 0
occupying the most significant position of each group, so comparing keys
orders points exactly as a depth-first traversal of the trie visits them.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, DuplicatePointError, UnsortedInputError

Point = tuple[int, ...]


@dataclass(frozen=True)
class Config:
    """Grid geometry and coding parameters shared across the package.

    d      dimension, 2 or 3
    w      coordinate width in bits, 1..32
    gamma  rounding precision: lossy rounding keeps gamma bits below a
           point's leaf height; defaults to min(5, w)
    rho    target Voronoi aspect ratio for well-spacedness checks and
           refinement; kept rational so comparisons stay exact
    """

    d: int = 2
    w: int = 16
    gamma: Optional[int] = None
    rho: Fraction = Fraction(2)

    def __post_init__(self):
        if self.d not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, not {self.d}")
        if not 1 <= self.w <= 32:
            raise DomainError(f"coordinate width must be in [1, 32], not {self.w}")
        if self.gamma is None:
            object.__setattr__(self, "gamma", min(5, self.w))
        if not 0 <= self.gamma <= self.w:
            raise DomainError(f"gamma must be in [0, {self.w}], not {self.gamma}")
        rho = Fraction(self.rho)
        object.__setattr__(self, "rho", rho)
        if rho <= 1:
            raise DomainError(f"rho must exceed 1, not {rho}")

    @property
    def coord_limit(self) -> int:
        return 1 << self.w

    @property
    def coord_max(self) -> int:
        return (1 << self.w) - 1


class TrieSquare(NamedTuple):
    corner: Point
    height: int

    @property
    def side(self) -> int:
        return 1 << self.height


def validate_point(p: Sequence[int], cfg: Config) -> Point:
    """Return ``p`` as a tuple, raising DomainError if it is off-grid."""
    if len(p) != cfg.d:
        raise DomainError(f"expected {cfg.d} coordinates, got {len(p)}")
    limit = cfg.coord_limit
    for c in p:
        if not 0 <= c < limit:
            raise DomainError(f"coordinate {c} outside [0, {limit})")
    return tuple(p)


def all_on_grid(points: Sequence[Point], cfg: Config) -> bool:
    """True iff :func:`validate_point` accepts every point: the check in
    bulk, by min and max over the lengths and over each coordinate column.
    A caller that gets False runs :func:`validate_point` point by point to
    raise the first point's error."""
    if not points:
        return True
    lengths = list(map(len, points))
    if min(lengths) != cfg.d or max(lengths) != cfg.d:
        return False
    limit = cfg.coord_limit
    return all(min(column) >= 0 and max(column) < limit for column in zip(*points))


def check_increasing(keys: Sequence[int], points: Sequence[Point]):
    """Raise unless the Morton keys strictly increase: DuplicatePointError
    naming the point when the first pair out of order is equal,
    UnsortedInputError when it is reversed."""
    if all(map(operator.lt, keys, islice(keys, 1, None))):
        return
    for i in range(1, len(keys)):
        if keys[i] == keys[i - 1]:
            raise DuplicatePointError(f"duplicate point {points[i]}")
        if keys[i] < keys[i - 1]:
            raise UnsortedInputError("points not in Morton order")


def validate_square(s: TrieSquare, cfg: Config) -> TrieSquare:
    """Raise DomainError unless ``s`` names a node of the trie."""
    if not 0 <= s.height <= cfg.w:
        raise DomainError(f"square height {s.height} outside [0, {cfg.w}]")
    side = 1 << s.height
    mask = side - 1
    for c in s.corner:
        if c & mask:
            raise DomainError(f"corner {s.corner} not aligned to height {s.height}")
        if c < 0 or c + side > cfg.coord_limit:
            raise DomainError(f"square {s.corner}+{side} leaves the domain")
    if len(s.corner) != cfg.d:
        raise DomainError(f"expected {cfg.d} corner coordinates")
    return s


def interleave(p: Point, cfg: Config) -> int:
    """Morton key of ``p``: d*w bits, axis 0 most significant per group.

    For d=2 with both coordinates below 2**16 the key is four lookups in
    ``_SPREAD8``; wider 2D coordinates use :func:`_spread1`, and other
    dimensions interleave bit by bit."""
    if len(p) == 2:
        x, y = p
        if (x | y) >> 16:
            return (_spread1(x) << 1) | _spread1(y)
        t = _SPREAD8
        return (
            (t[x >> 8] << 17) | (t[y >> 8] << 16) | (t[x & 0xFF] << 1) | t[y & 0xFF]
        )
    key = 0
    for bit in range(cfg.w - 1, -1, -1):
        for c in p:
            key = (key << 1) | ((c >> bit) & 1)
    return key


def _spread1(v: int) -> int:
    # Insert a zero bit above every input bit; good for inputs below 2**32.
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    v = (v | (v << 1)) & 0x5555555555555555
    return v


# _SPREAD8[b] is byte b with a zero bit inserted above each of its bits.
_SPREAD8 = tuple(_spread1(b) for b in range(256))


def interleave_all(points: Sequence[Point], cfg: Config) -> list[int]:
    """Morton keys of ``points``, in order: :func:`interleave` of each,
    in one call per batch.  For d=2 and w <= 16 each key is four
    ``_SPREAD8`` lookups, inline."""
    if cfg.d == 2 and cfg.w <= 16:
        t = _SPREAD8
        return [
            (t[x >> 8] << 17) | (t[y >> 8] << 16) | (t[x & 0xFF] << 1) | t[y & 0xFF]
            for x, y in points
        ]
    return [interleave(p, cfg) for p in points]


def square_of_point(p: Point, height: int) -> TrieSquare:
    """The height-``height`` trie square containing ``p``."""
    mask = ~((1 << height) - 1)
    return TrieSquare(tuple(c & mask for c in p), height)


def square_key_range(s: TrieSquare, cfg: Config) -> tuple[int, int]:
    """Half-open Morton-key interval covered by ``s``.

    A trie square holds exactly the points sharing the corner's key prefix,
    so its keys form one contiguous run of length 2**(d*h).
    """
    lo = interleave(s.corner, cfg)
    return lo, lo + (1 << (cfg.d * s.height))


def clear_low_bits(p: Point, nbits: int) -> Point:
    """Zero the low ``nbits`` bits of every coordinate."""
    if nbits <= 0:
        return tuple(p)
    mask = ~((1 << nbits) - 1)
    return tuple(c & mask for c in p)
