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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from ._backend import impl as _impl
from .errors import DomainError

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

    @property
    def key_bits(self) -> int:
        return self.d * self.w


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
    """Morton key of ``p``: d*w bits, axis 0 most significant per group."""
    return _impl.interleave(p, cfg.w)


# _SPREAD8[b] is byte b with a zero bit inserted above each of its bits.
_SPREAD8 = tuple(_impl.interleave((0, b), 8) for b in range(256))


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
    key = _impl.interleave
    w = cfg.w
    return [key(p, w) for p in points]


def deinterleave(key: int, cfg: Config) -> Point:
    """Point whose Morton key is ``key``."""
    return _impl.deinterleave(key, cfg.d, cfg.w)


def square_of_point(p: Point, height: int) -> TrieSquare:
    """The height-``height`` trie square containing ``p``."""
    mask = ~((1 << height) - 1)
    return TrieSquare(tuple(c & mask for c in p), height)


def neighbours(s: TrieSquare, cfg: Config) -> Iterator[TrieSquare]:
    """All 3**d - 1 equal-size neighbours that lie inside the domain."""
    side = 1 << s.height
    limit = cfg.coord_limit
    offsets = (-side, 0, side)

    def rec(axis: int, corner: list) -> Iterator[TrieSquare]:
        if axis == cfg.d:
            if any(corner[a] != s.corner[a] for a in range(cfg.d)):
                yield TrieSquare(tuple(corner), s.height)
            return
        base = s.corner[axis]
        for off in offsets:
            c = base + off
            if 0 <= c and c + side <= limit:
                corner[axis] = c
                yield from rec(axis + 1, corner)
        corner[axis] = base

    yield from rec(0, list(s.corner))


def child(s: TrieSquare, index: int, cfg: Config) -> TrieSquare:
    """Child ``index`` of ``s``; bit a of the index selects the upper half
    along axis a.  Raises DomainError at height 0."""
    if s.height < 1:
        raise DomainError("height-0 squares have no children")
    if not 0 <= index < (1 << cfg.d):
        raise DomainError(f"child index {index} outside [0, {1 << cfg.d})")
    half = 1 << (s.height - 1)
    corner = tuple(
        c + (half if (index >> a) & 1 else 0) for a, c in enumerate(s.corner)
    )
    return TrieSquare(corner, s.height - 1)


def square_contains(s: TrieSquare, p: Point) -> bool:
    """True iff ``p`` lies in the half-open square ``s``."""
    side = 1 << s.height
    for a, c in enumerate(s.corner):
        if not c <= p[a] < c + side:
            return False
    return True


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
