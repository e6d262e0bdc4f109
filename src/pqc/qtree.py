"""Implicit balanced-quadtree queries over any Morton-sorted point sequence.

The operations here never materialise a tree.  They only need a
``PointSource``: something that can report its size, hand out the point at
a given rank, and find the rank of the first point whose Morton key is at
least a given key.  A plain sorted array and the compressed block store
both satisfy that contract, so every query below runs unchanged over
either.  Sources do their own caching: the compressed store keeps its
recently decoded blocks, so queries pass the source straight through.

A square is *crowded* when it holds two or more points, or holds exactly
one while some equal-size neighbour square is nonempty.  Crowdedness is
monotone along any root-to-leaf chain (an uncrowded square has only
uncrowded descendants), which is what makes the height searches in
:func:`square_of` and :meth:`ArrayPointSource.leaf_heights` sound.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator, NamedTuple, Sequence

from .errors import DimensionError, DuplicatePointError, PqcError, UnsortedInputError
from .morton import (
    Config,
    Point,
    TrieSquare,
    interleave,
    neighbours,
    square_key_range,
    square_of_point,
    validate_point,
)


class Counters:
    """Work counters exposed for complexity regression tests."""

    __slots__ = ("range_queries", "blocks_decoded", "squares_scanned")

    def __init__(self):
        self.reset()

    def reset(self):
        self.range_queries = 0
        self.blocks_decoded = 0
        self.squares_scanned = 0

    def snapshot(self) -> dict:
        return {
            "range_queries": self.range_queries,
            "blocks_decoded": self.blocks_decoded,
            "squares_scanned": self.squares_scanned,
        }


class VertexRange(NamedTuple):
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo


class PointSource:
    """Read interface over a Morton-sorted point sequence.

    Subclasses provide count / point_at / successor_rank; the rest has
    workable defaults.  A source that caches does so itself, behind these
    methods; queries never ask for a separate view.
    """

    cfg: Config
    counters: Counters

    def count(self) -> int:
        raise NotImplementedError

    def point_at(self, rank: int) -> Point:
        raise NotImplementedError

    def successor_rank(self, key: int) -> int:
        """Rank of the first point with Morton key >= key."""
        raise NotImplementedError

    def height_at(self, rank: int) -> int:
        """Stored leaf height, or 0 when the source does not track heights."""
        return 0

    @property
    def has_heights(self) -> bool:
        return False

    def iter_range(self, lo: int, hi: int) -> Iterator[Point]:
        for r in range(lo, hi):
            yield self.point_at(r)

    def query_context(self) -> "PointSource":
        """The identity; kept for external callers, nothing in pqc calls it."""
        return self


class ArrayPointSource(PointSource):
    """PointSource over an in-memory, Morton-sorted list of points."""

    def __init__(self, points: Sequence[Point], cfg: Config, heights=None, presorted=False):
        self.cfg = cfg
        pts = [validate_point(p, cfg) for p in points]
        if presorted:
            keys = [interleave(p, cfg) for p in pts]
        else:
            decorated = sorted(
                (interleave(p, cfg), p) for p in pts
            )
            keys = [k for k, _ in decorated]
            pts = [p for _, p in decorated]
        for i in range(1, len(keys)):
            if keys[i] == keys[i - 1]:
                raise DuplicatePointError(f"duplicate point {pts[i]}")
            if keys[i] < keys[i - 1]:
                raise UnsortedInputError("points not in Morton order")
        self._points = pts
        self._keys = keys
        self._heights = list(heights) if heights is not None else None
        if self._heights is not None and len(self._heights) != len(pts):
            raise PqcError("heights length does not match points")
        self.counters = Counters()

    def count(self) -> int:
        return len(self._points)

    def point_at(self, rank: int) -> Point:
        return self._points[rank]

    def successor_rank(self, key: int) -> int:
        return bisect.bisect_left(self._keys, key)

    def height_at(self, rank: int) -> int:
        return self._heights[rank] if self._heights is not None else 0

    @property
    def has_heights(self) -> bool:
        return self._heights is not None

    def iter_range(self, lo: int, hi: int) -> Iterator[Point]:
        return iter(self._points[lo:hi])

    def leaf_heights(self) -> list[int]:
        """Leaf height of every point, in rank order, in one pass over the keys.

        Each height equals ``square_of(point, self).height``.  The point's
        height-h square holds another point exactly when h >= ceil(b / d),
        b the bit length of the smaller xor with its Morton predecessor and
        successor.  Below that bracket the point is alone, so its square is
        crowded iff an equal-size neighbour is nonempty: one bisect of the
        key list per neighbour, whose corner key comes from dilated-integer
        arithmetic on the point's key.  Crowdedness is monotone in h, so a
        binary search under the bracket finds the first crowded height.
        """
        cfg = self.cfg
        d, w = cfg.d, cfg.w
        keys = self._keys
        n = len(keys)
        # Key bits of each axis; axis 0 is the most significant of a group.
        masks = [
            sum(1 << (d * i + d - 1 - a) for i in range(w)) for a in range(d)
        ]
        offsets = [o for o in itertools.product((0, 1, 2), repeat=d) if o != (1,) * d]

        def neighbour_nonempty(key: int, p: Point, h: int) -> bool:
            shift = d * h
            corner = key >> shift << shift
            last_cell = (1 << (w - h)) - 1
            # Per axis: the corner's bits of that axis moved by -1, 0 and +1
            # squares (None outside the domain).  Setting the other axes'
            # bits before adding lets the carry run through them.
            moves = []
            for a in range(d):
                m = masks[a]
                own = corner & m
                unit = 1 << (shift + d - 1 - a)
                cell = p[a] >> h
                moves.append((
                    (own - unit) & m if cell else None,
                    own,
                    ((own | ~m) + unit) & m if cell < last_cell else None,
                ))
            span = 1 << shift
            for o in offsets:
                nk = 0
                for a in range(d):
                    c = moves[a][o[a]]
                    if c is None:
                        break
                    nk |= c
                else:
                    i = bisect.bisect_left(keys, nk)
                    if i < n and keys[i] < nk + span:
                        return True
            return False

        out = []
        for r, (key, p) in enumerate(zip(keys, self._points)):
            near = [key ^ keys[j] for j in (r - 1, r + 1) if 0 <= j < n]
            # First height whose square holds a second point; w + 1 when alone.
            hi = -(-min(near).bit_length() // d) if near else w + 1
            lo = -1  # uncrowded at lo (a sentinel below 0), crowded at hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if neighbour_nonempty(key, p, mid):
                    hi = mid
                else:
                    lo = mid
            out.append(max(hi - 1, 0))
        return out


def vertices(s: TrieSquare, src: PointSource) -> VertexRange:
    """Contiguous rank range of the stored points inside ``s``.

    The square's keys are one run [key(corner), key(corner) + 2**(d*h)), so
    two successor searches bound the range.  The upper key may exceed the
    widest valid key (root query); that needs no special casing because the
    search simply answers n.
    """
    lo_key, hi_key = square_key_range(s, src.cfg)
    src.counters.range_queries += 1
    return VertexRange(src.successor_rank(lo_key), src.successor_rank(hi_key))


def is_crowded(s: TrieSquare, src: PointSource) -> bool:
    """Crowding test: own count >= 2, or == 1 with a nonempty neighbour."""
    own = vertices(s, src)
    if len(own) >= 2:
        return True
    if len(own) == 0:
        return False
    for nb in neighbours(s, src.cfg):
        src.counters.squares_scanned += 1
        if len(vertices(nb, src)) > 0:
            return True
    return False


def square_of(p: Point, src: PointSource, cfg: Config = None) -> TrieSquare:
    """Largest uncrowded trie square containing ``p``.

    ``p`` need not be stored.  When the source tracks leaf heights and
    ``p`` is stored, the recorded height is answered directly.  Otherwise
    the height is found by exponential-then-binary search, which is valid
    because crowdedness is monotone under descent.  If even the unit square
    is crowded (a stored point with another at an adjacent grid position),
    the unit square is returned: that is the floor of the subdivision.
    """
    cfg = cfg or src.cfg
    validate_point(p, cfg)
    if src.has_heights:
        key = interleave(p, cfg)
        r = src.successor_rank(key)
        if r < src.count() and src.point_at(r) == p:
            return square_of_point(p, src.height_at(r))

    def uncrowded(h: int) -> bool:
        return not is_crowded(square_of_point(p, h), src)

    if not uncrowded(0):
        return square_of_point(p, 0)
    # Exponential climb to bracket the first crowded height, then bisect.
    lo = 0  # known uncrowded
    step = 1
    while True:
        h = lo + step
        if h >= cfg.w:
            if uncrowded(cfg.w):
                return square_of_point(p, cfg.w)
            hi = cfg.w  # known crowded
            break
        if uncrowded(h):
            lo = h
            step <<= 1
        else:
            hi = h
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if uncrowded(mid):
            lo = mid
        else:
            hi = mid
    return square_of_point(p, lo)


def restricted_voronoi(v: Point, src: PointSource, cfg: Config = None):
    """Voronoi cell of ``v`` clipped at radius 2*rho*NN(v).

    For a rho-well-spaced source the clipped cell equals the true cell (the
    cell of such a point reaches at most rho*NN(v) from it), so the clip is
    invisible; the precondition is documented, not checked.  Only d=2 cell
    geometry is supported.
    """
    cfg = cfg or src.cfg
    if cfg.d != 2:
        raise DimensionError("restricted Voronoi cell geometry requires d=2")
    from . import geom

    return geom.clipped_voronoi(v, 2 * cfg.rho, src, cfg)
