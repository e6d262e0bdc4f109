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
uncrowded descendants), which is what makes the height search sound.
:func:`square_of` and :meth:`ArrayPointSource.leaf_heights` share that
search: the keys of a point's Morton neighbours bracket its leaf height,
and only the heights between the brackets need a neighbour probe.
"""

from __future__ import annotations

import bisect
import functools
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
    """Work counters of one source, for complexity regression tests.

    range_queries    key lookups by the queries: one per :func:`vertices`
                     call (a key range, two successor searches) and one per
                     successor search of :func:`square_of`'s height search
                     (for p's own key and for each neighbour probed).
    blocks_decoded   blocks whose decode a compressed store started: one
                     per block-cache miss, however far into the block
                     the read then decodes, and one per decode_block
                     call; cache hits count nothing.
    squares_scanned  equal-size neighbour squares probed by crowding tests
                     and height searches, plus the squares the Voronoi
                     gather visits.
    """

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

    def key_at(self, rank: int) -> int:
        """Morton key of the point at ``rank``."""
        return interleave(self.point_at(rank), self.cfg)

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

    def key_at(self, rank: int) -> int:
        return self._keys[rank]

    def leaf_heights(self) -> list[int]:
        """Leaf height of every point, in rank order, in one pass over the keys.

        Each height equals ``square_of(point, self).height`` and comes from
        the same bracketed search (:func:`_leaf_search`), started at the
        point's known rank, so the sweep makes no successor search of its
        own: only the neighbour probes between each point's brackets.
        """
        height = _leaf_search(self)
        return [height(key, p, r) for r, (key, p) in enumerate(zip(self._keys, self._points))]


@functools.lru_cache(maxsize=None)
def _axis_masks(d: int, w: int) -> tuple:
    """Key bits of each axis; axis 0 is the most significant of a group."""
    return tuple(sum(1 << (d * i + d - 1 - a) for i in range(w)) for a in range(d))


def _leaf_search(src: PointSource):
    """The leaf-height search over ``src``, as a function
    ``height(key, p, r)`` of a point p, its Morton key and r, the rank of
    the first stored key >= key(p).

    A stored point q lies in p's height-h square exactly when
    h >= ceil(b / d), b the bit length of key(p) ^ key(q).  That height
    grows with the rank distance from key(p), so the keys at ranks
    r-2 .. r+1 give two brackets: b1, the first height whose square holds
    a stored point (0 when p is stored), and b2, the first that holds two
    (w + 1 when none does).  Below b1 the square is empty, hence
    uncrowded; from b2 up it is crowded, and when b1 < b2 it is crowded
    at b2 - 1 too.  In between it holds one point, so it is crowded iff an
    equal-size neighbour is nonempty.  Crowdedness is monotone in h, so a
    search between the brackets finds the first crowded height, and the
    leaf is one below it, floored at the unit square.
    """
    cfg = src.cfg
    d, w = cfg.d, cfg.w
    masks = _axis_masks(d, w)
    n = src.count()
    successor_rank = src.successor_rank
    key_at = src.key_at
    counters = src.counters
    none = w + 1

    def height(key: int, p: Point, r: int) -> int:
        # First height whose square holds the predecessor / the successor.
        below = -(-(key ^ key_at(r - 1)).bit_length() // d) if r else none
        above = -(-(key ^ key_at(r)).bit_length() // d) if r < n else none
        if below < above:  # the predecessor comes first, then r-2 or r
            nxt = -(-(key ^ key_at(r - 2)).bit_length() // d) if r > 1 else none
            b1, b2 = below, min(above, nxt)
        elif above < below:  # the successor comes first, then r-1 or r+1
            nxt = -(-(key ^ key_at(r + 1)).bit_length() // d) if r + 1 < n else none
            b1, b2 = above, min(below, nxt)
        else:
            b1 = b2 = below
        if b1 < b2 <= w:
            # One level below b2 the square holds one point, and the second
            # lies in a sibling square, an equal-size neighbour: crowded.
            b2 -= 1
        lo, hi = b1 - 1, b2  # uncrowded at lo (or below 0), crowded at hi
        probes = 0
        # The leaf most often sits just below hi: test down from there in
        # steps of 1, 2, 4, ... and bisect once a test comes out uncrowded.
        step = 1
        while hi - lo > 1:
            h = max(hi - step, lo + 1) if step else (lo + hi) // 2
            # Is an equal-size neighbour of p's height-h square nonempty?
            # One successor search per neighbour inside the domain.  Per
            # axis, the corner's bits of that axis moved by 0, -1 and +1
            # squares come from dilated-integer arithmetic on p's key:
            # setting the other axes' bits before adding lets the carry run
            # through them.  The axes' bits are disjoint, so a neighbour's
            # key is their sum; the first sum, no axis moved, is p's own.
            shift = d * h
            corner = key >> shift << shift
            last_cell = (1 << (w - h)) - 1
            moves = []
            for a in range(d):
                m = masks[a]
                own = corner & m
                unit = 1 << (shift + d - 1 - a)
                cell = p[a] >> h
                axis = [own]
                if cell:
                    axis.append((own - unit) & m)
                if cell < last_cell:
                    axis.append(((own | ~m) + unit) & m)
                moves.append(axis)
            span = 1 << shift
            for nk in itertools.islice(map(sum, itertools.product(*moves)), 1, None):
                probes += 1
                i = successor_rank(nk)
                if i < n and key_at(i) < nk + span:
                    hi = h
                    step *= 2
                    break
            else:
                lo = h
                step = 0
        counters.range_queries += probes
        counters.squares_scanned += probes
        return max(hi - 1, 0)

    return height


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

    ``p`` need not be stored.  One successor search finds the rank of
    key(p).  When the source tracks leaf heights and ``p`` is stored, the
    recorded height is answered directly.  Otherwise the Morton neighbours
    around that rank bracket the height, and a search between the brackets
    probes only equal-size neighbour squares (:func:`_leaf_search`).
    If even the unit square is crowded (a stored point with another at an
    adjacent grid position), the unit square is returned: that is the
    floor of the subdivision.
    """
    cfg = cfg or src.cfg
    validate_point(p, cfg)
    key = interleave(p, cfg)
    src.counters.range_queries += 1
    r = src.successor_rank(key)
    if src.has_heights and r < src.count() and src.key_at(r) == key:
        return square_of_point(p, src.height_at(r))
    return square_of_point(p, _leaf_search(src)(key, p, r))


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
