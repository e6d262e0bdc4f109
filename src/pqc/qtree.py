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
search (:func:`_leaf_search`): the keys of a point's Morton neighbours
bracket its leaf height, and only the heights between the brackets need a
neighbour test, "is an equal-size neighbour square nonempty?".  The test
is the search's argument.  :func:`square_of` brackets its one point from
the keys around its rank (:func:`_brackets`) and answers the test with one
successor search per neighbour square, which any source supports;
:func:`is_crowded` asks the same test of one square.
:meth:`ArrayPointSource.leaf_heights`, which sweeps every point it holds,
brackets them all in one pass over the sorted keys.  Most points' searches
end at their first test, so the sweep answers the first tests one level
at a time, in bulk, from a hash set of the level's occupied cells
(:func:`_occupied_cell_test`); a point crowded there goes on through the
same search, with the same cell sets.  A cell-set lookup and a successor
search probe the same squares in the same order, so heights and probe
counts do not depend on which one answered.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import Iterator, NamedTuple, Sequence

from .errors import DimensionError, PqcError
from .morton import (
    Config,
    Point,
    TrieSquare,
    all_on_grid,
    check_increasing,
    interleave,
    interleave_all,
    square_key_range,
    square_of_point,
    validate_point,
)


class Counters:
    """Work counters of one source, for complexity regression tests.

    range_queries    key lookups by the queries: one per :func:`vertices`
                     call (a key range, two successor searches), one per
                     successor search of :func:`square_of`'s height search
                     (for p's own key and for each neighbour probed) and
                     of :func:`is_crowded`'s neighbour test (one per
                     neighbour probed), and one per neighbour probed by
                     :meth:`ArrayPointSource.leaf_heights` (a cell-set
                     lookup or a successor search).
    blocks_decoded   blocks whose decode a compressed store started: one
                     per block-cache miss, however far into the block
                     the read then decodes and whether it starts at the
                     head or at the resume point, and one per block of
                     a whole-block walk (decode_block, decode_all,
                     bit_budget, pack); cache hits count nothing, nor
                     does the decode of a cached run's head part, nor a
                     load's validating walk.
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

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in self.snapshot().items())
        return f"Counters({fields})"


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
        """Rank of the first point with Morton key >= key; keys strictly increase."""
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
        pts = list(map(tuple, points))
        if not all_on_grid(pts, cfg):
            for p in pts:
                validate_point(p, cfg)
        keys = interleave_all(pts, cfg)
        if not presorted:
            decorated = sorted(zip(keys, pts))
            keys = [k for k, _ in decorated]
            pts = [p for _, p in decorated]
        check_increasing(keys, pts)
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

    def keys(self) -> list[int]:
        """Morton keys of the points, in rank order; not to be mutated."""
        return self._keys

    def points(self) -> list[Point]:
        """The points as coordinate tuples, in rank order; not to be mutated."""
        return self._points

    def leaf_heights(self) -> list[int]:
        """Leaf height of every point, in rank order, one level at a time.

        Each height equals ``square_of(point, self).height``, found with the
        same neighbour probes in the same order.  A stored point's lower
        bracket is 0 and its upper one, top, comes from its Morton
        neighbours' keys (:func:`_upper_brackets`), for every consecutive
        pair at once.  The search between the brackets (:func:`_leaf_search`)
        tests height top - 1 first, and most points are uncrowded there,
        which ends their search at top - 1.  So the sweep groups the points
        by that first height and answers each group's test in one pass over
        the level's occupied cells (:func:`_occupied_cell_test`).  Only a
        point crowded there goes on, through :func:`_leaf_search` with the
        same cell sets, from the gallop's next step.  A point with top 0 is
        tested nowhere: its leaf is the unit square.
        """
        d, w = self.cfg.d, self.cfg.w
        keys, pts = self._keys, self._points
        if not keys:
            return []
        none = d * w + 1  # the key difference to a neighbour that does not exist
        bit_lengths = list(map(int.bit_length, map(operator.xor, keys, keys[1:])))
        rows = map(_upper_brackets(d, w).__getitem__, [none] + bit_lengths)
        tops = list(map(operator.getitem, rows, bit_lengths + [none]))
        # Uncrowded at its first test, a point's leaf is max(top - 1, 0).
        heights = list(map(((0,) + tuple(range(w + 1))).__getitem__, tops))
        level_test, test = _occupied_cell_test(self)
        search = _leaf_search(self, test)
        probes = 0
        for top in set(tops) - {0}:
            crowded, made = level_test(top - 1, list(map(top.__eq__, tops)))
            probes += made
            for r in crowded:
                heights[r] = search(keys[r], pts[r], -1, top - 1, 2)
        self.counters.range_queries += probes
        self.counters.squares_scanned += probes
        return heights


@functools.lru_cache(maxsize=None)
def _axis_masks(d: int, w: int) -> tuple:
    """Key bits of each axis; axis 0 is the most significant of a group."""
    return tuple(sum(1 << (d * i + d - 1 - a) for i in range(w)) for a in range(d))


@functools.lru_cache(maxsize=None)
def _upper_brackets(d: int, w: int) -> tuple:
    """``table[b][b']``: the upper bracket of a stored point whose Morton
    key differs from its neighbours' keys in bit lengths b and b' (d*w + 1
    where there is no neighbour).

    That is :func:`_brackets`' hi for a stored point: the point's lower
    bracket is 0, the first height whose square holds a second point is
    ceil(min(b, b') / d), and the sibling rule lowers it by one; it is
    w + 1 where no second point exists.
    """
    none = d * w + 1
    top = [-(-b // d) - 1 for b in range(none)] + [w + 1]
    return tuple(tuple(top[min(b, c)] for c in range(none + 1)) for b in range(none + 1))


def _successor_test(src: PointSource):
    """Is an equal-size neighbour of p's height-h square nonempty?  As a
    function ``test(key, p, h)`` -> (answer, probes made), that makes one
    successor search on ``src`` per neighbour inside the domain.

    Per axis, the corner's bits of that axis moved by 0, -1 and +1 squares
    come from dilated-integer arithmetic on p's key: setting the other
    axes' bits before adding lets the carry run through them.  The axes'
    bits are disjoint, so a neighbour's key is their sum; the first sum,
    no axis moved, is p's own.
    """
    cfg = src.cfg
    d, w = cfg.d, cfg.w
    masks = _axis_masks(d, w)
    n = src.count()
    successor_rank = src.successor_rank
    key_at = src.key_at

    def test(key: int, p: Point, h: int) -> tuple:
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
        probes = 0
        for nk in itertools.islice(map(sum, itertools.product(*moves)), 1, None):
            probes += 1
            i = successor_rank(nk)
            if i < n and key_at(i) < nk + span:
                return True, probes
        return False, probes

    return test


def _occupied_cell_test(src: ArrayPointSource):
    """:func:`_successor_test`'s question and probe order, answered from
    hash sets of the occupied cells of each level (as in Warren and
    Salmon's hashed oct-tree) instead of successor searches.  Two functions
    share the sets:

    - ``level_test(h, chosen)`` -> (ranks of the chosen points whose
      height-h square has a nonempty equal-size neighbour, probes made for
      all chosen points), ``chosen`` a flag per rank, every chosen point
      alone in its height-h square: the whole group in one pass;
    - ``test(key, p, h)`` -> (answer, probes made), as
      :func:`_successor_test` gives it, for one point.

    A point packs into one int of w + 1 bits per axis, ``sum(c << a*(w+1))``
    over its coordinates c: w bits of coordinate under one guard bit.  Its
    cell at height h is the packed point shifted right by h and masked to
    w - h bits per axis, and a neighbour's cell is that plus a fixed offset,
    ``sum(delta_a << a*(w+1))``, each axis moved by 0, -1 or +1 cells; the
    offsets are listed once, in the successor test's probe order (axis 0
    slowest, the move that changes nothing left out).  A move past the
    domain's edge sets a bit outside the mask: the bit above the cell's
    bits or, moving below 0, the guard bit (or the sign of the whole int)
    through the borrow.  So an out-of-domain neighbour is never an
    occupied cell, no move reaches into another axis's bits, and a probe
    counts only when its neighbour has no bit outside the mask.

    An uncrowded interior cell probes all 3**d - 1 neighbours, so the
    group pass walks the probes one by one only for crowded cells and for
    cells on the domain's edge.  A level's set is built the first time the
    level is tested.  The sets belong to these functions alone, so they
    never outlive the source's current points.  The source must not be
    empty.
    """
    cfg = src.cfg
    d, w = cfg.d, cfg.w
    n = src.count()
    repeat = itertools.repeat
    add, sub, and_, or_ = operator.add, operator.sub, operator.and_, operator.or_
    lshift = operator.lshift
    shifts = [a * (w + 1) for a in range(d)]
    ones = sum(1 << shift for shift in shifts)  # one cell up on every axis
    columns = [list(map(operator.itemgetter(a), src.points())) for a in range(d)]
    packed = columns[0]
    for shift, column in zip(shifts[1:], columns[1:]):
        packed = map(or_, packed, map(lshift, column, repeat(shift)))
    packed = list(packed)
    # A point's cell is on the domain's edge from the height of the bit
    # length of its lowest coordinate, or of its highest one's distance to
    # the last coordinate, up; below the least such height no cell is.
    last = (1 << w) - 1
    edge = min(min(min(c).bit_length(), (last - max(c)).bit_length()) for c in columns)
    moves = itertools.islice(itertools.product((0, -1, 1), repeat=d), 1, None)
    offsets = [sum(map(lshift, move, shifts)) for move in moves]
    forward = [offset for offset in offsets if offset > 0]  # one of each pair +-offset
    levels = {}  # h -> (bits outside the cell mask, every point's cell, occupied cells)

    def level(h: int) -> tuple:
        got = levels.get(h)
        if got is None:
            mask = ((1 << (w - h)) - 1) * ones
            cells = list(map(and_, map(operator.rshift, packed, repeat(h)), repeat(mask)))
            got = levels[h] = (~mask, cells, set(cells))
        return got

    def walk(cell: int, outside: int, occupied: set) -> tuple:
        probes = 0
        for offset in offsets:
            near = cell + offset
            if not near & outside:
                probes += 1
                if near in occupied:
                    return True, probes
        return False, probes

    def level_test(h: int, chosen: list) -> tuple:
        outside, cells, occupied = level(h)
        here = list(itertools.compress(cells, chosen))
        # Probe from the chosen cells with every move or, when they are
        # most of the points, from every cell with one move of each
        # opposite pair.  Either way a hit marks the cells at both ends.
        probe, moves = (cells, forward) if 2 * len(here) > n else (here, offsets)
        crowded = set()
        for offset in moves:
            hits = occupied.intersection(map(add, probe, repeat(offset)))
            crowded.update(hits, map(sub, hits, repeat(offset)))
        crowded.intersection_update(here)
        walked = set(crowded)
        if h >= edge:  # add the cells with an axis at the domain's first or last cell
            low = map(and_, map(sub, here, repeat(ones)), repeat(outside))
            high = map(and_, map(add, here, repeat(ones)), repeat(outside))
            walked.update(itertools.compress(here, map(or_, low, high)))
        probes = len(offsets) * (len(here) - len(walked))
        probes += sum(walk(cell, outside, occupied)[1] for cell in walked)
        if not crowded:
            return [], probes
        return list(itertools.compress(range(n), map(crowded.__contains__, cells))), probes

    def test(key: int, p: Point, h: int) -> tuple:
        outside, _, occupied = level(h)
        return walk(sum(map(lshift, p, shifts)) >> h & ~outside, outside, occupied)

    return level_test, test


def _brackets(src: PointSource, key: int, r: int) -> tuple:
    """The heights (lo, hi) between which a point p's leaf-height search
    runs: p's square is uncrowded at height lo (or lo < 0) and crowded at
    hi.  ``key`` is key(p) and r the rank of the first stored key >= key.

    A stored point q lies in p's height-h square exactly when
    h >= ceil(b / d), b the bit length of key(p) ^ key(q).  That height
    grows with the rank distance from key(p), so the keys at ranks
    r-2 .. r+1 give two brackets: b1, the first height whose square holds
    a stored point (0 when p is stored), and b2, the first that holds two
    (w + 1 when none does).  Below b1 the square is empty, hence
    uncrowded; from b2 up it is crowded, and when b1 < b2 it is crowded
    at b2 - 1 too (the sibling rule).  In between it holds one point, so
    it is crowded iff an equal-size neighbour is nonempty.
    """
    d, w = src.cfg.d, src.cfg.w
    n = src.count()
    key_at = src.key_at
    none = w + 1
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
    return b1 - 1, b2


def _leaf_search(src: PointSource, neighbour_nonempty):
    """The leaf-height search over ``src``, as a function
    ``height(key, p, lo, hi, step=1)`` of a point p, its Morton key and
    the brackets of :func:`_brackets`.  ``neighbour_nonempty(key, p, h)``
    answers whether an equal-size neighbour of p's height-h square holds a
    stored point, with the number of neighbour squares it probed.

    Crowdedness is monotone in h, so a search between the brackets finds
    the first crowded height, and the leaf is one below it, floored at the
    unit square.
    """
    counters = src.counters

    def height(key: int, p: Point, lo: int, hi: int, step: int = 1) -> int:
        probes = 0
        # The leaf most often sits just below hi: test down from there in
        # steps of 1, 2, 4, ... and bisect once a test comes out uncrowded.
        # A caller that found the square crowded at hi - 1 itself passes
        # that height as hi and the gallop's next step, 2.
        while hi - lo > 1:
            h = max(hi - step, lo + 1) if step else (lo + hi) // 2
            crowded, made = neighbour_nonempty(key, p, h)
            probes += made
            if crowded:
                hi = h
                step *= 2
            else:
                lo = h
                step = 0
        # Each probe counts as one range query, whether it was a successor
        # search or a cell-set lookup, so the counts do not depend on the test.
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
    """Crowding test: own count >= 2, or == 1 with a nonempty neighbour.

    The own count is one :func:`vertices` range query.  The neighbour
    test is :func:`square_of`'s (:func:`_successor_test`): one successor
    search per neighbour probed, each counted as one range query and one
    scanned square.
    """
    own = len(vertices(s, src))
    if own != 1:
        return own > 1
    key = interleave(s.corner, src.cfg)
    crowded, probes = _successor_test(src)(key, s.corner, s.height)
    src.counters.range_queries += probes
    src.counters.squares_scanned += probes
    return crowded


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
    lo, hi = _brackets(src, key, r)
    return square_of_point(p, _leaf_search(src, _successor_test(src))(key, p, lo, hi))


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
