"""Lossy rounding and exact 2D clipped-Voronoi geometry.

Rounding: a point whose quadtree leaf sits at height h keeps gamma bits of
position inside that leaf; the low max(h - gamma, 0) bits of every
coordinate are cleared.  Leaves of distinct points are disjoint trie
squares and rounding never moves a point out of its leaf, so the Morton
order of a rounded set matches the original order and rounded points never
collide.

Voronoi cells are built by clipping halfplanes against an initial box.
All polygon arithmetic is exact: vertices are homogeneous integer triples
(X, Y, Z) ~ (X/Z, Y/Z) with Z > 0, halfplanes have integer coefficients,
and every comparison cross-multiplies.  Floats appear only in reported
summary numbers; anything a test compares is rational.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import DimensionError, DuplicatePointError, PqcError
from .morton import (
    Config,
    Point,
    TrieSquare,
    clear_low_bits,
    interleave,
    validate_point,
)
from .qtree import ArrayPointSource, PointSource, square_of, vertices


class HeightedPoint(NamedTuple):
    coords: Point
    height: int


def round_point(p: Point, height: int, gamma: int) -> Point:
    """Clear the low max(height - gamma, 0) bits of every coordinate."""
    return clear_low_bits(p, height - gamma)


def round_set(
    points: Sequence[Point], cfg: Config, gamma: Optional[int] = None
) -> list[HeightedPoint]:
    """Round a duplicate-free set against its own quadtree leaf heights.

    Heights come from one Morton-order sweep over the original set
    (:meth:`pqc.qtree.ArrayPointSource.leaf_heights`).  A point of
    height h is rounded as :func:`round_point` does, by masks made once
    per height: its coordinates and its Morton key lose their low s and
    d*s bits, s = max(h - gamma, 0), so no point is keyed twice.  The
    result is in Morton order (rounding cannot reorder: each point stays
    inside its own leaf and leaves are disjoint); a collapse or a reorder,
    which correct heights never cause, raises.
    """
    gamma = cfg.gamma if gamma is None else gamma
    d, w = cfg.d, cfg.w
    src = ArrayPointSource(points, cfg)
    heights = src.leaf_heights()
    cleared = [max(h - gamma, 0) for h in range(w + 1)]
    coord_masks = [~((1 << s) - 1) for s in cleared]
    key_masks = [~((1 << d * s) - 1) for s in cleared]
    masks = list(map(coord_masks.__getitem__, heights))
    rounded = list(zip(*(map(operator.and_, column, masks) for column in zip(*src.points()))))
    keys = list(map(operator.and_, src.keys(), map(key_masks.__getitem__, heights)))
    if not all(map(operator.lt, keys, keys[1:])):
        for i in range(1, len(keys)):
            if keys[i] == keys[i - 1]:
                raise DuplicatePointError(f"rounding collapsed two points at {rounded[i]}")
            assert keys[i] > keys[i - 1], "rounding must preserve Morton order"
    return list(map(HeightedPoint, rounded, heights))


# --- exact polygon machinery -------------------------------------------------

HomPoint = tuple[int, int, int]  # (X, Y, Z), Z > 0, gcd-reduced


def _normalize(v: HomPoint) -> HomPoint:
    x, y, z = v
    if z < 0:
        x, y, z = -x, -y, -z
    g = math.gcd(math.gcd(abs(x), abs(y)), z)
    if g > 1:
        x, y, z = x // g, y // g, z // g
    return (x, y, z)


def _cross(a, b) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _side(v: HomPoint, a: int, b: int, c: int) -> int:
    """Sign of a*x + b*y - c at the vertex; negative is inside."""
    return a * v[0] + b * v[1] - c * v[2]


def clip_halfplane(poly: list[HomPoint], a: int, b: int, c: int) -> list[HomPoint]:
    """Intersect a convex polygon with {a*x + b*y <= c}, exactly."""
    if not poly:
        return poly
    line = (a, b, -c)
    sides = [_side(v, a, b, c) for v in poly]
    if all(s <= 0 for s in sides):
        return poly
    out: list[HomPoint] = []
    n = len(poly)
    for i in range(n):
        cur, s_cur = poly[i], sides[i]
        prv, s_prv = poly[i - 1], sides[i - 1]
        if s_cur <= 0:
            if s_prv > 0:
                out.append(_normalize(_cross(_cross(prv, cur), line)))
            out.append(cur)
        elif s_prv < 0:
            out.append(_normalize(_cross(_cross(prv, cur), line)))
    dedup: list[HomPoint] = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _dist_sq(v: HomPoint, cx: int, cy: int) -> tuple[int, int]:
    """Squared distance from (cx, cy) to a homogeneous vertex, as num/den."""
    dx = v[0] - cx * v[2]
    dy = v[1] - cy * v[2]
    return dx * dx + dy * dy, v[2] * v[2]


def _rat_le(n1: int, d1: int, n2: int, d2: int) -> bool:
    return n1 * d2 <= n2 * d1


@dataclass
class ClippedVoronoiCell:
    """A site's Voronoi cell intersected with the domain box and a clip ball.

    ``polygon`` lists the cell vertices as exact rationals in
    counterclockwise order.  ``clip_bounded`` reports whether any vertex
    reaches the clip radius, in which case the true cell may extend
    farther and ``aspect`` is clamped at ``beta``.  ``aspect_sq`` is the
    exact square of the reported aspect ratio.  ``squares_scanned`` counts
    the squares the neighbour scan visited before it could stop.
    """

    center: Point
    nn_sq: int
    neighbors: list[Point]
    polygon: list[tuple[Fraction, Fraction]]
    clip_bounded: bool
    aspect_sq: Fraction
    beta: Fraction
    squares_scanned: int = 0

    @property
    def nn(self) -> float:
        return math.sqrt(self.nn_sq)

    @property
    def aspect(self) -> float:
        return math.sqrt(float(self.aspect_sq))


def _ring_corners(base: Point, side: int, k: int, cfg: Config) -> Iterator[Point]:
    """Corners of the equal-size squares at Chebyshev ring k around a base
    square, skipping squares outside the domain."""
    limit = cfg.coord_limit

    def ok(corner):
        return all(0 <= c and c + side <= limit for c in corner)

    if k == 0:
        if ok(base):
            yield tuple(base)
        return
    if cfg.d == 2:
        bx, by = base
        for i in range(-k, k + 1):
            for j in (-k, k):
                corner = (bx + i * side, by + j * side)
                if ok(corner):
                    yield corner
        for j in range(-k + 1, k):
            for i in (-k, k):
                corner = (bx + i * side, by + j * side)
                if ok(corner):
                    yield corner
        return
    from itertools import product

    for offs in product(range(-k, k + 1), repeat=cfg.d):
        if max(abs(o) for o in offs) != k:
            continue
        corner = tuple(b + o * side for b, o in zip(base, offs))
        if ok(corner):
            yield corner


def _scan(v, src, cfg):
    """Scan squares around v level by level, in growing distance.

    The scan starts at the height of square_of(v) and doubles the square
    size every level, visiting Chebyshev rings 0..4 of the starting level
    and rings 1..4 afterwards.  Finishing the level of side s covers every
    point within Chebyshev (hence Euclidean) distance 3s, so the number of
    squares visited depends on the ratio between the radius a caller
    needs and the local leaf size, never on the total point count.

    After each level it yields (pairs, covered_sq, squares): a
    (dist_sq, point) pair for every stored point other than v first seen
    at this level, the squared distance within which every stored point
    has now been seen, and the number of squares the level visited.  The
    level that spans the whole domain yields covered_sq None and ends the
    scan.  Callers stop pulling levels once they have seen far enough.
    """
    s0 = square_of(v, src, cfg)
    d = cfg.d
    seen = set()
    h = s0.height
    first = True
    while True:
        side = 1 << h
        whole_domain = side >= cfg.coord_limit
        base = clear_low_bits(v, h)
        rings = range(0, 1) if whole_domain else range(0 if first else 1, 5)
        pairs: list[tuple[int, Point]] = []
        squares = 0
        for k in rings:
            for corner in _ring_corners(base, side, k, cfg):
                squares += 1
                src.counters.squares_scanned += 1
                rng = vertices(TrieSquare(corner, h), src)
                for q in src.iter_range(rng.lo, rng.hi):
                    if q == v or q in seen:
                        continue
                    seen.add(q)
                    d2 = 0
                    for a in range(d):
                        diff = q[a] - v[a]
                        d2 += diff * diff
                    pairs.append((d2, q))
        if whole_domain:
            yield pairs, None, squares
            return
        yield pairs, 9 * side * side, squares  # everything within 3*side
        h += 1
        first = False


def _scan_to_nn(levels):
    """Pull levels of a scan into a heap of (dist_sq, point) pairs until
    its top is the nearest neighbour: seen, and no farther than the
    distance the scan covers.

    Returns (heap, covered_sq, squares scanned so far).
    """
    heap: list[tuple[int, Point]] = []
    squares = 0
    for pairs, covered_sq, level_squares in levels:
        squares += level_squares
        for pair in pairs:
            heapq.heappush(heap, pair)
        if heap and (covered_sq is None or heap[0][0] <= covered_sq):
            return heap, covered_sq, squares
    raise PqcError("nearest neighbour undefined: no other stored point")


def nearest_neighbor(v: Point, src: PointSource, cfg: Config = None) -> tuple[int, Point]:
    """Squared distance and coordinates of the nearest stored point != v."""
    cfg = cfg or src.cfg
    validate_point(v, cfg)
    heap, _, _ = _scan_to_nn(_scan(v, src, cfg))
    return heap[0]


def clipped_voronoi(
    v: Point, beta, src: PointSource, cfg: Config = None
) -> ClippedVoronoiCell:
    """Voronoi cell of ``v`` within the domain box, clipped at beta*NN(v).

    The initial polygon is the square circumscribing the clip circle
    intersected with the domain box.  Candidate bisectors are applied
    nearest-first while the squares around ``v`` are scanned outward
    level by level: a site is clipped once the scan covers its distance,
    so the order matches a full sort.  Sites beyond 2*beta*NN(v) cannot
    reach the clip ball, and once the remaining sites are more than twice
    as far as the farthest polygon vertex their halfplanes cannot cut it;
    the scan stops at whichever bound the covered distance reaches first.
    """
    cfg = cfg or src.cfg
    if cfg.d != 2:
        raise DimensionError("clipped Voronoi cell geometry requires d=2")
    validate_point(v, cfg)
    beta = Fraction(beta)
    if src.count() < 2:
        raise PqcError("clipped Voronoi needs at least two stored points")

    levels = _scan(v, src, cfg)
    # heap: the seen sites not yet clipped, in (d2, q) order
    heap, covered_sq, scanned = _scan_to_nn(levels)
    nn_sq = heap[0][0]
    r_clip_sq = beta * beta * nn_sq  # exact squared clip radius
    reach_sq = 4 * r_clip_sq

    # Smallest integer half-width whose square covers the clip radius.
    ceil_r2 = -(-r_clip_sq.numerator // r_clip_sq.denominator)
    half = math.isqrt(ceil_r2)
    if half * half < ceil_r2:
        half += 1

    vx, vy = v
    wmax = cfg.coord_max
    poly: list[HomPoint] = [
        (vx - half, vy - half, 1),
        (vx + half, vy - half, 1),
        (vx + half, vy + half, 1),
        (vx - half, vy + half, 1),
    ]
    for a, b, c in ((-1, 0, 0), (1, 0, wmax), (0, -1, 0), (0, 1, wmax)):
        poly = clip_halfplane(poly, a, b, c)

    lines: list[tuple[Point, tuple[int, int, int]]] = []
    max_n, max_d = _poly_max_dist_sq(poly, vx, vy)
    while True:
        # Every site with d2 <= covered_sq has been seen, so popping up to
        # there follows the full (d2, q) order.
        limit = reach_sq if covered_sq is None else min(covered_sq, reach_sq)
        while heap and heap[0][0] <= limit:
            d2, q = heapq.heappop(heap)
            # Once a site is over twice as far as the farthest vertex, its
            # bisector misses the polygon, as do all later ones.  Then
            # covered_sq * max_d > 4 * max_n too, and the scan ends below.
            if d2 * max_d > 4 * max_n:
                break
            a = 2 * (q[0] - vx)
            b = 2 * (q[1] - vy)
            c = q[0] * q[0] + q[1] * q[1] - vx * vx - vy * vy
            new_poly = clip_halfplane(poly, a, b, c)
            lines.append((q, (a, b, c)))
            if new_poly is not poly:
                poly = new_poly
                max_n, max_d = _poly_max_dist_sq(poly, vx, vy)
        # Unseen sites lie beyond covered_sq: stop once that is out of reach
        # of the clip ball or of the polygon.
        if (
            covered_sq is None
            or covered_sq >= reach_sq
            or covered_sq * max_d >= 4 * max_n
        ):
            break
        pairs, covered_sq, squares = next(levels)
        scanned += squares
        for pair in pairs:
            heapq.heappush(heap, pair)

    neighbors = []
    for q, (a, b, c) in lines:
        if _line_supports_edge(poly, a, b, c):
            neighbors.append(q)
    neighbors.sort(key=lambda q: interleave(q, cfg))

    clip_bounded = not _rat_le(max_n, max_d, r_clip_sq.numerator, r_clip_sq.denominator)
    max_sq = Fraction(max_n, max_d)
    aspect_sq = min(max_sq, r_clip_sq) / nn_sq

    return ClippedVoronoiCell(
        center=tuple(v),
        nn_sq=nn_sq,
        neighbors=neighbors,
        polygon=[(Fraction(x, z), Fraction(y, z)) for x, y, z in poly],
        clip_bounded=clip_bounded,
        aspect_sq=aspect_sq,
        beta=beta,
        squares_scanned=scanned,
    )


def _poly_max_dist_sq(poly: list[HomPoint], cx: int, cy: int) -> tuple[int, int]:
    max_n, max_d = 0, 1
    for vtx in poly:
        n, d = _dist_sq(vtx, cx, cy)
        if n * max_d > max_n * d:
            max_n, max_d = n, d
    return max_n, max_d


def _line_supports_edge(poly: list[HomPoint], a: int, b: int, c: int) -> bool:
    """True when some positive-length polygon edge lies on a*x + b*y = c."""
    n = len(poly)
    if n < 2:
        return False
    for i in range(n):
        u, w = poly[i - 1], poly[i]
        if u != w and _side(u, a, b, c) == 0 and _side(w, a, b, c) == 0:
            return True
    return False
