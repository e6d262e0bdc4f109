"""Slow, explicit reference implementations used by tests and benchmarks.

Everything here favours being obviously correct over being fast, and none
of it shares search or clipping code with the query modules it checks: the
quadtree below is materialised by actually splitting squares, and the
Voronoi cells are cut with a locally written clipper.  Point-in-square
counting walks an x-sorted list, so no Morton machinery is involved.  The
record decoder reads one gamma code at a time through the bit reader's own
methods, without the kernel's string scan, and the record encoder writes
one bit at a time, without the kernel's field accumulation.  The
bit-string helpers, which spell codes out as '0'/'1' text for golden
tests, and the trie helpers at the end (``deinterleave``, ``neighbours``,
``square_contains``, ``child``) are for tests; the library itself has no
use for them.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    CorruptPayloadError,
    DomainError,
    DuplicatePointError,
    GenerationError,
)
from .codec import BitWriter
from .morton import Config, Point, TrieSquare

# --- explicit quadtree --------------------------------------------------


class ExplicitQuadtree:
    """Materialised quadtree built by splitting every crowded square.

    A square is crowded when it holds two or more points, or one point
    while an equal-size neighbour square is nonempty.  Crowdedness depends
    only on the point set, so split order is irrelevant; squares split
    largest-first until only uncrowded (or unit-size) leaves remain.  With
    ``enforce_balance`` the 2:1 rule also splits any leaf having a
    neighbouring leaf one quarter its size or smaller.
    """

    def __init__(self, points: Sequence[Point], cfg: Config, enforce_balance=False):
        self.cfg = cfg
        pts = sorted(points)
        for i in range(1, len(pts)):
            if pts[i] == pts[i - 1]:
                raise DuplicatePointError(f"duplicate point {pts[i]}")
        self._xs = [p[0] for p in pts]
        self._pts = pts
        root = TrieSquare(tuple([0] * cfg.d), cfg.w)
        self.leaves: dict[Point, int] = {}  # corner -> height
        agenda = [root]
        while agenda:
            agenda.sort(key=lambda s: -s.height)
            nxt = []
            for s in agenda:
                if s.height > 0 and self._crowded(s):
                    nxt.extend(self._children(s))
                else:
                    self.leaves[s.corner] = s.height
            agenda = nxt
        if enforce_balance:
            self._balance()

    def _children(self, s: TrieSquare):
        half = 1 << (s.height - 1)
        d = self.cfg.d
        for idx in range(1 << d):
            corner = tuple(
                c + (half if (idx >> a) & 1 else 0) for a, c in enumerate(s.corner)
            )
            yield TrieSquare(corner, s.height - 1)

    def _count_in(self, corner: Point, side: int, stop_at=2) -> int:
        lo = bisect.bisect_left(self._xs, corner[0])
        hit = 0
        for i in range(lo, len(self._pts)):
            p = self._pts[i]
            if p[0] >= corner[0] + side:
                break
            if all(corner[a] <= p[a] < corner[a] + side for a in range(1, len(corner))):
                hit += 1
                if hit >= stop_at:
                    return hit
        return hit

    def _neighbour_corners(self, s: TrieSquare):
        side = 1 << s.height
        limit = self.cfg.coord_limit
        d = self.cfg.d
        for mask in range(3**d):
            offs = []
            m = mask
            for _ in range(d):
                offs.append((m % 3) - 1)
                m //= 3
            if all(o == 0 for o in offs):
                continue
            corner = tuple(s.corner[a] + offs[a] * side for a in range(d))
            if all(0 <= c and c + side <= limit for c in corner):
                yield corner

    def _crowded(self, s: TrieSquare) -> bool:
        side = 1 << s.height
        own = self._count_in(s.corner, side, stop_at=2)
        if own >= 2:
            return True
        if own == 0:
            return False
        return any(
            self._count_in(c, side, stop_at=1) for c in self._neighbour_corners(s)
        )

    def _balance(self):
        # Split any leaf with a neighbouring leaf of a quarter the size,
        # repeating until stable.
        changed = True
        while changed:
            changed = False
            for corner, h in sorted(self.leaves.items(), key=lambda kv: -kv[1]):
                if self.leaves.get(corner) != h or h == 0:
                    continue
                s = TrieSquare(corner, h)
                if any(
                    self._leaf_height_at(nc) <= h - 2
                    for nc in self._neighbour_corners(s)
                ):
                    del self.leaves[corner]
                    for c in self._children(s):
                        self.leaves[c.corner] = c.height
                    changed = True

    def _leaf_height_at(self, probe: Point) -> int:
        s = TrieSquare(tuple([0] * self.cfg.d), self.cfg.w)
        while self.leaves.get(s.corner) != s.height:
            found = None
            for c in self._children(s):
                if all(
                    c.corner[a] <= probe[a] < c.corner[a] + (1 << c.height)
                    for a in range(self.cfg.d)
                ):
                    found = c
                    break
            assert found is not None, "leaves must partition the domain"
            s = found
        return s.height

    def leaf_height(self, p: Point) -> int:
        """Height of the leaf square containing ``p``."""
        return self._leaf_height_at(p)

    def leaf_of(self, p: Point) -> TrieSquare:
        h = self._leaf_height_at(p)
        mask = ~((1 << h) - 1)
        return TrieSquare(tuple(c & mask for c in p), h)


# --- brute-force Voronoi -----------------------------------------------


@dataclass
class BruteCell:
    center: Point
    nn_sq: int
    neighbors: list[Point]
    polygon: list[tuple[Fraction, Fraction]]
    aspect_sq: Fraction
    area: Fraction
    clip_bounded: bool = False


def _cut(poly, a, b, c):
    # Keep {a*x + b*y <= c}; vertices are (X, Y, Z) integer triples, Z > 0.
    res = []
    n = len(poly)
    for i in range(n):
        X1, Y1, Z1 = poly[i - 1]
        X2, Y2, Z2 = poly[i]
        s1 = a * X1 + b * Y1 - c * Z1
        s2 = a * X2 + b * Y2 - c * Z2
        if s2 <= 0:
            if s1 > 0:
                res.append(_meet(poly[i - 1], poly[i], a, b, c))
            res.append(poly[i])
        elif s1 < 0:
            res.append(_meet(poly[i - 1], poly[i], a, b, c))
    out = []
    for v in res:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _meet(p, q, a, b, c):
    ex = p[1] * q[2] - p[2] * q[1]
    ey = p[2] * q[0] - p[0] * q[2]
    ez = p[0] * q[1] - p[1] * q[0]
    # intersection of the edge line (ex, ey, ez) with (a, b, -c)
    X = ey * (-c) - ez * b
    Y = ez * a - ex * (-c)
    Z = ex * b - ey * a
    if Z < 0:
        X, Y, Z = -X, -Y, -Z
    g = math.gcd(math.gcd(abs(X), abs(Y)), Z)
    if g > 1:
        X, Y, Z = X // g, Y // g, Z // g
    return (X, Y, Z)


def _others(points: Sequence[Point], v: Point):
    others = [tuple(p) for p in points if tuple(p) != v]
    if not others:
        raise DomainError("brute Voronoi needs at least two points")
    nn_sq = min((q[0] - v[0]) ** 2 + (q[1] - v[1]) ** 2 for q in others)
    return others, nn_sq


def _cut_cell(v: Point, sites, box) -> tuple[list, list[Point]]:
    """Cut every site's bisector from the box [x0, x1] x [y0, y1]; returns
    the polygon and the sites whose bisector carries one of its edges."""
    x0, y0, x1, y1 = box
    poly = [(x0, y0, 1), (x1, y0, 1), (x1, y1, 1), (x0, y1, 1)]
    lines = []
    for q in sites:
        a = 2 * (q[0] - v[0])
        b = 2 * (q[1] - v[1])
        c = q[0] ** 2 + q[1] ** 2 - v[0] ** 2 - v[1] ** 2
        poly = _cut(poly, a, b, c)
        lines.append((q, a, b, c))
    neighbors = []
    for q, a, b, c in lines:
        on = [
            i
            for i, (X, Y, Z) in enumerate(poly)
            if a * X + b * Y - c * Z == 0
        ]
        hit = False
        for i in range(len(poly)):
            j = (i + 1) % len(poly)
            if i in on and j in on and poly[i] != poly[j]:
                hit = True
        if hit:
            neighbors.append(q)
    return poly, sorted(neighbors)


def _summary(poly, v: Point):
    """Exact vertices, largest squared distance from v, and area."""
    verts = [(Fraction(X, Z), Fraction(Y, Z)) for X, Y, Z in poly]
    max_sq = Fraction(0)
    for x, y in verts:
        max_sq = max(max_sq, (x - v[0]) ** 2 + (y - v[1]) ** 2)
    area = Fraction(0)
    for i in range(len(verts)):
        x1, y1 = verts[i - 1]
        x2, y2 = verts[i]
        area += x1 * y2 - x2 * y1
    return verts, max_sq, abs(area) / 2


def brute_voronoi(points: Sequence[Point], v: Point, cfg: Config) -> BruteCell:
    """Voronoi cell of ``v`` by cutting all n-1 bisectors against the
    domain box, with exact rational arithmetic throughout."""
    v = tuple(v)
    others, nn_sq = _others(points, v)
    wmax = cfg.coord_max
    poly, neighbors = _cut_cell(v, others, (0, 0, wmax, wmax))
    verts, max_sq, area = _summary(poly, v)
    return BruteCell(
        center=v,
        nn_sq=nn_sq,
        neighbors=neighbors,
        polygon=verts,
        aspect_sq=max_sq / nn_sq,
        area=area,
    )


def brute_clipped_voronoi(
    points: Sequence[Point], v: Point, beta, cfg: Config
) -> BruteCell:
    """Voronoi cell of ``v`` clipped at radius beta*NN(v), by cutting the
    bisector of every point within 2*beta*NN(v) against the domain box
    intersected with the smallest integer square around the clip circle.

    Points farther out cannot cut the clip ball.  Every one of those
    bisectors is cut, with no early stop.  ``aspect_sq`` is clamped at
    beta**2 and ``clip_bounded`` reports whether the polygon reaches past
    the clip radius.
    """
    v = tuple(v)
    others, nn_sq = _others(points, v)
    r_clip_sq = Fraction(beta) ** 2 * nn_sq
    half = math.isqrt(math.floor(r_clip_sq))
    while half * half < r_clip_sq:
        half += 1
    wmax = cfg.coord_max
    box = (
        max(v[0] - half, 0),
        max(v[1] - half, 0),
        min(v[0] + half, wmax),
        min(v[1] + half, wmax),
    )
    near = [
        q for q in others if (q[0] - v[0]) ** 2 + (q[1] - v[1]) ** 2 <= 4 * r_clip_sq
    ]
    poly, neighbors = _cut_cell(v, near, box)
    verts, max_sq, area = _summary(poly, v)
    return BruteCell(
        center=v,
        nn_sq=nn_sq,
        neighbors=neighbors,
        polygon=verts,
        aspect_sq=min(max_sq, r_clip_sq) / nn_sq,
        area=area,
        clip_bounded=max_sq > r_clip_sq,
    )


def check_well_spaced(points: Sequence[Point], rho, cfg: Config):
    """Brute aspect-ratio check: (ok, worst_point, worst_aspect_sq)."""
    rho_sq = Fraction(rho) ** 2
    worst_p, worst = None, Fraction(0)
    for p in points:
        cell = brute_voronoi(points, p, cfg)
        if cell.aspect_sq > worst:
            worst_p, worst = tuple(p), cell.aspect_sq
    return worst <= rho_sq, worst_p, worst


# --- generators ----------------------------------------------------------


@dataclass
class EpsilonNetSpec:
    """Jittered-grid sampling plan with spacing floor f0 and coverage
    parameter epsilon (must be a bit above sqrt(2)/2 for a square grid to
    satisfy both net clauses)."""

    f0: int
    epsilon: float
    cols: int
    rows: int
    origin: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise GenerationError(f"epsilon must be in (0, 1), not {self.epsilon}")
        if self.f0 < 1:
            raise GenerationError("f0 must be at least one grid unit")
        if self.cols < 1 or self.rows < 1:
            raise GenerationError(
                f"a net needs at least one column and one row, not {self.cols}x{self.rows}"
            )
        theta = (self.epsilon / math.sqrt(2) - 0.5) / 2
        if theta < 0:
            raise GenerationError(
                f"epsilon {self.epsilon} below the sqrt(2)/2 coverage floor of a grid"
            )
        self.jitter = int(theta * self.f0)
        self.pitch = self.f0 + 2 * self.jitter

    @classmethod
    def fill(cls, f0: int, epsilon: float, cfg: Config) -> "EpsilonNetSpec":
        """Plan that tiles the whole domain box, centering the leftover
        margin so boundary cells stay shapely."""
        probe = cls(f0=f0, epsilon=epsilon, cols=1, rows=1)
        cols = cfg.coord_limit // probe.pitch
        if cols < 1:
            raise GenerationError(f"pitch {probe.pitch} exceeds the domain")
        leftover = cfg.coord_limit - cols * probe.pitch
        m = leftover // 2
        return cls(f0=f0, epsilon=epsilon, cols=cols, rows=cols, origin=(m, m))


def generate_epsilon_net(spec: EpsilonNetSpec, cfg: Config, seed: int) -> list[Point]:
    """Jittered grid: pitch f0 + 2J and per-axis jitter up to J keep pairs
    at least f0 apart, and J is sized so coverage stays within
    epsilon * f0.  Points sit near cell centers.  Pairwise spacing is
    verified post hoc."""
    jit = spec.jitter
    pitch = spec.pitch
    ox, oy = spec.origin
    span_x = ox + spec.cols * pitch
    span_y = oy + spec.rows * pitch
    if max(span_x, span_y) > cfg.coord_limit:
        raise GenerationError(
            f"grid of {spec.cols}x{spec.rows} pitch {pitch} leaves the domain"
        )
    rng = random.Random(seed)
    half = pitch // 2
    pts = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            x = ox + c * pitch + half + (rng.randint(-jit, jit) if jit else 0)
            y = oy + r * pitch + half + (rng.randint(-jit, jit) if jit else 0)
            pts.append((x, y))
    floor_sq = spec.f0 * spec.f0
    for i, p in enumerate(pts):
        r, c = divmod(i, spec.cols)
        for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < spec.rows and 0 <= cc < spec.cols:
                q = pts[rr * spec.cols + cc]
                d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                if d2 < floor_sq:
                    raise GenerationError(f"spacing violation between {p} and {q}")
    return pts


def quadtree_superset(points: Sequence[Point], cfg: Config) -> list[Point]:
    """Well-spaced superset baseline: the input plus every corner of every
    leaf of the balanced (2:1) quadtree over it.  Used as a size yardstick
    for refinement output, not as a quality mesh."""
    tree = ExplicitQuadtree(points, cfg, enforce_balance=True)
    out = {tuple(p) for p in points}
    limit = cfg.coord_max
    for corner, h in tree.leaves.items():
        side = 1 << h
        for dx in (0, side):
            for dy in (0, side):
                x, y = corner[0] + dx, corner[1] + dy
                out.add((min(x, limit), min(y, limit)))
    return sorted(out)


# --- bit-serial record decoder and encoder ------------------------------


def bitwise_decode_records(
    reader, prev, prev_h, d, w, gamma, lossy, end_bit, count=None, version=1
):
    """Decode records one code at a time until the cursor reaches
    ``end_bit``, or until ``count`` records are decoded when ``count`` is
    not None; same contract as the kernels' ``decode_records`` (version 1)
    and ``decode_records_v2`` (versions 2 and 3).

    Every bit goes through ``reader.read_signed_gamma`` / ``read_gamma``,
    or ``read_exp_golomb`` of order ``gamma`` for the coordinate deltas of
    version-2 lossy records, so a truncated stream raises the reader's own
    TruncatedStreamError and leaves the cursor where that read stopped.
    """
    prev = list(prev)
    coords_out = []
    heights_out = []
    shift = 0
    h = 0
    if lossy and version >= 2:
        read_delta = lambda: reader.read_exp_golomb(gamma)  # noqa: E731
    else:
        read_delta = reader.read_gamma
    while reader.tell() < end_bit and (count is None or len(coords_out) < count):
        if lossy:
            h = prev_h + reader.read_signed_gamma()
            if h < 0 or h > w:
                raise CorruptPayloadError(f"decoded height {h} outside [0, {w}]")
            shift = h - gamma if h > gamma else 0
            prev_h = h
        for a in range(d):
            delta = read_delta()
            if delta >> (w - shift):
                raise CorruptPayloadError(
                    f"decoded coordinate delta {delta} overflows width {w}"
                )
            prev[a] = ((prev[a] >> shift) ^ delta) << shift
        coords_out.append(tuple(prev))
        heights_out.append(h)
    return coords_out, heights_out


def bitwise_encode_records(
    writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy, version=1
):
    """Append one record per point one bit at a time; returns bits
    written.  Same contract as the kernels' ``encode_records`` (version 1)
    and ``encode_records_v2`` (versions 2 and 3).

    Each record is spelt out as a '0'/'1' string from the codes' definitions
    in :mod:`pqc.codec`, and each of its characters is one
    ``writer.write_bits(bit, 1)``.
    """

    def gamma_code(v):
        return "1" if v == 0 else "0" * v.bit_length() + format(v, "b")

    def exp_golomb(v):
        u = v + (1 << gamma)
        return "0" * (u.bit_length() - 1 - gamma) + format(u, "b")

    def signed_gamma(v):
        return gamma_code(abs(v)) + ("" if v == 0 else "1" if v < 0 else "0")

    delta_code = exp_golomb if lossy and version >= 2 else gamma_code
    prev = list(prev)
    bits = 0
    for i, cur in enumerate(coords_seq):
        record = ""
        shift = 0
        if lossy:
            h = heights_seq[i]
            record += signed_gamma(h - prev_h)
            shift = max(h - gamma, 0)
            prev_h = h
        for a in range(len(prev)):
            record += delta_code((prev[a] ^ cur[a]) >> shift)
            prev[a] = cur[a]
        for bit in record:
            writer.write_bits(int(bit), 1)
        bits += len(record)
    return bits


# --- bit strings for golden tests -----------------------------------------


def bits_to_string(data: bytes, nbits: int) -> str:
    """The first ``nbits`` bits of ``data`` as a '01' string."""
    out = []
    for i in range(nbits):
        out.append("1" if data[i >> 3] & (0x80 >> (i & 7)) else "0")
    return "".join(out)


def gamma_bitstring(value: int) -> str:
    w = BitWriter()
    n = w.write_gamma(value)
    return bits_to_string(w.getvalue(), n)


def xor_code_strings(points: Sequence[Point], cfg: Config) -> list[str]:
    """Per-point payload bit strings for a lossless stream, axes separated
    by commas.  The first point appears longhand at w bits per axis; each
    later point shows its per-axis gamma codes."""
    out = []
    prev = None
    for p in points:
        if prev is None:
            out.append(",".join(format(c, f"0{cfg.w}b") for c in p))
        else:
            out.append(",".join(gamma_bitstring(prev[a] ^ p[a]) for a in range(cfg.d)))
        prev = p
    return out


# --- trie helpers that only tests use ------------------------------------


def _compact1(v: int) -> int:
    # Inverse of morton._spread1: keep every other bit, from bit 0 up.
    v &= 0x5555555555555555
    v = (v ^ (v >> 1)) & 0x3333333333333333
    v = (v ^ (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v ^ (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v ^ (v >> 8)) & 0x0000FFFF0000FFFF
    v = (v ^ (v >> 16)) & 0x00000000FFFFFFFF
    return v


def deinterleave(key: int, cfg: Config) -> Point:
    """Point whose Morton key is ``key``."""
    d = cfg.d
    if d == 2:
        return (_compact1(key >> 1), _compact1(key))
    coords = [0] * d
    nbits = d * cfg.w
    for bit in range(nbits):
        axis = bit % d
        coords[axis] = (coords[axis] << 1) | ((key >> (nbits - 1 - bit)) & 1)
    return tuple(coords)


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


def square_contains(s: TrieSquare, p: Point) -> bool:
    """True iff ``p`` lies in the half-open square ``s``."""
    side = 1 << s.height
    for a, c in enumerate(s.corner):
        if not c <= p[a] < c + side:
            return False
    return True


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
