"""Quality refinement over the compressed store.

Vertices are visited in rounds of growing square size 2**h, h a vertex's
height: its leaf height in a lossless store, its recorded rounding height
in a lossy one (not its leaf size; see :func:`refine`).  A vertex whose
square is still larger than the round threshold is deferred; a due
vertex gets its 2*rho-clipped Voronoi cell, and while its aspect ratio
exceeds rho a far point of the cell is chosen, snapped to the grid,
rounded as if it shared the vertex's height, and inserted.  The
threshold repeats while insertions happen, then jumps to the smallest
deferred square; the loop ends when a full pass neither inserts nor
defers, at which moment every vertex has been verified at aspect <= rho.

All aspect and distance comparisons are exact (squared rationals); floats
only appear in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError, DimensionError, DuplicatePointError, RefineError
from .geom import ClippedVoronoiCell, clipped_voronoi, nearest_neighbor, round_point
from .morton import Config, Point, interleave
from .qtree import ArrayPointSource
from .store import LOSSY, CompressedStore


@dataclass(frozen=True)
class RefineParams:
    """Target aspect ratio, rounding precision, and a round budget (0 picks
    40 * (w + 1) rounds); a negative precision or budget raises DomainError.

    Termination requires rho - 2**-gamma >= 1: each Steiner point must
    keep a nearest-neighbour distance strictly beyond its parent's even
    after rounding steals up to 2**-gamma of it.
    """

    rho: Fraction
    gamma: int
    max_rounds: int = 0

    def __post_init__(self):
        rho = Fraction(self.rho)
        object.__setattr__(self, "rho", rho)
        if self.gamma < 0:
            raise DomainError("gamma must be nonnegative")
        if self.max_rounds < 0:
            raise DomainError("max_rounds must be nonnegative (0 picks the default budget)")
        if rho - Fraction(1, 1 << self.gamma) < 1:
            raise DomainError(
                f"rho={rho} too small for gamma={self.gamma}: need rho - 2^-gamma >= 1"
            )


@dataclass
class Insertion:
    """One Steiner insertion event, recorded for the report."""

    parent: Point
    point: Point
    parent_nn_sq: int
    steiner_nn_sq: int
    round_index: int


@dataclass
class RefineReport:
    input_count: int
    output_count: int
    rounds: int
    steiner_count: int
    final_max_aspect_sq: Fraction
    payload_bits_before: int
    payload_bits_after: int
    insertions: list[Insertion] = field(default_factory=list)

    @property
    def final_max_aspect(self) -> float:
        return math.sqrt(float(self.final_max_aspect_sq))

    def bpv_before(self) -> float:
        return self.payload_bits_before / self.input_count if self.input_count else 0.0

    def bpv_after(self) -> float:
        return self.payload_bits_after / self.output_count if self.output_count else 0.0


def pick_steiner(cell: ClippedVoronoiCell, rho, cfg: Config) -> Point:
    """Grid point inside the clipped cell at distance >= rho * NN(v).

    Unclipped cells use the farthest polygon vertex (ties go to the lowest
    Morton key after snapping).  When the cell is clip bounded, the far
    square corners may stick out of the clip ball where the cell is not
    trusted, so the pick walks the segment toward the farthest vertex to a
    rational point verified to land between rho*NN and beta*NN.  Either
    way the result is snapped to the grid toward the cell center.
    """
    rho = Fraction(rho)
    v = cell.center
    nn_sq = cell.nn_sq

    best = []
    best_d = Fraction(-1)
    for x, y in cell.polygon:
        d = (x - v[0]) ** 2 + (y - v[1]) ** 2
        if d > best_d:
            best_d, best = d, [(x, y)]
        elif d == best_d:
            best.append((x, y))

    def snap(px: Fraction, py: Fraction) -> Point:
        sx = math.floor(px) if px >= v[0] else math.ceil(px)
        sy = math.floor(py) if py >= v[1] else math.ceil(py)
        wmax = cfg.coord_max
        return (min(max(sx, 0), wmax), min(max(sy, 0), wmax))

    if not cell.clip_bounded:
        return min(
            (snap(px, py) for px, py in best),
            key=lambda q: interleave(q, cfg),
        )

    ux, uy = best[0]
    seg_sq = (ux - v[0]) ** 2 + (uy - v[1]) ** 2
    lo_sq = rho * rho * nn_sq
    hi_sq = cell.beta * cell.beta * nn_sq
    lam = Fraction(
        min(1023, max(1, round(1024 * 0.95 * math.sqrt(float(hi_sq / seg_sq))))), 1024
    )
    step = Fraction(1, 1024)
    for _ in range(2048):
        r_sq = lam * lam * seg_sq
        if r_sq > hi_sq:
            lam -= step
        elif r_sq < lo_sq:
            lam += step
        else:
            break
    else:
        raise RefineError("could not place a Steiner point inside the clipped cell")
    px = v[0] + lam * (ux - v[0])
    py = v[1] + lam * (uy - v[1])
    return snap(px, py)


def refine(
    store: CompressedStore, params: RefineParams
) -> tuple[CompressedStore, RefineReport]:
    """Refine in place until every vertex has aspect ratio at most rho.

    Returns the same store, packed, plus a report.  Vertices are scheduled by
    ``1 << heights[v]`` and each Steiner point is rounded with its parent
    vertex's ``heights[v]`` and the configured gamma, so the store stays
    compressed as it grows.  In lossless mode ``heights[v]`` is v's leaf
    height.  In lossy mode it is v's recorded height, the height v was
    rounded for, which is not its leaf size once inserts have changed the
    set (a Steiner point records its parent's); and the configured gamma
    may not exceed the store's unless the store's is w, or the rounded
    points would not be rounded for their heights: that raises
    DomainError before any work.
    """
    cfg = store.cfg
    if cfg.d != 2:
        raise DimensionError("refinement requires d=2")
    if store.mode == LOSSY and min(params.gamma, cfg.w) > cfg.gamma:
        # Steiner points rounded with more precision bits than the store's
        # are not rounded for their heights, so an insert would fail.  At
        # heights up to w, any gamma >= w rounds nothing.
        raise DomainError(
            f"refine gamma={params.gamma} exceeds the lossy store's gamma={cfg.gamma}"
        )
    rho = Fraction(params.rho)
    rho_sq = rho * rho
    beta = 2 * rho
    gamma = params.gamma
    bits_before = store.payload_bits()
    n_in = store.count()
    report = RefineReport(
        input_count=n_in,
        output_count=n_in,
        rounds=0,
        steiner_count=0,
        final_max_aspect_sq=Fraction(0),
        payload_bits_before=bits_before,
        payload_bits_after=bits_before,
    )
    if n_in < 2:
        return store, report

    max_rounds = params.max_rounds or 40 * (cfg.w + 1)
    if store.has_heights:
        heights = {hp.coords: hp.height for hp in store.decode_all()}
    else:
        coords = [hp.coords for hp in store.decode_all()]
        src = ArrayPointSource(coords, cfg, presorted=True)
        heights = dict(zip(coords, src.leaf_heights()))

    # coords -> (dirty reach radius^2, verified aspect^2); a vertex leaves
    # the map when an insertion lands close enough to reshape its cell.
    clean: dict[Point, tuple[Fraction, Fraction]] = {}
    r = 0
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RefineError(
                f"no quiescence after {max_rounds} rounds; "
                f"{store.count() - n_in} points inserted so far"
            )
        inserted = False
        deferred_min: Optional[int] = None
        snapshot = [hp.coords for hp in store.decode_all()]
        for v in snapshot:
            size = 1 << heights[v]
            if size > r:
                deferred_min = size if deferred_min is None else min(deferred_min, size)
                continue
            if v in clean:
                continue
            cell = clipped_voronoi(v, beta, store, cfg)
            guard = 0
            while cell.aspect_sq > rho_sq:
                inserted = True
                guard += 1
                if guard > 4096:
                    raise RefineError(f"vertex {v} refuses to reach aspect {rho}")
                x = pick_steiner(cell, rho, cfg)
                xr = round_point(x, heights[v], gamma)
                if xr == v:
                    raise RefineError(f"Steiner point for {v} rounded onto it")
                nn_x_sq, _ = nearest_neighbor(xr, store, cfg)
                try:
                    store.insert(xr, heights[v])
                except DuplicatePointError as exc:
                    raise RefineError(f"Steiner point {xr} already present") from exc
                heights[xr] = heights[v]
                report.insertions.append(
                    Insertion(v, xr, cell.nn_sq, nn_x_sq, rounds)
                )
                for q, (reach_sq, _aspect) in list(clean.items()):
                    d2 = (q[0] - xr[0]) ** 2 + (q[1] - xr[1]) ** 2
                    if d2 <= reach_sq:
                        del clean[q]
                cell = clipped_voronoi(v, beta, store, cfg)
            clean[v] = (4 * beta * beta * cell.nn_sq, cell.aspect_sq)
        if inserted:
            pass  # repeat the same threshold until the scale is quiet
        elif deferred_min is not None:
            r = deferred_min
        else:
            break
    report.rounds = rounds
    report.steiner_count = store.count() - n_in
    report.output_count = store.count()
    store.pack()
    report.payload_bits_after = store.payload_bits()
    report.final_max_aspect_sq = max(
        (aspect for _reach, aspect in clean.values()), default=Fraction(0)
    )
    return store, report
