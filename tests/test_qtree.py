"""Quadtree queries over Morton-sorted sources, checked against slow scans
and the materialised reference tree."""

import bisect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jittered_net, random_points
from pqc.errors import (
    DimensionError,
    DomainError,
    DuplicatePointError,
    PqcError,
    UnsortedInputError,
)
from pqc.geom import HeightedPoint, round_point, round_set
from pqc.morton import Config, TrieSquare, clear_low_bits, interleave
from pqc.qtree import (
    ArrayPointSource,
    Counters,
    PointSource,
    VertexRange,
    is_crowded,
    restricted_voronoi,
    square_of,
    vertices,
)
from pqc.reference import (
    ExplicitQuadtree,
    brute_voronoi,
    check_well_spaced,
    square_contains,
)
from pqc.store import LOSSLESS, LOSSY, CompressedStore

FIGURE_POINTS = [(5, 2), (6, 3), (8, 4), (9, 6), (10, 6)]
CFG5 = Config(d=2, w=5, gamma=0)


def scan_range(points, square):
    hits = [i for i, p in enumerate(points) if square_contains(square, p)]
    if not hits:
        return None
    return (hits[0], hits[-1] + 1)


def scan_crowded(points, square, cfg):
    from pqc.reference import neighbours

    inside = sum(square_contains(square, p) for p in points)
    if inside >= 2:
        return True
    if inside == 0:
        return False
    return any(
        any(square_contains(nb, p) for p in points) for nb in neighbours(square, cfg)
    )


class TestVertices:
    def test_figure_square(self):
        src = ArrayPointSource(FIGURE_POINTS, CFG5)
        assert vertices(TrieSquare((4, 0), 2), src) == VertexRange(0, 2)

    def test_root_holds_everything(self):
        src = ArrayPointSource(FIGURE_POINTS, CFG5)
        assert vertices(TrieSquare((0, 0), 5), src) == VertexRange(0, 5)

    def test_empty_square(self):
        src = ArrayPointSource(FIGURE_POINTS, CFG5)
        assert len(vertices(TrieSquare((0, 0), 2), src)) == 0

    def test_agrees_with_linear_scan(self):
        cfg = Config(d=2, w=8, gamma=0)
        rng = random.Random(3)
        for trial in range(30):
            pts = sorted(
                random_points(cfg, 1000 + trial, 40),
                key=lambda p: interleave(p, cfg),
            )
            src = ArrayPointSource(pts, cfg, presorted=True)
            for _ in range(20):
                h = rng.randrange(0, 9)
                corner = clear_low_bits(
                    (rng.randrange(256), rng.randrange(256)), h
                )
                if corner[0] + (1 << h) > 256 or corner[1] + (1 << h) > 256:
                    continue
                s = TrieSquare(corner, h)
                rng_got = vertices(s, src)
                expect = scan_range(pts, s)
                if expect is None:
                    assert len(rng_got) == 0
                else:
                    assert (rng_got.lo, rng_got.hi) == expect


class TestIsCrowded:
    CFG3 = Config(d=2, w=3, gamma=0)

    def test_root_with_two_points(self):
        src = ArrayPointSource([(0, 0), (7, 7)], self.CFG3)
        assert is_crowded(TrieSquare((0, 0), 3), src)

    def test_neighbour_makes_crowded(self):
        src = ArrayPointSource([(0, 0), (7, 7)], self.CFG3)
        assert is_crowded(TrieSquare((0, 0), 2), src)

    def test_isolated_is_uncrowded(self):
        src = ArrayPointSource([(0, 0), (7, 7)], self.CFG3)
        assert not is_crowded(TrieSquare((0, 0), 1), src)

    def test_agrees_with_scan(self):
        cfg = Config(d=2, w=6, gamma=0)
        rng = random.Random(17)
        for trial in range(20):
            pts = random_points(cfg, 400 + trial, 12)
            src = ArrayPointSource(pts, cfg)
            for _ in range(30):
                h = rng.randrange(0, 7)
                cx = rng.randrange(0, 64 - (1 << h) + 1)
                cy = rng.randrange(0, 64 - (1 << h) + 1)
                s = TrieSquare(clear_low_bits((cx, cy), h), h)
                assert is_crowded(s, src) == scan_crowded(pts, s, cfg)


class TestSquareOf:
    def test_two_corners(self):
        cfg = Config(d=2, w=3, gamma=0)
        src = ArrayPointSource([(0, 0), (7, 7)], cfg)
        assert square_of((0, 0), src, cfg) == TrieSquare((0, 0), 1)

    def test_single_point_gets_root(self):
        cfg = Config(d=2, w=3, gamma=0)
        src = ArrayPointSource([(3, 3)], cfg)
        assert square_of((3, 3), src, cfg) == TrieSquare((0, 0), 3)

    def test_figure_point_is_unit(self):
        src = ArrayPointSource(FIGURE_POINTS, CFG5)
        assert square_of((5, 2), src, CFG5) == TrieSquare((5, 2), 0)

    def test_adjacent_points_floor_at_unit(self):
        cfg = Config(d=2, w=6, gamma=0)
        src = ArrayPointSource([(1, 1), (2, 1)], cfg)
        s = square_of((1, 1), src, cfg)
        assert s.height == 0 and square_contains(s, (1, 1))

    def test_matches_explicit_tree(self):
        cfg = Config(d=2, w=8, gamma=0)
        for seed in range(25):
            pts = random_points(cfg, 7000 + seed, 25)
            src = ArrayPointSource(pts, cfg)
            tree = ExplicitQuadtree(pts, cfg)
            for p in pts:
                assert square_of(p, src, cfg).height == tree.leaf_height(p), (
                    seed,
                    p,
                )

    def test_result_properties(self):
        cfg = Config(d=2, w=8, gamma=0)
        for seed in range(10):
            pts = jittered_net(cfg, seed, f0=32)
            src = ArrayPointSource(pts, cfg)
            for p in pts:
                s = square_of(p, src, cfg)
                assert square_contains(s, p)
                # The crowding property: the side never exceeds any
                # inter-point distance from p.
                side_sq = (1 << s.height) ** 2
                for q in pts:
                    if q != p:
                        d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                        assert side_sq <= d2

    def test_monotone_under_descent(self):
        # If a square containing p is uncrowded, every smaller one is too:
        # the ordered height scan must show a crowded prefix then an
        # uncrowded suffix, never an alternation.
        cfg = Config(d=2, w=6, gamma=0)
        rng = random.Random(5)
        for seed in range(15):
            pts = random_points(cfg, 9000 + seed, 10)
            src = ArrayPointSource(pts, cfg)
            for _ in range(10):
                p = (rng.randrange(64), rng.randrange(64))
                flags = []
                for h in range(cfg.w + 1):
                    s = TrieSquare(clear_low_bits(p, h), h)
                    flags.append(is_crowded(s, src))
                # Uncrowded below, crowded above: the flags never step down.
                assert flags == sorted(flags)

    def test_rejects_out_of_domain(self):
        src = ArrayPointSource(FIGURE_POINTS, CFG5)
        with pytest.raises(DomainError):
            square_of((40, 2), src, CFG5)


class _MinimalSource(PointSource):
    """Only the three required methods; everything else is inherited."""

    def __init__(self, points, cfg):
        self.cfg = cfg
        self.counters = Counters()
        self._points = sorted(points, key=lambda p: interleave(p, cfg))

    def count(self):
        return len(self._points)

    def point_at(self, rank):
        return self._points[rank]

    def successor_rank(self, key):
        keys = [interleave(p, self.cfg) for p in self._points]
        return sum(k < key for k in keys)


@st.composite
def square_of_cases(draw):
    """A small grid, a point set on it (empty, one point, a clump of
    grid-adjacent points, or scattered) and points to insert later."""
    d = draw(st.sampled_from((2, 3)))
    w = draw(st.integers(1, 4 if d == 2 else 3))
    cfg = Config(d=d, w=w, gamma=draw(st.integers(0, w)))
    coord = st.tuples(*[st.integers(0, (1 << w) - 1)] * d)
    kind = draw(st.sampled_from(("empty", "one", "adjacent", "scattered")))
    if kind == "empty":
        pts = []
    elif kind == "one":
        pts = [draw(coord)]
    elif kind == "adjacent":
        base = draw(coord)
        steps = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), max_size=4))
        pts = {base}
        for step in steps:
            q = tuple(c + o for c, o in zip(base, step))
            if all(0 <= c < cfg.coord_limit for c in q):
                pts.add(q)
        pts = sorted(pts)
    else:
        pts = draw(st.lists(coord, unique=True, max_size=12))
    extra = draw(st.lists(coord, max_size=6))
    return cfg, pts, extra


class TestSquareOfOracle:
    """square_of against the materialised quadtree of the source's points,
    for every point of a small grid, stored or not."""

    @staticmethod
    def check(src, cfg, with_stored):
        stored = list(src.iter_range(0, src.count()))
        tree = ExplicitQuadtree(stored, cfg)
        stored = set(stored)
        grid = itertools.product(range(cfg.coord_limit), repeat=cfg.d)
        for q in grid:
            if with_stored or q not in stored:
                assert square_of(q, src, cfg).height == tree.leaf_height(q), q

    @settings(max_examples=150, deadline=None)
    @given(square_of_cases())
    # Two points in opposite corners: the second bracket is the root.
    @example((Config(d=2, w=2, gamma=0), [(0, 0), (3, 3)], [(1, 2)]))
    # A diagonal pair: unstored points beside it sit just below a bracket.
    @example((Config(d=2, w=2, gamma=1), [(0, 0), (1, 1)], [(2, 0)]))
    def test_matches_explicit_tree(self, case):
        cfg, pts, extra = case
        # Sources without recorded heights: stored points are searched too.
        self.check(ArrayPointSource(pts, cfg), cfg, with_stored=True)
        self.check(_MinimalSource(pts, cfg), cfg, with_stored=True)
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        lossless = CompressedStore.build([HeightedPoint(p, 0) for p in ordered], cfg, LOSSLESS)
        self.check(lossless, cfg, with_stored=True)
        # A lossy store answers its stored points from recorded heights,
        # which inserts leave stale, so only unstored points are checked.
        lossy = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        self.check(lossy, cfg, with_stored=False)
        for p in extra:
            h = square_of(p, lossy, cfg).height
            q = round_point(p, h, cfg.gamma)
            if q not in set(lossy.iter_range(0, lossy.count())):
                lossy.insert(q, h)
        self.check(lossy, cfg, with_stored=False)

    def test_minimal_source_key_at(self):
        cfg = Config(d=3, w=4, gamma=0)
        pts = random_points(cfg, 3, 30)
        src = _MinimalSource(pts, cfg)
        arr = ArrayPointSource(pts, cfg)
        assert [src.key_at(r) for r in range(30)] == [arr.key_at(r) for r in range(30)]


@st.composite
def sweep_cases(draw):
    """(cfg, points) for the leaf-height sweep, d in {2, 3}, w in [1, 8]:
    a lone point, a clump of grid-adjacent points, points on the domain's
    edges and middle lines, or scattered points."""
    d = draw(st.sampled_from((2, 3)))
    w = draw(st.integers(1, 8))
    cfg = Config(d=d, w=w, gamma=0)
    lim = cfg.coord_limit
    coord = st.integers(0, lim - 1)
    point = st.tuples(*[coord] * d)
    kind = draw(st.sampled_from(("one", "adjacent", "edge", "scattered")))
    if kind == "one":
        return cfg, [draw(point)]
    if kind == "adjacent":
        base = draw(point)
        steps = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), min_size=1, max_size=8))
        pts = {tuple(min(lim - 1, max(0, c + o)) for c, o in zip(base, step)) for step in steps}
        return cfg, sorted(pts | {base})
    if kind == "edge":
        edge = st.sampled_from(sorted({0, 1, lim // 2 - 1, lim // 2, lim - 2, lim - 1}))
        on_edge = st.tuples(*[st.one_of(edge, coord)] * d)
        return cfg, list(draw(st.sets(on_edge, min_size=1, max_size=24)))
    return cfg, list(draw(st.sets(point, min_size=1, max_size=24)))


class TestLeafHeights:
    """ArrayPointSource.leaf_heights, which probes occupied-cell sets,
    against square_of's successor searches and the materialised tree."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_cases())
    @example((Config(d=2, w=1, gamma=0), [(1, 1)]))
    @example((Config(d=2, w=1, gamma=0), [(0, 0), (1, 1)]))
    @example((Config(d=2, w=8, gamma=0), [(255, 254), (255, 255), (0, 255)]))
    @example((Config(d=3, w=8, gamma=0), [(0, 0, 0), (255, 255, 255), (0, 255, 128)]))
    # Unit-spacing pairs whose first test is at h = 0: crowded, uncrowded,
    # and crowded on the domain's edge.
    @example((Config(d=2, w=4, gamma=0), [(1, 5), (2, 5)]))
    @example((Config(d=2, w=4, gamma=0), [(5, 5), (7, 5)]))
    @example((Config(d=2, w=4, gamma=0), [(0, 1), (0, 2)]))
    # Every domain edge and corner at the tested levels.
    @example((Config(d=2, w=3, gamma=0), [(0, 0), (0, 7), (7, 0), (7, 7), (0, 3), (7, 4), (3, 0), (4, 7)]))
    # At h = 0, (15, 12) moved one cell up x is (0, 13) when cells pack
    # without a guard bit.
    @example((Config(d=2, w=4, gamma=0), [(15, 12), (15, 14), (0, 13)]))
    # Crowded at the first test: the gallop goes on below it.
    @example((Config(d=2, w=5, gamma=0), [(8, 8), (16, 15), (17, 17)]))
    # d = 3 on the edge; (7, 3, 4) moved up x would alias (0, 4, 4).
    @example((Config(d=3, w=3, gamma=0), [(7, 3, 4), (7, 3, 6), (0, 4, 4)]))
    # First tests on several levels, crowded and not.
    @example((Config(d=2, w=6, gamma=0), [(2, 2), (4, 2), (40, 40), (60, 10), (20, 50), (21, 52)]))
    def test_matches_square_of_and_explicit_tree(self, case):
        cfg, pts = case
        src = ArrayPointSource(pts, cfg)
        heights = src.leaf_heights()
        swept = src.counters.snapshot()
        tree = ExplicitQuadtree(pts, cfg)
        src.counters.reset()
        assert len(heights) == len(pts)
        for r, h in enumerate(heights):
            p = src.point_at(r)
            assert h == square_of(p, src, cfg).height == tree.leaf_height(p), p
        if len(pts) == 1:
            assert heights == [cfg.w]
        # Both tests probe the same squares in the same order; square_of
        # adds one successor search of its own per point.
        assert src.counters.squares_scanned == swept["squares_scanned"]
        assert src.counters.range_queries == swept["range_queries"] + len(pts)

    def test_empty_source(self):
        assert ArrayPointSource([], CFG5).leaf_heights() == []

    @pytest.mark.parametrize(
        "cfg, make, counts",
        [
            (Config(d=2, w=10, gamma=3), lambda cfg: jittered_net(cfg, 5, f0=24), 17845),
            (Config(d=3, w=7, gamma=2), lambda cfg: random_points(cfg, 11, 300), 12031),
        ],
        ids=["net-d2", "random-d3"],
    )
    def test_probe_count_pinned(self, cfg, make, counts):
        # The counts of the successor-search sweep that the cell sets replaced.
        src = ArrayPointSource(make(cfg), cfg)
        src.leaf_heights()
        assert src.counters.snapshot() == {
            "range_queries": counts,
            "blocks_decoded": 0,
            "squares_scanned": counts,
        }


class _SplicedSource(ArrayPointSource):
    """Inserts by splicing into the sorted key and point lists, the way an
    uncompressed oracle kept in step with a store's inserts does."""

    def insert(self, p):
        key = interleave(p, self.cfg)
        i = bisect.bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._points.insert(i, tuple(p))


class TestSplicedSource:
    """Answers after splices equal those of a source built fresh from the
    same points: nothing the sweep builds outlives its call."""

    @settings(max_examples=100, deadline=None)
    @given(square_of_cases())
    def test_matches_fresh_source(self, case):
        cfg, pts, extra = case
        src = _SplicedSource(pts, cfg)
        src.leaf_heights()
        for p in pts[:2]:
            square_of(p, src, cfg)
        held = set(pts)
        for p in extra:
            if p not in held:
                src.insert(p)
                held.add(p)
        fresh = ArrayPointSource(held, cfg)
        assert src.leaf_heights() == fresh.leaf_heights()
        for q in itertools.product(range(cfg.coord_limit), repeat=cfg.d):
            assert square_of(q, src, cfg) == square_of(q, fresh, cfg), q


class TestRestrictedVoronoi:
    PLUS = [(8, 8), (0, 8), (16, 8), (8, 0), (8, 16)]

    def test_plus_shape_cell(self):
        cfg = Config(d=2, w=5, gamma=0, rho=Fraction(2))
        src = ArrayPointSource(self.PLUS, cfg)
        cell = restricted_voronoi((8, 8), src, cfg)
        assert sorted(cell.neighbors) == sorted(self.PLUS[1:])
        assert sorted(cell.polygon) == [
            (Fraction(4), Fraction(4)),
            (Fraction(4), Fraction(12)),
            (Fraction(12), Fraction(4)),
            (Fraction(12), Fraction(12)),
        ]
        assert cell.aspect_sq == Fraction(1, 2)
        assert not cell.clip_bounded
        assert abs(cell.aspect - 0.7071) < 1e-4

    def test_two_point_cell_is_clip_bounded(self):
        cfg = Config(d=2, w=8, gamma=0, rho=Fraction(2))
        src = ArrayPointSource([(100, 100), (110, 100)], cfg)
        cell = restricted_voronoi((100, 100), src, cfg)
        assert cell.clip_bounded
        assert cell.neighbors == [(110, 100)]
        # Clamped at the clip radius: aspect equals beta exactly.
        assert cell.aspect_sq == (2 * cfg.rho) ** 2

    def test_matches_brute_force_on_well_spaced_sets(self):
        cfg = Config(d=2, w=9, gamma=0, rho=Fraction(2))
        checked = 0
        for seed in range(4):
            pts = jittered_net(cfg, 200 + seed, f0=48)
            ok, _, worst = check_well_spaced(pts, cfg.rho, cfg)
            assert ok, f"generator produced aspect^2 {worst}"
            src = ArrayPointSource(pts, cfg)
            for p in pts:
                cell = restricted_voronoi(p, src, cfg)
                ref = brute_voronoi(pts, p, cfg)
                assert not cell.clip_bounded
                assert sorted(cell.neighbors) == ref.neighbors
                assert sorted(cell.polygon) == sorted(ref.polygon)
                assert cell.aspect_sq == ref.aspect_sq
                assert cell.nn_sq == ref.nn_sq
                checked += 1
        assert checked >= 150

    def test_rejects_d3_cell_geometry(self):
        cfg = Config(d=3, w=5, gamma=0)
        src = ArrayPointSource([(1, 1, 1), (4, 4, 4)], cfg)
        with pytest.raises(DimensionError):
            restricted_voronoi((1, 1, 1), src, cfg)

    def test_square_scans_independent_of_n(self):
        # Quadrupling the point count (same local density, larger domain)
        # should not grow the per-query work.
        worst = {}
        for label, w in {"small": 9, "large": 10}.items():
            cfg = Config(d=2, w=w, gamma=0, rho=Fraction(2))
            pts = jittered_net(cfg, 7, f0=48)
            src = ArrayPointSource(pts, cfg)
            rng = random.Random(1)
            sample = rng.sample(pts, 30)
            worst[label] = max(
                restricted_voronoi(p, src, cfg).squares_scanned for p in sample
            )
        assert worst["large"] <= 2 * worst["small"] + 8

    def test_cell_decodes_few_blocks(self):
        # A cell reads the blocks around its site, not every block out to
        # 2*beta*NN.  Each cell starts from an empty block cache.
        cfg = Config(d=2, w=12, gamma=5)
        pts = jittered_net(cfg, 7, f0=48)
        store = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        assert (store.count(), store.block_count) == (5625, 235)
        step = store.count() // 40
        sites = [store.point_at(r * step) for r in range(40)]
        decoded = []
        for p in sites:
            store._cache.clear()
            store.counters.reset()
            restricted_voronoi(p, store, cfg)
            decoded.append(store.counters.blocks_decoded)
        assert sum(decoded) / len(decoded) <= 10


class TestCounters:
    def test_repr_names_every_field(self):
        c = Counters()
        c.range_queries, c.squares_scanned = 3, 5
        assert repr(c) == "Counters(range_queries=3, blocks_decoded=0, squares_scanned=5)"


class TestQueryCost:
    """The paper's query cost, O(w**2 + log n), as a gate on work counts:
    range queries and blocks decoded per query, each from a cold block
    cache, on lossy nets of about 1k and 16k points at w=16 and on the 1k
    net rescaled to w=24."""

    @staticmethod
    def mean_work(pts, cfg, seed=1):
        """Mean (range queries, blocks decoded) of square_of on unstored
        points and of restricted_voronoi on stored ones.  Both stay in the
        middle three quarters of the domain, so the smaller net's larger
        share of boundary cells does not flatter it."""
        store = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        lim = cfg.coord_limit
        margin = lim // 8
        stored = list(store.iter_range(0, store.count()))
        rng = random.Random(seed)
        stored_set = set(stored)
        misses = []
        while len(misses) < 1000:
            p = tuple(rng.randrange(margin, lim - margin) for _ in range(cfg.d))
            if p not in stored_set:
                misses.append(p)
        inner = [p for p in stored if all(margin <= c < lim - margin for c in p)]
        sites = inner[:: len(inner) // 80][:80]  # spread evenly by rank
        work = {}
        for name, op, points in (("square_of", square_of, misses), ("voronoi", restricted_voronoi, sites)):
            queries = blocks = 0
            for p in points:
                store._cache.clear()
                store.counters.reset()
                op(p, store, cfg)
                queries += store.counters.range_queries
                blocks += store.counters.blocks_decoded
            work[name] = (queries / len(points), blocks / len(points))
        return work

    def test_work_is_flat_in_n_and_within_w_squared(self):
        cfg = Config(d=2, w=16, gamma=5)
        small_pts = jittered_net(cfg, 3, f0=1792)
        large_pts = jittered_net(cfg, 3, f0=448)
        assert (len(small_pts), len(large_pts)) == (1024, 16641)
        wide_cfg = Config(d=2, w=24, gamma=5)
        wide_pts = [tuple(c << 8 for c in p) for p in small_pts]
        small = self.mean_work(small_pts, cfg)
        large = self.mean_work(large_pts, cfg)
        wide = self.mean_work(wide_pts, wide_cfg)
        w_bound = (wide_cfg.w / cfg.w) ** 2
        for op in small:
            for i, what in enumerate(("range queries", "blocks decoded")):
                assert large[op][i] <= 1.2 * small[op][i], (op, what, small[op], large[op])
                assert wide[op][i] <= w_bound * small[op][i], (op, what, small[op], wide[op])


class TestArrayPointSourceRejections:
    @pytest.mark.parametrize(
        "points, presorted, error, message",
        [
            ([(1, 2, 3)], False, DomainError, "expected 2 coordinates, got 3"),
            ([(32, 0)], False, DomainError, "coordinate 32 outside [0, 32)"),
            ([(0, -1)], False, DomainError, "coordinate -1 outside [0, 32)"),
            ([(5, 2), (6, 3), (5, 2)], False, DuplicatePointError, "duplicate point (5, 2)"),
            ([(6, 3), (5, 2)], True, UnsortedInputError, "points not in Morton order"),
            # Two defects: the earlier point's error wins.
            ([(40, 0), (1, 2, 3)], False, DomainError, "coordinate 40 outside [0, 32)"),
            ([(1, 2, 3), (40, 0)], False, DomainError, "expected 2 coordinates, got 3"),
            ([(6, 3), (5, 2), (6, 3)], True, UnsortedInputError, "points not in Morton order"),
        ],
        ids=[
            "dimension", "coordinate-high", "coordinate-negative", "duplicate", "unsorted",
            "coordinate-before-dimension", "dimension-before-coordinate",
            "unsorted-before-duplicate",
        ],
    )
    def test_rejection_class_and_message(self, points, presorted, error, message):
        with pytest.raises(error) as info:
            ArrayPointSource(points, CFG5, presorted=presorted)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_heights_of_another_length(self):
        with pytest.raises(PqcError) as info:
            ArrayPointSource([(5, 2)], CFG5, heights=[0, 0])
        assert str(info.value) == "heights length does not match points"

    def test_points_become_tuples(self):
        src = ArrayPointSource([[6, 3], [5, 2]], CFG5)
        assert src.points() == [(5, 2), (6, 3)]
        assert src.keys() == [interleave((5, 2), CFG5), interleave((6, 3), CFG5)]
