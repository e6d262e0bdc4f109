"""Rounding and exact clipped-Voronoi geometry."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clustered_points, jittered_net, random_points
from pqc.errors import DimensionError, DuplicatePointError, PqcError
from pqc.geom import (
    HeightedPoint,
    clipped_voronoi,
    nearest_neighbor,
    round_point,
    round_set,
)
from pqc.morton import Config, interleave
from pqc.qtree import ArrayPointSource, square_of
from pqc.reference import (
    ExplicitQuadtree,
    brute_clipped_voronoi,
    brute_voronoi,
    check_well_spaced,
)
from pqc.store import LOSSY, CompressedStore


def dist_sq(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def ratio_le_bound(num_sq, den_sq, gamma):
    """Exact test of sqrt(num_sq/den_sq) <= 1 + 2**(1-gamma) * sqrt(2).

    With a = 2**(gamma-1) the inequality squares to
    num*a^2 - den*a^2 - 2*den <= 2*sqrt(2)*a*den, which is settled in
    integers by one more squaring.  Requires gamma >= 1.
    """
    assert gamma >= 1
    a = 1 << (gamma - 1)
    t = num_sq * a * a - den_sq * a * a - 2 * den_sq
    if t <= 0:
        return True
    return t * t <= 8 * a * a * den_sq * den_sq


class TestRoundPoint:
    def test_masking_example(self):
        assert round_point((13, 7), 3, 1) == (12, 4)

    def test_gamma_at_least_height_is_identity(self):
        assert round_point((13, 7), 3, 3) == (13, 7)
        assert round_point((13, 7), 2, 5) == (13, 7)

    def test_full_height_zero_gamma_clears_everything(self):
        assert round_point((13, 7), 5, 0) == (0, 0)

    @given(
        st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1)),
        st.integers(0, 16),
        st.integers(0, 16),
    )
    @settings(deadline=None, max_examples=200)
    def test_idempotent_and_never_increases(self, p, h, gamma):
        r = round_point(p, h, gamma)
        assert round_point(r, h, gamma) == r
        assert all(rc <= pc for rc, pc in zip(r, p))


class TestRoundSet:
    def test_gamma_w_changes_nothing(self):
        cfg = Config(d=2, w=8, gamma=8)
        pts = random_points(cfg, 42, 30)
        out = round_set(pts, cfg)
        assert [hp.coords for hp in out] == sorted(
            pts, key=lambda p: interleave(p, cfg)
        )

    def test_heights_come_from_leaf_search(self):
        cfg = Config(d=2, w=6, gamma=2)
        pts = random_points(cfg, 4, 15)
        src = ArrayPointSource(pts, cfg)
        tree = ExplicitQuadtree(pts, cfg)
        for hp0, p in zip(
            round_set(pts, cfg), sorted(pts, key=lambda p: interleave(p, cfg))
        ):
            assert hp0.height == tree.leaf_height(p)
            assert hp0.coords == round_point(p, hp0.height, cfg.gamma)

    def test_gamma_zero_lands_on_leaf_corner(self):
        cfg = Config(d=2, w=5, gamma=0)
        pts = [(5, 2), (6, 3), (8, 4), (9, 6), (10, 6)]
        src = ArrayPointSource(pts, cfg)
        for hp, p in zip(round_set(pts, cfg, gamma=0), pts):
            leaf = square_of(p, src, cfg)
            assert hp.coords == leaf.corner

    def test_displacement_bound(self):
        # Moving a point costs at most sqrt(d) * 2**(h - gamma).
        cfg = Config(d=2, w=12, gamma=3)
        pts = random_points(cfg, 11, 200)
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        for hp, p in zip(round_set(pts, cfg), ordered):
            moved_sq = dist_sq(hp.coords, p)
            assert moved_sq * (1 << (2 * cfg.gamma)) <= 2 * (1 << (2 * hp.height))

    @pytest.mark.parametrize("gamma", [1, 3, 5])
    def test_pairwise_ratio_bound(self, gamma):
        cfg = Config(d=2, w=10, gamma=gamma)
        pts = jittered_net(cfg, 60 + gamma, f0=48)
        rounded = [hp.coords for hp in round_set(pts, cfg)]
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        n = len(pts)
        for i in range(n):
            for j in range(i + 1, n):
                before = dist_sq(ordered[i], ordered[j])
                after = dist_sq(rounded[i], rounded[j])
                assert ratio_le_bound(after, before, gamma)
                assert ratio_le_bound(before, after, gamma)

    def test_order_is_preserved(self):
        cfg = Config(d=2, w=14, gamma=1)
        pts = random_points(cfg, 13, 300)
        keys = [interleave(hp.coords, cfg) for hp in round_set(pts, cfg)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_height_invariance_under_rounding(self):
        # Recomputing heights over the rounded set should reproduce the
        # stored heights.  This can fail for adversarial inputs near
        # square boundaries at tiny gamma; counterexamples are reported
        # rather than silently accepted or hidden.
        violations = []
        for seed in range(8):
            cfg = Config(d=2, w=9, gamma=3)
            pts = jittered_net(cfg, 500 + seed, f0=32)
            rounded = round_set(pts, cfg)
            again = ExplicitQuadtree([hp.coords for hp in rounded], cfg)
            for hp in rounded:
                h2 = again.leaf_height(hp.coords)
                if h2 != hp.height:
                    violations.append((seed, hp, h2))
        if violations:
            pytest.xfail(f"height invariance counterexamples: {violations[:3]}")


@st.composite
def height_cases(draw):
    """(cfg, points) for the leaf-height oracle: random, clustered,
    grid-adjacent, domain-edge, single-point and two-point sets, d in
    {2, 3}, w in [1, 16]."""
    d = draw(st.sampled_from((2, 3)))
    w = draw(st.integers(1, 16))
    cfg = Config(d=d, w=w, gamma=draw(st.integers(0, w)))
    lim = cfg.coord_limit
    coord = st.integers(0, lim - 1)
    point = st.tuples(*[coord] * d)
    cap = min(24, lim**d)
    kind = draw(st.sampled_from(("random", "clustered", "adjacent", "edge", "one", "two")))
    if kind == "one":
        return cfg, [draw(point)]
    if kind == "two":
        return cfg, list(draw(st.sets(point, min_size=2, max_size=2)))
    if kind == "random":
        return cfg, list(draw(st.sets(point, min_size=1, max_size=cap)))
    if kind == "edge":
        edge = st.sampled_from(sorted({0, 1, lim // 2 - 1, lim // 2, lim - 2, lim - 1}))
        on_edge = st.tuples(*[st.one_of(edge, coord)] * d)
        return cfg, list(draw(st.sets(on_edge, min_size=1, max_size=cap)))
    centre = draw(point)
    spread = 1 if kind == "adjacent" else draw(st.sampled_from((2, 5, 17)))
    offset = st.integers(-spread, spread)
    pts = {
        tuple(min(lim - 1, max(0, c + o)) for c, o in zip(centre, offs))
        for offs in draw(st.lists(st.tuples(*[offset] * d), min_size=1, max_size=cap))
    }
    pts |= draw(st.sets(point, max_size=3))
    return cfg, list(pts)


class TestLeafHeightSweep:
    """round_set's one-pass leaf heights against both search oracles."""

    @given(height_cases())
    @example((Config(d=2, w=4, gamma=0), [(0, 0), (1, 1)]))
    @example((Config(d=3, w=5, gamma=1), [(0, 0, 0), (3, 3, 3), (31, 0, 31)]))
    @settings(deadline=None, max_examples=300)
    def test_heights_match_oracles(self, case):
        cfg, pts = case
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        tree = ExplicitQuadtree(pts, cfg)
        src = ArrayPointSource(pts, cfg)
        rounded = round_set(pts, cfg)
        assert len(rounded) == len(ordered)
        for hp, p in zip(rounded, ordered):
            assert hp.height == tree.leaf_height(p) == square_of(p, src, cfg).height
            assert hp.coords == round_point(p, hp.height, cfg.gamma)
        if len(pts) == 1:
            assert rounded[0].height == cfg.w
        held = set(pts)
        for hp, p in zip(rounded, ordered):
            # A point with a grid-adjacent neighbour has a crowded unit square.
            if any(
                tuple(c + (a == b) * s for b, c in enumerate(p)) in held
                for a in range(cfg.d)
                for s in (-1, 1)
            ):
                assert hp.height == 0

    def test_duplicate_input_rejected(self):
        cfg = Config(d=3, w=6, gamma=2)
        with pytest.raises(DuplicatePointError):
            round_set([(1, 2, 3), (40, 5, 6), (1, 2, 3)], cfg)

    def test_rounding_collapse_rejected(self, monkeypatch):
        # Correct heights never collapse two points; heights that are too
        # tall at gamma 0 move both points onto one corner.
        cfg = Config(d=2, w=6, gamma=0)
        pts = [(0, 0), (3, 3)]
        assert [hp.height for hp in round_set(pts, cfg)] == [0, 0]
        monkeypatch.setattr(ArrayPointSource, "leaf_heights", lambda self: [2, 2])
        with pytest.raises(DuplicatePointError):
            round_set(pts, cfg)


class TestClippedVoronoi:
    def test_matches_brute_when_unclipped(self):
        cfg = Config(d=2, w=9, gamma=0)
        for seed in range(3):
            pts = jittered_net(cfg, 900 + seed, f0=48)
            src = ArrayPointSource(pts, cfg)
            for p in pts:
                cell = clipped_voronoi(p, Fraction(4), src, cfg)
                if cell.clip_bounded:
                    continue
                ref = brute_voronoi(pts, p, cfg)
                assert sorted(cell.polygon) == sorted(ref.polygon)
                assert sorted(cell.neighbors) == ref.neighbors

    @staticmethod
    def _clustered_sources(seed):
        """The same clustered set as an array source, and as a lossy store
        that then takes 30 uniform inserts; with each, the points it holds."""
        cfg = Config(d=2, w=10, gamma=3)
        pts = clustered_points(cfg, seed, 70)
        yield ArrayPointSource(pts, cfg), pts
        store = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        held = {hp.coords for hp in store.decode_all()}
        rng = random.Random(seed)
        target = len(held) + 30
        while len(held) < target:
            p = (rng.randrange(cfg.coord_limit), rng.randrange(cfg.coord_limit))
            if p not in held:
                store.insert(p)
                held.add(p)
        yield store, [hp.coords for hp in store.decode_all()]

    @pytest.mark.parametrize("beta", [Fraction(2), Fraction(7, 2), Fraction(4)])
    def test_matches_clipped_brute_on_clustered_sets(self, beta):
        # The scan stops as soon as unseen sites cannot cut the cell; the
        # oracle cuts every site within reach of the clip ball.
        checked = bounded = 0
        for seed in range(2):
            for src, pts in self._clustered_sources(40 + seed):
                cfg = src.cfg
                rng = random.Random(seed)
                probes = pts + [
                    (rng.randrange(cfg.coord_limit), rng.randrange(cfg.coord_limit))
                    for _ in range(10)
                ]
                for p in probes:
                    cell = clipped_voronoi(p, beta, src, cfg)
                    ref = brute_clipped_voronoi(pts, p, beta, cfg)
                    assert cell.nn_sq == ref.nn_sq
                    assert sorted(cell.neighbors) == ref.neighbors
                    assert sorted(cell.polygon) == sorted(ref.polygon)
                    assert cell.clip_bounded == ref.clip_bounded
                    assert cell.aspect_sq == ref.aspect_sq
                    checked += 1
                    bounded += cell.clip_bounded
        assert checked >= 350
        assert 2 * bounded > checked

    def test_huge_beta_equals_brute_everywhere(self):
        cfg = Config(d=2, w=8, gamma=0)
        pts = random_points(cfg, 77, 25)
        src = ArrayPointSource(pts, cfg)
        for p in pts:
            cell = clipped_voronoi(p, Fraction(10**6), src, cfg)
            ref = brute_voronoi(pts, p, cfg)
            assert sorted(cell.polygon) == sorted(ref.polygon)
            assert cell.aspect_sq == ref.aspect_sq

    def test_probe_point_cell(self):
        cfg = Config(d=2, w=6, gamma=0)
        src = ArrayPointSource([(10, 10), (40, 10), (25, 40)], cfg)
        cell = clipped_voronoi((26, 12), Fraction(3), src, cfg)
        assert cell.nn_sq == dist_sq((26, 12), (40, 10)) or cell.nn_sq == dist_sq(
            (26, 12), (10, 10)
        )
        assert cell.nn_sq == min(
            dist_sq((26, 12), q) for q in [(10, 10), (40, 10), (25, 40)]
        )

    def test_needs_two_points(self):
        cfg = Config(d=2, w=6, gamma=0)
        src = ArrayPointSource([(10, 10)], cfg)
        with pytest.raises(PqcError):
            clipped_voronoi((10, 10), Fraction(4), src, cfg)

    def test_d3_rejected(self):
        cfg = Config(d=3, w=6, gamma=0)
        src = ArrayPointSource([(1, 2, 3), (9, 9, 9)], cfg)
        with pytest.raises(DimensionError):
            clipped_voronoi((1, 2, 3), Fraction(4), src, cfg)

    def test_aspect_clamps_at_beta(self):
        cfg = Config(d=2, w=10, gamma=0)
        src = ArrayPointSource([(500, 500), (530, 500)], cfg)
        beta = Fraction(2)
        cell = clipped_voronoi((500, 500), beta, src, cfg)
        assert cell.clip_bounded
        assert cell.aspect_sq == beta * beta


class TestNearestNeighbor:
    def test_exhaustive_agreement(self):
        cfg = Config(d=2, w=8, gamma=0)
        rng = random.Random(31)
        pts = random_points(cfg, 19, 60)
        src = ArrayPointSource(pts, cfg)
        for _ in range(40):
            v = (rng.randrange(256), rng.randrange(256))
            expect = min(
                (dist_sq(v, q), q) for q in pts if q != v
            )
            assert nearest_neighbor(v, src, cfg) == expect

    def test_d3_candidates_available(self):
        # Cell geometry is 2D-only but neighbour candidates still work in 3D.
        cfg = Config(d=3, w=6, gamma=0)
        pts = [(1, 2, 3), (10, 12, 13), (40, 40, 40)]
        src = ArrayPointSource(pts, cfg)
        d2, q = nearest_neighbor((1, 2, 3), src, cfg)
        assert q == (10, 12, 13)
        assert d2 == dist_sq((1, 2, 3), (10, 12, 13))
