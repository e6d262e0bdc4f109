"""Refinement: termination, conservativity, exact quality of the output."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import jittered_net
from pqc.errors import DomainError
from pqc.geom import round_set
from pqc.morton import Config
from pqc.refine import RefineParams, pick_steiner, refine
from pqc.qtree import ArrayPointSource, restricted_voronoi
from pqc.reference import check_well_spaced, quadtree_superset
from pqc.store import LOSSLESS, LOSSY, CompressedStore

RHO = Fraction(2)
GAMMA = 4
THRESH_SQ = (RHO - Fraction(1, 1 << GAMMA)) ** 2


def lossy_store(points, cfg):
    return CompressedStore.build(round_set(points, cfg), cfg, LOSSY)


def adversarial_cases(w, count=8, seed=77):
    """Mixes of tight pairs, lines, clusters, and sparse scatters with
    pairwise spacing at least 64 grid units."""
    lim = (1 << w) - 1
    rng = random.Random(seed)
    cases = [
        [(100, 120), (164, 160)],
        [(50, 50), (114, 50), (178, 50), (3500, 50)],
        [(100, 100 + 96 * i) for i in range(5)]
        + [(100 + 96 * i, 100) for i in range(1, 5)],
        [(200 + 64 * i, 200 + 64 * j) for i in range(3) for j in range(2)]
        + [(3400 + 64 * i, 3500 + 64 * j) for i in range(2) for j in range(2)],
    ]
    while len(cases) < count:
        pts = []
        n = rng.randrange(5, 30)
        while len(pts) < n:
            cand = (rng.randrange(0, lim), rng.randrange(0, lim))
            if all(
                (cand[0] - p[0]) ** 2 + (cand[1] - p[1]) ** 2 >= 64 * 64 for p in pts
            ):
                pts.append(cand)
        cases.append(pts)
    return cases


class TestParams:
    def test_termination_inequality_enforced(self):
        with pytest.raises(DomainError):
            RefineParams(rho=Fraction(5, 4), gamma=1)
        RefineParams(rho=Fraction(3, 2), gamma=1)  # exactly rho - 2^-g == 1

    def test_rho_coerced(self):
        assert RefineParams(rho=2, gamma=3).rho == Fraction(2)


class TestPickSteiner:
    def test_symmetric_square_breaks_ties_by_morton(self):
        cfg = Config(d=2, w=5, gamma=0, rho=Fraction(2))
        plus = [(8, 8), (0, 8), (16, 8), (8, 0), (8, 16)]
        src = ArrayPointSource(plus, cfg)
        cell = restricted_voronoi((8, 8), src, cfg)
        # aspect ~ 0.707 exceeds a forced rho of 0.6; corners tie at the max
        assert pick_steiner(cell, Fraction(3, 5), cfg) == (4, 4)

    def test_clip_bounded_pick_stays_in_ring(self):
        cfg = Config(d=2, w=10, gamma=0, rho=Fraction(2))
        src = ArrayPointSource([(500, 500), (530, 500)], cfg)
        cell = restricted_voronoi((500, 500), src, cfg)
        assert cell.clip_bounded
        x = pick_steiner(cell, RHO, cfg)
        d_sq = (x[0] - 500) ** 2 + (x[1] - 500) ** 2
        # Within [rho*NN - snap, beta*NN + snap]: the exact rational pick
        # is inside the ring, the grid snap moves it under one unit.
        nn_sq = cell.nn_sq
        assert d_sq >= float((RHO * RHO) * nn_sq) - 2 * 30 * 1.5
        assert d_sq <= float(16 * nn_sq) + 2 * 2 * 30 * 1.5

    def test_one_neighbor_pick_opposite(self):
        cfg = Config(d=2, w=10, gamma=0, rho=Fraction(2))
        src = ArrayPointSource([(500, 500), (530, 500)], cfg)
        cell = restricted_voronoi((500, 500), src, cfg)
        x = pick_steiner(cell, RHO, cfg)
        assert x[0] < 500  # away from the only neighbour


class TestRefine:
    def test_well_spaced_input_is_untouched(self):
        cfg = Config(d=2, w=9, gamma=GAMMA, rho=RHO)
        pts = jittered_net(cfg, 3, f0=48)
        st = lossy_store(pts, cfg)
        before = st.decode_all()
        _, rep = refine(st, RefineParams(rho=RHO, gamma=GAMMA))
        assert rep.steiner_count == 0
        assert st.decode_all() == before
        assert rep.final_max_aspect_sq <= RHO * RHO

    @pytest.mark.parametrize(
        "w, store_gamma, gamma, refused",
        [
            (12, 2, 4, True),
            (12, 4, 4, False),
            (12, 4, 2, False),
            (3, 2, 4, True),
            (3, 3, 4, False),
        ],
    )
    def test_gamma_above_the_lossy_store(self, w, store_gamma, gamma, refused):
        # Steiner points rounded with more precision bits than the store
        # keeps would fail the store's rounding check; a gamma of w or more
        # rounds nothing at any height.
        cfg = Config(d=2, w=w, gamma=store_gamma, rho=RHO)
        st = lossy_store([(1, 1), (6, 6)], cfg)
        before = st.to_bytes()
        if refused:
            message = f"gamma={gamma} exceeds .* gamma={store_gamma}"
            with pytest.raises(DomainError, match=message):
                refine(st, RefineParams(rho=RHO, gamma=gamma))
            assert st.to_bytes() == before
        else:
            refine(st, RefineParams(rho=RHO, gamma=gamma))

    def test_tiny_store_is_noop(self):
        cfg = Config(d=2, w=8, gamma=2, rho=RHO)
        st = lossy_store([(10, 17)], cfg)
        _, rep = refine(st, RefineParams(rho=RHO, gamma=2))
        assert rep.output_count == 1 and rep.rounds == 0

    @pytest.mark.parametrize("case_index", range(8))
    def test_adversarial_inputs(self, case_index):
        cfg = Config(d=2, w=12, gamma=GAMMA, rho=RHO)
        pts = adversarial_cases(cfg.w)[case_index]
        st = lossy_store(pts, cfg)
        inputs = {hp.coords for hp in st.decode_all()}
        _, rep = refine(st, RefineParams(rho=RHO, gamma=GAMMA))
        out = [hp.coords for hp in st.decode_all()]

        # terminates quickly, keeps every rounded input
        assert rep.rounds <= 3 * cfg.w
        assert inputs <= set(out)

        # independent exact quality check of every output vertex
        ok, worst_p, worst = check_well_spaced(out, RHO, cfg)
        assert ok, f"vertex {worst_p} has aspect^2 {worst}"

        # every insertion kept its guaranteed clearance
        for ins in rep.insertions:
            assert Fraction(ins.steiner_nn_sq) >= THRESH_SQ * ins.parent_nn_sq

        # the report is coherent
        assert rep.output_count == len(out)
        assert rep.steiner_count == len(out) - len(inputs)
        assert rep.final_max_aspect_sq <= RHO * RHO

    def test_output_size_sane_against_quadtree_baseline(self):
        cfg = Config(d=2, w=12, gamma=GAMMA, rho=RHO)
        for pts in adversarial_cases(cfg.w, count=5):
            st = lossy_store(pts, cfg)
            _, rep = refine(st, RefineParams(rho=RHO, gamma=GAMMA))
            baseline = quadtree_superset(pts, cfg)
            assert rep.output_count <= 4 * len(baseline)

    def test_minimum_spacing_never_degrades(self):
        # Every Steiner point keeps (rho - 2^-gamma) >= 1 times its
        # parent's clearance, so insertions can never create a pair closer
        # than the tightest input pair.
        cfg = Config(d=2, w=12, gamma=GAMMA, rho=RHO)

        def min_pair_sq(pts):
            return min(
                (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                for i, p in enumerate(pts)
                for q in pts[i + 1 :]
            )

        for pts in adversarial_cases(cfg.w, count=6, seed=5):
            st = lossy_store(pts, cfg)
            before = min_pair_sq([hp.coords for hp in st.decode_all()])
            _, rep = refine(st, RefineParams(rho=RHO, gamma=GAMMA))
            after = min_pair_sq([hp.coords for hp in st.decode_all()])
            assert after >= before

    def test_lossless_store_refines_too(self):
        cfg = Config(d=2, w=10, gamma=GAMMA, rho=RHO)
        from pqc.geom import HeightedPoint
        from pqc.morton import interleave

        pts = sorted([(100, 120), (164, 160)], key=lambda p: interleave(p, cfg))
        st = CompressedStore.build(
            [HeightedPoint(p, 0) for p in pts], cfg, LOSSLESS
        )
        _, rep = refine(st, RefineParams(rho=RHO, gamma=GAMMA))
        out = [hp.coords for hp in st.decode_all()]
        ok, _, _ = check_well_spaced(out, RHO, cfg)
        assert ok
        assert set(pts) <= set(out)

    @pytest.mark.parametrize("case_index", [2, 3, 7])
    def test_lossless_refine_is_unchanged(self, case_index):
        # A lossless store records no heights, so refine seeds them with
        # the leaf-height sweep; they set deferral order and Steiner
        # rounding.  The digests pin the output points and the whole report
        # as refine produced them when it seeded with one square_of search
        # per stored point.
        from pqc.geom import HeightedPoint
        from pqc.morton import interleave

        cfg = Config(d=2, w=12, gamma=GAMMA, rho=RHO)
        pts = sorted(adversarial_cases(cfg.w)[case_index], key=lambda p: interleave(p, cfg))
        st = CompressedStore.build([HeightedPoint(p, 0) for p in pts], cfg, LOSSLESS)
        _, rep = refine(st, RefineParams(rho=RHO, gamma=GAMMA))
        summary = repr(([tuple(hp) for hp in st.decode_all()], rep))
        digest = {2: "0eedaa816d40829e", 3: "7b87d1dd2b037f4d", 7: "97df002502064a2d"}
        assert hashlib.sha256(summary.encode()).hexdigest()[:16] == digest[case_index]

    def test_compression_survives_refinement(self):
        cfg = Config(d=2, w=12, gamma=GAMMA, rho=RHO)
        pts = adversarial_cases(cfg.w)[2]
        st = lossy_store(pts, cfg)
        _, rep = refine(st, RefineParams(rho=RHO, gamma=GAMMA))
        # refined store still decodes and re-encodes byte-identically
        again = CompressedStore.build(st.decode_all(), cfg, LOSSY)
        assert again.decode_all() == st.decode_all()
        assert rep.payload_bits_after == st.payload_bits()
