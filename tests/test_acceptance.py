"""Acceptance gate: every release criterion, one test each, one printed
verdict line each (run with -s to see them inline).

Each criterion states its own tolerance; everything not explicitly a
float report is compared exactly (integers or rationals).
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import jittered_net, random_points
from pqc.geom import HeightedPoint, round_point, round_set
from pqc.ingest import MemoryPointReader, read_multiscan
from pqc.morton import Config, interleave
from pqc.qtree import ArrayPointSource, restricted_voronoi, square_of, vertices
from pqc.refine import RefineParams, refine
from pqc.reference import (
    ExplicitQuadtree,
    brute_voronoi,
    check_well_spaced,
    xor_code_strings,
)
from pqc.store import LOSSLESS, LOSSY, CompressedStore
from test_refine import adversarial_cases

FIGURE_POINTS = [(5, 2), (6, 3), (8, 4), (9, 6), (10, 6)]


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def lossless_store(points, cfg):
    ordered = sorted(points, key=lambda p: interleave(p, cfg))
    return CompressedStore.build(
        [HeightedPoint(p, 0) for p in ordered], cfg, LOSSLESS
    )


def test_bit_exact_figure_reproduction():
    with criterion("bit-exact xor-code figure"):
        cfg = Config(d=2, w=5, gamma=0)
        assert xor_code_strings(FIGURE_POINTS, cfg) == [
            "00101,00010",
            "0011,01",
            "00001110,000111",
            "01,0010",
            "0011,1",
        ]
        store = lossless_store(FIGURE_POINTS, cfg)
        assert store.payload_bits() == 41


def test_morton_figure():
    with criterion("morton interleave figure"):
        cfg = Config(d=2, w=3)
        a = interleave((3, 5), cfg)
        b = interleave((4, 2), cfg)
        assert a == 0b011011 == 27
        assert b == 0b100100 == 36
        assert a < b


def test_lossy_distance_bound():
    # |p'q'|/|pq| and its reciprocal stay within 1 + 2**(1-gamma)*sqrt(2),
    # verified in pure integers: with a = 2**(gamma-1) the bound squares
    # to t = n1*a^2 - n0*(a^2 + 2) <= 2*sqrt(2)*a*n0, settled by one more
    # squaring.
    with criterion("lossy pairwise distance bound, gamma in {1,3,5}"):
        cfg0 = Config(d=2, w=14)
        for gamma in (1, 3, 5):
            pts = jittered_net(
                Config(d=2, w=14, gamma=gamma), 700 + gamma, f0=128, cols=25, rows=20
            )
            assert len(pts) == 500
            cfg = Config(d=2, w=14, gamma=gamma)
            ordered = sorted(pts, key=lambda p: interleave(p, cfg))
            rounded = [hp.coords for hp in round_set(pts, cfg)]
            a = 1 << (gamma - 1)
            a2 = a * a

            def within(n1, n0):
                t = n1 * a2 - n0 * a2 - 2 * n0
                return t <= 0 or t * t <= 8 * a2 * n0 * n0

            n = len(ordered)
            for i in range(n):
                pi, ri = ordered[i], rounded[i]
                for j in range(i + 1, n):
                    pj, rj = ordered[j], rounded[j]
                    before = (pi[0] - pj[0]) ** 2 + (pi[1] - pj[1]) ** 2
                    after = (ri[0] - rj[0]) ** 2 + (ri[1] - rj[1]) ** 2
                    assert within(after, before) and within(before, after), (
                        gamma,
                        pi,
                        pj,
                    )


def test_query_oracle_equivalence():
    with criterion("query equivalence vs explicit tree and brute Voronoi, 50 sets"):
        rng = random.Random(2024)
        sets_checked = 0
        for trial in range(50):
            lossy = trial % 2 == 1
            gamma = 5 if lossy else 0
            cfg = Config(d=2, w=9, gamma=gamma, rho=Fraction(2))
            pts = jittered_net(cfg, 3000 + trial, f0=48)
            assert len(pts) <= 200
            tree = ExplicitQuadtree(pts, cfg)
            if lossy:
                heighted = round_set(pts, cfg)
                store = CompressedStore.build(heighted, cfg, LOSSY)
            else:
                store = lossless_store(pts, cfg)
            decoded = [hp.coords for hp in store.decode_all()]
            originals = sorted(pts, key=lambda p: interleave(p, cfg))

            # square_of over the store == materialised quadtree leaves
            for orig, stored in zip(originals, decoded):
                got = square_of(stored, store, cfg)
                assert got.height == tree.leaf_height(orig)
                assert got == tree.leaf_of(orig)

            # vertices == linear scan with square_contains
            from pqc.morton import TrieSquare, clear_low_bits
            from pqc.reference import square_contains

            for _ in range(15):
                h = rng.randrange(0, cfg.w + 1)
                corner = clear_low_bits(
                    (rng.randrange(512), rng.randrange(512)), h
                )
                if any(c + (1 << h) > 512 for c in corner):
                    continue
                s = TrieSquare(corner, h)
                got = vertices(s, store)
                hits = [i for i, q in enumerate(decoded) if square_contains(s, q)]
                if hits:
                    assert (got.lo, got.hi) == (hits[0], hits[-1] + 1)
                else:
                    assert len(got) == 0

            # restricted Voronoi == brute halfplane intersection
            for q in decoded:
                cell = restricted_voronoi(q, store, cfg)
                ref = brute_voronoi(decoded, q, cfg)
                assert not cell.clip_bounded
                assert sorted(cell.neighbors) == ref.neighbors
                assert sorted(cell.polygon) == sorted(ref.polygon)
                assert cell.aspect_sq == ref.aspect_sq
            sets_checked += 1
        assert sets_checked == 50


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_query_oracle_equivalence_after_inserts():
    # The benchmark's insert stream: every tenth point of a net, in Morton
    # order, is withheld from the store and then inserted at the height
    # square_of answers for it, rounded for that height.  A stored point's
    # square must still be its leaf in the set the inserts left.
    with criterion("square_of vs a source over the same points, after inserts"):
        cfg = Config(d=2, w=12, gamma=4)
        pts = sorted(jittered_net(cfg, 1, f0=64), key=lambda p: interleave(p, cfg))
        assert len(pts) == 3136
        kept = [p for i, p in enumerate(pts) if i % 10]
        store = CompressedStore.build(round_set(kept, cfg), cfg, LOSSY)
        for p in pts[::10]:
            h = square_of(p, store, cfg).height
            store.insert(round_point(p, h, cfg.gamma), h)
        decoded = [hp.coords for hp in store.decode_all()]
        oracle = ArrayPointSource(decoded, cfg, presorted=True)
        for q in decoded:
            assert square_of(q, store, cfg) == square_of(q, oracle, cfg)


def test_round_trip_exactness():
    with criterion("round-trip exactness, lossless and lossy"):
        # lossless: arbitrary duplicate-free inputs survive exactly
        for seed, w in ((1, 8), (2, 16), (3, 32)):
            cfg = Config(d=2, w=w, gamma=0)
            pts = random_points(cfg, seed, 400)
            ordered = sorted(pts, key=lambda p: interleave(p, cfg))
            store = lossless_store(pts, cfg)
            assert [hp.coords for hp in store.decode_all()] == ordered
        # lossy: decode returns exactly the rounded points, and re-encoding
        # the decoded sequence is byte-identical
        cfg = Config(d=2, w=12, gamma=4)
        pts = jittered_net(cfg, 9, f0=64)
        rounded = round_set(pts, cfg)
        store = CompressedStore.build(rounded, cfg, LOSSY)
        decoded = store.decode_all()
        assert decoded == rounded
        assert CompressedStore.build(decoded, cfg, LOSSY).to_bytes() == store.to_bytes()


def test_insertion_equivalence():
    with criterion("insertion saves batch build's bytes; block sizes in [w, 2w]"):
        for seed in range(6):
            cfg = Config(d=2, w=8, gamma=3)
            pts = jittered_net(cfg, 100 + seed, f0=8)[:150]
            rounded = round_set(pts, cfg)
            batch = CompressedStore.build(rounded, cfg, LOSSY)
            one_by_one = CompressedStore(cfg, LOSSY)
            shuffled = list(rounded)
            random.Random(seed).shuffle(shuffled)
            for hp in shuffled:
                one_by_one.insert(hp.coords, hp.height)
                sizes = [
                    one_by_one._blocks[i].count
                    for i in range(one_by_one.block_count)
                ]
                if len(sizes) > 1:
                    assert all(cfg.w <= s <= 2 * cfg.w for s in sizes)
            assert one_by_one.decode_all() == batch.decode_all()
            assert one_by_one.to_bytes() == batch.to_bytes()


def test_multiscan_ingestion():
    with criterion("multi-scan ingestion: w passes, equals in-memory oracle"):
        cfg = Config(d=2, w=16, gamma=5)
        pts = jittered_net(cfg, 42, f0=512, cols=25, rows=40)
        assert len(pts) == 1000
        reader = MemoryPointReader(pts, cfg)
        stats = {}
        store = read_multiscan(reader, cfg, LOSSY, stats_out=stats)
        assert reader.passes == cfg.w == 16
        assert stats["passes"] == 16
        oracle = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        assert store.decode_all() == oracle.decode_all()


@pytest.fixture(scope="module")
def big_nets():
    cfg16 = Config(d=2, w=16, gamma=5)
    small = jittered_net(cfg16, 8, f0=512, cols=25, rows=40)
    large = jittered_net(cfg16, 9, f0=512, cols=100, rows=100)
    assert len(small) == 1000 and len(large) == 10000
    return cfg16, small, large


def test_linear_size_behavior(big_nets):
    with criterion("linear size: bpv flat in n and independent of w"):
        cfg16, small, large = big_nets

        def bpv(pts, cfg):
            st = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
            return st.payload_bits() / st.count()

        bpv_small = bpv(small, cfg16)
        bpv_large = bpv(large, cfg16)
        assert abs(bpv_small - bpv_large) <= 0.2 * max(bpv_small, bpv_large), (
            bpv_small,
            bpv_large,
        )

        cfg32 = Config(d=2, w=32, gamma=5)
        scaled = [(x << 16, y << 16) for x, y in large]
        bpv_scaled = bpv(scaled, cfg32)
        assert abs(bpv_scaled - bpv_large) <= 2.0, (bpv_large, bpv_scaled)
        print(
            f"  bpv: n=1e3 {bpv_small:.2f}, n=1e4 {bpv_large:.2f}, "
            f"rescaled w=32 {bpv_scaled:.2f}"
        )


def test_compression_ratio_target(big_nets):
    with criterion("compression ratio <= 1/3 of raw"):
        cfg16, _, large = big_nets
        cfg32 = Config(d=2, w=32, gamma=5)
        scaled = [(x << 16, y << 16) for x, y in large]
        store = CompressedStore.build(round_set(scaled, cfg32), cfg32, LOSSY)
        raw_bits = cfg32.d * cfg32.w * len(scaled)
        ratio = store.file_bits() / raw_bits
        print(f"  file/raw ratio {ratio:.3f} (the goal is 1/3)")
        assert ratio <= 1 / 3


def test_refinement_correctness():
    with criterion("refinement: terminates, conservative, aspect <= rho, NN bound"):
        rho = Fraction(2)
        gamma = 4
        thresh_sq = (rho - Fraction(1, 1 << gamma)) ** 2
        cfg = Config(d=2, w=12, gamma=gamma, rho=rho)
        cases = adversarial_cases(cfg.w, count=20, seed=99)
        assert len(cases) >= 20
        for pts in cases:
            assert len(pts) <= 50
            store = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
            inputs = {hp.coords for hp in store.decode_all()}
            _, report = refine(store, RefineParams(rho=rho, gamma=gamma))
            out = [hp.coords for hp in store.decode_all()]
            assert report.rounds <= 3 * cfg.w
            assert inputs <= set(out)
            ok, worst_p, worst = check_well_spaced(out, rho, cfg)
            assert ok, f"{worst_p} has aspect^2 {worst}"
            for ins in report.insertions:
                assert Fraction(ins.steiner_nn_sq) >= thresh_sq * ins.parent_nn_sq
