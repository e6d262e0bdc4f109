"""Block store round trips, search, insertion, and the PQC1 file format."""

import bisect
import hashlib
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from conftest import V2_SPLIT_DATA, jittered_net, random_points
from pqc import codec
from pqc.errors import (
    CorruptPayloadError,
    DomainError,
    DuplicatePointError,
    FormatError,
    PqcError,
    UnsortedInputError,
)
from pqc.geom import HeightedPoint, round_set
from pqc.ingest import MemoryPointReader, read_multiscan
from pqc.morton import Config, interleave
from pqc.reference import EpsilonNetSpec, generate_epsilon_net
from pqc.store import LOSSLESS, LOSSY, CompressedStore, _block_sizes
from pqc.qtree import ArrayPointSource, restricted_voronoi, square_of, vertices
from pqc.morton import TrieSquare, square_of_point
from pqc.refine import RefineParams, refine

FIGURE_POINTS = [(5, 2), (6, 3), (8, 4), (9, 6), (10, 6)]
CFG5 = Config(d=2, w=5, gamma=0)


def lossless_store(points, cfg):
    ordered = sorted(points, key=lambda p: interleave(p, cfg))
    return CompressedStore.build(
        [HeightedPoint(p, 0) for p in ordered], cfg, LOSSLESS
    )


class TestBuild:
    def test_figure_payload_is_41_bits(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        assert st.block_count == 1
        assert st.payload_bits() == 41

    def test_empty_store(self):
        st = CompressedStore.build([], CFG5, LOSSLESS)
        assert st.count() == 0
        assert st.block_count == 0
        assert st.decode_all() == []

    def test_rejects_unsorted(self):
        pts = [HeightedPoint(p, 0) for p in [(6, 3), (5, 2)]]
        with pytest.raises(UnsortedInputError):
            CompressedStore.build(pts, CFG5, LOSSLESS)

    def test_rejects_duplicates(self):
        pts = [HeightedPoint((5, 2), 0), HeightedPoint((5, 2), 0)]
        with pytest.raises(DuplicatePointError):
            CompressedStore.build(pts, CFG5, LOSSLESS)

    def test_rejects_unrounded_lossy_input(self):
        cfg = Config(d=2, w=8, gamma=0)
        with pytest.raises(DomainError):
            CompressedStore.build([HeightedPoint((5, 2), 4)], cfg, LOSSY)

    CFG8 = Config(d=2, w=8, gamma=0)
    GOOD = [HeightedPoint((0, 0), 0), HeightedPoint((4, 4), 2)]  # lossy, rounded

    @pytest.mark.parametrize(
        "points, mode, error, message",
        [
            ([HeightedPoint((1, 2, 3), 0)], LOSSY, DomainError, "expected 2 coordinates, got 3"),
            ([HeightedPoint((256, 0), 0)], LOSSY, DomainError, "coordinate 256 outside [0, 256)"),
            ([HeightedPoint((0, -1), 0)], LOSSY, DomainError, "coordinate -1 outside [0, 256)"),
            ([HeightedPoint((0, 0), 9)], LOSSY, DomainError, "height 9 outside [0, 8]"),
            ([HeightedPoint((0, 0), -1)], LOSSY, DomainError, "height -1 outside [0, 8]"),
            ([HeightedPoint((5, 2), 4)], LOSSY, DomainError, "(5, 2) is not rounded for height 4"),
            (
                [HeightedPoint((4, 4), 2)],
                LOSSLESS, DomainError, "lossless mode requires all heights zero",
            ),
            (GOOD + GOOD[1:], LOSSY, DuplicatePointError, "duplicate point (4, 4)"),
            (GOOD[::-1], LOSSY, UnsortedInputError, "points not in Morton order"),
            # Two defects: the earlier point's error wins, whichever check
            # would see the later one first.
            (
                GOOD + [HeightedPoint((5, 2), 4), HeightedPoint((1, 2, 3), 0)],
                LOSSY, DomainError, "(5, 2) is not rounded for height 4",
            ),
            (
                GOOD + [HeightedPoint((8, 8), 9), HeightedPoint((300, 0), 0)],
                LOSSY, DomainError, "height 9 outside [0, 8]",
            ),
            (
                [HeightedPoint((0, 0), 1), HeightedPoint((0, 300), 0)],
                LOSSLESS, DomainError, "lossless mode requires all heights zero",
            ),
            (
                GOOD[::-1] + [HeightedPoint((7, 7), 4)],
                LOSSY, DomainError, "(7, 7) is not rounded for height 4",
            ),
        ],
        ids=[
            "dimension", "coordinate-high", "coordinate-negative", "height-high",
            "height-negative", "unrounded", "lossless-height", "duplicate", "unsorted",
            "unrounded-before-dimension", "height-before-coordinate",
            "lossless-height-before-coordinate", "point-checks-before-order",
        ],
    )
    def test_rejection_class_and_message(self, points, mode, error, message):
        with pytest.raises(error) as info:
            CompressedStore.build(points, self.CFG8, mode)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_block_sizes_within_bounds(self):
        cfg = Config(d=2, w=8, gamma=2)
        for n in (1, 7, 15, 16, 17, 31, 32, 33, 100, 257):
            pts = random_points(cfg, n, n)
            st = lossless_store(pts, cfg)
            sizes = [st._blocks[i].count for i in range(st.block_count)]
            assert sum(sizes) == n
            if len(sizes) > 1:
                assert all(cfg.w <= s <= 2 * cfg.w for s in sizes), (n, sizes)

    def test_round_trip_lossless_random(self):
        cfg = Config(d=2, w=16, gamma=0)
        for seed in range(5):
            pts = random_points(cfg, seed, 300)
            ordered = sorted(pts, key=lambda p: interleave(p, cfg))
            st = lossless_store(pts, cfg)
            assert [hp.coords for hp in st.decode_all()] == ordered

    def test_round_trip_lossy_and_reencode_identical(self):
        cfg = Config(d=2, w=12, gamma=3)
        pts = jittered_net(cfg, 5, f0=64)
        rounded = round_set(pts, cfg)
        st = CompressedStore.build(rounded, cfg, LOSSY)
        decoded = st.decode_all()
        assert decoded == rounded
        again = CompressedStore.build(decoded, cfg, LOSSY)
        assert again.to_bytes() == st.to_bytes()

    def test_round_trip_d3(self):
        cfg = Config(d=3, w=10, gamma=0)
        pts = random_points(cfg, 9, 150)
        st = lossless_store(pts, cfg)
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        assert [hp.coords for hp in st.decode_all()] == ordered


def _net(f0, seed):
    """The jittered net that the benchmark builds for spacing f0."""
    cfg = Config(d=2, w=16, gamma=0)
    return generate_epsilon_net(EpsilonNetSpec.fill(f0, 0.9, cfg), cfg, seed)


class TestBuildPinned:
    """round_set + build output bytes (a version-3 file) and the
    leaf-height sweep's work, pinned on the benchmark's 196- and 784-point
    nets and a d=3 set."""

    @pytest.mark.parametrize(
        "cfg, make, n, digest, probes",
        [
            (
                Config(d=2, w=16, gamma=5), lambda: _net(4096, 11), 196,
                "273a555307821e1e36b36ede6fd680c8be1cc4fafdceae725f4aaba323060e85", 1596,
            ),
            (
                Config(d=2, w=16, gamma=5), lambda: _net(2048, 11), 784,
                "6c635147386f360fc6dfd45bc3c2a1b9c29ece38ba2c1df7dd762cd07b52f6d4", 6417,
            ),
            (
                Config(d=3, w=10, gamma=2),
                lambda: random_points(Config(d=3, w=10, gamma=2), 7, 500), 500,
                "901d2f4fab92538c00e74396cf1dc7407dd3995185d7edeb5dd4c76669249fcd", 20899,
            ),
        ],
        ids=["net-196", "net-784", "random-d3"],
    )
    def test_bytes_and_counters(self, monkeypatch, cfg, make, n, digest, probes):
        swept = []
        sweep = ArrayPointSource.leaf_heights

        def spy(self):
            heights = sweep(self)
            swept.append(self.counters.snapshot())
            return heights

        monkeypatch.setattr(ArrayPointSource, "leaf_heights", spy)
        pts = make()
        data = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY).to_bytes()
        assert len(pts) == n
        assert hashlib.sha256(data).hexdigest() == digest
        assert swept == [
            {"range_queries": probes, "blocks_decoded": 0, "squares_scanned": probes}
        ]


class TestSearch:
    def test_key_below_first_head(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        assert st.successor_rank(0) == 0

    def test_figure_key(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        assert st.successor_rank(interleave((8, 4), CFG5)) == 2

    def test_matches_decompress_then_bisect(self):
        import bisect

        cfg = Config(d=2, w=16, gamma=0)
        rng = random.Random(123)
        pts = random_points(cfg, 11, 500)
        st = lossless_store(pts, cfg)
        keys = sorted(interleave(p, cfg) for p in pts)
        for _ in range(1000):
            k = rng.randrange(0, 1 << 32)
            assert st.successor_rank(k) == bisect.bisect_left(keys, k)
        for k in keys:
            assert st.successor_rank(k) == bisect.bisect_left(keys, k)

    def test_point_at_and_iter_range(self):
        cfg = Config(d=2, w=10, gamma=0)
        pts = random_points(cfg, 3, 120)
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        st = lossless_store(pts, cfg)
        assert [st.point_at(i) for i in range(len(pts))] == ordered
        assert list(st.iter_range(10, 75)) == ordered[10:75]
        with pytest.raises(IndexError):
            st.point_at(len(pts))

    def test_heighted_at(self):
        cfg = Config(d=2, w=9, gamma=2)
        pts = jittered_net(cfg, 77, f0=32)
        rounded = round_set(pts, cfg)
        st = CompressedStore.build(rounded, cfg, LOSSY)
        for rank in (0, 1, len(rounded) // 2, len(rounded) - 1):
            assert HeightedPoint(st.point_at(rank), st.height_at(rank)) == rounded[rank]

    def test_qtree_queries_match_array_source(self):
        from pqc.qtree import ArrayPointSource, is_crowded

        cfg = Config(d=2, w=9, gamma=2)
        pts = jittered_net(cfg, 21, f0=32)
        rounded = round_set(pts, cfg)
        st = CompressedStore.build(rounded, cfg, LOSSY)
        arr = ArrayPointSource([hp.coords for hp in rounded], cfg, presorted=True)
        rng = random.Random(8)
        for _ in range(200):
            h = rng.randrange(0, 8)
            corner = tuple(
                (rng.randrange(cfg.coord_limit) >> h) << h for _ in range(2)
            )
            if any(c + (1 << h) > cfg.coord_limit for c in corner):
                continue
            s = TrieSquare(corner, h)
            assert vertices(s, st) == vertices(s, arr)
            assert is_crowded(s, st) == is_crowded(s, arr)
        # A stored point's square is the one its recorded height names.
        for hp in rounded:
            assert square_of(hp.coords, st, cfg) == square_of_point(hp.coords, hp.height)


class TestInsert:
    def test_insert_into_empty(self):
        st = CompressedStore(CFG5, LOSSLESS)
        st.insert((5, 2))
        assert st.count() == 1
        assert st.decode_all() == [HeightedPoint((5, 2), 0)]

    def test_random_order_matches_batch(self):
        cfg = Config(d=2, w=8, gamma=0)
        for seed in range(5):
            pts = random_points(cfg, 40 + seed, 150)
            batch = lossless_store(pts, cfg)
            st = CompressedStore(cfg, LOSSLESS)
            shuffled = list(pts)
            random.Random(seed).shuffle(shuffled)
            for p in shuffled:
                st.insert(p)
            assert st.decode_all() == batch.decode_all()
            sizes = [st._blocks[i].count for i in range(st.block_count)]
            if len(sizes) > 1:
                assert all(cfg.w <= s <= 2 * cfg.w for s in sizes)

    def test_lossy_insert_keeps_heights(self):
        cfg = Config(d=2, w=10, gamma=2)
        pts = jittered_net(cfg, 31, f0=64)
        rounded = round_set(pts, cfg)
        st = CompressedStore(cfg, LOSSY)
        shuffled = list(rounded)
        random.Random(2).shuffle(shuffled)
        for hp in shuffled:
            st.insert(hp.coords, hp.height)
        assert st.decode_all() == rounded

    def test_full_block_splits_evenly(self):
        cfg = Config(d=2, w=4, gamma=0)
        pts = sorted(
            random_points(cfg, 77, 2 * cfg.w + 1),
            key=lambda p: interleave(p, cfg),
        )
        st = lossless_store(pts[:-1], cfg)  # exactly 2w points, one block
        assert st.block_count == 1
        st.insert(pts[-1])
        assert st.block_count == 2
        assert [b.count for b in st._blocks] == [cfg.w, cfg.w + 1]

    def test_insert_before_head_updates_index(self):
        st = lossless_store(FIGURE_POINTS[1:], CFG5)
        st.insert((5, 2))
        assert st.point_at(0) == (5, 2)
        assert st.successor_rank(0) == 0
        assert [hp.coords for hp in st.decode_all()] == FIGURE_POINTS

    def test_duplicate_insert_rejected(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        with pytest.raises(DuplicatePointError):
            st.insert((8, 4))


class TestPack:
    """Every saved store is cut into blocks as build cuts the same points."""

    @given(strategies.data())
    @settings(deadline=None, max_examples=100)
    def test_saved_bytes_are_builds(self, data):
        mode = data.draw(strategies.sampled_from([LOSSY, LOSSLESS]), label="mode")
        d = data.draw(strategies.sampled_from([2, 3]), label="d")
        w = data.draw(strategies.integers(1, 8), label="w")
        gamma = data.draw(strategies.integers(0, w), label="gamma")
        n = data.draw(strategies.integers(0, min(90, 1 << (d * w - 1))), label="n")
        seed = data.draw(strategies.integers(0, 2**16), label="seed")
        cfg = Config(d=d, w=w, gamma=gamma)
        pts = random_points(cfg, seed, n)
        if mode == LOSSY:
            points = round_set(pts, cfg)
        else:
            points = [HeightedPoint(p, 0) for p in sorted(pts, key=lambda p: interleave(p, cfg))]
        built = CompressedStore.build(points, cfg, mode).to_bytes()
        st = CompressedStore(cfg, mode)
        shuffled = list(points)
        random.Random(seed).shuffle(shuffled)
        for hp in shuffled:
            st.insert(hp.coords, hp.height)
        assert st.to_bytes() == built
        assert st.decode_all() == points
        scanned = read_multiscan(MemoryPointReader(pts, cfg), cfg, mode)
        assert [blk.count for blk in scanned._blocks] == _block_sizes(len(pts), w)
        rebuilt = CompressedStore.build(scanned.decode_all(), cfg, mode)
        assert scanned.to_bytes() == rebuilt.to_bytes()

    @pytest.mark.parametrize("mode", [LOSSY, LOSSLESS])
    def test_refine_output_bytes_are_builds(self, mode):
        cfg = Config(d=2, w=10, gamma=3)
        pts = jittered_net(cfg, 4, f0=64)[:60] + [(101, 203), (99, 205)]
        if mode == LOSSY:
            points = round_set(pts, cfg)
        else:
            points = [HeightedPoint(p, 0) for p in sorted(pts, key=lambda p: interleave(p, cfg))]
        st = CompressedStore.build(points, cfg, mode)
        out, report = refine(st, RefineParams(rho=Fraction(2), gamma=cfg.gamma))
        assert report.steiner_count > 0
        assert [blk.count for blk in out._blocks] == _block_sizes(out.count(), cfg.w)
        assert report.payload_bits_after == out.payload_bits()
        rebuilt = CompressedStore.build(out.decode_all(), cfg, mode)
        assert out.to_bytes() == rebuilt.to_bytes()

    def test_pack_keeps_every_answer(self):
        cfg = Config(d=2, w=6, gamma=2)
        rounded = round_set(jittered_net(cfg, 9, f0=8)[:200], cfg)
        st = CompressedStore(cfg, LOSSY)
        shuffled = list(rounded)
        random.Random(9).shuffle(shuffled)
        for hp in shuffled:
            st.insert(hp.coords, hp.height)
        sizes = _block_sizes(st.count(), cfg.w)
        assert [blk.count for blk in st._blocks] != sizes
        probes = [hp.coords for hp in rounded[::7]] + random_points(cfg, 9, 40)
        squares = [((0, 0), 6), ((16, 16), 4), ((32, 0), 5), ((40, 40), 3)]

        def answers():
            return (
                st.count(),
                [st.key_at(r) for r in range(st.count())],
                [(st.point_at(r), st.height_at(r)) for r in range(st.count())],
                [square_of(p, st, cfg) for p in probes],
                [vertices(TrieSquare(c, h), st) for c, h in squares],
                restricted_voronoi(rounded[50].coords, st, cfg).polygon,
            )

        before = answers()
        st.pack()
        assert [blk.count for blk in st._blocks] == sizes
        assert answers() == before
        blocks = [id(blk) for blk in st._blocks]
        st.pack()  # a no-op: the same Block objects stay
        assert [id(blk) for blk in st._blocks] == blocks


class TestPersistence:
    def test_file_round_trip(self, tmp_path):
        cfg = Config(d=2, w=12, gamma=3)
        pts = jittered_net(cfg, 55, f0=64)
        st = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        path = tmp_path / "pts.pqc"
        st.save(path)
        back = CompressedStore.load(path)
        assert back.cfg == Config(d=2, w=12, gamma=3)
        assert back.mode == LOSSY
        assert back.decode_all() == st.decode_all()
        assert back.to_bytes() == st.to_bytes()

    def test_empty_file_round_trip(self, tmp_path):
        st = CompressedStore.build([], CFG5, LOSSLESS)
        path = tmp_path / "empty.pqc"
        st.save(path)
        back = CompressedStore.load(path)
        assert back.count() == 0 and back.block_count == 0

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            CompressedStore.from_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")

    def test_truncated_payload(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        data = st.to_bytes()
        with pytest.raises(FormatError):
            CompressedStore.from_bytes(data[:-2])

    def test_a_loaded_cut_saves_as_loaded_until_a_write(self):
        # A version-3 file is always build's cut, so loading and saving it
        # gives back its bytes.  An insert that splits a block leaves the
        # store unpacked in memory; the next save re-cuts it as build does.
        cfg = Config(d=2, w=8, gamma=2)
        st = CompressedStore.build(round_set(random_points(cfg, 5, 60), cfg), cfg, LOSSY)
        data = st.to_bytes()
        loaded = CompressedStore.from_bytes(data)
        assert [blk.count for blk in loaded._blocks] == _block_sizes(60, 8)
        assert loaded.to_bytes() == data
        taken = {hp.coords for hp in st.decode_all()}
        free = ((x, x) for x in range(256) if (x, x) not in taken)
        loaded.insert(next(free), 0)
        assert [blk.count for blk in loaded._blocks] != _block_sizes(61, 8)
        points = loaded.decode_all()
        saved = loaded.to_bytes()
        assert saved == CompressedStore.build(points, cfg, LOSSY).to_bytes()
        repacked = CompressedStore.from_bytes(saved)
        assert [blk.count for blk in repacked._blocks] == _block_sizes(61, 8)
        assert repacked.decode_all() == points

    def test_header_width_that_changes_the_cut_saves_as_loaded(self):
        # A w byte of 9 reads 9-bit head coordinates and asks for blocks
        # of 18 points where the file's are 16.  Such a file must fail to
        # load, or load and, as every loaded version-3 file, save back to
        # its bytes.
        data = bytearray(FUZZ_DATA)
        assert data[6] == 8
        data[6] = 9
        with pytest.raises(PqcError):
            CompressedStore.from_bytes(bytes(data))

    def test_block_count_other_than_the_cut_rejected(self):
        data = bytearray(FUZZ_DATA)
        assert struct.unpack_from("<L", data, 17) == (len(_block_sizes(60, 8)),)
        for blocks in (3, 5, 2**32 - 1):
            struct.pack_into("<L", data, 17, blocks)
            with pytest.raises(FormatError, match="blocks"):
                CompressedStore.from_bytes(bytes(data))

    def test_count_past_the_file_rejected_before_cutting(self):
        # n is checked against the file's size before the cut is made, so
        # a huge n costs no memory.  Older files are cut from n too.
        for data in (bytearray(FUZZ_DATA), bytearray(V2_SPLIT_DATA)):
            struct.pack_into("<Q", data, 9, 2**63)
            with pytest.raises(FormatError, match="n=.*bits"):
                CompressedStore.from_bytes(bytes(data))

    def test_version_2_count_other_than_its_blocks_rejected(self):
        # Blocks that hold more or fewer points than n fail once they are
        # all read.
        data = bytearray(V2_SPLIT_DATA)
        assert struct.unpack_from("<Q", data, 9) == (72,)
        for n in (71, 73):
            struct.pack_into("<Q", data, 9, n)
            with pytest.raises(FormatError, match=f"n={n}, blocks decode to 72"):
                CompressedStore.from_bytes(bytes(data))

    def test_head_not_rounded_for_its_height_rejected(self):
        # Block 3's head is (162, 156) at height 3, so with gamma = 2 its
        # lowest coordinate bits must be zero.  Let in as (162, 157), the
        # head would be re-cut into a record by the next repacking save,
        # and the record would drop the bit.
        st = CompressedStore.from_bytes(FUZZ_DATA)
        assert st._blocks[3].head == HeightedPoint((162, 156), 3)
        head_bits = st._head_bits()
        bit = 8 * 21 + sum(head_bits + blk.bit_len for blk in st._blocks[:3])
        bit += 2 * st.cfg.w - 1  # the lowest bit of y
        data = bytearray(FUZZ_DATA)
        data[bit >> 3] ^= 0x80 >> (bit & 7)
        with pytest.raises(FormatError, match=r"block 3: head \(162, 157\) is not rounded"):
            CompressedStore.from_bytes(bytes(data))
        # The same head in a version-2 file, whose table holds y at bytes
        # 4 to 7, least significant first.
        data = bytearray(_legacy_bytes(st, 2))
        table = _legacy_blocks(bytes(data))[3][0][0]
        data[table + 4] ^= 1
        with pytest.raises(FormatError, match=r"block 3: head \(162, 157\) is not rounded"):
            CompressedStore.from_bytes(bytes(data))

    def test_lossless_head_with_a_height_rejected(self):
        # A lossless store has no heights: a version-2 head of height 1
        # would not survive a save, which writes no head heights.
        data = bytearray(_legacy_bytes(lossless_store(FIGURE_POINTS, CFG5), 2))
        data[21 + 8] = 1
        with pytest.raises(FormatError, match="block 0: lossless head height 1"):
            CompressedStore.from_bytes(bytes(data))

    def test_trailing_bytes_rejected(self):
        for extra in (b"\x00", b"\x00" * 9, b"\x80"):
            with pytest.raises(FormatError, match="trailing"):
                CompressedStore.from_bytes(FUZZ_DATA + extra)

    def test_nonzero_padding_rejected(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        data = bytearray(st.to_bytes())
        data[-1] |= 0x01  # a 41-bit stream: its last byte ends in 7 padding bits
        with pytest.raises(FormatError):
            CompressedStore.from_bytes(bytes(data))

    def test_garbage_payload_fails_loudly(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        data = bytearray(st.to_bytes())
        data[-4] ^= 0xFF
        with pytest.raises((FormatError, CorruptPayloadError)):
            CompressedStore.from_bytes(bytes(data))

    def test_corrupt_error_carries_location(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        st._blocks[0].bit_len = 17  # lie about the length: mid-codeword cut
        with pytest.raises(CorruptPayloadError) as exc:
            st.decode_block(0)
        assert exc.value.block_index == 0
        assert exc.value.bit_offset is not None

    def _store_and_late_rank(self):
        cfg = Config(d=2, w=8, gamma=2)
        pts = round_set(random_points(cfg, 5, 60), cfg)
        st = CompressedStore.build(pts, cfg, LOSSY)
        assert st.block_count >= 3
        return st, 1, st._offsets[2] - 1  # the last point of block 1

    def test_overwritten_payload_fails_a_plain_read(self):
        st, b, late = self._store_and_late_rank()
        blk = st._blocks[b]
        # An all-zero payload is one gamma zero run that never ends.
        blk.payload = bytes(len(blk.payload))
        for _ in range(2):  # the failed prefix is dropped, not resumed
            with pytest.raises(CorruptPayloadError) as exc:
                st.point_at(late)
            assert exc.value.block_index == b
            assert exc.value.bit_offset is not None
        with pytest.raises(CorruptPayloadError) as exc:
            st.successor_rank(st.key_at(late + 1) - 1)
        assert exc.value.block_index == b

    def test_payload_short_of_the_count_fails_a_plain_read(self):
        st, b, late = self._store_and_late_rank()
        first = st._offsets[b]
        # Block b's first three points alone: the payload ends at a record
        # boundary, well before the block's count.
        ranks = range(first, first + 3)
        kept = [HeightedPoint(st.point_at(r), st.height_at(r)) for r in ranks]
        short = CompressedStore.build(kept, st.cfg, LOSSY)._blocks[0]
        blk = st._blocks[b]
        blk.payload, blk.bit_len = short.payload, short.bit_len
        st._cache.clear()
        assert (st.point_at(first + 2), st.height_at(first + 2)) == kept[2]
        with pytest.raises(CorruptPayloadError) as exc:
            st.point_at(late)
        assert exc.value.block_index == b
        assert exc.value.bit_offset == short.bit_len


def _fuzz_store_bytes():
    """A small lossy store's file, in format version 3, with the byte spans
    of its header, of its block heads and of its blocks' records; a span
    holds every byte that holds one of its bits."""
    cfg = Config(d=2, w=8, gamma=2)
    store = CompressedStore.build(
        round_set(random_points(cfg, 5, 60), cfg), cfg, LOSSY
    )
    data = store.to_bytes()
    assert data[4] == 3
    head_bits = cfg.d * cfg.w + cfg.w.bit_length()
    heads, records = [], []
    bit = 8 * 21
    for blk in store._blocks:
        heads.append((bit >> 3, (bit + head_bits + 7) >> 3))
        bit += head_bits
        records.append((bit >> 3, (bit + blk.bit_len + 7) >> 3))
        bit += blk.bit_len
    assert (bit + 7) >> 3 == len(data) and len(records) >= 3
    return data, {"header": [(0, 21)], "head": heads, "records": records}


FUZZ_DATA, FUZZ_SPANS = _fuzz_store_bytes()


def _legacy_blocks(data: bytes):
    """(block header span, payload span, payload bits) of each block of a
    version-1 or version-2 file."""
    d, nblocks = data[5], struct.unpack_from("<L", data, 17)[0]
    out, pos = [], 21
    for _ in range(nblocks):
        table = (pos, pos + 4 * d + 5)
        bits = struct.unpack_from("<L", data, table[1] - 4)[0]
        out.append((table, (table[1], table[1] + (bits + 7) // 8), bits))
        pos = out[-1][1][1]
    assert pos == len(data)
    return out


def _legacy_bytes(store: CompressedStore, version: int) -> bytes:
    """``store``'s blocks in the layout of format versions 1 and 2: per
    block d x u32 head coordinates, a u8 head height, a u32 payload bit
    length and the byte-padded payload.  The records are the store's, so
    a version-1 file of them is right for lossless stores only."""
    cfg = store.cfg
    out = bytearray(store.to_bytes()[:21])
    out[4] = version
    for blk in store._blocks:
        out += struct.pack(f"<{cfg.d}LBL", *blk.head.coords, blk.head.height, blk.bit_len)
        out += blk.payload
    return bytes(out)


V2_SPLIT_SPANS = {
    "header": [(0, 21)],
    "table": [table for table, _, _ in _legacy_blocks(V2_SPLIT_DATA)],
    "payload": [payload for _, payload, _ in _legacy_blocks(V2_SPLIT_DATA)],
}


def _points_digest(store: CompressedStore) -> str:
    """sha256 of the repr of the store's decoded (coords, height) pairs."""
    pairs = [(hp.coords, hp.height) for hp in store.decode_all()]
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def _load_or_pqc_error(data: bytes):
    """Loading either fails with a PqcError or yields a store that saves
    back to the very same bytes."""
    try:
        store = CompressedStore.from_bytes(data)
    except PqcError:
        return
    assert store.to_bytes() == data


def _load_version_2_or_pqc_error(data: bytes):
    """Loading an older file either fails with a PqcError or yields a store
    that saves as version 3 and reloads to the same points."""
    try:
        store = CompressedStore.from_bytes(data)
    except PqcError:
        return
    points = store.decode_all()
    saved = store.to_bytes()
    assert saved[4] == 3
    assert CompressedStore.from_bytes(saved).decode_all() == points


class TestFromBytesFuzz:
    @given(strategies.integers(0, len(FUZZ_DATA) - 1))
    @settings(deadline=None, max_examples=300)
    def test_truncated(self, cut):
        _load_or_pqc_error(FUZZ_DATA[:cut])

    @given(
        strategies.sampled_from(sorted(FUZZ_SPANS)),
        strategies.data(),
        strategies.lists(strategies.integers(0, 255), min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=600)
    def test_mutated(self, region, data, values):
        lo, hi = data.draw(strategies.sampled_from(FUZZ_SPANS[region]))
        at = data.draw(strategies.integers(lo, hi - 1))
        mutated = bytearray(FUZZ_DATA)
        mutated[at : at + len(values)] = bytes(values)
        _load_or_pqc_error(bytes(mutated))

    @given(
        strategies.integers(0, len(FUZZ_DATA)),
        strategies.binary(min_size=1, max_size=8),
    )
    @settings(deadline=None, max_examples=200)
    def test_spliced(self, at, extra):
        _load_or_pqc_error(FUZZ_DATA[:at] + extra + FUZZ_DATA[at:])

    @given(strategies.integers(0, len(V2_SPLIT_DATA) - 1))
    @settings(deadline=None, max_examples=150)
    def test_truncated_version_2(self, cut):
        _load_version_2_or_pqc_error(V2_SPLIT_DATA[:cut])

    @given(
        strategies.sampled_from(sorted(V2_SPLIT_SPANS)),
        strategies.data(),
        strategies.lists(strategies.integers(0, 255), min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=400)
    def test_mutated_version_2(self, region, data, values):
        lo, hi = data.draw(strategies.sampled_from(V2_SPLIT_SPANS[region]))
        at = data.draw(strategies.integers(lo, hi - 1))
        mutated = bytearray(V2_SPLIT_DATA)
        mutated[at : at + len(values)] = bytes(values)
        _load_version_2_or_pqc_error(bytes(mutated))


class TestAccounting:
    def test_stats_keys(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        s = st.stats()
        assert s["n"] == 5
        assert s["blocks"] == 1
        assert s["payload_bits"] == 41
        assert s["block_histogram"] == {5: 1}
        # The 21-byte header, then the 41 bits padded to 6 bytes.
        assert s["file_bits"] == st.file_bits() == 8 * len(st.to_bytes()) == 8 * 27
        assert s["framing_bits"] == 8 * 27 - 41
        assert s["bpv_file"] == 8 * 27 / 5
        # A store has no version: it is the file's, which pqc stats reads.
        assert "version" not in s

    def test_bit_budget_of_the_figure(self):
        # A 10-bit head and the figure's 31 bits of coordinate gamma codes.
        st = lossless_store(FIGURE_POINTS, CFG5)
        assert st.bit_budget() == {"head_bits": 10, "height_bits": 0, "coord_bits": 31}

    def test_bit_budget_sums_to_the_payload(self):
        cfg = Config(d=2, w=12, gamma=3)
        pts = round_set(jittered_net(cfg, 8, f0=64), cfg)
        st = CompressedStore.build(pts, cfg, LOSSY)
        budget = st.bit_budget()
        assert sum(budget.values()) == st.payload_bits()
        assert budget["head_bits"] == st.block_count * (2 * 12 + 4)
        # Every record holds one height code of at least one bit.
        assert budget["height_bits"] >= st.count() - st.block_count
        heights = [hp.height for hp in st.decode_all()]
        firsts = set(st._offsets)
        assert budget["height_bits"] == sum(
            2 * abs(h - g).bit_length() + 1 if h != g else 1
            for r, (g, h) in enumerate(zip(heights, heights[1:]), 1)
            if r not in firsts
        )

    def test_doubling_points_roughly_doubles_bits(self):
        # Constant density, doubled area: total payload should scale
        # linearly, not with n * w.
        cfg = Config(d=2, w=12, gamma=5)
        small = jittered_net(cfg, 1, f0=32, cols=32, rows=16)
        large = jittered_net(cfg, 2, f0=32, cols=32, rows=32)
        assert len(large) == 2 * len(small)

        def payload(pts):
            return CompressedStore.build(
                round_set(pts, cfg), cfg, LOSSY
            ).payload_bits()

        ratio = payload(large) / payload(small)
        assert 1.6 <= ratio <= 2.4


class TestPrefixReads:
    """Reads that stop part-way into blocks, over more blocks than the
    block cache holds, mixed with inserts that split blocks, against an
    uncompressed oracle."""

    KINDS = ["successor", "key", "point", "height", "heighted", "range", "insert"]

    @given(strategies.data())
    @settings(deadline=None, max_examples=40)
    def test_random_reads_match_oracle(self, data):
        # gamma == w leaves every point rounded at every height, so the
        # heights can be arbitrary.
        cfg = Config(d=2, w=10, gamma=10)
        seed = data.draw(strategies.integers(0, 10_000), label="seed")
        rng = random.Random(seed)
        pts = random_points(cfg, seed, 360)
        height = {p: rng.randrange(cfg.w + 1) for p in pts}
        stored = sorted(pts[:300], key=lambda p: interleave(p, cfg))
        withheld = pts[300:]
        st = CompressedStore.build(
            [HeightedPoint(p, height[p]) for p in stored], cfg, LOSSY
        )
        oracle = ArrayPointSource(stored, cfg)
        assert st.block_count > 8
        for _ in range(data.draw(strategies.integers(1, 80), label="ops")):
            kind = data.draw(strategies.sampled_from(self.KINDS))
            b = data.draw(strategies.integers(0, st.block_count - 1))
            i = data.draw(strategies.integers(0, st._blocks[b].count - 1))
            r = st._offsets[b] + i
            if kind == "successor":
                if data.draw(strategies.booleans()):
                    k = oracle.key_at(r) + data.draw(strategies.integers(-1, 1))
                else:
                    k = data.draw(strategies.integers(0, (1 << (2 * cfg.w)) - 1))
                assert st.successor_rank(k) == oracle.successor_rank(k)
            elif kind == "key":
                assert st.key_at(r) == oracle.key_at(r)
            elif kind == "point":
                assert st.point_at(r) == oracle.point_at(r)
            elif kind == "height":
                assert st.height_at(r) == height[oracle.point_at(r)]
            elif kind == "heighted":
                got = st.point_at(r), st.height_at(r)
                assert got == (oracle.point_at(r), height[oracle.point_at(r)])
            elif kind == "range":
                hi = min(r + data.draw(strategies.integers(1, 3 * cfg.w)), st.count())
                assert list(st.iter_range(r, hi)) == list(oracle.iter_range(r, hi))
            elif withheld:
                p = withheld.pop()
                st.insert(p, height[p])
                stored = sorted(stored + [p], key=lambda q: interleave(q, cfg))
                oracle = ArrayPointSource(stored, cfg)
        assert st.decode_all() == [HeightedPoint(p, height[p]) for p in stored]


class TestBlockCache:
    def test_reads_match_oracle_across_splits(self):
        # gamma == w leaves every point rounded at every height, so the
        # heights can be arbitrary.
        cfg = Config(d=2, w=10, gamma=10)
        rng = random.Random(3)
        pts = random_points(cfg, 17, 400)
        rng.shuffle(pts)
        height = {p: rng.randrange(cfg.w + 1) for p in pts}
        stored = sorted(pts[:300], key=lambda p: interleave(p, cfg))
        st = CompressedStore.build(
            [HeightedPoint(p, height[p]) for p in stored], cfg, LOSSY
        )
        resumed = []  # the start of each run begun at a resume point

        def check():
            oracle = ArrayPointSource(stored, cfg)
            assert st.count() == oracle.count()
            for _ in range(100):
                k = rng.randrange(1 << (2 * cfg.w))
                assert st.successor_rank(k) == oracle.successor_rank(k)
            for r in rng.sample(range(st.count()), 30):
                assert st.point_at(r) == oracle.point_at(r)
                assert st.height_at(r) == height[oracle.point_at(r)]
            lo = rng.randrange(st.count() - 60)
            assert list(st.iter_range(lo, lo + 60)) == list(oracle.iter_range(lo, lo + 60))
            # Each side of every block boundary: a head's key comes from the
            # index, its predecessor's from the decoded block before it.
            for start in st._offsets[1:]:
                for r in (start - 1, start):
                    assert st.key_at(r) == interleave(st.point_at(r), cfg)
                    assert st.key_at(r) == oracle.key_at(r)
            # Runs that start at resume points, then one read below each
            # (the splice), in a seeded order of blocks and read kinds.
            for b in rng.sample(range(st.block_count), 6):
                first, count = st._offsets[b], st._blocks[b].count
                last = first + count - 1
                for _ in range(2):  # the first search leaves the resume point
                    st._cache.clear()
                    k = oracle.key_at(last) + 1
                    assert st.successor_rank(k) == oracle.successor_rank(k)
                start = st._cache[b].start
                assert start > 0
                resumed.append(start)
                kind = rng.choice(["successor", "key", "point", "heighted", "range"])
                r = first + rng.randrange(start)
                if kind == "successor":
                    # A key above the head and at most the resume key.
                    lo, hi = oracle.key_at(first), oracle.key_at(first + start)
                    k = rng.randrange(lo, hi) + 1
                    assert st.successor_rank(k) == oracle.successor_rank(k)
                elif kind == "key":
                    assert st.key_at(r) == oracle.key_at(r)
                elif kind == "point":
                    assert st.point_at(r) == oracle.point_at(r)
                elif kind == "heighted":
                    got = st.point_at(r), st.height_at(r)
                    assert got == (oracle.point_at(r), height[oracle.point_at(r)])
                else:
                    hi = min(last + 2, st.count())
                    assert list(st.iter_range(r, hi)) == list(oracle.iter_range(r, hi))
                if kind != "key" or r > first:  # a head's key decodes nothing
                    assert st._cache[b].start == 0
                whole = list(st.iter_range(first, last + 1))
                assert whole == oracle.points()[first : last + 1]

        check()
        blocks = st.block_count
        spliced_inserts = 0
        for p in pts[300:]:
            # Cache the target block and the ones after it, whose indices
            # a split shifts.
            st._cache.clear()
            key = interleave(p, cfg)
            r = st.successor_rank(key)
            list(st.iter_range(r, min(r + 8 * cfg.w, st.count())))
            # The insert reads the whole target block: a splice when its
            # run starts at the resume point.
            run = st._cache.get(max(bisect.bisect_right(st._head_keys, key) - 1, 0))
            spliced_inserts += run is not None and run.start > 0
            st.insert(p, height[p])
            stored = sorted(stored + [p], key=lambda q: interleave(q, cfg))
            check()
        assert st.block_count > blocks
        assert len(resumed) == 6 * 101
        assert spliced_inserts > 10

    def test_key_at_every_rank(self):
        cfg = Config(d=2, w=4, gamma=0)
        st = lossless_store(random_points(cfg, 5, 100), cfg)
        assert st.block_count > 3
        for r in range(st.count()):
            st._cache.clear()
            assert st.key_at(r) == interleave(st.point_at(r), cfg)
        with pytest.raises(IndexError):
            st.key_at(st.count())

    def test_key_at_of_a_head_decodes_nothing(self):
        cfg = Config(d=2, w=10, gamma=0)
        st = lossless_store(random_points(cfg, 17, 300), cfg)
        st.counters.reset()
        keys = [st.key_at(r) for r in st._offsets]
        assert st.counters.blocks_decoded == 0
        assert keys == [interleave(st.point_at(r), cfg) for r in st._offsets]

    def test_cache_reduces_decodes(self):
        cfg = Config(d=2, w=10, gamma=0)
        pts = random_points(cfg, 17, 300)
        st = lossless_store(pts, cfg)
        st.counters.reset()
        for _ in range(50):
            st.point_at(7)
        assert st.counters.blocks_decoded == 1

    def test_searches_around_every_key(self):
        # Every stored key and its two neighbours, among them each block's
        # head key and resume key, where a search picks its block and its
        # starting point.  The oracle is ArrayPointSource.successor_rank's
        # rule, bisect_left over the sorted keys.  Points come in pairs of
        # consecutive keys, so a search that starts one key off lands on
        # the wrong point.  With gamma == w and one height, every record is
        # 23 bits (a height bit and two 11-bit Exp-Golomb codes), so each
        # resume point sits mid-block.
        cfg = Config(d=2, w=10, gamma=10)
        rng = random.Random(11)
        evens = {(x, y & ~1) for x, y in random_points(cfg, 23, 180)}
        pts = [(x, y | low) for x, y in sorted(evens) for low in (0, 1)]
        rng.shuffle(pts)
        st = CompressedStore(cfg, LOSSY)
        for p in pts:
            st.insert(p, 3)
        keys = sorted(interleave(p, cfg) for p in pts)
        probes = sorted({k + dk for k in keys for dk in (-1, 0, 1)})
        for _ in range(2):  # the first pass leaves the resume points
            for k in probes:
                st._cache.clear()
                assert st.successor_rank(k) == bisect.bisect_left(keys, k)
        assert st.block_count >= 20
        for b, blk in enumerate(st._blocks):
            assert 0 < blk.resume.index < blk.count - 1
            assert blk.resume.key == keys[st._offsets[b] + blk.resume.index]
        # Warm, from the top down: each block's run starts at its resume
        # point and is spliced at the key just below the resume key.
        st._cache.clear()
        for k in reversed(probes):
            assert st.successor_rank(k) == bisect.bisect_left(keys, k)
        rng.shuffle(probes)  # warm, in a seeded order
        for k in probes:
            assert st.successor_rank(k) == bisect.bisect_left(keys, k)

    def test_search_for_a_head_key_decodes_nothing(self, monkeypatch):
        # A key equal to block b's head is found at b's head: no record of
        # b or of the block before it is decoded, with or without resume
        # points.
        cfg = Config(d=2, w=10, gamma=0)
        st = lossless_store(random_points(cfg, 17, 500), cfg)
        assert st.block_count == 25
        keys = [interleave(hp.coords, cfg) for hp in st.decode_all()]
        calls = []
        decode = codec.decode_records

        def counted(*args):
            calls.append(args)
            return decode(*args)

        monkeypatch.setattr(codec, "decode_records", counted)
        for resumed in (False, True):
            assert all((blk.resume is not None) == resumed for blk in st._blocks)
            for b in range(st.block_count):
                st._cache.clear()
                calls.clear()
                assert st.successor_rank(st._head_keys[b]) == st._offsets[b]
                assert calls == []
            for b in range(st.block_count):  # leave the resume points
                st._cache.clear()
                st.successor_rank(keys[st._offsets[b] + st._blocks[b].count - 1])

    def test_records_decoded_by_cold_searches(self, monkeypatch):
        # A fixed batch of cold-cache successor searches on the benchmark's
        # 784-point net, twice: the first pass begins with no resume points
        # and leaves one on each block it decodes past the half mark; the
        # second starts every search above a block's resume key there.
        # Blocks decoded (one per search that reads a block) are the same
        # on both passes; kernel calls and records decoded are not.
        cfg = Config(d=2, w=16, gamma=5)
        st = CompressedStore.build(round_set(_net(2048, 11), cfg), cfg, LOSSY)
        oracle = ArrayPointSource([hp.coords for hp in st.decode_all()], cfg)
        decoded = []
        decode = codec.decode_records

        def counted(*args):
            coords, heights = decode(*args)
            decoded.append(len(coords))
            return coords, heights

        monkeypatch.setattr(codec, "decode_records", counted)
        rng = random.Random(29)
        keys = [rng.randrange(1 << 32) for _ in range(300)]
        passes = []
        for _ in range(2):
            st.counters.reset()
            decoded.clear()
            for k in keys:
                st._cache.clear()
                assert st.successor_rank(k) == oracle.successor_rank(k)
            passes.append((st.counters.blocks_decoded, len(decoded), sum(decoded)))
        # Blocks read, kernel calls and records decoded per pass.  Before
        # resume points, both passes read (299, 748, 5908).
        assert passes == [(299, 475, 3663), (299, 449, 3463)]


class TestFormatVersions:
    def test_new_stores_write_version_3(self):
        cfg = Config(d=2, w=8, gamma=2)
        for mode in (LOSSY, LOSSLESS):
            pts = round_set(random_points(cfg, 3, 40), cfg)
            if mode == LOSSLESS:
                pts = [HeightedPoint(hp.coords, 0) for hp in pts]
            st = CompressedStore.build(pts, cfg, mode)
            data = st.to_bytes()
            assert data[4] == 3
            # One bit stream of every head and record, padded once.
            assert len(data) == 21 + (st.payload_bits() + 7) // 8
            back = CompressedStore.from_bytes(data)
            assert back.decode_all() == pts and back.to_bytes() == data

    @pytest.mark.parametrize("version", [0, 4, 255])
    def test_unknown_version_rejected(self, version):
        data = bytearray(lossless_store(FIGURE_POINTS, CFG5).to_bytes())
        data[4] = version
        with pytest.raises(FormatError, match="unsupported version"):
            CompressedStore.from_bytes(bytes(data))

    def test_lossless_records_are_the_same_in_both_versions(self):
        # Lossless deltas are gamma codes in every version, so the figure's
        # version-1 and version-2 files load to the same 41-bit store and
        # save as the same version-3 file.
        st = lossless_store(FIGURE_POINTS, CFG5)
        for version in (1, 2):
            back = CompressedStore.from_bytes(_legacy_bytes(st, version))
            assert back.payload_bits() == 41
            assert back.to_bytes() == st.to_bytes()


# A lossy store (d=2, w=8, gamma=2; 64 points of a jittered net in 4
# blocks) saved in format version 1, whose coordinate deltas are gamma
# codes, by the code that wrote version 1 before version 2 existed.
GOLDEN_V1_HEX = (
    "505143310102080201400000000000000004000000140000001800000004ec000000c2e1"
    "0118442c196382082023088300d6170908682082019682104011c110160000008e000000"
    "03f700000050860803d41e4100ce110808c21819819a84304011a0820906708609023822"
    "900000001600000003f4000000878210401750b608819e0820809c260c83342212118442"
    "018682482025c1308e0000008e00000003ef000000c108220fe0f411033c114101384b03"
    "3033508608022a1109067088484e12"
)
# _points_digest of the store as that code decoded it.
GOLDEN_V1_POINTS = "bb714822c6627f02858364f632efe66549eb58a3c0522ecbc47cf574fcb027b4"
# sha256 of its version-3 file after inserting (1, 1) at height 0: the
# insert splits the first block into 8 and 9 points, and the save cuts the
# 65 points as build does, 16, 16, 16, 9 and 8 per block.
GOLDEN_V1_AFTER_INSERT = "994f5915de3ed1e401e3a4e422dd95bc8b7577e86e6d8a984b8a9e501c42c833"


class TestVersion1File:
    def load(self):
        data = bytes.fromhex(GOLDEN_V1_HEX)
        st = CompressedStore.from_bytes(data)
        assert data[4] == 1 and st.mode == LOSSY
        assert st.cfg == Config(d=2, w=8, gamma=2)
        assert (st.count(), st.block_count) == (64, 4)
        return st

    def test_decodes_as_when_written(self):
        assert _points_digest(self.load()) == GOLDEN_V1_POINTS

    def test_answers_as_when_written(self):
        st = self.load()
        cfg = st.cfg
        hp = st.decode_all()
        queries = [hp[0].coords, hp[17].coords, hp[-1].coords, (100, 37), (3, 250)]
        queries.append((200, 128))
        got = [(s.corner, s.height) for s in (square_of(q, st, cfg) for q in queries)]
        assert got == [
            ((16, 16), 4),
            ((16, 160), 4),
            ((224, 224), 4),
            ((96, 32), 4),
            ((0, 240), 4),
            ((200, 128), 3),
        ]
        squares = [((0, 0), 8), ((64, 64), 6), ((128, 0), 7), ((96, 160), 5)]
        squares.append(((48, 48), 4))
        ranges = [vertices(TrieSquare(c, h), st) for c, h in squares]
        assert [(v.lo, v.hi) for v in ranges] == [
            (0, 64),
            (12, 16),
            (32, 48),
            (27, 28),
            (3, 4),
        ]
        F = Fraction
        cell = restricted_voronoi((128, 128), st, cfg)
        assert cell.nn_sq == 392 and not cell.clip_bounded
        assert cell.neighbors == [(114, 112), (112, 142), (142, 114), (142, 142)]
        assert cell.polygon == [
            (113, 127),
            (F(1919, 15), F(1709, 15)),
            (142, 128),
            (127, 143),
        ]
        cell = restricted_voronoi(hp[10].coords, st, cfg)
        assert cell.nn_sq == 800 and not cell.clip_bounded
        assert cell.neighbors == [(84, 24), (114, 52), (144, 22)]
        assert cell.polygon == [
            (F(2161, 17), F(597, 17)),
            (F(11313, 113), F(4159, 113)),
            (F(664, 7), 0),
            (F(2069, 16), 0),
        ]

    def test_saves_as_version_3_after_an_insert(self):
        st = self.load()
        data = st.to_bytes()
        assert data[4] == 3
        assert data == CompressedStore.build(st.decode_all(), st.cfg, LOSSY).to_bytes()
        st.insert((1, 1), 0)
        assert [blk.count for blk in st._blocks] == [8, 9, 16, 16, 16]
        points = st.decode_all()
        data = st.to_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_V1_AFTER_INSERT
        back = CompressedStore.from_bytes(data)
        sizes = [blk.count for blk in back._blocks]
        assert sizes == _block_sizes(65, 8) == [16, 16, 16, 9, 8]
        assert back.decode_all() == points

    def test_refine_saves_version_3(self):
        st = self.load()
        st.insert((115, 21), 0)  # a defect next to (112, 20)
        before = {hp.coords for hp in st.decode_all()}
        out, report = refine(st, RefineParams(rho=Fraction(2), gamma=2))
        assert report.steiner_count > 0
        data = out.to_bytes()
        assert data[4] == 3
        assert data == CompressedStore.build(out.decode_all(), out.cfg, LOSSY).to_bytes()
        back = CompressedStore.from_bytes(data)
        assert back.decode_all() == out.decode_all()
        assert before <= {hp.coords for hp in back.decode_all()}

    def test_version_2_store_of_the_same_points(self):
        # The load re-encodes the file's gamma-coded deltas in the
        # Exp-Golomb records of versions 2 and 3, so the loaded store holds
        # the blocks that build makes of the same points, in fewer record
        # bits than the file.
        st = self.load()
        points = st.decode_all()
        v2 = CompressedStore.build(points, st.cfg, LOSSY)
        assert v2.decode_all() == points
        assert [blk.payload for blk in v2._blocks] == [blk.payload for blk in st._blocks]
        assert v2.bit_budget() == st.bit_budget()
        budget = st.bit_budget()
        file_records = sum(bits for _, _, bits in _legacy_blocks(bytes.fromhex(GOLDEN_V1_HEX)))
        assert budget["height_bits"] + budget["coord_bits"] < file_records


# _points_digest of V2_SPLIT_DATA as the code that wrote it decoded it.
V2_SPLIT_POINTS = "f37f2e1db7d61124f9fa0fbcf1c7eef69075d03bea4c27388e8552efcdf11a99"


class TestVersion2File:
    def load(self):
        st = CompressedStore.from_bytes(V2_SPLIT_DATA)
        assert V2_SPLIT_DATA[4] == 2 and st.mode == LOSSY
        assert st.cfg == Config(d=2, w=8, gamma=2)
        assert [blk.count for blk in st._blocks] == _block_sizes(72, 8)
        return st

    def test_decodes_and_answers_as_when_written(self):
        st = self.load()
        cfg = st.cfg
        assert _points_digest(st) == V2_SPLIT_POINTS
        hp = st.decode_all()
        queries = [hp[0].coords, hp[30].coords, hp[-1].coords, (100, 37), (3, 250)]
        queries.append((200, 128))
        got = [(s.corner, s.height) for s in (square_of(q, st, cfg) for q in queries)]
        assert got == [
            ((0, 0), 3),
            ((12, 236), 2),
            ((224, 224), 5),
            ((96, 32), 4),
            ((0, 240), 4),
            ((192, 128), 4),
        ]
        squares = [((0, 0), 8), ((64, 64), 6), ((128, 0), 7), ((96, 160), 5)]
        squares.append(((48, 48), 4))
        ranges = [vertices(TrieSquare(c, h), st) for c, h in squares]
        assert [(v.lo, v.hi) for v in ranges] == [
            (0, 72),
            (15, 23),
            (41, 55),
            (33, 35),
            (3, 3),
        ]

    def test_saves_as_version_3_in_builds_cut(self):
        st = self.load()
        points = st.decode_all()
        data = st.to_bytes()
        assert data[4] == 3
        assert data == CompressedStore.build(points, st.cfg, LOSSY).to_bytes()
        back = CompressedStore.from_bytes(data)
        sizes = [blk.count for blk in back._blocks]
        assert sizes == _block_sizes(72, 8) == [16, 16, 16, 16, 8]
        assert back.decode_all() == points
        assert back.to_bytes() == data


class TestVersion3Files:
    """Every saved file is one bit stream of build's cut, as long as
    file_bits() says, and loads and saves back to its bytes."""

    @given(strategies.data())
    @settings(deadline=None, max_examples=60)
    def test_bytes_are_builds_and_file_bits(self, data):
        mode = data.draw(strategies.sampled_from([LOSSY, LOSSLESS]), label="mode")
        d = data.draw(strategies.sampled_from([2, 3]), label="d")
        w = data.draw(strategies.sampled_from([4, 8, 16, 32]), label="w")
        gamma = data.draw(strategies.integers(0, min(w, 6)), label="gamma")
        n = data.draw(strategies.integers(0, min(300, 1 << (d * w - 1))), label="n")
        inserts = data.draw(strategies.sampled_from([0, 1, 40, n]), label="inserts")
        seed = data.draw(strategies.integers(0, 2**16), label="seed")
        cfg = Config(d=d, w=w, gamma=gamma)
        pts = random_points(cfg, seed, n)
        if mode == LOSSY:
            points = round_set(pts, cfg)
        else:
            points = [HeightedPoint(p, 0) for p in sorted(pts, key=lambda p: interleave(p, cfg))]
        # Build from some of the points, then insert the rest in random order.
        late = list(points)
        random.Random(seed).shuffle(late)
        late = late[: min(inserts, n)]
        early = set(points) - set(late)
        st = CompressedStore.build([hp for hp in points if hp in early], cfg, mode)
        for hp in late:
            st.insert(hp.coords, hp.height)
        saved = st.to_bytes()
        assert 8 * len(saved) == st.file_bits()
        assert CompressedStore.from_bytes(saved).to_bytes() == saved
        assert saved == CompressedStore.build(st.decode_all(), cfg, mode).to_bytes()
        assert st.decode_all() == points
