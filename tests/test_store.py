"""Block store round trips, search, insertion, and the PQC1 file format."""

import bisect
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from conftest import jittered_net, random_points
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
from pqc.morton import Config, interleave
from pqc.reference import EpsilonNetSpec, generate_epsilon_net
from pqc.store import LOSSLESS, LOSSY, CompressedStore
from pqc.qtree import ArrayPointSource, restricted_voronoi, square_of, vertices
from pqc.morton import TrieSquare
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
    """round_set + build output bytes and the leaf-height sweep's work,
    pinned on the benchmark's 196- and 784-point nets and a d=3 set."""

    @pytest.mark.parametrize(
        "cfg, make, n, digest, probes",
        [
            (
                Config(d=2, w=16, gamma=5), lambda: _net(4096, 11), 196,
                "9ca6c6789b9c8281d1e26e85bc5927670fdceb852cfc08e793422eb62b03d27b", 1596,
            ),
            (
                Config(d=2, w=16, gamma=5), lambda: _net(2048, 11), 784,
                "26a0eff1d80e7d6b554af1fc90032435253f133605b41333fa88234b4f61cffd", 6417,
            ),
            (
                Config(d=3, w=10, gamma=2),
                lambda: random_points(Config(d=3, w=10, gamma=2), 7, 500), 500,
                "e3afaf1fdd72b073de20c6615637e5b19f369948c8f1bd255087efee1b07526e", 20899,
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
            assert st.heighted_at(rank) == rounded[rank]
            assert st.height_at(rank) == rounded[rank].height

    def test_qtree_queries_match_array_source(self):
        from pqc.qtree import ArrayPointSource, is_crowded

        cfg = Config(d=2, w=9, gamma=2)
        pts = jittered_net(cfg, 21, f0=32)
        rounded = round_set(pts, cfg)
        st = CompressedStore.build(rounded, cfg, LOSSY)
        arr = ArrayPointSource(
            [hp.coords for hp in rounded],
            cfg,
            heights=[hp.height for hp in rounded],
            presorted=True,
        )
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
        for hp in rounded:
            assert square_of(hp.coords, st, cfg) == square_of(hp.coords, arr, cfg)


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

    def test_nonzero_padding_rejected(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        data = bytearray(st.to_bytes())
        data[-1] |= 0x01  # payload is 31 bits; bit 32 is padding
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
        kept = [st.heighted_at(r) for r in range(first, first + 3)]
        short = CompressedStore.build(kept, st.cfg, LOSSY)._blocks[0]
        blk = st._blocks[b]
        blk.payload, blk.bit_len = short.payload, short.bit_len
        st._cache.clear()
        assert st.heighted_at(first + 2) == kept[2]
        with pytest.raises(CorruptPayloadError) as exc:
            st.point_at(late)
        assert exc.value.block_index == b
        assert exc.value.bit_offset == short.bit_len


def _fuzz_store_bytes():
    """A small lossy store's file, in format version 2, with the byte spans
    of its header, its block headers and its block payloads."""
    cfg = Config(d=2, w=8, gamma=2)
    store = CompressedStore.build(
        round_set(random_points(cfg, 5, 60), cfg), cfg, LOSSY
    )
    data = store.to_bytes()
    assert data[4] == 2
    header, tables, payloads = [(0, 21)], [], []
    pos = 21
    for blk in store._blocks:
        tables.append((pos, pos + 4 * cfg.d + 5))
        pos = tables[-1][1]
        payloads.append((pos, pos + (blk.bit_len + 7) // 8))
        pos = payloads[-1][1]
    assert pos == len(data) and len(payloads) >= 3
    return data, {"header": header, "table": tables, "payload": payloads}


FUZZ_DATA, FUZZ_SPANS = _fuzz_store_bytes()


def _load_or_pqc_error(data: bytes):
    """Loading either fails with a PqcError or yields a store that saves
    back to the very same bytes."""
    try:
        store = CompressedStore.from_bytes(data)
    except PqcError:
        return
    assert store.to_bytes() == data


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


class TestAccounting:
    def test_stats_keys(self):
        st = lossless_store(FIGURE_POINTS, CFG5)
        s = st.stats()
        assert s["n"] == 5
        assert s["blocks"] == 1
        assert s["payload_bits"] == 41
        assert s["block_histogram"] == {5: 1}
        assert s["file_bits"] == st.file_bits()
        assert s["version"] == 2

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
        oracle = ArrayPointSource(stored, cfg, [height[p] for p in stored])
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
                assert st.height_at(r) == oracle.height_at(r)
            elif kind == "heighted":
                assert st.heighted_at(r) == (oracle.point_at(r), oracle.height_at(r))
            elif kind == "range":
                hi = min(r + data.draw(strategies.integers(1, 3 * cfg.w)), st.count())
                assert list(st.iter_range(r, hi)) == list(oracle.iter_range(r, hi))
            elif withheld:
                p = withheld.pop()
                st.insert(p, height[p])
                stored = sorted(stored + [p], key=lambda q: interleave(q, cfg))
                oracle = ArrayPointSource(stored, cfg, [height[q] for q in stored])
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
            oracle = ArrayPointSource(stored, cfg, [height[p] for p in stored])
            assert st.count() == oracle.count()
            for _ in range(100):
                k = rng.randrange(1 << (2 * cfg.w))
                assert st.successor_rank(k) == oracle.successor_rank(k)
            for r in rng.sample(range(st.count()), 30):
                assert st.point_at(r) == oracle.point_at(r)
                assert st.height_at(r) == oracle.height_at(r)
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
                    assert st.heighted_at(r) == (oracle.point_at(r), oracle.height_at(r))
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

    def test_repeated_keys_straddling_a_resume_point(self):
        # Multiscan's interim stores repeat keys.  A search for a key whose
        # copies straddle a block's resume point must still find the first
        # copy.  The oracle is ArrayPointSource.successor_rank's rule,
        # bisect_left over the sorted keys; ArrayPointSource itself refuses
        # repeated keys.  With gamma == w and one height, every record is
        # 23 bits (a height bit and two 11-bit Exp-Golomb codes), so each
        # resume point sits mid-block, most often inside a run of copies.
        cfg = Config(d=2, w=10, gamma=10)
        rng = random.Random(11)
        pts = [p for p in random_points(cfg, 23, 60) for _ in range(6)]
        rng.shuffle(pts)
        st = CompressedStore(cfg, LOSSY)
        st._allow_duplicates = True
        for p in pts:
            st.insert(p, 3)
        keys = sorted(interleave(p, cfg) for p in pts)
        probes = sorted({k + dk for k in keys for dk in (-1, 0, 1)})
        for _ in range(2):  # the first pass leaves the resume points
            for k in probes:
                st._cache.clear()
                assert st.successor_rank(k) == bisect.bisect_left(keys, k)
        straddled = [
            b
            for b, blk in enumerate(st._blocks)
            if blk.resume
            and keys[st._offsets[b] + blk.resume.index - 1] == blk.resume.key
        ]
        assert len(straddled) >= 3
        rng.shuffle(probes)  # warm runs: splices on cache hits
        for k in probes:
            assert st.successor_rank(k) == bisect.bisect_left(keys, k)

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
    def test_new_stores_write_version_2(self):
        cfg = Config(d=2, w=8, gamma=2)
        for mode in (LOSSY, LOSSLESS):
            pts = round_set(random_points(cfg, 3, 40), cfg)
            if mode == LOSSLESS:
                pts = [HeightedPoint(hp.coords, 0) for hp in pts]
            st = CompressedStore.build(pts, cfg, mode)
            assert st.version == 2 and st.to_bytes()[4] == 2
            back = CompressedStore.from_bytes(st.to_bytes())
            assert back.version == 2 and back.decode_all() == pts

    @pytest.mark.parametrize("version", [0, 3, 255])
    def test_unknown_version_rejected(self, version):
        data = bytearray(lossless_store(FIGURE_POINTS, CFG5).to_bytes())
        data[4] = version
        with pytest.raises(FormatError, match="unsupported version"):
            CompressedStore.from_bytes(bytes(data))

    def test_lossless_records_are_the_same_in_both_versions(self):
        # Only the version byte differs: lossless deltas stay gamma codes.
        data = lossless_store(FIGURE_POINTS, CFG5).to_bytes()
        old = data[:4] + b"\x01" + data[5:]
        st = CompressedStore.from_bytes(old)
        assert st.version == 1 and st.payload_bits() == 41
        assert st.to_bytes() == old


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
# sha256 of its bytes after inserting (1, 1) at height 0, by the same code.
GOLDEN_V1_AFTER_INSERT = (
    "a2c80b225e43094d5e35c02dfad6f6cef6b53e32e5378df23f80720315b89153"
)


class TestVersion1File:
    def load(self):
        st = CompressedStore.from_bytes(bytes.fromhex(GOLDEN_V1_HEX))
        assert st.version == 1 and st.mode == LOSSY
        assert st.cfg == Config(d=2, w=8, gamma=2)
        assert (st.count(), st.block_count) == (64, 4)
        return st

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

    def test_saves_back_as_version_1_after_an_insert(self):
        st = self.load()
        assert st.to_bytes() == bytes.fromhex(GOLDEN_V1_HEX)
        st.insert((1, 1), 0)
        data = st.to_bytes()
        assert data[4] == 1
        assert hashlib.sha256(data).hexdigest() == GOLDEN_V1_AFTER_INSERT
        assert CompressedStore.from_bytes(data).decode_all() == st.decode_all()

    def test_refine_keeps_version_1(self):
        st = self.load()
        st.insert((115, 21), 0)  # a defect next to (112, 20)
        before = {hp.coords for hp in st.decode_all()}
        out, report = refine(st, RefineParams(rho=Fraction(2), gamma=2))
        assert report.steiner_count > 0
        assert out.version == 1 and out.to_bytes()[4] == 1
        back = CompressedStore.from_bytes(out.to_bytes())
        assert back.decode_all() == out.decode_all()
        assert before <= {hp.coords for hp in back.decode_all()}

    def test_version_2_store_of_the_same_points(self):
        st = self.load()
        points = st.decode_all()
        v2 = CompressedStore.build(points, st.cfg, LOSSY)
        assert v2.version == 2 and v2.decode_all() == points
        assert v2.bit_budget()["head_bits"] == st.bit_budget()["head_bits"]
        assert v2.bit_budget()["height_bits"] == st.bit_budget()["height_bits"]
        assert v2.bit_budget()["coord_bits"] < st.bit_budget()["coord_bits"]
