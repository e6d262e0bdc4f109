"""Block store round trips, search, insertion, and the PQC1 file format."""

import random

import pytest
from hypothesis import given, settings, strategies

from conftest import jittered_net, random_points
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
from pqc.store import LOSSLESS, LOSSY, CompressedStore
from pqc.qtree import ArrayPointSource, square_of, vertices
from pqc.morton import TrieSquare

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
    """A small lossy store's file, with the byte spans of its header, its
    block headers and its block payloads."""
    cfg = Config(d=2, w=8, gamma=2)
    store = CompressedStore.build(
        round_set(random_points(cfg, 5, 60), cfg), cfg, LOSSY
    )
    data = store.to_bytes()
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

        check()
        blocks = st.block_count
        for p in pts[300:]:
            # Cache the target block and the ones after it, whose indices
            # a split shifts.
            r = st.successor_rank(interleave(p, cfg))
            list(st.iter_range(r, min(r + 8 * cfg.w, st.count())))
            st.insert(p, height[p])
            stored = sorted(stored + [p], key=lambda q: interleave(q, cfg))
            check()
        assert st.block_count > blocks

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
