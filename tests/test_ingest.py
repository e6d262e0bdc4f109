"""Text parsing and the multi-scan bounded-memory reader."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jittered_net, random_points
from pqc.errors import DuplicatePointError, OutOfRangeError, ParseError
from pqc.geom import HeightedPoint, round_set
from pqc.ingest import (
    MemoryPointReader,
    TextPointReader,
    parse_header_line,
    parse_point_line,
    read_multiscan,
)
from pqc.morton import Config, interleave
from pqc.store import LOSSLESS, LOSSY, CompressedStore


def write_points(path, points, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for p in points:
            fh.write(" ".join(str(c) for c in p) + "\n")


class TestParsing:
    CFG = Config(d=2, w=5, gamma=0)

    def test_integer_line(self):
        assert parse_point_line("5 2", self.CFG) == (5, 2)

    def test_scaled_decimals(self):
        assert parse_point_line("0.5 0.25", self.CFG, scale=16) == (8, 4)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            parse_point_line("40 2", self.CFG)

    def test_negative_rejected(self):
        with pytest.raises(OutOfRangeError):
            parse_point_line("-1 2", self.CFG)

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_point_line("1 2 3", self.CFG)

    def test_garbage_token(self):
        with pytest.raises(ParseError):
            parse_point_line("five 2", self.CFG)

    def test_header(self):
        assert parse_header_line("# pqc d=2 w=16 scale=8") == {
            "d": 2,
            "w": 16,
            "scale": 8,
        }
        assert parse_header_line("# just a comment") is None

    def test_scaled_floor(self):
        cfg = Config(d=2, w=8, gamma=0)
        assert parse_point_line("0.99 0.26", cfg, scale=4) == (3, 1)


class TestMultiscan:
    def test_pass_count_is_w(self, tmp_path):
        cfg = Config(d=2, w=9, gamma=3)
        pts = jittered_net(cfg, 4, f0=32, cols=8)
        path = tmp_path / "pts.txt"
        write_points(path, pts)
        reader = TextPointReader(path, cfg)
        read_multiscan(reader, cfg, LOSSY)
        assert reader.passes == cfg.w

    def test_bits_per_scan_reduces_passes(self):
        cfg = Config(d=2, w=12, gamma=2)
        pts = jittered_net(cfg, 5, f0=64, cols=8)
        reader = MemoryPointReader(pts, cfg)
        read_multiscan(reader, cfg, LOSSY, bits_per_scan=4)
        assert reader.passes == 3

    def test_matches_round_and_build(self):
        cfg = Config(d=2, w=10, gamma=3)
        for seed in range(4):
            pts = jittered_net(cfg, 30 + seed, f0=32, cols=9)
            reader = MemoryPointReader(pts, cfg)
            scanned = read_multiscan(reader, cfg, LOSSY)
            oracle = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
            assert scanned.decode_all() == oracle.decode_all()

    def test_matches_oracle_on_clustered_input(self):
        # Clusters force a wide mix of leaf heights.
        cfg = Config(d=2, w=12, gamma=2)
        pts = set()
        for cx, cy in [(100, 100), (3000, 2900), (120, 3500), (2000, 300)]:
            pts.update(
                random_points(Config(d=2, w=8, gamma=0), cx, 25, lo=0, hi=200)
            )
            pts = {(min(x + cx, 4095), min(y + cy, 4095)) for x, y in pts}
        pts = sorted(pts)
        reader = MemoryPointReader(pts, cfg)
        scanned = read_multiscan(reader, cfg, LOSSY)
        oracle = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        assert scanned.decode_all() == oracle.decode_all()

    def test_lossless_multiscan_is_exact(self):
        cfg = Config(d=2, w=10, gamma=0)
        pts = random_points(cfg, 77, 200)
        reader = MemoryPointReader(pts, cfg)
        scanned = read_multiscan(reader, cfg, LOSSLESS)
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        assert [hp.coords for hp in scanned.decode_all()] == ordered

    @pytest.mark.parametrize("source", ["text", "memory"])
    def test_lossless_reads_its_input_once(self, tmp_path, source):
        # Lossless mode tests no square for crowding, so one scan stores
        # every point, and that scan meets a duplicate.
        cfg = Config(d=2, w=10, gamma=0)
        pts = random_points(cfg, 78, 150)

        def reader_of(points):
            if source == "memory":
                return MemoryPointReader(points, cfg)
            path = tmp_path / "pts.txt"
            write_points(path, points)
            return TextPointReader(path, cfg)

        reader = reader_of(pts)
        stats = {}
        scanned = read_multiscan(reader, cfg, LOSSLESS, stats_out=stats)
        assert reader.passes == stats["passes"] == 1
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        built = CompressedStore.build([HeightedPoint(p, 0) for p in ordered], cfg, LOSSLESS)
        assert scanned.to_bytes() == built.to_bytes()
        reader = reader_of(pts[:90] + [pts[40]] + pts[90:])
        with pytest.raises(DuplicatePointError):
            read_multiscan(reader, cfg, LOSSLESS)
        assert reader.passes == 1

    def test_empty_input(self):
        cfg = Config(d=2, w=6, gamma=1)
        reader = MemoryPointReader([], cfg)
        store = read_multiscan(reader, cfg, LOSSY)
        assert store.count() == 0
        assert reader.passes == cfg.w

    def test_single_point_gets_full_height(self):
        cfg = Config(d=2, w=8, gamma=2)
        reader = MemoryPointReader([(201, 77)], cfg)
        store = read_multiscan(reader, cfg, LOSSY)
        oracle = CompressedStore.build(round_set([(201, 77)], cfg), cfg, LOSSY)
        assert store.decode_all() == oracle.decode_all()
        assert store.decode_all()[0].height == cfg.w

    def test_duplicate_input_detected(self):
        # Only the last scan's store holds every point; earlier ones keep at
        # most two entries per masked square.  Lossless mode has one scan.
        cfg = Config(d=2, w=8, gamma=2)
        for mode in (LOSSY, LOSSLESS):
            reader = MemoryPointReader([(10, 10), (50, 60), (10, 10), (10, 10)], cfg)
            with pytest.raises(DuplicatePointError, match=r"\(10, 10\) already stored"):
                read_multiscan(reader, cfg, mode)
            if mode == LOSSY:  # the copies raise only at the last scan
                assert reader.passes == cfg.w

    def test_input_shrinking_between_scans_rejected(self):
        class ShrinkingReader(MemoryPointReader):
            def masked(self, bits):
                first = self.passes == 0
                for i, p in enumerate(super().masked(bits)):
                    if first or i < 150:
                        yield p

        cfg = Config(d=2, w=10, gamma=2)
        pts = random_points(cfg, 5, 200)
        with pytest.raises(ParseError, match="shrank"):
            read_multiscan(ShrinkingReader(pts, cfg), cfg, LOSSY)

    def test_adjacent_points_height_floor(self):
        cfg = Config(d=2, w=8, gamma=1)
        pts = [(17, 40), (18, 40), (200, 220)]
        reader = MemoryPointReader(pts, cfg)
        scanned = read_multiscan(reader, cfg, LOSSY)
        oracle = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        assert scanned.decode_all() == oracle.decode_all()

    def test_memory_stays_near_compressed_size(self, tmp_path):
        # Wide coordinates make the raw text dwarf the store; the interim
        # footprint must track the compressed size plus one height byte
        # per point, never the input.
        cfg = Config(d=2, w=28, gamma=4)
        base = jittered_net(Config(d=2, w=14, gamma=4), 9, f0=64, cols=40)
        pts = [(x << 14, y << 14) for x, y in base]
        path = tmp_path / "big.txt"
        write_points(path, pts)
        raw_bytes = path.stat().st_size
        reader = TextPointReader(path, cfg)
        stats = {}
        store = read_multiscan(reader, cfg, LOSSY, stats_out=stats)
        assert stats["n"] == len(pts)
        assert stats["passes"] == cfg.w
        final = stats["final_store_bytes"]
        assert final == len(store.to_bytes())  # the store comes back packed
        # Two live stores at once, and one height byte per point.
        assert stats["peak_interim_store_bytes"] <= 4 * final + 256
        assert stats["counter_bytes"] == len(pts)
        assert stats["peak_interim_store_bytes"] < raw_bytes / 2


# Regressions from when interim stores held one masked copy per point: in
# both sets, at some scan, a run of copies of one key crossed a block
# boundary, and a search that started at the block whose head equals the
# key made the first set store (3, 0) at height 0 instead of (2, 0) at
# height 1 and the second raise DuplicatePointError.  Now each masked
# position is stored once, with one marker beside it for a second copy.
REPEATED_KEY_RUN_W3 = [(0, 4), (3, 0), (4, 5), (5, 4), (6, 0), (6, 1), (6, 4)]
REPEATED_KEY_RUN_W4 = [
    (1, 5), (3, 1), (4, 3), (5, 8), (5, 9), (8, 2), (8, 5), (10, 9), (12, 12), (14, 5)
]


@st.composite
def multiscan_cases(draw):
    """(cfg, points): d in {2, 3}, w in [2, 7], gamma in [0, 2], 2 to 24
    distinct points."""
    d = draw(st.sampled_from((2, 3)))
    cfg = Config(d=d, w=draw(st.integers(2, 7)), gamma=draw(st.integers(0, 2)))
    coord = st.integers(0, cfg.coord_limit - 1)
    return cfg, sorted(draw(st.sets(st.tuples(*[coord] * d), min_size=2, max_size=24)))


class TestMultiscanOracle:
    @settings(max_examples=200, deadline=None)
    @given(multiscan_cases())
    @example((Config(d=2, w=3, gamma=0), REPEATED_KEY_RUN_W3))
    @example((Config(d=2, w=4, gamma=0), REPEATED_KEY_RUN_W4))
    def test_decodes_like_round_and_build(self, case):
        cfg, pts = case
        scanned = read_multiscan(MemoryPointReader(pts, cfg), cfg, LOSSY)
        oracle = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
        assert scanned.decode_all() == oracle.decode_all()
        assert scanned.to_bytes() == oracle.to_bytes()
        exact = read_multiscan(MemoryPointReader(pts, cfg), cfg, LOSSLESS)
        ordered = sorted(pts, key=lambda p: interleave(p, cfg))
        assert [hp.coords for hp in exact.decode_all()] == ordered


class TestTextReader:
    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = Config(d=2, w=6, gamma=0)
        path = tmp_path / "pts.txt"
        path.write_text("# pqc d=2 w=6 scale=1\n\n# interior comment\n5 2\n \n6 3\n")
        reader = TextPointReader(path, cfg)
        assert list(reader.masked(0)) == [(5, 2), (6, 3)]

    def test_masking(self, tmp_path):
        cfg = Config(d=2, w=6, gamma=0)
        path = tmp_path / "pts.txt"
        path.write_text("15 9\n")
        reader = TextPointReader(path, cfg)
        assert list(reader.masked(3)) == [(8, 8)]

    def test_parse_error_carries_line_number(self, tmp_path):
        cfg = Config(d=2, w=6, gamma=0)
        path = tmp_path / "pts.txt"
        path.write_text("5 2\nbogus line here\n")
        reader = TextPointReader(path, cfg)
        with pytest.raises(ParseError) as exc:
            list(reader.masked(0))
        assert "line 2" in str(exc.value)
