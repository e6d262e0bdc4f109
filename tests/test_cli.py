"""End-to-end runs of every CLI subcommand."""

import io
import sys

import pytest

from conftest import V2_SPLIT_DATA
from pqc.cli import main
from pqc.geom import round_set
from pqc.morton import Config
from pqc.store import CompressedStore

FIGURE_LINES = "5 2\n6 3\n8 4\n9 6\n10 6\n"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    pairs = {}
    for line in captured.out.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            pairs.setdefault(k, []).append(v)
    return code, pairs, captured


def test_compress_figure_file(tmp_path, capsys):
    src = tmp_path / "fig.txt"
    src.write_text(FIGURE_LINES)
    out = tmp_path / "fig.pqc"
    code, pairs, _ = run(
        ["compress", str(src), "-o", str(out), "--width", "5", "--lossless"],
        capsys,
    )
    assert code == 0
    assert pairs["n"] == ["5"]
    assert pairs["passes"] == ["1"]  # lossless: one read of the input
    assert pairs["version"] == ["3"]
    assert pairs["payload_bits"] == ["41"]
    assert pairs["blocks"] == ["1"]
    assert out.exists()


def test_stats_on_figure_store(tmp_path, capsys):
    src = tmp_path / "fig.txt"
    src.write_text(FIGURE_LINES)
    out = tmp_path / "fig.pqc"
    run(["compress", str(src), "-o", str(out), "--width", "5", "--lossless"], capsys)
    code, pairs, _ = run(["stats", str(out)], capsys)
    assert code == 0
    assert pairs["n"] == ["5"]
    assert pairs["blocks"] == ["1"]
    assert pairs["block_hist_5"] == ["1"]
    assert pairs["mode"] == ["lossless"]
    assert pairs["version"] == ["3"]
    # The 21-byte header, and the 41 payload bits padded to 6 bytes.
    assert pairs["file_bits"] == [str(8 * 27)]
    assert pairs["framing_bits"] == [str(8 * 27 - 41)]
    # The bit budget: a 10-bit head and 31 bits of coordinate codes.
    assert pairs["payload_bits"] == ["41"]
    assert (pairs["head_bits"], pairs["height_bits"], pairs["coord_bits"]) == (
        ["10"],
        ["0"],
        ["31"],
    )


def test_stats_bit_budget_of_a_lossy_store(tmp_path, capsys):
    src = tmp_path / "net.txt"
    out = tmp_path / "net.pqc"
    run(["gen", "-o", str(src), "--width", "12", "--f0", "256", "--seed", "3"], capsys)
    run(["compress", str(src), "-o", str(out)], capsys)
    code, pairs, _ = run(["stats", str(out)], capsys)
    assert code == 0
    assert pairs["mode"] == ["lossy"] and pairs["version"] == ["3"]
    n, blocks = int(pairs["n"][0]), int(pairs["blocks"][0])
    head, height, coord = (
        int(pairs[k][0]) for k in ("head_bits", "height_bits", "coord_bits")
    )
    assert head + height + coord == int(pairs["payload_bits"][0])
    assert head == blocks * (2 * 12 + 4)
    assert height >= n - blocks  # at least one bit per record
    assert coord > height


def test_stats_prints_the_version_of_the_file_it_read(tmp_path, capsys):
    # An older file loads into the same store as a new one; stats names the
    # file's version, and a save of that store writes version 3.
    old = tmp_path / "old.pqc"
    old.write_bytes(V2_SPLIT_DATA)
    code, pairs, _ = run(["stats", str(old)], capsys)
    assert code == 0 and pairs["version"] == ["2"]
    new = tmp_path / "new.pqc"
    CompressedStore.load(old).save(new)
    code, again, _ = run(["stats", str(new)], capsys)
    assert code == 0 and again["version"] == ["3"]
    assert again["n"] == pairs["n"] == ["72"]
    assert int(again["file_bits"][0]) == 8 * new.stat().st_size


def test_decompress_round_trip(tmp_path, capsys):
    src = tmp_path / "fig.txt"
    src.write_text(FIGURE_LINES)
    store = tmp_path / "fig.pqc"
    back = tmp_path / "back.txt"
    run(["compress", str(src), "-o", str(store), "--width", "5", "--lossless"], capsys)
    code, pairs, _ = run(["decompress", str(store), "-o", str(back)], capsys)
    assert code == 0
    body = [l for l in back.read_text().splitlines() if not l.startswith("#")]
    assert body == FIGURE_LINES.strip().splitlines()


def test_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    out = tmp_path / "empty.pqc"
    code, pairs, _ = run(
        ["compress", str(src), "-o", str(out), "--width", "8"], capsys
    )
    assert code == 0
    assert pairs["n"] == ["0"]
    code, pairs, _ = run(["stats", str(out)], capsys)
    assert code == 0
    assert pairs["n"] == ["0"]


def test_header_supplies_defaults(tmp_path, capsys):
    src = tmp_path / "pts.txt"
    src.write_text("# pqc d=2 w=5 scale=1\n" + FIGURE_LINES)
    out = tmp_path / "pts.pqc"
    code, pairs, _ = run(["compress", str(src), "-o", str(out), "--lossless"], capsys)
    assert code == 0
    assert pairs["w"] == ["5"]
    assert pairs["passes"] == ["1"]


def test_scaled_decimal_input(tmp_path, capsys):
    src = tmp_path / "dec.txt"
    src.write_text("0.5 0.25\n0.75 0.125\n")
    out = tmp_path / "dec.pqc"
    code, pairs, _ = run(
        [
            "compress",
            str(src),
            "-o",
            str(out),
            "--width",
            "5",
            "--scale",
            "16",
            "--lossless",
        ],
        capsys,
    )
    assert code == 0
    code, _, cap = run(["decompress", str(out)], capsys)
    assert code == 0
    assert "8 4" in cap.out and "12 2" in cap.out


def test_compress_repeated_key_run_matches_round_set(tmp_path, capsys):
    # When interim stores held one masked copy per point, a run of one
    # masked key crossed a block boundary here, and compress stopped with
    # "point (4, 8) already stored".  Kept as a regression for the
    # two-entry rule that replaced the copies.
    pts = [(1, 5), (3, 1), (4, 3), (5, 8), (5, 9), (8, 2), (8, 5), (10, 9), (12, 12), (14, 5)]
    src = tmp_path / "pts.txt"
    src.write_text("".join(f"{x} {y}\n" for x, y in pts))
    out = tmp_path / "pts.pqc"
    code, pairs, _ = run(
        ["compress", str(src), "-o", str(out), "--width", "4", "--gamma", "0"], capsys
    )
    assert code == 0
    assert pairs["n"] == ["10"]
    code, _, cap = run(["decompress", str(out)], capsys)
    assert code == 0
    body = [l for l in cap.out.splitlines() if l and not l.startswith("#")]
    want = round_set(pts, Config(d=2, w=4, gamma=0))
    assert body == [" ".join(map(str, hp.coords)) for hp in want]


def test_query_square_of(tmp_path, capsys):
    src = tmp_path / "fig.txt"
    src.write_text(FIGURE_LINES)
    store = tmp_path / "fig.pqc"
    run(["compress", str(src), "-o", str(store), "--width", "5", "--lossless"], capsys)
    code, pairs, _ = run(
        ["query", str(store), "square-of", "--point", "5,2"], capsys
    )
    assert code == 0
    assert pairs["corner"] == ["5,2"]
    assert pairs["height"] == ["0"]
    assert "blocks_decoded" in pairs
    # One successor search for the point's key, one per neighbour probed.
    probes = int(pairs["squares_scanned"][0])
    assert probes > 0
    assert int(pairs["range_queries"][0]) == 1 + probes


def test_query_vertices_root(tmp_path, capsys):
    src = tmp_path / "fig.txt"
    src.write_text(FIGURE_LINES)
    store = tmp_path / "fig.pqc"
    run(["compress", str(src), "-o", str(store), "--width", "5", "--lossless"], capsys)
    code, pairs, _ = run(
        ["query", str(store), "vertices", "--square", "0,0,5"], capsys
    )
    assert code == 0
    assert pairs["count"] == ["5"]
    assert pairs["point"][0] == "5,2"


def test_query_voronoi_plus_shape(tmp_path, capsys):
    src = tmp_path / "plus.txt"
    src.write_text("8 8\n0 8\n16 8\n8 0\n8 16\n")
    store = tmp_path / "plus.pqc"
    run(["compress", str(src), "-o", str(store), "--width", "5", "--lossless"], capsys)
    code, pairs, _ = run(
        ["query", str(store), "voronoi", "--point", "8,8"], capsys
    )
    assert code == 0
    assert pairs["neighbors"] == ["4"]
    assert pairs["clip_bounded"] == ["false"]
    assert abs(float(pairs["aspect"][0]) - 0.707107) < 1e-5


def test_refine_subcommand(tmp_path, capsys):
    src = tmp_path / "pair.txt"
    src.write_text("100 120\n164 160\n")
    store = tmp_path / "pair.pqc"
    refined = tmp_path / "refined.pqc"
    run(
        ["compress", str(src), "-o", str(store), "--width", "10", "--gamma", "4"],
        capsys,
    )
    code, pairs, _ = run(
        [
            "refine",
            str(store),
            "-o",
            str(refined),
            "--rho",
            "2",
            "--gamma",
            "4",
        ],
        capsys,
    )
    assert code == 0
    assert int(pairs["output_count"][0]) > 2
    assert float(pairs["max_aspect"][0]) <= 2.0
    code, pairs, _ = run(["stats", str(refined)], capsys)
    assert code == 0
    assert int(pairs["n"][0]) > 2


def test_reported_sizes_are_the_written_files(tmp_path, capsys):
    # Multiscan and refine insert point by point and split blocks; the
    # reports must describe the files, which are cut as build cuts them.
    src = tmp_path / "net.txt"
    store = tmp_path / "net.pqc"
    refined = tmp_path / "refined.pqc"
    run(["gen", "-o", str(src), "--width", "12", "--f0", "256", "--seed", "3"], capsys)
    lines = src.read_text().splitlines()
    x, y = map(int, lines[50].split())
    with open(src, "a", encoding="utf-8") as fh:
        fh.write(f"{x + 5} {y + 3}\n")  # a close pair for refine to mend
    code, compressed, _ = run(["compress", str(src), "-o", str(store)], capsys)
    assert code == 0
    code, pairs, _ = run(["refine", str(store), "-o", str(refined), "--rho", "2"], capsys)
    assert code == 0 and int(pairs["steiner_points"][0]) > 0
    for out, path in ((compressed, store), (pairs, refined)):
        loaded = CompressedStore.load(path)
        assert int(out["file_bits"][0]) == 8 * path.stat().st_size
        assert int(out["blocks"][0]) == loaded.block_count
        assert float(out["bpv_file"][0]) == pytest.approx(
            8 * path.stat().st_size / loaded.count(), abs=1e-6
        )
    assert int(compressed["payload_bits"][0]) == CompressedStore.load(store).payload_bits()
    assert int(pairs["payload_bits_after"][0]) == CompressedStore.load(refined).payload_bits()


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, pairs, _ = run(
            [
                "gen",
                "-o",
                str(path),
                "--width",
                "9",
                "--f0",
                "32",
                "--seed",
                "11",
            ],
            capsys,
        )
        assert code == 0
        assert int(pairs["n"][0]) > 50
    assert a.read_bytes() == b.read_bytes()


def test_gen_then_compress(tmp_path, capsys):
    pts = tmp_path / "net.txt"
    store = tmp_path / "net.pqc"
    run(["gen", "-o", str(pts), "--width", "10", "--f0", "48", "--seed", "3"], capsys)
    code, pairs, _ = run(
        ["compress", str(pts), "-o", str(store), "--gamma", "5"], capsys
    )
    assert code == 0
    assert pairs["mode"] == ["lossy"]


class TestExitCodes:
    def test_parse_error_is_1(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("what even is this\n")
        assert (
            main(["compress", str(src), "-o", str(tmp_path / "x.pqc"), "--width", "8"])
            == 1
        )
        capsys.readouterr()

    def test_io_error_is_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "compress",
                    str(tmp_path / "missing.txt"),
                    "-o",
                    str(tmp_path / "x.pqc"),
                ]
            )
            == 2
        )
        capsys.readouterr()

    def test_out_of_range_is_3(self, tmp_path, capsys):
        src = tmp_path / "big.txt"
        src.write_text("40 2\n")
        assert (
            main(["compress", str(src), "-o", str(tmp_path / "x.pqc"), "--width", "5"])
            == 3
        )
        capsys.readouterr()

    def test_bad_store_is_1(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.pqc"
        bogus.write_bytes(b"not a store at all")
        assert main(["stats", str(bogus)]) == 1
        capsys.readouterr()

    def test_query_out_of_domain_is_3(self, tmp_path, capsys):
        src = tmp_path / "fig.txt"
        src.write_text(FIGURE_LINES)
        store = tmp_path / "fig.pqc"
        main(["compress", str(src), "-o", str(store), "--width", "5", "--lossless"])
        capsys.readouterr()
        assert main(["query", str(store), "square-of", "--point", "40,2"]) == 3
        capsys.readouterr()

    def test_missing_query_arg_is_1(self, tmp_path, capsys):
        src = tmp_path / "fig.txt"
        src.write_text(FIGURE_LINES)
        store = tmp_path / "fig.pqc"
        main(["compress", str(src), "-o", str(store), "--width", "5", "--lossless"])
        capsys.readouterr()
        assert main(["query", str(store), "square-of"]) == 1
        capsys.readouterr()

    def _figure_store(self, tmp_path, capsys):
        src = tmp_path / "fig.txt"
        src.write_text(FIGURE_LINES)
        store = tmp_path / "fig.pqc"
        main(["compress", str(src), "-o", str(store), "--width", "5", "--lossless"])
        capsys.readouterr()
        return str(store)

    def test_bad_square_value_is_1(self, tmp_path, capsys):
        store = self._figure_store(tmp_path, capsys)
        assert main(["query", store, "vertices", "--square", "1,2,x"]) == 1
        assert "pqc: error:" in capsys.readouterr().err

    def test_bad_query_rho_is_1(self, tmp_path, capsys):
        store = self._figure_store(tmp_path, capsys)
        argv = ["query", store, "voronoi", "--point", "5,2", "--rho", "abc"]
        assert main(argv) == 1
        assert "pqc: error:" in capsys.readouterr().err

    def test_query_rho_too_small_is_3(self, tmp_path, capsys):
        store = self._figure_store(tmp_path, capsys)
        argv = ["query", store, "voronoi", "--point", "5,2", "--rho", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "rho must exceed 1" in err
        assert "header" not in err

    def test_bad_refine_rho_is_1(self, tmp_path, capsys):
        store = self._figure_store(tmp_path, capsys)
        argv = ["refine", store, "-o", str(tmp_path / "r.pqc"), "--rho", "abc"]
        assert main(argv) == 1
        assert "pqc: error:" in capsys.readouterr().err

    def test_refine_rho_too_small_is_3(self, tmp_path, capsys):
        store = self._figure_store(tmp_path, capsys)
        argv = ["refine", store, "-o", str(tmp_path / "r.pqc"), "--rho", "1"]
        assert main(argv) == 3
        assert "rho" in capsys.readouterr().err

    def test_refine_negative_gamma_is_3(self, tmp_path, capsys):
        store = self._figure_store(tmp_path, capsys)
        argv = ["refine", store, "-o", str(tmp_path / "r.pqc"), "--rho", "2", "--gamma", "-1"]
        assert main(argv) == 3
        assert "gamma must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "r.pqc").exists()

    def test_refine_gamma_above_the_lossy_store_is_3(self, tmp_path, capsys):
        # The default --gamma 4 against a store compressed at gamma 0: it is
        # refused before the first round, not at the first Steiner insert.
        src = tmp_path / "fig.txt"
        src.write_text(FIGURE_LINES)
        store = tmp_path / "fig.pqc"
        argv = ["compress", str(src), "-o", str(store), "--width", "5", "--gamma", "0"]
        assert main(argv) == 0
        capsys.readouterr()
        out = tmp_path / "r.pqc"
        assert main(["refine", str(store), "-o", str(out), "--rho", "2"]) == 3
        err = capsys.readouterr().err
        assert "refine gamma=4 exceeds the lossy store's gamma=0" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bits", ["0", "-1"])
    def test_compress_bits_per_scan_below_1_is_3(self, tmp_path, capsys, bits):
        src = tmp_path / "fig.txt"
        src.write_text(FIGURE_LINES)
        out = tmp_path / "x.pqc"
        argv = ["compress", str(src), "-o", str(out), "--width", "5"]
        assert main(argv + ["--bits-per-scan", bits]) == 3
        assert f"bits_per_scan must be at least 1, not {bits}" in capsys.readouterr().err
        assert not out.exists()

    def test_refine_negative_max_rounds_is_3(self, tmp_path, capsys):
        store = self._figure_store(tmp_path, capsys)
        argv = ["refine", store, "-o", str(tmp_path / "r.pqc"), "--rho", "2", "--max-rounds", "-1"]
        assert main(argv) == 3
        assert "max_rounds must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "r.pqc").exists()

    # Zero and negative flag or header values are checked, never replaced
    # by a default.
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cols", "0"], "not 0x0"),
            (["--cols", "-2"], "not -2x-2"),
            (["--cols", "3", "--rows", "-1"], "not 3x-1"),
            (["--cols", "3", "--rows", "0"], "not 3x0"),
        ],
    )
    def test_gen_empty_grid_is_3(self, tmp_path, capsys, flags, message):
        out = tmp_path / "net.txt"
        assert main(["gen", "-o", str(out)] + flags) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["3", "0", "-1"])
    def test_gen_rows_without_cols_is_3(self, tmp_path, capsys, rows):
        # A fill-mode net sets its own rows; it does not drop the flag.
        out = tmp_path / "net.txt"
        assert main(["gen", "-o", str(out), "--f0", "8192", "--rows", rows]) == 3
        assert f"--rows {rows} needs --cols" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_explicit_grid_is_0(self, tmp_path, capsys):
        code, pairs, _ = run(["gen", "-o", str(tmp_path / "n.txt"), "--cols", "2"], capsys)
        assert code == 0
        assert pairs["n"] == ["4"]
        assert pairs["rows"] == ["2"]

    @pytest.mark.parametrize(
        "header, flags, message",
        [
            ("", ["--width", "0"], "coordinate width must be in [1, 32], not 0"),
            ("", ["--scale", "0"], "scale must be at least 1, not 0"),
            ("", ["--scale", "-1"], "scale must be at least 1, not -1"),
            ("# pqc w=0\n", [], "coordinate width must be in [1, 32], not 0"),
            ("# pqc d=0\n", [], "dimension must be 2 or 3, not 0"),
            ("# pqc scale=0\n", [], "scale must be at least 1, not 0"),
            ("# pqc w=5 scale=-3\n", [], "scale must be at least 1, not -3"),
            ("# pqc w=5\n", ["--width", "0"], "coordinate width must be in [1, 32], not 0"),
        ],
    )
    def test_compress_bad_width_or_scale_is_3(self, tmp_path, capsys, header, flags, message):
        src = tmp_path / "fig.txt"
        src.write_text(header + FIGURE_LINES)
        out = tmp_path / "x.pqc"
        assert main(["compress", str(src), "-o", str(out)] + flags) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()
