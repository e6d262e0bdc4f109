"""Command-line interface.

Subcommands: compress, decompress, stats, query, refine, gen.  Output is
line-oriented ``key=value`` text so scripts and golden tests can parse it.
Exit codes: 0 success, 1 malformed input or store, 2 I/O failure,
3 out-of-range coordinates or invalid geometry parameters.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    CorruptPayloadError,
    DomainError,
    DimensionError,
    FormatError,
    GenerationError,
    OutOfRangeError,
    ParseError,
    PqcError,
)
from .ingest import TextPointReader, parse_header_line, read_multiscan
from .morton import Config, TrieSquare, validate_square
from .qtree import restricted_voronoi, square_of, vertices
from .refine import RefineParams, refine
from .reference import EpsilonNetSpec, generate_epsilon_net
from .store import LOSSLESS, LOSSY, VERSION, CompressedStore


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(out, **pairs):
    for k, v in pairs.items():
        print(f"{k}={_fmt(v)}", file=out)


def _store_stat_lines(store, version, out):
    """The store's stats; ``version`` is the format version of its file."""
    s = store.stats()
    _emit(
        out,
        n=s["n"],
        d=s["d"],
        w=s["w"],
        gamma=s["gamma"],
        mode=s["mode"],
        version=version,
        blocks=s["blocks"],
        payload_bits=s["payload_bits"],
        file_bits=s["file_bits"],
        framing_bits=s["framing_bits"],
        bpv_payload=float(s["bpv_payload"]),
        bpv_file=float(s["bpv_file"]),
    )
    for size, count in s["block_histogram"].items():
        print(f"block_hist_{size}={count}", file=out)


def _parse_point(text: str, cfg: Config):
    parts = text.replace(",", " ").split()
    if len(parts) != cfg.d:
        raise ParseError(f"expected {cfg.d} comma-separated coordinates, got {text!r}")
    try:
        return tuple(int(t) for t in parts)
    except ValueError as exc:
        raise ParseError(f"bad point {text!r}") from exc


def _parse_rho(text: str) -> Fraction:
    """--rho as an exact fraction, range-checked as a parameter so that a
    bad value is never mistaken for a bad store header on load."""
    try:
        rho = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad --rho {text!r}; expected e.g. 2 or 3/2") from exc
    if rho <= 1:
        raise DomainError(f"rho must exceed 1, not {rho}")
    return rho


def _resolve_text_config(args) -> tuple[Config, int]:
    with open(args.input, "r", encoding="utf-8") as fh:
        first = fh.readline()
    header = parse_header_line(first) or {}

    def pick(flag, field, default):
        # The flag, else the header field, else the default: a zero from
        # either is a value to check, not a gap to fill.
        return flag if flag is not None else header.get(field, default)

    w = pick(args.width, "w", 16)
    gamma = args.gamma if args.gamma is not None else min(5, w)
    cfg = Config(d=pick(args.dim, "d", 2), w=w, gamma=gamma)
    scale = pick(args.scale, "scale", 1)
    if scale < 1:
        raise DomainError(f"scale must be at least 1, not {scale}")
    return cfg, scale


def cmd_compress(args) -> int:
    cfg, scale = _resolve_text_config(args)
    mode = LOSSLESS if args.lossless else LOSSY
    reader = TextPointReader(args.input, cfg, scale)
    stats = {}
    store = read_multiscan(
        reader, cfg, mode, bits_per_scan=args.bits_per_scan, stats_out=stats
    )
    store.save(args.output)
    _emit(sys.stdout, passes=stats["passes"])
    _store_stat_lines(store, VERSION, sys.stdout)
    _emit(sys.stdout, output=args.output)
    return 0


def cmd_decompress(args) -> int:
    store = CompressedStore.load(args.input)
    cfg = store.cfg
    dest = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        dest.write(f"# pqc d={cfg.d} w={cfg.w} scale=1\n")
        for hp in store.decode_all():
            dest.write(" ".join(str(c) for c in hp.coords) + "\n")
    finally:
        if args.output:
            dest.close()
    if args.output:
        _emit(sys.stdout, n=store.count(), output=args.output)
    return 0


def cmd_stats(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    store = CompressedStore.from_bytes(data)
    _store_stat_lines(store, data[4], sys.stdout)
    # payload_bits by component
    _emit(sys.stdout, **store.bit_budget())
    return 0


def cmd_query(args) -> int:
    rho = _parse_rho(args.rho) if args.rho else Fraction(2)
    store = CompressedStore.load(args.input, rho=rho)
    cfg = store.cfg
    store.counters.reset()
    out = sys.stdout
    if args.kind == "square-of":
        p = _parse_point(args.point, cfg)
        s = square_of(p, store, cfg)
        _emit(out, corner=",".join(map(str, s.corner)), height=s.height, side=s.side)
    elif args.kind == "vertices":
        parts = args.square.replace(",", " ").split()
        if len(parts) != cfg.d + 1:
            raise ParseError(f"--square needs {cfg.d} corner values and a height")
        try:
            values = [int(t) for t in parts]
        except ValueError as exc:
            raise ParseError(f"bad --square {args.square!r}") from exc
        s = validate_square(TrieSquare(tuple(values[:-1]), values[-1]), cfg)
        rng = vertices(s, store)
        _emit(out, lo=rng.lo, hi=rng.hi, count=len(rng))
        for q in store.iter_range(rng.lo, rng.hi):
            print(f"point={','.join(map(str, q))}", file=out)
    elif args.kind == "voronoi":
        p = _parse_point(args.point, cfg)
        cell = restricted_voronoi(p, store, cfg)
        _emit(
            out,
            nn=cell.nn,
            nn_sq=cell.nn_sq,
            aspect=cell.aspect,
            aspect_sq=cell.aspect_sq,
            clip_bounded=cell.clip_bounded,
            neighbors=len(cell.neighbors),
        )
        for q in cell.neighbors:
            print(f"neighbor={','.join(map(str, q))}", file=out)
        for x, y in cell.polygon:
            print(f"vertex={x},{y}", file=out)
    c = store.counters
    _emit(
        out,
        blocks_decoded=c.blocks_decoded,
        range_queries=c.range_queries,
        squares_scanned=c.squares_scanned,
    )
    return 0


def cmd_refine(args) -> int:
    rho = _parse_rho(args.rho)
    params = RefineParams(rho=rho, gamma=args.gamma, max_rounds=args.max_rounds)
    store = CompressedStore.load(args.input, rho=rho)
    store, report = refine(store, params)
    store.save(args.output)
    s = store.stats()
    _emit(
        sys.stdout,
        input_count=report.input_count,
        output_count=report.output_count,
        rounds=report.rounds,
        steiner_points=report.steiner_count,
        max_aspect=report.final_max_aspect,
        payload_bits_before=report.payload_bits_before,
        payload_bits_after=report.payload_bits_after,
        bpv_before=report.bpv_before(),
        bpv_after=report.bpv_after(),
        blocks=s["blocks"],
        file_bits=s["file_bits"],
        bpv_file=float(s["bpv_file"]),
        output=args.output,
    )
    return 0


def cmd_gen(args) -> int:
    cfg = Config(d=args.dim, w=args.width, gamma=0)
    if cfg.d != 2:
        raise DimensionError("gen writes 2D nets only")
    if args.rows is not None and args.cols is None:
        raise GenerationError(
            f"--rows {args.rows} needs --cols: without it the net fills the domain"
        )
    if args.cols is not None:
        rows = args.rows if args.rows is not None else args.cols
        spec = EpsilonNetSpec(f0=args.f0, epsilon=args.epsilon, cols=args.cols, rows=rows)
    else:
        spec = EpsilonNetSpec.fill(args.f0, args.epsilon, cfg)
    pts = generate_epsilon_net(spec, cfg, args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(f"# pqc d={cfg.d} w={cfg.w} scale=1\n")
        for p in pts:
            fh.write(" ".join(str(c) for c in p) + "\n")
    _emit(
        sys.stdout,
        n=len(pts),
        f0=spec.f0,
        pitch=spec.pitch,
        jitter=spec.jitter,
        cols=spec.cols,
        rows=spec.rows,
        output=args.output,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pqc",
        description="Compressed Morton-order point store: build, query, refine.",
    )
    ap.add_argument("--version", action="version", version=f"pqc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="multi-scan compress a text point file")
    p.add_argument("input")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--dim", type=int, choices=(2, 3))
    p.add_argument("--width", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--scale", type=int)
    p.add_argument("--lossless", action="store_true")
    p.add_argument("--bits-per-scan", type=int, default=1)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="emit the stored points as text")
    p.add_argument("input")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("stats", help="report size and block statistics")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("query", help="run a quadtree or Voronoi query")
    p.add_argument("input")
    p.add_argument("kind", choices=("square-of", "vertices", "voronoi"))
    p.add_argument("--point", help="query point, e.g. 8,8")
    p.add_argument("--square", help="corner and height, e.g. 4,0,2")
    p.add_argument("--rho", help="well-spacedness ratio for voronoi queries")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("refine", help="insert Steiner points to reach aspect rho")
    p.add_argument("input")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--rho", required=True, help="target aspect ratio, e.g. 2 or 3/2")
    p.add_argument(
        "--gamma",
        type=int,
        default=4,
        help="Steiner point precision, at most a lossy store's gamma",
    )
    p.add_argument("--max-rounds", type=int, default=0)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("gen", help="write a synthetic jittered-grid point file")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--f0", type=int, default=32, help="minimum spacing, grid units")
    p.add_argument("--epsilon", type=float, default=0.9)
    p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cols", type=int, help="grid columns (default: fill the domain)")
    p.add_argument("--rows", type=int, help="grid rows, with --cols (default: as many as columns)")
    p.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    missing = []
    if args.command == "query":
        if args.kind in ("square-of", "voronoi") and not args.point:
            missing.append("--point")
        if args.kind == "vertices" and not args.square:
            missing.append("--square")
    try:
        if missing:
            raise ParseError(f"missing {' '.join(missing)} for this query kind")
        return args.func(args)
    except (ParseError, FormatError, CorruptPayloadError) as exc:
        print(f"pqc: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pqc: i/o error: {exc}", file=sys.stderr)
        return 2
    except (OutOfRangeError, DomainError, DimensionError, GenerationError) as exc:
        print(f"pqc: error: {exc}", file=sys.stderr)
        return 3
    except PqcError as exc:
        print(f"pqc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
