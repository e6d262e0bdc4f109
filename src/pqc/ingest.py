"""Bounded-memory construction: build a compressed store in w masked scans.

The input never sits in memory uncompressed.  Scan t reads every point
masked to its current precision level i_t (low i_t bits zeroed, levels
stepping from w-1 down to 0) and rebuilds the compressed store from the
masked values.  While reading, each point's prefix square from the
*previous* level is tested for crowding against the previous store; the
first level at which that square is uncrowded is the point's quadtree leaf
height h.  From then on the point is stored as ``round_point(p, h,
gamma)`` at height h, which stops refining at max(h - gamma, 0) cleared
bits, so the final store decodes exactly like rounding and building in
memory.

Per-point bookkeeping is one height byte, so the peak footprint is two
compressed stores plus n bytes, not the raw coordinates.
"""

from __future__ import annotations

import math
import re
from array import array
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import DomainError, OutOfRangeError, ParseError
from .geom import HeightedPoint, round_point
from .morton import Config, Point, TrieSquare, clear_low_bits
from .qtree import is_crowded
from .store import LOSSY, CompressedStore

_HEADER = re.compile(r"^#\s*pqc\s+(.*)$")
_UNSET = 255


def parse_header_line(line: str) -> Optional[dict]:
    """Parse ``# pqc d=.. w=.. scale=..``; None if the line is not one."""
    m = _HEADER.match(line.strip())
    if m is None:
        return None
    out = {}
    for tok in m.group(1).split():
        if "=" not in tok:
            raise ParseError(f"malformed header field {tok!r}")
        k, v = tok.split("=", 1)
        if k not in ("d", "w", "scale"):
            raise ParseError(f"unknown header field {k!r}")
        try:
            out[k] = int(v)
        except ValueError as exc:
            raise ParseError(f"header field {k}={v!r} is not an integer") from exc
    return out


def parse_point_line(line: str, cfg: Config, scale: int = 1, line_number=None) -> Point:
    """One point per line, whitespace-separated axis values.

    With scale 1 the values must be plain nonnegative integers; otherwise
    decimal reals are mapped through floor(x * scale).
    """
    toks = line.split()
    if len(toks) != cfg.d:
        raise ParseError(
            f"expected {cfg.d} coordinates, got {len(toks)}", line_number
        )
    coords = []
    for tok in toks:
        try:
            if scale == 1:
                value = int(tok)
            else:
                value = math.floor(
                    Fraction(Decimal(tok)) * scale
                )
        except (ValueError, InvalidOperation) as exc:
            raise ParseError(f"bad coordinate {tok!r}", line_number) from exc
        if not 0 <= value < cfg.coord_limit:
            raise OutOfRangeError(
                f"coordinate {tok!r} maps to {value}, outside [0, {cfg.coord_limit})"
            )
        coords.append(value)
    return tuple(coords)


class TextPointReader:
    """Sequential, re-openable reader over the text point format.

    ``masked(bits)`` yields each point with its low ``bits`` bits cleared;
    every reopen counts as one pass over the file.
    """

    def __init__(self, path, cfg: Config, scale: int = 1):
        self.path = path
        self.cfg = cfg
        self.scale = scale
        self.passes = 0

    def masked(self, bits: int) -> Iterator[Point]:
        self.passes += 1
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                p = parse_point_line(line, self.cfg, self.scale, lineno)
                yield clear_low_bits(p, bits)


class MemoryPointReader:
    """Reader over an in-memory sequence, for tests and library callers."""

    def __init__(self, points: Sequence[Point], cfg: Config):
        self._points = [tuple(p) for p in points]
        self.cfg = cfg
        self.passes = 0

    def masked(self, bits: int) -> Iterator[Point]:
        self.passes += 1
        for p in self._points:
            yield clear_low_bits(p, bits)


def read_multiscan(
    reader,
    cfg: Config = None,
    mode: str = LOSSY,
    bits_per_scan: int = 1,
    stats_out: Optional[dict] = None,
) -> CompressedStore:
    """Build a compressed store in ceil(w / bits_per_scan) passes.

    With one bit per scan the result decodes identically to rounding the
    whole input in memory and batch-building.  Reading several bits per
    scan trades passes for conservatively low leaf heights (heights snap
    down to the tested levels, so extra precision is kept, never lost).

    A lossy scan stores each point by one rule: once its leaf height h is
    known (h = 0 at the last scan if no test found it), as
    ``round_point(p, h, gamma)`` at height h; before that, masked at
    height min(mask_bits + gamma, w).  A lossless scan stores (p, 0).
    The crowding tests (:func:`pqc.qtree.is_crowded`) ask the previous
    scan's store, whose masked keys may repeat; their neighbour probes
    are successor searches, counted like :func:`pqc.qtree.square_of`'s.
    """
    cfg = cfg or reader.cfg
    if bits_per_scan < 1:
        raise DomainError(f"bits_per_scan must be at least 1, not {bits_per_scan}")
    lossy = mode == LOSSY
    gamma = cfg.gamma
    levels = []
    level = cfg.w
    while level > 0:
        level = max(level - bits_per_scan, 0)
        levels.append(level)

    heights = array("B")  # leaf height of input point j, _UNSET until found
    prev_store: Optional[CompressedStore] = None
    prev_level: Optional[int] = None
    n: Optional[int] = None
    peak_bytes = 0

    for scan_index, mask_bits in enumerate(levels):
        last_scan = scan_index == len(levels) - 1
        store = CompressedStore(cfg, mode)
        store._allow_duplicates = not last_scan
        j = -1
        for j, p in enumerate(reader.masked(mask_bits)):
            if n is None:
                heights.append(_UNSET)
            elif j >= n:
                raise ParseError(f"input grew to more than {n} points between scans")
            if not lossy:
                store.insert(p, 0)
                continue
            h = heights[j]
            if h == _UNSET and prev_store is not None:
                square = TrieSquare(clear_low_bits(p, prev_level), prev_level)
                if not is_crowded(square, prev_store):
                    h = heights[j] = prev_level
            if h == _UNSET and last_scan:
                h = 0
            if h == _UNSET:
                store.insert(p, min(mask_bits + gamma, cfg.w))
            else:
                store.insert(round_point(p, h, gamma), h)
        if n is None:
            n = j + 1
        elif j + 1 != n:
            raise ParseError(f"input shrank from {n} to {j + 1} points between scans")
        prev_level = mask_bits
        live = store.file_bits() // 8 + (
            prev_store.file_bits() // 8 if prev_store is not None else 0
        )
        peak_bytes = max(peak_bytes, live)
        prev_store = store

    if n == 1 and lossy:
        # The root square is never among the tested levels; a lone point
        # owns it, so its height is the full width.
        p = store.decode_all()[0].coords
        store = CompressedStore.build(
            [HeightedPoint(round_point(p, cfg.w, gamma), cfg.w)], cfg, mode
        )
    if stats_out is not None:
        stats_out["passes"] = reader.passes
        stats_out["n"] = n
        stats_out["peak_interim_store_bytes"] = peak_bytes
        stats_out["counter_bytes"] = len(heights)
        stats_out["final_store_bytes"] = store.file_bits() // 8
    return store
