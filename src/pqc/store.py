"""Compressed block store of Morton-ordered heighted points.

Layout: the sorted sequence is split into blocks of between w and 2w
points (a lone undersized block is allowed for tiny stores).  Inserts
split a block that outgrows 2w into halves, but a saved file is always cut
as :meth:`CompressedStore.build` cuts the same points, whatever the
in-memory layout: blocks of 2w points, an undersized tail balanced
against its left neighbour (:func:`_block_sizes`,
:meth:`CompressedStore.pack`).  So n and w fix every block's point count,
and the file stores none.  Each block stores its first point longhand -
the head - plus one self-delimiting record per following point:
signed-gamma height delta, then per axis the Exp-Golomb code of order
gamma of (prev ^ cur) >> max(h - gamma, 0).  Lossless blocks fix every
height at zero, omit the height delta and gamma-code the deltas.  An
ordered list of head keys serves as the search index; finding a key costs
one bisection plus the decode of the block's records up to that key.
Reads keep a decoded run of the last few blocks they touched -
coordinates, heights and Morton keys in parallel lists - and extend it
only as far as they need.  A run starts at the block's head or at its
resume point: the decoder state at the first record boundary past half
the payload, which the first read to decode that far from the head leaves
on the block, in memory only.  A search for a key at or above the resume
key starts there, so it decodes from the nearer of the two.  A store never
holds a key twice: ``build`` and ``insert`` refuse one.

Persistent format, version 3 (header integers little-endian):

    magic   4 bytes  b"PQC1"
    version u8       3, written on every save; 1 and 2 still load
    d       u8
    w       u8
    gamma   u8
    mode    u8       0 lossless, 1 lossy
    n       u64      total point count
    blocks  u32      block count, len(_block_sizes(n, w))
    then one MSB-first bit stream, per block in order:
      head coords  d x w bits
      head height  ceil(log2(w + 1)) bits, lossy mode only
      records      one per point after the head
    zero bits to the next byte boundary, and nothing after them

The stream has no block lengths and no padding between blocks.  The loader
takes each block's point count from :func:`_block_sizes` and finds where
the block ends by decoding exactly that many records, in the same pass
that validates them; each block's records are then copied into a
byte-aligned payload of its own, which is how a store holds them in
memory.

Versions 1 and 2 store, per block, d x u32 head coordinates, a u8 head
height, a u32 payload bit length and the payload zero-padded to a byte,
and may hold blocks cut as inserts split them.  Version 1 codes lossy
coordinate deltas with gamma; its lossy records are re-encoded at load.
Either loads into the same in-memory store as version 3 and saves as
version 3, in build's cut.
"""

from __future__ import annotations

import bisect
import operator
import struct
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from . import codec
from .codec import BitReader, BitWriter
from .errors import (
    CorruptPayloadError,
    DomainError,
    DuplicatePointError,
    FormatError,
    PqcError,
    TruncatedStreamError,
)
from .geom import HeightedPoint
from .morton import (
    Config,
    Point,
    all_on_grid,
    check_increasing,
    interleave,
    interleave_all,
    validate_point,
)
from .qtree import Counters, PointSource

MAGIC = b"PQC1"
VERSION = 3  # written on every save
VERSIONS = (1, 2, 3)  # loadable
_HEADER = struct.Struct("<BBBBBQL")  # the fields after the magic
_HEADER_BYTES = len(MAGIC) + _HEADER.size
LOSSLESS = "lossless"
LOSSY = "lossy"
_MODE_CODE = {LOSSLESS: 0, LOSSY: 1}
_MODE_NAME = {0: LOSSLESS, 1: LOSSY}
_CACHE_BLOCKS = 8  # decoded block runs kept by each store, least recently used out
# A read that stops mid-block extends its run to the next quarter mark of
# the block's payload per kernel call.  A call costs about as much as
# decoding two records; a search starts at the head or at the resume point
# and stops a quarter of a block past it on average, so quarters come near
# the fewest calls plus records decoded past the target: 1-2 calls and 1/8
# of a block.  The count must stay even, so that the half mark, where the
# resume point is taken, is a chunk mark.
_CHUNKS_PER_BLOCK = 4


class _State(NamedTuple):
    """The decoder state at a record boundary of a block: the point at
    ``index`` in the block, and the bit offset where its record ends."""

    index: int
    bit: int
    coords: Point
    height: int
    key: int


@dataclass
class Block:
    head: HeightedPoint
    count: int
    payload: bytes
    bit_len: int
    # The resume point: the decoder state at the first record boundary at
    # or past half the payload, once a read has decoded that far from the
    # head; in memory only.  A rewrite makes a new Block, so it never goes
    # stale.
    resume: _State | None = None


class _Run:
    """A decoded run of one block from the state ``at`` (the head, or the
    block's resume point): parallel lists of coordinates, heights and
    Morton keys from index ``start``, and the reader of the block's
    payload, parked at the end of the last decoded record."""

    __slots__ = ("start", "coords", "heights", "keys", "reader")

    def __init__(self, block: Block, at: _State):
        self.start = at.index
        self.coords = [at.coords]
        self.heights = [at.height]
        self.keys = [at.key]
        self.reader = BitReader(block.payload, block.bit_len)
        self.reader.seek(at.bit)


def _check_each(points: Sequence[HeightedPoint], cfg: Config, lossy: bool):
    """:meth:`CompressedStore.build`'s checks, point by point: raise for the
    first point that fails one, in the order dimension, coordinate range,
    height range, then lossy rounding or lossless zero height.  The bulk
    checks call it once one of them has failed, to name the defect."""
    for hp in points:
        p = validate_point(hp.coords, cfg)
        if not 0 <= hp.height <= cfg.w:
            raise DomainError(f"height {hp.height} outside [0, {cfg.w}]")
        if lossy:
            shift = max(hp.height - cfg.gamma, 0)
            if any(c & ((1 << shift) - 1) for c in p):
                raise DomainError(f"{p} is not rounded for height {hp.height}")
        elif hp.height != 0:
            raise DomainError("lossless mode requires all heights zero")


def _block_sizes(n: int, w: int) -> list[int]:
    """The canonical cut of n points: blocks of 2w, so inserts start with
    headroom, and an undersized tail balanced with its left neighbour to
    keep every block of a multi-block store >= w points."""
    target = 2 * w
    sizes = [min(target, n - b) for b in range(0, n, target)]
    if len(sizes) > 1 and sizes[-1] < w:
        # Rebalance the last two chunks; their total is in (2w, 3w).
        total = sizes[-2] + sizes[-1]
        sizes[-2] = total - total // 2
        sizes[-1] = total // 2
    return sizes


def _ordered_keys(b: int, coords: list, cfg: Config, prev_key: int) -> list[int]:
    """The Morton keys of block ``b``'s decoded points, head first, once
    they are checked to rise within the block and from ``prev_key``, the
    previous block's last key (-1 for the first block)."""
    keys = interleave_all(coords, cfg)
    if keys[0] <= prev_key or any(map(operator.ge, keys, keys[1:])):
        raise FormatError(f"block {b}: points out of Morton order")
    return keys


def _bits_at(data: bytes, start: int, stop: int) -> int:
    """Bits ``start`` to ``stop`` of ``data``, MSB first, as an int."""
    first, last = start >> 3, (stop + 7) >> 3
    value = int.from_bytes(data[first:last], "big") >> (8 * last - stop)
    return value & ((1 << (stop - start)) - 1)


class CompressedStore(PointSource):
    """PointSource over xor-coded blocks; supports dynamic insertion.

    Reads go through a small LRU of decoded block runs, each holding a
    stretch of the block's points, heights and Morton keys from its head
    or its resume point as far as reads have needed them; a read that
    needs more resumes the decode where the run ends, and one that needs
    an earlier point decodes the head part once and splices it in front.
    Resume points cost one tuple per block, O(n/w) words.  A store is not
    safe to share between threads without a lock.
    """

    def __init__(self, cfg: Config, mode: str = LOSSY):
        if mode not in _MODE_CODE:
            raise PqcError(f"mode must be {LOSSLESS!r} or {LOSSY!r}")
        self.cfg = cfg
        self.mode = mode
        self.counters = Counters()
        self._blocks: list[Block] = []
        self._head_keys: list[int] = []
        self._offsets: list[int] = []  # starting rank of each block
        self._n = 0
        # block index -> decoded run of that block; cleared on write
        self._cache: OrderedDict[int, _Run] = OrderedDict()

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        points: Sequence[HeightedPoint],
        cfg: Config,
        mode: str = LOSSY,
    ) -> "CompressedStore":
        """Build from a Morton-sorted, duplicate-free heighted sequence.

        Lossy input must already be rounded: each point's low
        max(height - gamma, 0) bits must be zero, or the xor records could
        not reproduce it.  The checks run in bulk, over coordinate columns,
        heights and the Morton keys the blocks need anyway; when one fails,
        the points are checked one by one, so the error names the first
        defective point as a point-by-point check would.  Blocks are cut
        by the canonical rule, :func:`_block_sizes`.
        """
        store = cls(cfg, mode)
        lossy = mode == LOSSY
        n = len(points)
        coords = [tuple(hp.coords) for hp in points]
        heights = [hp.height for hp in points]
        if n and not (
            all_on_grid(coords, cfg)
            and 0 <= min(heights)
            and max(heights) <= cfg.w
            and (lossy or not any(heights))
        ):
            _check_each(points, cfg, lossy)
        keys = interleave_all(coords, cfg)
        if lossy:
            # Rounded for height h: the low d*s key bits are zero,
            # s = max(h - gamma, 0), as the low s bits of each coordinate are.
            d, gamma = cfg.d, cfg.gamma
            low_bits = [(1 << d * max(h - gamma, 0)) - 1 for h in range(cfg.w + 1)]
            if any(map(operator.and_, keys, map(low_bits.__getitem__, heights))):
                _check_each(points, cfg, lossy)
        check_increasing(keys, coords)
        pos = 0
        for size in _block_sizes(n, cfg.w):
            end = pos + size
            block = store._encode_block(coords[pos:end], heights[pos:end])
            store._append_block(block, keys[pos])
            pos = end
        return store

    def _encode_block(self, coords: Sequence[Point], heights: Sequence[int]) -> Block:
        writer = BitWriter()
        codec.encode_records(
            writer,
            coords[0],
            heights[0],
            coords[1:],
            heights[1:],
            self.cfg.gamma,
            self.mode == LOSSY,
        )
        head = HeightedPoint(coords[0], heights[0])
        return Block(head, len(coords), writer.getvalue(), writer.bit_length)

    def _append_block(self, block: Block, head_key: int):
        self._cache.clear()
        self._offsets.append(self._n)
        self._blocks.append(block)
        self._head_keys.append(head_key)
        self._n += block.count

    # -- decoding ---------------------------------------------------------

    def _decode(
        self,
        index: int,
        reader,
        prev: Point,
        prev_h: int,
        end_bit: int,
        version: int = VERSION,
    ):
        """Records of block ``index`` from ``reader``'s cursor, which sits
        after the point ``prev`` of height ``prev_h``, through the first
        record boundary at or after ``end_bit``: (coords, heights), in the
        records of format ``version``.  Raises
        CorruptPayloadError with the block id and bit offset on any
        malformed payload."""
        cfg = self.cfg
        lossy = self.mode == LOSSY
        try:
            return codec.decode_records(
                reader,
                prev,
                prev_h,
                cfg.d,
                cfg.w,
                cfg.gamma,
                lossy,
                end_bit,
                None,
                version,
            )
        except (TruncatedStreamError, CorruptPayloadError) as exc:
            raise CorruptPayloadError(
                str(exc), block_index=index, bit_offset=reader.tell()
            ) from exc

    def _walk(self, start: int = 0, stop: int | None = None):
        """Blocks ``start`` to ``stop`` in order, each as (coords, heights)
        lists, head first, from one whole-block decode call; counts one
        decoded block each."""
        for b in range(start, len(self._blocks) if stop is None else stop):
            block = self._blocks[b]
            head = block.head
            reader = BitReader(block.payload, block.bit_len)
            coords, heights = self._decode(
                b, reader, head.coords, head.height, block.bit_len
            )
            self.counters.blocks_decoded += 1
            coords.insert(0, head.coords)
            heights.insert(0, head.height)
            yield coords, heights

    def decode_block(self, index: int) -> list[HeightedPoint]:
        """Exact inverse of the block encoding; heights prefix-sum from the
        head.  Raises CorruptPayloadError with the block id and bit offset
        on any malformed payload."""
        for coords, heights in self._walk(index, index + 1):
            return list(map(HeightedPoint, coords, heights))
        raise IndexError(f"block {index} outside [0, {len(self._blocks)})")

    def decode_all(self) -> list[HeightedPoint]:
        out = []
        for coords, heights in self._walk():
            out += map(HeightedPoint, coords, heights)
        return out

    def _run(self, b: int, first: int, last: int) -> _Run:
        """Decoded run of block ``b`` that holds its indices ``first``
        through ``last``, from the LRU of the last _CACHE_BLOCKS blocks
        read; a block missing there starts as its head alone, from the
        index, and a cached run that starts past ``first`` gets the head
        part spliced in front.  Callers must not mutate its lists."""
        entry = self._cache.get(b)
        if entry is None:
            entry = self._miss(b, self._head_state(b))
        else:
            self._cache.move_to_end(b)
            if first < entry.start:
                self._splice(b, entry)
        if last >= entry.start + len(entry.keys):
            whole = last + 1 >= self._blocks[b].count
            while entry.start + len(entry.keys) <= last:
                self._extend(b, entry, whole)
        return entry

    def _head_state(self, b: int) -> _State:
        head = self._blocks[b].head
        return _State(0, 0, head.coords, head.height, self._head_keys[b])

    def _miss(self, b: int, at: _State) -> _Run:
        """A new run of block ``b`` from ``at`` in the LRU; counts one
        decoded block."""
        self.counters.blocks_decoded += 1
        entry = _Run(self._blocks[b], at)
        self._cache[b] = entry
        if len(self._cache) > _CACHE_BLOCKS:
            self._cache.popitem(last=False)
        return entry

    def _splice(self, b: int, entry: _Run):
        """Decode block ``b`` from its head up to ``entry``'s start, the
        block's resume point, and put those records in front of the run."""
        block = self._blocks[b]
        head = block.head
        reader = BitReader(block.payload, block.bit_len)
        coords, heights = self._decode(
            b, reader, head.coords, head.height, block.resume.bit
        )
        # The last record decoded is the run's first point.
        del coords[-1], heights[-1]
        entry.coords[:0] = [head.coords, *coords]
        entry.heights[:0] = [head.height, *heights]
        entry.keys[:0] = [self._head_keys[b], *interleave_all(coords, self.cfg)]
        entry.start = 0

    def _extend(self, b: int, entry: _Run, whole: bool):
        """Decode the next chunk of block ``b``'s payload, up to the next
        quarter mark, or with ``whole`` all the rest, onto ``entry``, the
        block's run.  A chunk that first passes the half mark from the head
        records the block's resume point."""
        reader = entry.reader
        bit_len = end_bit = reader.bit_length
        pos = reader.tell()
        # A cursor at the end (a payload short of the count) decodes
        # nothing and fails below.
        if not whole and pos < bit_len:
            mark = pos * _CHUNKS_PER_BLOCK // bit_len + 1
            end_bit = -(-mark * bit_len // _CHUNKS_PER_BLOCK)
        try:
            coords, heights = self._decode(
                b, reader, entry.coords[-1], entry.heights[-1], end_bit
            )
            if not coords:
                raise CorruptPayloadError(
                    f"payload ends before the block's {self._blocks[b].count} points",
                    block_index=b,
                    bit_offset=reader.tell(),
                )
        except CorruptPayloadError:
            # A later read starts the block over and fails the same way.
            del self._cache[b]
            raise
        entry.coords += coords
        entry.heights += heights
        keys = entry.keys
        keys += interleave_all(coords, self.cfg)
        block = self._blocks[b]
        half = (bit_len + 1) // 2
        if not whole and block.resume is None and pos < half <= reader.tell():
            # The half mark is a chunk mark, so this chunk stopped at the
            # first record boundary past it; a run with no resume point
            # yet starts at the head.
            block.resume = _State(
                len(keys) - 1, reader.tell(), coords[-1], heights[-1], keys[-1]
            )

    # -- PointSource ------------------------------------------------------

    def count(self) -> int:
        return self._n

    @property
    def block_count(self) -> int:
        return self._blocks.__len__()

    @property
    def has_heights(self) -> bool:
        return self.mode == LOSSY

    def _locate(self, rank: int) -> tuple[int, int]:
        """The block holding ``rank``, and the rank's index in it."""
        if not 0 <= rank < self._n:
            raise IndexError(f"rank {rank} outside [0, {self._n})")
        b = bisect.bisect_right(self._offsets, rank) - 1
        return b, rank - self._offsets[b]

    def heighted_at(self, rank: int) -> HeightedPoint:
        b, i = self._locate(rank)
        entry = self._run(b, i, i)
        i -= entry.start
        return HeightedPoint(entry.coords[i], entry.heights[i])

    def point_at(self, rank: int) -> Point:
        b, i = self._locate(rank)
        entry = self._run(b, i, i)
        return entry.coords[i - entry.start]

    def height_at(self, rank: int) -> int:
        b, i = self._locate(rank)
        entry = self._run(b, i, i)
        return entry.heights[i - entry.start]

    def key_at(self, rank: int) -> int:
        b, i = self._locate(rank)
        if not i:
            # A head's key is in the index, so reading it decodes nothing.
            return self._head_keys[b]
        entry = self._run(b, i, i)
        return entry.keys[i - entry.start]

    def successor_rank(self, key: int) -> int:
        b = bisect.bisect_right(self._head_keys, key) - 1
        if b < 0:
            return 0
        block = self._blocks[b]
        entry = self._cache.get(b)
        if entry is None:
            at = block.resume
            if at is None or key < at.key:
                at = self._head_state(b)
            entry = self._miss(b, at)
        else:
            self._cache.move_to_end(b)
            if key < entry.keys[0]:
                self._splice(b, entry)
        keys = entry.keys
        # Keys past the run are larger than its last one, so once that
        # reaches ``key`` the answer lies in the run.
        while keys[-1] < key and entry.start + len(keys) < block.count:
            self._extend(b, entry, False)
        return self._offsets[b] + entry.start + bisect.bisect_left(keys, key)

    def iter_range(self, lo: int, hi: int) -> Iterator[Point]:
        if lo >= hi:
            return
        b = self._locate(lo)[0]
        rank = lo
        while rank < hi:
            base = self._offsets[b]
            i, j = rank - base, min(hi - base, self._blocks[b].count)
            entry = self._run(b, i, j - 1)
            yield from entry.coords[i - entry.start : j - entry.start]
            rank = base + j
            b += 1

    # -- insertion ---------------------------------------------------------

    def insert(self, p: Point, height: int = 0):
        """Splice one point into its block, splitting when it outgrows 2w.

        Lossy mode expects ``p`` pre-rounded for ``height``.  Only the
        target block is re-encoded; the record stream it produces is
        identical to rewriting just the new point and its successor,
        because each record depends only on its predecessor.
        """
        cfg = self.cfg
        p = validate_point(p, cfg)
        lossy = self.mode == LOSSY
        if not 0 <= height <= cfg.w:
            raise DomainError(f"height {height} outside [0, {cfg.w}]")
        if lossy:
            shift = max(height - cfg.gamma, 0)
            if any(c & ((1 << shift) - 1) for c in p):
                raise DomainError(f"{p} is not rounded for height {height}")
        else:
            height = 0
        key = interleave(p, cfg)
        if not self._blocks:
            self._append_block(self._encode_block([p], [height]), key)
            return
        b = max(bisect.bisect_right(self._head_keys, key) - 1, 0)
        entry = self._run(b, 0, self._blocks[b].count - 1)
        keys = entry.keys
        pos = bisect.bisect_right(keys, key)
        if pos > 0 and keys[pos - 1] == key:
            raise DuplicatePointError(f"point {p} already stored")
        coords, heights = entry.coords, entry.heights
        coords = coords[:pos] + [p] + coords[pos:]
        self._rewrite_block(b, coords, heights[:pos] + [height] + heights[pos:])

    def _rewrite_block(self, b: int, coords: list, heights: list):
        self._cache.clear()  # a split shifts the indices of later blocks
        cfg = self.cfg
        n = len(coords)
        delta = n - self._blocks[b].count
        if n > 2 * cfg.w:
            half = n // 2
            self._blocks[b] = self._encode_block(coords[:half], heights[:half])
            self._head_keys[b] = interleave(coords[0], cfg)
            right = self._encode_block(coords[half:], heights[half:])
            self._blocks.insert(b + 1, right)
            self._head_keys.insert(b + 1, interleave(coords[half], cfg))
            self._offsets.insert(b + 1, 0)
        else:
            self._blocks[b] = self._encode_block(coords, heights)
            self._head_keys[b] = interleave(coords[0], cfg)
        self._n += delta
        run = self._offsets[b]
        for i in range(b, len(self._blocks)):
            self._offsets[i] = run
            run += self._blocks[i].count

    # -- accounting ---------------------------------------------------------

    def _head_bits(self) -> int:
        # The longhand head: d*w bits, plus ceil(log2(w + 1)) height bits
        # in lossy mode.
        cfg = self.cfg
        head_bits = cfg.d * cfg.w
        if self.mode == LOSSY:
            head_bits += cfg.w.bit_length()
        return head_bits

    def payload_bits(self) -> int:
        """Structural cost in bits: per block, the longhand head (d*w bits,
        plus ceil(log2(w + 1)) height bits in lossy mode) and the record
        stream.  The header and the final padding are excluded; see
        file_bits()."""
        return sum(self._head_bits() + blk.bit_len for blk in self._blocks)

    def bit_budget(self) -> dict:
        """payload_bits() by component: ``head_bits`` of the longhand
        heads, ``height_bits`` of the records' signed-gamma height deltas
        (none in lossless mode) and ``coord_bits`` of their coordinate
        codes.  Lossy stores decode every block to count the height codes."""
        height_bits = 0
        if self.mode == LOSSY:
            for _, hs in self._walk():
                for dh in map(operator.sub, hs[1:], hs):
                    height_bits += codec.signed_gamma_bits(dh)
        record_bits = sum(blk.bit_len for blk in self._blocks)
        return {
            "head_bits": len(self._blocks) * self._head_bits(),
            "height_bits": height_bits,
            "coord_bits": record_bits - height_bits,
        }

    def file_bits(self) -> int:
        """Size in bits of the version-3 file of the current block layout:
        the header, then payload_bits() padded to a byte boundary.  Once
        the store is packed, as to_bytes() leaves it, this is
        8 * len(to_bytes())."""
        return 8 * (_HEADER_BYTES + (self.payload_bits() + 7) // 8)

    def stats(self) -> dict:
        hist: dict[int, int] = {}
        for blk in self._blocks:
            hist[blk.count] = hist.get(blk.count, 0) + 1
        n = self._n
        payload = self.payload_bits()
        fbits = self.file_bits()
        return {
            "n": n,
            "d": self.cfg.d,
            "w": self.cfg.w,
            "gamma": self.cfg.gamma,
            "mode": self.mode,
            "blocks": len(self._blocks),
            "payload_bits": payload,
            "file_bits": fbits,
            "framing_bits": fbits - payload,
            "bpv_payload": payload / n if n else 0.0,
            "bpv_file": fbits / n if n else 0.0,
            "block_histogram": dict(sorted(hist.items())),
        }

    # -- persistence ---------------------------------------------------------

    def pack(self):
        """Re-cut the blocks in place as :meth:`build` cuts the same points;
        a no-op when they already are.  One walk over the blocks feeds the
        new ones, whose sizes come from n alone, so at most about 4w decoded
        points are held at once.  The new blocks start without resume
        points."""
        cfg = self.cfg
        sizes = _block_sizes(self._n, cfg.w)
        if sizes == [block.count for block in self._blocks]:
            return
        blocks, head_keys = [], []
        coords, heights = [], []
        walk = self._walk()
        for size in sizes:
            while len(coords) < size:
                more_coords, more_heights = next(walk)
                coords += more_coords
                heights += more_heights
            blocks.append(self._encode_block(coords[:size], heights[:size]))
            head_keys.append(interleave(coords[0], cfg))
            del coords[:size], heights[:size]
        self._blocks, self._head_keys = blocks, head_keys
        self._offsets = list(accumulate(sizes[:-1], initial=0))
        self._cache.clear()

    def to_bytes(self) -> bytes:
        """The version-3 file, cut as build cuts the same points (packs the
        store first): the header, then every block's head and records in
        one bit stream, zero-padded to a byte at its end only."""
        self.pack()
        cfg = self.cfg
        head_bits = self._head_bits()
        height_bits = head_bits - cfg.d * cfg.w
        out = bytearray(MAGIC)
        out += _HEADER.pack(
            VERSION, cfg.d, cfg.w, cfg.gamma, _MODE_CODE[self.mode], self._n,
            len(self._blocks),
        )
        # The stream's bits not yet written out: fewer than 8 between blocks.
        acc = acc_bits = 0
        for blk in self._blocks:
            head = 0
            for c in blk.head.coords:
                head = head << cfg.w | c
            head = head << height_bits | blk.head.height
            nbytes = (blk.bit_len + 7) >> 3
            records = int.from_bytes(blk.payload[:nbytes], "big") >> (-blk.bit_len & 7)
            acc = (acc << head_bits | head) << blk.bit_len | records
            acc_bits += head_bits + blk.bit_len
            whole = acc_bits >> 3
            acc_bits &= 7
            out += (acc >> acc_bits).to_bytes(whole, "big")
            acc &= (1 << acc_bits) - 1
        if acc_bits:
            out.append(acc << (8 - acc_bits))
        return bytes(out)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes, rho=None) -> "CompressedStore":
        """Load a file of any version in VERSIONS, validating every block:
        Morton order within and across blocks, head heights, the point
        count, and (version 3) the block count, padding and length."""
        if data[:4] != MAGIC:
            raise FormatError("bad magic; not a PQC1 file")
        try:
            version, d, w, gamma, mode_code, n, nblocks = _HEADER.unpack_from(
                data, len(MAGIC)
            )
        except struct.error as exc:
            raise FormatError(f"truncated header: {exc}") from exc
        if version not in VERSIONS:
            raise FormatError(f"unsupported version {version}")
        if mode_code not in _MODE_NAME:
            raise FormatError(f"unknown mode byte {mode_code}")
        try:
            kwargs = {"rho": rho} if rho is not None else {}
            cfg = Config(d=d, w=w, gamma=gamma, **kwargs)
        except DomainError as exc:
            raise FormatError(f"invalid header fields: {exc}") from exc
        store = cls(cfg, _MODE_NAME[mode_code])
        if version == VERSION:
            store._load_stream(data, n, nblocks)
        else:
            store._load_blocks(data, nblocks, version)
        store.counters.reset()  # a load has read nothing yet
        if store._n != n:
            raise FormatError(f"header says n={n}, blocks decode to {store._n}")
        return store

    def _load_stream(self, data: bytes, n: int, nblocks: int):
        """Blocks of a version-3 file: one bit stream after the header, in
        which each block's count, from :func:`_block_sizes`, bounds the one
        decode that finds the block's end and validates its records."""
        cfg = self.cfg
        d, w = cfg.d, cfg.w
        lossy = self.mode == LOSSY
        stream_bits = 8 * (len(data) - _HEADER_BYTES)
        # Every point costs at least one bit, so a larger n cannot be the
        # file's, and this bounds the size list below by the file's size.
        if n > stream_bits:
            raise FormatError(
                f"header says n={n}, more than the file's {stream_bits} bits"
            )
        sizes = _block_sizes(n, w)
        if nblocks != len(sizes):
            raise FormatError(
                f"header says {nblocks} blocks; n={n} and w={w} make {len(sizes)}"
            )
        head_bits = self._head_bits()
        height_bits = head_bits - d * w
        # Where each head coordinate sits in the head's bits, first axis
        # highest.
        shifts = [height_bits + w * (d - 1 - a) for a in range(d)]
        coord_mask = (1 << w) - 1
        reader = BitReader(data)
        end = reader.bit_length
        pos = 8 * _HEADER_BYTES
        prev_key = -1
        for b, size in enumerate(sizes):
            start = pos + head_bits
            if start > end:
                raise FormatError(f"truncated block {b} head")
            packed = _bits_at(data, pos, start)
            head = tuple([packed >> shift & coord_mask for shift in shifts])
            height = packed & ((1 << height_bits) - 1)
            if height > w:
                raise FormatError(f"block {b}: head height {height}")
            reader.seek(start)
            try:
                coords, heights = codec.decode_records(
                    reader, head, height, d, w, cfg.gamma, lossy, end, size - 1
                )
            except TruncatedStreamError as exc:
                raise FormatError(f"truncated block {b}: {exc}") from exc
            except CorruptPayloadError as exc:
                raise CorruptPayloadError(
                    str(exc), block_index=b, bit_offset=reader.tell()
                ) from exc
            if len(coords) < size - 1:
                raise FormatError(
                    f"truncated block {b}: {len(coords) + 1} of {size} points"
                )
            coords.insert(0, head)
            keys = _ordered_keys(b, coords, cfg, prev_key)
            prev_key = keys[-1]
            pos = reader.tell()
            nbits = pos - start
            records = _bits_at(data, start, pos) << (-nbits & 7)
            payload = records.to_bytes((nbits + 7) >> 3, "big")
            self._append_block(
                Block(HeightedPoint(head, height), size, payload, nbits), keys[0]
            )
        if end - pos >= 8:
            raise FormatError(f"{(end - pos) // 8} trailing bytes")
        if _bits_at(data, pos, end):
            raise FormatError("nonzero padding bits")

    def _load_blocks(self, data: bytes, nblocks: int, version: int):
        """Blocks of a version-1 or version-2 file, each with its own
        header and byte-padded payload, whose count one validating decode
        derives; version-1 lossy records are re-encoded in the records of
        versions 2 and 3."""
        cfg = self.cfg
        d, w = cfg.d, cfg.w
        reencode = self.mode == LOSSY and version == 1
        pos = _HEADER_BYTES
        prev_key = -1
        for b in range(nblocks):
            need = 4 * d + 5
            if pos + need > len(data):
                raise FormatError(f"truncated block {b} header")
            coords = struct.unpack_from(f"<{d}L", data, pos)
            pos += 4 * d
            height, bit_len = struct.unpack_from("<BL", data, pos)
            pos += 5
            nbytes = (bit_len + 7) // 8
            if pos + nbytes > len(data):
                raise FormatError(f"truncated block {b} payload")
            payload = data[pos : pos + nbytes]
            pos += nbytes
            if bit_len & 7:
                tail = payload[-1] & ((1 << (8 - (bit_len & 7))) - 1)
                if tail:
                    raise FormatError(f"block {b}: nonzero padding bits")
            try:
                head = HeightedPoint(validate_point(coords, cfg), height)
            except DomainError as exc:
                raise FormatError(f"block {b}: {exc}") from exc
            if not 0 <= height <= w:
                raise FormatError(f"block {b}: head height {height}")
            reader = BitReader(payload, bit_len)
            coords, heights = self._decode(
                b, reader, head.coords, height, bit_len, version
            )
            coords.insert(0, head.coords)
            heights.insert(0, height)
            keys = _ordered_keys(b, coords, cfg, prev_key)
            prev_key = keys[-1]
            if reencode:
                block = self._encode_block(coords, heights)
            else:
                block = Block(head, len(coords), payload, bit_len)
            self._append_block(block, keys[0])
        if pos != len(data):
            raise FormatError(f"{len(data) - pos} trailing bytes")

    @classmethod
    def load(cls, path, rho=None) -> "CompressedStore":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), rho=rho)
