"""Compressed block store of Morton-ordered heighted points.

Layout: the sorted sequence is split into blocks of between w and 2w
points (a lone undersized block is allowed for tiny stores).  Each block
stores its first point longhand - the head - plus one self-delimiting
record per following point: signed-gamma height delta, then per axis
the code of (prev ^ cur) >> max(h - gamma, 0), Exp-Golomb of order gamma
in format version 2 and gamma in version 1.  Lossless blocks fix every
height at zero, omit the height delta and gamma-code the deltas in both
versions.  An ordered list of head keys serves as the search index;
finding a key costs one bisection plus the decode of the block's records
up to that key.  Reads keep a decoded run of the last few blocks they
touched - coordinates, heights and Morton keys in parallel lists - and
extend it only as far as they need.  A run starts at the block's head or
at its resume point: the decoder state at the first record boundary past
half the payload, which the first read to decode that far from the head
leaves on the block, in memory only.  A search for a key above the
resume key starts there, so it decodes from the nearer of the two.

Persistent format (all integers little-endian):

    magic   4 bytes  b"PQC1"
    version u8       2 for every new store; 1 still loads
    d       u8
    w       u8
    gamma   u8
    mode    u8       0 lossless, 1 lossy
    n       u64      total point count
    blocks  u32      block count
    per block:
      head coords  d x u32 (low w bits significant)
      head height  u8
      payload bits u32
      payload      ceil(bits / 8) bytes, MSB-first, zero padded

Payload records are self-delimiting, so per-block point counts are not
stored; decoding runs until the payload bit length is exhausted.  A store
keeps the version it was loaded with through inserts and saves.
"""

from __future__ import annotations

import bisect
import operator
import struct
from collections import OrderedDict
from dataclasses import dataclass
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
VERSION = 2  # written for every new store
VERSIONS = (1, 2)  # loadable
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
        self._set_version(VERSION)  # from_bytes sets the version of the file
        self.counters = Counters()
        self._blocks: list[Block] = []
        self._head_keys: list[int] = []
        self._offsets: list[int] = []  # starting rank of each block
        self._n = 0
        self._allow_duplicates = False
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
        defective point as a point-by-point check would.  Blocks are filled
        to 2w points so insertions start with headroom; an undersized tail
        is balanced with its left neighbour to keep every block of a
        multi-block store >= w points.
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
        target = 2 * cfg.w
        bounds = list(range(0, n, target))
        sizes = [min(target, n - b) for b in bounds]
        if len(sizes) > 1 and sizes[-1] < cfg.w:
            # Rebalance the last two chunks; their total is in (2w, 3w).
            total = sizes[-2] + sizes[-1]
            sizes[-2] = total - total // 2
            sizes[-1] = total // 2
        pos = 0
        for size in sizes:
            end = pos + size
            block = store._encode_block(coords[pos:end], heights[pos:end])
            store._append_block(block, keys[pos])
            pos = end
        return store

    def _set_version(self, version: int):
        self.version = version
        self._records = codec.records(version, self.mode == LOSSY)

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
            self._records,
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

    def _decode(self, index: int, reader, prev: Point, prev_h: int, end_bit: int):
        """Records of block ``index`` from ``reader``'s cursor, which sits
        after the point ``prev`` of height ``prev_h``, through the first
        record boundary at or after ``end_bit``: (coords, heights).
        Raises CorruptPayloadError with the block id and bit offset on any
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
                self._records,
            )
        except (TruncatedStreamError, CorruptPayloadError) as exc:
            raise CorruptPayloadError(
                str(exc), block_index=index, bit_offset=reader.tell()
            ) from exc

    def decode_block(self, index: int) -> list[HeightedPoint]:
        """Exact inverse of the block encoding; heights prefix-sum from the
        head.  Raises CorruptPayloadError with the block id and bit offset
        on any malformed payload."""
        block = self._blocks[index]
        self.counters.blocks_decoded += 1
        head = block.head
        reader = BitReader(block.payload, block.bit_len)
        coords, heights = self._decode(
            index, reader, head.coords, head.height, block.bit_len
        )
        out = [head]
        out.extend(map(HeightedPoint, coords, heights))
        return out

    def decode_all(self) -> list[HeightedPoint]:
        out = []
        for i in range(len(self._blocks)):
            out.extend(self.decode_block(i))
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
        # Search from the last block whose head is below ``key``: a run of
        # copies of ``key`` may start at the end of that block.  For a key
        # equal to the next head that read starts at the resume point.
        b = bisect.bisect_left(self._head_keys, key) - 1
        if b < 0:
            return 0
        block = self._blocks[b]
        entry = self._cache.get(b)
        if entry is None:
            # Only a key strictly above the resume key starts there: copies
            # of one key may straddle the resume point.
            at = block.resume
            if at is None or key <= at.key:
                at = self._head_state(b)
            entry = self._miss(b, at)
        else:
            self._cache.move_to_end(b)
            if entry.start and key <= entry.keys[0]:
                self._splice(b, entry)
        keys = entry.keys
        # Keys past the run are no smaller than its last one, so once that
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
        if not self._allow_duplicates and pos > 0 and keys[pos - 1] == key:
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
        stream.  File framing is excluded; see file_bits()."""
        return sum(self._head_bits() + blk.bit_len for blk in self._blocks)

    def bit_budget(self) -> dict:
        """payload_bits() by component: ``head_bits`` of the longhand
        heads, ``height_bits`` of the records' signed-gamma height deltas
        (none in lossless mode) and ``coord_bits`` of their coordinate
        codes.  Lossy stores decode every block to count the height codes."""
        height_bits = 0
        if self.mode == LOSSY:
            for b, blk in enumerate(self._blocks):
                head = blk.head
                reader = BitReader(blk.payload, blk.bit_len)
                _, hs = self._decode(b, reader, head.coords, head.height, blk.bit_len)
                for dh in map(operator.sub, hs, [head.height] + hs):
                    height_bits += codec.signed_gamma_bits(dh)
        record_bits = sum(blk.bit_len for blk in self._blocks)
        return {
            "head_bits": len(self._blocks) * self._head_bits(),
            "height_bits": height_bits,
            "coord_bits": record_bits - height_bits,
        }

    def file_bits(self) -> int:
        """Exact size of the serialization, in bits."""
        per_block = 4 * self.cfg.d + 1 + 4
        total = 21 + sum(
            per_block + (blk.bit_len + 7) // 8 for blk in self._blocks
        )
        return 8 * total

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
            "version": self.version,
            "blocks": len(self._blocks),
            "payload_bits": payload,
            "file_bits": fbits,
            "bpv_payload": payload / n if n else 0.0,
            "bpv_file": fbits / n if n else 0.0,
            "block_histogram": dict(sorted(hist.items())),
        }

    # -- persistence ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        cfg = self.cfg
        out = bytearray()
        out += MAGIC
        out += struct.pack(
            "<BBBBBQL",
            self.version,
            cfg.d,
            cfg.w,
            cfg.gamma,
            _MODE_CODE[self.mode],
            self._n,
            len(self._blocks),
        )
        for blk in self._blocks:
            for c in blk.head.coords:
                out += struct.pack("<L", c)
            out += struct.pack("<BL", blk.head.height, blk.bit_len)
            out += blk.payload[: (blk.bit_len + 7) // 8]
        return bytes(out)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes, rho=None) -> "CompressedStore":
        if data[:4] != MAGIC:
            raise FormatError("bad magic; not a PQC1 file")
        try:
            version, d, w, gamma, mode_code, n, nblocks = struct.unpack_from(
                "<BBBBBQL", data, 4
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
        store._set_version(version)
        pos = 21  # 4 magic bytes + 17 header bytes
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
            store._blocks.append(Block(head, 0, payload, bit_len))
        if pos != len(data):
            raise FormatError(f"{len(data) - pos} trailing bytes")
        # Counts are not in the file; one validating decode derives them.
        prev_key = -1
        for b, blk in enumerate(store._blocks):
            head = blk.head
            reader = BitReader(blk.payload, blk.bit_len)
            coords, _ = store._decode(b, reader, head.coords, head.height, blk.bit_len)
            keys = interleave_all([head.coords] + coords, cfg)
            if keys[0] <= prev_key or any(map(operator.ge, keys, keys[1:])):
                raise FormatError(f"block {b}: points out of Morton order")
            prev_key = keys[-1]
            store._head_keys.append(keys[0])
            store._offsets.append(store._n)
            blk.count = len(keys)
            store._n += blk.count
        if store._n != n:
            raise FormatError(f"header says n={n}, blocks decode to {store._n}")
        return store

    @classmethod
    def load(cls, path, rho=None) -> "CompressedStore":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), rho=rho)
