"""Compressed block store of Morton-ordered heighted points.

Layout: the sorted sequence is split into blocks of between w and 2w
points (a lone undersized block is allowed for tiny stores).  Each block
stores its first point longhand - the head - plus one self-delimiting
record per following point: signed-gamma height delta, then per axis
gamma((prev ^ cur) >> max(h - gamma, 0)).  Lossless blocks fix every
height at zero and omit the height delta.  An ordered list of head keys
serves as the search index; finding a key costs one bisection plus the
decode of the block's records up to that key.  Reads keep the decoded
prefix of the last few blocks they touched - coordinates, heights and
Morton keys in parallel lists - and extend it only as far as they need.

Persistent format "PQC1" (all integers little-endian):

    magic   4 bytes  b"PQC1"
    version u8       1
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
stored; decoding runs until the payload bit length is exhausted.
"""

from __future__ import annotations

import bisect
import operator
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import codec
from .errors import (
    CorruptPayloadError,
    DomainError,
    DuplicatePointError,
    FormatError,
    PqcError,
    TruncatedStreamError,
    UnsortedInputError,
)
from .geom import HeightedPoint
from .morton import Config, Point, interleave, interleave_all, validate_point
from .qtree import Counters, PointSource

MAGIC = b"PQC1"
VERSION = 1
LOSSLESS = "lossless"
LOSSY = "lossy"
_MODE_CODE = {LOSSLESS: 0, LOSSY: 1}
_MODE_NAME = {0: LOSSLESS, 1: LOSSY}
_CACHE_BLOCKS = 8  # decoded block prefixes kept by each store, least recently used out
# A read that stops mid-block extends its prefix by a quarter of the
# block's payload per kernel call.  A call costs about as much as decoding
# two records, and a search stops halfway into a block of w..2w records on
# average, so quarters come near the fewest calls plus records decoded
# past the target: 2-3 calls and 1/8 of a block.
_CHUNKS_PER_BLOCK = 4


@dataclass
class Block:
    head: HeightedPoint
    count: int
    payload: bytes
    bit_len: int


def _encode_block(
    coords: Sequence[Point], heights: Sequence[int], cfg: Config, lossy: bool
) -> Block:
    writer = codec.BitWriter()
    codec.encode_records(
        writer, coords[0], heights[0], coords[1:], heights[1:], cfg.gamma, lossy
    )
    head = HeightedPoint(coords[0], heights[0])
    return Block(head, len(coords), writer.getvalue(), writer.bit_length)


class _Prefix:
    """The decoded prefix of one block: parallel lists of coordinates,
    heights and Morton keys, head first, and the reader of the block's
    payload, parked at the end of the last decoded record."""

    __slots__ = ("coords", "heights", "keys", "reader")

    def __init__(self, block: Block, head_key: int):
        self.coords = [block.head.coords]
        self.heights = [block.head.height]
        self.keys = [head_key]
        self.reader = codec.BitReader(block.payload, block.bit_len)


class CompressedStore(PointSource):
    """PointSource over gamma-coded blocks; supports dynamic insertion.

    Reads go through a small LRU of decoded block prefixes, each holding
    the block's points, heights and Morton keys as far as reads have
    needed them; a read that needs more resumes the decode where the
    prefix ends.  A store is not safe to share between threads without a
    lock.
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
        self._allow_duplicates = False
        # block index -> decoded prefix of that block; cleared on write
        self._cache: OrderedDict[int, _Prefix] = OrderedDict()

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
        not reproduce it.  Blocks are filled to 2w points so insertions
        start with headroom; an undersized tail is balanced with its left
        neighbour to keep every block of a multi-block store >= w points.
        """
        store = cls(cfg, mode)
        lossy = mode == LOSSY
        n = len(points)
        coords = []
        heights = []
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
            coords.append(p)
            heights.append(hp.height)
        keys = interleave_all(coords, cfg)
        for i in range(1, n):
            if keys[i] <= keys[i - 1]:
                if keys[i] == keys[i - 1]:
                    raise DuplicatePointError(f"duplicate point {coords[i]}")
                raise UnsortedInputError("points not in Morton order")
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
            block = _encode_block(coords[pos:end], heights[pos:end], cfg, lossy)
            store._append_block(block, keys[pos])
            pos = end
        return store

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
                reader, prev, prev_h, cfg.d, cfg.w, cfg.gamma, lossy, end_bit
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
        reader = codec.BitReader(block.payload, block.bit_len)
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

    def _prefix(self, b: int, i: int = 0) -> _Prefix:
        """Decoded prefix of block ``b``, extended past index ``i``, from
        the LRU of the last _CACHE_BLOCKS blocks read; a block missing
        there starts as its head alone, from the index.  Callers must not
        mutate its lists."""
        entry = self._cache.get(b)
        if entry is None:
            self.counters.blocks_decoded += 1
            entry = _Prefix(self._blocks[b], self._head_keys[b])
            self._cache[b] = entry
            if len(self._cache) > _CACHE_BLOCKS:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(b)
        if i and i >= len(entry.keys):
            whole = i + 1 >= self._blocks[b].count
            while len(entry.keys) <= i:
                self._extend(b, entry, whole)
        return entry

    def _extend(self, b: int, entry: _Prefix, whole: bool):
        """Decode the next chunk of block ``b``'s payload, or with ``whole``
        all the rest, onto ``entry``, the block's prefix."""
        reader = entry.reader
        end_bit = reader.bit_length
        if not whole:
            end_bit = min(reader.tell() + end_bit // _CHUNKS_PER_BLOCK + 1, end_bit)
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
        entry.keys += interleave_all(coords, self.cfg)

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
        entry = self._prefix(b, i)
        return HeightedPoint(entry.coords[i], entry.heights[i])

    def point_at(self, rank: int) -> Point:
        b, i = self._locate(rank)
        return self._prefix(b, i).coords[i]

    def height_at(self, rank: int) -> int:
        b, i = self._locate(rank)
        return self._prefix(b, i).heights[i]

    def key_at(self, rank: int) -> int:
        b, i = self._locate(rank)
        # A head's key is in the index, so reading it decodes nothing.
        return self._prefix(b, i).keys[i] if i else self._head_keys[b]

    def successor_rank(self, key: int) -> int:
        b = bisect.bisect_right(self._head_keys, key) - 1
        if b < 0:
            return 0
        entry = self._prefix(b)
        keys = entry.keys
        # Keys past the prefix are no smaller than its last one, so once
        # that reaches ``key`` the answer lies in the prefix.
        while keys[-1] < key and len(keys) < self._blocks[b].count:
            self._extend(b, entry, False)
        return self._offsets[b] + bisect.bisect_left(keys, key)

    def iter_range(self, lo: int, hi: int) -> Iterator[Point]:
        if lo >= hi:
            return
        b = self._locate(lo)[0]
        rank = lo
        while rank < hi:
            start = self._offsets[b]
            stop = min(hi - start, self._blocks[b].count)
            yield from self._prefix(b, stop - 1).coords[rank - start : stop]
            rank = start + stop
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
            self._append_block(_encode_block([p], [height], cfg, lossy), key)
            return
        b = max(bisect.bisect_right(self._head_keys, key) - 1, 0)
        entry = self._prefix(b, self._blocks[b].count - 1)
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
        lossy = self.mode == LOSSY
        n = len(coords)
        delta = n - self._blocks[b].count
        if n > 2 * cfg.w:
            half = n // 2
            self._blocks[b] = _encode_block(coords[:half], heights[:half], cfg, lossy)
            self._head_keys[b] = interleave(coords[0], cfg)
            right = _encode_block(coords[half:], heights[half:], cfg, lossy)
            self._blocks.insert(b + 1, right)
            self._head_keys.insert(b + 1, interleave(coords[half], cfg))
            self._offsets.insert(b + 1, 0)
        else:
            self._blocks[b] = _encode_block(coords, heights, cfg, lossy)
            self._head_keys[b] = interleave(coords[0], cfg)
        self._n += delta
        run = self._offsets[b]
        for i in range(b, len(self._blocks)):
            self._offsets[i] = run
            run += self._blocks[i].count

    # -- accounting ---------------------------------------------------------

    def payload_bits(self) -> int:
        """Structural cost in bits: per block, the longhand head (d*w bits,
        plus ceil(log2(w + 1)) height bits in lossy mode) and the record
        stream.  File framing is excluded; see file_bits()."""
        cfg = self.cfg
        head_bits = cfg.d * cfg.w
        if self.mode == LOSSY:
            head_bits += (cfg.w + 1 - 1).bit_length()
        return sum(head_bits + blk.bit_len for blk in self._blocks)

    def file_bits(self) -> int:
        """Exact size of the PQC1 serialization, in bits."""
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
            VERSION,
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
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        if mode_code not in _MODE_NAME:
            raise FormatError(f"unknown mode byte {mode_code}")
        try:
            kwargs = {"rho": rho} if rho is not None else {}
            cfg = Config(d=d, w=w, gamma=gamma, **kwargs)
        except DomainError as exc:
            raise FormatError(f"invalid header fields: {exc}") from exc
        store = cls(cfg, _MODE_NAME[mode_code])
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
            reader = codec.BitReader(blk.payload, blk.bit_len)
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
