"""Compressed block store of Morton-ordered heighted points.

Layout: the sorted sequence is split into blocks of between w and 2w
points (a lone undersized block is allowed for tiny stores).  Each block
stores its first point longhand - the head - plus one self-delimiting
record per following point: signed-gamma height delta, then per axis
gamma((prev ^ cur) >> max(h - gamma, 0)).  Lossless blocks fix every
height at zero and omit the height delta.  An ordered list of head keys
serves as the search index; finding a key costs one bisection plus one
block decode.

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
from .morton import Config, Point, interleave, validate_point
from .qtree import Counters, PointSource

MAGIC = b"PQC1"
VERSION = 1
LOSSLESS = "lossless"
LOSSY = "lossy"
_MODE_CODE = {LOSSLESS: 0, LOSSY: 1}
_MODE_NAME = {0: LOSSLESS, 1: LOSSY}
_CACHE_BLOCKS = 8  # decoded blocks kept by each store, least recently used out


@dataclass
class Block:
    head: HeightedPoint
    count: int
    payload: bytes
    bit_len: int


def _encode_block(points: Sequence[HeightedPoint], cfg: Config, lossy: bool) -> Block:
    head = points[0]
    writer = codec.BitWriter()
    codec.encode_records(
        writer,
        head.coords,
        head.height,
        [hp.coords for hp in points[1:]],
        [hp.height for hp in points[1:]],
        cfg.gamma,
        lossy,
    )
    return Block(head, len(points), writer.getvalue(), writer.bit_length)


class CompressedStore(PointSource):
    """PointSource over gamma-coded blocks; supports dynamic insertion.

    Reads go through a small LRU of decoded blocks with their Morton keys,
    so a store is not safe to share between threads without a lock.
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
        # block index -> (decoded points, their Morton keys); cleared on write
        self._cache: OrderedDict[int, tuple] = OrderedDict()

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
        prev_key = -1
        for hp in points:
            validate_point(hp.coords, cfg)
            if not 0 <= hp.height <= cfg.w:
                raise DomainError(f"height {hp.height} outside [0, {cfg.w}]")
            if lossy:
                shift = max(hp.height - cfg.gamma, 0)
                if any(c & ((1 << shift) - 1) for c in hp.coords):
                    raise DomainError(
                        f"{hp.coords} is not rounded for height {hp.height}"
                    )
            elif hp.height != 0:
                raise DomainError("lossless mode requires all heights zero")
            key = interleave(hp.coords, cfg)
            if key == prev_key:
                raise DuplicatePointError(f"duplicate point {hp.coords}")
            if key < prev_key:
                raise UnsortedInputError("points not in Morton order")
            prev_key = key
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
            chunk = points[pos : pos + size]
            pos += size
            store._append_block(_encode_block(chunk, cfg, lossy))
        return store

    def _append_block(self, block: Block):
        self._cache.clear()
        self._offsets.append(self._n)
        self._blocks.append(block)
        self._head_keys.append(interleave(block.head.coords, self.cfg))
        self._n += block.count

    # -- decoding ---------------------------------------------------------

    def decode_block(self, index: int) -> list[HeightedPoint]:
        """Exact inverse of the block encoding; heights prefix-sum from the
        head.  Raises CorruptPayloadError with the block id and bit offset
        on any malformed payload."""
        block = self._blocks[index]
        self.counters.blocks_decoded += 1
        reader = codec.BitReader(block.payload, block.bit_len)
        head = block.head
        try:
            coords, heights = codec.decode_records(
                reader,
                head.coords,
                head.height,
                self.cfg.d,
                self.cfg.w,
                self.cfg.gamma,
                self.mode == LOSSY,
                block.bit_len,
            )
        except TruncatedStreamError as exc:
            raise CorruptPayloadError(
                str(exc), block_index=index, bit_offset=reader.tell()
            ) from exc
        except CorruptPayloadError as exc:
            if exc.block_index is None:
                raise CorruptPayloadError(
                    str(exc), block_index=index, bit_offset=reader.tell()
                ) from exc
            raise
        out = [head]
        out.extend(HeightedPoint(c, h) for c, h in zip(coords, heights))
        return out

    def decode_all(self) -> list[HeightedPoint]:
        out = []
        for i in range(len(self._blocks)):
            out.extend(self.decode_block(i))
        return out

    # -- PointSource ------------------------------------------------------

    def count(self) -> int:
        return self._n

    @property
    def block_count(self) -> int:
        return self._blocks.__len__()

    @property
    def has_heights(self) -> bool:
        return self.mode == LOSSY

    def _block_of_rank(self, rank: int) -> int:
        if not 0 <= rank < self._n:
            raise IndexError(f"rank {rank} outside [0, {self._n})")
        return bisect.bisect_right(self._offsets, rank) - 1

    def _block(self, b: int) -> tuple[list[HeightedPoint], list[int]]:
        """Decoded points and Morton keys of block ``b``, from the LRU of
        the last _CACHE_BLOCKS blocks read.  Callers must not mutate them."""
        entry = self._cache.get(b)
        if entry is not None:
            self._cache.move_to_end(b)
            return entry
        pts = self.decode_block(b)
        cfg = self.cfg
        entry = (pts, [interleave(hp.coords, cfg) for hp in pts])
        self._cache[b] = entry
        if len(self._cache) > _CACHE_BLOCKS:
            self._cache.popitem(last=False)
        return entry

    def heighted_at(self, rank: int) -> HeightedPoint:
        b = self._block_of_rank(rank)
        return self._block(b)[0][rank - self._offsets[b]]

    def point_at(self, rank: int) -> Point:
        return self.heighted_at(rank).coords

    def height_at(self, rank: int) -> int:
        return self.heighted_at(rank).height

    def key_at(self, rank: int) -> int:
        b = self._block_of_rank(rank)
        i = rank - self._offsets[b]
        # A head's key is in the index, so reading it decodes nothing.
        return self._block(b)[1][i] if i else self._head_keys[b]

    def successor_rank(self, key: int) -> int:
        b = bisect.bisect_right(self._head_keys, key) - 1
        if b < 0:
            return 0
        return self._offsets[b] + bisect.bisect_left(self._block(b)[1], key)

    def iter_range(self, lo: int, hi: int) -> Iterator[Point]:
        if lo >= hi:
            return
        b = self._block_of_rank(lo)
        rank = lo
        while rank < hi:
            pts = self._block(b)[0]
            start = rank - self._offsets[b]
            stop = min(hi - self._offsets[b], len(pts))
            for hp in pts[start:stop]:
                yield hp.coords
            rank = self._offsets[b] + stop
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
        validate_point(p, cfg)
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
        hp = HeightedPoint(tuple(p), height)
        if not self._blocks:
            self._append_block(_encode_block([hp], cfg, lossy))
            return
        b = max(bisect.bisect_right(self._head_keys, key) - 1, 0)
        cached, keys = self._block(b)
        pos = bisect.bisect_right(keys, key)
        if not self._allow_duplicates and pos > 0 and keys[pos - 1] == key:
            raise DuplicatePointError(f"point {p} already stored")
        self._rewrite_block(b, cached[:pos] + [hp] + cached[pos:])

    def _rewrite_block(self, b: int, points: list[HeightedPoint]):
        self._cache.clear()  # a split shifts the indices of later blocks
        cfg = self.cfg
        lossy = self.mode == LOSSY
        limit = 2 * cfg.w
        delta = len(points) - self._blocks[b].count
        if len(points) > limit:
            left = points[: len(points) // 2]
            right = points[len(points) // 2 :]
            self._blocks[b] = _encode_block(left, cfg, lossy)
            self._head_keys[b] = interleave(left[0].coords, cfg)
            self._blocks.insert(b + 1, _encode_block(right, cfg, lossy))
            self._head_keys.insert(b + 1, interleave(right[0].coords, cfg))
            self._offsets.insert(b + 1, 0)
        else:
            self._blocks[b] = _encode_block(points, cfg, lossy)
            self._head_keys[b] = interleave(points[0].coords, cfg)
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
            store._offsets.append(store._n)
            store._blocks.append(Block(head, 0, payload, bit_len))
            store._head_keys.append(interleave(head.coords, cfg))
            store._n += 1  # provisional; fixed below from the decode
        if pos != len(data):
            raise FormatError(f"{len(data) - pos} trailing bytes")
        # Counts are not in the file; one validating decode derives them.
        store._n = 0
        store._offsets = []
        prev_key = -1
        for b in range(nblocks):
            pts = store.decode_block(b)
            store._offsets.append(store._n)
            store._blocks[b].count = len(pts)
            store._n += len(pts)
            for hp in pts:
                key = interleave(hp.coords, cfg)
                if key <= prev_key:
                    raise FormatError(f"block {b}: points out of Morton order")
                prev_key = key
        if store._n != n:
            raise FormatError(f"header says n={n}, blocks decode to {store._n}")
        store.counters.reset()
        return store

    @classmethod
    def load(cls, path, rho=None) -> "CompressedStore":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), rho=rho)
