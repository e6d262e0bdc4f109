"""Variable-length integer codes over MSB-first bit streams.

This is the persistent payload format:

* gamma(v): v == 0 encodes as the single bit ``1``; otherwise b zero bits
  followed by the b bits of v, where b is the bit length of v, for 2b bits
  total.  The leading 1 of v terminates the zero run, so the code is
  prefix-free.
* signed gamma: gamma(|v|) followed by one sign bit (0 nonnegative,
  1 negative) when v != 0; zero stays a single bit.
* xor code of a point against its predecessor: per axis, in axis order,
  gamma((prev ^ cur) >> shift).  Lossless streams use shift 0; lossy
  streams derive the shift from the point's quadtree leaf height.

Streams pack MSB-first within bytes and are zero-padded to a byte boundary
only at block ends.  The heavy encode/decode loops live in a compiled
kernel when available (see ``pqc._backend``); this module is the stable
surface over whichever kernel got selected.
"""

from __future__ import annotations

from typing import Sequence

from ._backend import BACKEND as KERNEL_BACKEND
from ._backend import impl as _impl
from .morton import Config, Point

BitWriter = _impl.BitWriter
BitReader = _impl.BitReader
encode_records = _impl.encode_records
decode_records = _impl.decode_records


def gamma_encode(value: int, out, width: int = None) -> int:
    """Append gamma(value) to ``out``; returns the number of bits written.

    ``width`` optionally enforces value < 2**width with OverflowError.
    """
    if width is not None and value >= (1 << width):
        raise OverflowError(f"{value} does not fit in {width} bits")
    return out.write_gamma(value)


def xor_code_point(prev: Point, cur: Point, shift: int, out) -> int:
    """Append the per-axis gamma codes of (prev ^ cur) >> shift."""
    bits = 0
    for a in range(len(prev)):
        bits += out.write_gamma((prev[a] ^ cur[a]) >> shift)
    return bits


def bits_to_string(data: bytes, nbits: int) -> str:
    """The first ``nbits`` bits of ``data`` as a '01' string."""
    out = []
    for i in range(nbits):
        out.append("1" if data[i >> 3] & (0x80 >> (i & 7)) else "0")
    return "".join(out)


def gamma_bitstring(value: int) -> str:
    w = BitWriter()
    n = w.write_gamma(value)
    return bits_to_string(w.getvalue(), n)


def xor_code_strings(points: Sequence[Point], cfg: Config) -> list[str]:
    """Per-point payload bit strings for a lossless stream, axes separated
    by commas.  The first point appears longhand at w bits per axis; each
    later point shows its per-axis gamma codes.  Useful for golden tests
    and for eyeballing encodings.
    """
    out = []
    prev = None
    for p in points:
        if prev is None:
            out.append(",".join(format(c, f"0{cfg.w}b") for c in p))
        else:
            out.append(",".join(gamma_bitstring(prev[a] ^ p[a]) for a in range(cfg.d)))
        prev = p
    return out
