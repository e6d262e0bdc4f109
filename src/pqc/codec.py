"""Variable-length integer codes over MSB-first bit streams.

This is the persistent payload format:

* gamma(v): v == 0 encodes as the single bit ``1``; otherwise b zero bits
  followed by the b bits of v, where b is the bit length of v, for 2b bits
  total.  The leading 1 of v terminates the zero run, so the code is
  prefix-free.
* signed gamma: gamma(|v|) followed by one sign bit (0 nonnegative,
  1 negative) when v != 0; zero stays a single bit.
* Exp-Golomb of order k, EG_k(v): u = v + 2**k written as
  bit_length(u) - 1 - k zero bits followed by the bits of u.  A value
  below 2**w costs at most 2w + 1 - k bits.
* xor code of a point against its predecessor: per axis, in axis order,
  the code of (prev ^ cur) >> shift.  Lossless streams use shift 0; lossy
  streams derive the shift from the point's quadtree leaf height.  Format
  versions 2 and 3 code lossy deltas with EG_gamma, where gamma is the
  store's rounding precision, and keep gamma for lossless deltas and for
  every height delta; format version 1 codes every delta with gamma, and
  only its loader reads those records.

Streams pack MSB-first within bytes.  Every stream is a ``_bits_py``
BitWriter or BitReader.  The record loops run in one kernel, chosen at
import: the compiled extension ``_bits_ext`` when it is built, else its
pure-Python twin ``_bits_py``; both code every record of every format
version.  Set ``PQC_BACKEND=py`` to force the pure-Python kernel, or
``PQC_BACKEND=c`` to require the compiled one (raising ImportError when it
was not built).
"""

from __future__ import annotations

import os

from . import _bits_py
from ._bits_py import BitReader, BitWriter


def _kernel():
    """The kernel module that ``PQC_BACKEND`` selects."""
    choice = os.environ.get("PQC_BACKEND", "auto")
    if choice not in ("auto", "c", "py"):
        raise ValueError(f"PQC_BACKEND must be 'auto', 'c', or 'py', not {choice!r}")
    if choice == "py":
        return _bits_py
    try:
        from . import _bits_ext
    except ImportError:
        if choice == "c":
            raise
        return _bits_py
    return _bits_ext


_impl = _kernel()
KERNEL_BACKEND = _impl.BACKEND


# The store calls the record kernel through these two functions, so
# wrapping them (as pqcbench's kernel counters do) sees every call.  Their
# arguments stay positional for those wrappers.
def encode_records(writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy) -> int:
    """Append one record per point to ``writer``, a BitWriter, in the
    records of format versions 2 and 3; returns bits written."""
    return _impl.encode_records_v2(
        writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy
    )


def decode_records(reader, prev, prev_h, d, w, gamma, lossy, end_bit, count, version=3):
    """Decode records from ``reader``, a BitReader, through the first
    record boundary at or after ``end_bit`` or through the ``count``-th
    record, whichever comes first (a count of None bounds nothing):
    (coords, heights).  ``version`` 1 reads
    the gamma-coded lossy deltas of format version 1; versions 2 and 3
    share their records."""
    decode = _impl.decode_records if version == 1 else _impl.decode_records_v2
    return decode(reader, prev, prev_h, d, w, gamma, lossy, end_bit, count)


def signed_gamma_bits(value: int) -> int:
    """The length of the signed gamma code of ``value``."""
    return 2 * abs(value).bit_length() + 1 if value else 1
