"""Pure-Python bit streams and record codes: the specification of the
compiled kernel ``_bits_ext``.

``BitWriter`` and ``BitReader`` are the only bit-stream classes in the
package.  ``encode_records`` and ``decode_records`` code the records
that every save writes, those of format versions 2 and 3: Exp-Golomb
deltas for lossy stores and gamma deltas for lossless ones.  They have
compiled twins of the same names in ``_bits_ext``, which work on this
module's streams, must produce bit-identical streams and hand every
malformed stream back to this module for its exact error.
``decode_gamma_records`` reads gamma records; with ``lossy`` it reads
the lossy records of format version 1, which the load of a version-1
file calls it for directly, and it has no compiled twin.  No function
here takes a format version: each caller picks the function of the
records it reads.  The decoders stop at the first record boundary at or
after ``end_bit``, or after ``count`` records when a count is given: a
version-3 file stores no block lengths, so its loader finds each block's
end by decoding the block's count.  ``pqc.codec`` picks one of the two
kernels at import time; everything else in the package goes through that
selection.  The bit-serial readers and writers of single codes live with
the oracles, in ``pqc.reference``.

Stream layout: bits are packed MSB-first within bytes.  A gamma code for a
value v is the single bit ``1`` when v == 0, and otherwise b zero bits
followed by the b bits of v (b = bit length of v, so the leading ``1`` of v
terminates the zero run).  A signed gamma code appends one sign bit
(0 nonnegative, 1 negative) when v != 0.  The Exp-Golomb code of order k
of v writes u = v + 2**k as bit_length(u) - 1 - k zero bits followed by the
bits of u, for 2 * bit_length(u) - 1 - k bits in all.

Each of these codes is one field: an int whose bits, leading zeros
included, are the code.  The encoder shifts the fields of up to
``_RECORDS_PER_APPEND`` records into one int, which starts as a 1 bit so
that its bit length less one counts the fields' bits, and appends the int
below that 1 with one :meth:`BitWriter.write_bits`, which writes a field
of any width with one ``int.to_bytes``.  The compiled encoder writes the
same bits through the writer's ``_buf`` and ``_nbits`` slots (see
:class:`BitWriter`).
"""

from .errors import CorruptPayloadError, TruncatedStreamError

BACKEND = "python"

# The records an encoder shifts into one int before it appends the int to
# the writer.  Each shift costs time in the int's length, so one int per
# call would make a call quadratic in its records; a bounded count keeps
# it linear, and at 32 a block of build's cut at w = 16 is one append.
_RECORDS_PER_APPEND = 32


class BitWriter:
    """Append-only MSB-first bit buffer.

    ``_buf`` holds exactly ceil(``_nbits`` / 8) bytes, and its bits past
    ``_nbits`` are zero.  The compiled kernel writes these two slots
    directly: it grows ``_buf`` and ORs its codes into those zero bits, so
    every writer of a stream keeps both invariants.
    """

    __slots__ = ("_buf", "_nbits")

    def __init__(self):
        self._buf = bytearray()
        self._nbits = 0

    @property
    def bit_length(self):
        return self._nbits

    def write_bits(self, value, nbits):
        """Append the low ``nbits`` bits of ``value``, most significant
        first, for any ``nbits``: the partial last byte comes off the
        buffer and leads the field, and the two go back on in one
        ``int.to_bytes``, zero-padded to a byte."""
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        buf = self._buf
        pos = self._nbits
        used = pos & 7
        width = used + nbits
        if used:
            value |= buf.pop() >> (8 - used) << nbits
        pad = -width & 7
        buf += (value << pad).to_bytes((width + pad) >> 3, "big")
        self._nbits = pos + nbits

    def getvalue(self):
        """Return the stream as bytes, zero-padded to a byte boundary."""
        return bytes(self._buf)


def _need(nbits, pos, total):
    # The message of a read past the end of the stream, for the decoders
    # here and the bit-serial readers of ``pqc.reference`` alike.
    return f"need {nbits} bits at offset {pos} of {total}"


class BitReader:
    """MSB-first bit cursor over a bytes object."""

    __slots__ = ("_buf", "_nbits", "_pos")

    def __init__(self, data, bit_length=None):
        if bit_length is None:
            bit_length = 8 * len(data)
        elif bit_length < 0 or bit_length > 8 * len(data):
            raise ValueError("bit_length exceeds the supplied buffer")
        self._buf = data
        self._nbits = bit_length
        self._pos = 0

    @property
    def bit_length(self):
        return self._nbits

    def tell(self):
        return self._pos

    def seek(self, pos):
        """Move the cursor to bit ``pos``, which must be a record boundary
        for the record decoders to read on from it."""
        if not 0 <= pos <= self._nbits:
            raise ValueError(f"bit offset {pos} outside [0, {self._nbits}]")
        self._pos = pos


def encode_records(writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy):
    """Append one record of format versions 2 and 3 per point to
    ``writer``; returns bits written.

    A lossy record is signed-gamma(h_i - h_{i-1}), then per axis the
    Exp-Golomb code of order ``gamma`` of (prev ^ cur) >> shift, with
    shift = max(h_i - gamma, 0): at most 2w + 1 - gamma bits per axis.  A
    lossless record is per axis the gamma code of prev ^ cur.
    """
    bits = 0
    one = 1 << gamma
    k = gamma + 1
    for start in range(0, len(coords_seq), _RECORDS_PER_APPEND):
        stop = start + _RECORDS_PER_APPEND
        acc = 1
        if lossy:
            for cur, h in zip(coords_seq[start:stop], heights_seq[start:stop]):
                # Signed gamma of the height delta: b zeros, the b bits of
                # its magnitude and the sign, in one field; "1" for zero.
                dh = h - prev_h
                if dh:
                    m = dh if dh > 0 else -dh
                    acc = acc << 2 * m.bit_length() + 1 | m << 1 | (dh < 0)
                else:
                    acc = acc << 1 | 1
                shift = h - gamma if h > gamma else 0
                prev_h = h
                for p, c in zip(prev, cur):
                    # Exp-Golomb of order gamma: the zeros and the bits of u.
                    u = ((p ^ c) >> shift) + one
                    acc = acc << 2 * u.bit_length() - k | u
                prev = cur
        else:
            for cur in coords_seq[start:stop]:
                for p, c in zip(prev, cur):
                    # Gamma: b zeros then the b bits of x; "1" for zero.
                    x = p ^ c
                    acc = acc << 2 * x.bit_length() | x if x else acc << 1 | 1
                prev = cur
        n = acc.bit_length() - 1
        writer.write_bits(acc ^ 1 << n, n)
        bits += n
    return bits


def _bit_string(reader, top):
    """(bits, base): bits[i] is stream bit base + i, for every bit from the
    byte of the cursor up to bit ``top``."""
    first = reader._pos >> 3
    nbytes = (top + 7) >> 3
    base = first << 3
    value = int.from_bytes(reader._buf[first:nbytes], "big") >> (8 * nbytes - top)
    # The sentinel 1 above the top bit keeps leading zeros in bin()'s output.
    return bin(value | (1 << (top - base)))[3:], base


def decode_records(reader, prev, prev_h, d, w, gamma, lossy, end_bit, count=None):
    """Decode records of format versions 2 and 3 until the cursor reaches
    ``end_bit``, or until ``count`` records are decoded when ``count`` is
    not None.

    Returns (coords_list, heights_list).  Heights are all zero in lossless
    mode.  Raises CorruptPayloadError / TruncatedStreamError on bad input,
    with the same messages and the same final ``reader.tell()`` as reading
    each record one code at a time (``reference.bitwise_decode_records``).

    The bits from the cursor to ``top``, the end of the longest record
    that can start before ``end_bit`` (and of the ``count``-th record at
    the longest), become one '0'/'1' string; each code is one
    ``str.find`` for the end of its zero run and one ``int(..., 2)`` for
    its value.  A record that runs past ``top`` is truncated or corrupt,
    and its exact error needs every bit: then the decode runs again over
    the whole stream.  The cursor is written back on return and on every
    raise.
    """
    if not lossy:
        return decode_gamma_records(
            reader, prev, prev_h, d, w, gamma, lossy, end_bit, count
        )
    pos = reader._pos
    # A height delta of at most w, and per axis a delta below 2**w.
    longest = 2 * w.bit_length() + 1 + d * (2 * w + 1 - gamma)
    # The end of the last record the decode can read: one longest record
    # past end_bit, and no further than ``count`` of them.
    top = (end_bit if end_bit > pos else pos) + longest
    if count is None:
        count = reader._nbits - pos + 1  # more records than the stream holds
    elif pos + count * longest < top:
        top = pos + count * longest if count > 0 else pos
    if top < reader._nbits:
        try:
            return _exp_golomb_loop(
                reader, top, prev, prev_h, d, w, gamma, end_bit, count
            )
        except TruncatedStreamError:
            reader._pos = pos
    top = reader._nbits
    return _exp_golomb_loop(reader, top, prev, prev_h, d, w, gamma, end_bit, count)


def decode_gamma_records(reader, prev, prev_h, d, w, gamma, lossy, end_bit, count=None):
    """Decode records whose every delta is a gamma code: the lossless
    records of every format version, and with ``lossy`` the lossy records
    of version 1, which only the load of a version-1 file reads.  The
    contract of :func:`decode_records`; no compiled twin."""
    pos = reader._pos
    longest = 2 * w * d + (2 * w.bit_length() + 1 if lossy else 0)
    top = (end_bit if end_bit > pos else pos) + longest
    if count is None:
        count = reader._nbits - pos + 1
    elif pos + count * longest < top:
        top = pos + count * longest if count > 0 else pos
    if top < reader._nbits:
        try:
            return _gamma_loop(
                reader, top, prev, prev_h, d, w, gamma, lossy, end_bit, count
            )
        except TruncatedStreamError:
            reader._pos = pos
    top = reader._nbits
    return _gamma_loop(reader, top, prev, prev_h, d, w, gamma, lossy, end_bit, count)


def _gamma_loop(reader, top, prev, prev_h, d, w, gamma, lossy, end_bit, count):
    # The decode of decode_gamma_records over the stream's bits below
    # ``top``, for at most ``count`` records.
    prev = list(prev)
    coords_out = []
    heights_out = []
    nbits = reader._nbits
    bits, base = _bit_string(reader, top)
    find = bits.find
    limit = top - base
    p = reader._pos - base
    stop = end_bit - base
    shift = 0
    h = 0
    try:
        while p < stop and count > 0:
            count -= 1
            if lossy:
                # Signed gamma of the height delta; "1" is a zero delta.
                j = find("1", p)
                if j < 0:
                    p = limit
                    raise TruncatedStreamError(_need(1, nbits, nbits))
                z = j - p
                if z:
                    p = j + z
                    if p > limit:
                        p = j + 1
                        raise TruncatedStreamError(_need(z - 1, base + p, nbits))
                    if p == limit:
                        raise TruncatedStreamError(_need(1, nbits, nbits))
                    if bits[p] == "1":
                        h = prev_h - int(bits[j:p], 2)
                    else:
                        h = prev_h + int(bits[j:p], 2)
                    p += 1
                else:
                    p = j + 1
                    h = prev_h
                if h < 0 or h > w:
                    raise CorruptPayloadError(f"decoded height {h} outside [0, {w}]")
                shift = h - gamma if h > gamma else 0
                prev_h = h
            for a in range(d):
                j = find("1", p)
                if j < 0:
                    p = limit
                    raise TruncatedStreamError(_need(1, nbits, nbits))
                z = j - p
                if z:
                    p = j + z
                    if p > limit:
                        p = j + 1
                        raise TruncatedStreamError(_need(z - 1, base + p, nbits))
                    delta = int(bits[j:p], 2)
                    if delta >> (w - shift):
                        raise CorruptPayloadError(
                            f"decoded coordinate delta {delta} overflows width {w}"
                        )
                    prev[a] = ((prev[a] >> shift) ^ delta) << shift
                else:
                    p = j + 1
                    if shift:
                        prev[a] = (prev[a] >> shift) << shift
            coords_out.append(tuple(prev))
            heights_out.append(h)
    finally:
        reader._pos = base + p
    return coords_out, heights_out


def _exp_golomb_loop(reader, top, prev, prev_h, d, w, gamma, end_bit, count):
    # The decode of lossy decode_records over the stream's bits below
    # ``top``, for at most ``count`` records.
    prev = list(prev)
    coords_out = []
    heights_out = []
    nbits = reader._nbits
    bits, base = _bit_string(reader, top)
    find = bits.find
    limit = top - base
    p = reader._pos - base
    stop = end_bit - base
    one = 1 << gamma
    tail = gamma + 1
    axes = range(d)
    try:
        while p < stop and count > 0:
            count -= 1
            # Signed gamma of the height delta; "1" is a zero delta.
            j = find("1", p)
            if j < 0:
                p = limit
                raise TruncatedStreamError(_need(1, nbits, nbits))
            z = j - p
            if z:
                p = j + z
                if p > limit:
                    p = j + 1
                    raise TruncatedStreamError(_need(z - 1, base + p, nbits))
                if p == limit:
                    raise TruncatedStreamError(_need(1, nbits, nbits))
                if bits[p] == "1":
                    h = prev_h - int(bits[j:p], 2)
                else:
                    h = prev_h + int(bits[j:p], 2)
                p += 1
            else:
                p = j + 1
                h = prev_h
            if h < 0 or h > w:
                raise CorruptPayloadError(f"decoded height {h} outside [0, {w}]")
            shift = h - gamma if h > gamma else 0
            room = w - shift
            prev_h = h
            for a in axes:
                # z zeros, then the z + gamma + 1 bits of delta + 2**gamma.
                j = find("1", p)
                if j < 0:
                    p = limit
                    raise TruncatedStreamError(_need(1, nbits, nbits))
                q = 2 * j - p + tail
                if q > limit:
                    p = j + 1
                    raise TruncatedStreamError(_need(q - p, base + p, nbits))
                p = q
                delta = int(bits[j:q], 2) - one
                if delta >> room:
                    raise CorruptPayloadError(
                        f"decoded coordinate delta {delta} overflows width {w}"
                    )
                prev[a] = ((prev[a] >> shift) ^ delta) << shift
            coords_out.append(tuple(prev))
            heights_out.append(h)
    finally:
        reader._pos = base + p
    return coords_out, heights_out
