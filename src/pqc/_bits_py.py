"""Pure-Python bit streams and record codes: the specification of the
compiled kernel ``_bits_ext``.

``BitWriter`` and ``BitReader`` are the only bit-stream classes in the
package.  The record functions ``encode_records`` and ``decode_records``
(version-1 and lossless records) and ``encode_records_v2`` and
``decode_records_v2`` (version-2 records) have compiled twins of the same
names in ``_bits_ext``, which work on this module's streams, must produce
bit-identical streams and hand every malformed stream back to this module
for its exact error.  ``pqc.codec`` picks one of the two kernels at import
time; everything else in the package goes through that selection.

Stream layout: bits are packed MSB-first within bytes.  A gamma code for a
value v is the single bit ``1`` when v == 0, and otherwise b zero bits
followed by the b bits of v (b = bit length of v, so the leading ``1`` of v
terminates the zero run).  A signed gamma code appends one sign bit
(0 nonnegative, 1 negative) when v != 0.  The Exp-Golomb code of order k
of v writes u = v + 2**k as bit_length(u) - 1 - k zero bits followed by the
bits of u, for 2 * bit_length(u) - 1 - k bits in all.
"""

from .errors import CorruptPayloadError, TruncatedStreamError

BACKEND = "python"


class BitWriter:
    """Append-only MSB-first bit buffer."""

    __slots__ = ("_buf", "_nbits")

    def __init__(self):
        self._buf = bytearray()
        self._nbits = 0

    @property
    def bit_length(self):
        return self._nbits

    def write_bits(self, value, nbits):
        """Append the low ``nbits`` bits of ``value``, most significant first."""
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        buf = self._buf
        pos = self._nbits
        total = pos + nbits
        need = (total + 7) >> 3
        if len(buf) < need:
            buf.extend(b"\x00" * (need - len(buf)))
        remaining = nbits
        while remaining:
            used = pos & 7
            take = 8 - used
            if take > remaining:
                take = remaining
            chunk = (value >> (remaining - take)) & ((1 << take) - 1)
            buf[pos >> 3] |= chunk << (8 - used - take)
            pos += take
            remaining -= take
        self._nbits = total

    def write_gamma(self, value):
        """Append the gamma code of a nonnegative value; return bits written."""
        if value < 0:
            raise ValueError("gamma code is defined for nonnegative values")
        if value == 0:
            self.write_bits(1, 1)
            return 1
        b = value.bit_length()
        # b leading zeros then the b bits of value, in one field of width 2b.
        self.write_bits(value, 2 * b)
        return 2 * b

    def write_signed_gamma(self, value):
        """Append gamma(|value|) plus a sign bit when value != 0."""
        if value == 0:
            self.write_bits(1, 1)
            return 1
        n = self.write_gamma(-value if value < 0 else value)
        self.write_bits(1 if value < 0 else 0, 1)
        return n + 1

    def getvalue(self):
        """Return the stream as bytes, zero-padded to a byte boundary."""
        return bytes(self._buf)


def _need(nbits, pos, total):
    # The message of a read past the end of the stream.
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

    def read_bits(self, nbits):
        if self._pos + nbits > self._nbits:
            raise TruncatedStreamError(_need(nbits, self._pos, self._nbits))
        buf = self._buf
        pos = self._pos
        value = 0
        remaining = nbits
        while remaining:
            used = pos & 7
            take = 8 - used
            if take > remaining:
                take = remaining
            chunk = (buf[pos >> 3] >> (8 - used - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            remaining -= take
        self._pos = pos
        return value

    def read_gamma(self):
        zeros = 0
        while self.read_bits(1) == 0:
            zeros += 1
        if zeros == 0:
            return 0
        if zeros == 1:
            return 1
        return (1 << (zeros - 1)) | self.read_bits(zeros - 1)

    def read_signed_gamma(self):
        magnitude = self.read_gamma()
        if magnitude == 0:
            return 0
        return -magnitude if self.read_bits(1) else magnitude

    def read_exp_golomb(self, order):
        zeros = 0
        while self.read_bits(1) == 0:
            zeros += 1
        n = zeros + order
        return ((1 << n) | self.read_bits(n)) - (1 << order)


def encode_records(writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy):
    """Append one version-1 record per point to ``writer``; returns bits
    written.

    A record is signed-gamma(h_i - h_{i-1}) when ``lossy``, then per axis
    gamma((prev ^ cur) >> shift) with shift = max(h_i - gamma, 0).  Lossless
    records fix shift = 0 and omit the height delta.
    """
    d = len(prev)
    prev = list(prev)
    bits = 0
    shift = 0
    for i, cur in enumerate(coords_seq):
        if lossy:
            h = heights_seq[i]
            bits += writer.write_signed_gamma(h - prev_h)
            shift = h - gamma if h > gamma else 0
            prev_h = h
        for a in range(d):
            bits += writer.write_gamma((prev[a] ^ cur[a]) >> shift)
            prev[a] = cur[a]
    return bits


def encode_records_v2(writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy):
    """Append one version-2 record per point to ``writer``; returns bits
    written.

    A lossy record is signed-gamma(h_i - h_{i-1}), then per axis the
    Exp-Golomb code of order ``gamma`` of (prev ^ cur) >> shift, with
    shift = max(h_i - gamma, 0): at most 2w + 1 - gamma bits per axis.
    Lossless records are the version-1 gamma records.
    """
    if not lossy:
        return encode_records(
            writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy
        )
    d = len(prev)
    prev = list(prev)
    bits = 0
    one = 1 << gamma
    write_bits = writer.write_bits
    for cur, h in zip(coords_seq, heights_seq):
        bits += writer.write_signed_gamma(h - prev_h)
        shift = h - gamma if h > gamma else 0
        prev_h = h
        for a in range(d):
            # Exp-Golomb of order gamma: the zeros and the bits of u, in
            # one field.
            u = ((prev[a] ^ cur[a]) >> shift) + one
            n = 2 * u.bit_length() - 1 - gamma
            write_bits(u, n)
            bits += n
            prev[a] = cur[a]
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


def decode_records(reader, prev, prev_h, d, w, gamma, lossy, end_bit):
    """Decode version-1 records until the cursor reaches ``end_bit``.

    Returns (coords_list, heights_list).  Heights are all zero in lossless
    mode.  Raises CorruptPayloadError / TruncatedStreamError on bad input,
    with the same messages and the same final ``reader.tell()`` as reading
    each record through :meth:`BitReader.read_signed_gamma` and
    :meth:`BitReader.read_gamma` (``reference.bitwise_decode_records``).

    The bits from the cursor to ``top``, the end of the longest record
    that can start before ``end_bit``, become one '0'/'1' string; each
    gamma code is one ``str.find`` for the end of its zero run and one
    ``int(..., 2)`` for its value.  A record that runs past ``top`` is
    truncated or corrupt, and its exact error needs every bit: then the
    decode runs again over the whole stream.  The cursor is written back
    on return and on every raise.
    """
    pos = reader._pos
    # A height delta of at most w, and per axis a delta below 2**w.
    top = (end_bit if end_bit > pos else pos) + 2 * w * d
    if lossy:
        top += 2 * w.bit_length() + 1
    if top < reader._nbits:
        try:
            return _gamma_loop(reader, top, prev, prev_h, d, w, gamma, lossy, end_bit)
        except TruncatedStreamError:
            reader._pos = pos
    top = reader._nbits
    return _gamma_loop(reader, top, prev, prev_h, d, w, gamma, lossy, end_bit)


def decode_records_v2(reader, prev, prev_h, d, w, gamma, lossy, end_bit):
    """Decode version-2 records until the cursor reaches ``end_bit``; the
    contract of :func:`decode_records`, with each lossy coordinate delta
    read as :meth:`BitReader.read_exp_golomb` of order ``gamma`` reads it.
    Lossless records are the version-1 gamma records."""
    if not lossy:
        return decode_records(reader, prev, prev_h, d, w, gamma, lossy, end_bit)
    pos = reader._pos
    top = (end_bit if end_bit > pos else pos) + 2 * w.bit_length() + 1
    top += d * (2 * w + 1 - gamma)
    if top < reader._nbits:
        try:
            return _exp_golomb_loop(reader, top, prev, prev_h, d, w, gamma, end_bit)
        except TruncatedStreamError:
            reader._pos = pos
    top = reader._nbits
    return _exp_golomb_loop(reader, top, prev, prev_h, d, w, gamma, end_bit)


def _gamma_loop(reader, top, prev, prev_h, d, w, gamma, lossy, end_bit):
    # The decode of decode_records over the stream's bits below ``top``.
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
        while p < stop:
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


def _exp_golomb_loop(reader, top, prev, prev_h, d, w, gamma, end_bit):
    # The decode of decode_records_v2 over the stream's bits below ``top``.
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
        while p < stop:
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
