"""Bit-exact behaviour of the gamma / Exp-Golomb / xor / signed-difference
codes.

The bit streams are ``_bits_py``'s.  Both kernels' record functions (pure
Python and the compiled extension, when built) are exercised through the
same cases and must produce identical streams.  Single codes are read and
written by the bit-serial oracles of ``pqc.reference``.
"""

import importlib
import importlib.util
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    V2_SPLIT_DATA,
    V3_LOSSLESS_DATA,
    V3_LOSSY_DATA,
    compiled_kernel,
    random_points,
)
from pqc import _bits_py, codec
from pqc.errors import CorruptPayloadError, TruncatedStreamError
from pqc.geom import HeightedPoint, round_set
from pqc.morton import Config
from pqc.reference import (
    bits_to_string,
    bitwise_decode_records,
    bitwise_encode_records,
    read_bits,
    read_exp_golomb,
    read_gamma,
    read_signed_gamma,
    write_gamma,
    write_signed_gamma,
    xor_code_strings,
)
from pqc.store import LOSSLESS, LOSSY, CompressedStore
from test_store import (
    GOLDEN_V1_HEX,
    GOLDEN_V1_POINTS,
    V2_SPLIT_POINTS,
    _legacy_blocks,
    _points_digest,
)


def _kernels():
    """The pure-Python kernel, plus the compiled one: built in place, or
    else compiled for this session by the conftest."""
    mods = [_bits_py]
    try:
        mods.append(importlib.import_module("pqc._bits_ext"))
    except ImportError:
        kernel = compiled_kernel()
        if kernel is not None:
            mods.append(kernel)
    return mods


KERNELS = _kernels()


def bitstring(writer_mod, encode):
    w = writer_mod.BitWriter()
    n = encode(w)
    return bits_to_string(w.getvalue(), w.bit_length), n


FIGURE_POINTS = [(5, 2), (6, 3), (8, 4), (9, 6), (10, 6)]


@pytest.fixture(params=KERNELS, ids=lambda m: m.BACKEND)
def kern(request):
    return request.param


@pytest.fixture(params=[_bits_py], ids=lambda m: m.BACKEND)
def streams(request):
    """The module of the bit-stream classes: ``_bits_py``, whose BitWriter
    and BitReader every kernel's records are written to and read from."""
    return request.param


def _gamma_record(kern, writer, value):
    """A one-axis lossless record from 0: the gamma code of ``value``."""
    return kern.encode_records(writer, (0,), 0, [(value,)], [0], 0, False)


class TestGamma:
    """Gamma codes, as each kernel's lossless ``encode_records`` writes
    them and ``reference.read_gamma``, the reader of the bit-serial oracle,
    and the kernel's ``decode_records`` read them back."""

    # Golden values straight off the worked 5-point example.
    GOLDEN = [
        (0, "1"),
        (1, "01"),
        (2, "0010"),
        (3, "0011"),
        (7, "000111"),
        (14, "00001110"),
    ]

    @pytest.mark.parametrize("value,bits", GOLDEN)
    def test_golden_encodings(self, kern, value, bits):
        s, n = bitstring(_bits_py, lambda w: _gamma_record(kern, w, value))
        assert s == bits
        assert n == len(bits)
        r = _bits_py.BitReader(*_written(bits))
        assert read_gamma(r) == value
        assert r.tell() == len(bits)

    def test_length_formula(self, kern):
        for v in range(1, 4096):
            assert _gamma_record(kern, _bits_py.BitWriter(), v) == 2 * v.bit_length()
        assert _gamma_record(kern, _bits_py.BitWriter(), 0) == 1

    def test_round_trip_exhaustive_16bit(self, kern):
        # Point i differs from point i - 1 by the delta i.
        pts = [(0,)]
        for v in range(1, 1 << 16):
            pts.append((pts[-1][0] ^ v,))
        w = _bits_py.BitWriter()
        kern.encode_records(w, (0,), 0, pts, [0] * len(pts), 0, False)
        r = _bits_py.BitReader(w.getvalue(), w.bit_length)
        for v in range(1 << 16):
            assert read_gamma(r) == v
        assert r.tell() == w.bit_length
        r = _bits_py.BitReader(w.getvalue(), w.bit_length)
        got = kern.decode_records(r, (0,), 0, 1, 16, 0, False, w.bit_length)
        assert got == (pts, [0] * len(pts))
        assert r.tell() == w.bit_length

    def test_rejects_negative(self, kern):
        with pytest.raises(ValueError):
            _gamma_record(kern, _bits_py.BitWriter(), -1)

    def test_truncated_stream(self, kern):
        w = _bits_py.BitWriter()
        _gamma_record(kern, w, 14)
        r = _bits_py.BitReader(w.getvalue(), 5)  # cut inside the code word
        with pytest.raises(TruncatedStreamError):
            kern.decode_records(r, (0,), 0, 1, 5, 0, False, 5)


class TestSignedGamma:
    def test_zero_has_no_sign_bit(self, streams):
        s, _ = bitstring(streams, lambda w: write_signed_gamma(w, 0))
        assert s == "1"

    def test_plus_minus_one(self, streams):
        assert bitstring(streams, lambda w: write_signed_gamma(w, 1))[0] == "010"
        assert bitstring(streams, lambda w: write_signed_gamma(w, -1))[0] == "011"

    def test_length_formula(self, streams):
        for v in list(range(-300, 0)) + list(range(1, 300)):
            w = streams.BitWriter()
            assert write_signed_gamma(w, v) == 2 * abs(v).bit_length() + 1

    def test_round_trip(self, streams):
        values = list(range(-(1 << 12), (1 << 12) + 1))
        w = streams.BitWriter()
        for v in values:
            write_signed_gamma(w, v)
        r = streams.BitReader(w.getvalue(), w.bit_length)
        for v in values:
            assert read_signed_gamma(r) == v


class TestExpGolomb:
    """Exp-Golomb codes of order k: u = v + 2**k as bit_length(u) - 1 - k
    zeros, then the bits of u.  Written by each kernel's lossy
    ``encode_records`` and read back by ``reference.read_exp_golomb``, the
    reader of the bit-serial oracle."""

    # (order, value, bits) at v = 0, 1, 2**k - 1, 2**k and 2**(k+1).
    GOLDEN = [
        (0, 0, "1"),
        (0, 1, "010"),
        (0, 2, "011"),
        (1, 0, "10"),
        (1, 1, "11"),
        (1, 2, "0100"),
        (1, 4, "0110"),
        (2, 0, "100"),
        (2, 1, "101"),
        (2, 3, "111"),
        (2, 4, "01000"),
        (2, 8, "01100"),
        (3, 0, "1000"),
        (3, 1, "1001"),
        (3, 7, "1111"),
        (3, 8, "010000"),
        (3, 16, "011000"),
    ]

    @pytest.mark.parametrize("kern", KERNELS, ids=lambda m: m.BACKEND)
    @pytest.mark.parametrize("order,value,bits", GOLDEN)
    def test_golden_encodings(self, kern, order, value, bits):
        # A one-axis record at height 0: a zero height delta, "1", then
        # the code of the unshifted coordinate delta.
        s, n = bitstring(
            _bits_py,
            lambda w: kern.encode_records(w, (0,), 0, [(value,)], [0], order, True),
        )
        assert s == "1" + bits
        assert n == 1 + len(bits)
        r = _bits_py.BitReader(*_written(bits))
        assert read_exp_golomb(r, order) == value
        assert r.tell() == len(bits)

    @pytest.mark.parametrize("kern", KERNELS, ids=lambda m: m.BACKEND)
    @given(st.integers(1, 32), st.data())
    @settings(deadline=None, max_examples=200)
    def test_round_trip_and_worst_case_length(self, kern, w, data):
        order = data.draw(st.integers(0, w), label="order")
        values = data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=40))
        values.append((1 << w) - 1)
        writer = _bits_py.BitWriter()
        prev = 0
        for v in values:
            # One one-axis record at height 0: "1", then the code of v.
            cur = prev ^ v
            n = kern.encode_records(writer, (prev,), 0, [(cur,)], [0], order, True)
            assert n - 1 <= 2 * w + 1 - order
            assert n - 1 == 2 * (v + (1 << order)).bit_length() - 1 - order
            prev = cur
        reader = _bits_py.BitReader(writer.getvalue(), writer.bit_length)
        got = []
        for _ in values:
            assert read_signed_gamma(reader) == 0
            got.append(read_exp_golomb(reader, order))
        assert got == values
        assert reader.tell() == writer.bit_length

    def test_truncated_stream(self):
        data, _ = _written("0110")
        r = _bits_py.BitReader(data, 3)  # cut inside the code word
        with pytest.raises(TruncatedStreamError):
            read_exp_golomb(r, 1)


def _written(bits):
    """A '0'/'1' string as (bytes, bit length)."""
    w = _bits_py.BitWriter()
    for c in bits:
        w.write_bits(int(c), 1)
    return w.getvalue(), w.bit_length


class TestXorCode:
    """Lossless records: per axis, the gamma code of prev ^ cur."""

    CFG = Config(d=2, w=5, gamma=0)

    def test_figure_rows(self, kern):
        rows = [
            ((5, 2), (6, 3), "001101", 6),
            ((9, 6), (10, 6), "00111", 5),
        ]
        for prev, cur, bits, n in rows:
            s, written = bitstring(
                _bits_py, lambda w: kern.encode_records(w, prev, 0, [cur], [0], 0, False)
            )
            assert written == n
            assert s == bits

    def test_equal_points_cost_one_bit_per_axis(self, kern):
        s, written = bitstring(
            _bits_py, lambda w: kern.encode_records(w, (9, 6), 0, [(9, 6)], [0], 0, False)
        )
        assert written == 2
        assert s == "11"

    def test_figure_payload_strings(self):
        strings = xor_code_strings(FIGURE_POINTS, self.CFG)
        assert strings == [
            "00101,00010",
            "0011,01",
            "00001110,000111",
            "01,0010",
            "0011,1",
        ]
        total = sum(len(s) - s.count(",") for s in strings)
        assert total == 41


class TestPrefixFreeness:
    @given(st.lists(st.integers(0, 2**20), max_size=60))
    @settings(deadline=None, max_examples=150)
    def test_concatenated_stream_decodes_exactly(self, values):
        w = _bits_py.BitWriter()
        for v in values:
            write_gamma(w, v)
        r = _bits_py.BitReader(w.getvalue(), w.bit_length)
        assert [read_gamma(r) for _ in values] == values
        assert r.tell() == w.bit_length

    @given(st.lists(st.integers(-(2**16), 2**16), max_size=60))
    @settings(deadline=None, max_examples=150)
    def test_signed_stream_decodes_exactly(self, values):
        w = _bits_py.BitWriter()
        for v in values:
            write_signed_gamma(w, v)
        r = _bits_py.BitReader(w.getvalue(), w.bit_length)
        assert [read_signed_gamma(r) for _ in values] == values


class TestWriterReaderPrimitives:
    def test_write_bits_msb_first(self, streams):
        w = streams.BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b0110, 4)
        assert bits_to_string(w.getvalue(), 7) == "1010110"
        r = streams.BitReader(w.getvalue(), 7)
        assert read_bits(r, 3) == 0b101
        assert read_bits(r, 4) == 0b0110

    def test_write_bits_rejects_oversized_value(self, streams):
        # Also negative values and widths; each leaves the writer as it was.
        for value, nbits in [(8, 3), (-1, 3), (1, 0), (0, -1), (1 << 200, 200)]:
            w = streams.BitWriter()
            w.write_bits(0b101, 3)
            with pytest.raises(ValueError):
                w.write_bits(value, nbits)
            assert (w.getvalue(), w.bit_length) == (b"\xa0", 3)

    def test_padding_is_zero(self, streams):
        w = streams.BitWriter()
        w.write_bits(0b1, 1)
        assert w.getvalue() == b"\x80"

    def test_write_bits_every_width_at_every_start_offset(self):
        # Against the '0'/'1' string of the stream, zero-padded to a byte.
        def field(value, nbits):
            return f"{value:0{nbits}b}" if nbits else ""

        rng = random.Random(5)
        for start in range(16):
            for width in range(201):
                for value in (rng.getrandbits(width), (1 << width) - 1):
                    prefix = rng.getrandbits(start)
                    w = _bits_py.BitWriter()
                    w.write_bits(prefix, start)
                    w.write_bits(value, width)
                    bits = field(prefix, start) + field(value, width)
                    bits += "0" * (-len(bits) % 8)
                    expect = [int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)]
                    assert w.bit_length == start + width
                    assert w.getvalue() == bytes(expect)

    @given(st.lists(st.tuples(st.integers(0, 2**31 - 1), st.integers(1, 32))))
    @settings(deadline=None, max_examples=150)
    def test_chunked_round_trip(self, chunks):
        chunks = [(v & ((1 << n) - 1), n) for v, n in chunks]
        w = _bits_py.BitWriter()
        for v, n in chunks:
            w.write_bits(v, n)
        r = _bits_py.BitReader(w.getvalue(), w.bit_length)
        assert [(read_bits(r, n), n) for _, n in chunks] == chunks


@st.composite
def record_streams(draw):
    """A record stream as the kernels' arguments: (d, w, gamma, lossy,
    head, head height, coords, heights).  Lossy coordinates are rounded to
    their heights, as ``round_set`` leaves them."""
    d = draw(st.sampled_from([2, 3]))
    w = draw(st.integers(1, 32))
    gamma = draw(st.integers(0, w))
    lossy = draw(st.booleans())
    coord = st.integers(0, (1 << w) - 1)
    n = draw(st.integers(0, 24))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=n + 1, max_size=n + 1))
    hs = draw(st.lists(st.integers(0, w), min_size=n + 1, max_size=n + 1))
    if lossy:
        pts = [
            tuple((c >> max(h - gamma, 0)) << max(h - gamma, 0) for c in p)
            for p, h in zip(pts, hs)
        ]
    else:
        hs = [0] * len(hs)
    return d, w, gamma, lossy, pts[0], hs[0], pts[1:], hs[1:]


# (encode, decode) of every kernel: the records of format versions 2 and 3.
RECORD_CODES = [(k.encode_records, k.decode_records) for k in KERNELS]

# The pure-Python decoder of the lossy records of each format version:
# version 1's gamma records, which only the load of a version-1 file reads
# and no kernel writes, and the Exp-Golomb records of versions 2 and 3.
LOSSY_DECODERS = {1: _bits_py.decode_gamma_records, 2: _bits_py.decode_records}


def _oracle_encoder(version):
    return lambda writer, *args: bitwise_encode_records(writer, *args, version=version)


def _oracle(version):
    return lambda reader, *args: bitwise_decode_records(reader, *args, version=version)


def _decode_outcome(decode, data, nbits, start, args, end_bit, count=None):
    """decode's result, or its exception class and message, plus the
    final cursor; ``count`` is passed on when it is not None."""
    reader = _bits_py.BitReader(data, nbits)
    if start:
        reader.seek(start)
    bound = () if count is None else (count,)
    try:
        out = decode(reader, *args, end_bit, *bound)
    except (CorruptPayloadError, TruncatedStreamError) as exc:
        out = (type(exc), str(exc))
    return out, reader.tell()


@st.composite
def encode_cases(draw):
    """Arguments of a record encoder: (d, w, gamma, lossy, head, head
    height, coords, heights), with enough records to fill several of the
    pure-Python encoder's appends."""
    d = draw(st.sampled_from([1, 2, 3]))
    w = draw(st.sampled_from([4, 8, 16, 32]))
    gamma = draw(st.integers(0, w))
    lossy = draw(st.booleans())
    coord = st.integers(0, (1 << w) - 1)
    n = draw(st.integers(0, 3 * _bits_py._RECORDS_PER_APPEND))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=n + 1, max_size=n + 1))
    if lossy:
        hs = draw(st.lists(st.integers(0, w), min_size=n + 1, max_size=n + 1))
    else:
        hs = [0] * (n + 1)
    return d, w, gamma, lossy, pts[0], hs[0], pts[1:], hs[1:]


class TestRecordEncodeOracle:
    """Each kernel's ``encode_records`` against the bit-serial oracle
    ``reference.bitwise_encode_records``."""

    @given(encode_cases(), st.integers(0, 3), st.integers(0, 7), st.randoms())
    @settings(deadline=None, max_examples=300)
    def test_matches_bitwise_encoder(self, case, nbytes, extra, rnd):
        d, w, gamma, lossy, head, head_h, coords, heights = case
        # A writer that already holds 0-3 bytes and 0-7 bits past them.
        start = 8 * nbytes + extra
        prefix = rnd.getrandbits(start) if start else 0
        args = (head, head_h, coords, heights, gamma, lossy)
        for encode, _ in RECORD_CODES:
            outcomes = []
            for enc in (encode, bitwise_encode_records):
                writer = _bits_py.BitWriter()
                writer.write_bits(prefix, start)
                bits = enc(writer, *args)
                outcomes.append((writer.getvalue(), writer.bit_length, bits))
            assert outcomes[0] == outcomes[1], encode
            assert outcomes[0][1] == start + outcomes[0][2]

    @pytest.mark.parametrize("lossy", [False, True], ids=[LOSSLESS, LOSSY])
    def test_appends_are_bounded_in_records(self, lossy):
        """A long call hands the writer one int per few dozen records, not
        one per code and not one for the whole call (which would make the
        call quadratic in its records).  Every record here is the same
        length, so each append's width counts its records."""

        class CountingWriter(_bits_py.BitWriter):
            __slots__ = ("widths",)

            def __init__(self):
                super().__init__()
                self.widths = []

            def write_bits(self, value, nbits):
                self.widths.append(nbits)
                super().write_bits(value, nbits)

        n, gamma = 5000, 3
        coords = [((5, 9), (0, 0))[i % 2] for i in range(n)]
        heights = [4] * n
        writer = CountingWriter()
        bits = _bits_py.encode_records(writer, (0, 0), 4, coords, heights, gamma, lossy)
        record = bits // n
        assert bits == record * n
        assert all(width % record == 0 for width in writer.widths)
        per_append = [width // record for width in writer.widths]
        assert sum(per_append) == n
        assert max(per_append) <= 64
        assert len(per_append) <= n // 16 + 1
        oracle = _bits_py.BitWriter()
        bitwise_encode_records(oracle, (0, 0), 4, coords, heights, gamma, lossy)
        assert writer.getvalue() == oracle.getvalue()


def _check_against_oracle(stream, data, encode, decode, version):
    """Write ``stream`` with ``encode`` after a prefix, damage it as
    ``data`` draws, and check that ``decode`` returns, raises and leaves
    the cursor as the bit-serial oracle of format ``version`` does."""
    d, w, gamma, lossy, head, head_h, coords, heights = stream
    writer = _bits_py.BitWriter()
    start = data.draw(st.integers(0, 19), label="start")
    if start:
        writer.write_bits(data.draw(st.integers(0, (1 << start) - 1)), start)
    encode(writer, head, head_h, coords, heights, gamma, lossy)
    buf, nbits = bytearray(writer.getvalue()), writer.bit_length
    damage = data.draw(
        st.sampled_from(["none", "truncate", "mutate", "zero run", "overlong"]),
        label="damage",
    )
    if damage == "truncate":
        nbits = data.draw(st.integers(start, nbits))
    elif damage == "mutate" and buf:
        for _ in range(data.draw(st.integers(1, 3))):
            buf[data.draw(st.integers(0, len(buf) - 1))] = data.draw(
                st.integers(0, 255)
            )
    elif damage == "zero run" and buf:
        # 8 to 16 zero bytes: a zero run longer than a 64-bit word and
        # than any code of a valid record.
        lo = data.draw(st.integers(0, len(buf) - 1))
        hi = min(len(buf), lo + data.draw(st.integers(8, 16)))
        buf[lo:hi] = bytes(hi - lo)
    elif damage == "overlong":
        buf += data.draw(st.binary(min_size=1, max_size=6))
        nbits = data.draw(st.integers(nbits, 8 * len(buf)))
    end_bit = data.draw(
        st.one_of(st.just(nbits), st.integers(start, nbits)), label="end_bit"
    )
    count = data.draw(st.one_of(st.none(), st.integers(0, 26)), label="count")
    args = (head, head_h, d, w, gamma, lossy)
    fast = _decode_outcome(decode, bytes(buf), nbits, start, args, end_bit, count)
    slow = _decode_outcome(
        _oracle(version), bytes(buf), nbits, start, args, end_bit, count
    )
    assert fast == slow
    if damage == "none" and end_bit == nbits and (count or 0) >= len(coords):
        assert fast == ((list(coords), list(heights)), nbits)


class TestRecordDecodeOracle:
    """Each kernel's ``decode_records``, and the pure-Python decoder of
    version-1 lossy records, against the bit-serial oracle."""

    @given(record_streams(), st.data())
    @settings(deadline=None, max_examples=400)
    def test_matches_bitwise_decoder(self, stream, data):
        encode, decode = data.draw(st.sampled_from(RECORD_CODES), label="code")
        _check_against_oracle(stream, data, encode, decode, 3)

    @given(record_streams(), st.data())
    @settings(deadline=None, max_examples=200)
    def test_version_1_matches_bitwise_decoder(self, stream, data):
        decode = _bits_py.decode_gamma_records
        _check_against_oracle(stream, data, _oracle_encoder(1), decode, 1)

    @pytest.mark.parametrize("kern", KERNELS, ids=lambda m: m.BACKEND)
    @pytest.mark.parametrize("tail", ["height", "overflow", "truncated", "cut sign"])
    def test_malformed_version_2_records(self, kern, tail):
        """A record after a valid one that is malformed in each way the
        decoder checks fails as in the oracle; the compiled kernel hands it
        back to ``_bits_py``."""
        cfg = Config(d=2, w=16, gamma=5)
        head, rest = (40000, 12000), [(40064, 12032)]
        writer = _bits_py.BitWriter()
        kern.encode_records(writer, head, 6, rest, [6], cfg.gamma, True)
        cut = 0
        if tail == "height":
            write_signed_gamma(writer, 20)  # height 26 > w
            writer.write_bits(1 << 5, 6)  # two zero deltas
            writer.write_bits(1 << 5, 6)
        elif tail == "overflow":
            # Height 6 shifts by 1, so a delta of 2**15 overflows: u =
            # 2**15 + 2**5 takes 10 zeros and 16 bits.  A zero delta
            # completes the record.
            writer.write_bits(1, 1)
            writer.write_bits(0, 10)
            writer.write_bits((1 << 15) + (1 << 5), 16)
            writer.write_bits(1 << 5, 6)
        elif tail == "truncated":
            writer.write_bits(1, 1)
            writer.write_bits(0, 3)
        else:
            write_signed_gamma(writer, -3)
            writer.write_bits(1, 1)
            writer.write_bits(1 << 5, 6)
            cut = 1 + 6 + 1  # the stream ends before the height's sign bit
        data, nbits = writer.getvalue(), writer.bit_length - cut
        args = (head, 6, cfg.d, cfg.w, cfg.gamma, True)
        got = _decode_outcome(kern.decode_records, data, nbits, 0, args, nbits)
        assert got == _decode_outcome(bitwise_decode_records, data, nbits, 0, args, nbits)
        assert got[0][0] is (
            CorruptPayloadError if tail in ("height", "overflow") else TruncatedStreamError
        )

    def test_every_cut_of_the_figure_stream(self):
        head, rest = FIGURE_POINTS[0], FIGURE_POINTS[1:]
        w = _bits_py.BitWriter()
        _bits_py.encode_records(w, head, 0, rest, [0] * len(rest), 0, False)
        assert w.bit_length == 31  # the figure's 41 bits less the 10-bit head
        args = (head, 0, 2, 5, 0, False)
        for cut in range(32):
            for end_bit in (cut, 31):
                outcomes = [
                    _decode_outcome(decode, w.getvalue(), cut, 0, args, end_bit)
                    for decode in (_bits_py.decode_records, bitwise_decode_records)
                ]
                assert outcomes[0] == outcomes[1], (cut, end_bit)


    @pytest.mark.parametrize("version", sorted(LOSSY_DECODERS))
    @pytest.mark.parametrize("tail", ["truncated", "overflow"])
    def test_errors_past_the_cut(self, version, tail, monkeypatch):
        """A read converts the bits up to one longest record past its
        end_bit; a record that runs past that cut is decoded again over the
        whole stream, for the oracle's exact error."""
        cfg = Config(d=2, w=16, gamma=5)
        decode = LOSSY_DECODERS[version]
        head, rest = (40000, 12000), [(40064, 12032), (40000, 12096)]
        writer = _bits_py.BitWriter()
        _oracle_encoder(version)(writer, head, 6, rest, [6, 7], cfg.gamma, True)
        end_bit = writer.bit_length + 1
        writer.write_bits(1, 1)  # a zero height delta, then
        writer.write_bits(0, 300)  # a zero run past the cut
        if tail == "overflow":
            # ... that ends, in a delta of some 300 bits
            writer.write_bits((1 << 311) - 1, 311)
        data, nbits = writer.getvalue(), writer.bit_length
        tops = []
        bit_string = _bits_py._bit_string

        def recording(reader, top):
            tops.append(top)
            return bit_string(reader, top)

        monkeypatch.setattr(_bits_py, "_bit_string", recording)
        args = (head, 6, cfg.d, cfg.w, cfg.gamma, True)
        fast = _decode_outcome(decode, data, nbits, 0, args, end_bit)
        assert tops[0] < nbits and tops[-1] == nbits
        assert fast == _decode_outcome(_oracle(version), data, nbits, 0, args, end_bit)
        assert fast[0][0] is (
            TruncatedStreamError if tail == "truncated" else CorruptPayloadError
        )


class TestChunkedDecode:
    """A compressed store decodes a block in chunks, resuming each call
    from the last decoded point and height where the previous one left
    the cursor."""

    @given(record_streams(), st.data())
    @settings(deadline=None, max_examples=200)
    def test_chunks_concatenate_to_one_call(self, stream, data):
        d, w, gamma, lossy, head, head_h, coords, heights = stream
        for encode, decode in RECORD_CODES:
            # One record at a time, to know where each record ends.
            writer = _bits_py.BitWriter()
            bounds = [0]
            prev, prev_h = head, head_h
            for c, h in zip(coords, heights):
                encode(writer, prev, prev_h, [c], [h], gamma, lossy)
                bounds.append(writer.bit_length)
                prev, prev_h = c, h
            buf, nbits = writer.getvalue(), writer.bit_length
            reader = _bits_py.BitReader(buf, nbits)
            whole = decode(reader, head, head_h, d, w, gamma, lossy, nbits)
            assert reader.tell() == nbits
            cuts = sorted(data.draw(st.lists(st.integers(0, nbits), max_size=8)))
            reader = _bits_py.BitReader(buf, nbits)
            got_coords, got_heights = [], []
            prev, prev_h = head, head_h
            for end_bit in cuts + [nbits]:
                start = reader.tell()
                c, h = decode(reader, prev, prev_h, d, w, gamma, lossy, end_bit)
                # The call stops at the first record boundary at or after
                # end_bit, and at once when the cursor is already there.
                stop = min(b for b in bounds if b >= max(start, end_bit))
                assert reader.tell() == stop
                assert len(c) == len(h) == bounds.index(stop) - bounds.index(start)
                got_coords += c
                got_heights += h
                if c:
                    prev, prev_h = c[-1], h[-1]
            assert (got_coords, got_heights) == whole == (list(coords), list(heights))
            assert reader.tell() == nbits


    @pytest.mark.parametrize("version", sorted(LOSSY_DECODERS))
    def test_a_mid_block_read_converts_only_its_cut(self, version, monkeypatch):
        """A read that stops early turns only the bits up to one longest
        record past its end_bit into a string, not the rest of the block."""
        cfg = Config(d=2, w=16, gamma=5)
        decode = LOSSY_DECODERS[version]
        pts = [((i * 40503) & 0xFFC0, (i * 9973) & 0xFFC0) for i in range(64)]
        writer = _bits_py.BitWriter()
        encode = _oracle_encoder(version)
        encode(writer, pts[0], 11, pts[1:], [11] * 63, cfg.gamma, True)
        data, nbits = writer.getvalue(), writer.bit_length
        tops = []
        bit_string = _bits_py._bit_string

        def recording(reader, top):
            tops.append(top)
            return bit_string(reader, top)

        monkeypatch.setattr(_bits_py, "_bit_string", recording)
        reader = _bits_py.BitReader(data, nbits)
        args = (cfg.d, cfg.w, cfg.gamma, True)
        coords, _ = decode(reader, pts[0], 11, *args, nbits // 8)
        rest, _ = decode(reader, coords[-1], 11, *args, nbits)
        assert coords + rest == pts[1:]
        assert tops[0] < nbits // 4 and tops[1] == nbits


    @pytest.mark.parametrize("version", sorted(LOSSY_DECODERS))
    def test_a_longest_record_fits_the_cut(self, version, monkeypatch):
        """The cut holds a record of the greatest length a valid stream
        can have, so a valid stream never needs the whole-stream pass."""
        cfg = Config(d=2, w=16, gamma=5)
        decode = LOSSY_DECODERS[version]
        # From height 16 down to 0 is the longest height delta, and at
        # height 0 nothing is shifted away from a delta of w one bits.
        pts = [(0xFFFF, 0xFFFF), (0, 0)] * 4
        writer = _bits_py.BitWriter()
        encode = _oracle_encoder(version)
        encode(writer, (0, 0), 16, pts, [0, 16] * 4, cfg.gamma, True)
        data, nbits = writer.getvalue(), writer.bit_length
        tops = []
        bit_string = _bits_py._bit_string

        def recording(reader, top):
            tops.append(top)
            return bit_string(reader, top)

        monkeypatch.setattr(_bits_py, "_bit_string", recording)
        reader = _bits_py.BitReader(data, nbits)
        coords, heights = decode(reader, (0, 0), 16, cfg.d, cfg.w, cfg.gamma, True, 1)
        assert (coords, heights) == ([pts[0]], [0])
        longest = 2 * 5 + 1 + 2 * (32 if version == 1 else 33 - cfg.gamma)
        assert reader.tell() == longest and len(tops) == 1


def _round_trip(encode, decode, stream):
    """What ``encode`` writes of a record stream, over a ``_bits_py``
    stream, and what ``decode`` reads back: (bits, bytes, bit length,
    (coords, heights), final cursor)."""
    d, w, gamma, lossy, head, head_h, coords, heights = stream
    writer = _bits_py.BitWriter()
    bits = encode(writer, head, head_h, coords, heights, gamma, lossy)
    data, nbits = writer.getvalue(), writer.bit_length
    reader = _bits_py.BitReader(data, nbits)
    decoded = decode(reader, head, head_h, d, w, gamma, lossy, nbits)
    return bits, data, nbits, decoded, reader.tell()


class TestBackendParity:
    """The compiled kernel's records against ``_bits_py``'s, lossy and
    lossless."""

    @pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernel not built")
    @given(record_streams())
    @settings(deadline=None, max_examples=200)
    def test_record_parity(self, stream):
        outcomes = [
            _round_trip(k.encode_records, k.decode_records, stream) for k in KERNELS
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3] == (list(stream[6]), list(stream[7]))


class TestVersion2UnderEveryKernel:
    """Every kernel reads a version-2 file, written by older code, and
    writes its points as the same version-3 file; versions 2 and 3 share
    their records, which every kernel codes over ``_bits_py`` streams."""

    @pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernel not built")
    def test_every_kernel_round_trips_a_version_2_store(self, monkeypatch):
        cfg = Config(d=2, w=12, gamma=4)
        lossy_pts = round_set(random_points(cfg, 9, 150), cfg)
        plain_pts = [HeightedPoint(hp.coords, 0) for hp in lossy_pts]
        extra = random_points(cfg, 10, 20)
        files = {}
        for kern in KERNELS:
            monkeypatch.setattr(codec, "_impl", kern)
            old = CompressedStore.from_bytes(V2_SPLIT_DATA)
            files.setdefault("version 2", set()).add(old.to_bytes())
            for mode, pts in ((LOSSY, lossy_pts), (LOSSLESS, plain_pts)):
                st = CompressedStore.build(pts, cfg, mode)
                data = st.to_bytes()
                assert data[4] == 3
                back = CompressedStore.from_bytes(data)
                assert back.decode_all() == pts
                for p in extra:
                    if p not in {hp.coords for hp in pts}:
                        back.insert(p, 0)
                again = CompressedStore.from_bytes(back.to_bytes())
                assert again.decode_all() == back.decode_all()
                files.setdefault(mode, set()).add((data, back.to_bytes()))
        assert all(len(seen) == 1 for seen in files.values())

    @pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernel not built")
    def test_version_2_record_parity(self):
        # The file's own blocks, in the cut inserts left them: a load
        # re-cuts them as build does.
        store = CompressedStore.from_bytes(V2_SPLIT_DATA)
        cfg, lossy = store.cfg, store.mode == LOSSY
        points = store.decode_all()
        rank = 0
        for (table, _), (start, stop), bit_len in _legacy_blocks(V2_SPLIT_DATA):
            *head, height = struct.unpack_from(f"<{cfg.d}LB", V2_SPLIT_DATA, table)
            head = tuple(head)
            stored = V2_SPLIT_DATA[start:stop]
            outcomes = []
            for kern in KERNELS:
                reader = _bits_py.BitReader(stored, bit_len)
                args = (head, height, cfg.d, cfg.w, cfg.gamma, lossy, bit_len)
                coords, heights = kern.decode_records(reader, *args)
                writer = _bits_py.BitWriter()
                kern.encode_records(writer, head, height, coords, heights, cfg.gamma, lossy)
                outcomes.append(
                    (coords, heights, reader.tell(), writer.getvalue(), writer.bit_length)
                )
            assert all(o == outcomes[0] for o in outcomes)
            coords, heights, end, payload, nbits = outcomes[0]
            assert (end, payload, nbits) == (bit_len, stored, bit_len)
            block = points[rank : rank + 1 + len(coords)]
            assert list(map(HeightedPoint, [head, *coords], [height, *heights])) == block
            rank += len(block)
        assert rank == len(points)


# Every committed file of an older writer or format version: (bytes,
# whether a load saves them back as they are, _points_digest of the
# store as the code that wrote them decoded it).
COMMITTED_FILES = {
    "version 1": (bytes.fromhex(GOLDEN_V1_HEX), False, GOLDEN_V1_POINTS),
    "version 2": (V2_SPLIT_DATA, False, V2_SPLIT_POINTS),
    "version 3 lossy": (
        V3_LOSSY_DATA,
        True,
        "b63ab2dfc3070abc62b2f84ad5f5f835b9439465f27d11a356a865c52fa941fe",
    ),
    "version 3 lossless": (
        V3_LOSSLESS_DATA,
        True,
        "57ba1bc3e011c3cfedcae21dd334991c521e5b10db25b4790b6625c91ff3e570",
    ),
}


class TestCommittedFilesUnderEveryKernel:
    """Every kernel loads each committed file to the points its writer
    decoded and saves them as ``build``'s version-3 bytes, which are the
    file's own for a version-3 file."""

    @pytest.mark.parametrize("name", list(COMMITTED_FILES))
    def test_loads_pinned_points_and_saves_builds_bytes(self, kern, name, monkeypatch):
        data, saves_as_loaded, digest = COMMITTED_FILES[name]
        monkeypatch.setattr(codec, "_impl", kern)
        st = CompressedStore.from_bytes(data)
        assert _points_digest(st) == digest
        saved = st.to_bytes()
        assert saved == CompressedStore.build(st.decode_all(), st.cfg, st.mode).to_bytes()
        assert (saved == data) == saves_as_loaded


class TestCompiledKernelExports:
    @pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernel not built")
    def test_only_the_names_codec_takes(self):
        """``_bits_ext`` exports the record functions of the records that
        saves write, and its backend name: the names ``codec`` takes from
        either kernel."""
        names = {n for n in dir(KERNELS[1]) if not n.startswith("__")}
        assert names == {"encode_records", "decode_records", "BACKEND"}
        assert all(hasattr(_bits_py, n) for n in names)


def _stream_blocks(store):
    """(record start bit, head, head height, record count) of each block in
    the bit stream of ``store``'s version-3 file."""
    cfg = store.cfg
    height_bits = cfg.w.bit_length() if store.mode == LOSSY else 0
    data = store.to_bytes()
    reader = _bits_py.BitReader(data)
    reader.seek(8 * 21)
    out = []
    for blk in store._blocks:
        head = tuple(read_bits(reader, cfg.w) for _ in range(cfg.d))
        height = read_bits(reader, height_bits)
        out.append((reader.tell(), head, height, blk.count - 1))
        reader.seek(reader.tell() + blk.bit_len)
    return data, out


def _version_3_file(mode, d):
    cfg = Config(d=d, w=12, gamma=3)
    pts = random_points(cfg, 40 + d, 130)
    if mode == LOSSY:
        points = round_set(pts, cfg)
    else:
        points = [HeightedPoint(hp.coords, 0) for hp in round_set(pts, cfg)]
    return CompressedStore.build(points, cfg, mode)


VERSION_3_FILES = [_version_3_file(m, d) for m in (LOSSY, LOSSLESS) for d in (2, 3)]


class TestCountBoundedDecode:
    """The count bound that finds a block's end in a version-3 file, where
    nothing else marks it: both kernels return the same coords, heights,
    cursor and errors as the bit-serial oracle."""

    def _outcomes(self, data, nbits, start, args, end_bit, count):
        got = [
            _decode_outcome(k.decode_records, data, nbits, start, args, end_bit, count)
            for k in KERNELS
        ]
        oracle = bitwise_decode_records
        got.append(_decode_outcome(oracle, data, nbits, start, args, end_bit, count))
        assert all(g == got[0] for g in got)
        return got[0]

    @pytest.mark.parametrize("store", VERSION_3_FILES, ids=lambda s: f"{s.mode}-d{s.cfg.d}")
    def test_every_block_of_a_version_3_file(self, store):
        cfg = store.cfg
        lossy = store.mode == LOSSY
        data, blocks = _stream_blocks(store)
        nbits = 8 * len(data)
        points = store.decode_all()
        rank = 0
        for b, (start, head, height, count) in enumerate(blocks):
            args = (head, height, cfg.d, cfg.w, cfg.gamma, lossy)
            (coords, heights), end = self._outcomes(data, nbits, start, args, nbits, count)
            assert end == start + store._blocks[b].bit_len
            block = points[rank : rank + count + 1]
            assert block[0] == HeightedPoint(head, height)
            assert list(map(HeightedPoint, coords, heights)) == block[1:]
            rank += count + 1
        assert rank == len(points)

    @pytest.mark.parametrize("store", VERSION_3_FILES, ids=lambda s: f"{s.mode}-d{s.cfg.d}")
    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_truncated_and_overlong_streams(self, store, data):
        cfg = store.cfg
        lossy = store.mode == LOSSY
        stream, blocks = _stream_blocks(store)
        start, head, height, count = data.draw(st.sampled_from(blocks), label="block")
        buf = bytearray(stream)
        nbits = 8 * len(buf)
        if data.draw(st.booleans(), label="truncate"):
            nbits = data.draw(st.integers(start, nbits), label="nbits")
        else:
            buf += data.draw(st.binary(min_size=1, max_size=8), label="tail")
            nbits = 8 * len(buf)
        count = data.draw(st.integers(0, count + 3), label="count")
        args = (head, height, cfg.d, cfg.w, cfg.gamma, lossy)
        self._outcomes(bytes(buf), nbits, start, args, nbits, count)


class TestKernelSelection:
    """``PQC_BACKEND`` picks the kernel when ``pqc`` is first imported, so
    each case imports it in a fresh interpreter."""

    PROBE = """
try:
    import pqc
except ImportError as exc:
    print("ImportError:", exc)
except ValueError as exc:
    print("ValueError:", exc)
else:
    print(pqc.KERNEL_BACKEND)
"""

    def _import(self, choice):
        """What importing ``pqc`` under PQC_BACKEND=choice prints."""
        src = str(Path(codec.__file__).resolve().parent.parent)
        env = dict(os.environ, PQC_BACKEND=choice)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        run = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.strip()

    def test_unknown_choice_names_the_choices(self):
        assert self._import("bogus") == (
            "ValueError: PQC_BACKEND must be 'auto', 'c', or 'py', not 'bogus'"
        )

    def test_py_selects_the_pure_python_kernel(self):
        assert self._import("py") == "python"

    def test_c_requires_the_compiled_kernel(self):
        if importlib.util.find_spec("pqc._bits_ext") is None:
            assert self._import("c").startswith("ImportError:")
        else:
            assert self._import("c") == "c"
