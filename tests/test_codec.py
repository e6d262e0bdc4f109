"""Bit-exact behaviour of the gamma / xor / signed-difference codes.

Both kernel implementations (pure Python and the compiled extension, when
built) are exercised through the same cases and must produce identical
streams.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqc import _bits_py, codec
from pqc.errors import CorruptPayloadError, TruncatedStreamError
from pqc.morton import Config
from pqc.reference import bitwise_decode_records


def _backends():
    mods = [importlib.import_module("pqc._bits_py")]
    try:
        mods.append(importlib.import_module("pqc._bits_c"))
    except ImportError:
        pass
    return mods


BACKENDS = _backends()


def bitstring(writer_mod, encode):
    w = writer_mod.BitWriter()
    n = encode(w)
    return codec.bits_to_string(w.getvalue(), w.bit_length), n


FIGURE_POINTS = [(5, 2), (6, 3), (8, 4), (9, 6), (10, 6)]


@pytest.fixture(params=BACKENDS, ids=lambda m: m.BACKEND)
def kern(request):
    return request.param


class TestGamma:
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
        s, n = bitstring(kern, lambda w: w.write_gamma(value))
        assert s == bits
        assert n == len(bits)

    def test_length_formula(self, kern):
        for v in range(1, 4096):
            w = kern.BitWriter()
            assert w.write_gamma(v) == 2 * v.bit_length()
        w = kern.BitWriter()
        assert w.write_gamma(0) == 1

    def test_round_trip_exhaustive_16bit(self, kern):
        w = kern.BitWriter()
        for v in range(1 << 16):
            w.write_gamma(v)
        r = kern.BitReader(w.getvalue(), w.bit_length)
        for v in range(1 << 16):
            assert r.read_gamma() == v
        assert r.tell() == w.bit_length

    def test_rejects_negative(self, kern):
        with pytest.raises(ValueError):
            kern.BitWriter().write_gamma(-1)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            codec.gamma_encode(32, codec.BitWriter(), width=5)

    def test_truncated_stream(self, kern):
        w = kern.BitWriter()
        w.write_gamma(14)
        data = w.getvalue()
        r = kern.BitReader(data, 5)  # cut inside the code word
        with pytest.raises(TruncatedStreamError):
            r.read_gamma()


class TestSignedGamma:
    def test_zero_has_no_sign_bit(self, kern):
        s, _ = bitstring(kern, lambda w: w.write_signed_gamma(0))
        assert s == "1"

    def test_plus_minus_one(self, kern):
        assert bitstring(kern, lambda w: w.write_signed_gamma(1))[0] == "010"
        assert bitstring(kern, lambda w: w.write_signed_gamma(-1))[0] == "011"

    def test_length_formula(self, kern):
        for v in list(range(-300, 0)) + list(range(1, 300)):
            w = kern.BitWriter()
            assert w.write_signed_gamma(v) == 2 * abs(v).bit_length() + 1

    def test_round_trip(self, kern):
        values = list(range(-(1 << 12), (1 << 12) + 1))
        w = kern.BitWriter()
        for v in values:
            w.write_signed_gamma(v)
        r = kern.BitReader(w.getvalue(), w.bit_length)
        for v in values:
            assert r.read_signed_gamma() == v


class TestXorCode:
    CFG = Config(d=2, w=5, gamma=0)

    def test_figure_rows(self, kern):
        rows = [
            ((5, 2), (6, 3), "001101", 6),
            ((9, 6), (10, 6), "00111", 5),
        ]
        for prev, cur, bits, n in rows:
            w = kern.BitWriter()
            written = codec.xor_code_point(prev, cur, 0, w)
            assert written == n
            assert codec.bits_to_string(w.getvalue(), w.bit_length) == bits

    def test_equal_points_cost_one_bit_per_axis(self, kern):
        w = kern.BitWriter()
        assert codec.xor_code_point((9, 6), (9, 6), 3, w) == 2
        assert codec.bits_to_string(w.getvalue(), 2) == "11"

    def test_figure_payload_strings(self):
        strings = codec.xor_code_strings(FIGURE_POINTS, self.CFG)
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
        for kern in BACKENDS:
            w = kern.BitWriter()
            for v in values:
                w.write_gamma(v)
            r = kern.BitReader(w.getvalue(), w.bit_length)
            assert [r.read_gamma() for _ in values] == values
            assert r.tell() == w.bit_length

    @given(st.lists(st.integers(-(2**16), 2**16), max_size=60))
    @settings(deadline=None, max_examples=150)
    def test_signed_stream_decodes_exactly(self, values):
        for kern in BACKENDS:
            w = kern.BitWriter()
            for v in values:
                w.write_signed_gamma(v)
            r = kern.BitReader(w.getvalue(), w.bit_length)
            assert [r.read_signed_gamma() for _ in values] == values


class TestWriterReaderPrimitives:
    def test_write_bits_msb_first(self, kern):
        w = kern.BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b0110, 4)
        assert codec.bits_to_string(w.getvalue(), 7) == "1010110"
        r = kern.BitReader(w.getvalue(), 7)
        assert r.read_bits(3) == 0b101
        assert r.read_bits(4) == 0b0110

    def test_write_bits_rejects_oversized_value(self, kern):
        with pytest.raises(ValueError):
            kern.BitWriter().write_bits(8, 3)

    def test_padding_is_zero(self, kern):
        w = kern.BitWriter()
        w.write_bits(0b1, 1)
        assert w.getvalue() == b"\x80"

    @given(st.lists(st.tuples(st.integers(0, 2**31 - 1), st.integers(1, 32))))
    @settings(deadline=None, max_examples=150)
    def test_chunked_round_trip(self, chunks):
        chunks = [(v & ((1 << n) - 1), n) for v, n in chunks]
        for kern in BACKENDS:
            w = kern.BitWriter()
            for v, n in chunks:
                w.write_bits(v, n)
            r = kern.BitReader(w.getvalue(), w.bit_length)
            assert [(r.read_bits(n), n) for _, n in chunks] == chunks


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


def _decode_outcome(decode, data, nbits, start, args, end_bit):
    """decode's result, or its exception class and message, plus the
    final cursor."""
    reader = _bits_py.BitReader(data, nbits)
    if start:
        reader.read_bits(start)
    try:
        out = decode(reader, *args, end_bit)
    except (CorruptPayloadError, TruncatedStreamError) as exc:
        out = (type(exc), str(exc))
    return out, reader.tell()


class TestRecordDecodeOracle:
    """The string-scan ``decode_records`` against the bit-serial oracle."""

    @given(record_streams(), st.data())
    @settings(deadline=None, max_examples=400)
    def test_matches_bitwise_decoder(self, stream, data):
        d, w, gamma, lossy, head, head_h, coords, heights = stream
        writer = _bits_py.BitWriter()
        start = data.draw(st.integers(0, 19), label="start")
        if start:
            writer.write_bits(data.draw(st.integers(0, (1 << start) - 1)), start)
        _bits_py.encode_records(writer, head, head_h, coords, heights, gamma, lossy)
        buf, nbits = bytearray(writer.getvalue()), writer.bit_length
        damage = data.draw(
            st.sampled_from(["none", "truncate", "mutate", "overlong"]), label="damage"
        )
        if damage == "truncate":
            nbits = data.draw(st.integers(start, nbits))
        elif damage == "mutate" and buf:
            for _ in range(data.draw(st.integers(1, 3))):
                buf[data.draw(st.integers(0, len(buf) - 1))] = data.draw(
                    st.integers(0, 255)
                )
        elif damage == "overlong":
            buf += data.draw(st.binary(min_size=1, max_size=6))
            nbits = data.draw(st.integers(nbits, 8 * len(buf)))
        end_bit = data.draw(
            st.one_of(st.just(nbits), st.integers(start, nbits)), label="end_bit"
        )
        args = (head, head_h, d, w, gamma, lossy)
        fast = _decode_outcome(
            _bits_py.decode_records, bytes(buf), nbits, start, args, end_bit
        )
        slow = _decode_outcome(
            bitwise_decode_records, bytes(buf), nbits, start, args, end_bit
        )
        assert fast == slow
        if damage == "none" and end_bit == nbits:
            assert fast == ((list(coords), list(heights)), nbits)

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


class TestBackendParity:
    @pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernels not built")
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**31 - 1), st.integers(-40, 40)), max_size=80
        )
    )
    @settings(deadline=None, max_examples=150)
    def test_identical_streams(self, pairs):
        streams = []
        for kern in BACKENDS:
            w = kern.BitWriter()
            for v, s in pairs:
                w.write_gamma(v)
                w.write_signed_gamma(s)
            streams.append((w.getvalue(), w.bit_length))
        assert streams[0] == streams[1]

    @pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernels not built")
    def test_interleave_parity(self):
        import random

        rng = random.Random(5)
        py, cy = BACKENDS
        for d, w in [(2, 5), (2, 32), (3, 16), (3, 21), (3, 32)]:
            for _ in range(200):
                p = tuple(rng.randrange(1 << w) for _ in range(d))
                key = py.interleave(p, w)
                assert cy.interleave(p, w) == key
                assert cy.deinterleave(key, d, w) == p == py.deinterleave(key, d, w)

    @pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernels not built")
    @given(record_streams())
    @settings(deadline=None, max_examples=200)
    def test_record_parity(self, stream):
        d, w, gamma, lossy, head, head_h, coords, heights = stream
        outcomes = []
        for kern in BACKENDS:
            writer = kern.BitWriter()
            bits = kern.encode_records(
                writer, head, head_h, coords, heights, gamma, lossy
            )
            data, nbits = writer.getvalue(), writer.bit_length
            reader = kern.BitReader(data, nbits)
            decoded = kern.decode_records(
                reader, head, head_h, d, w, gamma, lossy, nbits
            )
            outcomes.append((bits, data, nbits, decoded, reader.tell()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3] == (list(coords), list(heights))
