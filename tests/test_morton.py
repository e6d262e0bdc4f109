"""Morton keys, trie squares, and the bit tricks under everything else."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqc.errors import DomainError
from pqc.morton import (
    Config,
    TrieSquare,
    clear_low_bits,
    interleave,
    interleave_all,
    square_key_range,
    validate_square,
)
from pqc.reference import child, deinterleave, neighbours, square_contains

CFG5 = Config(d=2, w=5, gamma=0)


def trie_walk_common_square(p, q, cfg):
    """Oracle: descend the explicit trie from the root while both points fit."""
    corner = tuple(0 for _ in range(cfg.d))
    h = cfg.w
    while h > 0:
        half = 1 << (h - 1)
        idx_p = tuple((p[a] - corner[a]) >= half for a in range(cfg.d))
        idx_q = tuple((q[a] - corner[a]) >= half for a in range(cfg.d))
        if idx_p != idx_q:
            break
        corner = tuple(corner[a] + (half if idx_p[a] else 0) for a in range(cfg.d))
        h -= 1
    return TrieSquare(corner, h)


class TestInterleave:
    def test_figure_points(self):
        cfg = Config(d=2, w=3)
        assert interleave((3, 5), cfg) == 0b011011 == 27
        assert interleave((4, 2), cfg) == 0b100100 == 36

    def test_origin(self):
        assert interleave((0, 0), Config(d=2, w=3)) == 0

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_bijection_exhaustive(self, w):
        cfg = Config(d=2, w=w, gamma=0)
        seen = set()
        for x in range(1 << w):
            for y in range(1 << w):
                key = interleave((x, y), cfg)
                assert deinterleave(key, cfg) == (x, y)
                seen.add(key)
        assert seen == set(range(1 << (2 * w)))

    @pytest.mark.parametrize("d,w", [(2, 32), (3, 32), (3, 16)])
    def test_bijection_random(self, d, w):
        cfg = Config(d=d, w=w)
        rng = random.Random(0xC0FFEE + d * w)
        for _ in range(500):
            p = tuple(rng.randrange(1 << w) for _ in range(d))
            assert deinterleave(interleave(p, cfg), cfg) == p

    def test_key_width(self):
        cfg = Config(d=3, w=32)
        top = tuple([cfg.coord_max] * 3)
        assert interleave(top, cfg) == (1 << 96) - 1


def bit_loop_key(p, w):
    """Morton key by definition: bit i of every axis, axis 0 first, for i
    from w-1 down to 0."""
    key = 0
    for bit in range(w - 1, -1, -1):
        for c in p:
            key = (key << 1) | ((c >> bit) & 1)
    return key


class TestKernelInterleave:
    """``interleave`` (byte table, spread or bit loop, by the coordinates'
    width) and ``deinterleave`` against the bit-loop definition."""

    EDGES = [0, 0xFF, 0x100, 0xFFFF, 0x10000, 2**32 - 1]

    def test_table_edges(self):
        for x in self.EDGES:
            for y in self.EDGES:
                key = interleave((x, y), Config(d=2, w=32))
                assert key == bit_loop_key((x, y), 32)
                assert deinterleave(key, Config(d=2, w=32)) == (x, y)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_points_every_width(self, d):
        rng = random.Random(41 + d)
        for w in range(1, 33):
            cfg = Config(d=d, w=w)
            for _ in range(100):
                p = tuple(rng.randrange(1 << w) for _ in range(d))
                key = interleave(p, cfg)
                assert key == bit_loop_key(p, w)
                assert deinterleave(key, cfg) == p


class TestInterleaveAll:
    """The batch keying of decoded blocks against one ``interleave`` per
    point, on both sides of the inline d=2, w <= 16 table path."""

    EDGES = [0, 1, 0xFF, 0x100, 0xFFFF, 0x10000, 2**32 - 1]

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_width(self, d):
        rng = random.Random(7 + d)
        for w in range(1, 33):
            cfg = Config(d=d, w=w)
            edges = [c for c in self.EDGES if c < 1 << w] + [(1 << w) - 1]
            pts = [tuple(rng.choice(edges) for _ in range(d)) for _ in range(60)]
            pts += [tuple(rng.randrange(1 << w) for _ in range(d)) for _ in range(60)]
            assert interleave_all(pts, cfg) == [interleave(p, cfg) for p in pts]
        assert interleave_all([], Config(d=d, w=16)) == []


class TestCommonSquare:
    """The smallest trie square holding two points has height
    ceil(bitlen(key(p) ^ key(q)) / d): the count bracket of
    ``ArrayPointSource.leaf_heights`` rests on this."""

    @staticmethod
    def key_height(p, q, cfg):
        x = interleave(p, cfg) ^ interleave(q, cfg)
        return -(-x.bit_length() // cfg.d)

    def test_identical_points(self):
        assert self.key_height((5, 2), (5, 2), CFG5) == 0
        assert trie_walk_common_square((5, 2), (5, 2), CFG5) == TrieSquare((5, 2), 0)

    def test_examples(self):
        assert self.key_height((5, 2), (6, 3), CFG5) == 2
        assert self.key_height((6, 3), (8, 4), CFG5) == 4
        assert trie_walk_common_square((5, 2), (6, 3), CFG5) == TrieSquare((4, 0), 2)
        assert trie_walk_common_square((6, 3), (8, 4), CFG5) == TrieSquare((0, 0), 4)

    def test_matches_trie_walk(self):
        rng = random.Random(7)
        for _ in range(600):
            d = rng.choice((2, 3))
            cfg = Config(d=d, w=8)
            p = tuple(rng.randrange(256) for _ in range(d))
            q = tuple(rng.randrange(256) for _ in range(d))
            got = trie_walk_common_square(p, q, cfg)
            assert got.height == self.key_height(p, q, cfg)
            assert square_contains(got, p) and square_contains(got, q)
            if got.height > 0:
                # No child of the answer may hold both points.
                for i in range(1 << d):
                    c = child(got, i, cfg)
                    assert not (square_contains(c, p) and square_contains(c, q))


class TestNeighbour:
    def test_basic_translation(self):
        s = TrieSquare((4, 0), 2)
        assert TrieSquare((8, 0), 2) in set(neighbours(s, CFG5))

    def test_domain_lower_boundary(self):
        got = set(neighbours(TrieSquare((0, 0), 2), CFG5))
        assert got == {TrieSquare((4, 0), 2), TrieSquare((0, 4), 2), TrieSquare((4, 4), 2)}

    def test_domain_upper_boundary(self):
        cfg = Config(d=2, w=4)
        got = set(neighbours(TrieSquare((8, 8), 3), cfg))
        assert got == {TrieSquare((0, 0), 3), TrieSquare((0, 8), 3), TrieSquare((8, 0), 3)}

    def test_full_neighbourhood_count(self):
        cfg = Config(d=2, w=6)
        inner = TrieSquare((8, 8), 3)
        assert len(list(neighbours(inner, cfg))) == 8
        corner = TrieSquare((0, 0), 3)
        assert len(list(neighbours(corner, cfg))) == 3

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 10))
    @settings(deadline=None, max_examples=200)
    def test_alignment_preserved(self, x, y, h):
        cfg = Config(d=2, w=10)
        corner = clear_low_bits((x, y), h)
        s = TrieSquare(corner, h)
        validate_square(s, cfg)
        for nb in neighbours(s, cfg):
            validate_square(nb, cfg)


class TestChild:
    def test_index_zero_keeps_corner(self):
        assert child(TrieSquare((0, 0), 2), 0, CFG5) == TrieSquare((0, 0), 1)

    def test_index_three_offsets_both_axes(self):
        assert child(TrieSquare((0, 0), 2), 3, CFG5) == TrieSquare((2, 2), 1)

    def test_index_one_offsets_axis_zero(self):
        assert child(TrieSquare((4, 0), 1), 1, CFG5) == TrieSquare((5, 0), 0)

    def test_children_partition_parent(self):
        cfg = Config(d=2, w=4)
        parent = TrieSquare((8, 4), 2)
        cells = [child(parent, i, cfg) for i in range(4)]
        for x in range(8, 12):
            for y in range(4, 8):
                owners = [c for c in cells if square_contains(c, (x, y))]
                assert len(owners) == 1

    def test_leaf_has_no_children(self):
        with pytest.raises(DomainError):
            child(TrieSquare((5, 2), 0), 0, CFG5)


class TestSquareContains:
    def test_examples(self):
        s = TrieSquare((4, 0), 2)
        assert square_contains(s, (5, 2))
        assert not square_contains(s, (8, 4))
        assert square_contains(s, (4, 0))

    def test_key_range_matches_contains(self):
        cfg = Config(d=2, w=4)
        s = TrieSquare((4, 8), 2)
        lo, hi = square_key_range(s, cfg)
        for x in range(16):
            for y in range(16):
                key = interleave((x, y), cfg)
                assert (lo <= key < hi) == square_contains(s, (x, y))


class TestDfsOrder:
    def test_middle_point_stays_in_common_square(self):
        # Morton order is a depth-first traversal: anything between p and r
        # lies inside their smallest common square.
        cfg = Config(d=2, w=8)
        rng = random.Random(99)
        for _ in range(200):
            pts = sorted(
                ((rng.randrange(256), rng.randrange(256)) for _ in range(3)),
                key=lambda p: interleave(p, cfg),
            )
            p, q, r = pts
            assert square_contains(trie_walk_common_square(p, r, cfg), q)


class TestConfig:
    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            Config(d=4, w=8)

    def test_rejects_bad_width(self):
        with pytest.raises(DomainError):
            Config(d=2, w=33)

    def test_rejects_bad_gamma(self):
        with pytest.raises(DomainError):
            Config(d=2, w=8, gamma=9)

    def test_rho_coerced_rational(self):
        from fractions import Fraction

        cfg = Config(d=2, w=8, rho=Fraction(3, 2))
        assert cfg.rho == Fraction(3, 2)
