"""Shared generators for the test suite."""

import random

import pytest

from pqc.morton import Config
from pqc.reference import EpsilonNetSpec, generate_epsilon_net


def jittered_net(cfg, seed, f0=32, epsilon=0.9, cols=None, rows=None, origin=(0, 0)):
    """Deterministic jittered grid satisfying the epsilon-net clauses.

    By default the grid tiles the whole domain box, which keeps boundary
    Voronoi cells shapely; pass cols/rows to lay a partial grid instead.
    """
    if cols is None:
        spec = EpsilonNetSpec.fill(f0, epsilon, cfg)
    else:
        spec = EpsilonNetSpec(
            f0=f0, epsilon=epsilon, cols=cols, rows=rows or cols, origin=origin
        )
    return generate_epsilon_net(spec, cfg, seed)


def random_points(cfg, seed, n, lo=0, hi=None):
    """n distinct uniform grid points; no spacing guarantees."""
    rng = random.Random(seed)
    hi = cfg.coord_limit if hi is None else hi
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(lo, hi) for _ in range(cfg.d)))
    return sorted(pts)


def clustered_points(cfg, seed, n):
    """n distinct 2D points in tight clumps of mixed spread plus a sparse
    background.  Most Voronoi cells reach past a small multiple of their
    nearest-neighbour distance, so clipped cells are mostly clip-bounded."""
    rng = random.Random(seed)
    lim = cfg.coord_limit
    pts = set()
    while len(pts) < n:
        if rng.random() < 0.1:
            pts.add((rng.randrange(lim), rng.randrange(lim)))
            continue
        cx, cy = rng.randrange(lim), rng.randrange(lim)
        spread = rng.choice((2, 8, 32))
        for _ in range(rng.randint(2, 4)):
            p = (cx + rng.randint(-spread, spread), cy + rng.randint(-spread, spread))
            if 0 <= p[0] < lim and 0 <= p[1] < lim:
                pts.add(p)
    return sorted(pts)[:n]
