"""A work budget: the output bytes and the record-kernel work of one small
seeded pipeline, pinned exactly.

Each stage runs on the pure-Python kernel and records the sha256 of the
bytes it saves, plus the calls of ``codec.encode_records`` and
``codec.decode_records`` and the records they encoded and decoded.
Every read and write of records goes through those two functions, so the
counts are the pipeline's whole kernel work, and they are the same on
every machine.  The one exception is the gamma-coded lossy records of
format version 1, which the load of such a file reads with
``_bits_py.decode_gamma_records`` itself; no stage loads one.  A load
stage loads the file that one build stage saved and saves the loaded
store again, and counts that load and save alone.  A change that moves a
constant here changes the bytes or the work of the pipeline; it says so
where it is described, and updates the constant it moved.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import jittered_net, random_points
from pqc import _bits_py, codec
from pqc.geom import HeightedPoint, round_set
from pqc.ingest import MemoryPointReader, read_multiscan
from pqc.morton import Config, interleave
from pqc.refine import RefineParams, refine
from pqc.store import LOSSLESS, LOSSY, CompressedStore


class Tally:
    """Wraps ``codec.encode_records`` and ``codec.decode_records`` for one
    stage and counts their calls and records."""

    def __init__(self, monkeypatch):
        self.encode_calls = self.encoded = self.decode_calls = self.decoded = 0
        encode, decode = codec.encode_records, codec.decode_records

        def counted_encode(writer, prev, prev_h, coords_seq, *rest):
            self.encode_calls += 1
            self.encoded += len(coords_seq)
            return encode(writer, prev, prev_h, coords_seq, *rest)

        def counted_decode(*args):
            coords, heights = decode(*args)
            self.decode_calls += 1
            self.decoded += len(coords)
            return coords, heights

        monkeypatch.setattr(codec, "_impl", _bits_py)
        monkeypatch.setattr(codec, "encode_records", counted_encode)
        monkeypatch.setattr(codec, "decode_records", counted_decode)

    def budget(self, data):
        """(sha256 of ``data``, encode calls, records encoded, decode
        calls, records decoded)."""
        return (
            hashlib.sha256(data).hexdigest(),
            self.encode_calls,
            self.encoded,
            self.decode_calls,
            self.decoded,
        )


def _build(cfg, mode):
    pts = random_points(cfg, 3, 400) if cfg.d == 3 else jittered_net(cfg, 3, f0=3000)
    if mode == LOSSY:
        hps = round_set(pts, cfg)
    else:
        pts.sort(key=lambda p: interleave(p, cfg))
        hps = [HeightedPoint(p, 0) for p in pts]
    return CompressedStore.build(hps, cfg, mode).to_bytes()


def _multiscan():
    cfg = Config(d=2, w=12, gamma=4)
    pts = jittered_net(cfg, 5, f0=200)
    assert 250 <= len(pts) <= 500
    return read_multiscan(MemoryPointReader(pts, cfg), cfg, LOSSY).to_bytes()


def _inserts():
    # A lossy store of a sparse net, then 300 seeded inserts at heights up
    # to gamma (so no rounding applies): enough to split blocks.
    cfg = Config(d=2, w=12, gamma=4)
    store = CompressedStore.build(round_set(jittered_net(cfg, 7, f0=400), cfg), cfg)
    blocks = store.block_count
    stored = {hp.coords for hp in store.decode_all()}
    target = len(stored) + 300
    rng = random.Random(11)
    while store.count() < target:
        p = (rng.randrange(cfg.coord_limit), rng.randrange(cfg.coord_limit))
        if p not in stored:
            stored.add(p)
            store.insert(p, rng.randrange(cfg.gamma + 1))
    assert store.block_count > blocks
    return store.to_bytes()


def _refine():
    cfg = Config(d=2, w=10, gamma=4, rho=Fraction(2))
    pts = jittered_net(cfg, 3, f0=96)
    pts.append((pts[20][0] + 9, pts[20][1]))
    store = CompressedStore.build(round_set(pts, cfg), cfg, LOSSY)
    store, report = refine(store, RefineParams(rho=Fraction(2), gamma=4))
    assert report.steiner_count > 0
    return store.to_bytes()


STAGES = {
    "build-lossy-d2": lambda: _build(Config(d=2, w=16, gamma=5), LOSSY),
    "build-lossless-d2": lambda: _build(Config(d=2, w=16, gamma=5), LOSSLESS),
    "build-lossy-d3": lambda: _build(Config(d=3, w=10, gamma=3), LOSSY),
    "build-lossless-d3": lambda: _build(Config(d=3, w=10, gamma=3), LOSSLESS),
    "multiscan": _multiscan,
    "inserts": _inserts,
    "refine": _refine,
}

# (sha256 of the saved bytes, encode calls, records encoded, decode calls,
# records decoded) of each stage.
BUDGET = {
    "build-lossy-d2": (
        "6219581a3952c0d7c4be8d60dafcb9784f01496a6b81978eada36d2091b99653",
        12, 349, 0, 0,
    ),
    "build-lossless-d2": (
        "a45a4fc3fd1320f02faa0638bc20997c6cde010e5d3267e1a6f82de27b760105",
        12, 349, 0, 0,
    ),
    "build-lossy-d3": (
        "205081b0ebcc356129072702e97a1db51086190474ea7bc0bb14aabccdbf3cb1",
        20, 380, 0, 0,
    ),
    "build-lossless-d3": (
        "d41e9953eae954b391076b874598c1cf547abb568b76f239aef56fe8a04668e1",
        20, 380, 0, 0,
    ),
    "multiscan": (
        "25fc910a1721be37d8045b54cde22182e617e20e72fd27840a81ae74939a4159",
        3287, 53268, 3699, 52953,
    ),
    "inserts": (
        "3bc2693ddcbc7413e30f983f963db5d5fe09b3355d580a16eb2d4377821791dc",
        339, 5635, 327, 5347,
    ),
    "refine": (
        "5a1fe0a3c35e93092ee0d377266f1a0adbf467e5ac4363311e5d64b1645ef2ec",
        32, 437, 279, 1521,
    ),
    "load-lossy-d2": (
        "6219581a3952c0d7c4be8d60dafcb9784f01496a6b81978eada36d2091b99653",
        0, 0, 12, 349,
    ),
    "load-lossless-d2": (
        "a45a4fc3fd1320f02faa0638bc20997c6cde010e5d3267e1a6f82de27b760105",
        0, 0, 12, 349,
    ),
    "load-lossy-d3": (
        "205081b0ebcc356129072702e97a1db51086190474ea7bc0bb14aabccdbf3cb1",
        0, 0, 20, 380,
    ),
    "load-lossless-d3": (
        "d41e9953eae954b391076b874598c1cf547abb568b76f239aef56fe8a04668e1",
        0, 0, 20, 380,
    ),
}


# Each load stage and the build stage whose file it loads.
LOADS = {"load-" + name[len("build-"):]: name for name in STAGES if name.startswith("build-")}


@pytest.mark.parametrize("stage", list(STAGES))
def test_work_budget(monkeypatch, stage):
    tally = Tally(monkeypatch)
    data = STAGES[stage]()
    assert tally.budget(data) == BUDGET[stage]


@pytest.mark.parametrize("stage", list(LOADS))
def test_load_budget(monkeypatch, stage):
    data = STAGES[LOADS[stage]]()
    tally = Tally(monkeypatch)
    saved = CompressedStore.from_bytes(data).to_bytes()
    assert saved == data
    assert tally.budget(saved) == BUDGET[stage]
