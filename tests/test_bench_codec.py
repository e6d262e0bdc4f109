"""Smoke test of ``benchmarks/bench_codec.py``, which no other test runs:
it imports, each record code it times round-trips a few blocks on every
kernel, and the version-1 and version-2 files it times load to the store
they came from."""

import importlib.util
from pathlib import Path

from conftest import compiled_kernel
from pqc import _bits_py
from pqc.geom import round_set
from pqc.morton import Config
from pqc.store import LOSSY, CompressedStore

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_codec.py"
CFG = Config(d=2, w=16, gamma=5)


def _bench_codec():
    spec = importlib.util.spec_from_file_location("bench_codec", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_record_code_round_trips():
    bench = _bench_codec()
    mods = bench.load_kernels()
    kernel = compiled_kernel()
    if kernel is not None and kernel.BACKEND not in {m.BACKEND for m in mods}:
        mods.append(kernel)
    codes = bench.record_codes(mods)
    assert [name for name, _, _ in codes] == [m.BACKEND for m in mods]
    _, heighted, blocks = bench.make_blocks(CFG, 200, 2 * CFG.w)
    for name, encode, decode in codes:
        payloads = []
        for head, head_h, coords, heights in blocks:
            w = _bits_py.BitWriter()
            encode(w, head, head_h, coords, heights, CFG.gamma, True)
            payloads.append((w.getvalue(), w.bit_length))
        bench.check_code(name, decode, CFG, blocks, payloads)
    head = heighted[0]
    rest = heighted[1:]
    args = ([hp.coords for hp in rest], [hp.height for hp in rest], CFG.gamma, True)
    bench.check_kernels_agree(mods, (head.coords, head.height, *args))


def _loads_to_its_store(version):
    bench = _bench_codec()
    store = CompressedStore.build(round_set(bench.make_net(CFG, 200), CFG), CFG, LOSSY)
    data = bench.older_file(store, version)
    assert data[4] == version
    loaded = CompressedStore.from_bytes(data)
    assert loaded.decode_all() == store.decode_all()
    assert loaded.to_bytes() == store.to_bytes()


def test_version_1_file_loads_to_its_store():
    _loads_to_its_store(1)


def test_version_2_file_loads_to_its_store():
    _loads_to_its_store(2)
