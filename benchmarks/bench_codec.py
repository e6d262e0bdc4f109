#!/usr/bin/env python3
"""Benchmark store construction and the bit kernels (record codes, Morton keys).

Times the hot paths behind store construction and queries: ``round_set``
of the generated net (leaf-height sweep and rounding), the sweep alone
(``ArrayPointSource.leaf_heights`` on a source built beforehand),
``CompressedStore.build`` of its output on the kernel ``pqc`` selected,
``read_multiscan`` of a fixed 3,136-point net (with its count of
``CompressedStore.successor_rank`` calls), block record encoding and
decoding, for version-1 (gamma) and version-2 (Exp-Golomb) records on the
pure-Python kernel and on the compiled kernel ``_bits_ext`` when it is
built, and Morton key computation.  Every figure is the best process CPU
time of ``--repeat`` runs.  Before timing, each record code must decode
its own streams back to exactly the encoded points and heights, the
Morton keys must match the bit-by-bit definition, and the multiscan must
decode like ``round_set`` + ``build``; a failed check stops the script.
It also counts the records a cold-cache ``successor_rank`` decodes on the
store of that fixed net, for one key in each block: a first pass on a
fresh store, which has no resume points, and a second pass over the same
keys, with the resume points the first left.  Counts are the same on
every machine.

    python benchmarks/bench_codec.py --n 200000 --w 16 --gamma 5
"""

import argparse
import importlib
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pqc import KERNEL_BACKEND, _bits_py, codec  # noqa: E402
from pqc.geom import round_set  # noqa: E402
from pqc.ingest import MemoryPointReader, read_multiscan  # noqa: E402
from pqc.morton import Config, interleave  # noqa: E402
from pqc.qtree import ArrayPointSource  # noqa: E402
from pqc.reference import EpsilonNetSpec, generate_epsilon_net  # noqa: E402
from pqc.store import LOSSY, CompressedStore  # noqa: E402

MULTISCAN_N = 3136  # points of the multiscan net, whatever --n is


def load_kernels():
    """``pqc._bits_py``, and ``pqc._bits_ext`` when it is built."""
    mods = [_bits_py]
    try:
        mods.append(importlib.import_module("pqc._bits_ext"))
    except ImportError:
        print("note: compiled kernel _bits_ext not built")
    return mods


def record_codes(mods):
    """(name, encode, decode) of every lossy record code: version 1 (gamma)
    and version 2 (Exp-Golomb of order gamma) on each kernel."""
    codes = [(f"v1-{m.BACKEND}", m.encode_records, m.decode_records) for m in mods]
    for m in mods:
        codes.append((f"v2-{m.BACKEND}", m.encode_records_v2, m.decode_records_v2))
    return codes


def make_net(cfg, n):
    """The first ``n`` points of a jittered epsilon-net (seed 7) that fills
    the domain with about ``n`` points."""
    cols = math.isqrt(n - 1) + 1
    f0 = int(cfg.coord_limit / cols / 1.15)
    if f0 < 2:
        raise SystemExit(f"domain 2^{cfg.w} too small for n={n}")
    spec = EpsilonNetSpec.fill(f0=f0, epsilon=0.9, cfg=cfg)
    pts = generate_epsilon_net(spec, cfg, seed=7)[:n]
    if len(pts) < n:
        raise SystemExit(f"domain too small for n={n}; got {len(pts)} points")
    return pts


def make_blocks(cfg, n, block_size):
    pts = make_net(cfg, n)
    heighted = round_set(pts, cfg)
    blocks = []
    for i in range(0, len(heighted), block_size):
        chunk = heighted[i : i + block_size]
        blocks.append(
            (
                chunk[0].coords,
                chunk[0].height,
                [hp.coords for hp in chunk[1:]],
                [hp.height for hp in chunk[1:]],
            )
        )
    return pts, heighted, blocks


def check_code(name, decode, cfg, blocks, payloads):
    """Exit unless ``decode`` returns every block's encoded records."""
    for (data, bits), (head, head_h, coords, heights) in zip(payloads, blocks):
        r = _bits_py.BitReader(data, bits)
        got = decode(r, head, head_h, cfg.d, cfg.w, cfg.gamma, True, bits)
        if got != (coords, heights) or r.tell() != bits:
            raise SystemExit(f"{name}: decode does not return the encoded block")


def check_morton(cfg, pts):
    """Exit unless ``interleave`` keys every point as the bit loop does."""
    for p in pts:
        key = 0
        for bit in range(cfg.w - 1, -1, -1):
            for c in p:
                key = (key << 1) | ((c >> bit) & 1)
        if interleave(p, cfg) != key:
            raise SystemExit(f"wrong Morton key for {p}")


def successor_searches(fn):
    """``fn()`` and the number of ``CompressedStore.successor_rank`` calls
    it made."""
    calls = 0
    search = CompressedStore.successor_rank

    def counted(self, key):
        nonlocal calls
        calls += 1
        return search(self, key)

    CompressedStore.successor_rank = counted
    try:
        return fn(), calls
    finally:
        CompressedStore.successor_rank = search


def records_per_search(store, rounds=10, seed=5):
    """Mean records decoded per cold-cache ``successor_rank`` on ``store``,
    (first pass, second pass).  Each round loads a fresh copy, draws one
    key inside each block's key range and searches every key twice over:
    first with no resume points set, then with those the first pass left.
    """
    rng = random.Random(seed)
    data = store.to_bytes()
    decoded = 0
    decode = codec.decode_records

    def counted(*args):
        nonlocal decoded
        coords, heights = decode(*args)
        decoded += len(coords)
        return coords, heights

    totals, searches = [0, 0], 0
    codec.decode_records = counted
    try:
        for _ in range(rounds):
            fresh = CompressedStore.from_bytes(data)
            heads = fresh._head_keys + [1 << (fresh.cfg.d * fresh.cfg.w)]
            keys = [rng.randrange(lo + 1, hi) for lo, hi in zip(heads, heads[1:])]
            searches += len(keys)
            for side in (0, 1):
                for key in keys:
                    fresh._cache.clear()
                    decoded = 0
                    fresh.successor_rank(key)
                    totals[side] += decoded
    finally:
        codec.decode_records = decode
    return totals[0] / searches, totals[1] / searches


def bench(fn, repeat):
    """Best process CPU time of ``repeat`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--w", type=int, default=16)
    ap.add_argument("--gamma", type=int, default=5)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    cfg = Config(d=2, w=args.w, gamma=args.gamma)
    print(f"building {args.n} rounded points (d=2, w={args.w}, gamma={args.gamma})...")
    pts, heighted, blocks = make_blocks(cfg, args.n, 2 * cfg.w)
    n = sum(1 + len(b[2]) for b in blocks)
    codes = {}

    for name, encode, decode in record_codes(load_kernels()):

        def encode_all():
            total = 0
            for head, head_h, coords, heights in blocks:
                w = _bits_py.BitWriter()
                total += encode(w, head, head_h, coords, heights, cfg.gamma, True)
            return total

        payloads = []
        for head, head_h, coords, heights in blocks:
            w = _bits_py.BitWriter()
            encode(w, head, head_h, coords, heights, cfg.gamma, True)
            payloads.append((w.getvalue(), w.bit_length))

        check_code(name, decode, cfg, blocks, payloads)

        def decode_all():
            out = 0
            for (data, bits), (head, head_h, _c, _h) in zip(payloads, blocks):
                r = _bits_py.BitReader(data, bits)
                cs, hs = decode(r, head, head_h, cfg.d, cfg.w, cfg.gamma, True, bits)
                out += len(cs)
            return out

        codes[name] = {
            "bits_per_record": sum(bits for _, bits in payloads) / (n - len(blocks)),
            "encode": bench(encode_all, args.repeat),
            "decode": bench(decode_all, args.repeat),
        }

    check_morton(cfg, pts)

    def interleave_all():
        acc = 0
        for p in pts:
            acc ^= interleave(p, cfg)
        return acc

    morton = bench(interleave_all, args.repeat)
    round_s = bench(lambda: round_set(pts, cfg), args.repeat)
    sweep_s = bench(ArrayPointSource(pts, cfg).leaf_heights, args.repeat)
    build_s = bench(lambda: CompressedStore.build(heighted, cfg, LOSSY), args.repeat)

    scan_pts = make_net(cfg, MULTISCAN_N)

    def multiscan():
        return read_multiscan(MemoryPointReader(scan_pts, cfg), cfg, LOSSY)

    scanned, searches = successor_searches(multiscan)
    built = CompressedStore.build(round_set(scan_pts, cfg), cfg, LOSSY)
    if scanned.decode_all() != built.decode_all():
        raise SystemExit("read_multiscan does not decode like round_set + build")
    multiscan_s = bench(multiscan, args.repeat)
    first, second = records_per_search(built)

    print(f"\n{n} points, best of {args.repeat} runs (CPU seconds; Mpts/s in parens)")
    sides = ("encode", "decode")
    print(f"{'records':<16}{'bits/record':>12}" + "".join(f"{k:>22}" for k in sides))
    for name, row in codes.items():
        cells = "".join(f"{row[k]:>14.4f} ({n / row[k] / 1e6:>5.2f})" for k in sides)
        print(f"{name:<16}{row['bits_per_record']:>12.2f}{cells}")
    print(f"{'morton':<28}{morton:>14.4f} ({n / morton / 1e6:>5.2f})")
    print(f"{'round_set':<28}{round_s:>14.4f} ({n / round_s / 1e6:>5.2f})")
    print(f"{'leaf_heights':<28}{sweep_s:>14.4f} ({n / sweep_s / 1e6:>5.2f})")
    build = f"build ({KERNEL_BACKEND})"
    print(f"{build:<28}{build_s:>14.4f} ({n / build_s / 1e6:>5.2f})")
    scan = f"read_multiscan n={MULTISCAN_N}"
    print(f"{scan:<28}{multiscan_s:>14.4f}  successor_rank calls={searches}")
    print(
        f"records decoded per cold successor_rank, n={MULTISCAN_N}: "
        f"first pass {first:.2f}, second pass {second:.2f}"
    )


if __name__ == "__main__":
    main()
