#!/usr/bin/env python3
"""Benchmark the pure-Python bit kernels against the compiled extension.

Times the hot paths behind store construction and queries: block record
encoding, block record decoding, and Morton key computation.  Before
timing, each backend must decode its own streams back to exactly the
encoded points and heights, and its Morton keys must match the bit-by-bit
definition; a backend that fails either check stops the script.

    python benchmarks/bench_codec.py --n 200000 --w 16 --gamma 5
"""

import argparse
import importlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pqc.geom import round_set  # noqa: E402
from pqc.morton import Config  # noqa: E402
from pqc.reference import EpsilonNetSpec, generate_epsilon_net  # noqa: E402


def load_backends():
    mods = [importlib.import_module("pqc._bits_py")]
    try:
        mods.append(importlib.import_module("pqc._bits_c"))
    except ImportError:
        print("note: compiled kernels not built; benchmarking pure Python only")
    return mods


def make_blocks(cfg, n, block_size):
    import math

    cols = math.isqrt(n - 1) + 1
    f0 = int(cfg.coord_limit / cols / 1.15)
    if f0 < 2:
        raise SystemExit(f"domain 2^{cfg.w} too small for n={n}")
    spec = EpsilonNetSpec.fill(f0=f0, epsilon=0.9, cfg=cfg)
    pts = generate_epsilon_net(spec, cfg, seed=7)[:n]
    if len(pts) < n:
        raise SystemExit(f"domain too small for n={n}; got {len(pts)} points")
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
    return pts, blocks


def check_backend(mod, cfg, blocks, payloads, pts):
    """Exit unless ``mod`` decodes every block to its encoded records and
    keys every point as the bit loop does."""
    for (data, bits), (head, head_h, coords, heights) in zip(payloads, blocks):
        r = mod.BitReader(data, bits)
        got = mod.decode_records(r, head, head_h, cfg.d, cfg.w, cfg.gamma, True, bits)
        if got != (coords, heights) or r.tell() != bits:
            raise SystemExit(f"{mod.BACKEND}: decode does not return the encoded block")
    for p in pts:
        key = 0
        for bit in range(cfg.w - 1, -1, -1):
            for c in p:
                key = (key << 1) | ((c >> bit) & 1)
        if mod.interleave(p, cfg.w) != key:
            raise SystemExit(f"{mod.BACKEND}: wrong Morton key for {p}")


def bench(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
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
    pts, blocks = make_blocks(cfg, args.n, 2 * cfg.w)
    n = sum(1 + len(b[2]) for b in blocks)
    results = {}

    for mod in load_backends():
        name = mod.BACKEND

        def encode_all():
            total = 0
            for head, head_h, coords, heights in blocks:
                w = mod.BitWriter()
                total += mod.encode_records(w, head, head_h, coords, heights, cfg.gamma, True)
            return total

        payloads = []
        for head, head_h, coords, heights in blocks:
            w = mod.BitWriter()
            mod.encode_records(w, head, head_h, coords, heights, cfg.gamma, True)
            payloads.append((w.getvalue(), w.bit_length))

        check_backend(mod, cfg, blocks, payloads, pts)

        def decode_all():
            out = 0
            for (data, bits), (head, head_h, _c, _h) in zip(payloads, blocks):
                r = mod.BitReader(data, bits)
                cs, hs = mod.decode_records(
                    r, head, head_h, cfg.d, cfg.w, cfg.gamma, True, bits
                )
                out += len(cs)
            return out

        def interleave_all():
            acc = 0
            for p in pts:
                acc ^= mod.interleave(p, cfg.w)
            return acc

        results[name] = {
            "encode": bench(encode_all, args.repeat),
            "decode": bench(decode_all, args.repeat),
            "morton": bench(interleave_all, args.repeat),
        }

    print(f"\n{n} points, best of {args.repeat} runs (seconds; Mpts/s in parens)")
    header = f"{'kernel':<10}" + "".join(f"{k:>22}" for k in ("encode", "decode", "morton"))
    print(header)
    for name, row in results.items():
        cells = "".join(
            f"{row[k]:>14.4f} ({n / row[k] / 1e6:>5.2f})" for k in ("encode", "decode", "morton")
        )
        print(f"{name:<10}{cells}")
    if len(results) == 2:
        py, cy = results["python"], results["cython"]
        print(
            "speedup: "
            + ", ".join(f"{k} {py[k] / cy[k]:.1f}x" for k in ("encode", "decode", "morton"))
        )


if __name__ == "__main__":
    main()
