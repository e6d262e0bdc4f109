#!/usr/bin/env python3
"""Seeded end-to-end benchmark of pqc, with an optional traced run.

    python3 pqcbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up its inputs from the seed, measures whole passes over the
stages until ``--seconds`` of measuring has elapsed (at least one pass),
checks every answer against uncompressed oracles and prints a report.
The last line is one JSON object: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a further, traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".pqcbench_work"
TRACE_DIR = ROOT / ".pqcbench_out"


def import_pqc():
    """Import pqc from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "pqc" / "__init__.py").is_file():
        raise SystemExit(f"pqcbench: no pqc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pqc

    if Path(pqc.__file__).resolve().parent != (SRC / "pqc").resolve():
        raise SystemExit(f"pqcbench: imported pqc from {pqc.__file__}, not {SRC}")
    return pqc


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(workload: str, sizes, seed: int, seconds: float, trace: bool, work: Path, out=print):
    """Run one workload; print the report and return the result object."""
    import pqc
    import pipeline
    from speed import NOMINAL_S, PROBE_EVERY_S, SpeedClock
    from tracing import KernelTally, Tracer

    clock = SpeedClock()
    tally = KernelTally()
    traced = None
    setup_times, units, measured = [], [], 0.0
    with clock.sampling():
        for _ in range(pipeline.SETUP_REPEATS):
            t0 = clock.now()
            inputs = pipeline.set_up(sizes, seed, work)
            setup_times.append((t0, clock.now()))
    undo_tally = tally.install()
    try:
        with clock.sampling():
            while not units or (measured < seconds and not trace):
                # The traced run needs one untraced pass, without repeats, to
                # compare the traced pass's wall time with.
                units.append(pipeline.run_unit(inputs, work, tally, clock, repeat=not trace))
                measured += units[-1].wall_s
        if trace:
            # Without probes, which would count in the self time of spans.
            tracer = Tracer()
            undo_trace = tracer.install()
            tracer.enabled = True
            try:
                traced = pipeline.run_unit(inputs, work, tally, clock, tracer, repeat=False)
            finally:
                tracer.enabled = False
                undo_trace()
            peaks = pipeline.traced_peaks(inputs, work)
            layer = pipeline.per_layer(tracer, traced, traced.wall_s, units[0].wall_s, peaks)
            TRACE_DIR.mkdir(exist_ok=True)
            trace_file = TRACE_DIR / f"trace-{workload}.spans"
            tracer.write(trace_file)
    finally:
        undo_tally()

    # Every pass is checked; a pass whose answers and stores hash like the
    # first one's has the same verdicts, so its checks are not rerun.
    checked = units + ([traced] if traced else [])
    first_digest = checked[0].digest()
    first_checks = pipeline.check_unit(inputs, checked[0], sizes, seed)
    all_checks = [first_checks]
    problems = [name for name, ok in first_checks.store_checks if not ok]
    for unit in checked[1:]:
        if unit.digest() == first_digest:
            all_checks.append(first_checks)
        else:
            problems.append("a later pass gave other answers than the first")
            checks = pipeline.check_unit(inputs, unit, sizes, seed)
            problems += [name for name, ok in checks.store_checks if not ok]
            all_checks.append(checks)
        if unit.counters != checked[0].counters:
            problems.append("work counts differ between passes")

    attempted, failed = {}, {}
    for checks in all_checks:
        for kind, n in checks.attempted.items():
            attempted[kind] = attempted.get(kind, 0) + n
        for kind, n in checks.failed.items():
            failed[kind] = failed.get(kind, 0) + n

    out(
        f"workload={workload} seed={seed} backend={pqc.KERNEL_BACKEND} trace={int(trace)} "
        f"load=closed-loop,callers=1,processes=1 passes={len(units)}"
    )
    out(
        f"speed probes={len(clock.took)} probe_p50_ms={_fmt(statistics.median(clock.took) * 1e3)} "
        f"nominal_ms={_fmt(NOMINAL_S * 1e3)} every_ms={_fmt(PROBE_EVERY_S * 1e3)}"
    )
    e2e = pipeline.end_to_end(units, setup_times, clock)
    for name, (value, unit, samples) in e2e.items():
        out(f"metric {name}={_fmt(value)} unit={unit} samples={samples}")
    for kind in sorted(attempted):
        line = f"ops kind={kind} attempted={attempted[kind]} failed={failed.get(kind, 0)}"
        if kind in first_checks.first_failure:
            line += f" first_failure={first_checks.first_failure[kind]!r}"
        out(line)
    for kind, counts in units[0].counters.items():
        out(f"counters kind={kind} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for name, ok in first_checks.store_checks:
        out(f"check ok={str(ok).lower()} {name}")
    out(f"check brute_voronoi_cells={first_checks.brute_cells}")
    out(f"digest={first_digest}")

    if trace:
        for name, (value, unit) in layer.items():
            out(f"layer {name}={_fmt(value)} unit={unit}")
        out(f"trace_file={trace_file.relative_to(ROOT)} spans={len(tracer.span_start)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    for problem in problems:
        out(f"problem {problem}")
    return {
        "correct": not problems,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    import_pqc()
    import pipeline

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(
            args.workload,
            pipeline.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
