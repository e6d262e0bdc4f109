"""Smoke test of the benchmark's own code at tiny sizes.

    python3 -m pytest -q pqcbench
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_pqc()

import pipeline  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = pipeline.Sizes(
    compress_f0=8192,
    compress_calls=2,
    query_f0=4096,
    stream={"square_of": 10, "locate": 20, "vertices": 20, "voronoi": 8, "insert": 10},
    refine_f0=8192,
    refine_defects=2,
    refine_jobs=1,
)


def bench(tmp_path, trace, seed=3):
    lines = []
    result = run.run("tiny", TINY, seed, 0.0, trace, tmp_path, out=lines.append)
    json.dumps(result)  # the result line must serialise
    return result, lines


def metric_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("untraced"), trace=False)


def test_every_end_to_end_metric_is_printed(untraced):
    result, lines = untraced
    assert metric_units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        line = rf"metric {m['name']}=\S+ unit={re.escape(m['unit'])} samples=\d+"
        assert any(re.match(line, printed) for printed in lines)
        assert result["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("workload=tiny") and " backend=" in line for line in lines)


def test_oracle_checks_run(untraced):
    result, lines = untraced
    assert result["correct"] is True
    ops = [line for line in lines if line.startswith("ops kind=")]
    kinds = {re.search(r"kind=(\w+)", line).group(1) for line in ops}
    assert kinds == set(pipeline.OP_KINDS) | {"compress", "build", "load", "refine"}
    attempted = sum(int(re.search(r"attempted=(\d+)", line).group(1)) for line in ops)
    assert attempted == result["attempted"] == sum(TINY.stream.values()) + 4
    store_checks = [line for line in lines if line.startswith("check ok=")]
    assert len(store_checks) == 6 and all("ok=true" in line for line in store_checks)
    assert "check brute_voronoi_cells=0" not in lines


def test_work_counts_repeat_for_a_seed(untraced, tmp_path):
    _, lines = untraced
    _, again = bench(tmp_path, trace=False)

    def counts(ls):
        return [line for line in ls if line.startswith(("counters ", "digest="))]

    assert counts(lines) and counts(lines) == counts(again)


def test_traced_run_reports_the_per_layer_metrics(tmp_path):
    result, lines = bench(tmp_path, trace=True)
    assert result["correct"] is True
    assert metric_units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["metrics"]["codec.decode.calls"]["value"] > 0
    assert result["metrics"]["ingest.passes"]["value"] == 16
    assert any(line.startswith("trace_file=") for line in lines)


def test_speed_probes_are_taken_out_of_timed_intervals():
    from speed import SpeedClock, calibration_loop

    clock = SpeedClock()
    with clock.sampling():
        start = clock.now()
        while clock.busy(start, clock.now()) < 0.2:
            calibration_loop()
        end = clock.now()
    assert len(clock.took) >= 5
    assert clock.busy(start, end) < end[0] - start[0]
    assert 0 < clock.scaled(start, end)
