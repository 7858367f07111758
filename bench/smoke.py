"""Smoke check of the benchmark: run every workload at minimum length,
with and without tracing, print every metric by name and unit, and check
what the result line reports.

    python3 bench/smoke.py

Asserts that every metric BENCHMARK.json names appears with its unit,
that outputs pass their checks, that bench/layer_map.json predicts
something for every per-layer metric, and that the traced spans cover
at least 90% of experiments.realize_user_rates on both realization
workloads. Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REALIZATION_WORKLOADS = {"paper-40x20", "distinct-50x40-corr"}


def result_line(workload: str, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())["metrics"]
    for metric in spec["per_layer"]:
        name = metric["name"]
        layer = name.removesuffix(".calls")  # calls share their layer's entry
        assert any(n in layer_map for n in (name, layer + ".s",
                                            layer + ".self_s")), \
            f"layer_map.json has no entry for {name}"

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = result_line(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            for metric in expected:
                got = result["metrics"].get(metric["name"])
                assert got is not None, f"{workload}: {metric['name']} missing"
                assert got["unit"] == metric["unit"], (workload, metric, got)
                assert isinstance(got["value"], (int, float)), (workload, got)
            if trace and workload in REALIZATION_WORKLOADS:
                coverage = result["metrics"]["trace.coverage_share"]["value"]
                assert coverage >= 0.9, f"{workload}: coverage {coverage:.3f}"
            print(f"ok {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
