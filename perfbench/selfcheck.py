"""Tiny-size self-check of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` on tiny inputs, untraced and
traced, and checks that each run is correct and emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit and a finite value.
From the root of a source checkout:

    python3 perfbench/selfcheck.py
    python3 -m pytest -q perfbench/selfcheck.py
"""

import json
import math
import os
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(command, workload, trace):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_workload(spec, workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(spec["command"], workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[group]}
        emitted = result["metrics"]
        assert set(emitted) == set(expected), (
            workload, trace, set(emitted) ^ set(expected))
        for name, unit in expected.items():
            assert emitted[name]["unit"] == unit, (workload, name)
            value = emitted[name]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value)


def test_every_metric_emitted_with_its_unit():
    spec = _spec()
    for workload in spec["workloads"]:
        _check_workload(spec, workload["name"])


if __name__ == "__main__":
    test_every_metric_emitted_with_its_unit()
    print("perfbench self-check passed")
