"""The benchmark's own test, on shortened workloads.

    python3 -m pytest perfbench/test_perfbench.py

Checks that every metric name and unit is legal, that per-layer counts
repeat exactly between two traced runs with the same seed, and that a
corrupted draw is reported as a failed job.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_are_legal():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            names.append(metric["name"])
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = _run("spectral_xcheck", trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[section]}
        assert {n: m["unit"] for n, m in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    def counts(res):
        return {n: m["value"] for n, m in res["metrics"].items()
                if m["unit"] in ("count", "bytes")}

    first = counts(_run(workload, 1))
    assert first == counts(_run(workload, 1))
    assert any(first.values())


def test_corrupted_draw_is_a_failed_job():
    clean = _run("exact_gram", 0)
    assert clean["correct"] and clean["failed"] == 0
    res = _run("exact_gram", 0, "--corrupt", "ib1")
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ok_frac"]["value"] < 1.0
