"""Smoke test of the benchmark itself: tiny batches of every workload.

    python3 -m pytest -q bench/test_smoke.py

Checks that each workload emits exactly the metrics BENCHMARK.json declares,
with their units, and that a wrong stored digest is reported as a failure.
"""

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "closure": {"horizon": 12},
    "stabilize": {"per_adversary": 1},
    "record-replay": {"horizon": 8},
}


def declared_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = run.bench(workload, seed=3, seconds=0, trace=trace, spec=TINY[workload])
    assert res["correct"], res["problems"]
    assert res["failed"] == 0 and res["attempted"] >= 1
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == declared_units("per_layer" if trace else "end_to_end")

    out = io.StringIO()
    run.report(res, out)
    last = json.loads(out.getvalue().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_perturbed_digest_is_reported_as_failure():
    stored = json.loads(run.DIGESTS.read_text())
    good = stored["stabilize"]
    bad = dict(stored, stabilize=good[:-1] + ("1" if good[-1] == "0" else "0"))
    res = run.bench("stabilize", seed=3, seconds=0, trace=False,
                    spec=TINY["stabilize"], digests=bad)
    assert not res["correct"]
    assert any("canary digest" in p for p in res["problems"])
