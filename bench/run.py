"""planesync benchmark: one workload, measured end to end or per layer.

    python3 bench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from `src/` next to this
directory.  Each measurement runs in a fresh interpreter (workloads.py), so
import and construction costs show in `setup_s` and `peak_rss_mb`.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
workload's batch runs once untraced and once traced, and the metrics are
the per-layer ones.  `correct` is false, and the exit code 1, when any run
fails its verdict or any result digest disagrees: across repeated batches,
between the traced and untraced batch, or for the fixed canary batch
against digests.json.  Host times are scaled to a reference host speed by
a probe that does not touch the program; README.md explains why, and
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Optional

HERE = Path(__file__).resolve().parent
WORKER = HERE / "workloads.py"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("closure", "stabilize", "record-replay")
SETUP_SAMPLES = 3           # fresh interpreters timed per run, the worker included
WORKER_TIMEOUT_S = 160     # the whole run must end within 180 s
SETUP_TIMEOUT_S = 10
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "windows_per_s": "1/s", "runs_per_s": "1/s",
             "run_ms_p50": "ms"}


class BenchError(RuntimeError):
    """The program could not be measured; no result is printed."""


def _child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"workloads.py {' '.join(args[:2])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pct(xs: list[float], q: float) -> float:
    s = sorted(xs)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def _e2e(setups: list[float], run_ms: list[float], batches: list[dict]) -> dict:
    """End-to-end figures from set-up times and per-run times, in batch order."""
    walls, i = [], 0
    for b in batches:
        walls.append(sum(run_ms[i:i + b["runs"]]) / 1e3)
        i += b["runs"]
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "windows_per_s": sum(b["windows"] for b in batches) / sum(walls),
        "runs_per_s": sum(b["attempted"] for b in batches) / sum(walls),
        "run_ms_p50": median(run_ms),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool,
          spec: Optional[dict] = None, digests: Optional[dict] = None) -> dict:
    """Measure one workload; returns the result object that run.py prints.

    `spec` overrides the batch size (smoke tests); `digests` replaces the
    stored canary digests (to check that a wrong one is caught).
    """
    args = ["measure", workload, str(seed), str(seconds), "1" if trace else "0"]
    if spec:
        args.append(json.dumps(spec))
    w = _child(args, WORKER_TIMEOUT_S)
    batches = w["batches"]
    digests = json.loads(DIGESTS.read_text()) if digests is None else digests

    problems = []
    if len({b["digest"] for b in batches}) != 1:
        problems.append("result digest differs between batches of the same seeds"
                        + (" (traced vs untraced)" if trace else ""))
    if w["canary_digest"] != digests.get(workload):
        problems.append(f"canary digest {w['canary_digest']} != stored "
                        f"{digests.get(workload)}")
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    if failed:
        problems.append(f"{failed} of {attempted} runs failed")

    raw: dict = {}
    if trace:
        metrics = w["layers"]
    else:
        # Host times are scaled to a reference host speed; see workloads.Prober.
        setups = [w] + [_child(["setup", workload], SETUP_TIMEOUT_S)
                        for _ in range(SETUP_SAMPLES - 1)]
        scaled = _e2e([x["setup_scaled_s"] for x in setups], w["run_ms_scaled"], batches)
        raw = _e2e([x["setup_s"] for x in setups], w["run_ms"], batches)
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in scaled.items()}
        metrics["peak_rss_mb"] = {"value": w["peak_rss_mb"], "unit": "MB"}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "digest": batches[0]["digest"],
        "run_ms": w.get("run_ms_scaled", w["run_ms"]),
        "raw": raw,
        "speed": w.get("speed"),
    }


def report(res: dict, out=sys.stdout) -> None:
    """Readable lines, then the result JSON as the last line."""
    for name, m in res["metrics"].items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}", file=out)
    runs = res["run_ms"]
    print(f"{'fail_frac':<44} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']}/{res['attempted']})", file=out)
    if len(runs) >= 100:
        print(f"{'run_ms_p90':<44} {_pct(runs, 90):.6g} ms (n={len(runs)})", file=out)
    if res["speed"] is not None:
        print(f"{'host speed (reference probe / median probe)':<44} {res['speed']:.6g}",
              file=out)
    for name, v in res["raw"].items():
        print(f"{'unscaled ' + name:<44} {v:.6g}", file=out)
    print(f"result digest {res['digest']}", file=out)
    for p in res["problems"]:
        print(f"FAIL: {p}", file=out)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}),
          file=out)


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        res = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report(res)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
