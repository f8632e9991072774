"""The three benchmark workloads, run inside one fresh interpreter.

Usage (normally started by run.py, one process per measurement):

    python3 bench/workloads.py setup   <workload>
    python3 bench/workloads.py measure <workload> <seed> <seconds> <trace> [spec-json]
    python3 bench/workloads.py canary  > bench/digests.json

`setup` times a fresh import of planesync.cli plus resolving the workload's
scenarios.  `measure` does the same set-up, then repeats the workload's
batch of runs until `seconds` have passed (trace 0), or runs the batch once
untraced and once traced (trace 1).  Either way it prints one JSON object.
`canary` prints the canary digests that digests.json stores.
planesync is imported from `src/` of the checkout that holds this file,
and only inside functions, so the set-up timing covers the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import math
import os
import resource
import shutil
import signal
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RR_SCENARIO = HERE / "record_replay.yaml"

ADVERSARIES = ("silent", "random_noise", "max_skew", "split_brain")


@dataclass(frozen=True)
class Spec:
    """Size of one batch of a workload."""

    name: str
    per_adversary: int              # run seeds per adversary
    horizon: Optional[int] = None   # None: the scenario file's horizon


SPECS = {
    # Criterion 4's shape: synchronized start, 1000 windows, no early stop.
    "closure": Spec("closure", 1, 1000),
    # Criterion 6's shape: random start, stop at confirmation.
    "stabilize": Spec("stabilize", 50, 10_000),
    # CLI run with a full trace, then replay; horizon from RR_SCENARIO.
    "record-replay": Spec("record-replay", 2),
}

# Fixed small batches whose result digests are stored in digests.json, so a
# change to any simulated statistic shows whatever seed the benchmark gets.
CANARY_SEED = 0
CANARY = {
    "closure": Spec("closure", 1, 100),
    "stabilize": Spec("stabilize", 5, 10_000),
    "record-replay": Spec("record-replay", 1, 50),
}


def run_seed(seed: int, workload: str, adversary: str, i: int) -> int:
    """Run seed i of one adversary, derived from the workload seed alone."""
    digest = hashlib.sha256(f"{seed}:{workload}:{adversary}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def import_program():
    """Import planesync from this checkout's src/, never from elsewhere."""
    if not (SRC / "planesync" / "cli.py").is_file():
        raise SystemExit(f"error: no planesync sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from planesync import cli, harness

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: planesync imported from {cli.__file__}, not {SRC}")
    return cli, harness


def scenarios(spec: Spec, harness) -> dict:
    """One resolved scenario per adversary."""
    if spec.name == "closure":
        rp = harness.reference_scenario().resolved
        bound = math.floor(3 * (1 + rp.rho) * rp.dv.d_max_ticks)   # criterion 4's
    out = {}
    for adv in ADVERSARIES:
        if spec.name == "closure":
            sc = harness.reference_scenario(adversary=adv, init="synchronized",
                                            horizon=spec.horizon, stop_after_confirm=False,
                                            eps0_check=bound)
        elif spec.name == "stabilize":
            sc = harness.reference_scenario(adversary=adv, init="random",
                                            horizon=spec.horizon)
        else:
            overrides = {} if spec.horizon is None else {"horizon": spec.horizon}
            sc = harness.Scenario.from_file(str(RR_SCENARIO), adversary=adv, **overrides)
        sc.resolved     # resolving is part of set-up
        out[adv] = sc
    return out


# ---- one batch ---------------------------------------------------------------


@dataclass
class Batch:
    clock: Callable[[], float] = perf_counter
    run_ms: list[float] = field(default_factory=list)          # per run, on clock
    spans: list[tuple[float, float]] = field(default_factory=list)  # perf_counter
    windows: int = 0
    attempted: int = 0
    failed: int = 0
    lines: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Seconds inside program calls; bookkeeping between runs is left out."""
        return sum(self.run_ms) / 1e3

    @property
    def digest(self) -> str:
        """SHA-256 of the seed-sorted result records."""
        return hashlib.sha256("\n".join(sorted(self.lines)).encode()).hexdigest()

    def timed(self, fn, *args):
        """Call fn(*args) as one run, recording its time even if it raises."""
        t0, c0 = perf_counter(), self.clock()
        try:
            return fn(*args)
        finally:
            self.run_ms.append(1e3 * (self.clock() - c0))
            self.spans.append((t0, perf_counter()))


def _result_line(seed: int, adv: str, record: dict) -> str:
    return f"{seed:010d} {adv} {json.dumps(record, sort_keys=True)}"


def _sim_op(batch: Batch, spec: Spec, harness, sc, adv: str, s: int) -> None:
    try:
        r = batch.timed(harness.run_once, sc, s)
    except Exception as e:  # a failed run is counted, not fatal
        batch.failed += 1
        batch.lines.append(_result_line(s, adv, {"error": type(e).__name__}))
        return
    batch.windows += r.windows_run
    if spec.name == "closure":
        ok = r.n_violations == 0 and r.windows_run == sc.horizon
    else:
        ok = r.stabilization_window is not None
    batch.failed += not ok
    batch.lines.append(_result_line(s, adv, r.to_record()))


def _cli(cli, argv: list[str], tracer, span: str) -> int:
    idx = tracer.begin(span) if tracer is not None else None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        if idx is not None:
            tracer.end(idx)


def _record_replay_op(batch: Batch, spec: Spec, cli, work: Path, adv: str, s: int,
                      tracer) -> None:
    out = work / adv
    common = ["-c", str(RR_SCENARIO), "--seed", str(s), "--adversary", adv,
              "--trace-level", "full"]
    if spec.horizon is not None:
        common += ["--horizon", str(spec.horizon)]
    trace = out / f"trace_seed{s}.jsonl"

    rc = batch.timed(_cli, cli, ["run", *common, "--out", str(out)], tracer, "cli.run")
    if rc != 0:
        batch.failed += 2   # the replay has nothing to replay
        batch.lines.append(_result_line(s, adv, {"run_rc": rc}))
        return
    record = json.loads((out / f"result_seed{s}.json").read_text())
    record["trace_sha256"] = hashlib.sha256(trace.read_bytes()).hexdigest()
    batch.lines.append(_result_line(s, adv, record))
    batch.windows += record["windows_run"]

    rc = batch.timed(_cli, cli, ["replay", *common, "--trace", str(trace)], tracer,
                     "cli.replay")
    batch.failed += rc != 0
    batch.windows += record["windows_run"]


def run_batch(spec: Spec, seed: int, scs: dict, cli, harness, tracer=None,
              clock: Callable[[], float] = perf_counter) -> Batch:
    """Every run of one batch, in a fixed order, timed on `clock`;
    failures are counted."""
    batch = Batch(clock)
    work = HERE / ".work" / str(os.getpid())
    try:
        for adv in ADVERSARIES:
            for i in range(spec.per_adversary):
                s = run_seed(seed, spec.name, adv, i)
                if spec.name == "record-replay":
                    batch.attempted += 2
                    _record_replay_op(batch, spec, cli, work, adv, s, tracer)
                else:
                    batch.attempted += 1
                    _sim_op(batch, spec, harness, scs[adv], adv, s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()     # only when no other worker is using it
    return batch


# ---- host speed ----------------------------------------------------------------

# Host times are reported at the host speed where speed_probe takes
# PROBE_REF_S: each run's time is scaled by PROBE_REF_S over the median of
# the probes taken within PROBE_NEAR_S of it.  See README.md.
PROBE_REF_S = 0.03
PROBE_EVERY_S = 0.5
PROBE_NEAR_S = 1.0
SETUP_PROBES = 5


def speed_probe() -> float:
    """Host seconds for a fixed mix of interpreter and numpy work.

    It does not touch planesync, so it measures only the host: on a shared
    host the same work runs tens of percent faster or slower from one
    minute to the next.
    """
    import numpy as np

    t0 = perf_counter()
    acc, table, heap = 0, {}, []
    for i in range(30_000):
        acc = (acc + i * i) % 4099
        table[i & 511] = (acc, i)
        if i % 8 == 0:
            heapq.heappush(heap, (acc, i))
    while heap:
        heapq.heappop(heap)
    base = list(range(0, 40_000, 7))
    for _ in range(40):
        a = np.array(base, dtype=np.int64)
        c = np.concatenate([a, np.searchsorted(a, a[::3])])
        c.sort()
    return perf_counter() - t0


class Prober:
    """Speed probes every PROBE_EVERY_S of wall time while active.

    A timer signal takes the probes, so they also sample the middle of long
    runs.  `clock` is perf_counter minus the time spent probing, so a run
    timed on it does not include the probes that interrupted it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (perf_counter, seconds)
        self._spent = 0.0
        self._busy = False

    def clock(self) -> float:
        return perf_counter() - self._spent

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the median probe near [t0, t1], or over all."""
        near = [d for t, d in self.samples if t0 - PROBE_NEAR_S <= t <= t1 + PROBE_NEAR_S]
        return PROBE_REF_S / median(near or [d for _t, d in self.samples])

    def _probe(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.samples.append((t0, speed_probe()))
        self._spent += perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Prober":
        self._probe(None, None)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# ---- process entry points ----------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(spec: Spec):
    """Time the import and scenario resolution, then probe the host speed."""
    t0 = perf_counter()
    cli, harness = import_program()
    scs = scenarios(spec, harness)
    setup_s = perf_counter() - t0
    probe = median(speed_probe() for _ in range(SETUP_PROBES))
    timing = {"setup_s": setup_s, "setup_scaled_s": setup_s * PROBE_REF_S / probe}
    return timing, cli, harness, scs


def canary_digest(name: str, cli, harness) -> str:
    spec = CANARY[name]
    return run_batch(spec, CANARY_SEED, scenarios(spec, harness), cli, harness).digest


def measure(spec: Spec, seed: int, seconds: float, trace: bool) -> dict:
    out, cli, harness, scs = setup(spec)
    if trace:
        from tracer import Tracer, layer_metrics

        plain = run_batch(spec, seed, scs, cli, harness)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_batch(spec, seed, scs, cli, harness, tracer)
        finally:
            tracer.uninstall()
        batches = [plain, traced]
        out["layers"] = layer_metrics(tracer, traced.wall, plain.wall)
    else:
        batches = []
        t_start = perf_counter()
        with Prober() as prober:
            while not batches or perf_counter() - t_start < seconds:
                batches.append(run_batch(spec, seed, scs, cli, harness, clock=prober.clock))
        out["peak_rss_mb"] = peak_rss_mb()
        out["speed"] = PROBE_REF_S / median(d for _t, d in prober.samples)
        out["run_ms_scaled"] = [ms * prober.scale(*span) for b in batches
                                for ms, span in zip(b.run_ms, b.spans)]
    out["batches"] = [{"digest": b.digest, "windows": b.windows, "attempted": b.attempted,
                       "failed": b.failed, "runs": len(b.run_ms)} for b in batches]
    out["run_ms"] = [ms for b in batches for ms in b.run_ms]
    out["canary_digest"] = canary_digest(spec.name, cli, harness)
    return out


def main(argv: list[str]) -> int:
    if argv == ["canary"]:
        cli, harness = import_program()
        print(json.dumps({n: canary_digest(n, cli, harness) for n in CANARY}, indent=2))
        return 0
    cmd, name = argv[0], argv[1]
    spec = SPECS[name]
    if cmd == "setup":
        print(json.dumps(setup(spec)[0]))
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    if len(argv) > 5:
        spec = replace(spec, **json.loads(argv[5]))
    print(json.dumps(measure(spec, seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
