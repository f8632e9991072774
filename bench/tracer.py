"""Per-layer tracing installed from outside the program.

Modules import names directly (`from .ftcore import fta`), so a wrapper
must replace the name in every module that looks it up.  `install` walks
the loaded planesync modules and swaps each attribute that is the original
function for a wrapper; `uninstall` puts the originals back.

Timed wrappers record spans in memory, each with a link to the enclosing
span, and self time is a span's duration minus its direct children.
Count-only wrappers are used where timing a call would cost more than the
call (ring arithmetic).  Wrappers pass arguments and return values through
unchanged.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PROTOCOL_HANDLERS = ("mws_on_end_mc_recv", "mes_on_clock_msg", "mes_on_begin_vc_send",
                     "mes_on_end_c_recv", "mws_on_end_c_send")
FTCORE_FUNCS = ("fta", "rft", "filters", "check_stb", "check_weak", "accuracy_check",
                "hw_accuracy_threshold")
RING_FUNCS = ("wrap_add", "wrap_sub", "ring_dist", "circ_sort", "ring_med")
ADVERSARY_HOOKS = ("bind", "setup", "choose_period", "choose_phase", "choose_skew",
                   "choose_delay", "on_sig", "faulty_mes_round", "on_up_to_faulty")

NAME, START, END = range(3)       # fields of a span record


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.events = 0                 # Engine sequence numbers of finished worlds
        self.trace_records = 0
        self.trace_bytes = 0
        self._stack = [-1]
        self._worlds: list = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ----------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(out)
            return out
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def begin(self, name: str) -> int:
        """Start a span around code the benchmark runs itself; see end."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _harvest_worlds(self) -> None:
        """Fold the engine and trace counters of finished worlds, then drop them."""
        for w in self._worlds:
            self.events += w.engine._seq
            self.trace_records += len(w.trace.records)
        self._worlds.clear()

    # ---- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "planesync":
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        from planesync import adversaries, ftcore, harness, params, protocol, ring, simnet

        self._replace_everywhere(simnet.sync_check,
                                 self.span("simnet.sync_check", simnet.sync_check))
        for h in PROTOCOL_HANDLERS:
            observe = self._observe_round if h == "mws_on_end_mc_recv" else None
            orig = getattr(protocol, h)
            self._replace_everywhere(orig, self.span(f"protocol.{h}", orig, observe))
        for f in FTCORE_FUNCS:
            observe = self._observe_accuracy if f == "accuracy_check" else None
            orig = getattr(ftcore, f)
            self._replace_everywhere(orig, self.span(f"ftcore.{f}", orig, observe))
        for f in RING_FUNCS:
            orig = getattr(ring, f)
            self._replace_everywhere(orig, self.counted(f"ring.{f}", orig))
        self._replace_everywhere(params.resolve, self.span("params.resolve", params.resolve))
        self._replace_everywhere(harness.resync_points,
                                 self.span("harness.resync_points", harness.resync_points))
        self._replace_everywhere(harness.run_once, self._run_once_wrapper(harness.run_once))
        self._replace_everywhere(adversaries.make_adversary,
                                 self._make_adversary_wrapper(adversaries.make_adversary))

        World, Trace = simnet.World, simnet.Trace
        self._patch(World, "__init__", self._world_init_wrapper(World.__init__))
        self._patch(World, "run_until_window",
                    self.span("simnet.engine", World.run_until_window))
        self._patch(Trace, "add", self.counted("simnet.trace.add", Trace.add))
        self._patch(Trace, "to_jsonl",
                    self.span("simnet.trace.to_jsonl", Trace.to_jsonl, self._observe_jsonl))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ---- wrappers with side records -----------------------------------------

    def _observe_round(self, summary) -> None:
        self.counts[f"protocol.branch.{summary.branch}"] += 1
        self.counts["protocol.stb"] += summary.stb

    def _observe_accuracy(self, ok: bool) -> None:
        self.counts["ftcore.accuracy_check.pass"] += ok

    def _observe_jsonl(self, text: str) -> None:
        self.trace_bytes += len(text.encode())

    def _run_once_wrapper(self, fn):
        timed = self.span("harness.run_once", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                self._harvest_worlds()
        return wrapper

    def _world_init_wrapper(self, fn):
        timed = self.span("simnet.world_init", fn)

        @functools.wraps(fn)
        def wrapper(world, *args, **kwargs):
            timed(world, *args, **kwargs)
            self._worlds.append(world)
        return wrapper

    def _make_adversary_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            adv = fn(*args, **kwargs)
            for hook in ADVERSARY_HOOKS:
                setattr(adv, hook, self.span("adversaries", getattr(adv, hook)))
            return adv
        return wrapper


# ---- reduction to per-layer metrics -------------------------------------------


def _pct(xs: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, plain_wall: float) -> dict:
    """Every per-layer metric of one traced pass, as {name: {value, unit}}.

    Totals are over the whole pass; `share` is a layer's time over the
    traced pass's wall time; per-window figures take each
    World.run_until_window or sync_check call as one window.
    """
    spans = tr.spans
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    dur: dict[str, list[float]] = defaultdict(list)
    self_t: dict[str, list[float]] = defaultdict(list)
    sync_by_run: dict[int, list[float]] = defaultdict(list)
    adversary_top: list[float] = []
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        dur[name].append(d)
        self_t[name].append(d - child[i])
        if name == "simnet.sync_check":
            sync_by_run[parent].append(d)
        elif name == "adversaries" and (parent < 0 or spans[parent][NAME] != "adversaries"):
            adversary_top.append(d)

    m: dict = {}

    def put(name: str, value, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    windows = len(dur["simnet.engine"])
    counts = tr.counts

    sync = dur["simnet.sync_check"]
    first, last = [], []
    for per_window in sync_by_run.values():
        k = max(1, len(per_window) // 10)
        first += per_window[:k]
        last += per_window[-k:]
    put("simnet.sync_check.ms_p50", 1e3 * _pct(sync, 50), "ms")
    put("simnet.sync_check.ms_p99", 1e3 * _pct(sync, 99), "ms")
    put("simnet.sync_check.share", _ratio(sum(sync), traced_wall), "ratio")
    put("simnet.sync_check.growth", _ratio(_mean(last), _mean(first)), "ratio")

    engine_self = self_t["simnet.engine"]
    put("simnet.engine.events", tr.events, "count")
    put("simnet.engine.events_per_window", _ratio(tr.events, windows), "count/window")
    put("simnet.engine.self_ms_p50", 1e3 * _pct(engine_self, 50), "ms")
    put("simnet.engine.self_ms_p99", 1e3 * _pct(engine_self, 99), "ms")
    put("simnet.engine.events_per_s", _ratio(tr.events, sum(engine_self)), "1/s")
    put("simnet.engine.share", _ratio(sum(engine_self), traced_wall), "ratio")

    for h in PROTOCOL_HANDLERS:
        d = dur[f"protocol.{h}"]
        put(f"protocol.{h}.calls", len(d), "count")
        put(f"protocol.{h}.us_per_call", 1e6 * _mean(d), "us")
    for b in ("avg", "weak", "own", "rft"):
        put(f"protocol.branch.{b}", counts[f"protocol.branch.{b}"], "count")
    put("protocol.stb_frac",
        _ratio(counts["protocol.stb"], len(dur["protocol.mws_on_end_mc_recv"])), "ratio")

    for f in FTCORE_FUNCS:
        d = dur[f"ftcore.{f}"]
        put(f"ftcore.{f}.calls", len(d), "count")
        put(f"ftcore.{f}.us_per_call", 1e6 * _mean(d), "us")
    put("ftcore.accuracy_check.pass_frac",
        _ratio(counts["ftcore.accuracy_check.pass"], len(dur["ftcore.accuracy_check"])),
        "ratio")

    for f in RING_FUNCS:
        put(f"ring.{f}.calls", counts[f"ring.{f}"], "count")
    put("ring.calls_per_window",
        _ratio(sum(counts[f"ring.{f}"] for f in RING_FUNCS), windows), "count/window")

    init = dur["simnet.world_init"]
    put("simnet.world_init.ms_p50", 1e3 * _pct(init, 50), "ms")
    put("simnet.world_init.share", _ratio(sum(init), traced_wall), "ratio")
    put("params.resolve.calls", len(dur["params.resolve"]), "count")
    put("params.resolve.ms", 1e3 * sum(dur["params.resolve"]), "ms")
    put("harness.resync_points.ms", 1e3 * sum(dur["harness.resync_points"]), "ms")
    put("harness.run_once.self_ms", 1e3 * sum(self_t["harness.run_once"]), "ms")
    put("adversaries.calls", len(dur["adversaries"]), "count")
    put("adversaries.ms", 1e3 * sum(adversary_top), "ms")

    put("simnet.trace.add_calls", counts["simnet.trace.add"], "count")
    put("simnet.trace.records", tr.trace_records, "count")
    put("simnet.trace.bytes", tr.trace_bytes, "B")
    put("simnet.trace.to_jsonl_ms", 1e3 * sum(dur["simnet.trace.to_jsonl"]), "ms")
    put("cli.run.ms", 1e3 * sum(dur["cli.run"]), "ms")
    put("cli.replay.ms", 1e3 * sum(dur["cli.replay"]), "ms")
    put("trace_overhead_frac", _ratio(traced_wall, plain_wall) - 1, "ratio")
    return m
