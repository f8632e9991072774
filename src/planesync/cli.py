"""Command-line front end.

Subcommands: validate a config, run one seed, run a Monte Carlo campaign,
check the coin-model bound, and replay a trace.  validate needs a config
file; the others use the built-in reference scenario without one.  All
outputs are deterministic functions of the arguments, so the same
invocation always produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, TextIO

from .errors import ConfigurationError, PlanesyncError
from .harness import (
    Scenario,
    lemma1_coin_model,
    reference_scenario,
    run_monte_carlo,
    run_once,
    table,
)
from .simnet import INIT_POLICIES, TRACE_LEVELS, recorded_level


def _scenario(args: argparse.Namespace) -> Scenario:
    overrides = {}
    for name in ("horizon", "adversary", "init", "trace_level"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if args.config:
        return Scenario.from_file(args.config, **overrides)
    return reference_scenario(**overrides)


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "jsonl":
        out.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    else:
        out.write(table(sorted(record.items())) + "\n")


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        sc = Scenario.from_file(args.config)
    except ConfigurationError as e:
        print(f"validation failed: {e}", file=sys.stderr)
        return 1
    for w in sc.resolved.dv.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print("pass")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    sc = _scenario(args)
    trace_path = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        if sc.trace_level != "off":
            trace_path = os.path.join(args.out, f"trace_seed{args.seed}.jsonl")
    result = run_once(sc, args.seed, trace_path=trace_path)
    _emit(result.to_record(), args.format, sys.stdout)
    if args.out:
        with open(os.path.join(args.out, f"result_seed{args.seed}.json"), "w") as f:
            json.dump(result.to_record(), f, sort_keys=True, indent=2, allow_nan=False)
            f.write("\n")
    return 0


def _seed_list(text: str) -> list[int]:
    """The seeds of --seed-list, comma-separated integers."""
    seeds = []
    for s in text.split(","):
        try:
            seeds.append(int(s))
        except ValueError:
            raise argparse.ArgumentTypeError(f"seed {s!r} is not an integer") from None
    return seeds


def _cmd_campaign(args: argparse.Namespace) -> int:
    sc = _scenario(args)
    seeds = args.seed_list if args.seed_list is not None else list(range(args.seeds))
    summary, results = run_monte_carlo(sc, seeds, jobs=args.jobs)
    if args.format == "text":
        print(summary.table())
    else:
        _emit(summary.to_record(), "jsonl", sys.stdout)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "summary.json"), "w") as f:
            json.dump(summary.to_record(), f, sort_keys=True, indent=2, allow_nan=False)
            f.write("\n")
        with open(os.path.join(args.out, "runs.jsonl"), "w") as f:
            for r in sorted(results, key=lambda r: r.seed):
                f.write(json.dumps(r.to_record(), sort_keys=True, allow_nan=False) + "\n")
        with open(os.path.join(args.out, "summary.txt"), "w") as f:
            f.write(summary.table() + "\n")
    if summary.incomplete:
        print(f"campaign incomplete; failed seeds: {list(summary.failed_seeds)}",
              file=sys.stderr)
        for seed, why in zip(summary.failed_seeds, summary.failure_reasons):
            print(f"  seed {seed}: {why}", file=sys.stderr)
        return 1
    return 0


def _cmd_lemma1(args: argparse.Namespace) -> int:
    sc = _scenario(args)
    summary = lemma1_coin_model(sc.resolved, args.windows, args.seed)
    if args.format == "text":
        print(summary.table())
    else:
        _emit(summary.to_record(), "jsonl", sys.stdout)
    return 0 if summary.ok else 1


class _Comparison:
    """A trace sink that compares each block a re-run writes with as many of
    the recording's next characters, and keeps the first difference.  A
    recording's last line may lack its newline."""

    def __init__(self, recorded: TextIO) -> None:
        self.recorded = recorded
        self.replayed = 0       # lines written
        self.read: Optional[int] = None     # lines read, once a block did not match
        self.diff: Optional[str] = None

    def write(self, text: str) -> None:
        if self.read is None:
            want = self.recorded.read(len(text))
            if want != text:    # split into lines only to name the first difference
                want_lines = (want + self.recorded.readline()).splitlines()   # its last line whole
                self.read = self.replayed + len(want_lines)
                for k, (a, b) in enumerate(zip(want_lines, text.splitlines())):
                    if a != b:
                        self.diff = (f"replay diverges at record {self.replayed + k + 1}:"
                                     f"\n- {a}\n+ {b}")
                        break
        self.replayed += text.count("\n")

    def verdict(self) -> Optional[str]:
        """None when the recording matched line for line; else the first
        differing record, or else the two counts."""
        if self.diff is None:
            recorded = sum(1 for _ in self.recorded)
            recorded += self.replayed if self.read is None else self.read
            if recorded != self.replayed:
                return f"replay diverges: {recorded} recorded vs {self.replayed} replayed records"
        return self.diff


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.trace) as f:
        if args.trace_level is None:    # the recording's own
            args.trace_level = recorded_level(f)
            f.seek(0)
        replayed = _Comparison(f)
        run_once(_scenario(args), args.seed, trace_path=replayed)
        why = replayed.verdict()
    if why is not None:
        print(why, file=sys.stderr)
        return 1
    print(f"replay ok: {replayed.replayed} records match")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="planesync",
                                 description="multi-plane clock synchronization "
                                             "simulator and verification harness")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def config(p, overrides=True):
        p.add_argument("-c", "--config",
                       help="scenario YAML (default: the built-in reference scenario)")
        if overrides:
            p.add_argument("--horizon", type=int, help="max windows to simulate")
            p.add_argument("--adversary", help="override the adversary strategy")
            p.add_argument("--init", choices=INIT_POLICIES,
                           help="override the initial-state policy")

    def formatted(p):
        p.add_argument("--format", choices=["jsonl", "text"], default="text",
                       help="stdout format")

    def seeded(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check that a scenario file can run")
    p.add_argument("-c", "--config", required=True, help="scenario YAML")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="simulate one seed")
    config(p)
    formatted(p)
    seeded(p)
    p.add_argument("--trace-level", choices=TRACE_LEVELS,
                   dest="trace_level", help="override the trace detail level")
    p.add_argument("--out", help="directory for the result and trace files")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("campaign", help="Monte Carlo over many seeds")
    config(p)
    formatted(p)
    p.add_argument("--seeds", type=int, default=100,
                   help="number of seeds, 0..N-1")
    p.add_argument("--seed-list", type=_seed_list, help="explicit comma-separated seeds")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", help="directory for summary and per-run records")
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("lemma1", help="coin-model resynchronization-point bound")
    config(p, overrides=False)
    formatted(p)
    seeded(p)
    p.add_argument("--windows", type=int, default=100_000)
    p.set_defaults(fn=_cmd_lemma1)

    p = sub.add_parser("replay", help="re-run a recorded trace and diff")
    config(p)
    seeded(p)
    p.add_argument("--trace", required=True, help="trace file from a previous run")
    p.add_argument("--trace-level", choices=TRACE_LEVELS[1:],     # every level but off
                   dest="trace_level", help="the recorded trace's level (default: read from it)")
    p.set_defaults(fn=_cmd_replay)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PlanesyncError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
