"""Command-line front end.

Subcommands: validate a config, run one seed, run a Monte Carlo campaign,
check the coin-model bound, and replay a trace.  Without a config file (or
the PLANESYNC_CONFIG environment variable) the built-in reference scenario
is used.  All outputs are deterministic functions of the arguments, so the
same invocation always produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

from .errors import ConfigurationError, PlanesyncError
from .harness import (
    Scenario,
    lemma1_coin_model,
    reference_scenario,
    run_monte_carlo,
    run_once,
)
from .params import SCENARIO_ENV_VAR

log = logging.getLogger("planesync")


def _scenario(args: argparse.Namespace) -> Scenario:
    overrides = {}
    for flag, field in [("horizon", "horizon"), ("adversary", "adversary"),
                        ("init", "init"), ("trace_level", "trace_level")]:
        val = getattr(args, flag, None)
        if val is not None:
            overrides[field] = val
    path = getattr(args, "config", None) or os.environ.get(SCENARIO_ENV_VAR)
    if path:
        log.debug("loading scenario from %s", path)
        return Scenario.from_file(path, **overrides)
    log.debug("no config given; using the built-in reference scenario")
    return reference_scenario(**overrides)


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "jsonl":
        out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        width = max(len(k) for k in record)
        for k in sorted(record):
            out.write(f"{k:<{width}}  {record[k]}\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        Scenario.from_file(args.config)
    except ConfigurationError as e:
        print(f"validation failed: {e}", file=sys.stderr)
        return 1
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
            json.dump(result.to_record(), f, sort_keys=True, indent=2)
            f.write("\n")
    return 0


def _seed_list(args: argparse.Namespace) -> list[int]:
    if args.seed_list:
        return [int(s) for s in args.seed_list.split(",")]
    return list(range(args.seeds))


def _cmd_campaign(args: argparse.Namespace) -> int:
    sc = _scenario(args)
    seeds = _seed_list(args)
    summary, results = run_monte_carlo(sc, seeds, alpha=args.alpha, jobs=args.jobs)
    if args.format == "text":
        print(summary.table())
    else:
        _emit(summary.to_record(), "jsonl", sys.stdout)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "summary.json"), "w") as f:
            json.dump(summary.to_record(), f, sort_keys=True, indent=2)
            f.write("\n")
        with open(os.path.join(args.out, "runs.jsonl"), "w") as f:
            for r in sorted(results, key=lambda r: r.seed):
                f.write(json.dumps(r.to_record(), sort_keys=True) + "\n")
        _write_text(os.path.join(args.out, "summary.txt"), summary.table() + "\n")
    if summary.incomplete:
        print(f"campaign incomplete; failed seeds: {list(summary.failed_seeds)}",
              file=sys.stderr)
        for seed, why in zip(summary.failed_seeds, summary.failure_reasons):
            print(f"  seed {seed}: {why}", file=sys.stderr)
        return 1
    return 0


def _cmd_lemma1(args: argparse.Namespace) -> int:
    sc = _scenario(args)
    summary = lemma1_coin_model(sc.resolved, args.windows, args.seed,
                                alpha=args.alpha)
    if args.format == "text":
        print(summary.table())
    else:
        _emit(summary.to_record(), "jsonl", sys.stdout)
    return 0 if summary.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.trace) as f:
        want = f.read().splitlines()
    tmp_path = args.trace + ".replay"
    try:
        run_once(_scenario(args), args.seed, trace_path=tmp_path)
        with open(tmp_path) as f:
            got = f.read().splitlines()
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    if want == got:
        print(f"replay ok: {len(got)} records match")
        return 0
    n = min(len(want), len(got))
    for i in range(n):
        if want[i] != got[i]:
            print(f"replay diverges at record {i + 1}:\n- {want[i]}\n+ {got[i]}",
                  file=sys.stderr)
            return 1
    print(f"replay diverges: {len(want)} recorded vs {len(got)} replayed records",
          file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="planesync",
                                 description="multi-plane clock synchronization "
                                             "simulator and verification harness")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="debug logging on stderr")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, seeded=True):
        p.add_argument("-c", "--config", help="scenario YAML (default: "
                       f"${SCENARIO_ENV_VAR} or the built-in reference scenario)")
        p.add_argument("--horizon", type=int, help="max windows to simulate")
        p.add_argument("--adversary", help="override the adversary strategy")
        p.add_argument("--init", choices=["random", "synchronized"],
                       help="override the initial-state policy")
        p.add_argument("--format", choices=["jsonl", "text"], default="text",
                       help="stdout format")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check that a scenario file can run")
    p.add_argument("-c", "--config", help=f"scenario YAML (default: ${SCENARIO_ENV_VAR})")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="simulate one seed")
    common(p)
    p.add_argument("--trace-level", choices=["off", "core", "full"],
                   dest="trace_level", help="override the trace detail level")
    p.add_argument("--out", help="directory for the result and trace files")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("campaign", help="Monte Carlo over many seeds")
    common(p, seeded=False)
    p.add_argument("--seeds", type=int, default=100,
                   help="number of seeds, 0..N-1")
    p.add_argument("--seed-list", help="explicit comma-separated seeds")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--alpha", type=float, default=0.01,
                   help="one-sided confidence level")
    p.add_argument("--out", help="directory for summary and per-run records")
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("lemma1", help="coin-model resynchronization-point bound")
    common(p)
    p.add_argument("--windows", type=int, default=100_000)
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(fn=_cmd_lemma1)

    p = sub.add_parser("replay", help="re-run a recorded trace and diff")
    common(p)
    p.add_argument("--trace", required=True, help="trace file from a previous run")
    p.add_argument("--trace-level", choices=["core", "full"],
                   dest="trace_level", help="detail level of the recorded trace")
    p.set_defaults(fn=_cmd_replay)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    try:
        return args.fn(args)
    except PlanesyncError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
