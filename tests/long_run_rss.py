"""Check that long runs stay in bounded memory: each command runs twice, at
a short and at a long horizon, in a fresh process, and its peak RSS may
grow by at most a fixed bound.

    python tests/long_run_rss.py

Each child's peak RSS (ru_maxrss) comes from os.wait4, so the runs do not
see each other's peaks.  Exits 1 if a bound is broken.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RR = str(ROOT / "bench" / "record_replay.yaml")

# (what, command at the short and at the long horizon, bound on the growth in MB)
CHECKS = [
    ("planesync run, 500 -> 5,000 windows",
     [["run", "-c", RR, "--init", "synchronized", "--adversary", "random_noise",
       "--horizon", str(h)] for h in (500, 5000)], 1.0),
    ("planesync lemma1, 10,000 -> 100,000 windows (the default)",
     [["lemma1", "--windows", "10000"], ["lemma1"]], 1.0),
]


def peak_rss_mb(args: list[str]) -> float:
    """Peak RSS of one `planesync` command in a fresh interpreter, in MB."""
    code = "import sys; from planesync.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"planesync {' '.join(args)} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024       # KiB on Linux


def main() -> int:
    failed = 0
    for what, (short, long), bound in CHECKS:
        a, b = peak_rss_mb(short), peak_rss_mb(long)
        ok = b - a <= bound
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'}  {what}: {a:.1f} -> {b:.1f} MB peak RSS "
              f"(+{b - a:.2f}, bound +{bound:.1f})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
