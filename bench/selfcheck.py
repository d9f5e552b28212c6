"""Self-check of the benchmark itself; run it after changing anything here.

    python3 bench/selfcheck.py

- smoke: every workload at tiny size, untraced and traced, with no failed
  output;
- tracing changes nothing: traced and untraced outputs are identical;
- negative control: with one deliberately wrong expected value the case
  fails, so a wrong output cannot pass unseen;
- without hodgekit's sources next to it, ``run.py`` exits non-zero and
  prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent


def job(workload: str, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "job.py"), "--workload", workload,
         "--seed", "7", "--size", "tiny", *flags],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def failures(report: dict) -> list:
    return [f for row in report["cases"] for f in row["failures"]]


def main() -> int:
    results = []
    for workload in inputs.WORKLOADS:
        plain, traced = job(workload), job(workload, "--trace", "1")
        results.append((f"smoke {workload}", not failures(plain) and not failures(traced)))
        results.append((f"traced outputs identical {workload}",
                        [r["digest"] for r in plain["cases"]]
                        == [r["digest"] for r in traced["cases"]]))
        results.append((f"negative control {workload}",
                        bool(failures(job(workload, "--corrupt")))))

    with tempfile.TemporaryDirectory() as bare:
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        results.append(("refuses to run without sources",
                        proc.returncode != 0 and '"correct"' not in proc.stdout))

    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
