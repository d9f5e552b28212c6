"""Compare two checkouts on one bench workload by alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload audit --pairs 10

Each pair runs ``bench/run.py --trace 0`` of each checkout once, with the
same workload, seed and length; the parent goes first in even pairs and the
change first in odd ones.  Every run uses its own checkout's bench, so the
two sides are measured by the code each was committed with.  For every
end-to-end metric the run prints the parent's and the change's medians,
the parent's quartiles, and in how many pairs the change read better (a
tie counts for neither side).  Which way is better is read from the
parent's ``BENCHMARK.json``.

Two things move ``peak_rss_mb`` without any change to the code, so a pair of
checkouts is refused when their paths differ in length, or when either
holds ``src/hodgekit/__pycache__``.  The bytecode each run writes there is
removed after it, so that every run compiles the package as a fresh
checkout does.

Exit code 0 when every run read correct, 1 when one did not, and 2 when
the checkouts are refused.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 240  # bench/run.py ends every run within 180 s


def refusal(parent: Path, change: Path) -> str | None:
    """Why the two checkouts cannot be compared, or None."""
    for root in (parent, change):
        if not (root / "bench" / "run.py").is_file():
            return f"{root} holds no bench/run.py"
        if (root / "src" / "hodgekit" / "__pycache__").exists():
            return f"{root} holds src/hodgekit/__pycache__; remove it first"
    if len(str(parent)) != len(str(change)):
        return (f"checkout paths differ in length ({len(str(parent))} and "
                f"{len(str(change))} characters), which moves peak_rss_mb")
    return None


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run of a checkout: its result line, the JSON object that
    ends run.py's stdout, or a failed result when there is none."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except (subprocess.TimeoutExpired, json.JSONDecodeError):
        result = None
    finally:
        shutil.rmtree(root / "src" / "hodgekit" / "__pycache__", ignore_errors=True)
    return result or {"correct": False, "failed": 1, "metrics": {}}


def directions(parent: Path) -> dict[str, str]:
    """Each end-to-end metric's better direction, "lower" or "higher"."""
    declared = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in declared["end_to_end"]}


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric over the (parent, change) result pairs."""
    lines = []
    for name in better:
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        olds, news = [v for v, _ in values], [v for _, v in values]
        sign = 1 if better[name] == "lower" else -1
        wins = sum(sign * (new - old) < 0 for old, new in values)
        losses = sum(sign * (new - old) > 0 for old, new in values)
        q1, median, q3 = (statistics.quantiles(olds, n=4) if len(olds) > 1
                          else (olds[0],) * 3)
        changed = statistics.median(news)
        lines.append(f"{name:<14} parent {median:.6g} (q1 {q1:.6g}, q3 {q3:.6g})  "
                     f"change {changed:.6g} ({changed / median - 1:+.1%})  "
                     f"change better in {wins} of {len(values)}, worse in {losses} "
                     f"({better[name]} is better)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    reason = refusal(parent, change)
    if reason:
        print(f"bench_pairs: refused: {reason}", file=sys.stderr)
        return 2

    pairs = []
    for i in range(args.pairs):
        order = ((parent, "parent"), (change, "change"))
        results = {}
        for root, side in order if i % 2 == 0 else order[::-1]:
            results[side] = run_once(root, args.workload, args.seed, args.seconds)
            readings = " ".join(f"{name}={m['value']:.6g}"
                                for name, m in results[side]["metrics"].items())
            print(f"pair {i + 1} {side}: correct={results[side]['correct']} "
                  f"failed={results[side]['failed']} {readings}", flush=True)
        pairs.append((results["parent"], results["change"]))
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs:")
    for line in summary(pairs, directions(parent)):
        print(f"  {line}")
    return 0 if all(r["correct"] for pair in pairs for r in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
