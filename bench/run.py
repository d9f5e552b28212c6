"""The hodgekit benchmark: one workload, repeated in fresh processes.

    python3 bench/run.py --workload audit --seed 1 --seconds 30 --trace 0

Every repetition is a fresh, single-threaded interpreter (``job.py``),
because a command-line user pays cold imports and empty caches on every
invocation.  The run repeats until ``--seconds`` would be exceeded (at least
three repetitions of each kind) and reports medians.

With ``--trace 0`` the end-to-end metrics are printed with quartiles and
sample count: ``setup_s`` (interpreter start, ``import hodgekit.cli`` and
building the inputs), ``job_s`` and ``cpu_s`` of the job, the same divided
by a calibration computation (``job_per_calib``, ``cpu_per_calib``), the
child's ``peak_rss_mb``, and ``fail_ratio``.  With ``--trace 1`` untraced
and traced repetitions alternate; the traced ones give the per-layer
metrics and the difference between the two gives the tracing overhead.

Every output is checked against independent references and goldens
(``reference.py``); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from spans import EXTRA_METRICS, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
DEADLINE_S = 170  # a run must end within 180 s, whatever happens

# Printed with quartiles for every run.  Raw job and CPU seconds follow the
# host's drifting core speed (up to 2x over minutes on a shared box), so the
# result line carries them divided by each repetition's calibration time
# (job.calibrate) instead.
MEASURED = (("setup_s", "s"), ("job_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
            ("calib_s", "s"), ("job_per_calib", "ratio"), ("cpu_per_calib", "ratio"))
# Timings are gated on their median.  Peak RSS comes in whole kilobytes, so
# its median can repeat exactly from run to run; its mean keeps every digit.
GATED = {"setup_s": statistics.median, "job_per_calib": statistics.median,
         "cpu_per_calib": statistics.median, "peak_rss_mb": statistics.fmean}
UNITS = {"calls": "count", "self_s": "s", "errors": "count", "distinct_ratio": "ratio",
         "max_coeff_bits": "bits"}


def run_child(workload, seed, trace, spans_out, timeout):
    """One repetition; returns (report or None, error text)."""
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    # job.py imports hodgekit from this checkout's src only; a fixed hash
    # seed gives every repetition the same dict and set layouts
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {timeout:.0f} s"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-500:] or f"exit code {proc.returncode}"
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hodgekit" / "__init__.py").is_file():
        print(f"error: no hodgekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.monotonic()
    cases = inputs.generate(args.workload, args.seed)
    print(f"hodgekit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for case in cases:
        seeded = f" surface={json.dumps(case['surface'])}" if case["seeded"] else ""
        print(f"  input {case['id']}{seeded}")

    kinds = (0, 1) if args.trace else (0,)
    reports = {kind: [] for kind in kinds}
    wall = {kind: 0.0 for kind in kinds}
    attempted = failed = 0
    digests: dict[str, str] = {}
    errors: list[str] = []
    spans_out = BENCH / ".work" / f"spans-{args.workload}-seed{args.seed}.json"
    rep = 0
    while True:
        kind = kinds[rep % len(kinds)]
        elapsed = time.monotonic() - began
        enough = all(len(reports[k]) >= MIN_REPS for k in kinds)
        if enough and elapsed + wall[kind] > args.seconds:
            break
        if elapsed > DEADLINE_S - 10:
            print("  stopped early to stay within the time limit")
            break
        first_traced = kind == 1 and not reports[1]
        t0 = time.monotonic()
        report, error = run_child(args.workload, args.seed, kind,
                                  spans_out if first_traced else None,
                                  DEADLINE_S - elapsed)
        wall[kind] = time.monotonic() - t0
        rep += 1
        attempted += len(cases)
        if report is None:
            failed += len(cases)
            errors.append(error)
            if not reports[kind]:
                break  # the very first repetition failed: nothing to measure
            continue
        reports[kind].append(report)
        for row in report["cases"]:
            # same seed, same inputs: every repetition, traced or not, must
            # give byte-identical outputs
            same = digests.setdefault(row["id"], row.get("digest")) == row.get("digest")
            if row["failures"] or not same:
                failed += 1
                errors.append(f"{row['id']}: {row['failures'] or ['output differs between repetitions']}")

    for error in dict.fromkeys(errors):
        print(f"  FAILED {error}")
    untraced = reports[0]
    if not untraced or (args.trace and not reports[1]):
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    metrics = {}
    print(f"  repetitions: {len(untraced)} untraced"
          + (f", {len(reports[1])} traced" if args.trace else ""))
    for name, unit in MEASURED:
        values = [r[name] for r in untraced]
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:<14} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"mean {statistics.fmean(values):.6g}  n={len(values)}")
        if name in GATED:
            metrics[name] = {"value": GATED[name](values), "unit": unit}
    print(f"  {'fail_ratio':<14} {failed / attempted:.6g} ratio  ({failed} of {attempted} outputs)")

    if args.trace:
        traced = reports[1]
        metrics = {}
        total_self = statistics.median(
            sum(r["layers"][layer]["self_s"] for layer in LAYERS) for r in traced)
        print("  layer       self_s     share  calls")
        for layer in LAYERS:
            for name in ("calls", "self_s", "errors", *EXTRA_METRICS[layer]):
                value = statistics.median(r["layers"][layer][name] for r in traced)
                metrics[f"{layer}.{name}"] = {"value": value, "unit": UNITS.get(name, "count")}
            self_s = metrics[f"{layer}.self_s"]["value"]
            print(f"  {layer:<11} {self_s:<10.4f} {self_s / total_self:6.1%}  "
                  f"{metrics[f'{layer}.calls']['value']:g}")
        overhead = (statistics.median(r["job_per_calib"] for r in traced)
                    / statistics.median(r["job_per_calib"] for r in untraced) - 1)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        tracer_s = statistics.median(r["tracer_s"] for r in traced)
        print(f"  tracing overhead {overhead:.1%} of job_s ({tracer_s:.4f} s of it in "
              f"wrapper bookkeeping); spans of the first traced repetition in "
              f"{spans_out.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
