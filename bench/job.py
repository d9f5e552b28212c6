"""One repetition of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per repetition.  It imports hodgekit
from the checkout's ``src``, builds the workload's inputs (set-up), runs the
job once (timed), checks every output against the independent references
and goldens, and prints one JSON report as its last line of stdout.

    python3 bench/job.py --workload audit --seed 1 [--trace 1] [--size tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
GOLDENS = BENCH / "goldens.json"


# Calibration: products of a fixed 36-term bivariate polynomial with itself,
# the program's instruction mix (dicts keyed by bidegree, exact integer
# multiply-adds) in a few kilobytes of memory.
CALIBRATION_POLY = {(p, q): 7 * p + 3 * q + 1 for p in range(6) for q in range(6)}
CALIBRATION_ROUNDS = 120  # about 40 ms a sample on a 2.1 GHz Xeon
CALIBRATION_SAMPLES = 3  # before the job, and as many after it


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of the fixed calibration computation.

    On a shared host the speed of a core drifts by up to 2x over minutes,
    and every timing drifts with it.  Dividing the job's time by the median
    of the calibration samples taken just before and after it cancels that
    drift.  The garbage collector is paused so that the sample depends
    on the core's speed, not on the size of the heap.
    """
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(CALIBRATION_ROUNDS):
            product: dict = {}
            for (p, q), c in CALIBRATION_POLY.items():
                for (u, v), d in CALIBRATION_POLY.items():
                    key = (p + u, q + v)
                    product[key] = product.get(key, 0) + c * d
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        gc.enable()


def import_hodgekit():
    """Import hodgekit.cli from this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hodgekit" / "__init__.py").is_file():
        raise SystemExit(f"no hodgekit sources under {src}")
    sys.path.insert(0, str(src))
    import hodgekit
    import hodgekit.cli  # noqa: F401  (the import users pay on every invocation)
    if Path(hodgekit.__file__).resolve().parent != src / "hodgekit":
        raise SystemExit(f"imported hodgekit from {hodgekit.__file__}, not {src}")
    return hodgekit


def prepare(case: dict, hodgekit, spec_path: Path):
    """The call a case makes, with its inputs built: (kind, payload)."""
    if case["op"] == "quotient":
        if case["seeded"]:
            _, table = hodgekit.parse_surface_spec(case["surface"])
        else:
            table = hodgekit.preset(case["surface"]["name"])
        return "library", (table, case["n"], case["group"])
    argv = list(case["argv"])
    if "{spec}" in argv:
        spec_path.write_text(json.dumps(case["surface"]), encoding="utf-8")
        argv[argv.index("{spec}")] = str(spec_path)
    return "cli", argv


def run_case(hodgekit, kind: str, payload):
    """Run one prepared case through the program's public entry points.

    Names are looked up at call time, so traced runs go through the span
    recorder's wrappers.
    """
    if kind == "library":
        return hodgekit.invariant_dims(*payload)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = hodgekit.cli.main(payload)
    return {"exit": code, "stdout": stdout.getvalue()}


def plain_output(kind: str, result) -> dict:
    if kind == "library":
        return {"dimension": result.dimension,
                "hodge": [[p, q, d] for (p, q), d in result.items()]}
    return result


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the traced spans here")
    parser.add_argument("--corrupt", action="store_true",
                        help="negative control: one expected value is wrong")
    args = parser.parse_args(argv)

    # --- set-up: import the program, build inputs and goldens -------------
    hodgekit = import_hodgekit()
    cases = inputs.generate(args.workload, args.seed, args.size)
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    spec_path = WORK / f"spec-{os.getpid()}.json"
    prepared = [prepare(case, hodgekit, spec_path) for case in cases]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)  # the parent's clock too

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()

    # --- the timed job, between calibration samples ---------------------------
    samples = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    results = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for kind, payload in prepared:
        try:
            results.append((True, run_case(hodgekit, kind, payload)))
        except Exception as exc:  # one failed call must not hide the others
            results.append((False, f"{type(exc).__name__}: {exc}"))
    job_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    samples += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import statistics  # after reading peak RSS, like every module the job does not need
    calib_s, calib_cpu_s = (statistics.median(column) for column in zip(*samples))

    report = {"ready": ready, "job_s": job_s, "cpu_s": cpu_s, "calib_s": calib_s,
              "job_per_calib": job_s / calib_s, "cpu_per_calib": cpu_s / calib_cpu_s,
              "peak_rss_mb": peak_rss_mb, "cases": []}
    if recorder is not None:
        recorder.uninstall()
        report["layers"] = recorder.layer_metrics()
        report["tracer_s"] = recorder.tracer_seconds()
        if args.spans_out:
            recorder.write(args.spans_out, f"{args.workload}/seed{args.seed}/pid{os.getpid()}")
    spec_path.unlink(missing_ok=True)

    # --- checks, outside the timed region -----------------------------------
    import reference
    for i, (case, (kind, _), (ok, result)) in enumerate(zip(cases, prepared, results)):
        row = {"id": case["id"]}
        if ok:
            output = plain_output(kind, result)
            golden = None if case["seeded"] else goldens[case["id"]]
            row["digest"] = digest(output)
            row["failures"] = reference.check_case(
                case, output, golden, corrupt=args.corrupt and i == 0)
        else:
            row["failures"] = [result]
        report["cases"].append(row)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
