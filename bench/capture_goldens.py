"""Capture the goldens: outputs of every case whose input does not depend on
the seed, at both sizes, written to ``bench/goldens.json``.

The goldens pin today's outputs byte for byte, so rerun this only in a
change that means to alter an output, and say so in that change.

    python3 bench/capture_goldens.py
"""

from __future__ import annotations

import json

import inputs
import job


def main() -> None:
    hodgekit = job.import_hodgekit()
    job.WORK.mkdir(exist_ok=True)
    spec_path = job.WORK / "capture-spec.json"
    goldens = {}
    for workload in inputs.WORKLOADS:
        for size in inputs.SIZES:
            for case in inputs.generate(workload, 0, size):
                if not case["seeded"]:
                    kind, payload = job.prepare(case, hodgekit, spec_path)
                    result = job.run_case(hodgekit, kind, payload)
                    goldens[case["id"]] = job.plain_output(kind, result)
    job.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {job.GOLDENS}")


if __name__ == "__main__":
    main()
