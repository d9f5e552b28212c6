"""tools/bench_pairs.py: which checkouts it refuses, and how it sums pairs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(root):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text("")
    return root


def test_refuses_unequal_paths_and_bytecode(tmp_path):
    parent, change = checkout(tmp_path / "pa"), checkout(tmp_path / "ch")
    assert bench_pairs.refusal(parent, change) is None
    assert "differ in length" in bench_pairs.refusal(parent, checkout(tmp_path / "chx"))
    assert "no bench/run.py" in bench_pairs.refusal(parent, tmp_path)
    (change / "src" / "hodgekit" / "__pycache__").mkdir(parents=True)
    assert "__pycache__" in bench_pairs.refusal(parent, change)


def test_summary_counts_wins_and_leaves_ties_to_neither():
    def result(**values):
        return {"metrics": {name: {"value": v} for name, v in values.items()}}

    pairs = [(result(job=1.0, hits=5), result(job=0.8, hits=5)),
             (result(job=1.2, hits=5), result(job=1.2, hits=7)),
             (result(job=1.1, hits=6), result(job=1.3, hits=4))]
    job, hits = bench_pairs.summary(pairs, {"job": "lower", "hits": "higher"})
    assert job.startswith("job") and "parent 1.1 " in job and "change 1.2 " in job
    assert "change better in 1 of 3, worse in 1" in job
    assert "change better in 1 of 3, worse in 1" in hits
