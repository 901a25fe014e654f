"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, must emit exactly the metrics BENCHMARK.json names, with their
units, and check its outputs without a failure.

    python3 -m pytest benchmarks/test_smoke.py
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_emits_every_named_metric():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "smoke problem" not in proc.stdout


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        (RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "serve-decode",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
