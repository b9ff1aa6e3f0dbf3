"""The benchmark's outputs, pinned by sha256: every workload of ``bench/child.py`` at two seeds.

Each run is one ``bench/child.py`` interpreter with the environment
``bench/run.py`` gives its children (one BLAS thread, ``PYTHONHASHSEED=0``).
A change that is meant to leave results alone must leave these bytes alone.
After an intended output change, record the manifest again from the
repository root:

    PYTHONPATH=src python tests/test_bench_digests.py > tests/bench_sha256.json
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
MANIFEST = Path(__file__).with_name("bench_sha256.json")
WORKLOADS = ("enumerate-qubit", "classical-limit", "record-entropy")
SEEDS = (11, 41)


def _child_env() -> dict[str, str]:
    """The environment ``bench/run.py`` starts each child with."""
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling tracer.py
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return run.child_env()


def digests(workload: str, seed: int, out: Path) -> dict[str, str]:
    """The sha256 of every output file of one ``bench/child.py`` run."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])["sha256"]


def manifest(work: Path) -> dict[str, dict[str, str]]:
    return {f"{w}:{s}": digests(w, s, work / f"{w}-{s}") for w in WORKLOADS for s in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_outputs_match_manifest(workload, seed, tmp_path):
    expected = json.loads(MANIFEST.read_text())
    assert digests(workload, seed, tmp_path) == expected[f"{workload}:{seed}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        found = manifest(Path(work))
    sys.stdout.write(json.dumps(found, indent=2, sort_keys=True) + "\n")
