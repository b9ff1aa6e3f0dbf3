"""retrosmooth benchmark: time whole CLI commands on fixed workloads and gate them on their oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration runs in a fresh interpreter (``child.py``), single-threaded,
the way a user runs one CLI command.  Iterations repeat until ``--seconds``
have passed, and every one is checked against the workload's correctness
gate.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
iterations, alternated with untraced ones to measure the tracing overhead.
The line before it holds the full report: every sample, the sha256 of every
output file and the environment.  The exit code is 1 when a gate fails and 2
when the checkout lacks the sources.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import SPAN_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED_FILES = (
    ROOT / "src" / "retrosmooth" / "__init__.py",
    ROOT / "scenarios" / "classical-2state.json",
)
WORKLOADS = ("enumerate-qubit", "classical-limit", "record-entropy")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120
MIN_COVERAGE = 0.9  # share of traced wall time the spans must account for


class ChildFailed(Exception):
    pass


def iteration_seed(seed: int, i: int) -> int:
    """Input seed of iteration ``i``: the workload seed itself first, then distinct ones."""
    return seed + (i << 32)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layout in every interpreter
    env.pop("RETROSMOOTH_CAP", None)  # the enumeration cap is part of the workload
    return env


def run_child(workload: str, seed: int, out_dir: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)] + ["--trace"] * trace
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, or None with ten or fewer samples."""
    n = len(samples)
    if n <= 10:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(iterations: list[dict]) -> tuple[dict, dict]:
    run_s = [r["run_s"] for r in iterations]
    attempted = sum(r["attempted"] for r in iterations)
    # rows of a run that failed its gate count as not ok
    ok = sum(r["ok"] for r in iterations if r["passed"])
    ok_ratio = ok / attempted if attempted else 0.0
    metrics = {
        "run_s": metric(statistics.median(run_s), "s"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in iterations), "s"),
        # throughput over the whole run, so that inputs with more or fewer ok rows average out
        "items_per_s": metric(ok / sum(run_s), "1/s"),
        "ok_ratio": metric(ok_ratio, "ratio"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in iterations), "MB"),
    }
    summary = {
        "run_s": {"n": len(run_s), "max": max(run_s), "tail": tail_percentile(run_s)},
        "rows_attempted": attempted,
        "rows_ok": ok,
        "failed_ratio": 1.0 - ok_ratio,
    }
    return metrics, summary


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    # counts repeat exactly, so they come from the first traced iteration, which
    # runs on the workload seed itself; times are medians over traced iterations
    first = traced[0]
    metrics = {}
    for name in SPAN_NAMES:
        calls = first["spans"].get(name, [0, 0.0])[0]
        self_s = statistics.median(r["spans"].get(name, [0, 0.0])[1] for r in traced)
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    blocks = first["blocks"]
    coverage = min(r["coverage"] for r in traced)
    metrics.update({
        "smoothers.blocks": metric(blocks, "count"),
        "smoothers.zero_block_ratio": metric(first["zero_blocks"] / blocks if blocks else 0.0, "ratio"),
        "linalg.psd_sqrt.calls_per_block": metric(first["block_roots"] / blocks if blocks else 0.0,
                                                  "calls/block"),
        "linalg.eig.calls": metric(first["eig_calls"], "count"),
        "check.max_residual": metric(first["max_residual"], "abs"),
        "trace_overhead_ratio": metric(
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in untraced) - 1.0,
            "ratio",
        ),
        "trace_coverage": metric(coverage, "ratio"),
    })
    summary = {
        "zero_blocks": first["zero_blocks"],
        "block_roots": first["block_roots"],
        "coverage_ok": coverage >= MIN_COVERAGE,
    }
    return metrics, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED_FILES if not p.is_file()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    start = perf_counter()
    runs, errors = [], []
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH) as tmp:
        # with tracing, iterations come in pairs on one input, one traced and one
        # not, the order alternating from pair to pair
        # an iteration starts only if one of median length still ends within --seconds
        j, durations = 0, []
        while j < 1 + args.trace or (
            perf_counter() - start + statistics.median(durations) <= args.seconds
        ):
            began = perf_counter()
            pair = j // 2 if args.trace else j
            traced = bool(args.trace) and (j % 2 != pair % 2)
            seed = iteration_seed(args.seed, pair)
            try:
                result = run_child(args.workload, seed, Path(tmp) / f"iter-{j}", traced)
                runs.append({"seed": seed, "traced": traced, **result})
            except ChildFailed as exc:
                errors.append({"seed": seed, "traced": traced, "error": str(exc)})
            durations.append(perf_counter() - began)
            j += 1

    traced_runs = [r for r in runs if r["traced"]]
    untraced_runs = [r for r in runs if not r["traced"]]
    if not untraced_runs or (args.trace and not traced_runs):
        for e in errors:
            print(f"error: seed {e['seed']}: {e['error']}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, summary = per_layer(traced_runs, untraced_runs)
    else:
        metrics, summary = end_to_end(runs)
    failed = len(errors) + sum(1 for r in runs if not r["passed"])
    correct = failed == 0 and summary.get("coverage_ok", True)

    first = runs[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "summary": summary,
        "environment": {
            "python": platform.python_version(),
            "numpy": first["numpy"],
            "blas": {k: first["blas"].get(k) for k in ("name", "version", "openblas configuration")},
            "cpu_count": os.cpu_count(),
            "thread_env": {var: child_env()[var] for var in THREAD_VARS},
            "git_commit": git_commit(),
        },
        "iterations": [
            {k: r[k] for k in ("seed", "traced", "setup_s", "run_s", "cpu_s", "peak_rss_mb", "attempted",
                               "ok", "passed", "max_residual", "detail", "sha256")}
            for r in runs
        ],
        "errors": errors,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(runs) + len(errors),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
