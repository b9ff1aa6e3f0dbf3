"""The benchmark workloads: the CLI commands each runs, with their scenarios and correctness gates.

A workload is a sequence of commands.  Each command drives a public
``retrosmooth.cli.cmd_*`` function, looked up on the module at call time so
that a tracer installed around the run sees it.  The gate of each command
uses tolerances the package already has.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from retrosmooth import cli
from retrosmooth.linalg import HERMITIAN_TOL, PSD_CLAMP
from retrosmooth.scenario import Scenario, demo_scenario

ROOT = Path(__file__).resolve().parent.parent
CLASSICAL_SCENARIO = ROOT / "scenarios" / "classical-2state.json"

# tolerance of the future-averaging check in ``verify`` and of ``cmd_classical_limit``
RESIDUAL_TOL = 1e-9
RECORD_PRIORS = ("pf", "pf-variant", "clhs")
RECORD_TRAJECTORIES = 200


@dataclass
class Outcome:
    """What the gate found in one run's outputs."""

    attempted: int  # rows the run reported
    ok: int  # rows reported "ok" or "within_bounds"
    passed: bool
    max_residual: float
    detail: str


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload: its scenario from the seed, the call and its gate."""

    scenario: Callable[[int], Scenario]
    run: Callable[[Scenario, Path, int], object]
    check: Callable[[Scenario, object, Path], Outcome]


def _demo(**overrides) -> Scenario:
    doc = dict(demo_scenario().raw)
    doc.update(overrides)
    return Scenario.from_dict(doc)


def _smooth_statuses(scenario: Scenario, out_dir: Path) -> list[str]:
    with (out_dir / f"{scenario.name}_smooth.csv").open(newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# enumerate-qubit: every record of the demo qubit at 12 steps, split at 6


def _enumerate_run(scenario, out_dir, seed):
    return cli.cmd_smooth(scenario, out_dir, enumerate_futures=True)


def _enumerate_check(scenario, summary, out_dir) -> Outcome:
    statuses = _smooth_statuses(scenario, out_dir)
    residuals = summary["max_avg_residual"]
    missing = sorted(kind for kind, r in residuals.items() if r is None)
    worst = max((r for r in residuals.values() if r is not None), default=float("inf"))
    passed = not missing and worst <= RESIDUAL_TOL
    detail = f"max future-averaging residual {worst:.3e} (tol {RESIDUAL_TOL:g})"
    if missing:
        detail += f"; no residual for {', '.join(missing)}"
    return Outcome(len(statuses), statuses.count("ok"), passed, worst, detail)


# ---------------------------------------------------------------------------
# classical-limit: the shipped two-state chain against forward-backward smoothing


def _classical_run(scenario, out_dir, seed):
    return cli.cmd_classical_limit(scenario, out_dir, tol=RESIDUAL_TOL)


def _classical_check(scenario, report, out_dir) -> Outcome:
    deviations = report["max_abs_deviation"]
    # one comparison per (record, split time, prior kind)
    attempted = report["n_records"] * (report["steps"] + 1) * len(deviations)
    worst = max(deviations.values())
    passed = bool(report["passed"])
    detail = f"max |diag(rho_S) - classical| {worst:.3e} (tol {RESIDUAL_TOL:g})"
    return Outcome(attempted, attempted if passed else 0, passed, worst, detail)


# ---------------------------------------------------------------------------
# record-qubit: sampled 100-step trajectories smoothed at split 50


def _record_run(scenario, out_dir, seed):
    path = cli.cmd_simulate(scenario, RECORD_TRAJECTORIES, out_dir)
    return cli.cmd_smooth(scenario, out_dir, record_path=path, prior_kinds=RECORD_PRIORS)


def _state_defects(state: dict) -> tuple[float, float, float]:
    """Hermiticity defect (relative), most negative eigenvalue and trace error of a state."""
    m = np.asarray(state["real"]) + 1j * np.asarray(state["imag"])
    herm = float(np.abs(m - m.conj().T).max()) / max(1.0, float(np.abs(m).max()))
    neg = max(0.0, -float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]))
    return herm, neg, abs(float(m.trace().real) - 1.0)


def _record_check(scenario, summary, out_dir) -> Outcome:
    statuses = _smooth_statuses(scenario, out_dir)
    defects = [
        _state_defects(state)
        for per_past in summary["priors"].values()
        for entry in per_past.values()
        for state in entry.get("states", {}).values()
    ]
    herm, neg, trace = (float(v) for v in np.max(defects, axis=0)) if defects else (0.0, 0.0, 0.0)
    passed = (
        herm <= HERMITIAN_TOL
        and neg <= PSD_CLAMP
        and trace <= RESIDUAL_TOL
        and len(defects) == statuses.count("ok")
    )
    detail = (
        f"{len(defects)} ok states; worst hermiticity {herm:.3e} (tol {HERMITIAN_TOL:g}), "
        f"negative eigenvalue {neg:.3e} (tol {PSD_CLAMP:g}), trace error {trace:.3e} (tol {RESIDUAL_TOL:g})"
    )
    return Outcome(len(statuses), statuses.count("ok"), passed, max(herm, neg, trace), detail)


# ---------------------------------------------------------------------------
# entropy-scan: sandwich bounds on the demo qubit, theorem-1 sweep, reversal demo


def _entropy_run(scenario, out_dir, seed):
    return cli.cmd_entropy_scan(scenario, out_dir, theorem1=True, demo_svb=True, seed=seed)


def _entropy_check(scenario, rows, out_dir) -> Outcome:
    ok = sum(1 for r in rows if r.get("within_bounds") is True)
    worst = max(
        (max(0.0, -r[k]) for r in rows for k in ("lower_margin", "upper_margin") if k in r),
        default=0.0,
    )
    detail = f"{ok} of {len(rows)} rows within bounds; worst margin violation {worst:.3e}"
    return Outcome(len(rows), ok, ok == len(rows), worst, detail)


ENUMERATE_QUBIT = Command(
    lambda seed: _demo(steps=12, smoothing_time_index=6), _enumerate_run, _enumerate_check
)
CLASSICAL_LIMIT = Command(
    lambda seed: Scenario.from_file(CLASSICAL_SCENARIO), _classical_run, _classical_check
)
RECORD_QUBIT = Command(
    lambda seed: _demo(steps=100, smoothing_time_index=50, seed=seed), _record_run, _record_check
)
ENTROPY_SCAN = Command(
    lambda seed: _demo(steps=8, smoothing_time_index=4, theorem1={"n_extensions": 1000}),
    _entropy_run,
    _entropy_check,
)

# the two seeded commands share a workload: three workloads still cover every layer and
# leave room for longer runs than four would
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "enumerate-qubit": (ENUMERATE_QUBIT,),
    "classical-limit": (CLASSICAL_LIMIT,),
    "record-entropy": (RECORD_QUBIT, ENTROPY_SCAN),
}


def combine(outcomes: list[Outcome]) -> Outcome:
    """One outcome for a workload from those of its commands."""
    return Outcome(
        sum(o.attempted for o in outcomes),
        sum(o.ok for o in outcomes),
        all(o.passed for o in outcomes),
        max(o.max_residual for o in outcomes),
        "; ".join(o.detail for o in outcomes),
    )
