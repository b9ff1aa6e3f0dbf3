"""Scenario-driven command line: simulate, smooth, entropy-scan, classical-limit, verify.

Every command is deterministic given the scenario file and seed: outputs are
written with stable key order and 17-significant-digit floats, so repeated
runs produce byte-identical files.  Exit codes: 0 on success, 1 on a
verification failure, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from . import sweeps
from .entropy import no_universal_quantifier_demo
from .errors import NotClassicalLimit, RetrosmoothError, ScenarioError
from .linalg import entropy_vn, fidelity, purity, trace_norm
from .retrodiction import PRIOR_KINDS
from .sampling import triple_size
from .scenario import (
    Scenario,
    demo_scenario,
    dump_17,
    read_trajectories,
    theorem1_config,
    write_trajectories,
)
from .trajectory import sample_records

_SMOOTH_HEADER = "scenario,prior,past,future,probability,purity,entropy,fidelity_to_filtered,status"
_ENTROPY_HEADER = "kind,id,record,avg_entropy,lower,upper,lower_margin,upper_margin,within_bounds,detail"
_ENTROPY_NUMBERS = ("avg_entropy", "lower", "upper", "lower_margin", "upper_margin")
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _text(cell: str) -> str:
    """A text cell as ``csv.QUOTE_MINIMAL`` writes it: quoted, quotes doubled, if it holds , " CR or LF."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _write_lines(path: Path, header: str, lines: list[str]) -> None:
    """A CSV file: ``header``, then ``lines``, each formatted (floats as by ``fmt17``) and ending in CRLF."""
    with path.open("w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(lines)


def _write_json(path: Path, doc) -> None:
    """A JSON file: ``doc`` as :func:`dumps_17` formats it, then a newline, written as it is serialized."""
    with path.open("w") as fh:
        dump_17(doc, fh.write)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(scenario: Scenario, n_trajectories: int, out_dir: Path) -> Path:
    """Sample joint (alice, bob) trajectories and write them as a JSON-lines record file."""
    joint = scenario.instrument.joint
    records = sample_records(joint, scenario.rho0, scenario.steps, n_trajectories, scenario.seed)
    path = out_dir / f"{scenario.name}_trajectories.jsonl"
    write_trajectories(path, scenario, records)
    print(f"wrote {len(records)} trajectories to {path}")
    return path


# ---------------------------------------------------------------------------
# smooth


def cmd_smooth(
    scenario: Scenario,
    out_dir: Path,
    *,
    enumerate_futures: bool = False,
    record_path: Path | None = None,
    prior_kinds: tuple[str, ...] | None = None,
) -> dict:
    """Smoothed states per prior kind, with averaging residuals when enumerating.

    With ``enumerate_futures`` every record of the scenario's length is
    processed grouped by past prefix; per (prior, past) the future-averaged
    smoothed state is compared to the filtered state (trace norm).  With a
    record file, only the records it contains are processed.
    """
    if enumerate_futures == (record_path is not None):
        raise ScenarioError("smooth: pass exactly one of --enumerate or --record")
    kinds = prior_kinds or scenario.prior_kinds
    scenario.require_kinds(kinds)

    if enumerate_futures:
        table = sweeps.future_table(scenario)
    else:
        _, file_records = read_trajectories(record_path)
        records = [tuple(a for a, _ in rec) for rec in file_records]
        alphabet = scenario.instrument.outcome_labels
        for alice in records:
            if len(alice) != scenario.steps:
                raise ScenarioError(f"record of length {len(alice)} does not match steps={scenario.steps}")
            unknown = [y for y in alice if y not in alphabet]
            if unknown:
                raise ScenarioError(f"{record_path}: outcome {unknown[0]!r} not in alphabet {alphabet}")
        table = sweeps.record_table(scenario, records)

    # the whole pass first, keeping what the rows need; the full state arrays only for the gw gap
    units, live, register = [], [], {"gw": {}, "gw-variant": {}}
    for s in sweeps.smooth_table(scenario, table, kinds):
        residual = s.residual() if enumerate_futures and s.error is None else None
        if s.error is None:
            live.append((s.states[s.possible], s.rho_f))
            if s.kind in register:
                register[s.kind][s.past] = s.states, s.possible
        units.append((s._replace(prior=None, effects=None, states=None), residual))
    # then the metrics of every smoothed state in one call each
    empty = np.empty((0, scenario.dim, scenario.dim), complex)
    smoothed = np.concatenate([empty, *(states for states, _ in live)])
    filtered = np.concatenate([empty, *(np.broadcast_to(rho_f, states.shape) for states, rho_f in live)])
    metrics = (purity(smoothed), entropy_vn(smoothed), fidelity(smoothed, filtered))
    rows = zip(*(m.tolist() for m in metrics), smoothed.real, smoothed.imag)

    lines, doc_priors, residuals = [], {}, {}
    name = _text(scenario.name)
    for s, residual in units:
        entry = doc_priors.setdefault(s.kind, {})
        residuals.setdefault(s.kind, None)
        key = sweeps.render(s.past)
        head = f"{name},{s.kind},{_text(key)}"  # prior kinds are plain names
        if s.error is not None:
            lines.append(f"{head},,{s.p_past:.17g},,,,{_text(str(s.error))}\r\n")
            entry[key] = {"error": str(s.error), "p_past": s.p_past}
            continue
        states = {}
        for (fut, p), ok in zip(s.futures, s.possible.tolist()):
            future = sweeps.render(fut)
            if ok:
                pur, ent, fid, real, imag = next(rows)
                lines.append(f"{head},{_text(future)},{p:.17g},{pur:.17g},{ent:.17g},{fid:.17g},ok\r\n")
                states[future] = {"dim": scenario.dim, "real": real, "imag": imag}
            else:
                lines.append(f"{head},{_text(future)},{p:.17g},,,,zero-probability\r\n")
        entry[key] = {"p_past": s.p_past, "avg_vs_filtered_trace_norm": residual, "states": states}
        if residual is not None:
            residuals[s.kind] = max(residuals[s.kind] or 0.0, residual)

    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "time_index": scenario.smoothing_index,
        "steps": scenario.steps,
        "mode": "enumerate" if enumerate_futures else "records",
        "priors": doc_priors,
    }
    summary["max_avg_residual"] = residuals
    if "gw" in doc_priors and "gw-variant" in doc_priors:
        # the largest trace distance between the two priors' states of one record
        gap = 0.0
        for past, (a, a_ok) in register["gw"].items():
            if past in register["gw-variant"]:
                b, b_ok = register["gw-variant"][past]
                if (both := a_ok & b_ok).any():
                    gap = max(gap, float(trace_norm(a[both] - b[both]).max()))
        summary["gw_vs_gw_variant_gap"] = gap

    csv_path = out_dir / f"{scenario.name}_smooth.csv"
    _write_lines(csv_path, _SMOOTH_HEADER, lines)
    json_path = out_dir / f"{scenario.name}_smooth.json"
    _write_json(json_path, summary)
    for kind, residual in residuals.items():
        if residual is not None:
            print(f"prior={kind}: max future-averaging residual {residual:.3e}")
    print(f"wrote {csv_path} and {json_path}")
    return summary


# ---------------------------------------------------------------------------
# entropy scan


def _theorem1_rows(scenario: Scenario | None, seed: int) -> list[dict]:
    n, dims_q, dims_a, effect_counts = scenario.theorem1 if scenario else theorem1_config({})
    shapes = []

    def draws():
        for i in range(n):
            # one generator per extension, so each row depends only on (seed, i)
            rng = np.random.default_rng([seed, i])
            d_q = dims_q[int(rng.integers(0, len(dims_q)))]
            d_a = dims_a[int(rng.integers(0, len(dims_a)))]
            n_eff = effect_counts[int(rng.integers(0, len(effect_counts)))]
            shapes.append(f"dq={d_q};da={d_a};effects={n_eff}")
            yield (d_q, d_a, n_eff), rng.normal(size=triple_size(d_q, d_a, n_eff))

    reports = sweeps.theorem1_sweep(draws())
    return [
        {
            "kind": "theorem1",
            "id": f"ext-{i:04d}",
            "record": shape,
            "avg_entropy": report.avg_entropy_extension,
            "lower": report.avg_entropy_trivial,
            "upper": report.entropy_marginal,
            "lower_margin": report.lower_margin,
            "upper_margin": report.upper_margin,
            "within_bounds": report.ordering_holds,
        }
        for i, (shape, report) in enumerate(zip(shapes, reports))
    ]


def _svb_rows() -> list[dict]:
    demo = no_universal_quantifier_demo()
    rows = []
    for (ext, axis), value in demo.values.items():
        rows.append(
            {
                "kind": "svb",
                "id": f"{ext}-{axis}",
                "record": "",
                "avg_entropy": value,
                "lower": demo.expected[(ext, axis)],
                "upper": demo.expected[(ext, axis)],
                "lower_margin": value - demo.expected[(ext, axis)],
                "upper_margin": demo.expected[(ext, axis)] - value,
                "within_bounds": abs(value - demo.expected[(ext, axis)]) <= 1e-10,
                "detail": "expected-value-columns",
            }
        )
    rows.append(
        {
            "kind": "svb",
            "id": "ordering-reversal",
            "record": "",
            "within_bounds": demo.reversal_holds,
            "detail": f"max_error={demo.max_error:.3e}",
        }
    )
    return rows


def _entropy_line(row: dict) -> str:
    """One entropy-scan CSV line; a cell the row does not hold is empty."""
    text = [_text(row.get(k, "")) for k in ("kind", "id", "record")]
    numbers = [f"{row[k]:.17g}" if k in row else "" for k in _ENTROPY_NUMBERS]
    holds = row.get("within_bounds")
    flag = "" if holds is None else "true" if holds else "false"
    return ",".join([*text, *numbers, flag, _text(row.get("detail", ""))]) + "\r\n"


def cmd_entropy_scan(
    scenario: Scenario | None,
    out_dir: Path,
    *,
    theorem1: bool = False,
    demo_svb: bool = False,
    seed: int | None = None,
) -> list[dict]:
    """Average-entropy rows: per-prior sandwich bounds, extension sweeps, qubit demo."""
    if scenario is None and not (theorem1 or demo_svb):
        raise ScenarioError("entropy-scan: needs a scenario, --theorem1, or --demo-svb")
    rows: list[dict] = []
    if scenario is not None:
        rows.extend(sweeps.entropy_rows(scenario, sweeps.future_table(scenario)))
    if theorem1:
        rows.extend(_theorem1_rows(scenario, seed if seed is not None else 0))
    if demo_svb:
        rows.extend(_svb_rows())
    name = scenario.name if scenario is not None else "builtin"
    csv_path = out_dir / f"{name}_entropy.csv"
    _write_lines(csv_path, _ENTROPY_HEADER, [_entropy_line(row) for row in rows])
    json_path = out_dir / f"{name}_entropy.json"
    _write_json(json_path, {"rows": rows})
    n_bad = sum(1 for r in rows if r.get("within_bounds") is False)
    print(f"wrote {len(rows)} rows to {csv_path} ({n_bad} outside bounds)")
    return rows


# ---------------------------------------------------------------------------
# classical limit


def cmd_classical_limit(scenario: Scenario, out_dir: Path, tol: float = 1e-9) -> dict:
    """Compare quantum smoothing of a classical chain with forward-backward smoothing.

    Runs every record up to the scenario length and every split time, for the
    record-register-free priors; reports the worst absolute deviation of the
    smoothed diagonals.
    """
    kinds = [k for k in ("pf", "gw-variant") if k in scenario.prior_kinds] or ["pf"]
    worst, n_records = sweeps.classical_deviation(scenario, kinds)
    report = {
        "scenario": scenario.name,
        "steps": scenario.steps,
        "n_records": n_records,
        "tolerance": tol,
        "max_abs_deviation": worst,
        "passed": all(v <= tol for v in worst.values()),
    }
    path = out_dir / f"{scenario.name}_classical_limit.json"
    _write_json(path, report)
    for kind, v in worst.items():
        print(f"prior={kind}: max |diag(rho_S) - classical| = {v:.3e}")
    print(f"wrote {path}")
    return report


# ---------------------------------------------------------------------------
# verify


def cmd_verify(seed: int = 2024) -> bool:
    """Run the built-in verification suite; returns overall success."""
    from . import verify

    results = verify.run_all(seed)
    for r in results:
        print(r.line())
    ok = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return ok


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser, *, scenario_required=True):
    parser.add_argument("--scenario", help="path to a scenario JSON file, or 'demo'",
                        required=scenario_required)
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")


def _load_scenario(args) -> Scenario:
    sc = demo_scenario() if args.scenario == "demo" else Scenario.from_file(args.scenario)
    return sc if args.seed is None else dataclasses.replace(sc, seed=int(args.seed))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrosmooth",
        description="Filtering, retrofiltering and retrodictive smoothing of monitored quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample measurement records")
    _add_common(p)
    p.add_argument("--trajectories", type=int, default=None, help="number of trajectories")

    p = sub.add_parser("smooth", help="smoothed states per prior kind")
    _add_common(p)
    p.add_argument("--enumerate", action="store_true", help="enumerate all records")
    p.add_argument("--record", help="trajectory file to smooth")
    p.add_argument("--prior", help="comma-separated prior kinds (default: scenario)")

    p = sub.add_parser("entropy-scan", help="average-entropy bounds and sweeps")
    _add_common(p, scenario_required=False)
    p.add_argument("--theorem1", action="store_true", help="random-extension bound sweep")
    p.add_argument("--demo-svb", action="store_true", help="include the qubit reversal demo")

    p = sub.add_parser("classical-limit", help="compare against forward-backward smoothing")
    _add_common(p)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--seed", type=int, default=2024)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return 0 if cmd_verify(args.seed) else 1

        # a scenario that does not load (its system and rho0 are checked on load) leaves no --out directory
        sc = None if args.command == "entropy-scan" and not args.scenario else _load_scenario(args)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"--out: cannot create directory {out_dir}: {exc.strerror or exc}") from None
        if args.command == "entropy-scan":
            seed = args.seed if args.seed is not None else (sc.seed if sc else 0)
            cmd_entropy_scan(sc, out_dir, theorem1=args.theorem1, demo_svb=args.demo_svb, seed=seed)
            return 0
        if args.command == "simulate":
            n = args.trajectories if args.trajectories is not None else sc.n_trajectories
            if n < 0:
                raise ScenarioError(f"--trajectories: must be at least 0, got {n}")
            cmd_simulate(sc, n, out_dir)
            return 0
        if args.command == "smooth":
            kinds = tuple(args.prior.split(",")) if args.prior else None
            for k in kinds or ():
                if k not in PRIOR_KINDS:
                    raise ScenarioError(f"--prior: unknown kind {k!r}")
            record = Path(args.record) if args.record else None
            cmd_smooth(sc, out_dir, enumerate_futures=args.enumerate, record_path=record, prior_kinds=kinds)
            return 0
        if args.command == "classical-limit":
            report = cmd_classical_limit(sc, out_dir)
            return 0 if report["passed"] else 1
    except (ScenarioError, NotClassicalLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RetrosmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
