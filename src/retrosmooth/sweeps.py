"""Exact-enumeration sweeps shared by the command line and the check suite.

Each sweep walks every record of a scenario (or every observed record) and
returns plain data; the CLI formats and writes it, ``verify`` holds it to
tolerances.  One floor decides which past records count as impossible.

* :func:`future_table` / :func:`record_table` group records by their past
  prefix at the smoothing time.
* :func:`future_averages` smooths every future of every (prior kind, past)
  pair and, for complete tables, compares the probability-weighted average to
  the filtered state.
* :func:`entropy_rows` holds the average smoothed entropy of each (prior
  kind, past) pair against the ``S(rho_F) - H(futures) <= avg <= S(rho_F)``
  sandwich.
* :func:`classical_deviation` compares quantum smoothing of a classical chain
  with forward-backward smoothing over every record and split time.

Within one sweep each distinct future is retrofiltered once and each
distinct past filtered once, shared by every prior kind and by the prior
builds that need the filtered state; every future of a (prior kind, past)
pair is smoothed in one stacked call, and its metrics taken over the stack.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .classical import classical_smooth
from .entropy import sandwich_bound
from .errors import (
    InvalidExtension,
    NotClassicalLimit,
    RetrosmoothError,
    ScenarioError,
    ZeroProbabilityRecord,
)
from .linalg import WEIGHT_FLOOR, entropy_vn, fidelity, purity, trace_norm
from .retrodiction import generalized_smooth
from .scenario import matrix_from_json, state_to_json
from .smoothers import build_custom, build_prior
from .trajectory import enumerate_records, filter as filter_state, retrofilter

_PROB_FLOOR = 1e-12

ZERO_PAST = "zero-probability past record"


def render(record) -> str:
    return "-".join(record)


def future_table(scenario, built, rho0) -> dict[tuple, list[tuple[tuple, float]]]:
    """Every record of the scenario's length as ``past -> [(future, p)]``, sorted by past."""
    t = scenario.smoothing_index
    table: dict[tuple, list] = defaultdict(list)
    for rec, p in enumerate_records(built.instrument, rho0, scenario.steps, scenario.cap()):
        table[rec[:t]].append((rec[t:], p))
    return dict(sorted(table.items()))


def record_table(scenario, built, rho0, records) -> dict[tuple, list[tuple[tuple, float]]]:
    """Distinct observed records, grouped and sorted like :func:`future_table`."""
    t = scenario.smoothing_index
    memo = _Memo(built.instrument, rho0)
    table: dict[tuple, list] = {}
    for rec in sorted(set(records)):
        table.setdefault(rec[:t], []).append((rec[t:], memo["past", rec][1]))
    return table


def prior_for(scenario, built, kind: str, past, rho0, rho_f=None):
    """The prior of one kind for one past, built under the scenario's enumeration cap.

    ``rho_f``, the past's filtered state when the caller already holds it,
    spares the ``pf``/``clhs`` builds and the ``custom`` check a second
    :func:`filter` call; ``None`` filters the past here.
    """
    if kind == "custom":
        if not scenario.custom_prior:
            raise ScenarioError("custom_prior: required when prior kind 'custom' is requested")
        matrix = matrix_from_json(scenario.custom_prior.get("matrix"), "custom_prior.matrix")
        dim_a = int(scenario.custom_prior.get("dim_a", 1))
        prior = build_custom(matrix, (built.dim, dim_a))
        if rho_f is None:
            rho_f, _ = filter_state(built.instrument, rho0, past)
        gap = prior.consistency_gap(rho_f)
        if gap > 1e-9:
            raise InvalidExtension(
                f"custom prior marginal deviates from the filtered state by {gap:.3e}"
            )
        return prior
    return build_prior(
        kind,
        rho0=rho0,
        alice_past=past,
        instrument=built.instrument,
        cap=scenario.cap(),
        rho_f=rho_f,
    )


def future_averages(scenario, built, rho0, table, kinds, *, complete: bool):
    """Smoothed states for every (prior kind, past) of a table, kind-major.

    Yields ``(kind, past, result)`` where ``result`` holds ``p_past``, the
    per-future ``rows``, the ok ``states`` keyed by rendered future, and
    ``error`` (:data:`ZERO_PAST`, a failed prior build, or ``None``).
    ``complete`` marks that the table lists every future, in which case
    ``avg_residual`` is the trace norm between the probability-weighted
    average of the smoothed states and the filtered state.
    """
    memo = _Memo(built.instrument, rho0)
    for kind in kinds:
        for past, futures in table.items():
            yield kind, past, _average_one(scenario, built, rho0, kind, past, futures, complete, memo)


class _Memo(dict):
    """What one sweep derives from a record, each computed on first use.

    ``memo["future", future]`` is the retrofiltered effect of a future and
    ``memo["past", past]`` is ``(rho_F, probability)`` of a past from one
    :func:`filter` call, ``(None, 0.0)`` when filtering finds it impossible.
    One instance serves a whole sweep, so every prior kind shares them.
    """

    def __init__(self, instrument, rho0):
        super().__init__()
        self.instrument = instrument
        self.rho0 = rho0

    def effects(self, futures) -> np.ndarray:
        """The retrofiltered effects of some futures, as one stack ``(k, d, d)``."""
        return np.stack([self["future", fut] for fut in futures])

    def __missing__(self, key):
        role, record = key
        if role == "future":
            value = retrofilter(self.instrument, record)
        else:
            try:
                rho_f, log_prob = filter_state(self.instrument, self.rho0, record)
                value = (rho_f, float(np.exp(log_prob)))
            except ZeroProbabilityRecord:
                value = (None, 0.0)
        self[key] = value
        return value


def _average_one(scenario, built, rho0, kind, past, futures, complete, memo):
    p_past = sum(p for _, p in futures) if complete else memo["past", past][1]
    out = {"p_past": p_past, "rows": [], "avg_residual": None, "states": {}, "error": None}
    if out["p_past"] <= _PROB_FLOOR:
        out["error"] = ZERO_PAST
        return out
    rho_f = memo["past", past][0]
    try:
        prior = prior_for(scenario, built, kind, past, rho0, rho_f)
    except RetrosmoothError as exc:
        out["error"] = str(exc)
        return out
    states, possible = generalized_smooth(prior, memo.effects(fut for fut, _ in futures))
    smoothed = states[possible]
    metrics = zip(
        smoothed,
        purity(smoothed).tolist(),
        entropy_vn(smoothed).tolist(),
        fidelity(smoothed, rho_f).tolist(),
    )
    avg = np.zeros((built.dim, built.dim), dtype=complex)
    for (fut, p), ok in zip(futures, possible):
        row = {
            "scenario": scenario.name,
            "prior": kind,
            "past": render(past),
            "future": render(fut),
            "probability": p,
            "status": "ok",
        }
        if not ok:
            row["status"] = "zero-probability"
            out["rows"].append(row)
            continue
        rho_s, row["purity"], row["entropy"], row["fidelity_to_filtered"] = next(metrics)
        avg += (p / out["p_past"]) * rho_s
        out["rows"].append(row)
        out["states"][render(fut)] = state_to_json(rho_s)
    if complete:
        out["avg_residual"] = trace_norm(avg - rho_f)
    return out


def entropy_rows(scenario, built, rho0, table) -> list[dict]:
    """Average smoothed entropy against its sandwich bounds, per scenario prior and past.

    Pasts at or below the probability floor are skipped; a failed prior build
    gives a row with a ``detail`` message and no ``avg_entropy``.
    """
    rows = []
    memo = _Memo(built.instrument, rho0)
    for kind in scenario.prior_kinds:
        for past, futs in table.items():
            p_past = sum(p for _, p in futs)
            if p_past <= _PROB_FLOOR:
                continue
            rho_f = memo["past", past][0]
            try:
                prior = prior_for(scenario, built, kind, past, rho0, rho_f)
            except RetrosmoothError as exc:
                rows.append({"kind": "prior", "id": kind, "record": render(past), "detail": str(exc)})
                continue
            probs = [p / p_past for _, p in futs]
            # a future at or below the floor adds entropy 0.0 without smoothing
            live = [j for j, q in enumerate(probs) if q > WEIGHT_FLOOR]
            entropies = [0.0] * len(futs)
            if live:
                states, possible = generalized_smooth(prior, memo.effects(futs[j][0] for j in live))
                if not possible.all():
                    raise ZeroProbabilityRecord(
                        f"a future of {render(past)!r} has vanishing probability"
                    )
                for j, s in zip(live, entropy_vn(states).tolist()):
                    entropies[j] = s
            s_bar = float(np.dot(probs, entropies))
            bound = sandwich_bound(rho_f, probs, s_bar)
            rows.append(
                {
                    "kind": "prior",
                    "id": kind,
                    "record": render(past),
                    "avg_entropy": s_bar,
                    "lower": bound.lower,
                    "upper": bound.upper,
                    "lower_margin": s_bar - bound.lower,
                    "upper_margin": bound.upper - s_bar,
                    "within_bounds": bound.holds,
                }
            )
    return rows


def classical_deviation(scenario, kinds) -> tuple[dict[str, float], int]:
    """Worst ``|diag(rho_S) - classical|`` per prior kind, and the records compared.

    Covers every record above the probability floor and every split time;
    each (kind, past) prior is built once and serves every record sharing
    that past.
    """
    built = scenario.build()
    if built.classical is None:
        raise NotClassicalLimit(
            "scenario is not classical: classical-limit needs system.type == 'classical'"
        )
    rho0 = scenario.rho0(built.dim)
    prior0 = np.diag(rho0).real
    worst = {kind: 0.0 for kind in kinds}
    memo = _Memo(built.instrument, rho0)
    priors = {}
    n_records = 0
    for rec, p in enumerate_records(built.instrument, rho0, scenario.steps, scenario.cap()):
        if p <= _PROB_FLOOR:
            continue
        n_records += 1
        for t in range(scenario.steps + 1):
            past = rec[:t]
            ps = classical_smooth(built.classical, prior0, past, rec[t:])
            for kind in kinds:
                if (kind, past) not in priors:
                    rho_f = memo["past", past][0]
                    priors[kind, past] = prior_for(scenario, built, kind, past, rho0, rho_f)
                rho_s = generalized_smooth(priors[kind, past], memo["future", rec[t:]])
                worst[kind] = max(worst[kind], float(np.abs(np.diag(rho_s).real - ps).max()))
    return worst, n_records
