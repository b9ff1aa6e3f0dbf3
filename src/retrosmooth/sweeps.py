"""Exact-enumeration sweeps shared by the command line and the check suite.

Every sweep runs one retrodictive update under each prior kind for each
past of a record table, and returns arrays and plain numbers; the CLI
formats and writes them, ``verify`` holds them to tolerances.  One floor,
:data:`PROB_FLOOR`, decides which past records count as impossible.

* :func:`future_table` / :func:`record_table` group records by their past
  prefix at the smoothing time.
* :func:`smooth_table` is the one smoothing pass: for each (prior kind,
  past) of a table it builds the prior and smooths every future in one
  stacked call.  The sweeps below reduce it.
* :func:`entropy_rows` holds the average smoothed entropy of each (prior
  kind, past) pair against the ``S(rho_F) - H(futures) <= avg <= S(rho_F)``
  sandwich.
* :func:`classical_deviation` compares quantum smoothing of a classical chain
  with forward-backward smoothing over every record and split time.

Within one pass each distinct future is retrofiltered once and each
distinct past filtered once, shared by every prior kind and by the prior
builds that need the filtered state.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .classical import classical_smooth
from .entropy import sandwich_bound
from .errors import NotClassicalLimit, RetrosmoothError, ZeroProbabilityRecord
from .linalg import WEIGHT_FLOOR, entropy_vn, trace_norm
from .retrodiction import FilteredGlobalState, generalized_smooth
from .smoothers import build_custom, build_prior
from .trajectory import enumerate_records, filter as filter_state, retrofilter

PROB_FLOOR = 1e-12

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


def prior_for(scenario, built, kind: str, past, rho0, rho_f):
    """The prior of one kind for one past, built under the scenario's enumeration cap.

    ``rho_f``, the past's filtered state, spares the ``pf``/``clhs`` builds
    a second :func:`filter` call; a ``custom`` prior's marginal must equal it.
    """
    if kind == "custom":
        scenario.require_kinds((kind,))
        matrix, dim_a = scenario.custom_prior
        prior = build_custom(matrix, (built.dim, dim_a))
        prior.require_marginal(rho_f, "the filtered state")
        return prior
    return build_prior(
        kind,
        rho0=rho0,
        alice_past=past,
        instrument=built.instrument,
        cap=scenario.cap(),
        rho_f=rho_f,
    )


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


class Smoothed(NamedTuple):
    """One (prior kind, past) of a :func:`smooth_table` pass.

    ``futures`` is the table's ``[(future, probability)]`` for the past.  When
    ``error`` is ``None``, ``states[j]`` is future ``j`` smoothed under
    ``prior`` from its retrofiltered effect ``effects[j]``, NaN where
    ``possible[j]`` is false.  Otherwise ``error`` is :data:`ZERO_PAST` or the
    exception of the failed prior build, and the prior and arrays are ``None``.
    """

    kind: str
    past: tuple
    futures: list[tuple[tuple, float]]
    p_past: float
    rho_f: np.ndarray | None = None
    prior: FilteredGlobalState | None = None
    effects: np.ndarray | None = None
    states: np.ndarray | None = None
    possible: np.ndarray | None = None
    error: str | RetrosmoothError | None = None

    def residual(self) -> float:
        """Trace norm between the probability-weighted smoothed average and ``rho_F``."""
        avg = np.zeros(self.rho_f.shape, dtype=complex)
        for (_, p), rho_s, ok in zip(self.futures, self.states, self.possible):
            if ok:
                avg += (p / self.p_past) * rho_s
        return trace_norm(avg - self.rho_f)


def smooth_table(scenario, built, rho0, table, kinds, *, complete: bool):
    """Every future of every (prior kind, past) of a table smoothed, as :class:`Smoothed`, kind-major.

    ``complete`` marks that the table lists every future of each past, whose
    probability is then the sum of theirs; otherwise the past is filtered for
    it.  A past at or below :data:`PROB_FLOOR` is not smoothed.
    """
    memo = _Memo(built.instrument, rho0)
    for kind in kinds:
        for past, futures in table.items():
            p_past = sum(p for _, p in futures) if complete else memo["past", past][1]
            if p_past <= PROB_FLOOR:
                yield Smoothed(kind, past, futures, p_past, error=ZERO_PAST)
                continue
            rho_f = memo["past", past][0]
            try:
                prior = prior_for(scenario, built, kind, past, rho0, rho_f)
            except RetrosmoothError as exc:
                yield Smoothed(kind, past, futures, p_past, rho_f, error=exc)
                continue
            effects = np.stack([memo["future", fut] for fut, _ in futures])
            states, possible = generalized_smooth(prior, effects)
            yield Smoothed(kind, past, futures, p_past, rho_f, prior, effects, states, possible)


def entropy_rows(scenario, built, rho0, table) -> list[dict]:
    """Average smoothed entropy against its sandwich bounds, per scenario prior and past.

    Pasts at or below the probability floor are skipped; a failed prior build
    gives a row with a ``detail`` message and no ``avg_entropy``.
    """
    rows = []
    for s in smooth_table(scenario, built, rho0, table, scenario.prior_kinds, complete=True):
        if s.error == ZERO_PAST:
            continue
        if s.error is not None:
            detail = str(s.error)
            rows.append({"kind": "prior", "id": s.kind, "record": render(s.past), "detail": detail})
            continue
        probs = [p / s.p_past for _, p in s.futures]
        # a future at or below the floor adds entropy 0.0 however it smoothed
        live = np.array(probs) > WEIGHT_FLOOR
        if not s.possible[live].all():
            raise ZeroProbabilityRecord(f"a future of {render(s.past)!r} has vanishing probability")
        entropies = np.zeros(len(probs))
        entropies[live] = entropy_vn(s.states[live])
        s_bar = float(np.dot(probs, entropies))
        bound = sandwich_bound(s.rho_f, probs, s_bar)
        rows.append(
            {
                "kind": "prior",
                "id": s.kind,
                "record": render(s.past),
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

    Covers every record above the probability floor and every split time: at
    each split the records are grouped by past and smoothed in one pass.
    """
    built = scenario.build()
    if built.classical is None:
        raise NotClassicalLimit(
            "scenario is not classical: classical-limit needs system.type == 'classical'"
        )
    rho0 = scenario.rho0(built.dim)
    prior0 = np.diag(rho0).real
    enumerated = enumerate_records(built.instrument, rho0, scenario.steps, scenario.cap())
    records = [(rec, p) for rec, p in enumerated if p > PROB_FLOOR]
    worst = {kind: 0.0 for kind in kinds}
    for t in range(scenario.steps + 1):
        table: dict[tuple, list] = {}
        for rec, p in records:
            table.setdefault(rec[:t], []).append((rec[t:], p))
        expected = {
            rec: classical_smooth(built.classical, prior0, rec[:t], rec[t:]) for rec, _ in records
        }
        for s in smooth_table(scenario, built, rho0, table, kinds, complete=True):
            if s.error is not None:
                raise s.error
            if not s.possible.all():
                raise ZeroProbabilityRecord(f"a record of {render(s.past)!r} has vanishing probability")
            for (fut, _), rho_s in zip(s.futures, s.states):
                deviation = float(np.abs(np.diag(rho_s).real - expected[s.past + fut]).max())
                worst[s.kind] = max(worst[s.kind], deviation)
    return worst, len(records)
