"""Sweeps shared by the command line and the check suite.

Every record sweep runs one retrodictive update under each prior kind for
each past of a record table, and returns arrays and plain numbers; the CLI
formats and writes them, ``verify`` holds them to tolerances.  One floor,
:data:`PROB_FLOOR`, decides which past records count as impossible.

* :func:`future_table` / :func:`record_table` group records by their past
  prefix at the smoothing time, as ``past -> Past(rho_f, p, futures)``: each
  table filters its pasts in one pass over their prefix trie.
* :func:`smooth_table` is the one smoothing pass: for each prior kind it
  builds the priors of all the table's pasts (one bob-branch pass for each
  register kind of :data:`~retrosmooth.smoothers.REGISTERS`) and smooths
  every (past, future) pair in one stacked call.  It retrofilters the
  table's distinct futures in one pass over their suffix trie, shared by
  every prior kind.  The sweeps below reduce it.
* :func:`entropy_rows` holds the average smoothed entropy of each (prior
  kind, past) pair against the ``S(rho_F) - H(futures) <= avg <= S(rho_F)``
  sandwich.
* :func:`classical_deviation` compares quantum smoothing of a classical chain
  with forward-backward smoothing over every record and split time.
* :func:`theorem1_sweep` checks the extremal entropy bounds on random
  extensions: the callers draw each triple on its own, so each row depends
  only on its own draw, and the sweep builds and checks the draws per shape
  group in stacked passes, each row with the bits of its one-row evaluation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .classical import classical_smooth
from .entropy import Theorem1Report, sandwich_bound, theorem1_batch
from .errors import NotClassicalLimit, RetrosmoothError, ZeroProbabilityRecord
from .linalg import WEIGHT_FLOOR, as_density, entropy_vn, trace_norm
from .retrodiction import FilteredGlobalState, generalized_smooth
from .sampling import density_from, extension_from, povm_from
from .smoothers import REGISTERS, build_custom, build_prior, register_priors
from .trajectory import enumerate_records, filter_records, retrofilter_records

PROB_FLOOR = 1e-12
# matrix entries of the largest stack one theorem-1 pass builds, its outcomes' sandwiches: bounds the
# sweep's memory (a pass holds a few such stacks).  A pass has about 2 ms of fixed numpy cost, and
# 1,000 record-entropy rows take 21 passes here, 99 at 2,048.  Sized on record-entropy (seed 11, one
# BLAS thread): peak RSS 43.9 MB here, 43.5 MB at 2,048, 45.1-46.2 MB at 32,768
THEOREM1_PASS_ENTRIES = 16384

ZERO_PAST = "zero-probability past record"


def render(record) -> str:
    return "-".join(record)


class Past(NamedTuple):
    """One past of a record table: its filtered state, its probability and its ``[(future, p)]``.

    ``rho_f`` is ``None`` where filtering finds the past impossible.
    """

    rho_f: np.ndarray | None
    p: float
    futures: list[tuple[tuple, float]]


def _complete_table(instrument, rho0, grouped: dict) -> dict[tuple, Past]:
    """``past -> Past`` of ``grouped``, ``past -> [(future, p)]`` listing every future of each past.

    The pasts are filtered in one pass; a past's probability is the sum of its futures'.
    """
    filtered = filter_records(instrument, rho0, list(grouped))
    return {
        past: Past(None if f is None else f[0], sum(p for _, p in futures), futures)
        for (past, futures), f in zip(grouped.items(), filtered)
    }


def future_table(scenario) -> dict[tuple, Past]:
    """Every record of the scenario's length, grouped by past, sorted by past."""
    t, inst, rho0 = scenario.smoothing_index, scenario.instrument, scenario.rho0
    grouped: dict[tuple, list] = defaultdict(list)
    for rec, p in enumerate_records(inst, rho0, scenario.steps, scenario.enumeration_cap):
        grouped[rec[:t]].append((rec[t:], p))
    return _complete_table(inst, rho0, dict(sorted(grouped.items())))


def record_table(scenario, records) -> dict[tuple, Past]:
    """Distinct observed records, grouped and sorted like :func:`future_table`.

    The records and their pasts are filtered in one forward pass, which gives
    each record's probability and each past's filtered state and probability.
    """
    t = scenario.smoothing_index
    records = sorted(set(records))
    keys = list(dict.fromkeys([*records, *(rec[:t] for rec in records)]))
    filtered = {
        key: (None, 0.0) if f is None else (f[0], float(np.exp(f[1])))
        for key, f in zip(keys, filter_records(scenario.instrument, scenario.rho0, keys))
    }
    grouped: dict[tuple, list] = {}
    for rec in records:
        grouped.setdefault(rec[:t], []).append((rec[t:], filtered[rec][1]))
    return {past: Past(*filtered[past], futures) for past, futures in grouped.items()}


def prior_for(scenario, kind: str, past, rho_f):
    """The prior of one kind for one past, built under the scenario's enumeration cap.

    ``rho_f``, the past's filtered state, spares the ``pf``/``clhs`` builds
    a second :func:`filter` call; a ``custom`` prior's marginal must equal it.
    """
    if kind == "custom":
        scenario.require_kinds((kind,))
        matrix, dim_a = scenario.custom_prior
        prior = build_custom(matrix, (scenario.dim, dim_a))
        prior.require_marginal(rho_f, "the filtered state")
        return prior
    return build_prior(
        kind,
        rho0=scenario.rho0,
        alice_past=past,
        instrument=scenario.instrument,
        cap=scenario.enumeration_cap,
        rho_f=rho_f,
    )


def priors_for(scenario, kind: str, table: dict[tuple, Past], pasts) -> list:
    """:func:`prior_for` each of ``pasts``, or the error of its build; one bob-branch pass for a register kind."""
    if kind in REGISTERS:
        return register_priors(kind, scenario.instrument, scenario.rho0, pasts, scenario.enumeration_cap)
    priors = []
    for past in pasts:
        try:
            priors.append(prior_for(scenario, kind, past, table[past].rho_f))
        except RetrosmoothError as exc:
            priors.append(exc)
    return priors


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
        weights = np.array([p for _, p in self.futures])[self.possible] / self.p_past
        # summed in future order from zero, as adding one future at a time would
        avg = np.add.reduce(weights[:, None, None] * self.states[self.possible], axis=0, initial=0.0)
        return trace_norm(avg - self.rho_f)


def smooth_table(scenario, table: dict[tuple, Past], kinds):
    """Every future of every (prior kind, past) of a table smoothed, as :class:`Smoothed`, kind-major.

    The table's distinct futures are retrofiltered in one pass, shared by
    every prior kind.  Each kind's priors are built for all pasts at once
    and smoothed in one stacked :func:`generalized_smooth` call.  A past at
    or below :data:`PROB_FLOOR` is not smoothed.
    """
    if not table:
        return
    live = [past for past, entry in table.items() if entry.p > PROB_FLOOR]
    distinct = list(dict.fromkeys(fut for past in table.values() for fut, _ in past.futures))
    index = {fut: j for j, fut in enumerate(distinct)}
    futures = {past: [index[fut] for fut, _ in table[past].futures] for past in live}
    effects = np.stack(retrofilter_records(scenario.instrument, distinct))
    for kind in kinds:
        priors = dict(zip(live, priors_for(scenario, kind, table, live)))
        built = [past for past, prior in priors.items() if isinstance(prior, FilteredGlobalState)]
        smoothed = generalized_smooth([priors[past] for past in built], effects, [futures[past] for past in built])
        smoothed = dict(zip(built, smoothed))
        for past, (rho_f, p_past, futs) in table.items():
            if p_past <= PROB_FLOOR:
                yield Smoothed(kind, past, futs, p_past, error=ZERO_PAST)
            elif past not in smoothed:
                yield Smoothed(kind, past, futs, p_past, rho_f, error=priors[past])
            else:
                yield Smoothed(kind, past, futs, p_past, rho_f, priors[past], effects[futures[past]], *smoothed[past])


def entropy_rows(scenario, table) -> list[dict]:
    """Average smoothed entropy against its sandwich bounds, per scenario prior and past.

    Pasts at or below the probability floor are skipped; a failed prior build
    gives a row with a ``detail`` message and no ``avg_entropy``.
    """
    units, live_states = [], []
    for s in smooth_table(scenario, table, scenario.prior_kinds):
        if s.error == ZERO_PAST:
            continue
        probs = [p / s.p_past for _, p in s.futures]
        # a future at or below the floor adds entropy 0.0 however it smoothed
        live = np.array(probs) > WEIGHT_FLOOR
        if s.error is None:
            if not s.possible[live].all():
                raise ZeroProbabilityRecord(f"a future of {render(s.past)!r} has vanishing probability")
            live_states.append(s.states[live])
        units.append((s.kind, render(s.past), s.rho_f, s.error, probs, live))
    # every live state's entropy in one call
    entropies = entropy_vn(np.concatenate([np.empty((0, scenario.dim, scenario.dim), complex), *live_states]))
    rows, end = [], 0
    for kind, record, rho_f, error, probs, live in units:
        if error is not None:
            rows.append({"kind": "prior", "id": kind, "record": record, "detail": str(error)})
            continue
        start, end = end, end + np.count_nonzero(live)
        per_future = np.zeros(len(probs))
        per_future[live] = entropies[start:end]
        s_bar = float(np.dot(probs, per_future))
        bound = sandwich_bound(rho_f, probs, s_bar)
        rows.append(
            {
                "kind": "prior",
                "id": kind,
                "record": record,
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
    if scenario.classical is None:
        raise NotClassicalLimit(
            "scenario is not classical: classical-limit needs system.type == 'classical'"
        )
    inst, rho0 = scenario.instrument, scenario.rho0
    prior0 = np.diag(rho0).real
    enumerated = enumerate_records(inst, rho0, scenario.steps, scenario.enumeration_cap)
    records = [(rec, p) for rec, p in enumerated if p > PROB_FLOOR]
    worst = {kind: 0.0 for kind in kinds}
    for t in range(scenario.steps + 1):
        grouped: dict[tuple, list] = {}
        for rec, p in records:
            grouped.setdefault(rec[:t], []).append((rec[t:], p))
        expected = {
            rec: classical_smooth(scenario.classical, prior0, rec[:t], rec[t:]) for rec, _ in records
        }
        table = _complete_table(inst, rho0, grouped)
        for s in smooth_table(scenario, table, kinds):
            if s.error is not None:
                raise s.error
            if not s.possible.all():
                raise ZeroProbabilityRecord(f"a record of {render(s.past)!r} has vanishing probability")
            for (fut, _), rho_s in zip(s.futures, s.states):
                deviation = float(np.abs(np.diag(rho_s).real - expected[s.past + fut]).max())
                worst[s.kind] = max(worst[s.kind], deviation)
    return worst, len(records)


def _theorem1_pass(draws: list) -> list[Theorem1Report]:
    """Build same-shape draws into triples and check them in one stacked pass."""
    g, psi, e = (np.stack(a) for a in zip(*draws))
    gamma = density_from(g)
    ext = as_density(extension_from(gamma, psi), "extension")
    dims = (g.shape[-1], psi.shape[-1] // g.shape[-1])
    return theorem1_batch(gamma, ext[:, None], dims, povm_from(e))


def theorem1_sweep(draws) -> list[Theorem1Report]:
    """Theorem-1 reports of random triples, from an iterable of their draws, in draw order.

    Each draw is ``(*sampling.draw_extension(...), sampling.draw_povm(...))``.
    Draws of one shape are checked together as soon as their outcomes'
    sandwiches fill ``THEOREM1_PASS_ENTRIES`` entries, and the rest at the end,
    so the draws held and the stacks built stay small for any number of rows.
    """
    reports: list = []
    pending: defaultdict[tuple, list] = defaultdict(list)

    def check(rows):
        for (i, _), report in zip(rows, _theorem1_pass([draw for _, draw in rows])):
            reports[i] = report
        rows.clear()

    for i, (g, psi, e) in enumerate(draws):
        reports.append(None)
        rows = pending[g.shape, psi.shape, e.shape]
        rows.append((i, (g, psi, e)))
        if len(rows) * len(e) * psi.size >= THEOREM1_PASS_ENTRIES:
            check(rows)
    for rows in pending.values():
        if rows:
            check(rows)
    return reports
