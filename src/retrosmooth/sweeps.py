"""Sweeps shared by the command line and the check suite.

Every record sweep runs one retrodictive update under each prior kind for
each past of a record table, and returns arrays and plain numbers; the CLI
formats and writes them, ``verify`` holds them to tolerances.  One floor,
:data:`PROB_FLOOR`, decides which past records count as impossible.

* :func:`future_table` / :func:`record_table` group records by their past
  prefix at the smoothing time, as ``past -> Past(rho_f, p, futures)``: each
  table filters its pasts in one pass over their prefix trie.
* :func:`smooth_table` is the one smoothing pass: for each prior kind it
  builds the priors of all the table's pasts as one stacked
  :class:`~retrosmooth.retrodiction.PriorTable`, in one
  :func:`~retrosmooth.smoothers.build_priors` call (one bob-branch pass for
  a register kind, the scenario's one built extension for ``custom``), and
  smooths every (past, future) pair from it in one stacked call, building no
  per-past prior object.  It retrofilters the table's distinct futures in one
  pass over their suffix trie, shared by every prior kind.  The sweeps below
  reduce it.
* :func:`entropy_rows` holds the average smoothed entropy of each (prior
  kind, past) pair against the ``S(rho_F) - H(futures) <= avg <= S(rho_F)``
  sandwich.
* :func:`classical_deviation` compares quantum smoothing of a classical chain
  with forward-backward smoothing at every split of every record: one table
  holds every (record, split) as a (past, future), one pass smooths it, and
  each kind's states are compared with the stacked classical posteriors at once.
* :func:`theorem1_sweep` checks the extremal entropy bounds on random
  extensions: the callers draw each triple on its own, as one vector of
  standard normals, so each row depends only on its own draw.  The sweep
  splits, builds and checks the draws per shape group in stacked passes that
  decompose each matrix once, each row with the bits of its one-row
  evaluation.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .classical import classical_smooth_all
from .entropy import Theorem1Report, sandwich_bound, theorem1_from_roots
from .errors import NotClassicalLimit, RetrosmoothError, ZeroProbabilityRecord
from .linalg import WEIGHT_FLOOR, density_sqrt, entropy_vn, psd_sqrt, trace_norm
from .retrodiction import PriorTable, generalized_smooth
from .sampling import density_from, extension_from, povm_from, triples_from
from .smoothers import build_priors
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


class Smoothed(NamedTuple):
    """One (prior kind, past) of a :func:`smooth_table` pass.

    ``futures`` is the table's ``[(future, probability)]`` for the past.  When
    ``error`` is ``None``, ``states[j]`` is future ``j`` smoothed under
    the past's prior, row ``row`` of the kind's ``priors``, from its
    retrofiltered effect ``effects[j]``, NaN where ``possible[j]`` is false.
    Otherwise ``error`` is :data:`ZERO_PAST` or the exception of the failed
    prior build, and the priors and arrays are ``None``.
    """

    kind: str
    past: tuple
    futures: list[tuple[tuple, float]]
    p_past: float
    rho_f: np.ndarray | None = None
    priors: PriorTable | None = None
    row: int = 0
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
    every prior kind.  Each kind's priors are built for all pasts at once,
    as one :class:`~retrosmooth.retrodiction.PriorTable`, and smoothed in one
    stacked :func:`generalized_smooth` call.  A past at or below
    :data:`PROB_FLOOR` is not smoothed.
    """
    if not table:
        return
    live = [past for past, entry in table.items() if entry.p > PROB_FLOOR]
    row = {past: i for i, past in enumerate(live)}
    distinct = list(dict.fromkeys(fut for past in table.values() for fut, _ in past.futures))
    index = {fut: j for j, fut in enumerate(distinct)}
    futures = [[index[fut] for fut, _ in table[past].futures] for past in live]
    effects = np.stack(retrofilter_records(scenario.instrument, distinct))
    rho_fs = [table[past].rho_f for past in live]
    for kind in kinds:
        priors = build_priors(kind, scenario.instrument, scenario.rho0, live, rho_fs, scenario.enumeration_cap,
                              scenario.custom_prior)
        smoothed = generalized_smooth(priors, effects, futures)
        for past, (rho_f, p_past, futs) in table.items():
            if p_past <= PROB_FLOOR:
                yield Smoothed(kind, past, futs, p_past, error=ZERO_PAST)
                continue
            i = row[past]
            if priors.errors[i] is not None:
                yield Smoothed(kind, past, futs, p_past, rho_f, error=priors.errors[i])
            else:
                yield Smoothed(kind, past, futs, p_past, rho_f, priors, i, effects[futures[i]], *smoothed[i])


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

    Every record above the probability floor, split at every time, is one
    table (a past's length is its split) smoothed in one pass, so a failed
    prior build or a vanishing record raises in kind-major order.  Each
    kind's states are compared with every pair's classical posterior at once.
    """
    if scenario.classical is None:
        raise NotClassicalLimit("scenario is not classical: classical-limit needs system.type == 'classical'")
    inst, rho0, steps = scenario.instrument, scenario.rho0, scenario.steps
    records = [(rec, p) for rec, p in enumerate_records(inst, rho0, steps, scenario.enumeration_cap) if p > PROB_FLOOR]
    grouped: dict[tuple, list] = {}
    for t, (rec, p) in itertools.product(range(steps + 1), records):
        grouped.setdefault(rec[:t], []).append((rec[t:], p))
    worst = dict.fromkeys(kinds, 0.0)
    if not records:
        return worst, 0
    table = _complete_table(inst, rho0, grouped)
    # each record's posteriors at every split from one forward-backward pass, stacked in the table's order
    expected = {rec: classical_smooth_all(scenario.classical, np.diag(rho0).real, rec) for rec, _ in records}
    classical = np.stack([expected[past + fut][len(past)] for past, entry in table.items() for fut, _ in entry.futures])
    del expected  # freed before the pass
    passes = smooth_table(scenario, table, kinds)
    for kind in kinds:
        states = []
        for s in itertools.islice(passes, len(table)):
            if s.error is not None:
                raise s.error
            if not s.possible.all():
                raise ZeroProbabilityRecord(f"a record of {render(s.past)!r} has vanishing probability")
            states.append(s.states)
        deviation = np.abs(np.diagonal(np.concatenate(states), axis1=1, axis2=2).real - classical).max()
        worst[kind] = max(worst[kind], float(deviation))
    return worst, len(records)


def _theorem1_pass(shape: tuple[int, int, int], rows: list) -> list[Theorem1Report]:
    """Build same-shape draws into triples and check them in one stacked pass.

    Each matrix is decomposed once: ``sqrt(gamma)`` builds the extension and
    the trivial update, and one eigendecomposition of each extension both
    checks it as a state and gives its root.
    """
    d_q, d_a, n_eff = shape
    g, psi, e = triples_from(np.stack(rows), d_q, d_a, n_eff)
    gamma = density_from(g)
    root = psd_sqrt(gamma)
    ext, ext_root = density_sqrt(extension_from(root, psi), "extension")
    return theorem1_from_roots(gamma, root, ext[:, None], ext_root[:, None], (d_q, d_a), povm_from(e))


def theorem1_sweep(draws) -> list[Theorem1Report]:
    """Theorem-1 reports of random triples, from an iterable of their draws, in draw order.

    Each draw is ``((dim_q, dim_a, n_effects), row)``: the triple's shape and
    one vector of ``sampling.triple_size(dim_q, dim_a, n_effects)`` standard
    normals, split by :func:`~retrosmooth.sampling.triples_from`.  Draws of one
    shape are checked together as soon as their outcomes' sandwiches fill
    ``THEOREM1_PASS_ENTRIES`` entries, and the rest at the end, so the draws
    held and the stacks built stay small for any number of rows.
    """
    reports: list = []
    pending: defaultdict[tuple, list] = defaultdict(list)

    def check(shape, rows):
        for (i, _), report in zip(rows, _theorem1_pass(shape, [row for _, row in rows])):
            reports[i] = report
        rows.clear()

    for i, (shape, row) in enumerate(draws):
        reports.append(None)
        rows = pending[shape]
        rows.append((i, row))
        d_q, d_a, n_eff = shape
        if len(rows) * n_eff * (d_q * d_a) ** 2 >= THEOREM1_PASS_ENTRIES:
            check(shape, rows)
    for shape, rows in pending.items():
        if rows:
            check(shape, rows)
    return reports
