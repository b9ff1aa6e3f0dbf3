"""Builders for the filtered global states behind each smoothing flavor.

Each prior kind encodes what the agent credits about correlations with the
system before the smoothing time:

``pf``
    No auxiliary at all: the prior is the filtered state itself, and
    smoothing reduces to ``sqrt(rho_F) E_R sqrt(rho_F)`` (normalized).
``gw``
    The initial state is held as a purification (improper mixture) and the
    unmonitored environment as a classical record register, one branch per
    possible record of the hypothetical second observer ("bob").  Smoothing
    then averages the branch-conditioned states exactly as the
    trajectory-based definition does.
``gw-variant``
    Record register only, no purification of the initial state.
``pf-variant``
    Purification of the initial state only, propagated through the
    observer's own conditional operations.
``clhs``
    A purification of the filtered state itself: the agent is certain of the
    global pure state, so smoothing never updates the system marginal.
``custom``
    Any explicit extension with the right marginal (used for bound sweeps).

``gw``, ``gw-variant`` and ``pf-variant`` are one classical register over what
bob tells apart, and :data:`REGISTERS` maps each to bob's partition and
whether ``rho0`` is purified.  :func:`build_priors` builds every kind for
every past of a table as one :class:`~retrosmooth.retrodiction.PriorTable`,
its blocks stacked and validated in one pass, each register kind from one
:func:`~retrosmooth.trajectory.walk_records` pass over its bob branches;
:func:`build_prior` is row 0 of a one-past table, and :func:`build_pf`,
:func:`build_clhs` and :func:`build_custom` give one
:class:`~retrosmooth.retrodiction.FilteredGlobalState`, the view of a one-row
table, checked once.  Under the finest partition bob's options at an outcome
are the sorted names of its Kraus operators, so every instrument has every
prior; under the coarsest bob tells apart no more than alice, and the register
has one branch.  The pass merges, exactly, the branches of a past that end in
one reset, so a register block is one bob record or the sum of every record
that ended in one reset; :func:`enumerate_bob_branches` and
:func:`branch_mixture_smooth` walk every bob record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLarge, InvalidFactorization, RetrosmoothError, ZeroProbabilityRecord
from .linalg import ISOMETRY_TOL, WEIGHT_FLOOR, as_density, dag, hermitian_part, purify, tensor
from .retrodiction import FilteredGlobalState, PriorTable, require_marginals
from .trajectory import DEFAULT_ENUMERATION_CAP, Instrument, Merged, filter as filter_state, walk_records

# each register kind's (bob's partition, whether rho0 is purified): bob tells apart every Kraus name
# ("finest") or only alice's outcomes ("coarsest")
REGISTERS = {"gw": ("finest", True), "gw-variant": ("finest", False), "pf-variant": ("coarsest", True)}


@dataclass(frozen=True, eq=False)
class TrueStateBranch:
    """One record-conditioned branch of the system state, unnormalized."""

    bob_record: tuple[str, ...]
    operator: np.ndarray
    weight: float


def _bob_branches(
    instrument: Instrument,
    initial: np.ndarray,
    pasts,
    dim_extra: int,
    cap: int,
    partition: str = "finest",
    merge: bool = False,
) -> list:
    """Every bob record compatible with each alice past, in one :func:`walk_records` pass.

    Under the finest ``partition`` bob's options at outcome ``y`` are the
    sorted Kraus names of ``y``; under the coarsest the pass walks the
    instrument itself, and bob's record of a past's one branch is ``()``.
    Per past: the bob records of the surviving (not exactly zero) branches in
    lexicographic order and the stack of their operators, or the
    :class:`EnumerationTooLarge` of a past whose records, counted before any
    is dropped, exceed the cap.  With ``merge`` the walk merges branches at
    reset steps, and a merged branch's record starts with the
    :class:`~retrosmooth.trajectory.Merged` entry of bob's labels at its last
    merge.
    """
    finest = partition == "finest"
    options = {y: [(y, u) for u in sorted(instrument.op(y).names)] if finest else [y] for past in pasts for y in past}
    steps = [[options[y] for y in past] for past in pasts]
    walked = instrument.joint if finest else instrument
    found = walk_records(walked, initial, steps, dim_extra=dim_extra, cap=cap, merge=merge)
    return [
        f if isinstance(f, EnumerationTooLarge) else ([_bob_record(r) if finest else () for r in f[0]], f[1])
        for f in found
    ]


def _bob_record(joint_record) -> tuple:
    """Bob's part of a record of the joint view: each ``(alice, bob)`` label's ``bob``, and a merged entry's."""
    return tuple(Merged(tuple(u for _, u in y.labels)) if isinstance(y, Merged) else y[1] for y in joint_record)


def enumerate_bob_branches(
    instrument: Instrument, rho0, alice_past, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[TrueStateBranch]:
    """Unnormalized true-state branches for each bob record compatible with the past.

    Branch weights sum to the probability of the alice record, and dividing a
    branch by its weight gives the state conditioned on both records.
    Branches with an exactly zero operator are left out.
    """
    found = _bob_branches(instrument, as_density(rho0, "rho0"), [alice_past], 1, cap)[0]
    if isinstance(found, RetrosmoothError):
        raise found
    records, ops = found
    return [TrueStateBranch(r, op, w) for r, op, w in zip(records, ops, _weights(ops).tolist())]


def _weights(ops: np.ndarray) -> np.ndarray:
    return np.maximum(np.trace(ops, axis1=1, axis2=2).real, 0.0)


def build_pf(rho_f) -> FilteredGlobalState:
    """Trivial extension: the filtered state with a one-dimensional auxiliary."""
    return _filtered_priors("pf", [rho_f]).prior(0)


def build_clhs(rho_f) -> FilteredGlobalState:
    """Purification of the filtered state; smoothing leaves the marginal fixed."""
    return _filtered_priors("clhs", [rho_f]).prior(0)


def purified_initial(rho0, name: str = "rho0") -> tuple[np.ndarray, int]:
    """The projector on a purification of ``rho0`` (validated as ``name``), and the purifying ancilla's rank."""
    rho = as_density(rho0, name)
    psi = purify(rho)
    return np.outer(psi, psi.conj()), psi.size // rho.shape[0]


def build_priors(
    kind: str, instrument: Instrument, rho0, pasts, rho_fs, cap=DEFAULT_ENUMERATION_CAP, custom=None, *, merge=True
) -> PriorTable:
    """The :class:`~retrosmooth.retrodiction.PriorTable` of ``kind``: one row per past, its prior or its error.

    ``pf`` and ``clhs`` start from ``rho_fs``, the pasts' filtered states;
    ``custom`` is the built extension ``custom`` wherever its marginal is the
    filtered state.  The register kinds come from one bob-branch pass over
    every past, from a purification of ``rho0`` where :data:`REGISTERS` says
    so and from ``rho0`` itself otherwise: each register branch holds the
    joint-record conditioned state of the system (and the purifying ancilla),
    the weights normalized by the probability of the alice record.  Every
    kind is validated in stacked passes, and a row that fails takes the
    error of its one-past build.

    The pass merges the branches of a past that end in one reset (see
    :func:`~retrosmooth.trajectory.walk_records`): a block is then the sum
    of every bob record that took one reset class at that step, labelled by
    a :class:`~retrosmooth.trajectory.Merged` entry, and its share of every
    smoothed state is the sum of theirs.  A block that is one bob record
    keeps that record as its label.  So the register grows with the time
    since the last reset, not with the number of bob records, and the cap
    counts merged branches.  ``merge=False`` keeps one block per bob record,
    which :func:`~retrosmooth.retrodiction.bob_posterior` needs.
    """
    if kind in ("pf", "clhs"):
        return _filtered_priors(kind, rho_fs)
    if kind == "custom" and custom is not None:
        return _extending(custom, rho_fs)
    if kind not in REGISTERS:
        raise InvalidFactorization(f"cannot build prior kind {kind!r} from a scenario")
    partition, purified = REGISTERS[kind]
    initial, rank = purified_initial(rho0) if purified else (as_density(rho0, "rho0"), 1)
    branches = _bob_branches(instrument, initial, pasts, rank, cap, partition, merge)
    return _register_priors(kind, instrument.dim, rank, branches)


def _filtered_priors(kind: str, rho_fs) -> PriorTable:
    """``pf`` or ``clhs`` for each filtered state of ``rho_fs``, validated as ``rho_f`` in one stacked call."""
    found = _row_checks(lambda m: as_density(m, "rho_f"), list(rho_fs))
    errors = [f if isinstance(f, RetrosmoothError) else None for f in found]
    grouped: dict[int, list] = {}  # each A1 dimension's (row, block) pairs
    for i in (i for i, e in enumerate(errors) if e is None):
        block, a1 = (found[i], 1) if kind == "pf" else purified_initial(found[i], "rho_f")
        grouped.setdefault(a1, []).append((i, block))
    shapes = {a1: ([i for i, _ in pairs], [1] * len(pairs), [b for _, b in pairs]) for a1, pairs in grouped.items()}
    dim_q = next((len(f) for f, e in zip(found, errors) if e is None), 0)
    return PriorTable.of(kind, dim_q, errors, [((),)] * len(found), shapes)


def _row_checks(check, rows: list) -> list:
    """``check`` of each of ``rows``, or the :class:`RetrosmoothError` it raises for that row alone.

    The rows are checked as one stack.  If that raises, for a failing row or
    rows that do not stack (a past with no state), each row is checked alone,
    so a failing row gets the message of its one-past check; a check's rows
    have the same bits either way.
    """
    try:
        return list(check(np.stack(rows)))
    except (RetrosmoothError, ValueError):
        return [_checked(check, row) for row in rows]


def _checked(check, row):
    try:
        return check(row)
    except RetrosmoothError as exc:
        return exc


def _extending(custom: FilteredGlobalState, rho_fs) -> PriorTable:
    """``custom`` for each filtered state of ``rho_fs`` that is its marginal, checked in one stacked call."""
    marginal = custom.marginal()

    def check(rhos):
        # the marginal once per state: a state of another shape fails as it does alone
        require_marginals(np.broadcast_to(marginal, np.shape(rhos)[:-2] + marginal.shape), rhos, "the filtered state")
        return rhos

    errors = [f if isinstance(f, RetrosmoothError) else None for f in _row_checks(check, list(rho_fs))]
    built = [i for i, e in enumerate(errors) if e is None]
    shapes = {custom.dim_a1: (built, [custom.dim_a2] * len(built), np.tile(custom.blocks, (len(built), 1, 1)))}
    return PriorTable.of("custom", custom.dim_q, errors, [custom.block_labels] * len(errors), shapes)


def _register_priors(kind: str, dim_q: int, rank: int, branches: list) -> PriorTable:
    """A register kind's table from its bob-branch pass: each past's branches over their total weight.

    A past whose weights, added in branch order by ``sum`` as its one-past
    build adds them, are at or below ``WEIGHT_FLOOR`` is impossible.
    """
    errors = [found if isinstance(found, RetrosmoothError) else None for found in branches]
    built = np.flatnonzero([e is None for e in errors])
    d = dim_q * rank
    ops = np.concatenate([np.empty((0, d, d), dtype=complex), *(branches[i][1] for i in built.tolist())])
    counts = np.array([len(branches[i][1]) for i in built.tolist()], dtype=int)
    weights, ends = _weights(ops).tolist(), np.cumsum(counts).tolist()
    totals = np.array([sum(weights[lo:hi]) for lo, hi in zip([0, *ends], ends)])
    impossible = totals <= WEIGHT_FLOOR
    for i in built[impossible].tolist():
        errors[i] = ZeroProbabilityRecord("record impossible under the instrument")
    possible = ~impossible
    blocks = ops[np.repeat(possible, counts)] / np.repeat(totals[possible], counts[possible])[:, None, None]
    labels = [None if e is not None else tuple(found[0]) for found, e in zip(branches, errors)]
    return PriorTable.of(kind, dim_q, errors, labels, {rank: (built[possible], counts[possible], blocks)})


def build_custom(matrix, dims: tuple[int, int]) -> FilteredGlobalState:
    """Wrap an explicit extension with declared ``(d_q, d_a)`` factorization."""
    state = as_density(matrix, "extension")
    d_q, d_a = int(dims[0]), int(dims[1])
    if state.shape[0] != d_q * d_a:
        raise InvalidFactorization(
            f"matrix of dimension {state.shape[0]} does not factor as {dims}"
        )
    return FilteredGlobalState.of((state,), d_q, d_a)


def build_prior(
    kind: str,
    *,
    rho0,
    alice_past,
    instrument: Instrument,
    cap: int = DEFAULT_ENUMERATION_CAP,
    merge: bool = True,
) -> FilteredGlobalState:
    """Row 0 of a one-past :func:`build_priors` table, raising the error of a failed build.

    ``pf`` and ``clhs`` start from the filtered state of ``alice_past``, from
    one :func:`~retrosmooth.trajectory.filter` call.
    """
    rho_f = filter_state(instrument, rho0, alice_past)[0] if kind in ("pf", "clhs") else None
    return build_priors(kind, instrument, rho0, [alice_past], [rho_f], cap, merge=merge).prior(0)


def extend_ancilla(prior: FilteredGlobalState, isometry) -> FilteredGlobalState:
    """Conjugate the purifying ancilla of every block by an isometry.

    Smoothed states are invariant under this, since any two purifications of
    the same state differ by exactly such a map.
    """
    v = np.asarray(isometry, dtype=complex)
    if v.ndim != 2 or v.shape[1] != prior.dim_a1:
        raise InvalidFactorization(
            f"isometry of shape {v.shape} does not act on an ancilla of dim {prior.dim_a1}"
        )
    if np.abs(dag(v) @ v - np.eye(prior.dim_a1)).max() > ISOMETRY_TOL:
        raise InvalidFactorization("map is not an isometry")
    lift = tensor(np.eye(prior.dim_q), v)
    blocks = lift @ prior.blocks @ dag(lift)
    return FilteredGlobalState.of(blocks, prior.dim_q, v.shape[0], prior.block_labels, prior.kind)


def branch_mixture_smooth(
    instrument: Instrument, rho0, alice_past, effect, cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """Trajectory-style smoothed state as an explicit mixture over true states.

    Weights each branch-conditioned state by the posterior probability of the
    corresponding bob record given the full observed record.  It reads the
    same bob-branch pass as the register priors it is compared with, so it
    is a reference for their sandwich only, not for the branches.
    """
    branches = enumerate_bob_branches(instrument, rho0, alice_past, cap)
    e = np.asarray(effect, dtype=complex)
    joint_weights = []
    states = []
    for b in branches:
        joint_weights.append(max(float((b.operator @ e).trace().real), 0.0))
        states.append(b.operator / b.weight if b.weight > WEIGHT_FLOOR else None)
    total = sum(joint_weights)
    if total <= WEIGHT_FLOOR:
        raise ZeroProbabilityRecord("full record has vanishing probability")
    dim = np.asarray(rho0).shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for w, s in zip(joint_weights, states):
        if s is not None and w > 0.0:
            out += (w / total) * s
    return hermitian_part(out)
