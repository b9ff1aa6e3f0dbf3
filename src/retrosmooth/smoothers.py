"""Builders for the filtered global states behind each smoothing flavor.

Each builder returns a :class:`~retrosmooth.retrodiction.FilteredGlobalState`
encoding what the agent credits about correlations with the system before the
smoothing time:

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

``gw``, ``gw-variant`` and ``pf-variant`` are one classical register over
what bob tells apart, and :data:`REGISTERS` maps each to bob's partition and
whether ``rho0`` is purified.  :func:`build_priors` builds every kind for
every past of a table, each register kind from one
:func:`~retrosmooth.trajectory.walk_records` pass over its bob branches;
:func:`build_prior` is its one-past case.  Under the finest partition bob's
options at an outcome are the sorted names of its Kraus operators, so every
instrument has every prior; under the coarsest bob tells apart no more than
alice, and the register has one branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLarge, InvalidFactorization, RetrosmoothError, ZeroProbabilityRecord
from .linalg import ISOMETRY_TOL, WEIGHT_FLOOR, as_density, dag, hermitian_part, purify, tensor
from .retrodiction import FilteredGlobalState
from .trajectory import DEFAULT_ENUMERATION_CAP, Instrument, filter as filter_state, walk_records

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
    instrument: Instrument, initial: np.ndarray, pasts, dim_extra: int, cap: int, partition: str = "finest"
) -> list:
    """Every bob record compatible with each alice past, in one :func:`walk_records` pass.

    Under the finest ``partition`` bob's options at outcome ``y`` are the
    sorted Kraus names of ``y``; under the coarsest the pass walks the
    instrument itself, and bob's record of a past's one branch is ``()``.
    Per past: the bob records of the surviving (not exactly zero) branches in
    lexicographic order and the stack of their operators, or the
    :class:`EnumerationTooLarge` of a past whose records, counted before any
    is dropped, exceed the cap.
    """
    finest = partition == "finest"
    options = {y: [(y, u) for u in sorted(instrument.op(y).names)] if finest else [y] for past in pasts for y in past}
    steps = [[options[y] for y in past] for past in pasts]
    found = walk_records(instrument.joint if finest else instrument, initial, steps, dim_extra=dim_extra, cap=cap)
    return [
        f if isinstance(f, EnumerationTooLarge) else ([tuple(u for _, u in r) if finest else () for r in f[0]], f[1])
        for f in found
    ]


def _one(found):
    """The single result of a one-past table build, raised if it is an error."""
    if isinstance(found, RetrosmoothError):
        raise found
    return found


def enumerate_bob_branches(
    instrument: Instrument, rho0, alice_past, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[TrueStateBranch]:
    """Unnormalized true-state branches for each bob record compatible with the past.

    Branch weights sum to the probability of the alice record, and dividing a
    branch by its weight gives the state conditioned on both records.
    Branches with an exactly zero operator are left out.
    """
    records, ops = _one(_bob_branches(instrument, as_density(rho0, "rho0"), [alice_past], 1, cap)[0])
    return [TrueStateBranch(r, op, w) for r, op, w in zip(records, ops, _weights(ops))]


def _weights(ops: np.ndarray) -> list[float]:
    return [max(float(t), 0.0) for t in np.trace(ops, axis1=1, axis2=2).real]


def build_pf(rho_f) -> FilteredGlobalState:
    """Trivial extension: the filtered state with a one-dimensional auxiliary."""
    rho = as_density(rho_f, "rho_f")
    return FilteredGlobalState(
        blocks=(rho,), dim_q=rho.shape[0], dim_a1=1, block_labels=((),), kind="pf"
    )


def build_clhs(rho_f) -> FilteredGlobalState:
    """Purification of the filtered state; smoothing leaves the marginal fixed."""
    block, rank = purified_initial(rho_f, "rho_f")
    return FilteredGlobalState(
        blocks=(block,), dim_q=len(block) // rank, dim_a1=rank, block_labels=((),), kind="clhs"
    )


def purified_initial(rho0, name: str = "rho0") -> tuple[np.ndarray, int]:
    """The projector on a purification of ``rho0`` (validated as ``name``), and the purifying ancilla's rank."""
    rho = as_density(rho0, name)
    psi = purify(rho)
    return np.outer(psi, psi.conj()), psi.size // rho.shape[0]


def build_priors(kind: str, instrument: Instrument, rho0, pasts, rho_fs, cap=DEFAULT_ENUMERATION_CAP, custom=None):
    """The prior of ``kind`` for each of ``pasts``, or the error of its build.

    ``pf`` and ``clhs`` start from ``rho_fs``, the pasts' filtered states;
    ``custom`` is the built extension ``custom`` wherever its marginal is the
    filtered state.  The register kinds come from one bob-branch pass over
    every past, from a purification of ``rho0`` where :data:`REGISTERS` says
    so and from ``rho0`` itself otherwise: each register branch holds the
    joint-record conditioned state of the system (and the purifying ancilla),
    the weights normalized by the probability of the alice record.
    """
    if kind in ("pf", "clhs"):
        return [_attempt(build_pf if kind == "pf" else build_clhs, rho_f) for rho_f in rho_fs]
    if kind == "custom" and custom is not None:
        return [_attempt(_extending, custom, rho_f) for rho_f in rho_fs]
    if kind not in REGISTERS:
        raise InvalidFactorization(f"cannot build prior kind {kind!r} from a scenario")
    partition, purified = REGISTERS[kind]
    initial, rank = purified_initial(rho0) if purified else (as_density(rho0, "rho0"), 1)
    branches = _bob_branches(instrument, initial, pasts, rank, cap, partition)
    return [_attempt(_register_state, found, instrument.dim, rank, kind) for found in branches]


def _attempt(build, *args):
    """``build(*args)``, or the :class:`RetrosmoothError` it raises."""
    try:
        return build(*args)
    except RetrosmoothError as exc:
        return exc


def _extending(prior: FilteredGlobalState, rho_f) -> FilteredGlobalState:
    """``prior``, once its marginal is checked to be the filtered state ``rho_f``."""
    prior.require_marginal(rho_f, "the filtered state")
    return prior


def _register_state(found, dim_q, dim_a1, kind) -> FilteredGlobalState:
    records, ops = _one(found)
    total = sum(_weights(ops))
    if total <= WEIGHT_FLOOR:
        raise ZeroProbabilityRecord("record impossible under the instrument")
    return FilteredGlobalState(
        blocks=ops / total,
        dim_q=dim_q,
        dim_a1=dim_a1,
        block_labels=tuple(records),
        kind=kind,
    )


def build_custom(matrix, dims: tuple[int, int]) -> FilteredGlobalState:
    """Wrap an explicit extension with declared ``(d_q, d_a)`` factorization."""
    state = as_density(matrix, "extension")
    d_q, d_a = int(dims[0]), int(dims[1])
    if state.shape[0] != d_q * d_a:
        raise InvalidFactorization(
            f"matrix of dimension {state.shape[0]} does not factor as {dims}"
        )
    return FilteredGlobalState(
        blocks=(state,), dim_q=d_q, dim_a1=d_a, block_labels=((),), kind="custom"
    )


def build_prior(
    kind: str,
    *,
    rho0,
    alice_past,
    instrument: Instrument,
    cap: int = DEFAULT_ENUMERATION_CAP,
    rho_f=None,
) -> FilteredGlobalState:
    """The one-past case of :func:`build_priors`, raising the error of a failed build.

    ``pf`` and ``clhs`` start from the filtered state of ``alice_past``: the
    given ``rho_f``, or one :func:`~retrosmooth.trajectory.filter` call when
    it is ``None``.
    """
    if rho_f is None and kind in ("pf", "clhs"):
        rho_f, _ = filter_state(instrument, rho0, alice_past)
    return _one(build_priors(kind, instrument, rho0, [alice_past], [rho_f], cap)[0])


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
    return FilteredGlobalState(
        blocks=lift @ prior.blocks @ dag(lift),
        dim_q=prior.dim_q,
        dim_a1=v.shape[0],
        block_labels=prior.block_labels,
        kind=prior.kind,
    )


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
