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

``gw`` and ``gw-variant`` propagate every bob branch through
:func:`~retrosmooth.trajectory.walk`, and ``pf-variant`` propagates the
purification through :func:`~retrosmooth.trajectory.propagate_records`.
Bob's options at an outcome are the sorted names of its Kraus operators, so
every instrument has every prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFactorization, ZeroProbabilityRecord
from .linalg import ISOMETRY_TOL, WEIGHT_FLOOR, as_density, dag, hermitian_part, purify, tensor
from .retrodiction import FilteredGlobalState
from .trajectory import DEFAULT_ENUMERATION_CAP, Instrument, filter as filter_state, propagate_records, walk


@dataclass(frozen=True, eq=False)
class TrueStateBranch:
    """One record-conditioned branch of the system state, unnormalized."""

    bob_record: tuple[str, ...]
    operator: np.ndarray
    weight: float


def _bob_branches(
    instrument: Instrument,
    initial: np.ndarray,
    alice_past,
    dim_extra: int,
    cap: int,
) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Every bob record compatible with a fixed alice record, through :func:`walk`.

    Bob's options at outcome ``y`` are the sorted Kraus names of ``y``.
    Returns the bob records of the surviving (not exactly zero) branches in
    lexicographic order and the stack of their operators; the cap counts the
    records before any is dropped.
    """
    label_sets = [[(y, u) for u in sorted(instrument.op(y).names)] for y in alice_past]
    records, ops = walk(instrument.joint, initial, label_sets, dim_extra=dim_extra, cap=cap)
    return [tuple(u for _, u in r) for r in records], ops


def enumerate_bob_branches(
    instrument: Instrument, rho0, alice_past, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[TrueStateBranch]:
    """Unnormalized true-state branches for each bob record compatible with the past.

    Branch weights sum to the probability of the alice record, and dividing a
    branch by its weight gives the state conditioned on both records.
    Branches with an exactly zero operator are left out.
    """
    records, ops = _bob_branches(instrument, as_density(rho0, "rho0"), alice_past, 1, cap)
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
    rho = as_density(rho_f, "rho_f")
    psi = purify(rho)
    rank = psi.size // rho.shape[0]
    block = np.outer(psi, psi.conj())
    return FilteredGlobalState(
        blocks=(block,), dim_q=rho.shape[0], dim_a1=rank, block_labels=((),), kind="clhs"
    )


def purified_initial(rho0) -> tuple[np.ndarray, int]:
    """The projector on a purification of ``rho0``, and the purifying ancilla's dimension (its rank)."""
    rho = as_density(rho0, "rho0")
    psi = purify(rho)
    return np.outer(psi, psi.conj()), psi.size // rho.shape[0]


def build_pf_variant(instrument: Instrument, rho0, alice_past, propagated=None) -> FilteredGlobalState:
    """Purification of the initial state propagated through the observer's record.

    ``propagated`` is that operator, the past's :func:`propagate_records`
    row from :func:`purified_initial`; a one-record pass computes it when it
    is ``None``.
    """
    if propagated is None:
        initial, rank = purified_initial(rho0)
        propagated = propagate_records(instrument, initial, [tuple(alice_past)], dim_extra=rank)[0]
    dim = instrument.dim
    return _register_state([()], propagated[None], dim, propagated.shape[0] // dim, "pf-variant")


def build_gw(
    instrument: Instrument,
    rho0,
    alice_past,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> FilteredGlobalState:
    """Purified initial state with a classical register over bob records.

    Each register branch holds the joint-record conditioned pure state of the
    system and the purifying ancilla; branch weights are normalized by the
    probability of the alice record.
    """
    initial, rank = purified_initial(rho0)
    records, ops = _bob_branches(instrument, initial, alice_past, rank, cap)
    return _register_state(records, ops, instrument.dim, rank, "gw")


def build_gw_variant(
    instrument: Instrument,
    rho0,
    alice_past,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> FilteredGlobalState:
    """Classical register over bob records, initial state taken as a proper mixture."""
    records, ops = _bob_branches(instrument, as_density(rho0, "rho0"), alice_past, 1, cap)
    return _register_state(records, ops, np.asarray(rho0).shape[0], 1, "gw-variant")


def _register_state(records, ops, dim_q, dim_a1, kind) -> FilteredGlobalState:
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
    propagated=None,
) -> FilteredGlobalState:
    """Dispatch a prior build from shared scenario ingredients.

    ``pf`` and ``clhs`` start from the filtered state of ``alice_past``: the
    given ``rho_f``, or one :func:`~retrosmooth.trajectory.filter` call when
    it is ``None``.  ``pf-variant`` takes ``propagated`` as
    :func:`build_pf_variant` does.
    """
    if kind in ("pf", "clhs"):
        if rho_f is None:
            rho_f, _ = filter_state(instrument, rho0, alice_past)
        return build_pf(rho_f) if kind == "pf" else build_clhs(rho_f)
    if kind == "pf-variant":
        return build_pf_variant(instrument, rho0, alice_past, propagated)
    if kind in ("gw", "gw-variant"):
        builder = build_gw if kind == "gw" else build_gw_variant
        return builder(instrument, rho0, alice_past, cap=cap)
    raise InvalidFactorization(f"cannot build prior kind {kind!r} from a scenario")


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
    corresponding bob record given the full observed record.  Serves as the
    independent reference for the register-based construction.
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
