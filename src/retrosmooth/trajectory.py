"""Quantum instruments, measurement records, and conditional state evolution.

A measurement step is an outcome-indexed family of completely positive maps
``Phi_y(rho) = sum_k M_{k|y} rho M_{k|y}†`` whose adjoints sum to the
identity.  Records are tuples of outcome labels; labels are strings for the
observer ("alice") and ``(alice, bob)`` string pairs for an instrument's
joint view, in which a hypothetical second observer ("bob") also records
which Kraus operator acted: the part of the environment alice does not see.

Filtering propagates a state forward through the conditional maps with
per-step normalization; retrofiltering propagates the identity backwards
through the adjoints, producing an (unnormalized) effect.
:func:`filter_records`, :func:`retrofilter_records` and the unnormalized
:func:`propagate_records` are the one implementation of each: they take a
table of records at once, level by level over their prefix (or suffix) trie,
and a record's result has the same bits whatever table it is in.
:func:`filter` and :func:`retrofilter` are their one-record cases.
:func:`walk` propagates every record of a product of label sets,
unnormalized, for record enumeration and the bob branches of
:mod:`retrosmooth.smoothers`; :func:`sample_records` advances many sampled
trajectories in lockstep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidMatrix,
    StepTooCoarse,
    UnknownOutcome,
    ZeroProbabilityRecord,
)
from .linalg import IDENTITY_TOL, SUBNORMAL_TOL, WEIGHT_FLOOR, as_density, as_square, dag, kraus_gram
from .linalg import completeness_defect, hermitian_part, psd_sqrt, require_complete, require_finite, tensor

DEFAULT_ENUMERATION_CAP = 10**6


def _frozen(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ConditionalOp:
    """A completely positive, trace-non-increasing map given by named Kraus operators.

    ``names`` must be distinct; they default to the zero-padded indices
    (``"0"``, ``"1"``, ... or ``"00"``, ...), which sort in Kraus order.
    """

    kraus: tuple[np.ndarray, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.kraus:
            raise InvalidMatrix("conditional operation needs at least one Kraus operator")
        mats = tuple(_frozen(as_square(k, "Kraus operator")) for k in self.kraus)
        dim = mats[0].shape[0]
        if any(k.shape != (dim, dim) for k in mats):
            raise InvalidMatrix("Kraus operators must share one dimension")
        indices = [str(j).zfill(len(str(len(mats) - 1))) for j in range(len(mats))]
        names = tuple(map(str, indices if self.names is None else self.names))
        if len(names) != len(mats):
            raise InvalidMatrix(f"{len(names)} names for {len(mats)} Kraus operators")
        if len(set(names)) != len(names):
            raise InvalidMatrix(f"Kraus operator names {names} are not distinct")
        top = np.linalg.eigvalsh(kraus_gram(mats))[-1]
        if top > 1.0 + SUBNORMAL_TOL:
            raise InvalidMatrix(f"Kraus operators are not subnormalized (max eig {top:g})")
        object.__setattr__(self, "kraus", mats)
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


class Instrument:
    """Outcome-indexed family of conditional operations summing to a channel.

    ``ops`` maps outcome labels (strings) to :class:`ConditionalOp`.  The
    completeness relation is verified on construction unless ``check=False``
    (useful only for testing defective inputs).  :attr:`joint` reads the name
    of the Kraus operator that acted as the record of a second observer, bob.
    """

    def __init__(self, ops: Mapping[Hashable, ConditionalOp], *, check: bool = True):
        self.ops: dict = dict(ops)
        if not self.ops:
            raise InvalidMatrix("instrument needs at least one outcome")
        if check:
            dims = {op.dim for op in self.ops.values()}
            if len(dims) != 1:
                raise InvalidMatrix(f"instrument mixes dimensions {sorted(dims)}")
            require_complete(self.completeness_defect(), "instrument")

    @classmethod
    def from_pairs(cls, pairs) -> "Instrument":
        """Outcome ``alice`` gets the Kraus operator named ``bob`` of each ``((alice, bob), kraus)``.

        Outcomes keep the order of their first pair, Kraus operators that of their pairs.
        """
        grouped: dict[str, list] = {}
        for (y, u), k in pairs:
            grouped.setdefault(str(y), []).append((k, str(u)))
        return cls({y: ConditionalOp(*zip(*named)) for y, named in grouped.items()})

    @cached_property
    def joint(self) -> "Instrument":
        """The joint view: one rank-one operation per ``(outcome, Kraus name)``, in Kraus order."""
        named = ((y, u, k) for y, op in self.ops.items() for u, k in zip(op.names, op.kraus))
        return Instrument({(y, u): ConditionalOp((k,)) for y, u, k in named}, check=False)

    @property
    def outcome_labels(self) -> tuple:
        return tuple(self.ops)

    @property
    def dim(self) -> int:
        return next(iter(self.ops.values())).dim

    def op(self, y) -> ConditionalOp:
        try:
            return self.ops[y]
        except KeyError:
            raise UnknownOutcome(f"outcome {y!r} not in alphabet {self.outcome_labels}") from None

    def completeness_defect(self) -> float:
        return completeness_defect([k for op in self.ops.values() for k in op.kraus], self.dim)


@dataclass(frozen=True, eq=False)
class JumpChannel:
    """A Lindblad jump channel with a detection efficiency in ``[0, 1]``.

    Detection is always jump-like: a detected jump is one outcome, and no
    jump or an undetected one is the other.
    """

    operator: np.ndarray
    efficiency: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "operator", _frozen(as_square(self.operator, "jump operator")))
        eta = float(self.efficiency)
        if not 0.0 <= eta <= 1.0:
            raise InvalidMatrix(f"efficiency {eta} outside [0, 1]")
        object.__setattr__(self, "efficiency", eta)


@dataclass(frozen=True, eq=False)
class LindbladSpec:
    """Markovian master-equation ingredients plus a finite time step (hbar = 1)."""

    hamiltonian: np.ndarray
    jump_ops: tuple[JumpChannel, ...]
    dt: float

    def __post_init__(self):
        h = _frozen(as_square(self.hamiltonian, "hamiltonian"))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_ops", tuple(self.jump_ops))
        if self.dt <= 0:
            raise InvalidMatrix(f"dt must be positive, got {self.dt}")
        for ch in self.jump_ops:
            if ch.operator.shape != h.shape:
                raise InvalidMatrix("jump operators must match the hamiltonian dimension")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def discretize(spec: LindbladSpec) -> Instrument:
    """First-order Kraus discretization of one Lindblad time step.

    The no-jump operator is ``M0 = I - (iH + sum_c L_c† L_c / 2) dt`` and each
    channel contributes a jump operator ``sqrt(dt) L_c``, split between a
    detected (alice) outcome with weight ``eta_c`` and an undetected (bob)
    one with weight ``1 - eta_c``.  Outcomes are ``"0"`` (no detected jump)
    and ``str(c+1)``; each Kraus operator is named by its bob label, so the
    joint labels are ``("0", "0")`` for no jump, ``(str(c+1), "0")`` for the
    detected jump of channel ``c`` and ``("0", str(c+1))`` for the undetected
    one.

    The raw first-order family misses completeness at ``O(dt^2)``; that is
    repaired exactly by replacing ``M0`` with ``U sqrt(I - sum_jumps M† M)``,
    ``U`` the unitary polar factor of ``M0``, which keeps the first-order
    dynamics and makes ``sum M† M = I`` to machine precision.  The step is
    rejected as :class:`StepTooCoarse` when the repair is impossible: the
    jump weight of a single step exceeds one by more than ``IDENTITY_TOL``.
    """
    d = spec.dim
    eye = np.eye(d)
    # an entry too large for a float overflows the step: require_finite rejects it below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        h = hermitian_part(np.asarray(spec.hamiltonian))
        sink = sum((dag(ch.operator) @ ch.operator for ch in spec.jump_ops), np.zeros((d, d), complex))
        m0_raw = eye - (1j * h + 0.5 * sink) * spec.dt
        jumps: dict[tuple[str, str], np.ndarray] = {}
        for c, ch in enumerate(spec.jump_ops):
            label = str(c + 1)
            if ch.efficiency > 0.0:
                jumps[(label, "0")] = np.sqrt(ch.efficiency * spec.dt) * ch.operator
            if ch.efficiency < 1.0:
                jumps[("0", label)] = np.sqrt((1.0 - ch.efficiency) * spec.dt) * ch.operator
        jump_gram = sum((dag(m) @ m for m in jumps.values()), np.zeros((d, d), complex))
        gap = hermitian_part(eye - jump_gram)
    require_finite(np.stack([m0_raw, gap]), "discretized step")
    if np.linalg.eigvalsh(gap)[0] < -IDENTITY_TOL:
        raise StepTooCoarse("jump probabilities exceed one within a single step; reduce dt")
    w, _, vh = np.linalg.svd(m0_raw)
    m0 = (w @ vh) @ psd_sqrt(gap)
    return Instrument.from_pairs([(("0", "0"), m0), *sorted(jumps.items())])


def apply_conditional(op: ConditionalOp, rho) -> tuple[np.ndarray, float]:
    """Apply one conditional operation; returns the unnormalized output and its trace."""
    a = np.asarray(rho, dtype=complex)
    out = sum(k @ a @ dag(k) for k in op.kraus)
    return out, max(float(out.trace().real), 0.0)


def filter(instrument, rho0, record) -> tuple[np.ndarray, float]:
    """Filtered state given a past record, with the record's log-probability.

    Normalizes after every step; raises :class:`ZeroProbabilityRecord` if any
    step has vanishing weight.  The one-record case of :func:`filter_records`.
    """
    found = filter_records(instrument, rho0, [tuple(record)])[0]
    if found is None:
        raise ZeroProbabilityRecord("record impossible under the instrument")
    return found


def retrofilter(instrument, record) -> np.ndarray:
    """Retrofiltered effect: the identity propagated backwards through the adjoints.

    For a future record ``(y_t, ..., y_{T-1})`` this is
    ``Phi_{y_t}† ( ... Phi_{y_{T-1}}†(I) ... )``; the empty record returns the
    identity exactly.  The result is Hermitian PSD but carries no
    normalization.  The one-record case of :func:`retrofilter_records`.
    """
    return retrofilter_records(instrument, [tuple(record)])[0]


def _trie_levels(instrument, records):
    """The prefix trie of ``records``, level by level, as ``(parents, labels, ends)``.

    Level ``k`` has one row per distinct prefix of length ``k``: ``parents``
    holds the row of its prefix one shorter and ``labels`` the index of its
    last label in the instrument's outcome labels (both ``None`` at the root),
    and ``ends`` lists ``(i, row)`` for each ``records[i]`` of length ``k``.
    """
    index = {y: i for i, y in enumerate(instrument.outcome_labels)}
    unknown = next((y for r in records for y in r if y not in index), None)
    if unknown is not None:
        instrument.op(unknown)  # raises UnknownOutcome
    rows = [0] * len(records)
    yield None, None, [(i, 0) for i, r in enumerate(records) if not r]
    for k in range(max(map(len, records), default=0)):
        nodes: dict[tuple[int, int], int] = {}
        ends = []
        for i, r in enumerate(records):
            if len(r) > k:
                rows[i] = nodes.setdefault((rows[i], index[r[k]]), len(nodes))
                if len(r) == k + 1:
                    ends.append((i, rows[i]))
        parents, labels = np.array(list(nodes)).T
        yield parents, labels, ends


def filter_records(instrument, rho0, records) -> list[tuple[np.ndarray, float] | None]:
    """Each record's filtered state and log-probability, ``None`` where a step has vanishing weight.

    Each distinct prefix is stepped once: breadth-first over the records'
    prefix trie, one stacked conjugation per level as in :func:`walk`, each
    row normalized by its trace and symmetrized, its log-weights summed left
    to right.
    """
    rho = as_density(rho0, "rho0")
    positions = _kraus_stack(instrument, instrument.outcome_labels, np.eye(1))
    sigma, log_prob, live = rho[None], np.zeros(1), np.ones(1, dtype=bool)
    found: list = [None] * len(records)
    for parents, labels, ends in _trie_levels(instrument, records):
        if parents is not None:
            out = _conjugate(positions, sigma)[parents, labels]
            out += 0  # as apply_conditional's sum, which starts from 0: turns -0.0 into 0.0
            w = np.trace(out, axis1=1, axis2=2).real
            live = live[parents] & (w > WEIGHT_FLOOR)
            w = np.where(live, w, 1.0)
            sigma, log_prob = hermitian_part(out / w[:, None, None]), log_prob[parents] + np.log(w)
        for i, row in ends:
            if live[row]:
                found[i] = sigma[row].copy(), float(log_prob[row])
    return found


def retrofilter_records(instrument, records) -> list[np.ndarray]:
    """Each record's retrofiltered effect, as :func:`retrofilter` defines it.

    Each distinct suffix is propagated once: breadth-first over the records'
    suffix trie, one stacked conjugation by the adjoint Kraus operators per
    level, symmetrized at every level.
    """
    positions = _kraus_stack(instrument, instrument.outcome_labels, np.eye(1))
    adjoints = [(idx, ops_dag, ops) for idx, ops, ops_dag in positions]  # conjugates by K† sigma K
    sigma = np.eye(instrument.dim, dtype=complex)[None]
    found: list = [None] * len(records)
    for parents, labels, ends in _trie_levels(instrument, [r[::-1] for r in records]):
        if parents is not None:
            out = _conjugate(adjoints, sigma)[parents, labels]
            out += 0  # as a sum that starts from 0: turns -0.0 into 0.0
            sigma = hermitian_part(out)
        for i, row in ends:
            found[i] = sigma[row].copy()
    return found


def propagate_records(instrument, initial, records, *, dim_extra: int = 1) -> list[np.ndarray]:
    """:func:`walk` of each record alone: its symmetrized, unnormalized operator, zero if it is impossible.

    Each distinct prefix is conjugated once, breadth-first over the records'
    prefix trie, one stacked conjugation per level.
    """
    positions = _kraus_stack(instrument, instrument.outcome_labels, np.eye(int(dim_extra)))
    sigma = np.asarray(initial, dtype=complex)[None]
    found: list = [None] * len(records)
    for parents, labels, ends in _trie_levels(instrument, records):
        if parents is not None:
            sigma = _conjugate(positions, sigma)[parents, labels]
        for i, row in ends:
            found[i] = hermitian_part(sigma[row])
    return found


def walk(
    instrument,
    initial,
    label_sets,
    *,
    dim_extra: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[list[tuple], np.ndarray]:
    """Propagate every record whose step ``i`` takes a label from ``label_sets[i]``.

    ``initial`` lives on the system tensored with ``dim_extra`` ancilla
    dimensions.  Branches advance breadth-first, one stacked conjugation per
    step and Kraus position, summing a label's Kraus terms in Kraus order as
    :func:`apply_conditional` does; an exactly zero branch is dropped with its
    subtree.  Returns the surviving records in lexicographic order and the
    stack of their symmetrized, unnormalized operators.  ``cap`` bounds the
    number of records counted before any is dropped (:class:`EnumerationTooLarge`).
    """
    label_sets = [tuple(labels) for labels in label_sets]
    n_records = math.prod(map(len, label_sets))
    if n_records > cap:
        raise EnumerationTooLarge(f"{n_records} records exceed the cap of {cap}")
    kraus_stacks: dict[tuple, list] = {}
    records, sigma = [()], np.asarray(initial, dtype=complex)[None]
    for labels in label_sets:
        if labels not in kraus_stacks:
            kraus_stacks[labels] = _kraus_stack(instrument, labels, np.eye(int(dim_extra)))
        out = _conjugate(kraus_stacks[labels], sigma)
        # branch-major, label-minor: the lexicographic order of the records
        out = out.reshape(-1, *sigma.shape[1:])
        keep = out.any(axis=(1, 2))
        records = list(itertools.compress((r + (y,) for r in records for y in labels), keep))
        sigma = out[keep]
    return records, hermitian_part(sigma)


def _kraus_stack(instrument, labels: tuple, eye: np.ndarray) -> list:
    """The Kraus operators of ``labels`` by Kraus position, lifted to the ancilla.

    Entry ``j`` is ``(label indices, operators, adjoints)`` over the labels
    with a ``j``-th Kraus operator; entry 0 covers every label.
    """
    kraus = [instrument.op(y).kraus for y in labels]
    positions = []
    for j in range(max(map(len, kraus))):
        idx = [i for i, ks in enumerate(kraus) if len(ks) > j]
        ops = np.stack([tensor(kraus[i][j], eye) for i in idx])
        positions.append((idx, ops, dag(ops)))
    return positions


def _conjugate(positions: list, sigma: np.ndarray) -> np.ndarray:
    """Each label's ``sum_j K_j sigma K_j†`` over a :func:`_kraus_stack`, as ``(n, labels, D, D)``."""
    (_, ops, ops_dag), *rest = positions
    out = ops @ sigma[:, None] @ ops_dag
    for idx, ops, ops_dag in rest:
        out[:, idx] += ops @ sigma[:, None] @ ops_dag
    return out


def enumerate_records(
    instrument, rho0, steps: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[tuple, float]]:
    """All records of the given length with their probabilities.

    Output is lexicographic in the instrument's label order and includes
    zero-probability records; probabilities sum to one.  Raises
    :class:`EnumerationTooLarge` when ``|alphabet| ** steps`` exceeds ``cap``.
    """
    steps = int(steps)
    labels = instrument.outcome_labels
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if len(labels) > 1 and steps > cap.bit_length():  # len(labels)**steps >= 2**steps > cap, uncomputed
        raise EnumerationTooLarge(f"{len(labels)}**{steps} records exceed the cap of {cap}")
    records, ops = walk(instrument, as_density(rho0, "rho0"), [labels] * steps, cap=cap)
    probs = {r: max(float(op.trace().real), 0.0) for r, op in zip(records, ops)}
    return [(r, probs.get(r, 0.0)) for r in itertools.product(labels, repeat=steps)]


def sample_records(instrument, rho0, steps: int, n: int, rng) -> list[tuple]:
    """Sample ``n`` records by sequential outcome weights, all trajectories in lockstep.

    Uniforms are one ``(n, steps)`` array in row-major order, and each outcome
    is ``searchsorted(cdf, u, side="right")`` on the cdf ``Generator.choice``
    builds from the clipped weights, so record ``i`` is the one the ``i``-th of
    ``n`` one-at-a-time draws gives.  A step is one stacked conjugation per
    Kraus position over the trajectory x label grid, as in :func:`walk`.
    """
    gen = np.random.default_rng(rng)
    rho = as_density(rho0, "rho0")
    labels = instrument.outcome_labels
    uniforms = gen.random((int(n), int(steps)))
    positions = _kraus_stack(instrument, labels, np.eye(1))
    rows = np.arange(uniforms.shape[0])
    sigma = np.broadcast_to(rho, (rows.size, *rho.shape))
    picks = np.empty(uniforms.shape, dtype=int)
    for step, u in enumerate(uniforms.T):
        out = _conjugate(positions, sigma)
        weights = np.clip(np.trace(out, axis1=2, axis2=3).real, 0.0, None)
        cdf = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)
        # each row is nondecreasing: its count of entries <= u is its searchsorted
        k = (cdf / cdf[:, -1:] <= u[:, None]).sum(axis=1)
        w = weights[rows, k]
        if (w <= WEIGHT_FLOOR).any():
            raise ZeroProbabilityRecord("sampled a zero-weight outcome; model is degenerate")
        sigma = hermitian_part(out[rows, k] / w[:, None, None])
        picks[:, step] = k
    return [tuple(labels[k] for k in row) for row in picks.tolist()]
