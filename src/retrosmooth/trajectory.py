"""Quantum instruments, measurement records, and conditional state evolution.

A measurement step is an outcome-indexed family of completely positive maps
``Phi_y(rho) = sum_k M_{k|y} rho M_{k|y}†`` whose adjoints sum to the
identity.  Records are tuples of outcome labels; labels are strings for a
single observer and ``(alice, bob)`` string pairs for a joint instrument
describing a split of the monitored environment between the observer and a
hypothetical second observer.

Filtering propagates a state forward through the conditional maps with
per-step normalization; retrofiltering propagates the identity backwards
through the adjoints, producing an (unnormalized) effect.  :func:`walk`
propagates a set of records at once, unnormalized, for record enumeration
and for the prior builders of :mod:`retrosmooth.smoothers`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidMatrix,
    StepTooCoarse,
    UnknownOutcome,
    ZeroProbabilityRecord,
)
from .linalg import WEIGHT_FLOOR, as_density, as_square, dag, hermitian_part, psd_sqrt, tensor

DEFAULT_ENUMERATION_CAP = 10**6

_SUBNORMAL_TOL = 1e-10
_COMPLETENESS_TOL = 1e-9


def _frozen(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ConditionalOp:
    """A completely positive, trace-non-increasing map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise InvalidMatrix("conditional operation needs at least one Kraus operator")
        mats = tuple(_frozen(as_square(k, "Kraus operator")) for k in self.kraus)
        dim = mats[0].shape[0]
        if any(k.shape != (dim, dim) for k in mats):
            raise InvalidMatrix("Kraus operators must share one dimension")
        gram = sum(dag(k) @ k for k in mats)
        top = np.linalg.eigvalsh(hermitian_part(gram))[-1]
        if top > 1.0 + _SUBNORMAL_TOL:
            raise InvalidMatrix(f"Kraus operators are not subnormalized (max eig {top:g})")
        object.__setattr__(self, "kraus", mats)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


class Instrument:
    """Outcome-indexed family of conditional operations summing to a channel.

    ``ops`` maps outcome labels (strings) to :class:`ConditionalOp`.  The
    completeness relation is verified on construction unless ``check=False``
    (useful only for testing defective inputs).
    """

    _what = "instrument"

    def __init__(self, ops: Mapping[Hashable, ConditionalOp], *, check: bool = True):
        self.ops: dict = {self._label(y): op for y, op in ops.items()}
        if not self.ops:
            raise InvalidMatrix(f"{self._what} needs at least one outcome")
        if check:
            self._check()

    @staticmethod
    def _label(y) -> Hashable:
        return str(y)

    def _check(self) -> None:
        dims = {op.dim for op in self.ops.values()}
        if len(dims) != 1:
            raise InvalidMatrix(f"{self._what} mixes dimensions {sorted(dims)}")
        defect = self.completeness_defect()
        if defect > _COMPLETENESS_TOL:
            raise InvalidMatrix(
                f"{self._what} completeness defect {defect:.3e} exceeds {_COMPLETENESS_TOL:g}"
            )

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
        total = sum(dag(k) @ k for op in self.ops.values() for k in op.kraus)
        return float(np.abs(np.linalg.eigvalsh(hermitian_part(total - np.eye(self.dim)))).max())


class JointInstrument(Instrument):
    """Instrument over a joint ``(alice, bob)`` outcome alphabet.

    Each conditional operation must have exactly one Kraus operator, so that
    conditioning on the full joint record leaves a definite (rank-one
    conditioned) trajectory.  Summing over bob outcomes recovers the
    observer's own instrument; see :func:`alice_marginal`.
    """

    _what = "joint instrument"

    def __init__(self, ops: Mapping[tuple[str, str], ConditionalOp]):
        super().__init__(ops)

    @staticmethod
    def _label(label) -> tuple[str, str]:
        y, u = label
        return (str(y), str(u))

    def _check(self) -> None:
        for label, op in self.ops.items():
            if len(op.kraus) != 1:
                raise InvalidMatrix(f"joint outcome {label!r} must have Kraus rank one")
        super()._check()

    @property
    def alice_labels(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(y for y, _ in self.ops))

    @property
    def bob_labels(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(u for _, u in self.ops))

    def bob_options(self, y: str) -> tuple[str, ...]:
        """Bob labels compatible with a given alice outcome, in sorted order."""
        return tuple(sorted(u for (a, u) in self.ops if a == y))


@dataclass(frozen=True)
class MeasurementRecord:
    """Ordered outcome sequence with its starting step index."""

    outcomes: tuple
    t0_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def t_index(self) -> int:
        return self.t0_index + len(self.outcomes)

    def split(self, t: int) -> tuple[tuple, tuple]:
        """Past and future portions relative to absolute step index ``t``."""
        k = t - self.t0_index
        if k < 0 or k > len(self.outcomes):
            raise ValueError(f"split index {t} outside record span")
        return self.outcomes[:k], self.outcomes[k:]


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


def discretize(spec: LindbladSpec, *, defect_tol: float = 1e-6) -> JointInstrument:
    """First-order Kraus discretization of one Lindblad time step.

    The no-jump operator is ``M0 = I - (iH + sum_c L_c† L_c / 2) dt`` and each
    channel contributes a jump operator ``sqrt(dt) L_c``, split between a
    detected (alice) outcome with weight ``eta_c`` and an undetected (bob)
    outcome with weight ``1 - eta_c``.  Labels: no jump is ``("0", "0")``, the
    detected jump of channel ``c`` is ``(str(c+1), "0")`` and the undetected
    one ``("0", str(c+1))``.

    The raw first-order family misses completeness at ``O(dt^2)``; that is
    repaired exactly by replacing ``M0`` with ``U sqrt(I - sum_jumps M† M)``,
    ``U`` the unitary polar factor of ``M0``, which keeps the first-order
    dynamics and makes ``sum M† M = I`` to machine precision.  The step is
    rejected as :class:`StepTooCoarse` when the repair is impossible (total
    jump weight exceeding one in a single step) or the repaired family still
    misses completeness by more than ``defect_tol``.
    """
    d = spec.dim
    h = hermitian_part(np.asarray(spec.hamiltonian))
    eye = np.eye(d)
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
    if np.linalg.eigvalsh(gap)[0] < -1e-9:
        raise StepTooCoarse("jump probabilities exceed one within a single step; reduce dt")
    w, _, vh = np.linalg.svd(m0_raw)
    m0 = (w @ vh) @ psd_sqrt(gap)

    total = dag(m0) @ m0 + jump_gram
    defect = float(np.abs(np.linalg.eigvalsh(hermitian_part(total - eye))).max())
    if defect > defect_tol:
        raise StepTooCoarse(f"completeness defect {defect:.3e} exceeds {defect_tol:g}; reduce dt")

    ops = {("0", "0"): ConditionalOp((m0,))}
    for label in sorted(jumps):
        ops[label] = ConditionalOp((jumps[label],))
    return JointInstrument(ops)


def alice_marginal(joint: JointInstrument) -> Instrument:
    """Sum a joint instrument over bob outcomes, keeping alice's alphabet."""
    grouped: dict[str, list[np.ndarray]] = {y: [] for y in joint.alice_labels}
    for (y, _), op in joint.ops.items():
        grouped[y].extend(op.kraus)
    return Instrument({y: ConditionalOp(tuple(ks)) for y, ks in grouped.items()})


def apply_conditional(op: ConditionalOp, rho) -> tuple[np.ndarray, float]:
    """Apply one conditional operation; returns the unnormalized output and its trace."""
    a = np.asarray(rho, dtype=complex)
    out = sum(k @ a @ dag(k) for k in op.kraus)
    return out, max(float(out.trace().real), 0.0)


def apply_record(instrument, rho, record) -> tuple[np.ndarray, float]:
    """Compose the conditional operations of a record, without normalization."""
    sigma = np.asarray(rho, dtype=complex)
    for y in record:
        sigma, _ = apply_conditional(instrument.op(y), sigma)
    return sigma, max(float(sigma.trace().real), 0.0)


def filter(instrument, rho0, record) -> tuple[np.ndarray, float]:
    """Filtered state given a past record, with the record's log-probability.

    Normalizes after every step; raises :class:`ZeroProbabilityRecord` if any
    step has vanishing weight.
    """
    rho = as_density(rho0, "rho0")
    log_prob = 0.0
    for y in record:
        out, w = apply_conditional(instrument.op(y), rho)
        if w <= WEIGHT_FLOOR:
            raise ZeroProbabilityRecord(f"record impossible at outcome {y!r}")
        rho = hermitian_part(out / w)
        log_prob += float(np.log(w))
    return rho, log_prob


def retrofilter(instrument, record) -> np.ndarray:
    """Retrofiltered effect: the identity propagated backwards through the adjoints.

    For a future record ``(y_t, ..., y_{T-1})`` this is
    ``Phi_{y_t}† ( ... Phi_{y_{T-1}}†(I) ... )``; the empty record returns the
    identity exactly.  The result is Hermitian PSD but carries no
    normalization.
    """
    dim = instrument.dim
    effect = np.eye(dim, dtype=complex)
    for y in reversed(list(record)):
        op = instrument.op(y)
        effect = sum(dag(k) @ effect @ k for k in op.kraus)
        effect = hermitian_part(effect)
    return effect


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
        (_, ops, ops_dag), *rest = kraus_stacks[labels]
        out = ops @ sigma[:, None] @ ops_dag
        for idx, ops, ops_dag in rest:
            out[:, idx] += ops @ sigma[:, None] @ ops_dag
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
    records, ops = walk(instrument, as_density(rho0, "rho0"), [labels] * steps, cap=cap)
    probs = {r: max(float(op.trace().real), 0.0) for r, op in zip(records, ops)}
    return [(r, probs.get(r, 0.0)) for r in itertools.product(labels, repeat=steps)]


def sample_record(instrument, rho0, steps: int, rng) -> tuple[tuple, list[np.ndarray]]:
    """Sample one record by sequential outcome weights; deterministic given a seed.

    Returns the record and the filtered-state path (length ``steps + 1``,
    starting at ``rho0``).
    """
    gen = np.random.default_rng(rng)
    rho = as_density(rho0, "rho0")
    labels = instrument.outcome_labels
    path = [rho]
    record: list = []
    for _ in range(int(steps)):
        outs, weights = [], []
        for y in labels:
            out, w = apply_conditional(instrument.op(y), rho)
            outs.append(out)
            weights.append(w)
        probs = np.asarray(weights)
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        k = int(gen.choice(len(labels), p=probs))
        if weights[k] <= WEIGHT_FLOOR:
            raise ZeroProbabilityRecord("sampled a zero-weight outcome; model is degenerate")
        rho = hermitian_part(outs[k] / weights[k])
        record.append(labels[k])
        path.append(rho)
    return tuple(record), path
