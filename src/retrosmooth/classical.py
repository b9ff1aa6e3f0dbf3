"""Classical hidden-Markov state inference: filtering, retrofiltering, smoothing.

The model is a finite-state chain observed through a per-step readout.  At
each step the current state ``x'`` first emits an outcome ``y`` with
probability ``p(y|x')`` and then jumps to ``x`` with probability ``D(x|x')``,
so the outcome-conditioned one-step map is ``phi_y(x|x') = D(x|x') p(y|x')``
and ``sum_y phi_y = D``.

One forward recursion (normalized at every step, summing the record's
log-likelihood) and one backward recursion (an all-ones effect through the
transposed conditional maps) each keep every level, so one pass each way
gives the posterior, their normalized entrywise product, at every split of a
record (:func:`classical_smooth_all`, as in Rabiner's forward-backward
algorithm).  :func:`classical_filter`, :func:`classical_retrofilter` and
:func:`classical_smooth` are their last-level and one-split cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDistribution, InvalidMatrix, UnknownOutcome, ZeroProbabilityRecord
from .linalg import STOCHASTIC_TOL, UNIT_TRACE_TOL, WEIGHT_FLOOR


def as_distribution(p, name: str = "distribution") -> np.ndarray:
    """Validate a probability vector: entries >= ``-STOCHASTIC_TOL``, sum 1 within ``UNIT_TRACE_TOL``."""
    q = np.asarray(p, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise InvalidDistribution(f"{name} must be a nonempty vector")
    if q.min() < -STOCHASTIC_TOL:
        raise InvalidDistribution(f"{name} has negative entry {q.min():g}")
    if abs(q.sum() - 1.0) > UNIT_TRACE_TOL:
        raise InvalidDistribution(f"{name} sums to {q.sum()!r}")
    return np.clip(q, 0.0, None)


@dataclass(frozen=True, eq=False)
class ClassicalModel:
    """Finite hidden-Markov model with a column-stochastic transition matrix.

    ``transition[x, x']`` is the probability of jumping from ``x'`` to ``x``;
    ``likelihood[y]`` is the vector ``p(y|x)`` over states.  Both completeness
    relations (columns of ``D`` and outcome sums per state) are enforced on
    construction.
    """

    transition: np.ndarray
    likelihood: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.transition, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidMatrix(f"transition must be square, got {d.shape}")
        if d.min(initial=0.0) < -STOCHASTIC_TOL:
            raise InvalidMatrix("transition has negative entries")
        if np.abs(d.sum(axis=0) - 1.0).max(initial=0.0) > STOCHASTIC_TOL:
            raise InvalidMatrix("transition columns must sum to 1")
        if not self.likelihood:
            raise InvalidMatrix("model needs at least one outcome")
        like = {}
        for y, vec in self.likelihood.items():
            v = np.asarray(vec, dtype=float)
            if v.shape != (d.shape[0],):
                raise InvalidMatrix(f"likelihood for {y!r} has shape {v.shape}")
            if v.min(initial=0.0) < -STOCHASTIC_TOL:
                raise InvalidMatrix(f"likelihood for {y!r} has negative entries")
            like[str(y)] = np.clip(v, 0.0, None)
        total = sum(like.values())
        if np.abs(total - 1.0).max() > STOCHASTIC_TOL:
            raise InvalidMatrix("per-state outcome probabilities must sum to 1")
        object.__setattr__(self, "transition", np.clip(d, 0.0, None))
        object.__setattr__(self, "likelihood", like)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(self.likelihood)


def conditional_map(model: ClassicalModel, y: str) -> np.ndarray:
    """One-step conditional dynamical map ``phi_y(x|x') = D(x|x') p(y|x')``."""
    if y not in model.likelihood:
        raise UnknownOutcome(f"outcome {y!r} not in alphabet {model.outcome_labels}")
    return model.transition * model.likelihood[y][None, :]


def _forward(model, prior, record) -> tuple[list[np.ndarray], float]:
    """The forward recursion: the posterior after each prefix of ``record``, shortest first, and its log-likelihood."""
    posteriors, loglik = [as_distribution(prior, "prior")], 0.0
    for y in record:
        v = conditional_map(model, y) @ posteriors[-1]
        w = v.sum()
        if w <= WEIGHT_FLOOR:
            raise ZeroProbabilityRecord(f"record has zero probability at outcome {y!r}")
        posteriors.append(v / w)
        loglik += float(np.log(w))
    return posteriors, loglik


def _backward(model, record) -> list[np.ndarray]:
    """The backward recursion: the unnormalized effect of each suffix of ``record``, longest first."""
    effects = [np.ones(model.n_states)]
    for y in reversed(list(record)):
        effects.append(conditional_map(model, y).T @ effects[-1])
    return effects[::-1]


def _combine(posteriors, effects) -> np.ndarray:
    """Row ``t`` is the normalized product of ``posteriors[t]`` and ``effects[t]``."""
    s = np.stack(posteriors) * np.stack(effects)
    z = s.sum(axis=1, keepdims=True)
    if (z <= WEIGHT_FLOOR).any():
        raise ZeroProbabilityRecord("combined record has zero probability")
    return s / z


def classical_filter(model, prior, record) -> tuple[np.ndarray, float]:
    """Forward pass: posterior over states given the past record, plus log-likelihood.

    Returns ``(p_F, ln p(record))``.  An empty record returns the prior and
    log-likelihood zero.  Raises :class:`ZeroProbabilityRecord` if the record
    is impossible under the model.
    """
    posteriors, loglik = _forward(model, prior, record)
    return posteriors[-1], loglik


def classical_retrofilter(model, record) -> np.ndarray:
    """Backward pass: effect ``E_R(x) = p(future record | x)``, unnormalized.

    The empty record gives the uninformative all-ones effect.
    """
    return _backward(model, record)[0]


def classical_smooth(model, prior, past, future) -> np.ndarray:
    """Posterior over states at the split time given past and future records."""
    return _combine(_forward(model, prior, past)[0][-1:], _backward(model, future)[:1])[0]


def classical_smooth_all(model, prior, record) -> np.ndarray:
    """Posterior at every split of ``record``, ``(len(record) + 1, n_states)``, from one pass each way.

    Row ``t`` has the bits of ``classical_smooth(model, prior, record[:t], record[t:])``.
    """
    return _combine(_forward(model, prior, record)[0], _backward(model, record))


def sample_classical_trajectories(
    model: ClassicalModel, prior, steps: int, n: int, rng
) -> tuple[list[list[int]], list[list[str]]]:
    """Sample ``n`` state paths and measurement records from the joint law, in lockstep.

    ``rng`` is a seed or ``numpy.random.Generator``.  Returns the state paths
    (each of length ``steps + 1``) and the outcome records (each of length
    ``steps``); each step emits from the current state, then transitions.
    The uniforms are one ``(n, 1 + 2 steps)`` array in row-major order (the
    initial state, then each step's emission and transition), and each draw
    is ``searchsorted(cdf, u, side="right")`` on the cdf ``Generator.choice``
    builds, so row ``i`` is what the ``i``-th of ``n`` one-at-a-time draws gives.
    """
    gen = np.random.default_rng(rng)
    p0 = as_distribution(prior, "prior")
    labels = model.outcome_labels
    like = np.stack([model.likelihood[y] for y in labels])  # (n_outcomes, n_states)
    u = gen.random((int(n), 1 + 2 * int(steps)))
    # row x' of each table is the cdf of the draw made from state x'; a row is
    # nondecreasing, so its count of entries <= u is its searchsorted(side="right")
    init_cdf, emit_cdf, jump_cdf = (_cdf(p) for p in (p0[None], like.T, model.transition.T))
    paths = np.empty((len(u), int(steps) + 1), dtype=int)
    outcomes = np.empty((len(u), int(steps)), dtype=int)
    paths[:, 0] = np.searchsorted(init_cdf[0], u[:, 0], side="right")
    for step in range(int(steps)):
        x = paths[:, step]
        outcomes[:, step] = (emit_cdf[x] <= u[:, 1 + 2 * step, None]).sum(axis=1)
        paths[:, step + 1] = (jump_cdf[x] <= u[:, 2 + 2 * step, None]).sum(axis=1)
    return paths.tolist(), [[labels[y] for y in row] for row in outcomes.tolist()]


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Row-wise cdfs, normalized by their last entry as ``Generator.choice`` builds them."""
    cdf = probs.cumsum(axis=1)
    return cdf / cdf[:, -1:]
