"""Retrodictive state updates: Petz recovery, extended priors, and smoothing.

The Petz recovery map of a channel ``E`` with prior ``gamma``,

    R(sigma) = sqrt(gamma) E†( E(gamma)^{-1/2} sigma E(gamma)^{-1/2} ) sqrt(gamma),

is the canonical quantum Bayesian update: feeding back the propagated prior
returns ``gamma`` exactly.  When the agent's knowledge includes correlations
with an auxiliary system, the prior is a joint state ``Gamma`` on
``Q (x) A`` and the update acts on the channel tensored with a discard of
``A``, followed by tracing ``A`` out.

Smoothing is the special case where the channel is the quantum-classical
measurement channel of the remaining record and the evidence is the observed
record itself.  The update then collapses to a closed form in terms of the
retrofiltered effect ``E_R``:

    rho_S = Tr_A[ sqrt(P) (E_R (x) I_A) sqrt(P) ] / Tr[rho_F E_R],

where ``P`` is the filtered global state (the extended prior at the
smoothing time) and ``rho_F = Tr_A[P]`` the ordinary filtered state.

Filtered global states are stored as a block-diagonal family over an
optional classical record register, since the square root of a
block-diagonal matrix factorizes blockwise; this keeps the cost linear in
the number of record branches.  The blocks are one stacked array, and their
square roots are taken once per prior, in one batched eigendecomposition,
and reused for every future: each smoothing update is then a stacked
sandwich ``sqrt(P_u) (E_R (x) I_A1) sqrt(P_u)`` followed by one partial
trace over ``A1`` and the register.  Since the update is linear in ``E_R``,
every future of one past is smoothed in one call on a stack of effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EvidenceOutsideSupport,
    InvalidExtension,
    InvalidFactorization,
    InvalidMatrix,
    MissingClassicalRegister,
    ZeroProbabilityRecord,
)
from .linalg import (
    BLOCK_HERMITIAN_TOL,
    LEAKAGE_TOL,
    MARGINAL_TOL,
    PROB_SUM_TOL,
    WEIGHT_FLOOR,
    as_density,
    as_effect,
    as_hermitian_stack,
    as_povm,
    as_square,
    completeness_defect,
    dag,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    require_complete,
    support_inv_sqrt,
    support_projector,
    tensor,
)

PRIOR_KINDS = ("pf", "gw", "gw-variant", "pf-variant", "clhs", "custom")


@dataclass(frozen=True, eq=False)
class ChannelRep:
    """A quantum channel in Kraus form, possibly with different input/output spaces."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not mats or any(m.ndim != 2 or m.shape != mats[0].shape for m in mats):
            raise InvalidMatrix("a channel needs one or more Kraus matrices of one shape")
        if not all(np.isfinite(m.view(float)).all() for m in mats):
            raise InvalidMatrix("Kraus operator has non-finite entries")
        object.__setattr__(self, "kraus", mats)

    @property
    def input_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.kraus[0].shape[0]

    def require_trace_preserving(self) -> None:
        require_complete(completeness_defect(self.kraus, self.input_dim), "channel")

    def apply(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=complex)
        return sum(k @ a @ dag(k) for k in self.kraus)

    def adjoint_apply(self, y) -> np.ndarray:
        a = np.asarray(y, dtype=complex)
        return sum(dag(k) @ a @ k for k in self.kraus)


@dataclass(frozen=True, eq=False)
class FilteredGlobalState:
    """Joint state of the system and the auxiliary reference the agent credits.

    ``blocks`` is a read-only stack ``(n, D, D)`` with ``D = dim_q * dim_a1``:
    ``blocks[u]`` lives on ``Q (x) A1`` and is the branch tied to value ``u``
    of a classical record register ``A2`` (basis states labelled by
    ``block_labels``); the full state is the block-diagonal sum over the
    register, on ``Q (x) A1 (x) A2``.  Priors without a record register are a
    single block with the empty label.  Block traces must sum to one.

    Any sequence of equal-shape matrices is accepted for ``blocks`` and
    validated in one pass: finite entries, each block Hermitian within
    ``BLOCK_HERMITIAN_TOL`` of its own scale, traces summing to one within
    ``PROB_SUM_TOL``.
    ``roots`` is the aligned stack of the blocks' square roots, computed on
    first use and then reused by every smoothing update of this prior; the
    marginal is likewise taken once.
    """

    blocks: np.ndarray
    dim_q: int
    dim_a1: int = 1
    block_labels: tuple[tuple, ...] = ((),)
    kind: str = "custom"

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise InvalidMatrix(f"unknown prior kind {self.kind!r}")
        if len(self.blocks) != len(self.block_labels):
            raise InvalidMatrix("one label per block required")
        if not len(self.blocks):
            raise InvalidMatrix("at least one block required")
        d = self.dim_q * self.dim_a1
        try:
            stack = np.asarray(self.blocks, dtype=complex)
        except ValueError:
            raise InvalidFactorization("blocks do not share one shape") from None
        if stack.shape[1:] != (d, d):
            raise InvalidFactorization(
                f"blocks of shape {stack.shape[1:]} do not match dims ({self.dim_q}, {self.dim_a1})"
            )
        stack = as_hermitian_stack(stack, "global-state block", tol=BLOCK_HERMITIAN_TOL)
        total = float(np.trace(stack, axis1=1, axis2=2).real.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidMatrix(f"block traces sum to {total!r}, expected 1")
        stack.flags.writeable = False
        object.__setattr__(self, "blocks", stack)
        object.__setattr__(self, "block_labels", tuple(tuple(l) for l in self.block_labels))

    @cached_property
    def roots(self) -> np.ndarray:
        """``psd_sqrt`` of every block, as a read-only stack aligned with ``blocks``."""
        roots = psd_sqrt(self.blocks)
        roots.flags.writeable = False
        return roots

    @property
    def dim_a2(self) -> int:
        return len(self.blocks)

    @property
    def dim_a(self) -> int:
        return self.dim_a1 * self.dim_a2

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_q, self.dim_a)

    def marginal(self) -> np.ndarray:
        """Reduced state on the system, ``Tr_A`` of the global state (read-only)."""
        return self._marginal

    @cached_property
    def _marginal(self) -> np.ndarray:
        marginal = hermitian_part(_trace_out_a(self, self.blocks))
        marginal.flags.writeable = False
        return marginal

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix on ``Q (x) A1 (x) A2`` (register last)."""
        dq, da1, da2 = self.dim_q, self.dim_a1, self.dim_a2
        r = self.blocks.reshape(da2, dq, da1, dq, da1)
        n = dq * da1 * da2
        return np.einsum("uiajb,uv->iaujbv", r, np.eye(da2)).reshape(n, n)

    def consistency_gap(self, rho_f) -> float:
        """Max-entry deviation of the marginal from a reference filtered state."""
        return float(np.abs(self.marginal() - np.asarray(rho_f, dtype=complex)).max())

    def require_marginal(self, rho, what: str) -> None:
        """Raise :class:`InvalidExtension` unless the marginal is ``rho`` within ``MARGINAL_TOL``."""
        if np.shape(rho) != (self.dim_q, self.dim_q):
            raise InvalidExtension(f"extension system dimension does not match {what}")
        gap = self.consistency_gap(rho)
        if gap > MARGINAL_TOL:
            raise InvalidExtension(f"extension marginal deviates from {what} by {gap:.3e}")


def _trace_out_a(prior: FilteredGlobalState, stack: np.ndarray) -> np.ndarray:
    """``Tr_A`` of the block-diagonal operator whose register blocks are ``stack``.

    ``stack`` is ``(n, D, D)``, or ``(k, n, D, D)`` for ``k`` such operators.
    """
    return partial_trace(stack, (prior.dim_q, prior.dim_a1), "Q").sum(axis=-3)


def _pull_back_evidence(channel: ChannelRep, gamma: np.ndarray, sigma) -> np.ndarray:
    """``E†(E(gamma)^{-1/2} sigma E(gamma)^{-1/2})`` with support-restricted inverses.

    Evidence weight outside the support of the propagated prior beyond
    ``LEAKAGE_TOL`` raises :class:`EvidenceOutsideSupport` rather than being
    silently projected away.
    """
    channel.require_trace_preserving()
    s = as_density(sigma, "evidence")
    if s.shape[0] != channel.output_dim:
        raise InvalidFactorization("evidence does not match the channel output")
    propagated = hermitian_part(channel.apply(gamma))
    w = support_inv_sqrt(propagated)
    proj = support_projector(propagated)
    leakage = float((s @ (np.eye(s.shape[0]) - proj)).trace().real)
    if leakage > LEAKAGE_TOL:
        raise EvidenceOutsideSupport(
            f"evidence has weight {leakage:.3e} outside the propagated prior's support"
        )
    return channel.adjoint_apply(w @ s @ w)


def petz_map(channel: ChannelRep, gamma, sigma) -> np.ndarray:
    """Petz recovery of a prior ``gamma`` through ``channel``, given evidence ``sigma``."""
    g = as_density(gamma, "prior")
    if g.shape[0] != channel.input_dim:
        raise InvalidFactorization("prior dimension does not match the channel input")
    pulled = _pull_back_evidence(channel, g, sigma)
    root = psd_sqrt(g)
    return hermitian_part(root @ pulled @ root)


def extended_petz(channel: ChannelRep, prior: FilteredGlobalState, sigma) -> np.ndarray:
    """Petz recovery with a prior extended to the auxiliary system.

    The channel acts on the system factor only, the auxiliary is discarded,
    and the update is traced back down to the system:
    ``Tr_A[ sqrt(Gamma) (E†(E(gamma)^{-1/2} sigma E(gamma)^{-1/2}) (x) I_A) sqrt(Gamma) ]``
    with ``gamma = Tr_A[Gamma]``.  For a trivial auxiliary this is exactly
    :func:`petz_map`; for a pure ``Gamma`` the update never moves the prior.
    """
    if channel.input_dim != prior.dim_q:
        raise InvalidFactorization(
            f"channel input dim {channel.input_dim} != system dim {prior.dim_q}"
        )
    pulled = _pull_back_evidence(channel, prior.marginal(), sigma)
    return hermitian_part(_sandwich_marginal(prior, pulled))


def _sandwich_marginal(prior: FilteredGlobalState, x) -> np.ndarray:
    """``Tr_A[ sqrt(P) (x (x) I_A) sqrt(P) ]`` over the stacked block roots.

    ``x`` is one operator or a stack ``(k, d, d)`` of them.  Linear in ``x``
    (no symmetrization), so it is safe on matrix units.
    """
    return _trace_out_a(prior, _sandwich(prior, x))


def _sandwich(prior: FilteredGlobalState, x) -> np.ndarray:
    """``sqrt(P_u) (x (x) I_A1) sqrt(P_u)`` for every block ``u``, as a stack.

    For a stack ``x`` of ``k`` operators the result is ``(k, n, D, D)``.
    """
    roots = prior.roots
    lifted = tensor(x, np.eye(prior.dim_a1))
    if lifted.ndim == 3:
        lifted = lifted[:, None]
    return roots @ lifted @ roots


def _effects_and_norms(prior: FilteredGlobalState, effect) -> tuple[np.ndarray, np.ndarray]:
    """Validated effects as a stack ``(k, d, d)`` and their normalizers ``Tr[rho_F E_R]``.

    One effect is a stack of one.  Raises :class:`InvalidFactorization` for
    effects of the wrong dimension.
    """
    e = as_effect(effect)
    if e.shape[-1] != prior.dim_q:
        raise InvalidFactorization("effect dimension does not match the system")
    stack = e if e.ndim == 3 else e[None]
    return stack, np.trace(prior.marginal() @ stack, axis1=1, axis2=2).real


def _effect_and_norm(prior: FilteredGlobalState, effect) -> tuple[np.ndarray, float]:
    """One validated effect and its normalizer; :class:`ZeroProbabilityRecord` if it vanishes."""
    stack, norms = _effects_and_norms(prior, as_square(effect, "effect"))
    if norms[0] <= WEIGHT_FLOOR:
        raise ZeroProbabilityRecord(f"record probability {norms[0]:.3e} vanishes")
    return stack[0], float(norms[0])


def generalized_smooth(prior: FilteredGlobalState, effect):
    """Smoothed system state from a filtered global state and a retrofiltered effect.

    Computes ``Tr_A[sqrt(P) (E_R (x) I_A) sqrt(P)] / Tr[rho_F E_R]``.  The
    output is PSD with unit trace whenever the record has nonvanishing
    probability; otherwise :class:`ZeroProbabilityRecord` is raised.

    A stack ``(k, d, d)`` of effects is validated and smoothed in one pass
    and returns ``(states, possible)``: ``possible[j]`` is false where the
    normalizer of effect ``j`` is at or below ``WEIGHT_FLOOR``, and
    ``states[j]`` is then NaN instead of raising.  Each state has the bits of
    the single-effect call.
    """
    if np.ndim(effect) != 3:
        e, norm = _effect_and_norm(prior, effect)
        return hermitian_part(_sandwich_marginal(prior, e[None]))[0] / norm
    stack, norms = _effects_and_norms(prior, effect)
    possible = norms > WEIGHT_FLOOR
    states = np.full(stack.shape, np.nan, dtype=complex)
    sandwiched = _sandwich_marginal(prior, stack[possible])
    states[possible] = hermitian_part(sandwiched) / norms[possible][:, None, None]
    return states, possible


def smoothed_global(prior: FilteredGlobalState, effect) -> FilteredGlobalState:
    """Smoothed joint state on ``Q (x) A``, keeping the block structure.

    Same update as :func:`generalized_smooth` without the final partial
    trace; tracing out the auxiliary of the result recovers the smoothed
    system state.
    """
    e, norm = _effect_and_norm(prior, effect)
    return FilteredGlobalState(
        blocks=_sandwich(prior, e) / norm,
        dim_q=prior.dim_q,
        dim_a1=prior.dim_a1,
        block_labels=prior.block_labels,
        kind=prior.kind,
    )


def bob_posterior(prior: FilteredGlobalState, effect) -> np.ndarray:
    """Posterior over the hypothetical second observer's past records.

    Only defined for priors carrying a classical record register (the
    ``gw`` and ``gw-variant`` kinds); the returned probabilities align with
    ``prior.block_labels``.  Equals the diagonal of the record register of
    the smoothed global state.
    """
    if prior.kind not in ("gw", "gw-variant"):
        raise MissingClassicalRegister(
            f"prior kind {prior.kind!r} carries no classical record register"
        )
    e, norm = _effect_and_norm(prior, effect)
    lifted = tensor(e, np.eye(prior.dim_a1))
    probs = np.trace(prior.blocks @ lifted, axis1=1, axis2=2).real
    return np.clip(probs, 0.0, None) / norm


def counterfactual_prob(rho_s, povm) -> np.ndarray:
    """Born probabilities of an unperformed measurement on a smoothed state."""
    rho = as_density(rho_s, "smoothed state")
    effects = as_povm(povm, rho.shape[0])
    probs = np.array([(rho @ e).trace().real for e in effects])
    return np.clip(probs, 0.0, None)
