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
the number of record branches.  The blocks are one stacked array, and each
smoothing update is a stacked sandwich ``sqrt(P_u) (E_R (x) I_A1) sqrt(P_u)``
followed by one partial trace over ``A1`` and the register.  Since the
update is linear in ``E_R``, every future of one past is smoothed in one
call on a stack of effects, on the prior's square roots, taken once and
cached.  A table of priors is smoothed in one call as well: the priors of
one block shape take their square roots in one batched eigendecomposition
of all their blocks, and every (prior, future) pair goes through one
sandwich and one partial trace.
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
    _ranges,
    as_density,
    as_effect,
    as_hermitian,
    as_povm,
    as_square,
    completeness_defect,
    dag,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    require_complete,
    require_finite,
    support_basis_and_inv_sqrt,
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
        require_finite(np.stack(mats), "Kraus operator")
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
        stack = as_hermitian(stack, "global-state block", tol=BLOCK_HERMITIAN_TOL)
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
    def block_dims(self) -> tuple[int, int]:
        """``(dim_q, dim_a1)``: the factors of one block."""
        return (self.dim_q, self.dim_a1)

    def marginal(self) -> np.ndarray:
        """Reduced state on the system, ``Tr_A`` of the global state (read-only)."""
        return self._marginal

    @cached_property
    def _marginal(self) -> np.ndarray:
        (marginal,) = _marginals(self.blocks, self.block_dims, [len(self.blocks)])
        marginal.flags.writeable = False
        return marginal

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix on ``Q (x) A1 (x) A2`` (register last)."""
        dq, da1, da2 = self.dim_q, self.dim_a1, self.dim_a2
        r = self.blocks.reshape(da2, dq, da1, dq, da1)
        n = dq * da1 * da2
        return np.einsum("uiajb,uv->iaujbv", r, np.eye(da2)).reshape(n, n)

    def require_marginal(self, rho, what: str) -> None:
        """Raise :class:`InvalidExtension` unless the marginal is ``rho`` within ``MARGINAL_TOL``."""
        require_marginals(self.marginal(), rho, what)


def require_marginals(marginals, rhos, what: str) -> None:
    """Raise :class:`InvalidExtension` unless each marginal is its state within ``MARGINAL_TOL``.

    ``marginals`` and ``rhos`` are one matrix each or aligned stacks ``(n, d, d)``.
    """
    if np.shape(rhos) != np.shape(marginals):
        raise InvalidExtension(f"extension system dimension does not match {what}")
    gap = float(np.abs(marginals - np.asarray(rhos, dtype=complex)).max(initial=0.0))
    if gap > MARGINAL_TOL:
        raise InvalidExtension(f"extension marginal deviates from {what} by {gap:.3e}")


def _sum_runs(stack: np.ndarray, counts) -> np.ndarray:
    """The sum of each run of ``counts[i]`` consecutive matrices of ``stack``, with the bits of ``run.sum(axis=0)``.

    Runs of one length are summed in one call.
    """
    counts = np.asarray(counts)
    lengths = set(counts.tolist())
    if len(lengths) == 1:
        return stack.reshape(len(counts), -1, *stack.shape[1:]).sum(axis=1)
    starts = np.cumsum(counts) - counts
    out = np.empty((len(counts), *stack.shape[1:]), dtype=stack.dtype)
    for n in lengths:
        runs = np.flatnonzero(counts == n)
        rows = (starts[runs, None] + np.arange(n)).reshape(-1)
        out[runs] = stack[rows].reshape(len(runs), n, *stack.shape[1:]).sum(axis=1)
    return out


def _marginals(blocks: np.ndarray, dims: tuple[int, int], counts) -> np.ndarray:
    """The symmetrized system marginal of each prior whose blocks are the next ``counts[i]`` rows of ``blocks``."""
    return hermitian_part(_sum_runs(partial_trace(blocks, dims, "Q"), counts))


def _norms(marginals: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """``Tr[rho_F E_R]`` of aligned stacks of marginals and effects."""
    return np.trace(marginals @ effects, axis1=-2, axis2=-1).real


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
    basis, w = support_basis_and_inv_sqrt(propagated)
    proj = hermitian_part(basis @ dag(basis))
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
    return hermitian_part(_sandwich_marginal(prior.roots, prior.block_dims, pulled))


def _sandwich_marginal(roots: np.ndarray, dims: tuple[int, int], x) -> np.ndarray:
    """``Tr_A[ sqrt(P) (x (x) I_A) sqrt(P) ]`` over stacked block roots on ``Q (x) A1``.

    ``dims`` is ``(dim_q, dim_a1)``; see :func:`_sandwich` for the shapes.
    Linear in ``x`` (no symmetrization), so it is safe on matrix units.
    """
    return partial_trace(_sandwich(roots, dims[1], x), dims, "Q").sum(axis=-3)


def _sandwich(roots: np.ndarray, dim_a1: int, x) -> np.ndarray:
    """``sqrt(P_u) (x (x) I_A1) sqrt(P_u)`` for every block root ``sqrt(P_u)``, as a stack.

    With the roots ``(n, D, D)`` of one prior, one operator ``x`` gives
    ``(n, D, D)`` and a stack of ``k`` gives ``(k, n, D, D)``.  Roots
    ``(k, n, D, D)``, one prior per operator of a stack ``x``, give the same
    shape.
    """
    lifted = tensor(x, np.eye(dim_a1))
    if lifted.ndim == 3:
        lifted = lifted[:, None]
    return roots @ lifted @ roots


def _effect_and_norm(prior: FilteredGlobalState, effect) -> tuple[np.ndarray, float]:
    """One validated effect and its normalizer ``Tr[rho_F E_R]``.

    Raises :class:`InvalidFactorization` for an effect of the wrong dimension
    and :class:`ZeroProbabilityRecord` if the normalizer vanishes.
    """
    e = as_effect(as_square(effect, "effect"))
    if e.shape[-1] != prior.dim_q:
        raise InvalidFactorization("effect dimension does not match the system")
    norm = float(_norms(prior.marginal()[None], e[None])[0])
    if norm <= WEIGHT_FLOOR:
        raise ZeroProbabilityRecord(f"record probability {norm:.3e} vanishes")
    return e, norm


def generalized_smooth(prior, effect, futures=None):
    """Smoothed system state from a filtered global state and a retrofiltered effect.

    Computes ``Tr_A[sqrt(P) (E_R (x) I_A) sqrt(P)] / Tr[rho_F E_R]``.  The
    output is PSD with unit trace whenever the record has nonvanishing
    probability; otherwise :class:`ZeroProbabilityRecord` is raised.

    A stack ``(k, d, d)`` of effects is validated and smoothed in one pass
    and returns ``(states, possible)``: ``possible[j]`` is false where the
    normalizer of effect ``j`` is at or below ``WEIGHT_FLOOR``, and
    ``states[j]`` is then NaN instead of raising.  Each state has the bits of
    the single-effect call.

    ``prior`` may also be a sequence of priors, with ``effect`` one stack of
    effects and ``futures[i]`` the indices in it of prior ``i``'s effects:
    the stack is validated once, and the result is each prior's
    ``(states, possible)`` with the bits of its one-prior call.  The priors
    of one block shape take one batched square root of all their blocks,
    and all their (prior, effect) pairs one sandwich and one partial trace.
    One prior is the one-group case, on its cached roots.
    """
    if not isinstance(prior, FilteredGlobalState):
        return _smooth_priors(prior, as_effect(effect), futures)
    if np.ndim(effect) == 3:
        return _smooth_priors([prior], as_effect(effect), [np.arange(len(effect))])[0]
    e, _ = _effect_and_norm(prior, effect)
    return _smooth_priors([prior], e[None], [[0]])[0][0][0]


def _smooth_priors(priors, effects: np.ndarray, futures) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`generalized_smooth` of priors on their futures' rows of a validated stack of effects.

    The possible (prior, future) pairs of one block shape are one
    :func:`_update` call, one row per block of each pair.
    """
    if any(p.dim_q != effects.shape[-1] for p in priors):
        raise InvalidFactorization("effect dimension does not match the system")
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(priors):
        groups.setdefault(p.block_dims, []).append(i)
    found: list = [None] * len(priors)
    for dims, members in groups.items():
        counts = np.array([len(priors[i].blocks) for i in members])
        roots, marginals = _group_roots([priors[i] for i in members], counts)
        # every (prior, future) pair of the group, prior-major
        picks = [np.asarray(futures[i], dtype=int) for i in members]
        lengths = [len(f) for f in picks]
        pair_prior, pair_effect = np.repeat(np.arange(len(members)), lengths), np.concatenate(picks)
        norms = _norms(marginals[pair_prior], effects[pair_effect])
        possible = norms > WEIGHT_FLOOR
        states = np.full((len(norms), *effects.shape[1:]), np.nan, dtype=complex)
        n = counts[pair_prior[possible]]
        rows = _ranges((np.cumsum(counts) - counts)[pair_prior[possible]], n)
        states[possible] = _update(roots[rows], dims, effects[np.repeat(pair_effect[possible], n)], n, norms[possible])
        bounds = np.cumsum([0, *lengths])
        for i, lo, hi in zip(members, bounds, bounds[1:]):
            found[i] = states[lo:hi], possible[lo:hi]
    return found


def _update(roots: np.ndarray, dims: tuple[int, int], effects: np.ndarray, counts, norms) -> np.ndarray:
    """``hermitian_part(Tr_A[sqrt(P) (E (x) I_A1) sqrt(P)]) / norm`` of each of a stack of (prior, effect) pairs.

    Pair ``j`` owns the next ``counts[j]`` rows of ``roots``, its prior's block
    roots on ``Q (x) A1`` (``dims = (dim_q, dim_a1)``), and of ``effects``, its
    effect once per block; its blocks are summed in order, and ``norm = norms[j]``.
    """
    summed = _sum_runs(partial_trace(_sandwich(roots[:, None], dims[1], effects), dims, "Q")[:, 0], counts)
    return hermitian_part(summed) / norms[:, None, None]


def _group_roots(group: list[FilteredGlobalState], counts) -> tuple[np.ndarray, np.ndarray]:
    """The block roots and marginals of same-shape priors: one prior's cached ones, else one :func:`psd_sqrt` call."""
    if len(group) == 1:
        return group[0].roots, group[0].marginal()[None]
    blocks = np.concatenate([p.blocks for p in group])
    return psd_sqrt(blocks), _marginals(blocks, group[0].block_dims, counts)


def smoothed_global(prior: FilteredGlobalState, effect) -> FilteredGlobalState:
    """Smoothed joint state on ``Q (x) A``, keeping the block structure.

    Same update as :func:`generalized_smooth` without the final partial
    trace; tracing out the auxiliary of the result recovers the smoothed
    system state.
    """
    e, norm = _effect_and_norm(prior, effect)
    return FilteredGlobalState(
        blocks=_sandwich(prior.roots, prior.dim_a1, e) / norm,
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
