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

Every update here is one body, ``Tr_A[ sqrt(P) (X (x) I_A) sqrt(P) ]`` over a
stack of priors (``_traced``), under a different prior and operator ``X``:
smoothing takes ``X = E_R`` and symmetrizes and normalizes the result,
:func:`extended_petz` takes the pulled-back evidence, and :func:`petz_map` is
:func:`extended_petz` on the trivial one-block prior.  The bridge map and the
per-outcome updates of :mod:`retrosmooth.entropy` are calls of it too.

Filtered global states are stored as a block-diagonal family over an
optional classical record register, since the square root of a
block-diagonal matrix factorizes blockwise; this keeps the cost linear in
the number of record branches.  One prior kind's states for a table of
pasts are one :class:`PriorTable`, which owns their blocks, stacked per
block shape and checked once by :meth:`PriorTable.of`; a
:class:`FilteredGlobalState` is a view of one row.  A table is smoothed in
one call: each stack takes its square roots in one batched
eigendecomposition, cached, and every (past, future) pair goes through one
stacked sandwich ``sqrt(P_u) (E_R (x) I_A1) sqrt(P_u)`` and one partial
trace over ``A1`` and the register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _isfinite,
    _ranges,
    _sum_runs,
    as_density,
    as_effect,
    as_hermitian,
    as_povm,
    as_square,
    completeness_defect,
    dag,
    hermitian_faults,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    require_complete,
    require_finite,
    support_basis_and_inv_sqrt,
    tensor,
)
from .trajectory import Merged

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
    """Joint state of the system and the auxiliary reference the agent credits: row ``row`` of ``table``.

    ``blocks`` is a read-only stack ``(n, D, D)`` with ``D = dim_q * dim_a1``:
    ``blocks[u]`` lives on ``Q (x) A1`` and is the branch tied to value ``u``
    of a classical record register ``A2`` (basis states labelled by
    ``block_labels``); the full state is the block-diagonal sum over the
    register, on ``Q (x) A1 (x) A2``.  Priors without a record register are a
    single block with the empty label.  Block traces must sum to one.

    The state is a view: its blocks, labels, dimensions and kind, its
    ``roots`` (the blocks' square roots) and its marginal are read from the
    table, which checked them and takes the roots and marginals once, for
    every update of the row.  :meth:`of` builds one from raw blocks, and
    :meth:`PriorTable.prior` gives a table's row.
    """

    table: PriorTable = field(repr=False)
    row: int

    @classmethod
    def of(cls, blocks, dim_q: int, dim_a1: int = 1, block_labels=((),), kind: str = "custom") -> FilteredGlobalState:
        """The prior of ``blocks``, any sequence of equal-shape matrices: the row of its one-row, checked table."""
        if kind not in PRIOR_KINDS:
            raise InvalidMatrix(f"unknown prior kind {kind!r}")
        if len(blocks) != len(block_labels):
            raise InvalidMatrix("one label per block required")
        if not len(blocks):
            raise InvalidMatrix("at least one block required")
        try:
            stack = np.asarray(blocks, dtype=complex)
        except ValueError:
            raise InvalidFactorization("blocks do not share one shape") from None
        if stack.shape[1:] != (dim_q * dim_a1,) * 2:
            raise InvalidFactorization(f"blocks of shape {stack.shape[1:]} do not match dims ({dim_q}, {dim_a1})")
        labels = tuple(tuple(label) for label in block_labels)
        return PriorTable.of(kind, dim_q, [None], [labels], {dim_a1: ([0], [len(stack)], stack)}).prior(0)

    @cached_property
    def _place(self) -> tuple[int, int, slice]:
        """The row's ``A1`` dimension, its index among that shape's rows and its blocks' slice of the stack."""
        a1, (rows, counts, _) = next((a1, shape) for a1, shape in self.table.shapes.items() if self.row in shape[0])
        k = int(np.searchsorted(rows, self.row))
        lo = int(counts[:k].sum())
        return a1, k, slice(lo, lo + int(counts[k]))

    @property
    def kind(self) -> str:
        return self.table.kind

    @property
    def dim_q(self) -> int:
        return self.table.dim_q

    @property
    def dim_a1(self) -> int:
        return self._place[0]

    @property
    def block_labels(self) -> tuple[tuple, ...]:
        return self.table.labels[self.row]

    @cached_property
    def blocks(self) -> np.ndarray:
        return self.table.shapes[self.dim_a1][2][self._place[2]]

    @cached_property
    def roots(self) -> np.ndarray:
        """``psd_sqrt`` of every block, as a read-only stack aligned with ``blocks``."""
        return self.table.roots[self.dim_a1][self._place[2]]

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
        return self.table.marginals[self.dim_a1][self._place[1]]

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix on ``Q (x) A1 (x) A2`` (register last)."""
        dq, da1, da2 = self.dim_q, self.dim_a1, self.dim_a2
        r = self.blocks.reshape(da2, dq, da1, dq, da1)
        n = dq * da1 * da2
        return np.einsum("uiajb,uv->iaujbv", r, np.eye(da2)).reshape(n, n)


@dataclass(frozen=True, eq=False)
class PriorTable:
    """One prior kind's filtered global states for a table of pasts, one row per past.

    Row ``i`` failed to build with ``errors[i]``, or its blocks, labelled
    ``labels[i]``, are in ``shapes[dim_a1]``: ``(rows, counts, blocks)``, the
    rows whose blocks on ``Q (x) A1`` have that ``A1`` dimension, ascending,
    their block counts and all their blocks in row order, read-only.  Only
    ``clhs`` has more than one shape.  Each stack's roots and marginals are
    taken once, when read.
    """

    kind: str
    dim_q: int
    shapes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    labels: list
    errors: list

    @classmethod
    def of(cls, kind: str, dim_q: int, errors: list, labels: list, shapes: dict) -> PriorTable:
        """The table of ``shapes``, less the rows that fail the check, which take its error in ``errors``.

        Each block must be finite and Hermitian within ``BLOCK_HERMITIAN_TOL``
        of its own scale, and each row's traces, added as ``np.sum`` adds them,
        must sum to one within ``PROB_SUM_TOL``.
        """
        errors, checked = list(errors), {}
        for a1, (rows, sizes, blocks) in shapes.items():
            rows, sizes, blocks = np.asarray(rows, int), np.asarray(sizes, int), np.asarray(blocks, complex)
            stack, skew = hermitian_faults(blocks, BLOCK_HERMITIAN_TOL)
            with np.errstate(over="ignore", invalid="ignore"):
                totals = _sum_runs(np.trace(stack, axis1=1, axis2=2).real, sizes)
            failed = (np.abs(totals - 1.0) > PROB_SUM_TOL) | (_sum_runs(skew | ~_isfinite(stack), sizes) > 0)
            if failed.any():
                lo = np.cumsum(sizes) - sizes
                for i in np.flatnonzero(failed).tolist():
                    # the row's own check: a block's fault, else its trace total
                    try:
                        as_hermitian(blocks[lo[i] : lo[i] + sizes[i]], "global-state block", tol=BLOCK_HERMITIAN_TOL)
                        errors[rows[i]] = InvalidMatrix(f"block traces sum to {float(totals[i])!r}, expected 1")
                    except InvalidMatrix as exc:
                        errors[rows[i]] = exc
                stack, rows, sizes = stack[np.repeat(~failed, sizes)], rows[~failed], sizes[~failed]
            if len(rows):
                checked[a1] = rows, sizes, _read_only(stack)
        return cls(kind, dim_q, checked, labels, errors)

    def prior(self, i: int) -> FilteredGlobalState:
        """Row ``i`` as a :class:`FilteredGlobalState`, a view of the checked row; raises the row's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return FilteredGlobalState(self, i)

    @cached_property
    def roots(self) -> dict[int, np.ndarray]:
        """``psd_sqrt`` of each shape's blocks, read-only."""
        return {a1: _read_only(psd_sqrt(blocks)) for a1, (_, _, blocks) in self.shapes.items()}

    @cached_property
    def marginals(self) -> dict[int, np.ndarray]:
        """The system marginal of each row of each shape, read-only."""
        return {a1: _read_only(_marginals(b, (self.dim_q, a1), n)) for a1, (_, n, b) in self.shapes.items()}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def require_marginals(marginals, rhos, what: str) -> None:
    """Raise :class:`InvalidExtension` unless each marginal is its state within ``MARGINAL_TOL``.

    ``marginals`` and ``rhos`` are one matrix each or aligned stacks ``(n, d, d)``.
    """
    if np.shape(rhos) != np.shape(marginals):
        raise InvalidExtension(f"extension system dimension does not match {what}")
    gap = float(np.abs(marginals - np.asarray(rhos, dtype=complex)).max(initial=0.0))
    if gap > MARGINAL_TOL:
        raise InvalidExtension(f"extension marginal deviates from {what} by {gap:.3e}")


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
    """Petz recovery of a prior ``gamma`` through ``channel``, given evidence ``sigma``.

    The trivial extension's update: :func:`extended_petz` on the one-block prior ``gamma``.
    """
    g = as_density(gamma, "prior")
    if g.shape[0] != channel.input_dim:
        raise InvalidFactorization("prior dimension does not match the channel input")
    return extended_petz(channel, FilteredGlobalState.of(g[None], len(g)), sigma)


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
    return hermitian_part(_traced(prior.roots, prior.block_dims, pulled, [prior.dim_a2])[0])


def _traced(roots: np.ndarray, dims: tuple[int, int], x, counts) -> np.ndarray:
    """``Tr_A[ sqrt(P) (x (x) I_A) sqrt(P) ]`` of each prior ``P`` of a stack: the one body of the update.

    Prior ``i`` owns the next ``counts[i]`` rows of ``roots``, its block roots on
    ``Q (x) A1`` (``dims = (dim_q, dim_a1)``), and its blocks are summed in order.
    ``x`` is one operator for every row or a stack aligned with the rows.  Linear in
    ``x`` (no symmetrization), so it is safe on matrix units.
    """
    return _sum_runs(partial_trace(_sandwich(roots, dims[1], x), dims, "Q"), counts)


def _sandwich(roots: np.ndarray, dim_a1: int, x) -> np.ndarray:
    """``sqrt(P_u) (x (x) I_A1) sqrt(P_u)`` for every block root of a stack: one ``x``, or one per root."""
    return roots @ tensor(x, np.eye(dim_a1)) @ roots


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
    probability; otherwise :class:`ZeroProbabilityRecord` is raised.  One
    prior takes one effect, and its update runs on the prior's cached roots.

    ``prior`` may also be a :class:`PriorTable`, with ``effect`` one stack of
    effects and ``futures[i]`` the indices in it of row ``i``'s effects: the
    stack is validated once, and the result is each row's ``(states,
    possible)``, or ``None`` for a row that failed to build.
    ``possible[j]`` is false where the normalizer of the row's effect ``j``
    is at or below ``WEIGHT_FLOOR``, and ``states[j]`` is then NaN instead of
    raising; every other state has the bits of the one-prior call.  Each
    block shape's rows take one batched square root of their stack, and all
    their (row, effect) pairs one sandwich and one partial trace.
    """
    if isinstance(prior, PriorTable):
        return _smooth_priors(prior, as_effect(effect), futures)
    e, norm = _effect_and_norm(prior, effect)
    n = prior.dim_a2
    return _update(prior.roots, prior.block_dims, np.repeat(e[None], n, axis=0), [n], np.array([norm]))[0]


def _smooth_priors(table: PriorTable, effects: np.ndarray, futures) -> list:
    """:func:`generalized_smooth` of a table's rows on their futures' rows of a validated stack of effects.

    The possible (row, future) pairs of one block shape are one :func:`_update`
    call, one row per block of each pair, on the shape's stacked roots.
    """
    if table.shapes and table.dim_q != effects.shape[-1]:
        raise InvalidFactorization("effect dimension does not match the system")
    found: list = [None] * len(table.errors)
    for dim_a1, (members, counts, _) in table.shapes.items():
        dims = (table.dim_q, dim_a1)
        # every (row, future) pair of the shape, row-major
        picks = [np.asarray(futures[i], dtype=int) for i in members.tolist()]
        lengths = [len(f) for f in picks]
        pair_prior, pair_effect = np.repeat(np.arange(len(members)), lengths), np.concatenate(picks)
        norms = _norms(table.marginals[dim_a1][pair_prior], effects[pair_effect])
        possible = norms > WEIGHT_FLOOR
        states = np.full((len(norms), *effects.shape[1:]), np.nan, dtype=complex)
        n = counts[pair_prior[possible]]
        rows = _ranges((np.cumsum(counts) - counts)[pair_prior[possible]], n)
        roots = table.roots[dim_a1][rows]
        states[possible] = _update(roots, dims, effects[np.repeat(pair_effect[possible], n)], n, norms[possible])
        bounds = np.cumsum([0, *lengths])
        for i, lo, hi in zip(members.tolist(), bounds, bounds[1:]):
            found[i] = states[lo:hi], possible[lo:hi]
    return found


def _update(roots: np.ndarray, dims: tuple[int, int], effects: np.ndarray, counts, norms) -> np.ndarray:
    """``hermitian_part(Tr_A[sqrt(P) (E (x) I_A1) sqrt(P)]) / norm`` of each of a stack of (prior, effect) pairs.

    Pair ``j`` owns the next ``counts[j]`` rows of ``roots`` and of ``effects``, its
    effect once per block (:func:`_traced`), and ``norm = norms[j]``.
    """
    return hermitian_part(_traced(roots, dims, effects, counts)) / norms[:, None, None]


def smoothed_global(prior: FilteredGlobalState, effect) -> FilteredGlobalState:
    """Smoothed joint state on ``Q (x) A``, keeping the block structure.

    Same update as :func:`generalized_smooth` without the final partial
    trace; tracing out the auxiliary of the result recovers the smoothed
    system state.
    """
    e, norm = _effect_and_norm(prior, effect)
    blocks = _sandwich(prior.roots, prior.dim_a1, e) / norm
    return FilteredGlobalState.of(blocks, prior.dim_q, prior.dim_a1, prior.block_labels, prior.kind)


def bob_posterior(prior: FilteredGlobalState, effect) -> np.ndarray:
    """Posterior over the hypothetical second observer's past records.

    Only defined for priors carrying a classical record register (the
    ``gw`` and ``gw-variant`` kinds); the returned probabilities align with
    ``prior.block_labels``.  Equals the diagonal of the record register of
    the smoothed global state.

    A prior with a merged block (a label holding a
    :class:`~retrosmooth.trajectory.Merged` entry) raises
    :class:`MissingClassicalRegister` too: that block sums every bob record
    that ended in one reset, so the register no longer tells those records
    apart, and no block's weight is the posterior of one record.  Build the
    prior with ``merge=False`` (:func:`~retrosmooth.smoothers.build_prior`)
    to read the posterior of every bob record.
    """
    if prior.kind not in ("gw", "gw-variant"):
        raise MissingClassicalRegister(
            f"prior kind {prior.kind!r} carries no classical record register"
        )
    if any(isinstance(entry, Merged) for label in prior.block_labels for entry in label):
        raise MissingClassicalRegister("the record register merges bob records at reset steps")
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
