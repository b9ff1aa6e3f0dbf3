"""Dense complex Hermitian linear algebra for small Hilbert spaces, and the numerical policy.

All operators are plain complex ``numpy`` arrays.  Functions here are pure,
never mutate their inputs, and are meant for dimensions up to a few dozen;
everything goes through full eigendecompositions.  Tensor products are
ordered system-first (``Q`` is the slowest index); entropies are in nats.

Every tolerance is one constant here (only ``sweeps.PROB_FLOOR`` and the acceptance
thresholds of ``verify`` and the CLI live elsewhere), and each validity check is one function:
:func:`require_finite`, the ``as_*`` validators, :func:`kraus_gram`, :func:`support_basis`,
:func:`require_complete`, :func:`as_povm` and ``retrodiction.require_marginals``.  A check fails
only strictly beyond its tolerance.  One matrix and a stack ``(n, d, d)`` go through the same
code: :func:`as_hermitian` holds each matrix of a stack to its own scale, and the validators built
on it take either.

===================  =====  ====================================================================
constant             value  what it decides (what it raises)
===================  =====  ====================================================================
HERMITIAN_TOL        1e-12  ``|m - m†|`` over ``max(1, |m|)``: matrix is Hermitian (InvalidMatrix)
BLOCK_HERMITIAN_TOL  1e-9   the same for the blocks of a filtered global state (InvalidMatrix)
PSD_CLAMP            1e-10  negativity of a state or effect eigenvalue (NotPSD), of a Shannon
                            vector entry (InvalidDistribution)
PSD_HARD             1e-6   negativity a square root or inverse root clamps to zero (NotPSD)
UNIT_TRACE_TOL       1e-10  state trace (InvalidMatrix), classical distribution total
                            (InvalidDistribution) against one
PROB_SUM_TOL         1e-8   block-trace total of a prior (InvalidMatrix), Shannon vector total
                            (InvalidDistribution) against one
STOCHASTIC_TOL       1e-12  negativity and column/outcome sums of a hidden-Markov model
                            (InvalidMatrix), negativity of a distribution (InvalidDistribution)
SUBNORMAL_TOL        1e-10  excess over one of a conditional operation's ``K†K`` (InvalidMatrix)
IDENTITY_TOL         1e-9   completeness defect (InvalidMatrix), POVM sum (InvalidPOVM), jump
                            weight of one Lindblad step (StepTooCoarse), each against ``I``
ISOMETRY_TOL         1e-10  ``|V†V - I|`` of an ancilla isometry (InvalidFactorization)
MARGINAL_TOL         1e-9   ``|Tr_A Gamma - rho|`` of an extension (InvalidExtension)
LEAKAGE_TOL          1e-8   evidence weight outside the prior's support (EvidenceOutsideSupport)
BOUND_SLACK          1e-9   slack of the entropy sandwich and theorem-1 orderings (reported)
RANK_TOL             1e-10  support cut, relative to the largest eigenvalue; rank-one cut of
                            :func:`rank_one_range`, relative to the largest singular value
SQRT_CUT             1e-14  relative eigenvalue at or below which :func:`psd_sqrt` takes zero
PHASE_LEAD           1e-12  component magnitude on which :func:`herm_eig` fixes each phase
WEIGHT_FLOOR         1e-14  probability or trace weight that counts as zero (ZeroProbabilityRecord)
===================  =====  ====================================================================
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDistribution, InvalidFactorization, InvalidMatrix, InvalidPOVM, NotPSD

HERMITIAN_TOL = 1e-12
BLOCK_HERMITIAN_TOL = 1e-9
PSD_CLAMP = 1e-10
PSD_HARD = 1e-6
UNIT_TRACE_TOL = 1e-10
PROB_SUM_TOL = 1e-8
STOCHASTIC_TOL = 1e-12
SUBNORMAL_TOL = 1e-10
IDENTITY_TOL = 1e-9
ISOMETRY_TOL = 1e-10
MARGINAL_TOL = 1e-9
LEAKAGE_TOL = 1e-8
BOUND_SLACK = 1e-9
RANK_TOL = 1e-10
SQRT_CUT = 1e-14
PHASE_LEAD = 1e-12
WEIGHT_FLOOR = 1e-14


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return ``(m + m†)/2`` (of each matrix, for a stack)."""
    return (m + dag(m)) / 2


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranges ``lo[k] : lo[k] + n[k]``, concatenated."""
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


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


def require_finite(a: np.ndarray, name: str) -> None:
    """Raise :class:`InvalidMatrix` unless every entry of the complex array ``a`` is finite."""
    if not _isfinite(a).all():
        raise InvalidMatrix(f"{name} has non-finite entries")


def _isfinite(a: np.ndarray) -> np.ndarray:
    """Whether each matrix of an array (``ndim >= 2``) has only finite entries."""
    return np.isfinite(a.view(float)).all(axis=(-2, -1))


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    require_finite(a, name)
    return a


def as_hermitian(m, name: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate a matrix, or each matrix of a stack ``(n, d, d)``, as Hermitian; return it symmetrized.

    Entries must be finite, and each matrix may differ from its adjoint by at
    most ``tol`` times ``max(1, its largest entry magnitude)``: its own scale.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    h, skew = hermitian_faults(a, tol)
    if skew.any():
        raise InvalidMatrix(f"{name} is not Hermitian within {tol:g}")
    require_finite(h, f"{name}'s Hermitian part")
    return h


def hermitian_faults(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_part(a)``, and which of its matrices :func:`as_hermitian` finds further than ``tol`` from it."""
    # an infinite or NaN entry, or one that overflows here, leaves an infinite or NaN entry in h
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(a - dag(a)).max(axis=(-2, -1), initial=0.0)
        return hermitian_part(a), gap > tol * np.abs(a).max(axis=(-2, -1), initial=1.0)


def _as_unit_trace(m, name: str) -> np.ndarray:
    """:func:`as_hermitian`, with each matrix's trace within ``UNIT_TRACE_TOL`` of one."""
    a = as_hermitian(m, name)
    traces = a.trace(axis1=-2, axis2=-1).real.reshape(-1).tolist()
    off = [tr for tr in traces if abs(tr - 1.0) > UNIT_TRACE_TOL]
    if off:
        raise InvalidMatrix(f"{name} has trace {off[0]!r}, expected 1")
    return a


def _require_state_spectrum(w: np.ndarray, name: str) -> None:
    """Raise :class:`NotPSD` if a state's eigenvalues ``w`` (in either order) go below ``-PSD_CLAMP``."""
    low = float(w.min(initial=np.inf))
    if low < -PSD_CLAMP:
        raise NotPSD(f"{name} has eigenvalue {low:g} below -{PSD_CLAMP:g}")


def as_density(m, name: str = "state") -> np.ndarray:
    """Validate a density operator, or each of a stack ``(n, d, d)``, in one pass.

    A density operator is Hermitian with eigenvalues >= ``-PSD_CLAMP`` and unit trace.
    """
    return density_spectrum(m, name)[0]


def density_spectrum(m, name: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """:func:`as_density` and the ascending ``np.linalg.eigvalsh`` eigenvalues its check computes.

    They are the eigenvalues :func:`entropy_vn` takes of the returned state, so
    :func:`spectrum_entropy` of them is its entropy.
    """
    a = _as_unit_trace(m, name)
    w = np.linalg.eigvalsh(a)
    _require_state_spectrum(w, name)
    return a, w


def density_sqrt(m, name: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """:func:`as_density` and :func:`psd_sqrt` of a state or stack, from one eigendecomposition.

    The root has the bits of ``psd_sqrt(as_density(m, name))``.
    """
    a = _as_unit_trace(m, name)
    w, v = _phase_fixed_eigh(a)
    _require_state_spectrum(w, name)
    return a, _sqrt_from_eig(w, v)


def as_effect(m, name: str = "effect") -> np.ndarray:
    """Validate an effect, or each effect of a stack ``(n, d, d)``, in one pass.

    An effect is Hermitian and PSD up to round-off, with no trace constraint:
    no eigenvalue below ``-PSD_CLAMP`` times ``max(1, largest eigenvalue)``.
    """
    a = as_hermitian(m, name)
    w = np.linalg.eigvalsh(a)
    if w.size:
        low = w[..., 0]
        bad = low < -PSD_CLAMP * np.maximum(1.0, w[..., -1])
        if np.any(bad):
            raise NotPSD(f"{name} has eigenvalue {low[bad].min():g}, not PSD")
    return a


def as_povm(effects, dim: int) -> np.ndarray:
    """Validate ``dim x dim`` effects (:func:`as_effect`) summing to the identity; return one stack.

    A sequence of ``n`` POVMs of ``k`` effects each is validated in one pass
    and returned as a stack ``(n, k, dim, dim)``.
    """
    needs = f"a POVM needs one or more {dim} x {dim} effects"
    try:
        a = np.asarray(effects, dtype=complex)
    except ValueError:
        raise InvalidPOVM(needs) from None
    if a.ndim not in (3, 4) or a.shape[-2:] != (dim, dim) or not a.shape[-3]:
        raise InvalidPOVM(needs)
    stack = as_effect(a.reshape(-1, dim, dim), "POVM effect").reshape(a.shape)
    if np.abs(stack.sum(axis=-3) - np.eye(dim)).max(initial=0.0) > IDENTITY_TOL:
        raise InvalidPOVM("effects do not sum to the identity")
    return stack


def kraus_gram(kraus) -> np.ndarray:
    """``sum_k K† K`` of Kraus operators, symmetrized; a sum that overflows is :class:`InvalidMatrix`."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = hermitian_part(sum(dag(k) @ k for k in kraus))
    require_finite(total, "K†K summed over the Kraus operators")
    return total


def completeness_defect(kraus, dim: int) -> float:
    """Largest ``|eigenvalue|`` of ``sum_k K† K - I``: how far Kraus operators are from trace preserving."""
    return float(np.abs(np.linalg.eigvalsh(kraus_gram(kraus) - np.eye(dim))).max())


def require_complete(defect: float, name: str) -> None:
    """Raise :class:`InvalidMatrix` if a :func:`completeness_defect` exceeds ``IDENTITY_TOL``."""
    if defect > IDENTITY_TOL:
        raise InvalidMatrix(f"{name} completeness defect {defect:.3e} exceeds {IDENTITY_TOL:g}")


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack ``(n, d, d)``.

    Returns ``(w, v)`` with eigenvalues ``w`` in descending order and
    eigenvectors as columns of the unitary ``v``, so ``m = v @ diag(w) @ v†``.
    Each eigenvector is phase-fixed so that its first component of
    non-negligible magnitude is real and positive, making the output
    deterministic (away from degeneracies).
    """
    return _phase_fixed_eigh(as_hermitian(m))


def _phase_fixed_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`herm_eig` of an array :func:`as_hermitian` has returned."""
    w, v = np.linalg.eigh(a)
    w = w[..., ::-1].copy()
    v = v[..., ::-1].copy()
    # divide each column by the phase of its first component above PHASE_LEAD
    # in magnitude; a unit column always has one of at least d**-0.5
    lead = (np.abs(v) > PHASE_LEAD).argmax(axis=-2)
    *stack, cols = np.indices(lead.shape, sparse=True)
    c = v[(*stack, lead, cols)]
    return w, v / (c / np.abs(c))[..., None, :]


def _require_rootable(w: np.ndarray) -> None:
    """Raise :class:`NotPSD` for an eigenvalue below ``-PSD_HARD``, the most a root clamps to zero."""
    if w.size and w.min() < -PSD_HARD:
        raise NotPSD(f"eigenvalue {w.min():g} below -{PSD_HARD:g}")


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, or of each matrix in a stack.

    Eigenvalues in ``[-PSD_HARD, 0]`` are clamped to zero; anything more
    negative raises :class:`NotPSD`.  Eigenvalues at or below ``SQRT_CUT`` of
    the matrix's largest one are zeroed as well: they are representation noise
    on rank deficient inputs and the square root would amplify them to ``~1e-7``.
    A zero matrix has the zero root.
    """
    return _sqrt_from_eig(*herm_eig(m))


def _sqrt_from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`psd_sqrt` from its :func:`herm_eig` output."""
    _require_rootable(w)
    top = w[..., :1]
    w = np.where(w > SQRT_CUT * top, w, 0.0)
    s = np.sqrt(np.clip(w, 0.0, None))
    return hermitian_part((v * s[..., None, :]) @ dag(v))


def _support(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``herm_eig(m)`` and its support mask: eigenvalues above ``RANK_TOL`` times a positive top.

    For a stack each matrix is cut relative to its own top eigenvalue.
    """
    w, v = herm_eig(m)
    return w, v, _above_cut(w)


def _above_cut(values: np.ndarray) -> np.ndarray:
    """Which of descending ``values`` (per row, for a stack) lie above ``RANK_TOL`` times a positive first one."""
    top = values[..., :1]
    return (values > RANK_TOL * top) & (top > 0.0)


def rank_one_range(m) -> np.ndarray | None:
    """The unit vector spanning the range of a rank-one matrix ``m``, or ``None`` when ``m`` is not rank one.

    Rank one means one singular value above the support cut of the
    singular values: ``RANK_TOL`` times the largest, which is positive.
    """
    u, s, _ = np.linalg.svd(np.asarray(m, dtype=complex))
    return u[:, 0] if np.count_nonzero(_above_cut(s)) == 1 else None


def support_basis(m) -> np.ndarray:
    """Orthonormal basis (columns) of the support of a PSD matrix."""
    _, v, keep = _support(m)
    return v[:, keep]


def _inv_sqrt(w: np.ndarray, v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    _require_rootable(w)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return hermitian_part((v * inv[..., None, :]) @ dag(v))


def support_inv_sqrt(m) -> np.ndarray:
    """Inverse square root restricted to the support, of a matrix or of each matrix in a stack.

    Eigenvalues outside the support (:func:`support_basis`) map to zero, the
    rest to ``lambda**-0.5``.  The zero matrix maps to itself.
    """
    return _inv_sqrt(*_support(m))


def support_basis_and_inv_sqrt(m) -> tuple[np.ndarray, np.ndarray]:
    """:func:`support_basis` and :func:`support_inv_sqrt` of one matrix, from one eigendecomposition."""
    w, v, keep = _support(m)
    return v[:, keep], _inv_sqrt(w, v, keep)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices with the first factor slowest (system-first ordering).

    For a stack ``a`` of shape ``(..., m, n)`` each matrix of the stack is
    tensored with ``b``.  The entries are the products ``np.kron`` forms,
    without its reshaping overhead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (m, n), (p, q) = a.shape[-2:], b.shape
    return (a[..., :, None, :, None] * b[:, None, :]).reshape(*a.shape[:-2], m * p, n * q)


def partial_trace(m, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Partial trace of an operator on a bipartite space, or of each operator in a stack.

    Parameters
    ----------
    m : array ``(..., D, D)`` on the product space, with the first factor slowest.
    dims : ``(d_q, d_a)`` dimensions of the two factors, ``d_q * d_a = D``.
    keep : ``"Q"`` to trace out the second factor, ``"A"`` for the first.
    """
    d_q, d_a = int(dims[0]), int(dims[1])
    a = np.asarray(m, dtype=complex)
    if d_q <= 0 or d_a <= 0 or a.ndim < 2 or a.shape[-2:] != (d_q * d_a, d_q * d_a):
        raise InvalidFactorization(
            f"matrix of shape {a.shape} does not factor as ({d_q}, {d_a})"
        )
    r = a.reshape(*a.shape[:-2], d_q, d_a, d_q, d_a)
    if keep == "Q":
        return np.einsum("...iaja->...ij", r)
    if keep == "A":
        return np.einsum("...iaib->...ab", r)
    raise InvalidFactorization(f"keep must be 'Q' or 'A', got {keep!r}")


def purify(rho) -> np.ndarray:
    """Canonical purification of a density operator.

    Returns the vector ``sum_k sqrt(w_k) |v_k>|k>`` on ``Q (x) A`` where
    ``(w_k, v_k)`` are the eigenpairs of ``rho`` in descending order and the
    ancilla dimension equals the rank.  The eigenvector phase convention of
    :func:`herm_eig` makes the output deterministic.
    """
    w, v, keep = _support(as_density(rho))
    rank = max(int(np.count_nonzero(keep)), 1)
    amps = np.sqrt(np.clip(w[:rank], 0.0, None))
    # psi[i * rank + k] = sqrt(w_k) v_k[i]: row-major reshape gives Q-first layout
    return (v[:, :rank] * amps).reshape(-1)


def entropy_vn(rho):
    """Von Neumann entropy in nats, with round-off eigenvalues clamped to zero.

    A stack ``(n, d, d)`` gives an array of ``n`` entropies, each equal to the
    bits of the single-matrix call.
    """
    return spectrum_entropy(np.linalg.eigvalsh(as_hermitian(rho)))


def spectrum_entropy(w):
    """:func:`entropy_vn` of a state from its ascending ``np.linalg.eigvalsh`` eigenvalues ``w``.

    A 2-d ``w``, one row per state of a stack, gives an array of entropies.
    """
    ndim = np.ndim(w)
    w = np.atleast_2d(np.clip(w, 0.0, None))
    # clipped eigenvalues ascend, so the positive ones end each row; summing
    # only that tail, rows grouped by its length, adds in the 1-d order
    positive = np.count_nonzero(w > 0.0, axis=1)
    s = np.zeros(len(w))
    for m in sorted(set(positive.tolist())):  # not np.unique, whose first call imports numpy.ma
        rows = positive == m
        tail = w[rows, w.shape[1] - m :]
        s[rows] = -np.sum(tail * np.log(tail), axis=1)
    # max(0.0, x) as the scalar code has it: a -0.0 or negative sum gives +0.0
    s = np.where(s > 0.0, s, 0.0)
    return s if ndim == 2 else float(s[0])


def entropy_shannon(p) -> float:
    """Shannon entropy in nats of a probability vector.

    Entries below ``-PSD_CLAMP`` or a total differing from one by more than
    ``PROB_SUM_TOL`` raise :class:`InvalidDistribution`; round-off is
    tolerated and normalized away.
    """
    q = np.asarray(p, dtype=float)
    if q.ndim != 1:
        raise InvalidDistribution(f"expected a vector, got shape {q.shape}")
    if q.size and q.min() < -PSD_CLAMP:
        raise InvalidDistribution(f"negative entry {q.min():g}")
    total = q.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidDistribution(f"probabilities sum to {total!r}")
    q = np.clip(q, 0.0, None) / total
    q = q[q > 0.0]
    return max(0.0, float(-np.sum(q * np.log(q))))


def trace_norm(m):
    """Sum of singular values; an array of them for a stack ``(n, d, d)``."""
    a = np.asarray(m, dtype=complex)
    s = np.linalg.svd(a, compute_uv=False).sum(axis=-1)
    return s if a.ndim == 3 else float(s)


def purity(rho):
    """``Tr[rho^2]``; an array of them for a stack ``(n, d, d)``."""
    a = np.asarray(rho, dtype=complex)
    p = np.trace(a @ a, axis1=-2, axis2=-1).real
    return p if a.ndim == 3 else float(p)


def fidelity(a, b):
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))**2`` between density operators.

    ``a`` may be a stack ``(n, d, d)``, each compared with ``b``, or with ``b[i]`` for a
    stack ``b`` of its shape; the result is then an array of ``n`` fidelities.
    """
    sa = psd_sqrt(a)
    w = np.clip(np.linalg.eigvalsh(hermitian_part(sa @ np.asarray(b, dtype=complex) @ sa)), 0.0, None)
    # squared one scalar at a time: an array square (x * x) and the scalar
    # power differ in the last bit for about 1 in 1000 values
    f = np.array([t**2 for t in np.sqrt(w).sum(axis=-1).reshape(-1)])
    return f if sa.ndim == 3 else float(f[0])
