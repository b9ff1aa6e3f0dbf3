"""Dense complex Hermitian linear algebra for small Hilbert spaces.

All operators are plain complex ``numpy`` arrays.  Functions here are pure,
never mutate their inputs, and are meant for dimensions up to a few dozen;
everything goes through full eigendecompositions.

Conventions fixed project-wide:

* tensor products are ordered system-first (``Q`` is the slowest index),
* entropies are in nats,
* eigenvalues in ``[-PSD_CLAMP, 0]`` are treated as round-off zeros,
* the support of a PSD matrix is the span of eigenvectors with eigenvalue
  above ``RANK_TOL`` times the largest one,
* a probability or trace weight at or below ``WEIGHT_FLOOR`` counts as zero:
  a record step, a branch total or a smoothing normalizer that small makes
  the record impossible, and an outcome that small gets no updated state.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDistribution, InvalidFactorization, InvalidMatrix, NotPSD

HERMITIAN_TOL = 1e-12
PSD_CLAMP = 1e-10
PSD_HARD = 1e-6
RANK_TOL = 1e-10
WEIGHT_FLOOR = 1e-14


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return ``(m + m†)/2`` (of each matrix, for a stack)."""
    return (m + dag(m)) / 2


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidMatrix(f"{name} has non-finite entries")
    return a


def as_hermitian(m, name: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermiticity within ``tol`` (relative) and return the symmetrized matrix."""
    a = as_square(m, name)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - dag(a)).max(initial=0.0) > tol * scale:
        raise InvalidMatrix(f"{name} is not Hermitian within {tol:g}")
    return hermitian_part(a)


def as_hermitian_stack(m, name: str = "stack", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate a stack ``(n, d, d)`` of Hermitian matrices in one pass; return it symmetrized.

    Entries must be finite, and each matrix is held to :func:`as_hermitian`'s
    test relative to its own scale.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidMatrix(f"{name} must be a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidMatrix(f"{name} has non-finite entries")
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    if np.any(np.abs(a - dag(a)).max(axis=(1, 2), initial=0.0) > tol * scale):
        raise InvalidMatrix(f"{name} is not Hermitian within {tol:g}")
    return hermitian_part(a)


def as_density(m, name: str = "state") -> np.ndarray:
    """Validate a density operator: Hermitian, eigenvalues >= -1e-10, unit trace."""
    a = as_hermitian(m, name)
    tr = float(a.trace().real)
    if abs(tr - 1.0) > PSD_CLAMP:
        raise InvalidMatrix(f"{name} has trace {tr!r}, expected 1")
    w = np.linalg.eigvalsh(a)
    if w[0] < -PSD_CLAMP:
        raise NotPSD(f"{name} has eigenvalue {w[0]:g} below -{PSD_CLAMP:g}")
    return a


def as_effect(m, name: str = "effect") -> np.ndarray:
    """Validate an effect, or each effect of a stack ``(n, d, d)``, in one pass.

    An effect is Hermitian and PSD up to round-off, with no trace constraint:
    no eigenvalue below ``-PSD_CLAMP`` times ``max(1, largest eigenvalue)``.
    """
    a = as_hermitian_stack(m, name) if np.ndim(m) == 3 else as_hermitian(m, name)
    w = np.linalg.eigvalsh(a)
    if w.size:
        low = w[..., 0]
        bad = low < -PSD_CLAMP * np.maximum(1.0, w[..., -1])
        if np.any(bad):
            raise NotPSD(f"{name} has eigenvalue {low[bad].min():g}, not PSD")
    return a


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack ``(n, d, d)``.

    Returns ``(w, v)`` with eigenvalues ``w`` in descending order and
    eigenvectors as columns of the unitary ``v``, so ``m = v @ diag(w) @ v†``.
    Each eigenvector is phase-fixed so that its first component of
    non-negligible magnitude is real and positive, making the output
    deterministic (away from degeneracies).
    """
    a = as_hermitian_stack(m) if np.ndim(m) == 3 else as_hermitian(m)
    w, v = np.linalg.eigh(a)
    w = w[..., ::-1].copy()
    v = v[..., ::-1].copy()
    # divide each column by the phase of its first component above 1e-12 in
    # magnitude; a unit column always has one of at least d**-0.5
    lead = (np.abs(v) > 1e-12).argmax(axis=-2)
    *stack, cols = np.indices(lead.shape, sparse=True)
    c = v[(*stack, lead, cols)]
    return w, v / (c / np.abs(c))[..., None, :]


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, or of each matrix in a stack.

    Eigenvalues in ``[-PSD_HARD, 0]`` are clamped to zero; anything more
    negative raises :class:`NotPSD`.  Eigenvalues at or below ``1e-14`` of the
    matrix's largest one are zeroed as well: they are representation noise on
    rank deficient inputs and the square root would amplify them to ``~1e-7``.
    A zero matrix has the zero root.
    """
    w, v = herm_eig(m)
    if w.size and w.min() < -PSD_HARD:
        raise NotPSD(f"eigenvalue {w.min():g} below -{PSD_HARD:g}")
    top = w[..., :1]
    w = np.where(w > 1e-14 * top, w, 0.0)
    s = np.sqrt(np.clip(w, 0.0, None))
    return hermitian_part((v * s[..., None, :]) @ dag(v))


def support_inv_sqrt(m) -> np.ndarray:
    """Inverse square root restricted to the support.

    Eigenvalues at or below ``RANK_TOL`` times the largest eigenvalue map to
    zero, the rest to ``lambda**-0.5``.  The zero matrix maps to itself.
    """
    w, v = herm_eig(m)
    if w.size and w[-1] < -PSD_HARD:
        raise NotPSD(f"eigenvalue {w[-1]:g} below -{PSD_HARD:g}")
    top = float(w[0]) if w.size else 0.0
    if top <= 0.0:
        return np.zeros_like(np.asarray(m, dtype=complex))
    cut = RANK_TOL * top
    inv = np.where(w > cut, 1.0 / np.sqrt(np.clip(w, cut, None)), 0.0)
    return hermitian_part((v * inv) @ dag(v))


def support_projector(m) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD matrix."""
    w, v = herm_eig(m)
    top = float(w[0]) if w.size else 0.0
    if top <= 0.0:
        return np.zeros_like(np.asarray(m, dtype=complex))
    keep = w > RANK_TOL * top
    vk = v[:, keep]
    return hermitian_part(vk @ dag(vk))


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
    a = as_density(rho)
    w, v = herm_eig(a)
    top = float(w[0])
    rank = int(np.count_nonzero(w > RANK_TOL * top))
    rank = max(rank, 1)
    amps = np.sqrt(np.clip(w[:rank], 0.0, None))
    # psi[i * rank + k] = sqrt(w_k) v_k[i]: row-major reshape gives Q-first layout
    return (v[:, :rank] * amps).reshape(-1)


def entropy_vn(rho):
    """Von Neumann entropy in nats, with round-off eigenvalues clamped to zero.

    A stack ``(n, d, d)`` gives an array of ``n`` entropies, each equal to the
    bits of the single-matrix call.
    """
    stacked = np.ndim(rho) == 3
    a = as_hermitian_stack(rho) if stacked else as_hermitian(rho)
    w = np.atleast_2d(np.clip(np.linalg.eigvalsh(a), 0.0, None))
    # clipped eigenvalues ascend, so the positive ones end each row; summing
    # only that tail, rows grouped by its length, adds in the 1-d order
    positive = np.count_nonzero(w > 0.0, axis=1)
    s = np.zeros(len(w))
    for m in np.unique(positive):
        rows = positive == m
        tail = w[rows, w.shape[1] - m :]
        s[rows] = -np.sum(tail * np.log(tail), axis=1)
    # max(0.0, x) as the scalar code has it: a -0.0 or negative sum gives +0.0
    s = np.where(s > 0.0, s, 0.0)
    return s if stacked else float(s[0])


def entropy_shannon(p) -> float:
    """Shannon entropy in nats of a probability vector.

    Entries below ``-1e-10`` or a total differing from one by more than
    ``1e-8`` raise :class:`InvalidDistribution`; round-off is tolerated and
    normalized away.
    """
    q = np.asarray(p, dtype=float)
    if q.ndim != 1:
        raise InvalidDistribution(f"expected a vector, got shape {q.shape}")
    if q.size and q.min() < -PSD_CLAMP:
        raise InvalidDistribution(f"negative entry {q.min():g}")
    total = q.sum()
    if abs(total - 1.0) > 1e-8:
        raise InvalidDistribution(f"probabilities sum to {total!r}")
    q = np.clip(q, 0.0, None) / total
    q = q[q > 0.0]
    return max(0.0, float(-np.sum(q * np.log(q))))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def purity(rho):
    """``Tr[rho^2]``; an array of them for a stack ``(n, d, d)``."""
    a = np.asarray(rho, dtype=complex)
    p = np.trace(a @ a, axis1=-2, axis2=-1).real
    return p if a.ndim == 3 else float(p)


def fidelity(a, b):
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))**2`` between density operators.

    ``a`` may be a stack ``(n, d, d)``, each compared with ``b``; the result
    is then an array of ``n`` fidelities.
    """
    sa = psd_sqrt(a)
    w = np.clip(np.linalg.eigvalsh(hermitian_part(sa @ np.asarray(b, dtype=complex) @ sa)), 0.0, None)
    # squared one scalar at a time: an array square (x * x) and the scalar
    # power differ in the last bit for about 1 in 1000 values
    f = np.array([t**2 for t in np.sqrt(w).sum(axis=-1).reshape(-1)])
    return f if sa.ndim == 3 else float(f[0])
