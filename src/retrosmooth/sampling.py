"""Seeded random generators for states, channels, measurements and extensions.

Every function takes an explicit ``numpy.random.Generator`` so that callers
control determinism; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from .linalg import dag, hermitian_part, partial_trace, psd_sqrt, support_inv_sqrt, tensor
from .trajectory import ConditionalOp, Instrument


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(g)


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random density operator of the given rank (full by default)."""
    r = dim if rank is None else int(rank)
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = g @ dag(g)
    return hermitian_part(rho / rho.trace().real)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_isometry(dim_in: int, dim_out: int, rng: np.random.Generator) -> np.ndarray:
    """Random isometry ``V`` of shape ``(dim_out, dim_in)`` with ``V† V = I``."""
    if dim_out < dim_in:
        raise ValueError("isometry needs dim_out >= dim_in")
    return random_unitary(dim_out, rng)[:, :dim_in]


def random_kraus_channel(
    dim_in: int, dim_out: int, n_kraus: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Exactly trace-preserving random channel as a list of Kraus operators.

    Built by slicing a random Stinespring isometry, so ``sum K† K = I`` holds
    to machine precision.
    """
    v = random_isometry(dim_in, dim_out * n_kraus, rng)
    # rows grouped as (output index, kraus index)
    blocks = v.reshape(dim_out, n_kraus, dim_in)
    return [blocks[:, k, :].copy() for k in range(n_kraus)]


def random_povm(dim: int, n_effects: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random POVM with ``n_effects`` full-rank effects summing to the identity."""
    raw = []
    for _ in range(n_effects):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ dag(g))
    total = sum(raw)
    w = support_inv_sqrt(total)
    return [hermitian_part(w @ a @ w) for a in raw]


def random_instrument(
    dim: int, n_outcomes: int, kraus_per_outcome: int, rng: np.random.Generator
):
    """Random instrument: a random channel's Kraus operators grouped by outcome, in order."""
    k = kraus_per_outcome
    kraus = random_kraus_channel(dim, dim, n_outcomes * k, rng)
    return Instrument({str(y): ConditionalOp(kraus[y * k : (y + 1) * k]) for y in range(n_outcomes)})


def random_extension(
    gamma: np.ndarray, dim_a: int, rng: np.random.Generator
) -> np.ndarray:
    """Random joint state on ``Q (x) A`` whose marginal on ``Q`` equals ``gamma``.

    Draws a random pure state on ``Q (x) A (x) R``, traces out ``R``, then
    conjugates by ``sqrt(gamma) m^{-1/2} (x) I`` where ``m`` is the current
    marginal, which pins the marginal to ``gamma`` exactly.
    """
    d_q = gamma.shape[0]
    d_r = d_q * dim_a
    psi = random_pure_state(d_q * dim_a * d_r, rng)
    block = psi.reshape(d_q * dim_a, d_r)
    joint = hermitian_part(block @ dag(block))
    marginal = partial_trace(joint, (d_q, dim_a), "Q")
    corr = tensor(psd_sqrt(gamma) @ support_inv_sqrt(marginal), np.eye(dim_a))
    out = hermitian_part(corr @ joint @ dag(corr))
    return out / out.trace().real
