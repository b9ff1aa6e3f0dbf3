"""Seeded random generators for states, channels, measurements and extensions.

Every function takes an explicit ``numpy.random.Generator`` so that callers
control determinism; nothing here touches global random state.  A theorem-1
triple (a state, an extension of it and a POVM) is drawn as one vector of
:func:`triple_size` standard normals, and :func:`triples_from` splits a stack of
them into their parts; the ``*_from`` functions build from one draw or a stack.
"""

from __future__ import annotations

import numpy as np

from .linalg import dag, hermitian_part, partial_trace, psd_sqrt, support_inv_sqrt, tensor
from .trajectory import ConditionalOp, Instrument


def ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex array of independent standard normal real parts, then imaginary parts, in one draw."""
    re, im = rng.normal(size=(2, *np.atleast_1d(shape)))
    return re + 1j * im


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = ginibre(dim, rng)
    return v / np.linalg.norm(v)


def density_from(g: np.ndarray) -> np.ndarray:
    """The density operator ``g g† / Tr[g g†]`` of a Ginibre draw ``(..., d, r)``."""
    rho = g @ dag(g)
    return hermitian_part(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random density operator of the given rank (full by default)."""
    return density_from(ginibre((dim, dim if rank is None else int(rank)), rng))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    q, r = np.linalg.qr(ginibre((dim, dim), rng))
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


def povm_from(g: np.ndarray) -> np.ndarray:
    """POVM ``(..., k, d, d)`` from one Ginibre matrix per effect: each ``g g†``, normalized by their sum."""
    raw = g @ dag(g)
    w = support_inv_sqrt(sum(np.moveaxis(raw, -3, 0)))[..., None, :, :]  # summed as over a list
    return hermitian_part(w @ raw @ w)


def random_povm(dim: int, n_effects: int, rng: np.random.Generator) -> np.ndarray:
    """Random POVM with ``n_effects`` full-rank effects summing to the identity, as a stack.

    The effects' Ginibre matrices are drawn in one call, in the stream order of one :func:`ginibre` per effect.
    """
    g = rng.normal(size=(n_effects, 2, dim, dim))
    return povm_from(g[:, 0] + 1j * g[:, 1])


def random_instrument(
    dim: int, n_outcomes: int, kraus_per_outcome: int, rng: np.random.Generator
):
    """Random instrument: a random channel's Kraus operators grouped by outcome, in order."""
    k = kraus_per_outcome
    kraus = random_kraus_channel(dim, dim, n_outcomes * k, rng)
    return Instrument({str(y): ConditionalOp(kraus[y * k : (y + 1) * k]) for y in range(n_outcomes)})


def extension_from(root: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Extension of ``gamma`` from a pure state ``psi`` on ``Q (x) A (x) R``, as ``(d_q d_a, d_R)``.

    ``root`` is ``sqrt(gamma)``.  ``R`` is traced out, and ``sqrt(gamma) m^{-1/2} (x) I``
    pins the marginal ``m`` to ``gamma``.
    """
    d_q = root.shape[-1]
    dim_a = psi.shape[-2] // d_q
    joint = hermitian_part(psi @ dag(psi))
    marginal = partial_trace(joint, (d_q, dim_a), "Q")
    corr = tensor(root @ support_inv_sqrt(marginal), np.eye(dim_a))
    out = hermitian_part(corr @ joint @ dag(corr))
    return out / np.trace(out, axis1=-2, axis2=-1).real[..., None, None]


def random_extension(gamma: np.ndarray, dim_a: int, rng: np.random.Generator) -> np.ndarray:
    """Random joint state on ``Q (x) A`` whose marginal on ``Q`` equals ``gamma``."""
    d = gamma.shape[0] * dim_a
    return extension_from(psd_sqrt(gamma), random_pure_state(d * d, rng).reshape(d, d))


def triple_size(dim_q: int, dim_a: int, n_effects: int) -> int:
    """The number of standard normals one theorem-1 triple draws; see :func:`triples_from`."""
    return 2 * dim_q * dim_q * (1 + n_effects) + 2 * (dim_q * dim_a) ** 2


def triples_from(rows: np.ndarray, dim_q: int, dim_a: int, n_effects: int):
    """The parts of stacked theorem-1 draws ``(n, triple_size)``, as complex stacks.

    Each row holds, in stream order, the draws of :func:`random_density`
    (``dim_q``), of :func:`random_extension`'s pure state on
    ``(dim_q dim_a)**2`` and of :func:`random_povm` (``dim_q``, ``n_effects``),
    so one ``rng.normal`` call draws what those three make.  Returns the
    Ginibre matrices ``(n, dim_q, dim_q)``, the unit pure states
    ``(n, D, D)`` with ``D = dim_q dim_a`` and the effects' Ginibre matrices
    ``(n, n_effects, dim_q, dim_q)``, each with the bits of its own draw.
    """
    n, q, d = len(rows), dim_q, dim_q * dim_a
    cut = 2 * q * q + 2 * d * d
    g = rows[:, : 2 * q * q].reshape(n, 2, q, q)
    v = rows[:, 2 * q * q : cut].reshape(n, 2, d * d)
    e = rows[:, cut:].reshape(n, n_effects, 2, q, q)
    g, v, e = g[:, 0] + 1j * g[:, 1], v[:, 0] + 1j * v[:, 1], e[:, :, 0] + 1j * e[:, :, 1]
    # one dot of the strided real and imaginary views per row, as np.linalg.norm sums a vector
    re, im = v.real[:, None], v.imag[:, None]
    norms = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0])
    return g, (v / norms).reshape(n, d, d), e
