"""Every special case of the retrodictive update has the bits of the body it replaced.

Petz recovery, the extended update, the bridge map and its Choi matrix, the smoothed
joint state and the one-row theorem-1 check are each a call of one sandwich-and-trace
body.  The references below are the separate bodies they once had; the theorem-1 one keeps
the retired batch entry's own square roots in front of the surviving entry.
"""

import numpy as np
import pytest

from retrosmooth import sampling
from retrosmooth.entropy import lambda_apply, lambda_choi, theorem1_check, theorem1_from_roots
from retrosmooth.linalg import (
    as_density,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    support_basis_and_inv_sqrt,
    tensor,
)
from retrosmooth.retrodiction import (
    ChannelRep,
    FilteredGlobalState,
    _pull_back_evidence,
    extended_petz,
    generalized_smooth,
    petz_map,
    smoothed_global,
)


def reference_sandwich_marginal(roots, dims, x):
    """The retired two-shape sandwich and trace: one operator, or a stack of them, on every block root."""
    lifted = tensor(x, np.eye(dims[1]))
    if lifted.ndim == 3:
        lifted = lifted[:, None]
    return partial_trace(roots @ lifted @ roots, dims, "Q").sum(axis=-3)


def reference_petz(channel, gamma, sigma):
    """The retired Petz map, with its own square root of the prior."""
    g = as_density(gamma, "prior")
    pulled = _pull_back_evidence(channel, g, sigma)
    root = psd_sqrt(g)
    return hermitian_part(root @ pulled @ root)


def reference_theorem1_batch(gammas, blocks, dims, povms):
    """The retired one-call batch entry: the square roots of the states and blocks are taken here."""
    g = as_density(gammas, "gamma")
    roots = psd_sqrt(blocks.reshape(-1, *blocks.shape[-2:])).reshape(blocks.shape)
    return theorem1_from_roots(g, psd_sqrt(g), blocks, roots, dims, povms)


def split_prior(gamma, dim_a1, n_blocks, rng):
    """A seeded ``n_blocks``-block prior on ``Q (x) A1`` with marginal ``gamma``.

    A random extension of ``gamma`` on ``Q (x) A1 (x) A2`` keeps only its diagonal blocks over ``A2``.
    """
    d_q = gamma.shape[0]
    joint = sampling.random_extension(gamma, dim_a1 * n_blocks, rng)
    r = joint.reshape(d_q, dim_a1, n_blocks, d_q, dim_a1, n_blocks)
    d = d_q * dim_a1
    blocks = np.einsum("iaujbu->uiajb", r).reshape(n_blocks, d, d)
    labels = [(str(u),) for u in range(n_blocks)]
    return FilteredGlobalState.of(blocks=blocks, dim_q=d_q, dim_a1=dim_a1, block_labels=labels, kind="gw")


def cases(seed):
    """Seeded (gamma, prior) pairs: ``dim_a1`` from 1 to 3, one to three blocks, full-rank and rank-deficient states."""
    rng = np.random.default_rng(seed)
    for dim_a1 in (1, 2, 3):
        for n_blocks in (1, 2, 3):
            d_q = int(rng.integers(1, 4))
            gamma = sampling.random_density(d_q, rng, rank=int(rng.integers(1, d_q + 1)))
            yield gamma, split_prior(gamma, dim_a1, n_blocks, rng), rng


def in_support(channel, gamma, rng):
    """Evidence inside the propagated prior's support: the channel's image of a state inside ``gamma``'s."""
    root = psd_sqrt(gamma)
    inner = root @ sampling.random_density(len(gamma), rng) @ root
    return hermitian_part(channel.apply(inner / np.trace(inner).real))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extended_petz_and_petz_map_have_the_retired_bits(seed):
    for gamma, prior, rng in cases(seed):
        channel = ChannelRep(tuple(sampling.random_kraus_channel(len(gamma), 2, 3, rng)))
        sigma = in_support(channel, gamma, rng)
        pulled = _pull_back_evidence(channel, prior.marginal(), sigma)
        want = hermitian_part(reference_sandwich_marginal(prior.roots, prior.block_dims, pulled))
        assert extended_petz(channel, prior, sigma).tobytes() == want.tobytes()
        assert petz_map(channel, gamma, sigma).tobytes() == reference_petz(channel, gamma, sigma).tobytes()


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_bridge_map_has_the_retired_bits(seed):
    for gamma, prior, rng in cases(seed):
        basis, w = support_basis_and_inv_sqrt(as_density(gamma))
        assert basis.shape[1] <= len(gamma)
        y = hermitian_part(sampling.ginibre((len(gamma), len(gamma)), rng))
        want = reference_sandwich_marginal(prior.roots, prior.block_dims, w @ y @ w)
        assert lambda_apply(prior, gamma, y).tobytes() == want.tobytes()
        d, r = basis.shape
        units = basis.T[:, None, :, None] * basis.T.conj()[None, :, None, :]
        y = reference_sandwich_marginal(prior.roots, prior.block_dims, w @ units.reshape(-1, d, d) @ w)
        want = y.reshape(r, r, d, d).transpose(2, 0, 3, 1).reshape(d * r, d * r)
        assert lambda_choi(prior, gamma).tobytes() == want.tobytes()


def test_cases_cover_rank_deficient_states():
    ranks = [(np.linalg.matrix_rank(g), len(g)) for s in (3, 4, 5) for g, _, _ in cases(s)]
    assert any(rank < d for rank, d in ranks)


@pytest.mark.parametrize("seed", [6, 7])
def test_smoothing_has_the_retired_bits(seed):
    for gamma, prior, rng in cases(seed):
        effects = sampling.random_povm(len(gamma), 3, rng)
        states, possible = generalized_smooth(prior.table, effects, [np.arange(len(effects))])[0]
        for e, state, live in zip(effects, states, possible, strict=True):
            norm = float(np.trace(prior.marginal() @ e).real)
            assert live and generalized_smooth(prior, e).tobytes() == state.tobytes()
            want = hermitian_part(reference_sandwich_marginal(prior.roots, prior.block_dims, e)) / norm
            assert state.tobytes() == want.tobytes()
            joint = hermitian_part(prior.roots @ tensor(e, np.eye(prior.dim_a1)) @ prior.roots / norm)
            assert smoothed_global(prior, e).blocks.tobytes() == joint.tobytes()


@pytest.mark.parametrize("seed", [8, 9])
def test_theorem1_check_has_the_bits_of_the_retired_batch_entry(seed):
    for gamma, prior, rng in cases(seed):
        povm = sampling.random_povm(len(gamma), int(rng.integers(1, 4)), rng)
        (want,) = reference_theorem1_batch(gamma[None], prior.blocks[None], prior.block_dims, povm[None])
        assert repr(theorem1_check(gamma, prior, povm)) == repr(want)
