"""Average-entropy analysis of smoothed states and the extremal prior bounds.

For a system state ``gamma``, an extension ``Gamma`` with marginal ``gamma``
and a POVM ``{E_i}``, each outcome ``i`` occurs with probability
``p_i = Tr[E_i gamma]`` and updates the state to

    rho_i = Tr_A[ sqrt(Gamma) (E_i (x) I_A) sqrt(Gamma) ] / p_i.

The p-weighted average von Neumann entropy of these updates is bounded below
by the trivial extension (``Gamma = gamma``) and above by ``S(gamma)``
(attained by any purification).  The bridge between the two is the
completely positive map

    L(Y) = Tr_A[ sqrt(Gamma) (gamma^{-1/2} Y gamma^{-1/2} (x) I_A) sqrt(Gamma) ],

trace-preserving on the support of ``gamma``, which carries every trivially
updated state onto its extended counterpart; data processing then yields the
lower bound, concavity the upper one.

No future-measurement-independent functional of the extension can order
these averages for every POVM: two extensions of the maximally mixed qubit,
classically correlated in the Z and X bases respectively, swap their
ordering between Z and X measurements (see
:func:`no_universal_quantifier_demo`).

Both averages are evaluated per batch of same-shape triples (:func:`theorem1_batch`); the theorem-1
sweep of ``entropy-scan`` runs one per shape group, and each row depends only on ``(seed, i)``.  The
sweep hands in the square roots it built the extensions from (:func:`theorem1_from_roots`), and the
eigenvalues that check each ``gamma`` as a state also give ``S(gamma)``, so no matrix is decomposed twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import BOUND_SLACK, WEIGHT_FLOOR, as_density, as_povm, density_spectrum, entropy_shannon, entropy_vn
from .linalg import psd_sqrt, spectrum_entropy, support_basis, support_basis_and_inv_sqrt, tensor
from .retrodiction import ChannelRep, FilteredGlobalState, _marginals, _sandwich_marginal, _update, require_marginals
from .smoothers import build_custom


@dataclass(frozen=True, eq=False)
class ExtensionScenario:
    """A system state, an extension sharing its marginal, and a POVM on the system."""

    gamma: np.ndarray
    extension: FilteredGlobalState
    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        g = as_density(self.gamma, "gamma")
        object.__setattr__(self, "gamma", g)
        self.extension.require_marginal(g, "gamma")
        object.__setattr__(self, "effects", tuple(as_povm(self.effects, g.shape[0])))


def _live_updates(gammas, roots, dims, effects) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome probabilities ``(n, k)``, which clear the floor, and those outcomes' updated states.

    Row ``j`` measures ``effects[j]`` on ``gammas[j]``, extended by the block
    roots ``roots[j]``; the live outcomes are one :func:`_update`, over their probabilities.
    """
    probs = np.clip(np.trace(effects @ gammas[:, None], axis1=-2, axis2=-1).real, 0.0, None)
    live = probs > WEIGHT_FLOOR
    rows, outcomes = live.nonzero()
    n_blocks = roots.shape[1]
    block_roots = roots[rows].reshape(-1, *roots.shape[2:])
    block_effects = effects[np.repeat(rows, n_blocks), np.repeat(outcomes, n_blocks)]
    return probs, live, _update(block_roots, dims, block_effects, np.full(len(rows), n_blocks), probs[live])


def _avg_entropies(probs: np.ndarray, live: np.ndarray, updated: np.ndarray) -> np.ndarray:
    """Probability-weighted average entropy of each row's live updates."""
    terms = np.zeros(probs.shape)
    terms[live] = probs[live] * entropy_vn(updated)
    return sum(terms.T, np.zeros(len(terms)))  # outcome by outcome, as a scalar running sum adds


def _scenario_updates(s: ExtensionScenario):
    ext = s.extension
    return _live_updates(s.gamma[None], ext.roots[None], ext.block_dims, np.stack(s.effects)[None])


def smoothed_outcome_states(scenario: ExtensionScenario) -> list[np.ndarray | None]:
    """Per-outcome updated states; outcomes of negligible probability give ``None``."""
    _, live, updated = _scenario_updates(scenario)
    updated = iter(updated)
    return [next(updated) if keep else None for keep in live[0]]


def avg_entropy(scenario: ExtensionScenario) -> float:
    """Probability-weighted average von Neumann entropy of the updated states (nats)."""
    return float(_avg_entropies(*_scenario_updates(scenario))[0])


class SandwichBound(NamedTuple):
    lower: float
    upper: float
    holds: bool


def sandwich_bound(rho_f, future_probs, avg_s: float) -> SandwichBound:
    """Entropy sandwich for an average over future records.

    The average entropy of the smoothed states lies between
    ``S(rho_F) - H(future records)`` and ``S(rho_F)``; returns both bounds and
    whether ``avg_s`` sits inside them up to ``BOUND_SLACK``.
    """
    s_f = entropy_vn(rho_f)
    h = entropy_shannon(future_probs)
    lower, upper = s_f - h, s_f
    return SandwichBound(lower, upper, bool(lower - BOUND_SLACK <= avg_s <= upper + BOUND_SLACK))


def _bridge_support(extension: FilteredGlobalState, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Support basis and inverse root of ``gamma``, validated as the extension's marginal."""
    g = as_density(gamma, "gamma")
    extension.require_marginal(g, "gamma")
    return support_basis_and_inv_sqrt(g)


def lambda_apply(extension: FilteredGlobalState, gamma, y) -> np.ndarray:
    """Directly evaluate the trivial-to-extended bridge map on one operator."""
    _, w = _bridge_support(extension, gamma)
    x = w @ np.asarray(y, dtype=complex) @ w
    return _sandwich_marginal(extension.roots, extension.block_dims, x)


def lambda_map(extension: FilteredGlobalState, gamma) -> ChannelRep:
    """Kraus form of the bridge map carrying trivial updates to extended ones.

    With ``S = sqrt(Gamma)`` written in blocks ``G_ab`` over an ancilla basis,
    the Kraus operators are ``G_ab gamma^{-1/2}``; their Gram sum is the
    support projector of ``gamma``, so the channel is trace-preserving on
    that support.
    """
    _, w = _bridge_support(extension, gamma)
    d_q, d_a1 = extension.dim_q, extension.dim_a1
    # G_ab of block u is roots[u, :, a, :, b]; Kraus operators in (u, a, b) order
    roots = extension.roots.reshape(-1, d_q, d_a1, d_q, d_a1).transpose(0, 2, 4, 1, 3)
    return ChannelRep(tuple((roots @ w).reshape(-1, d_q, d_q)))


def lambda_choi(extension: FilteredGlobalState, gamma) -> np.ndarray:
    """Choi matrix of the bridge map on the support of ``gamma``.

    Built by direct evaluation of the defining formula on matrix units of the
    support basis (independent of the Kraus form), all in one stacked call;
    PSD up to round-off iff the map is completely positive there.
    """
    basis, w = _bridge_support(extension, gamma)
    d, r = basis.shape
    # units[k, l] = |b_k><b_l| and choi[(i, k), (j, l)] = L(units[k, l])[i, j]
    units = basis.T[:, None, :, None] * basis.T.conj()[None, :, None, :]
    y = _sandwich_marginal(extension.roots, extension.block_dims, w @ units.reshape(-1, d, d) @ w)
    return y.reshape(r, r, d, d).transpose(2, 0, 3, 1).reshape(d * r, d * r)


@dataclass(frozen=True)
class Theorem1Report:
    """Both ends of the average-entropy sandwich for one extension."""

    avg_entropy_trivial: float
    avg_entropy_extension: float
    entropy_marginal: float
    lower_margin: float
    upper_margin: float
    ordering_holds: bool


def theorem1_batch(gammas, blocks, dims: tuple[int, int], povms) -> list[Theorem1Report]:
    """Evaluate the extremal-bound chain for a batch of same-shape ``(gamma, Gamma, POVM)`` triples.

    ``gammas`` is ``(n, d, d)``, ``povms`` ``(n, k, d, d)``; the array ``blocks`` ``(n, b, D, D)``
    holds each valid extension as its register blocks on ``Q (x) A1``, ``dims = (d, dim_a1)``.
    The states, marginals and POVMs are validated once for the batch; each row
    has the bits of its one-row call.  The ordering holds up to ``BOUND_SLACK``.
    """
    g, spectra, effects = _checked_triples(gammas, blocks, dims, povms)
    roots = psd_sqrt(blocks.reshape(-1, *blocks.shape[-2:])).reshape(blocks.shape)
    return _theorem1_reports(g, spectra, psd_sqrt(g), roots, dims, effects)


def theorem1_from_roots(gammas, gamma_roots, blocks, roots, dims: tuple[int, int], povms) -> list[Theorem1Report]:
    """:func:`theorem1_batch`, given ``sqrt(gamma)`` of each state and the square roots of the blocks.

    For a caller that built the extensions from those roots, so that no
    matrix is decomposed twice.  The inputs are validated as there, and the
    rows have the same bits.
    """
    g, spectra, effects = _checked_triples(gammas, blocks, dims, povms)
    return _theorem1_reports(g, spectra, gamma_roots, roots, dims, effects)


def _checked_triples(gammas, blocks, dims, povms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The validated states, their eigenvalues and the validated POVMs of theorem-1 triples.

    Each state must be a density operator and each extension's marginal its
    state; the eigenvalues are the ones the density check computed.
    """
    g, spectra = density_spectrum(gammas, "gamma")
    flat = blocks.reshape(-1, *blocks.shape[-2:])
    require_marginals(_marginals(flat, dims, [blocks.shape[1]] * len(blocks)), g, "gamma")
    return g, spectra, as_povm(povms, g.shape[-1])


def _theorem1_reports(g, spectra, gamma_roots, roots, dims, effects) -> list[Theorem1Report]:
    """Each row's report from its validated triple, the eigenvalues of ``gamma`` and the square roots."""
    s_trivial = _avg_entropies(*_live_updates(g, gamma_roots[:, None], (g.shape[-1], 1), effects))
    s_ext = _avg_entropies(*_live_updates(g, roots, dims, effects))
    s_gamma = spectrum_entropy(spectra)
    holds = (s_trivial - BOUND_SLACK <= s_ext) & (s_ext <= s_gamma + BOUND_SLACK)
    fields = (s_trivial, s_ext, s_gamma, s_ext - s_trivial, s_gamma - s_ext, holds)
    return [Theorem1Report(*row) for row in zip(*(f.tolist() for f in fields))]


def theorem1_check(gamma, extension: FilteredGlobalState, povm) -> Theorem1Report:
    """Evaluate the extremal-bound chain for one triple: :func:`theorem1_batch` of one row."""
    return theorem1_batch([gamma], extension.blocks[None], extension.block_dims, [povm])[0]


@dataclass(frozen=True)
class QuantifierDemo:
    """Average entropies of two classically correlated extensions under Z and X."""

    values: dict[tuple[str, str], float]
    expected: dict[tuple[str, str], float]
    max_error: float
    reversal_holds: bool


def no_universal_quantifier_demo() -> QuantifierDemo:
    """Qubit demonstration that no POVM-independent functional orders the averages.

    Two extensions of the maximally mixed state, one correlated in the Z
    basis and one in the X basis, give average entropies ``(0, ln 2)`` under
    a Z measurement and ``(ln 2, 0)`` under an X measurement: strictly
    ordered both times, in opposite directions.
    """
    ket0 = np.array([1.0, 0.0])
    ket1 = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)

    def proj(v):
        return np.outer(v, v.conj())

    gamma = np.eye(2) / 2
    ext1 = 0.5 * (tensor(proj(ket0), proj(ket0)) + tensor(proj(ket1), proj(ket1)))
    ext2 = 0.5 * (tensor(proj(plus), proj(ket0)) + tensor(proj(minus), proj(ket1)))
    povms = {"Z": (proj(ket0), proj(ket1)), "X": (proj(plus), proj(minus))}

    ln2 = float(np.log(2.0))
    expected = {("gamma1", "Z"): 0.0, ("gamma1", "X"): ln2, ("gamma2", "Z"): ln2, ("gamma2", "X"): 0.0}
    priors = {"gamma1": build_custom(ext1, (2, 2)), "gamma2": build_custom(ext2, (2, 2))}
    values = {(n, a): avg_entropy(ExtensionScenario(gamma, priors[n], povms[a])) for n, a in expected}
    max_error = max(abs(values[k] - expected[k]) for k in expected)
    v = values
    reversal = v["gamma1", "Z"] < v["gamma2", "Z"] and v["gamma1", "X"] > v["gamma2", "X"]
    return QuantifierDemo(values, expected, max_error, reversal_holds=bool(reversal))
