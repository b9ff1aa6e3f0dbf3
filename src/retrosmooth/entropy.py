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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidExtension, InvalidPOVM
from .linalg import (
    RANK_TOL,
    WEIGHT_FLOOR,
    as_density,
    as_effect,
    entropy_shannon,
    entropy_vn,
    herm_eig,
    hermitian_part,
    support_inv_sqrt,
    tensor,
)
from .retrodiction import ChannelRep, FilteredGlobalState, _sandwich_marginal
from .smoothers import build_custom

_MARGINAL_TOL = 1e-9
_POVM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ExtensionScenario:
    """A system state, an extension sharing its marginal, and a POVM on the system."""

    gamma: np.ndarray
    extension: FilteredGlobalState
    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        g = as_density(self.gamma, "gamma")
        object.__setattr__(self, "gamma", g)
        _require_marginal(self.extension, g)
        object.__setattr__(self, "effects", tuple(_as_povm(self.effects, g.shape[0])))


def _as_povm(effects, dim: int) -> np.ndarray:
    """Validate a POVM on a ``dim``-dimensional system as one stack of effects."""
    effects = [np.asarray(e, dtype=complex) for e in effects]
    if not effects:
        raise InvalidPOVM("POVM needs at least one effect")
    if any(e.shape != (dim, dim) for e in effects):
        raise InvalidPOVM(f"POVM effects must be {dim} x {dim} matrices")
    stack = as_effect(np.stack(effects), "POVM effect")
    if np.abs(stack.sum(axis=0) - np.eye(dim)).max() > _POVM_TOL:
        raise InvalidPOVM("effects do not sum to the identity")
    return stack


class _Validated(NamedTuple):
    """An :class:`ExtensionScenario` whose parts the caller has already validated."""

    gamma: np.ndarray
    extension: FilteredGlobalState
    effects: np.ndarray


def outcome_probs(scenario: ExtensionScenario) -> np.ndarray:
    """Outcome probabilities ``Tr[E_i gamma]`` of measuring the system marginal."""
    return np.clip(
        np.array([(e @ scenario.gamma).trace().real for e in scenario.effects]), 0.0, None
    )


def _live_updates(scenario: ExtensionScenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome probabilities, which clear the floor, and those outcomes' updated states.

    Every outcome above the floor is updated in one stacked sandwich.
    """
    probs = outcome_probs(scenario)
    live = probs > WEIGHT_FLOOR
    sandwiched = _sandwich_marginal(scenario.extension, np.stack(scenario.effects)[live])
    return probs, live, hermitian_part(sandwiched) / probs[live][:, None, None]


def smoothed_outcome_states(scenario: ExtensionScenario) -> list[np.ndarray | None]:
    """Per-outcome updated states; outcomes of negligible probability give ``None``."""
    _, live, updated = _live_updates(scenario)
    updated = iter(updated)
    return [next(updated) if keep else None for keep in live]


def avg_entropy(scenario: ExtensionScenario) -> float:
    """Probability-weighted average von Neumann entropy of the updated states (nats)."""
    probs, live, updated = _live_updates(scenario)
    total = 0.0
    for p, s in zip(probs[live], entropy_vn(updated).tolist()):
        total += float(p) * s
    return total


class SandwichBound(NamedTuple):
    lower: float
    upper: float
    holds: bool


def sandwich_bound(rho_f, future_probs, avg_s: float, slack: float = 1e-9) -> SandwichBound:
    """Entropy sandwich for an average over future records.

    The average entropy of the smoothed states lies between
    ``S(rho_F) - H(future records)`` and ``S(rho_F)``; returns both bounds and
    whether ``avg_s`` sits inside them up to ``slack``.
    """
    s_f = entropy_vn(rho_f)
    h = entropy_shannon(future_probs)
    lower, upper = s_f - h, s_f
    return SandwichBound(lower, upper, bool(lower - slack <= avg_s <= upper + slack))


def _require_marginal(extension: FilteredGlobalState, gamma: np.ndarray) -> None:
    if extension.dim_q != gamma.shape[0]:
        raise InvalidExtension("extension system dimension does not match gamma")
    gap = extension.consistency_gap(gamma)
    if gap > _MARGINAL_TOL:
        raise InvalidExtension(f"extension marginal deviates from gamma by {gap:.3e}")


def lambda_apply(extension: FilteredGlobalState, gamma, y) -> np.ndarray:
    """Directly evaluate the trivial-to-extended bridge map on one operator."""
    g = as_density(gamma, "gamma")
    _require_marginal(extension, g)
    w = support_inv_sqrt(g)
    return _sandwich_marginal(extension, w @ np.asarray(y, dtype=complex) @ w)


def lambda_map(extension: FilteredGlobalState, gamma) -> ChannelRep:
    """Kraus form of the bridge map carrying trivial updates to extended ones.

    With ``S = sqrt(Gamma)`` written in blocks ``G_ab`` over an ancilla basis,
    the Kraus operators are ``G_ab gamma^{-1/2}``; their Gram sum is the
    support projector of ``gamma``, so the channel is trace-preserving on
    that support.
    """
    g = as_density(gamma, "gamma")
    _require_marginal(extension, g)
    w = support_inv_sqrt(g)
    d_q, d_a1 = extension.dim_q, extension.dim_a1
    # G_ab of block u is roots[u, :, a, :, b]; Kraus operators in (u, a, b) order
    roots = extension.roots.reshape(-1, d_q, d_a1, d_q, d_a1).transpose(0, 2, 4, 1, 3)
    return ChannelRep(tuple((roots @ w).reshape(-1, d_q, d_q)))


def support_basis(gamma) -> np.ndarray:
    """Orthonormal basis (columns) of the support of a PSD matrix."""
    w, v = herm_eig(gamma)
    top = float(w[0]) if w.size else 0.0
    if top <= 0.0:
        return np.zeros((np.asarray(gamma).shape[0], 0), dtype=complex)
    return v[:, w > RANK_TOL * top]


def lambda_choi(extension: FilteredGlobalState, gamma) -> np.ndarray:
    """Choi matrix of the bridge map on the support of ``gamma``.

    Built by direct evaluation of the defining formula on matrix units of the
    support basis (independent of the Kraus form); PSD up to round-off iff
    the map is completely positive there.
    """
    g = as_density(gamma, "gamma")
    basis = support_basis(g)
    r = basis.shape[1]
    choi = np.zeros((extension.dim_q * r, extension.dim_q * r), dtype=complex)
    for k in range(r):
        for l in range(r):
            unit = np.outer(basis[:, k], basis[:, l].conj())
            ekl = np.zeros((r, r), dtype=complex)
            ekl[k, l] = 1.0
            choi += tensor(lambda_apply(extension, g, unit), ekl)
    return choi


@dataclass(frozen=True)
class Theorem1Report:
    """Both ends of the average-entropy sandwich for one extension."""

    avg_entropy_trivial: float
    avg_entropy_extension: float
    entropy_marginal: float
    lower_margin: float
    upper_margin: float
    ordering_holds: bool


def theorem1_check(gamma, extension: FilteredGlobalState, povm, slack: float = 1e-9) -> Theorem1Report:
    """Evaluate the extremal-bound chain for one ``(gamma, Gamma, POVM)`` triple.

    ``gamma``, the extension's marginal and the POVM are validated once and
    shared by both averages.
    """
    g = as_density(gamma, "gamma")
    _require_marginal(extension, g)
    effects = _as_povm(povm, g.shape[0])
    trivial = FilteredGlobalState(blocks=(g,), dim_q=g.shape[0])
    s_trivial = avg_entropy(_Validated(g, trivial, effects))
    s_ext = avg_entropy(_Validated(g, extension, effects))
    s_gamma = entropy_vn(g)
    return Theorem1Report(
        avg_entropy_trivial=s_trivial,
        avg_entropy_extension=s_ext,
        entropy_marginal=s_gamma,
        lower_margin=s_ext - s_trivial,
        upper_margin=s_gamma - s_ext,
        ordering_holds=bool(s_trivial - slack <= s_ext <= s_gamma + slack),
    )


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
    expected = {
        ("gamma1", "Z"): 0.0,
        ("gamma1", "X"): ln2,
        ("gamma2", "Z"): ln2,
        ("gamma2", "X"): 0.0,
    }
    values: dict[tuple[str, str], float] = {}
    for name, ext in (("gamma1", ext1), ("gamma2", ext2)):
        prior = build_custom(ext, (2, 2))
        for axis, effects in povms.items():
            values[(name, axis)] = avg_entropy(ExtensionScenario(gamma, prior, effects))

    max_error = max(abs(values[k] - expected[k]) for k in expected)
    reversal = (values[("gamma1", "Z")] < values[("gamma2", "Z")]) and (
        values[("gamma1", "X")] > values[("gamma2", "X")]
    )
    return QuantifierDemo(
        values=values, expected=expected, max_error=max_error, reversal_holds=bool(reversal)
    )
