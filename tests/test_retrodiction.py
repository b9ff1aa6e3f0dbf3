import numpy as np
import pytest

from retrosmooth import sampling
from retrosmooth.errors import (
    EvidenceOutsideSupport,
    InvalidFactorization,
    InvalidMatrix,
    InvalidPOVM,
    MissingClassicalRegister,
    NotPSD,
    ZeroProbabilityRecord,
)
from retrosmooth.linalg import (
    IDENTITY_TOL,
    WEIGHT_FLOOR,
    completeness_defect,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    support_basis,
    support_inv_sqrt,
    tensor,
    trace_norm,
)
from retrosmooth.retrodiction import (
    ChannelRep,
    FilteredGlobalState,
    bob_posterior,
    counterfactual_prob,
    extended_petz,
    generalized_smooth,
    petz_map,
    smoothed_global,
)
from retrosmooth.smoothers import build_custom, build_pf, build_prior, extend_ancilla
from retrosmooth.trajectory import (
    JumpChannel,
    LindbladSpec,
    Merged,
    discretize,
    filter as filter_state,
    retrofilter,
)

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
G = np.diag([1.0, 0.0]).astype(complex)
E = np.diag([0.0, 1.0]).astype(complex)


def identity_channel(d):
    return ChannelRep((np.eye(d, dtype=complex),))


def depolarizing(p):
    y = np.array([[0.0, -1j], [1j, 0.0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    return ChannelRep(
        (
            np.sqrt(1 - 3 * p / 4) * np.eye(2),
            np.sqrt(p / 4) * SX,
            np.sqrt(p / 4) * y,
            np.sqrt(p / 4) * z,
        )
    )


def petz_oracle(channel, gamma, sigma):
    """Definition evaluated by explicit matrix arithmetic, no shared code path."""
    prop = sum(k @ gamma @ k.conj().T for k in channel.kraus)
    w, v = np.linalg.eigh(hermitian_part(prop))
    inv = np.where(w > 1e-10 * w.max(), w, np.inf) ** -0.5
    winv = (v * inv) @ v.conj().T
    mid = winv @ sigma @ winv
    pulled = sum(k.conj().T @ mid @ k for k in channel.kraus)
    wg, vg = np.linalg.eigh(hermitian_part(np.asarray(gamma, complex)))
    root = (vg * np.sqrt(np.clip(wg, 0, None))) @ vg.conj().T
    return root @ pulled @ root


class TestPetzMap:
    def test_identity_channel_full_rank(self):
        rng = np.random.default_rng(1)
        gamma = sampling.random_density(3, rng)
        sigma = sampling.random_density(3, rng)
        np.testing.assert_allclose(petz_map(identity_channel(3), gamma, sigma), sigma, atol=1e-10)

    def test_recovers_prior(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            channel = ChannelRep(tuple(sampling.random_kraus_channel(d_in, d_out, 3, rng)))
            gamma = sampling.random_density(d_in, rng)
            got = petz_map(channel, gamma, hermitian_part(channel.apply(gamma)))
            assert np.abs(got - gamma).max() <= 1e-9

    def test_depolarizing_hand_case(self):
        channel = depolarizing(0.5)
        gamma = np.diag([0.75, 0.25]).astype(complex)
        sigma = G
        got = petz_map(channel, gamma, sigma)
        np.testing.assert_allclose(got, np.diag([0.9, 0.1]), atol=1e-12)
        np.testing.assert_allclose(got, petz_oracle(channel, gamma, sigma), atol=1e-12)

    def test_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            channel = ChannelRep(tuple(sampling.random_kraus_channel(2, 3, 2, rng)))
            gamma = sampling.random_density(2, rng)
            sigma = sampling.random_density(3, rng)
            basis = support_basis(hermitian_part(channel.apply(gamma)))
            proj = basis @ basis.conj().T
            sigma = proj @ sigma @ proj
            sigma = hermitian_part(sigma / sigma.trace().real)
            np.testing.assert_allclose(
                petz_map(channel, gamma, sigma), petz_oracle(channel, gamma, sigma), atol=1e-9
            )

    def test_evidence_outside_support(self):
        channel = identity_channel(2)
        gamma = G  # propagated prior supported on |0>
        with pytest.raises(EvidenceOutsideSupport):
            petz_map(channel, gamma, E)

    def test_requires_trace_preserving(self):
        bad = ChannelRep((0.9 * np.eye(2),))
        with pytest.raises(Exception):
            petz_map(bad, np.eye(2) / 2, np.eye(2) / 2)


class TestExtendedPetz:
    def test_trivial_ancilla_reduces_to_petz(self):
        rng = np.random.default_rng(4)
        channel = ChannelRep(tuple(sampling.random_kraus_channel(2, 2, 2, rng)))
        gamma = sampling.random_density(2, rng)
        sigma = hermitian_part(channel.apply(gamma))
        prior = build_pf(gamma)
        np.testing.assert_allclose(
            extended_petz(channel, prior, sigma), petz_map(channel, gamma, sigma), atol=1e-10
        )

    def test_pure_prior_never_updates(self):
        rng = np.random.default_rng(5)
        channel = ChannelRep(tuple(sampling.random_kraus_channel(2, 2, 3, rng)))
        gamma = sampling.random_density(2, rng)
        psi = np.zeros(4, dtype=complex)
        # purification of gamma by hand
        w, v = np.linalg.eigh(gamma)
        for k in range(2):
            psi += np.sqrt(max(w[k], 0)) * np.kron(v[:, k], np.eye(2)[:, k])
        prior = build_custom(np.outer(psi, psi.conj()), (2, 2))
        for _ in range(5):
            sigma = sampling.random_density(2, rng)
            basis = support_basis(hermitian_part(channel.apply(gamma)))
            proj = basis @ basis.conj().T
            sigma = proj @ sigma @ proj
            sigma = hermitian_part(sigma / sigma.trace().real)
            np.testing.assert_allclose(extended_petz(channel, prior, sigma), gamma, atol=1e-9)

    def test_block_mixture_matches_dense_formula(self):
        # classical mixture prior: blockwise update must equal the dense evaluation
        rng = np.random.default_rng(6)
        channel = ChannelRep(tuple(sampling.random_kraus_channel(2, 2, 2, rng)))
        g1 = sampling.random_density(2, rng)
        g2 = sampling.random_density(2, rng)
        p1 = 0.3
        prior = FilteredGlobalState(
            blocks=(p1 * g1, (1 - p1) * g2),
            dim_q=2,
            dim_a1=1,
            block_labels=(("a",), ("b",)),
            kind="gw-variant",
        )
        gamma = prior.marginal()
        sigma = hermitian_part(channel.apply(gamma))
        got = extended_petz(channel, prior, sigma)

        dense = prior.to_dense()
        winv = support_inv_sqrt(hermitian_part(channel.apply(gamma)))
        pulled = channel.adjoint_apply(winv @ sigma @ winv)
        root = psd_sqrt(dense)
        expected = partial_trace(
            root @ tensor(pulled, np.eye(prior.dim_a)) @ root, (2, prior.dim_a), "Q"
        )
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        channel = identity_channel(3)
        with pytest.raises(InvalidFactorization):
            extended_petz(channel, build_pf(np.eye(2) / 2), np.eye(3) / 3)


class TestFilteredGlobalState:
    """The stacked blocks are validated in one pass at the old tolerances."""

    @staticmethod
    def make(blocks, dim_a1=1):
        labels = tuple((str(i),) for i in range(len(blocks)))
        return FilteredGlobalState(
            blocks=blocks, dim_q=2, dim_a1=dim_a1, block_labels=labels, kind="gw-variant"
        )

    def test_blocks_become_read_only_stack(self):
        prior = self.make((0.25 * np.eye(2), 0.5 * G))
        assert prior.blocks.shape == (2, 2, 2) and len(prior.blocks) == 2
        with pytest.raises(ValueError):
            prior.blocks[0, 0, 0] = 1.0

    def test_rejects_non_hermitian_block(self):
        with pytest.raises(InvalidMatrix, match="Hermitian"):
            self.make((0.25 * np.eye(2), np.array([[0.25, 1e-6], [0.0, 0.25]])))
        # within 1e-9 of the block's own scale is tolerated and symmetrized
        prior = self.make((0.25 * np.eye(2), np.array([[0.25, 1e-10], [0.0, 0.25]])))
        assert prior.blocks[1, 0, 1] == prior.blocks[1, 1, 0] == 5e-11

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidFactorization):
            self.make((np.eye(3) / 3,))
        with pytest.raises(InvalidFactorization):
            self.make((0.5 * np.eye(2), np.eye(4) / 8))
        with pytest.raises(InvalidFactorization):
            self.make((0.5 * np.eye(2),), dim_a1=2)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrix, match="non-finite"):
            self.make((0.5 * np.eye(2), np.array([[np.nan, 0.0], [0.0, 0.5]])))

    def test_rejects_traces_not_summing_to_one(self):
        with pytest.raises(InvalidMatrix, match=r"sum to 1\.1"):
            self.make((0.25 * np.eye(2), 0.6 * G))

    def test_marginal_taken_once_and_read_only(self):
        prior = self.make((0.25 * np.eye(2), 0.5 * G))
        assert prior.marginal() is prior.marginal()
        assert not prior.marginal().flags.writeable
        np.testing.assert_allclose(prior.marginal(), 0.25 * np.eye(2) + 0.5 * G, atol=1e-15)

    def test_roots_align_with_blocks(self):
        rng = np.random.default_rng(9)
        blocks = [0.3 * sampling.random_density(2, rng), np.zeros((2, 2)), 0.7 * G]
        prior = self.make(tuple(blocks))
        assert prior.roots is prior.roots
        for block, root in zip(prior.blocks, prior.roots):
            np.testing.assert_array_equal(root, psd_sqrt(block))
        np.testing.assert_array_equal(prior.roots[1], 0.0)


def demo_pieces():
    spec = LindbladSpec(0.5 * SX, (JumpChannel(SM, 0.5),), 0.02)
    inst = discretize(spec)
    rho0 = np.eye(2, dtype=complex) / 2
    return inst, rho0


class TestGeneralizedSmooth:
    def test_identity_effect_returns_filtered(self):
        inst, rho0 = demo_pieces()
        past = ("0", "1")
        rho_f, _ = filter_state(inst, rho0, past)
        registers = [build_prior(kind, rho0=rho0, alice_past=past, instrument=inst) for kind in ("gw", "pf-variant")]
        for prior in (build_pf(rho_f), *registers):
            np.testing.assert_allclose(
                generalized_smooth(prior, np.eye(2)), rho_f, atol=1e-10
            )

    def test_pf_closed_form(self):
        inst, rho0 = demo_pieces()
        past, fut = ("0", "0"), ("1", "0")
        rho_f, _ = filter_state(inst, rho0, past)
        effect = retrofilter(inst, fut)
        root = psd_sqrt(rho_f)
        expected = root @ effect @ root / float((rho_f @ effect).trace().real)
        np.testing.assert_allclose(
            generalized_smooth(build_pf(rho_f), effect), expected, atol=1e-11
        )

    def test_blockwise_matches_dense_formula(self):
        inst, rho0 = demo_pieces()
        past, fut = ("0", "1"), ("0", "0")
        effect = retrofilter(inst, fut)
        prior = build_prior("gw", rho0=rho0, alice_past=past, instrument=inst)
        dense = prior.to_dense()
        root = psd_sqrt(dense)
        lifted = tensor(effect, np.eye(prior.dim_a))
        norm = float((prior.marginal() @ effect).trace().real)
        expected = partial_trace(root @ lifted @ root, (2, prior.dim_a), "Q") / norm
        np.testing.assert_allclose(generalized_smooth(prior, effect), expected, atol=1e-10)

    def test_zero_probability(self):
        with pytest.raises(ZeroProbabilityRecord):
            generalized_smooth(build_pf(G), E)

    def test_matches_extended_petz_on_record_channel(self):
        # the closed form is the extended recovery map of the record channel
        inst, rho0 = demo_pieces()
        past = ("0",)
        steps = 2
        prior = build_prior("gw", rho0=rho0, alice_past=past, instrument=inst)
        channel, records = record_channel(inst, steps)
        channel.require_trace_preserving()
        fut = ("1", "0")
        j = records.index(fut)
        evidence = np.zeros((len(records), len(records)), dtype=complex)
        evidence[j, j] = 1.0
        effect = retrofilter(inst, fut)
        np.testing.assert_allclose(
            extended_petz(channel, prior, evidence),
            generalized_smooth(prior, effect),
            atol=1e-9,
        )


def record_channel(instrument, steps: int) -> tuple[ChannelRep, list[tuple]]:
    """The quantum-classical channel ``X -> sum_r Tr[Phi_r(X)] |r><r|`` over all records.

    Returns the channel and the record ordering that indexes its output
    basis.  Built by its own recursive descent, independent of
    :func:`retrosmooth.trajectory.walk`; only practical for very short records.
    """
    labels = instrument.outcome_labels
    dim = instrument.dim
    records: list[tuple] = []
    kraus: list[np.ndarray] = []

    def descend(prefix: tuple, mats: list[np.ndarray], remaining: int) -> None:
        if remaining == 0:
            j = len(records)
            records.append(prefix)
            ket = np.zeros((len(labels) ** steps, 1), dtype=complex)
            ket[j, 0] = 1.0
            for m in mats:
                for i in range(dim):
                    bra = np.zeros((1, dim), dtype=complex)
                    bra[0, i] = 1.0
                    kraus.append(ket @ bra @ m)
            return
        for y in labels:
            next_mats = [k @ m for m in mats for k in instrument.op(y).kraus]
            descend(prefix + (y,), next_mats, remaining - 1)

    descend((), [np.eye(dim, dtype=complex)], steps)
    return ChannelRep(tuple(kraus)), records


def per_effect_smooth(prior, effect):
    """One effect at a time, by the formula's own operations: ``None`` if impossible."""
    e = hermitian_part(np.asarray(effect, dtype=complex))
    norm = float((prior.marginal() @ e).trace().real)
    if norm <= WEIGHT_FLOOR:
        return None
    lifted = tensor(e, np.eye(prior.dim_a1))
    stack = prior.roots @ lifted @ prior.roots
    return hermitian_part(partial_trace(stack, (prior.dim_q, prior.dim_a1), "Q").sum(axis=0)) / norm


class TestStackedSmooth:
    """A stack of effects is smoothed bit for bit as one effect at a time."""

    @staticmethod
    def futures_effects(inst, steps):
        futures = [tuple(f"{i:0{steps}b}") for i in range(2**steps)]
        return np.stack([retrofilter(inst, fut) for fut in futures])

    def assert_matches_loop(self, prior, effects):
        states, possible = generalized_smooth(prior, effects)
        assert states.shape == effects.shape and possible.shape == (len(effects),)
        for state, ok, effect in zip(states, possible, effects):
            expected = per_effect_smooth(prior, effect)
            if expected is None:
                assert not ok
                assert np.isnan(state).all()
                with pytest.raises(ZeroProbabilityRecord):
                    generalized_smooth(prior, effect)
                continue
            assert ok
            np.testing.assert_array_equal(state, expected)
            np.testing.assert_array_equal(state, generalized_smooth(prior, effect))
        return possible

    def test_pf(self):
        inst, rho0 = demo_pieces()
        rho_f, _ = filter_state(inst, rho0, ("0", "0"))
        self.assert_matches_loop(build_pf(rho_f), self.futures_effects(inst, 4))

    def test_pf_variant_with_ancilla(self):
        inst, rho0 = demo_pieces()
        prior = build_prior("pf-variant", rho0=rho0, alice_past=("0", "1", "0"), instrument=inst)
        assert prior.dim_a1 > 1
        self.assert_matches_loop(prior, self.futures_effects(inst, 4))

    def test_multi_block_gw(self):
        inst, rho0 = demo_pieces()
        # a past that ends in a detected jump merges every bob record into one block
        ends_in_jump = build_prior("gw", rho0=rho0, alice_past=("0", "0", "1"), instrument=inst)
        assert len(ends_in_jump.blocks) == 1
        prior = build_prior("gw", rho0=rho0, alice_past=("0", "0", "0"), instrument=inst)
        assert len(prior.blocks) == 4 and prior.dim_a1 > 1
        self.assert_matches_loop(prior, self.futures_effects(inst, 3))

    def test_zero_probability_entries(self):
        # after a jump the qubit sits in the ground state: a second jump is impossible
        inst, rho0 = demo_pieces()
        rho_f, _ = filter_state(inst, rho0, ("0", "1"))
        effects = np.concatenate([self.futures_effects(inst, 2), [E, G, np.zeros((2, 2))]])
        gw = build_prior("gw", rho0=rho0, alice_past=("0", "1"), instrument=inst)
        for prior in (build_pf(G), build_pf(rho_f), gw):
            possible = self.assert_matches_loop(prior, effects)
            assert possible.any() and not possible.all()

    def test_wrong_dimension(self):
        with pytest.raises(InvalidFactorization):
            generalized_smooth(build_pf(G), np.eye(3))
        with pytest.raises(InvalidFactorization):
            generalized_smooth(build_pf(G), np.stack([np.eye(3), np.eye(3)]))

    def test_stack_with_non_psd_effect(self):
        effects = np.stack([np.eye(2), G, np.diag([1.0, -1e-3])]).astype(complex)
        with pytest.raises(NotPSD):
            generalized_smooth(build_pf(np.eye(2) / 2), effects)

    def test_stack_with_non_hermitian_effect(self):
        effects = np.stack([np.eye(2), SM + G]).astype(complex)
        with pytest.raises(InvalidMatrix):
            generalized_smooth(build_pf(np.eye(2) / 2), effects)


class TestSmoothedGlobal:
    def test_identity_effect_is_prior(self):
        inst, rho0 = demo_pieces()
        prior = build_prior("gw", rho0=rho0, alice_past=("0", "1"), instrument=inst)
        out = smoothed_global(prior, np.eye(2))
        for a, b in zip(out.blocks, prior.blocks):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_partial_trace_is_smoothed_state(self):
        inst, rho0 = demo_pieces()
        past, fut = ("0", "0"), ("0", "1")
        prior = build_prior("gw", rho0=rho0, alice_past=past, instrument=inst)
        effect = retrofilter(inst, fut)
        np.testing.assert_allclose(
            smoothed_global(prior, effect).marginal(),
            generalized_smooth(prior, effect),
            atol=1e-11,
        )

    def test_register_blocks_stay_diagonal(self):
        # dense evaluation has no support between different register values
        inst, rho0 = demo_pieces()
        past, fut = ("0", "0"), ("1", "0")
        prior = build_prior("gw", rho0=rho0, alice_past=past, instrument=inst)
        effect = retrofilter(inst, fut)
        out = smoothed_global(prior, effect)
        dense_prior = prior.to_dense()
        root = psd_sqrt(dense_prior)
        lifted = tensor(effect, np.eye(prior.dim_a))
        norm = float((prior.marginal() @ effect).trace().real)
        dense_expected = root @ lifted @ root / norm
        np.testing.assert_allclose(out.to_dense(), dense_expected, atol=1e-10)


class TestBobPosterior:
    def test_trivial_register(self):
        inst, rho0 = demo_pieces()
        prior = build_prior("gw", rho0=rho0, alice_past=(), instrument=inst)
        np.testing.assert_allclose(bob_posterior(prior, np.eye(2)), [1.0])

    def test_full_efficiency_delta(self):
        spec = LindbladSpec(0.5 * SX, (JumpChannel(SM, 1.0),), 0.02)
        inst = discretize(spec)
        rho0 = np.eye(2, dtype=complex) / 2
        prior = build_prior("gw", rho0=rho0, alice_past=("0", "1"), instrument=inst)
        probs = bob_posterior(prior, retrofilter(inst, ("0",)))
        assert prior.block_labels == (("0", "0"),)
        np.testing.assert_allclose(probs, [1.0])

    def test_requires_register(self):
        with pytest.raises(MissingClassicalRegister):
            bob_posterior(build_pf(np.eye(2) / 2), np.eye(2))

    def test_a_merged_register_has_no_posterior(self):
        # every bob record of a past that ends in a detected jump is one merged block
        inst, rho0 = demo_pieces()
        for kind in ("gw", "gw-variant"):
            prior = build_prior(kind, rho0=rho0, alice_past=("0", "0", "1"), instrument=inst)
            assert len(prior.block_labels) == 1 and isinstance(prior.block_labels[0][0], Merged)
            with pytest.raises(MissingClassicalRegister, match="merges bob records"):
                bob_posterior(prior, retrofilter(inst, ("0",)))
            # unmerged, the register holds one block per bob record and has a posterior
            unmerged = build_prior(kind, rho0=rho0, alice_past=("0", "0", "1"), instrument=inst, merge=False)
            assert unmerged.block_labels == (("0", "0", "0"), ("1", "0", "0"))
            np.testing.assert_allclose(bob_posterior(unmerged, retrofilter(inst, ("0",))).sum(), 1.0)

    def test_effect_dimension_mismatch(self):
        inst, rho0 = demo_pieces()
        prior = build_prior("gw", rho0=rho0, alice_past=("0",), instrument=inst)
        with pytest.raises(InvalidFactorization):
            bob_posterior(prior, np.eye(3))

    def test_matches_joint_enumeration(self):
        from collections import defaultdict

        from retrosmooth.trajectory import enumerate_records

        inst, rho0 = demo_pieces()
        t, steps = 2, 4
        past, fut = ("0", "1"), ("0", "0")
        prior = build_prior("gw", rho0=rho0, alice_past=past, instrument=inst)
        probs = bob_posterior(prior, retrofilter(inst, fut))
        num = defaultdict(float)
        den = 0.0
        for rec, p in enumerate_records(inst.joint, rho0, steps):
            alice = tuple(a for a, _ in rec)
            if alice != past + fut:
                continue
            den += p
            num[tuple(u for _, u in rec)[:t]] += p
        expected = np.array([num[lbl] / den for lbl in prior.block_labels])
        np.testing.assert_allclose(probs, expected, atol=1e-9)


class TestCounterfactual:
    def test_trivial_povm(self):
        np.testing.assert_allclose(counterfactual_prob(np.eye(2) / 2, [np.eye(2)]), [1.0])

    def test_z_on_mixed(self):
        np.testing.assert_allclose(counterfactual_prob(np.eye(2) / 2, [G, E]), [0.5, 0.5])

    def test_x_on_pf_smoothed(self):
        inst, rho0 = demo_pieces()
        past, fut = ("0", "0"), ("1", "0")
        rho_f, _ = filter_state(inst, rho0, past)
        rho_s = generalized_smooth(build_pf(rho_f), retrofilter(inst, fut))
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        probs = counterfactual_prob(rho_s, [plus, minus])
        expected = np.array([(rho_s @ plus).trace().real, (rho_s @ minus).trace().real])
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_incomplete_povm(self):
        with pytest.raises(InvalidPOVM):
            counterfactual_prob(np.eye(2) / 2, [G])

    @pytest.mark.parametrize("povm", [[], [np.eye(3)], [G, np.zeros((3, 3))]], ids=["empty", "3x3", "mixed"])
    def test_empty_or_wrong_shape_povm(self, povm):
        with pytest.raises(InvalidPOVM, match="one or more 2 x 2 effects"):
            counterfactual_prob(np.eye(2) / 2, povm)


class TestTracePreservation:
    """The channel check uses the spectral completeness defect: never looser than the max entry."""

    def near_identity(self, delta):
        # K†K = I + delta * ones: max entry delta, spectral defect 2 delta
        return ChannelRep((psd_sqrt(np.eye(2) + delta * np.ones((2, 2))),))

    def test_spectral_defect_beyond_tolerance_rejected(self):
        channel = self.near_identity(0.75 * IDENTITY_TOL)
        assert completeness_defect(channel.kraus, 2) > IDENTITY_TOL
        with pytest.raises(InvalidMatrix, match="channel completeness defect"):
            channel.require_trace_preserving()

    def test_defect_within_tolerance_accepted(self):
        self.near_identity(0.25 * IDENTITY_TOL).require_trace_preserving()


class TestPurificationInvariance:
    def test_gw_and_pf_variant_invariant_under_ancilla_isometry(self):
        inst, rho0 = demo_pieces()
        past, fut = ("0", "1"), ("0", "1")
        effect = retrofilter(inst, fut)
        rng = np.random.default_rng(8)
        for builder in (
            lambda: build_prior("gw", rho0=rho0, alice_past=past, instrument=inst),
            lambda: build_prior("pf-variant", rho0=rho0, alice_past=past, instrument=inst),
        ):
            prior = builder()
            base = generalized_smooth(prior, effect)
            iso = sampling.random_isometry(prior.dim_a1, prior.dim_a1 + 2, rng)
            moved = extend_ancilla(prior, iso)
            assert trace_norm(generalized_smooth(moved, effect) - base) <= 1e-9
