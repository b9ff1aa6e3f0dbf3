import itertools
from pathlib import Path

import numpy as np
import pytest

from retrosmooth import sampling
from retrosmooth.errors import EnumerationTooLarge, InvalidFactorization, ZeroProbabilityRecord
from retrosmooth.linalg import psd_sqrt, purity, trace_norm
from retrosmooth.retrodiction import bob_posterior, generalized_smooth
from retrosmooth.scenario import Scenario
from retrosmooth.smoothers import (
    branch_mixture_smooth,
    build_clhs,
    build_custom,
    build_pf,
    build_prior,
    enumerate_bob_branches,
    register_priors,
)
from retrosmooth.trajectory import (
    ConditionalOp,
    Instrument,
    JumpChannel,
    LindbladSpec,
    discretize,
    filter as filter_state,
    retrofilter,
)

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
ALL_KINDS = ("pf", "gw", "gw-variant", "pf-variant", "clhs")
CLASSICAL = Path(__file__).resolve().parent.parent / "scenarios" / "classical-2state.json"


def demo(eta=0.5, rho0=None):
    inst = discretize(LindbladSpec(0.5 * SX, (JumpChannel(SM, eta),), 0.02))
    if rho0 is None:
        rho0 = np.eye(2, dtype=complex) / 2
    return inst, rho0


class TestBranches:
    def test_zero_steps(self):
        inst, rho0 = demo()
        branches = enumerate_bob_branches(inst, rho0, ())
        assert len(branches) == 1 and branches[0].bob_record == ()
        np.testing.assert_allclose(branches[0].operator, rho0)
        assert abs(branches[0].weight - 1.0) < 1e-12

    def test_full_efficiency_single_branch(self):
        inst, rho0 = demo(eta=1.0)
        branches = enumerate_bob_branches(inst, rho0, ("0", "1"))
        assert len(branches) == 1
        assert branches[0].bob_record == ("0", "0")

    def test_weights_sum_to_record_probability(self):
        inst, rho0 = demo()
        past = ("0", "1", "0")
        _, lp = filter_state(inst, rho0, past)
        branches = enumerate_bob_branches(inst, rho0, past)
        assert abs(sum(b.weight for b in branches) - np.exp(lp)) <= 1e-12

    def test_lexicographic_order(self):
        inst, rho0 = demo()
        branches = enumerate_bob_branches(inst, rho0, ("0", "0"))
        labels = [b.bob_record for b in branches]
        assert labels == sorted(labels)

    def test_cap(self):
        inst, rho0 = demo()
        with pytest.raises(EnumerationTooLarge):
            enumerate_bob_branches(inst, rho0, ("0",) * 10, cap=100)

    def test_cap_counts_zero_branches(self):
        # under sigma-minus most long bob records are impossible, but the cap
        # still counts every record the options allow
        inst, rho0 = demo()
        assert len(enumerate_bob_branches(inst, rho0, ("0",) * 6, cap=64)) < 64
        with pytest.raises(EnumerationTooLarge):
            enumerate_bob_branches(inst, rho0, ("0",) * 6, cap=63)


def loop_branches(inst, rho0, past):
    """Every bob record the options allow, each propagated on its own (the reference)."""
    out = []
    for bob in itertools.product(*(sorted(inst.op(y).names) for y in past)):
        sigma = np.asarray(rho0, dtype=complex)
        for y, u in zip(past, bob):
            k = inst.joint.op((y, u)).kraus[0]
            sigma = k @ sigma @ k.conj().T
        out.append((bob, sigma))
    return out


class TestBranchesClassicalChain:
    """On a classical chain bob's record is the state path, so most records are impossible."""

    @pytest.mark.parametrize(
        "past, n_nonzero",
        [((), 1), (("0", "1", "1"), 16), (("0",) * 5, 64), (("1", "0", "1", "1", "0"), 64)],
    )
    def test_only_nonzero_branches_in_order(self, past, n_nonzero):
        sc = Scenario.from_file(CLASSICAL)
        inst, rho0 = sc.instrument, sc.rho0
        branches = enumerate_bob_branches(inst, rho0, past)
        reference = [(bob, op) for bob, op in loop_branches(inst, rho0, past) if op.any()]
        # counts of nonzero branches before branches were dropped during the descent
        assert len(branches) == len(reference) == n_nonzero
        assert [b.bob_record for b in branches] == [bob for bob, _ in reference]
        for b, (_, op) in zip(branches, reference):
            assert b.operator.any() and b.weight > 0.0
            assert np.abs(b.operator - op).max() <= 1e-15
        _, log_prob = filter_state(inst, rho0, past)
        assert abs(sum(b.weight for b in branches) - np.exp(log_prob)) <= 1e-12

    def test_impossible_past_has_no_branches(self):
        inst, rho0 = demo(eta=1.0, rho0=np.diag([1.0, 0.0]).astype(complex))
        # a detected jump from the ground state with no drive time is impossible
        assert enumerate_bob_branches(inst, rho0, ("1",)) == []
        with pytest.raises(ZeroProbabilityRecord):
            build_prior("gw-variant", rho0=rho0, alice_past=("1",), instrument=inst)


class TestStructure:
    """Shape of each prior kind: auxiliary usage matches its declared scenario."""

    def test_pf_trivial_auxiliary(self):
        prior = build_pf(np.eye(2) / 2)
        assert prior.dim_a1 == 1 and prior.dim_a2 == 1
        np.testing.assert_allclose(prior.blocks[0], np.eye(2) / 2)

    def test_gw_pure_branches_with_register(self):
        inst, rho0 = demo()
        prior = build_prior("gw", rho0=rho0, alice_past=("0", "0"), instrument=inst)
        assert prior.kind == "gw" and prior.dim_a2 > 1 and prior.dim_a1 == 2
        for b in prior.blocks:
            w = np.linalg.eigvalsh(b)
            assert w[-2] <= 1e-12  # every branch is pure given the register value

    def test_gw_variant_register_only(self):
        inst, rho0 = demo()
        prior = build_prior("gw-variant", rho0=rho0, alice_past=("0", "0"), instrument=inst)
        assert prior.dim_a1 == 1 and prior.dim_a2 > 1

    def test_pf_variant_pure_global(self):
        inst, rho0 = demo()
        prior = build_prior("pf-variant", rho0=rho0, alice_past=("0", "1"), instrument=inst)
        assert prior.dim_a2 == 1 and prior.dim_a1 == 2
        w = np.linalg.eigvalsh(prior.blocks[0])
        assert w[-2] <= 1e-12

    def test_clhs_pure_with_filtered_marginal(self):
        inst, rho0 = demo()
        rho_f, _ = filter_state(inst, rho0, ("0", "1"))
        prior = build_clhs(rho_f)
        assert abs(purity(prior.blocks[0]) - 1.0) <= 1e-10
        assert np.abs(prior.marginal() - rho_f).max() <= 1e-9

    def test_pure_rho0_collapses_ancilla(self):
        inst, _ = demo()
        pure = np.diag([1.0, 0.0]).astype(complex)
        prior = build_prior("pf-variant", rho0=pure, alice_past=("0",), instrument=inst)
        assert prior.dim_a1 == 1

    def test_zero_steps_gw_is_purification(self):
        inst, rho0 = demo()
        prior = build_prior("gw", rho0=rho0, alice_past=(), instrument=inst)
        assert prior.dim_a2 == 1
        assert abs(purity(prior.blocks[0]) - 1.0) <= 1e-10

    def test_pf_variant_matches_kron_loop(self):
        from retrosmooth.linalg import dag, hermitian_part, purify, tensor

        inst, rho0 = demo(rho0=np.diag([0.7, 0.3]).astype(complex))
        past = ("0", "1", "0", "0")
        psi = purify(rho0)
        rank = psi.size // 2
        assert rank == 2
        sigma = np.outer(psi, psi.conj())
        for y in past:
            lifted = [tensor(k, np.eye(rank)) for k in inst.op(y).kraus]
            sigma = sum(k @ sigma @ dag(k) for k in lifted)
        prior = build_prior("pf-variant", rho0=rho0, alice_past=past, instrument=inst)
        assert prior.dim_a1 == rank and prior.block_labels == ((),)
        np.testing.assert_array_equal(
            prior.blocks[0], hermitian_part(sigma) / float(sigma.trace().real)
        )

    @pytest.mark.parametrize("system", ["demo", "classical-3state"])
    def test_pf_variant_from_the_propagated_pass_has_the_bits_of_the_walk(self, system):
        if system == "demo":
            inst, rho0 = demo(rho0=np.diag([0.7, 0.3]).astype(complex))
        else:
            sc = Scenario.from_file(CLASSICAL.with_name("classical-3state.json"))
            inst, rho0 = sc.instrument, sc.rho0
        rng = np.random.default_rng(4)
        pasts = [tuple(r) for r in rng.choice(list(inst.outcome_labels), size=(12, 5)).tolist()]
        # the empty past, a repeated one and, on the demo qubit, an impossible one
        pasts += [(), pasts[0], *[("1", "1", "0")] * (system == "demo")]
        outcomes = set()
        for past, got in zip(pasts, register_priors("pf-variant", inst, rho0, pasts)):
            try:
                want = build_prior("pf-variant", rho0=rho0, alice_past=past, instrument=inst)
            except ZeroProbabilityRecord:
                assert isinstance(got, ZeroProbabilityRecord), past
                outcomes.add("impossible")
                continue
            assert (got.dim_q, got.dim_a1, got.block_labels) == (want.dim_q, want.dim_a1, want.block_labels)
            assert got.blocks.tobytes() == want.blocks.tobytes(), past
            outcomes.add("possible")
        assert outcomes == ({"possible", "impossible"} if system == "demo" else {"possible"})

    def test_empty_record_pf_variant_is_purification(self):
        from retrosmooth.linalg import purify

        inst, rho0 = demo()
        prior = build_prior("pf-variant", rho0=rho0, alice_past=(), instrument=inst)
        psi = purify(rho0)
        np.testing.assert_allclose(prior.blocks[0], np.outer(psi, psi.conj()), atol=1e-12)

    def test_full_efficiency_gw_variant_reduces_to_pf(self):
        # degenerate bob alphabet: the single register branch is the filtered state
        inst, rho0 = demo(eta=1.0)
        past = ("0", "1", "0")
        rho_f, _ = filter_state(inst, rho0, past)
        prior = build_prior("gw-variant", rho0=rho0, alice_past=past, instrument=inst)
        assert prior.dim_a2 == 1
        np.testing.assert_allclose(prior.blocks[0], build_pf(rho_f).blocks[0], atol=1e-12)


class TestConsistency:
    def test_marginals_match_filtered_state(self):
        inst, rho0 = demo()
        for past in (("0",), ("0", "1"), ("1", "0", "0")):
            rho_f, _ = filter_state(inst, rho0, past)
            for kind in ALL_KINDS:
                prior = build_prior(kind, rho0=rho0, alice_past=past, instrument=inst)
                assert np.abs(prior.marginal() - rho_f).max() <= 1e-9, kind

    def test_custom_validates_factorization(self):
        with pytest.raises(InvalidFactorization):
            build_custom(np.eye(4) / 4, (3, 2))

    def test_impossible_record(self):
        inst, _ = demo()
        ground = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ZeroProbabilityRecord):
            build_prior("gw-variant", rho0=ground, alice_past=("1",), instrument=inst)


class TestEquivalences:
    def test_pure_rho0_gw_equals_gw_variant(self):
        inst, _ = demo()
        pure = np.diag([1.0, 0.0]).astype(complex)
        past, fut = ("0", "0"), ("0", "1")
        effect = retrofilter(inst, fut)
        a = generalized_smooth(build_prior("gw", rho0=pure, alice_past=past, instrument=inst), effect)
        b = generalized_smooth(build_prior("gw-variant", rho0=pure, alice_past=past, instrument=inst), effect)
        assert trace_norm(a - b) <= 1e-9

    def test_gw_matches_branch_mixture(self):
        inst, rho0 = demo()
        past, fut = ("0", "1"), ("0", "0")
        effect = retrofilter(inst, fut)
        got = generalized_smooth(build_prior("gw", rho0=rho0, alice_past=past, instrument=inst), effect)
        ref = branch_mixture_smooth(inst, rho0, past, effect)
        assert trace_norm(got - ref) <= 1e-8

    def test_gw_variant_closed_form(self):
        # register-only prior: sum_u sqrt(B_u) E sqrt(B_u) over unnormalized branches
        inst, rho0 = demo()
        past, fut = ("0", "0"), ("1", "0")
        effect = retrofilter(inst, fut)
        got = generalized_smooth(build_prior("gw-variant", rho0=rho0, alice_past=past, instrument=inst), effect)
        branches = enumerate_bob_branches(inst, rho0, past)
        rho_f_unnorm = sum(b.operator for b in branches)
        norm = float((rho_f_unnorm @ effect).trace().real)
        expected = sum(
            psd_sqrt(b.operator) @ effect @ psd_sqrt(b.operator) for b in branches
        ) / norm
        assert trace_norm(got - expected) <= 1e-10

    def test_bob_weights_match_posterior(self):
        from retrosmooth.retrodiction import bob_posterior

        inst, rho0 = demo()
        past, fut = ("0", "1"), ("0", "0")
        effect = retrofilter(inst, fut)
        prior = build_prior("gw-variant", rho0=rho0, alice_past=past, instrument=inst)
        probs = bob_posterior(prior, effect)
        branches = enumerate_bob_branches(inst, rho0, past)
        weights = np.array([max(float((b.operator @ effect).trace().real), 0.0) for b in branches])
        np.testing.assert_allclose(probs, weights / weights.sum(), atol=1e-10)


class TestAveraging:
    def test_all_kinds_average_back_to_filtered(self):
        from collections import defaultdict

        from retrosmooth.trajectory import enumerate_records

        inst, rho0 = demo()
        steps, t = 3, 1
        futures = defaultdict(list)
        for rec, p in enumerate_records(inst, rho0, steps):
            futures[rec[:t]].append((rec[t:], p))
        for kind in ALL_KINDS:
            for past, futs in futures.items():
                p_past = sum(p for _, p in futs)
                if p_past <= 1e-12:
                    continue
                rho_f, _ = filter_state(inst, rho0, past)
                prior = build_prior(kind, rho0=rho0, alice_past=past, instrument=inst)
                avg = np.zeros((2, 2), dtype=complex)
                for fut, p in futs:
                    if p <= 1e-14:
                        continue
                    avg += (p / p_past) * generalized_smooth(prior, retrofilter(inst, fut))
                assert trace_norm(avg - rho_f) <= 1e-8, kind



class TestKrausUnravelling:
    """``gw`` branches over the names of the observer's own Kraus operators.

    Any Kraus decomposition of an instrument is an unravelling of what the
    observer does not see: a different one changes the record-register prior
    but not the data, so it moves ``gw`` and leaves ``pf`` alone.
    """

    RECORDS = ((("0", "1"), ("1", "0")), (("1",), ("0", "0")), (("0", "0", "1"), ("1",)))

    @staticmethod
    def pieces():
        rng = np.random.default_rng(41)
        inst = sampling.random_instrument(2, 2, 2, rng)
        return inst, sampling.random_density(2, rng), sampling.random_unitary(2, rng)

    def test_gw_is_the_branch_mixture(self):
        inst, rho0, _ = self.pieces()
        assert all(op.names == ("0", "1") for op in inst.ops.values())
        for past, fut in self.RECORDS:
            effect = retrofilter(inst, fut)
            prior = build_prior("gw", rho0=rho0, alice_past=past, instrument=inst)
            got = generalized_smooth(prior, effect)
            assert trace_norm(got - branch_mixture_smooth(inst, rho0, past, effect)) <= 1e-12
            assert abs(bob_posterior(prior, effect).sum() - 1.0) <= 1e-12

    def test_remixed_kraus_moves_gw_not_pf(self):
        inst, rho0, u = self.pieces()
        # K'_i = sum_j u_ij K_j: the same instrument, another unravelling
        remixed = Instrument(
            {y: ConditionalOp(tuple(np.tensordot(u, op.kraus, 1))) for y, op in inst.ops.items()}
        )
        moved = 0.0
        for past, fut in self.RECORDS:
            smoothed = {}
            for which in (inst, remixed):
                effect = retrofilter(which, fut)
                rho_f, _ = filter_state(which, rho0, past)
                smoothed[which] = [
                    generalized_smooth(build_pf(rho_f), effect),
                    generalized_smooth(
                        build_prior("gw", rho0=rho0, alice_past=past, instrument=which), effect
                    ),
                ]
            (pf_a, gw_a), (pf_b, gw_b) = smoothed[inst], smoothed[remixed]
            assert trace_norm(pf_a - pf_b) <= 1e-12
            moved = max(moved, trace_norm(gw_a - gw_b))
        assert moved > 1e-3
