import numpy as np
import pytest

from retrosmooth import cli, sampling, sweeps
from retrosmooth.entropy import (
    ExtensionScenario,
    Theorem1Report,
    avg_entropy,
    lambda_apply,
    lambda_choi,
    lambda_map,
    no_universal_quantifier_demo,
    sandwich_bound,
    smoothed_outcome_states,
    support_basis,
    theorem1_batch,
    theorem1_check,
)
from retrosmooth.errors import InvalidExtension, InvalidPOVM
from retrosmooth.linalg import (
    BOUND_SLACK,
    RANK_TOL,
    WEIGHT_FLOOR,
    entropy_vn,
    hermitian_part,
    partial_trace,
    tensor,
    trace_norm,
)
from retrosmooth.retrodiction import FilteredGlobalState
from retrosmooth.scenario import Scenario, demo_scenario
from retrosmooth.smoothers import build_custom

LN2 = float(np.log(2.0))
K0 = np.array([1.0, 0.0])
K1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def proj(v):
    return np.outer(v, np.conj(v))


Z_POVM = (proj(K0), proj(K1))
X_POVM = (proj(PLUS), proj(MINUS))
GAMMA1 = 0.5 * (tensor(proj(K0), proj(K0)) + tensor(proj(K1), proj(K1)))
GAMMA2 = 0.5 * (tensor(proj(PLUS), proj(K0)) + tensor(proj(MINUS), proj(K1)))
MIXED = np.eye(2) / 2


def scenario(gamma, ext, dims, povm):
    return ExtensionScenario(gamma, build_custom(ext, dims), tuple(povm))


def random_scenario(rng, d_q=None, d_a=None, n_eff=None):
    d_q = d_q or int(rng.integers(2, 4))
    d_a = d_a or int(rng.integers(2, 5))
    n_eff = n_eff or int(rng.integers(2, 5))
    gamma = sampling.random_density(d_q, rng)
    ext = sampling.random_extension(gamma, d_a, rng)
    povm = sampling.random_povm(d_q, n_eff, rng)
    return ExtensionScenario(gamma, build_custom(ext, (d_q, d_a)), tuple(povm))


class TestScenarioValidation:
    def test_marginal_mismatch(self):
        with pytest.raises(InvalidExtension):
            scenario(np.diag([0.7, 0.3]), GAMMA1, (2, 2), Z_POVM)

    def test_povm_completeness(self):
        with pytest.raises(InvalidPOVM):
            scenario(MIXED, GAMMA1, (2, 2), (proj(K0),))


def born_probs(s: ExtensionScenario) -> np.ndarray:
    """The outcome probabilities ``Tr[E_i gamma]`` of measuring the marginal, clipped at zero."""
    return np.clip(np.trace(np.stack(s.effects) @ s.gamma, axis1=1, axis2=2).real, 0.0, None)


class TestOutcomeProbs:
    def test_trivial_povm(self):
        s = scenario(MIXED, GAMMA1, (2, 2), (np.eye(2),))
        np.testing.assert_allclose(born_probs(s), [1.0])

    def test_mixed_z(self):
        s = scenario(MIXED, GAMMA1, (2, 2), Z_POVM)
        np.testing.assert_allclose(born_probs(s), [0.5, 0.5])

    def test_diagonal(self):
        gamma = np.diag([0.75, 0.25])
        s = scenario(gamma, tensor(gamma, proj(K0)), (2, 2), Z_POVM)
        np.testing.assert_allclose(born_probs(s), [0.75, 0.25])


class TestSmoothedOutcomeStates:
    def test_trivial_extension_projects(self):
        s = ExtensionScenario(MIXED, build_custom(MIXED, (2, 1)), Z_POVM)
        states = smoothed_outcome_states(s)
        np.testing.assert_allclose(states[0], proj(K0), atol=1e-12)
        np.testing.assert_allclose(states[1], proj(K1), atol=1e-12)

    def test_pure_extension_returns_marginal(self):
        rng = np.random.default_rng(10)
        gamma = sampling.random_density(2, rng)
        w, v = np.linalg.eigh(gamma)
        psi = sum(np.sqrt(max(w[k], 0)) * np.kron(v[:, k], np.eye(2)[:, k]) for k in range(2))
        s = scenario(gamma, np.outer(psi, psi.conj()), (2, 2), Z_POVM)
        for st in smoothed_outcome_states(s):
            np.testing.assert_allclose(st, gamma, atol=1e-10)

    def test_x_correlated_extension_under_z(self):
        s = scenario(MIXED, GAMMA2, (2, 2), Z_POVM)
        for st in smoothed_outcome_states(s):
            np.testing.assert_allclose(st, MIXED, atol=1e-12)

    def test_mixture_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_scenario(rng)
            probs = born_probs(s)
            total = sum(
                p * st for p, st in zip(probs, smoothed_outcome_states(s)) if st is not None
            )
            assert np.abs(total - s.gamma).max() <= 1e-9

    def test_stacked_update_matches_per_effect_loop(self):
        # one sandwich over every outcome gives each outcome's own bits
        rng = np.random.default_rng(19)
        for _ in range(20):
            s = random_scenario(rng)
            probs = born_probs(s)
            for e, p, st in zip(s.effects, probs, smoothed_outcome_states(s)):
                lifted = tensor(e, np.eye(s.extension.dim_a1))
                sandwich = s.extension.roots @ lifted @ s.extension.roots
                dims = (s.extension.dim_q, s.extension.dim_a1)
                expected = hermitian_part(partial_trace(sandwich, dims, "Q").sum(axis=0)) / p
                np.testing.assert_array_equal(st, expected)

    def test_negligible_outcome_gives_none(self):
        s = scenario(np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2), Z_POVM)
        first, second = smoothed_outcome_states(s)
        np.testing.assert_allclose(first, np.diag([1.0, 0.0]), atol=1e-15)
        assert second is None
        assert avg_entropy(s) == 0.0


class TestAvgEntropy:
    def test_qubit_demo_values(self):
        s = scenario(MIXED, GAMMA1, (2, 2), Z_POVM)
        assert abs(avg_entropy(s)) <= 1e-12
        s = scenario(MIXED, GAMMA1, (2, 2), X_POVM)
        assert abs(avg_entropy(s) - LN2) <= 1e-12
        s = scenario(MIXED, GAMMA2, (2, 2), Z_POVM)
        assert abs(avg_entropy(s) - LN2) <= 1e-12
        s = scenario(MIXED, GAMMA2, (2, 2), X_POVM)
        assert abs(avg_entropy(s)) <= 1e-12

    def test_demo_report(self):
        demo = no_universal_quantifier_demo()
        assert demo.max_error <= 1e-10
        assert demo.reversal_holds

    def test_equals_conditional_entropy_of_cq_state(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            s = random_scenario(rng)
            probs = born_probs(s)
            states = smoothed_outcome_states(s)
            n, d = len(probs), s.gamma.shape[0]
            cq = np.zeros((n * d, n * d), dtype=complex)
            for i, (p, st) in enumerate(zip(probs, states)):
                if st is None:
                    continue
                unit = np.zeros((n, n))
                unit[i, i] = 1.0
                cq += p * tensor(unit, st)
            cond = entropy_vn(cq) - entropy_vn(partial_trace(cq, (n, d), "Q"))
            assert abs(avg_entropy(s) - cond) <= 1e-9


class TestSandwich:
    def test_pure_filtered_state(self):
        probs = [0.25, 0.75]
        bound = sandwich_bound(proj(K0), probs, 0.0)
        assert bound.upper == 0.0
        assert abs(bound.lower + float(-(0.25 * np.log(0.25) + 0.75 * np.log(0.75)))) <= 1e-12
        assert bound.holds

    def test_violation_detected(self):
        bound = sandwich_bound(MIXED, [0.5, 0.5], LN2 + 0.1)
        assert not bound.holds


class TestLambdaMap:
    def test_product_extension_is_identity_on_support(self):
        rng = np.random.default_rng(13)
        gamma = sampling.random_density(2, rng)
        tau = sampling.random_density(3, rng)
        prior = build_custom(tensor(gamma, tau), (2, 3))
        for _ in range(5):
            y = sampling.random_density(2, rng)
            np.testing.assert_allclose(lambda_apply(prior, gamma, y), y, atol=1e-9)

    def test_z_correlated_extension_dephases(self):
        prior = build_custom(GAMMA1, (2, 2))
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        for op, expected in ((proj(K0), proj(K0)), (x, np.zeros((2, 2))), (MIXED, MIXED)):
            np.testing.assert_allclose(lambda_apply(prior, MIXED, op), expected, atol=1e-10)

    def test_kraus_and_formula_agree(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            s = random_scenario(rng)
            chan = lambda_map(s.extension, s.gamma)
            y = sampling.random_density(s.gamma.shape[0], rng)
            proj_supp = support_basis(s.gamma)
            y = proj_supp @ proj_supp.conj().T @ y @ proj_supp @ proj_supp.conj().T
            y = y / y.trace().real
            np.testing.assert_allclose(
                chan.apply(y), lambda_apply(s.extension, s.gamma, y), atol=1e-9
            )

    def test_cp_tp_intertwining_random(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            s = random_scenario(rng)
            # completely positive: Choi built from the defining formula is PSD
            choi = lambda_choi(s.extension, s.gamma)
            assert np.linalg.eigvalsh(choi)[0] >= -1e-9
            # trace preserving on the support
            basis = support_basis(s.gamma)
            for k in range(basis.shape[1]):
                unit = np.outer(basis[:, k], basis[:, k].conj())
                assert abs(lambda_apply(s.extension, s.gamma, unit).trace().real - 1.0) <= 1e-9
            # carries trivial updates onto extended updates
            chan = lambda_map(s.extension, s.gamma)
            trivial = ExtensionScenario(s.gamma, build_custom(s.gamma, (s.gamma.shape[0], 1)), s.effects)
            for base, target in zip(smoothed_outcome_states(trivial), smoothed_outcome_states(s)):
                if base is None or target is None:
                    continue
                assert trace_norm(chan.apply(base) - target) <= 1e-9

    def test_marginal_mismatch_rejected(self):
        with pytest.raises(InvalidExtension):
            lambda_map(build_custom(GAMMA1, (2, 2)), np.diag([0.9, 0.1]))

    def test_block_structured_extension(self):
        # extension carrying a record register: Kraus (blockwise) and formula
        # (dense-equivalent) paths must agree on Hermitian inputs
        from retrosmooth.retrodiction import FilteredGlobalState

        rng = np.random.default_rng(21)
        blocks = [0.4 * sampling.random_density(4, rng), 0.6 * sampling.random_density(4, rng)]
        ext = FilteredGlobalState(
            blocks=tuple(blocks),
            dim_q=2,
            dim_a1=2,
            block_labels=(("a",), ("b",)),
            kind="gw",
        )
        gamma = ext.marginal()
        chan = lambda_map(ext, gamma)
        for _ in range(5):
            y = sampling.random_density(2, rng)
            np.testing.assert_allclose(chan.apply(y), lambda_apply(ext, gamma, y), atol=1e-10)
        basis = support_basis(gamma)
        for k in range(basis.shape[1]):
            unit = np.outer(basis[:, k], basis[:, k].conj())
            assert abs(lambda_apply(ext, gamma, unit).trace().real - 1.0) <= 1e-9


class TestTheorem1:
    def test_trivial_extension_sits_at_lower_bound(self):
        rng = np.random.default_rng(16)
        gamma = sampling.random_density(3, rng)
        report = theorem1_check(gamma, build_custom(gamma, (3, 1)), sampling.random_povm(3, 3, rng))
        assert abs(report.lower_margin) <= 1e-10
        assert report.ordering_holds

    def test_purification_sits_at_upper_bound(self):
        rng = np.random.default_rng(17)
        gamma = sampling.random_density(2, rng)
        w, v = np.linalg.eigh(gamma)
        psi = sum(np.sqrt(max(w[k], 0)) * np.kron(v[:, k], np.eye(2)[:, k]) for k in range(2))
        ext = build_custom(np.outer(psi, psi.conj()), (2, 2))
        report = theorem1_check(gamma, ext, sampling.random_povm(2, 3, rng))
        assert abs(report.upper_margin) <= 1e-10
        assert abs(report.avg_entropy_extension - entropy_vn(gamma)) <= 1e-10

    def test_chain_on_random_extensions(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            d_q = int(rng.integers(2, 4))
            d_a = int(rng.integers(2, 5))
            gamma = sampling.random_density(d_q, rng)
            ext = build_custom(sampling.random_extension(gamma, d_a, rng), (d_q, d_a))
            povm = sampling.random_povm(d_q, int(rng.integers(2, 5)), rng)
            report = theorem1_check(gamma, ext, povm)
            assert report.ordering_holds
            assert report.lower_margin >= -1e-9
            assert report.upper_margin >= -1e-9

    def test_trivial_minimal_among_shared_marginal(self):
        rng = np.random.default_rng(19)
        gamma = sampling.random_density(2, rng)
        povm = sampling.random_povm(2, 2, rng)
        trivial = theorem1_check(gamma, build_custom(gamma, (2, 1)), povm).avg_entropy_trivial
        for _ in range(50):
            ext = build_custom(sampling.random_extension(gamma, 3, rng), (2, 3))
            s = ExtensionScenario(gamma, ext, tuple(povm))
            assert avg_entropy(s) >= trivial - 1e-9


def reference_report(gamma, ext, povm):
    """The one-row theorem-1 loop: probabilities effect by effect, entropies added outcome by outcome."""

    def avg(prior):
        probs = np.clip(np.array([(e @ gamma).trace().real for e in povm]), 0.0, None)
        live = probs > WEIGHT_FLOOR
        lifted = tensor(np.stack(povm)[live], np.eye(prior.dim_a1))[:, None]
        sandwich = partial_trace(prior.roots @ lifted @ prior.roots, (prior.dim_q, prior.dim_a1), "Q")
        states = hermitian_part(sandwich.sum(axis=1)) / probs[live][:, None, None]
        total = 0.0
        for p, s in zip(probs[live], entropy_vn(states).tolist()):
            total += float(p) * s
        return total

    s_t = avg(FilteredGlobalState(blocks=(gamma,), dim_q=gamma.shape[0]))
    s_e, s_g = avg(ext), entropy_vn(gamma)
    holds = s_t - BOUND_SLACK <= s_e <= s_g + BOUND_SLACK
    return Theorem1Report(s_t, s_e, s_g, s_e - s_t, s_g - s_e, holds)


def bits(report):
    # repr of a float round-trips exactly and tells -0.0 from 0.0
    return repr(report)


def reference_choi(ext, gamma):
    """Choi matrix summed over the support's matrix units, one bridge-map call per unit."""
    basis = support_basis(gamma)
    r = basis.shape[1]
    choi = np.zeros((ext.dim_q * r, ext.dim_q * r), dtype=complex)
    for k in range(r):
        for l in range(r):
            unit = np.outer(basis[:, k], basis[:, l].conj())
            ekl = np.zeros((r, r), dtype=complex)
            ekl[k, l] = 1.0
            choi += tensor(lambda_apply(ext, gamma, unit), ekl)
    return choi


def theorem1_scenario(n):
    doc = dict(demo_scenario().raw)
    doc["theorem1"] = {"n_extensions": n}
    return Scenario.from_dict(doc)


class TestBatchedTheorem1:
    def test_sweep_matches_row_by_row_on_every_default_shape_group(self):
        seed, n = 23, 400
        draws, references, shapes = [], [], set()
        for i in range(n):
            # the draw order of entropy-scan --theorem1: shape choices, then the triple
            rng = np.random.default_rng([seed, i])
            d_q = (2, 3)[rng.integers(0, 2)]
            d_a, n_eff = ((2, 3, 4)[rng.integers(0, 3)] for _ in range(2))
            state = rng.bit_generator.state
            draws.append((*sampling.draw_extension(d_q, d_a, rng), sampling.draw_povm(d_q, n_eff, rng)))
            rng.bit_generator.state = state
            gamma = sampling.random_density(d_q, rng)
            ext = build_custom(sampling.random_extension(gamma, d_a, rng), (d_q, d_a))
            povm = sampling.random_povm(d_q, n_eff, rng)
            references.append((reference_report(gamma, ext, povm), theorem1_check(gamma, ext, povm)))
            shapes.add((d_q, d_a, n_eff))
        assert len(shapes) == 18
        for got, (loop, one_row) in zip(sweeps.theorem1_sweep(draws), references, strict=True):
            assert bits(got) == bits(loop) == bits(one_row)

    def test_bounded_passes_have_the_bits_of_one_pass_per_shape(self, monkeypatch):
        def draws():
            for i in range(60):
                rng = np.random.default_rng([31, i])
                d_q, d_a, n_eff = (2, 3)[rng.integers(0, 2)], (2, 3, 4)[rng.integers(0, 3)], (2, 3, 4)[rng.integers(0, 3)]
                yield (*sampling.draw_extension(d_q, d_a, rng), sampling.draw_povm(d_q, n_eff, rng))

        passes = []
        one_pass = sweeps._theorem1_pass
        monkeypatch.setattr(sweeps, "_theorem1_pass", lambda rows: passes.append(len(rows)) or one_pass(rows))
        whole = sweeps.theorem1_sweep(draws())
        n_shapes = len(passes)
        # a one-entry bound checks every draw in the draw loop, in a pass of its own
        monkeypatch.setattr(sweeps, "THEOREM1_PASS_ENTRIES", 1)
        bounded = sweeps.theorem1_sweep(draws())
        assert n_shapes < 60 and passes[n_shapes:] == [1] * 60
        assert [bits(r) for r in bounded] == [bits(r) for r in whole]

    def test_one_call_draws_have_the_bits_of_per_part_draws(self):
        def per_part_ginibre(shape, rng):
            # real parts, then imaginary parts, in two calls
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for seed in range(8):
            for d_q, d_a, n_eff in [(2, 2, 2), (3, 4, 3), (2, 3, 4)]:
                rng, ref = np.random.default_rng([seed, d_q]), np.random.default_rng([seed, d_q])
                g, psi = sampling.draw_extension(d_q, d_a, rng)
                effects = sampling.draw_povm(d_q, n_eff, rng)
                d = d_q * d_a
                assert g.tobytes() == per_part_ginibre((d_q, d_q), ref).tobytes()
                v = per_part_ginibre(d * d, ref)
                assert psi.tobytes() == (v / np.linalg.norm(v)).reshape(d, d).tobytes()
                want = np.stack([per_part_ginibre((d_q, d_q), ref) for _ in range(n_eff)])
                assert effects.tobytes() == want.tobytes()
                # both streams stand at the same place
                assert rng.random() == ref.random()

    def test_live_outcome_mask_and_support_cut(self):
        rng = np.random.default_rng(31)
        gammas, blocks, povms = [], [], []
        for rank in (2, 3, 2, 3):
            gamma = sampling.random_density(3, rng, rank=rank)
            w, v = np.linalg.eigh(gamma)
            kernel = np.outer(v[:, 0], v[:, 0].conj())
            povm = sampling.random_povm(3, 3, rng)
            if rank == 2:
                # the first effect sees only the kernel of gamma
                povm = np.stack([kernel, 0.4 * (np.eye(3) - kernel), 0.6 * (np.eye(3) - kernel)])
                assert w[0] <= RANK_TOL * w[-1]
                assert (povm[0] @ gamma).trace().real <= WEIGHT_FLOOR
            gammas.append(gamma)
            blocks.append(sampling.random_extension(gamma, 2, rng)[None])
            povms.append(povm)
        reports = theorem1_batch(np.stack(gammas), np.stack(blocks), (3, 2), np.stack(povms))
        for gamma, block, povm, got in zip(gammas, blocks, povms, reports, strict=True):
            ext = build_custom(block[0], (3, 2))
            assert bits(got) == bits(reference_report(gamma, ext, povm))
            assert bits(got) == bits(theorem1_check(gamma, ext, povm))
            assert got.ordering_holds

    def test_rows_depend_only_on_seed_and_index(self):
        short = cli._theorem1_rows(theorem1_scenario(50), 7)
        long = cli._theorem1_rows(theorem1_scenario(300), 7)
        assert repr(short) == repr(long[:50])

    def test_batch_validates_every_row(self):
        gamma = sampling.random_density(2, np.random.default_rng(3))
        ext = np.stack([tensor(gamma, np.diag([1.0, 0.0]))[None]] * 2)
        gammas = np.stack([gamma, np.diag([0.5, 0.5])])
        with pytest.raises(InvalidExtension):
            theorem1_batch(gammas, ext, (2, 2), np.stack([Z_POVM, Z_POVM]))
        with pytest.raises(InvalidPOVM):
            theorem1_batch(np.stack([gamma] * 2), ext, (2, 2), np.stack([Z_POVM, (proj(K0), proj(K0))]))

    def test_stacked_lambda_choi_matches_per_unit_loop(self):
        rng = np.random.default_rng(37)
        cases = []
        for _ in range(20):
            d_q, d_a = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            gamma = sampling.random_density(d_q, rng, rank=int(rng.integers(1, d_q + 1)))
            cases.append((build_custom(sampling.random_extension(gamma, d_a, rng), (d_q, d_a)), gamma))
        cases.append((build_custom(GAMMA1, (2, 2)), MIXED))
        blocks = (0.4 * sampling.random_density(4, rng), 0.6 * sampling.random_density(4, rng))
        labels = (("a",), ("b",))
        ext = FilteredGlobalState(blocks=blocks, dim_q=2, dim_a1=2, block_labels=labels, kind="gw")
        cases.append((ext, ext.marginal()))
        for ext, gamma in cases:
            got, expected = lambda_choi(ext, gamma), reference_choi(ext, gamma)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
