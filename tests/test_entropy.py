from collections import Counter, defaultdict

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
    theorem1_check,
    theorem1_from_roots,
)
from retrosmooth.errors import InvalidExtension, InvalidPOVM
from retrosmooth.linalg import (
    BOUND_SLACK,
    RANK_TOL,
    WEIGHT_FLOOR,
    as_density,
    dag,
    entropy_vn,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    support_inv_sqrt,
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


def theorem1_scenario(n, **config):
    doc = dict(demo_scenario().raw)
    doc["theorem1"] = {"n_extensions": n, **config}
    return Scenario.from_dict(doc)


def draw_extension(dim_q, dim_a, rng):
    """Per-part draws: a Ginibre matrix, then a unit pure state, each in one call."""
    d = dim_q * dim_a
    return sampling.ginibre((dim_q, dim_q), rng), sampling.random_pure_state(d * d, rng).reshape(d, d)


def draw_povm(dim, n_effects, rng):
    """Per-part draws: one Ginibre matrix per effect, in one call."""
    g = rng.normal(size=(n_effects, 2, dim, dim))
    return g[:, 0] + 1j * g[:, 1]


def reference_extension_from(gamma, psi):
    """An extension of ``gamma`` from a pure state, with ``sqrt(gamma)`` taken here."""
    d_q = gamma.shape[-1]
    dim_a = psi.shape[-2] // d_q
    joint = hermitian_part(psi @ dag(psi))
    marginal = partial_trace(joint, (d_q, dim_a), "Q")
    corr = tensor(psd_sqrt(gamma) @ support_inv_sqrt(marginal), np.eye(dim_a))
    out = hermitian_part(corr @ joint @ dag(corr))
    return out / np.trace(out, axis1=-2, axis2=-1).real[..., None, None]


def reference_pass(draws):
    """Per-part draws of one shape built and checked in one stacked pass, each matrix decomposed where it is used."""
    g, psi, e = (np.stack(a) for a in zip(*draws))
    gamma = sampling.density_from(g)
    ext = as_density(reference_extension_from(gamma, psi), "extension")
    dims = (g.shape[-1], psi.shape[-1] // g.shape[-1])
    povm = sampling.povm_from(e)
    return theorem1_from_roots(gamma, psd_sqrt(gamma), ext[:, None], psd_sqrt(ext)[:, None], dims, povm)


def reference_theorem1_rows(scenario, seed):
    """``entropy-scan --theorem1`` rows from per-part draws, one unbounded pass per shape group."""
    n, dims_q, dims_a, effect_counts = scenario.theorem1
    shapes, groups = [], defaultdict(list)
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        d_q = dims_q[int(rng.integers(0, len(dims_q)))]
        d_a = dims_a[int(rng.integers(0, len(dims_a)))]
        n_eff = effect_counts[int(rng.integers(0, len(effect_counts)))]
        shapes.append(f"dq={d_q};da={d_a};effects={n_eff}")
        groups[d_q, d_a, n_eff].append((i, (*draw_extension(d_q, d_a, rng), draw_povm(d_q, n_eff, rng))))
    reports = [None] * n
    for group in groups.values():
        for (i, _), report in zip(group, reference_pass([draw for _, draw in group]), strict=True):
            reports[i] = report
    return [
        {
            "kind": "theorem1",
            "id": f"ext-{i:04d}",
            "record": shape,
            "avg_entropy": r.avg_entropy_extension,
            "lower": r.avg_entropy_trivial,
            "upper": r.entropy_marginal,
            "lower_margin": r.lower_margin,
            "upper_margin": r.upper_margin,
            "within_bounds": r.ordering_holds,
        }
        for i, (shape, r) in enumerate(zip(shapes, reports))
    ]


def row_draw(rng, d_q, d_a, n_eff):
    return (d_q, d_a, n_eff), rng.normal(size=sampling.triple_size(d_q, d_a, n_eff))


class TestBatchedTheorem1:
    def test_no_rows_give_no_reports(self):
        gammas, blocks = np.zeros((0, 2, 2)), np.zeros((0, 1, 4, 4))
        assert theorem1_from_roots(gammas, gammas, blocks, blocks, (2, 2), np.zeros((0, 3, 2, 2))) == []

    def test_sweep_matches_row_by_row_on_every_default_shape_group(self):
        seed, n = 23, 400
        draws, references, shapes = [], [], set()
        for i in range(n):
            # the draw order of entropy-scan --theorem1: shape choices, then the triple
            rng = np.random.default_rng([seed, i])
            d_q = (2, 3)[rng.integers(0, 2)]
            d_a, n_eff = ((2, 3, 4)[rng.integers(0, 3)] for _ in range(2))
            state = rng.bit_generator.state
            draws.append(row_draw(rng, d_q, d_a, n_eff))
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
                yield row_draw(rng, d_q, d_a, n_eff)

        passes = []
        one_pass = sweeps._theorem1_pass
        monkeypatch.setattr(sweeps, "_theorem1_pass", lambda shape, rows: passes.append(len(rows)) or one_pass(shape, rows))
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

        for d_q, d_a, n_eff in [(2, 2, 2), (3, 4, 3), (2, 3, 4), (1, 1, 1), (1, 3, 4), (5, 5, 1), (2, 1, 3)]:
            d = d_q * d_a
            rows, parts = [], []
            for seed in range(20):
                rng, ref, two = (np.random.default_rng([seed, d_q]) for _ in range(3))
                rows.append(row_draw(rng, d_q, d_a, n_eff)[1])
                g, psi = draw_extension(d_q, d_a, ref)
                effects = draw_povm(d_q, n_eff, ref)
                assert g.tobytes() == per_part_ginibre((d_q, d_q), two).tobytes()
                v = per_part_ginibre(d * d, two)
                assert psi.tobytes() == (v / np.linalg.norm(v)).reshape(d, d).tobytes()
                assert effects.tobytes() == np.stack([per_part_ginibre((d_q, d_q), two) for _ in range(n_eff)]).tobytes()
                parts.append((g, psi, effects))
                # the three streams stand at the same place
                assert rng.random() == ref.random() == two.random()
            # the stacked split gives each row's per-part draws, the pure state normalized with np.linalg.norm's bits
            for got, want in zip(sampling.triples_from(np.stack(rows), d_q, d_a, n_eff), zip(*parts), strict=True):
                assert got.shape == (len(rows), *want[0].shape)
                assert got.tobytes() == np.stack(want).tobytes()

    @pytest.mark.parametrize("seed", [0, 11, 41, 71])
    def test_rows_have_the_bits_of_per_part_draws_and_passes(self, seed):
        sc = theorem1_scenario(300)
        rows = cli._theorem1_rows(sc, seed)
        assert len(rows) == 300
        for got, want in zip(rows, reference_theorem1_rows(sc, seed), strict=True):
            assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "n, config",
        [
            (0, {}),
            (60, {"dim_q": [1], "dim_a": [1], "n_effects": [1]}),
            (60, {"dim_q": [1], "dim_a": [3], "n_effects": [4]}),
            (60, {"dim_q": [5], "dim_a": [5], "n_effects": [1]}),
            (60, {"dim_q": [2], "dim_a": [1]}),
        ],
    )
    def test_rows_have_the_bits_of_per_part_draws_on_edge_shapes(self, n, config):
        sc = theorem1_scenario(n, **config)
        for seed in (0, 11):
            rows = cli._theorem1_rows(sc, seed)
            assert len(rows) == n
            for got, want in zip(rows, reference_theorem1_rows(sc, seed), strict=True):
                assert repr(got) == repr(want)

    def test_each_matrix_is_decomposed_once(self, monkeypatch):
        # per row: sqrt(gamma), the marginal's and the POVM sum's inverse roots and the extension's root
        # are one eigh each; gamma's spectrum, its k effects' and its 2k updated states' one eigvalsh each
        counts = {"eigh": Counter(), "eigvalsh": Counter()}

        def counted(name, fn):
            def call(a, *args, **kwargs):
                a = np.asarray(a)
                counts[name][a.shape[-1]] += int(np.prod(a.shape[:-2]))
                return fn(a, *args, **kwargs)

            return call

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        groups = defaultdict(list)
        for i in range(400):
            rng = np.random.default_rng([29, i])
            d_q, d_a, n_eff = (2, 3)[rng.integers(0, 2)], (2, 3, 4)[rng.integers(0, 3)], (2, 3, 4)[rng.integers(0, 3)]
            groups[d_q, d_a, n_eff].append(row_draw(rng, d_q, d_a, n_eff))
        assert len(groups) == 18
        for (d_q, d_a, n_eff), draws in groups.items():
            for c in counts.values():
                c.clear()
            assert all(r.ordering_holds for r in sweeps.theorem1_sweep(draws))
            n, big = len(draws), d_q * d_a
            assert counts["eigh"] == {d_q: 3 * n, big: n}, (d_q, d_a, n_eff)
            assert counts["eigvalsh"] == {d_q: (1 + 3 * n_eff) * n}, (d_q, d_a, n_eff)

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
        g, b = np.stack(gammas), np.stack(blocks)
        reports = theorem1_from_roots(g, psd_sqrt(g), b, psd_sqrt(b[:, 0])[:, None], (3, 2), np.stack(povms))
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
        roots = psd_sqrt(ext[:, 0])[:, None]
        gammas = np.stack([gamma, np.diag([0.5, 0.5])])
        with pytest.raises(InvalidExtension):
            theorem1_from_roots(gammas, psd_sqrt(gammas), ext, roots, (2, 2), np.stack([Z_POVM, Z_POVM]))
        gammas = np.stack([gamma] * 2)
        with pytest.raises(InvalidPOVM):
            theorem1_from_roots(gammas, psd_sqrt(gammas), ext, roots, (2, 2), np.stack([Z_POVM, (proj(K0), proj(K0))]))

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
