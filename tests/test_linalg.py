import math

import numpy as np
import pytest

from retrosmooth import sampling
from retrosmooth.errors import (
    InvalidDistribution,
    InvalidFactorization,
    InvalidMatrix,
    InvalidPOVM,
    NotPSD,
)
from retrosmooth.linalg import (
    PSD_HARD,
    as_density,
    as_hermitian,
    as_povm,
    entropy_shannon,
    entropy_vn,
    fidelity,
    herm_eig,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    purify,
    purity,
    support_basis,
    support_basis_and_inv_sqrt,
    support_inv_sqrt,
    tensor,
    trace_norm,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
LN2 = np.log(2.0)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


class TestHermEig:
    def test_diagonal(self):
        w, v = herm_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(w, [2.0, 1.0])
        np.testing.assert_allclose(v, np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        w, v = herm_eig(X)
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(v[:, 0]), [1, 1] / np.sqrt(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(v[:, 1]), [1, 1] / np.sqrt(2), atol=1e-14)
        # phase convention: first sizeable component real positive
        assert v[0, 0].real > 0 and abs(v[0, 0].imag) < 1e-14

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = hermitian_part(sampling.ginibre((4, 4), rng))
            w, v = herm_eig(m)
            scale = max(1.0, np.abs(m).max())
            assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10 * scale
            assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-10
            assert np.all(np.diff(w) <= 1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            herm_eig(np.array([[np.nan, 0], [0, 1]]))

    def test_nonhermitian_rejected(self):
        with pytest.raises(InvalidMatrix):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_rank_deficient(self):
        m = 0.5 * (proj([1, 0, 0, 0]) + proj([0, 0, 0, 1]))
        s = psd_sqrt(m)
        np.testing.assert_allclose(s @ s, m, atol=1e-12)
        np.testing.assert_allclose(s, np.sqrt(0.5) * (m / 0.5), atol=1e-12)

    def test_square_random(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4, 8):
            for _ in range(25):
                m = sampling.random_density(d, rng) * rng.uniform(0.1, 3.0)
                s = psd_sqrt(m)
                assert np.abs(s @ s - m).max() <= 1e-9
                assert np.linalg.eigvalsh(s)[0] >= -1e-12

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))


def _rank_deficient_stack(rng, d, n):
    """Random PSD blocks of assorted scale; some of rank one or two with eigenvalues
    near 1e-17 of the largest in the null directions, one exactly zero."""
    blocks = []
    for i in range(n):
        w = rng.uniform(0.1, 1.0, size=d) * rng.uniform(1e-6, 3.0)
        if i % 3 == 1:
            w[1:] = w[0] * rng.uniform(-3e-17, 3e-17, size=d - 1)
        if i % 3 == 2:
            w[2:] = w[0] * rng.uniform(0.0, 3e-17, size=d - 2)
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        blocks.append(hermitian_part((u * w) @ u.conj().T))
    blocks.append(np.zeros((d, d), dtype=complex))
    return np.stack(blocks)


class TestStackedPsdSqrt:
    """A stack goes through the same square-root rule as one matrix at a time."""

    def test_matches_per_block(self):
        rng = np.random.default_rng(17)
        for d in (2, 3, 4, 8):
            stack = _rank_deficient_stack(rng, d, 12)
            roots = psd_sqrt(stack)
            assert roots.shape == stack.shape
            for block, root in zip(stack, roots):
                assert np.abs(root - psd_sqrt(block)).max() <= 1e-14
            np.testing.assert_array_equal(roots[-1], 0.0)

    def test_relative_cutoff_kept(self):
        # an eigenvalue 1e-17 of the largest is zeroed, not rooted to ~3e-9
        stack = np.stack([np.diag([1.0, 1e-17]), np.diag([4.0, 1.0])]).astype(complex)
        np.testing.assert_array_equal(psd_sqrt(stack)[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(psd_sqrt(stack)[1], np.diag([2.0, 1.0]), atol=1e-15)

    def test_not_psd(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -2 * PSD_HARD])]).astype(complex)
        with pytest.raises(NotPSD):
            psd_sqrt(stack)
        psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -0.5 * PSD_HARD])]))


# a member of a stack for as_hermitian, held to its own scale, and the error it raises alone
STACK_MEMBERS = {
    # Hermitian up to round-off, so the symmetrized bits depend on the entries
    "round-off": (
        hermitian_part(sampling.ginibre((2, 2), np.random.default_rng(31)))
        + 1e-14 * sampling.ginibre((2, 2), np.random.default_rng(37)),
        None,
    ),
    # 1e-10 off is within 1e-12 of a member of scale 1e3
    "large-scale": (np.array([[1e3, 1e-10], [0.0, 1e3]]), None),
    "non-finite": (np.array([[np.inf, 0.0], [0.0, 1.0]]), InvalidMatrix),
    "non-hermitian": (np.array([[0.0, 1.0], [0.0, 0.0]]), InvalidMatrix),
    # 1e-11 off at scale one fails, however large its neighbours in the stack
    "non-hermitian-at-own-scale": (np.array([[1.0, 1e-11], [0.0, 1.0]]), InvalidMatrix),
}


class TestStackedValidators:
    @pytest.mark.parametrize("member", list(STACK_MEMBERS))
    def test_as_hermitian_stack_member(self, member):
        m, error = STACK_MEMBERS[member]
        stack = np.stack([np.eye(2), np.diag([1e3, -1e3]), m])
        if error is not None:
            with pytest.raises(error):
                as_hermitian(m)
            with pytest.raises(error):
                as_hermitian(stack)
            return
        got = as_hermitian(stack)
        for one, matrix in zip(got, stack):
            assert one.tobytes() == as_hermitian(matrix).tobytes()

    def test_as_hermitian_rejects_non_square_stack(self):
        with pytest.raises(InvalidMatrix, match="must be square"):
            as_hermitian(np.zeros((2, 2, 3)))

    def test_as_density_stack(self):
        rng = np.random.default_rng(23)
        stack = np.stack([sampling.random_density(3, rng) for _ in range(4)])
        np.testing.assert_array_equal(as_density(stack), np.stack([as_density(m) for m in stack]))
        with pytest.raises(InvalidMatrix, match="trace"):
            as_density(np.stack([stack[0], 2 * stack[1]]))
        with pytest.raises(NotPSD):
            as_density(np.stack([stack[0], np.diag([1.5, -0.5, 0.0])]))

    def test_as_povm_stack(self):
        rng = np.random.default_rng(29)
        povms = np.stack([sampling.random_povm(2, 3, rng) for _ in range(3)])
        got = as_povm(povms, 2)
        assert got.shape == (3, 3, 2, 2)
        for povm, one in zip(povms, got):
            np.testing.assert_array_equal(one, as_povm(list(povm), 2))
        bad = povms.copy()
        bad[1, 0] *= 2
        with pytest.raises(InvalidPOVM, match="sum to the identity"):
            as_povm(bad, 2)
        with pytest.raises(InvalidPOVM, match="one or more 2 x 2 effects"):
            as_povm([np.eye(2), np.eye(3)], 2)


class TestSupportInvSqrt:
    def test_stack_matches_per_matrix(self):
        # each matrix is cut relative to its own top eigenvalue, with the bits of a one-matrix call
        rng = np.random.default_rng(19)
        for d in (2, 3, 4):
            stack = _rank_deficient_stack(rng, d, 12)
            for m, inv in zip(stack, support_inv_sqrt(stack)):
                assert inv.tobytes() == support_inv_sqrt(m).tobytes()
                basis, one = support_basis_and_inv_sqrt(m)
                assert basis.tobytes() == support_basis(m).tobytes()
                assert one.tobytes() == inv.tobytes()

    def test_identity(self):
        np.testing.assert_allclose(support_inv_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_singular_diagonal(self):
        np.testing.assert_allclose(support_inv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)

    def test_full_rank(self):
        m = np.diag([0.25, 0.75])
        r = support_inv_sqrt(m)
        np.testing.assert_allclose(np.diag(r), [2.0, 2.0 / np.sqrt(3.0)], atol=1e-12)
        np.testing.assert_allclose(r @ m @ r, np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_allclose(support_inv_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_sandwich_is_projector(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            rank = int(rng.integers(1, d + 1))
            m = sampling.random_density(d, rng, rank=rank)
            r = support_inv_sqrt(m)
            basis = support_basis(m)
            np.testing.assert_allclose(r @ m @ r, basis @ basis.conj().T, atol=1e-9)


class TestPartialTraceTensor:
    def test_tensor_identity(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_tensor_diagonal(self):
        np.testing.assert_allclose(
            tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
        )

    def test_tensor_mixed_product(self):
        np.testing.assert_allclose(
            tensor(X, np.eye(2)) @ tensor(np.eye(2), X), tensor(X, X), atol=1e-14
        )

    def test_bell_marginal(self):
        bell = proj([1, 0, 0, 1]) / 2
        np.testing.assert_allclose(partial_trace(bell, (2, 2), "Q"), np.eye(2) / 2, atol=1e-14)

    def test_product_state(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = hermitian_part(sampling.ginibre((2, 2), rng))
            b = hermitian_part(sampling.ginibre((3, 3), rng))
            np.testing.assert_allclose(
                partial_trace(tensor(a, b), (2, 3), "Q"), a * b.trace(), atol=1e-12
            )
            np.testing.assert_allclose(
                partial_trace(tensor(a, b), (2, 3), "A"), b * a.trace(), atol=1e-12
            )

    def test_classical_register_marginal(self):
        ext = 0.5 * (proj([1, 0, 0, 0]) + proj([0, 0, 0, 1]))
        np.testing.assert_allclose(partial_trace(ext, (2, 2), "Q"), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        m = hermitian_part(sampling.ginibre((6, 6), rng))
        np.testing.assert_allclose(partial_trace(m, (2, 3), "Q").trace(), m.trace(), atol=1e-12)

    def test_tensor_stack_matches_kron(self):
        rng = np.random.default_rng(13)
        stack = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
        b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        lifted = tensor(stack, b)
        assert lifted.shape == (5, 6, 8)
        for m, got in zip(stack, lifted):
            np.testing.assert_array_equal(got, np.kron(m, b))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidFactorization):
            partial_trace(np.eye(6), (2, 2), "Q")
        with pytest.raises(InvalidFactorization):
            partial_trace(np.ones(6), (2, 3), "Q")

    @pytest.mark.parametrize("keep", ["Q", "A"])
    def test_stack_matches_per_matrix(self, keep):
        rng = np.random.default_rng(12)
        stack = np.array(
            [[sampling.random_density(6, rng) for _ in range(3)] for _ in range(2)]
        )
        got = partial_trace(stack, (2, 3), keep)
        assert got.shape == ((2, 3, 2, 2) if keep == "Q" else (2, 3, 3, 3))
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(got[i, j], partial_trace(stack[i, j], (2, 3), keep))


class TestPurify:
    def test_pure_state(self):
        psi = purify(proj([1, 0]))
        assert psi.shape == (2,)
        np.testing.assert_allclose(psi, [1, 0], atol=1e-14)

    def test_maximally_mixed(self):
        # Bell-type purification, up to a local basis choice on the ancilla
        psi = purify(np.eye(2) / 2)
        np.testing.assert_allclose(sorted(np.abs(psi)), [0, 0, 1, 1] / np.sqrt(2), atol=1e-14)
        np.testing.assert_allclose(partial_trace(proj(psi), (2, 2), "Q"), np.eye(2) / 2, atol=1e-14)

    def test_diagonal(self):
        psi = purify(np.diag([0.75, 0.25]))
        np.testing.assert_allclose(psi, [np.sqrt(0.75), 0, 0, np.sqrt(0.25)], atol=1e-14)

    def test_marginal_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = sampling.random_density(d, rng)
            psi = purify(rho)
            rank = psi.size // d
            np.testing.assert_allclose(
                partial_trace(proj(psi), (d, rank), "Q"), rho, atol=1e-10
            )

    def test_rank_sets_ancilla_dim(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        assert purify(rho).size == 3 * 2


class TestEntropies:
    def test_pure_state_zero(self):
        assert entropy_vn(proj([0, 1])) == 0.0

    def test_maximally_mixed(self):
        assert abs(entropy_vn(np.eye(2) / 2) - LN2) < 1e-12

    def test_diag_value(self):
        assert abs(entropy_vn(np.diag([0.75, 0.25])) - 0.5623351446188083) < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho = sampling.random_density(4, rng)
            u = sampling.random_unitary(4, rng)
            assert abs(entropy_vn(u @ rho @ u.conj().T) - entropy_vn(rho)) < 1e-10

    def test_shannon_values(self):
        assert entropy_shannon([1.0, 0.0]) == 0.0
        assert abs(entropy_shannon([0.5, 0.5]) - LN2) < 1e-12
        assert abs(entropy_shannon([0.9, 0.1]) - 0.3250829733914482) < 1e-12

    def test_shannon_negative_entry(self):
        with pytest.raises(InvalidDistribution):
            entropy_shannon([1.1, -0.1])

    def test_shannon_bad_sum(self):
        with pytest.raises(InvalidDistribution):
            entropy_shannon([0.4, 0.4])


class TestStackedMetrics:
    """Entropy, fidelity, purity and trace norm of a stack equal the per-matrix calls bit for bit."""

    @staticmethod
    def states(rng, d):
        stack = _rank_deficient_stack(rng, d, 12)[:-1]
        stack = stack / np.trace(stack, axis1=1, axis2=2).real[:, None, None]
        pure = proj(np.eye(d)[0] + np.eye(d)[-1])
        return np.concatenate([stack, [pure / 2, np.eye(d) / d]])

    def test_match_per_matrix(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 4, 8):
            stack = self.states(rng, d)
            b = sampling.random_density(d, rng)
            entropies, fidelities, purities = entropy_vn(stack), fidelity(stack, b), purity(stack)
            # differences of states, as the gw vs gw-variant gap takes them
            diffs = stack - b
            norms = trace_norm(diffs)
            for arr in (entropies, fidelities, purities, norms):
                assert arr.shape == (len(stack),) and arr.dtype == float
            for j, rho in enumerate(stack):
                assert entropies[j] == entropy_vn(rho)
                assert fidelities[j] == fidelity(rho, b)
                assert purities[j] == purity(rho)
                assert norms[j] == trace_norm(diffs[j])

    def test_match_scalar_reference(self):
        # the one-matrix formulas as plain scalar code; the fidelity's array
        # square x * x differs from this scalar power in about 1 of 1000 values
        def entropy_ref(rho):
            w = np.clip(np.linalg.eigvalsh(hermitian_part(rho)), 0.0, None)
            w = w[w > 0.0]
            return max(0.0, float(-np.sum(w * np.log(w))))

        def fidelity_ref(a, b):
            sa = psd_sqrt(a)
            w = np.clip(np.linalg.eigvalsh(hermitian_part(sa @ b @ sa)), 0.0, None)
            return float(np.sqrt(w).sum() ** 2)

        rng = np.random.default_rng(29)
        b = sampling.random_density(2, rng)
        g = rng.normal(size=(10000, 2, 2)) + 1j * rng.normal(size=(10000, 2, 2))
        stack = hermitian_part(g @ g.conj().swapaxes(1, 2))
        stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
        assert fidelity(stack, b).tolist() == [fidelity_ref(a, b) for a in stack]
        assert entropy_vn(stack).tolist() == [entropy_ref(a) for a in stack]
        # zero eigenvalues among several positive ones change the order of a full-row sum
        for d in (3, 4, 8):
            stack = np.concatenate([self.states(rng, d) for _ in range(20)])
            assert entropy_vn(stack).tolist() == [entropy_ref(a) for a in stack]

    def test_pure_state_entropy_is_positive_zero(self):
        # a pure state's terms sum to 0.0, negated to -0.0; the clamp must give +0.0
        pure = proj([1.0, 1.0]) / 2
        stack = np.stack([pure, np.eye(2) / 2, pure])
        for value in (entropy_vn(pure), *entropy_vn(stack)[[0, 2]]):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_single_inputs_give_floats(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        for value in (entropy_vn(rho), fidelity(rho, rho), purity(rho), trace_norm(rho)):
            assert type(value) is float


class TestNormsFidelity:
    def test_trace_norm_hermitian(self):
        assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-12

    def test_fidelity_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a = sampling.random_density(3, rng)
            b = sampling.random_density(3, rng)
            f = fidelity(a, b)
            assert -1e-10 <= f <= 1.0 + 1e-10
            assert abs(fidelity(a, a) - 1.0) < 1e-9

    def test_hermitian_part(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        h = hermitian_part(m)
        np.testing.assert_allclose(h, h.conj().T)
