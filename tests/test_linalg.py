"""Dense linear-algebra primitives against independent oracles.

Oracles used here:
  * scipy.linalg.eigh(a, b) — an LAPACK generalized solver the library
    does not use internally,
  * explicit dense inversion for the rank-one inverse recursion,
  * the defining equations themselves (residuals, fixed points).
"""

import numpy as np
import pytest
import scipy.linalg

from mpb_lab.linalg import (
    GevdResult,
    SingularMatrixError,
    hermitian_gevd,
    normalize_phase,
    power_iteration_step,
    rank_one_inverse_update,
)
from mpb_lab.oracles import subspace_angle


def random_hermitian_pd(rng, size, ridge=1.0):
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return m @ m.conj().T + ridge * np.eye(size)


class TestHermitianGevd:
    def test_identity_pair(self):
        result = hermitian_gevd(np.eye(4), np.eye(4))
        np.testing.assert_allclose(result.eigenvalues, np.ones(4), atol=1e-12)
        # any B-orthonormal set is acceptable; check the defining equation
        for k in range(4):
            v = result.eigenvectors[:, k]
            np.testing.assert_allclose(v, result.eigenvalues[k] * v, atol=1e-12)

    def test_diagonal_pair(self):
        result = hermitian_gevd(np.diag([2.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(result.eigenvalues, [2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(result.eigenvectors[:, 0], [1.0, 0.0], atol=1e-12)

    def test_residual_small_on_random_pairs(self, rng):
        for _ in range(5):
            a = random_hermitian_pd(rng, 6)
            b = random_hermitian_pd(rng, 6)
            result = hermitian_gevd(a, b)
            norm_a = np.linalg.norm(a, 2)
            for k in range(6):
                v = result.eigenvectors[:, k]
                residual = a @ v - result.eigenvalues[k] * (b @ v)
                assert np.linalg.norm(residual) <= 1e-9 * norm_a

    def test_b_orthonormality(self, rng):
        a = random_hermitian_pd(rng, 6)
        b = random_hermitian_pd(rng, 6)
        vecs = hermitian_gevd(a, b).eigenvectors
        gram = vecs.conj().T @ b @ vecs
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)

    def test_eigenvalues_sorted_descending(self, rng):
        a = random_hermitian_pd(rng, 8)
        b = random_hermitian_pd(rng, 8)
        evals = hermitian_gevd(a, b).eigenvalues
        assert np.all(np.diff(evals) <= 0)

    def test_matches_scipy_generalized_solver(self, rng):
        for seed in range(4):
            local = np.random.default_rng(seed)
            a = random_hermitian_pd(local, 6)
            b = random_hermitian_pd(local, 6)
            ours = hermitian_gevd(a, b).eigenvalues
            oracle = scipy.linalg.eigh(a, b, eigvals_only=True)[::-1]
            np.testing.assert_allclose(ours, oracle, rtol=1e-9, atol=1e-11)

    def test_matches_explicit_whitening_route(self, rng):
        a = random_hermitian_pd(rng, 6)
        b = random_hermitian_pd(rng, 6)
        chol = np.linalg.cholesky(b)
        inv_l = np.linalg.inv(chol)
        whitened = inv_l @ a @ inv_l.conj().T
        oracle = np.linalg.eigvalsh(0.5 * (whitened + whitened.conj().T))[::-1]
        ours = hermitian_gevd(a, b).eigenvalues
        np.testing.assert_allclose(ours, oracle, rtol=1e-9, atol=1e-11)

    def test_congruence_invariance(self, rng):
        a = random_hermitian_pd(rng, 5)
        b = random_hermitian_pd(rng, 5)
        base = hermitian_gevd(a, b).eigenvalues
        for _ in range(3):
            t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert np.linalg.cond(t) < 1e3
            mapped = hermitian_gevd(t.conj().T @ a @ t, t.conj().T @ b @ t)
            np.testing.assert_allclose(
                mapped.eigenvalues, base, rtol=1e-9, atol=1e-10
            )

    def test_loading_monotonicity(self, rng):
        a = random_hermitian_pd(rng, 6)
        b = random_hermitian_pd(rng, 6)
        lam = hermitian_gevd(a, b).eigenvalues[0]
        for eps in (1e-3, 1e-1, 1.0):
            loaded = hermitian_gevd(a, b + eps * np.eye(6)).eigenvalues[0]
            assert loaded <= lam * (1.0 + 1e-12)

    def test_phase_convention(self, rng):
        a = random_hermitian_pd(rng, 5)
        b = random_hermitian_pd(rng, 5)
        vecs = hermitian_gevd(a, b).eigenvectors
        for k in range(5):
            col = vecs[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0]]
            assert abs(lead.imag) <= 1e-12 * abs(lead)
            assert lead.real > 0

    def test_rejects_non_pd_right_matrix(self):
        b = np.diag([1.0, -1e-3])
        with pytest.raises(SingularMatrixError, match="positive definite"):
            hermitian_gevd(np.eye(2), b)

    def test_rejects_ill_conditioned_right_matrix(self):
        b = np.diag([1.0, 1e-14])
        with pytest.raises(SingularMatrixError):
            hermitian_gevd(np.eye(2), b)

    def test_rejects_shape_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError, match="shapes differ"):
            hermitian_gevd(np.eye(3), np.eye(2))
        with pytest.raises(ValueError, match="square"):
            hermitian_gevd(np.ones((2, 3)), np.ones((2, 3)))
        bad = np.eye(2)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_gevd(bad, np.eye(2))


class TestNormalizePhase:
    def test_rotates_leading_component_real_positive(self):
        col = np.array([0.0, 1j, 1.0])
        fixed = normalize_phase(col)
        assert fixed[1].real > 0 and abs(fixed[1].imag) < 1e-15

    def test_ignores_roundoff_dust_at_the_top(self):
        col = np.array([1e-20 + 0j, 0.5j])
        fixed = normalize_phase(col)
        # the reference entry is the first significant one, not the dust
        assert fixed[1].real > 0 and abs(fixed[1].imag) < 1e-15

    def test_global_phase_removed(self, rng):
        col = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        rotated = col * np.exp(1j * 1.234)
        np.testing.assert_allclose(
            normalize_phase(col), normalize_phase(rotated), atol=1e-12
        )

    def test_zero_column_unchanged(self):
        col = np.zeros(3, dtype=complex)
        np.testing.assert_array_equal(normalize_phase(col), col)

    def test_matrix_columns_normalized_one_by_one(self, rng):
        vectors = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        vectors[:, 1] = 0.0
        vectors[0, 2] = 1e-20
        fixed = normalize_phase(vectors)
        for j in range(vectors.shape[1]):
            col = vectors[:, j]
            np.testing.assert_array_equal(fixed[:, j], normalize_phase(col))
            # reference: rotate by the first entry above 1e-8 of the peak
            mags = np.abs(col)
            expected = col
            if mags.max() > 0.0:
                lead = col[np.flatnonzero(mags > 1e-8 * mags.max())[0]]
                expected = col * np.exp(-1j * np.angle(lead))
            np.testing.assert_array_equal(fixed[:, j], expected)
        np.testing.assert_array_equal(fixed[:, 1], 0.0)


class TestRankOneInverseUpdate:
    def test_zero_vector_scales_inverse(self, rng):
        p = random_hermitian_pd(rng, 4)
        mu = 0.97
        gain, p_next = rank_one_inverse_update(p, np.zeros(4, dtype=complex), mu)
        np.testing.assert_allclose(gain, np.zeros(4), atol=1e-15)
        np.testing.assert_allclose(p_next, p / mu, rtol=1e-14)

    def test_identity_basis_vector_sherman_morrison(self):
        e0 = np.zeros(2, dtype=complex)
        e0[0] = 1.0
        gain, p_next = rank_one_inverse_update(np.eye(2, dtype=complex), e0, 1.0)
        np.testing.assert_allclose(gain, 0.5 * e0, atol=1e-15)
        expected = np.eye(2) - 0.5 * np.outer(e0, e0.conj())
        np.testing.assert_allclose(p_next, expected, atol=1e-15)

    def test_100_seeded_triples_against_dense_inverse(self):
        for seed in range(100):
            local = np.random.default_rng(seed)
            size = int(local.integers(2, 9))
            r = random_hermitian_pd(local, size, ridge=0.5)
            p = np.linalg.inv(r)
            x = local.standard_normal(size) + 1j * local.standard_normal(size)
            mu = float(local.uniform(0.5, 1.0))
            _, p_next = rank_one_inverse_update(p, x, mu)
            product = p_next @ (mu * r + np.outer(x, x.conj()))
            np.testing.assert_allclose(product, np.eye(size), atol=1e-8)

    def test_long_chain_matches_dense_inverse(self):
        # same recursion-vs-dense drift check the CLI oracle runs
        from mpb_lab.oracles import woodbury_drift

        assert woodbury_drift(num_updates=10000, seed=1, size=8) <= 1e-8

    def test_rejects_bad_inputs(self, rng):
        p = random_hermitian_pd(rng, 3)
        x = np.zeros(3, dtype=complex)
        with pytest.raises(ValueError, match="forgetting factor"):
            rank_one_inverse_update(p, x, 0.0)
        with pytest.raises(ValueError, match="does not match"):
            rank_one_inverse_update(p, np.zeros(4, dtype=complex), 0.9)
        bad = x.copy()
        bad[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            rank_one_inverse_update(p, bad, 0.9)

    def test_leading_axis_equals_per_slice_calls(self, rng):
        p = np.stack([np.linalg.inv(random_hermitian_pd(rng, 5)) for _ in range(4)])
        x = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        gains, p_next = rank_one_inverse_update(p, x, 0.95)
        assert gains.shape == (4, 5) and p_next.shape == (4, 5, 5)
        for t in range(4):
            gain, p_t = rank_one_inverse_update(p[t], x[t], 0.95)
            np.testing.assert_array_equal(gains[t], gain)
            np.testing.assert_array_equal(p_next[t], p_t)
        with pytest.raises(ValueError, match="does not match"):
            rank_one_inverse_update(p, x[:3], 0.95)


class TestPowerIterationStep:
    def test_identity_matrices_normalize(self, rng):
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        out = power_iteration_step(np.eye(5), np.eye(5), w)
        np.testing.assert_allclose(out, w / np.linalg.norm(w), atol=1e-14)

    def test_dominant_eigenvector_is_fixed_direction(self, rng):
        r_s = random_hermitian_pd(rng, 5)
        r_i = random_hermitian_pd(rng, 5)
        w = hermitian_gevd(r_s, r_i).eigenvectors[:, 0]
        out = power_iteration_step(np.linalg.inv(r_i), r_s, w)
        # one step amplifies the eigensolver's own rounding by the draw's
        # eigenvalue-gap factor; 1e-7 holds across seeds while a wrong
        # eigenvector would sit near 1e-1
        assert subspace_angle(out, w) <= 1e-7

    def test_converges_to_gevd_dominant(self, rng):
        r_s = random_hermitian_pd(rng, 6)
        r_i = random_hermitian_pd(rng, 6)
        target = hermitian_gevd(r_s, r_i).eigenvectors[:, 0]
        p = np.linalg.inv(r_i)
        w = np.zeros(6, dtype=complex)
        w[0] = 1.0
        for _ in range(200):
            w = power_iteration_step(p, r_s, w)
        assert subspace_angle(w, target) <= 1e-6

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="nonzero"):
            power_iteration_step(np.eye(3), np.eye(3), np.zeros(3))

    def test_leading_axis_equals_per_slice_calls(self, rng):
        p = np.stack([random_hermitian_pd(rng, 4) for _ in range(3)])
        r_s = np.stack([random_hermitian_pd(rng, 4) for _ in range(3)])
        w = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        out = power_iteration_step(p, r_s, w)
        assert out.shape == (3, 4)
        for t in range(3):
            np.testing.assert_array_equal(out[t], power_iteration_step(p[t], r_s[t], w[t]))
        w[1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            power_iteration_step(p, r_s, w)


class TestSubspaceAngle:
    def test_phase_invariant(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # arccos near a unit argument floors the angle at sqrt(eps) ~ 1.5e-8
        # even though the phase cancels exactly inside |<u, v>|
        assert subspace_angle(u, u * np.exp(1j * 0.7)) <= 1e-7

    def test_orthogonal_vectors(self):
        assert subspace_angle([1, 0], [0, 1]) == pytest.approx(np.pi / 2)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            subspace_angle([0, 0], [1, 0])


class TestGevdResultShape:
    def test_result_is_frozen(self, rng):
        a = random_hermitian_pd(rng, 3)
        result = hermitian_gevd(a, np.eye(3))
        assert isinstance(result, GevdResult)
        with pytest.raises(AttributeError):
            result.eigenvalues = np.zeros(3)
