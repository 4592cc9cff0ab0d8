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

from mpb_lab.core import make_basis
from mpb_lab.harness import component_grams
from mpb_lab.linalg import (
    MAX_CONDITION,
    GevdResult,
    SingularMatrixError,
    _inverse_lower,
    hermitian_gevd,
    normalize_phase,
    power_iteration_step,
    rank_one_inverse_update,
)
from mpb_lab.oracles import subspace_angle
from mpb_lab.presets import five_tones_scenario
from mpb_lab.scenario import generate_gold_codes, synthesize


def random_block(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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

    def test_condition_number_error_is_reachable(self):
        # positive definite but past MAX_CONDITION: the condition test,
        # not the definiteness test, must reject it
        with pytest.raises(SingularMatrixError, match="condition number"):
            hermitian_gevd(np.eye(2), np.diag([1.0, 1e-13]))

    def test_rejects_shape_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError, match="shapes differ"):
            hermitian_gevd(np.eye(3), np.eye(2))
        with pytest.raises(ValueError, match="square"):
            hermitian_gevd(np.ones((2, 3)), np.ones((2, 3)))
        bad = np.eye(2)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_gevd(bad, np.eye(2))
        imag_inf = np.eye(2, dtype=complex)
        imag_inf[0, 1] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="left matrix contains non-finite"):
            hermitian_gevd(imag_inf, np.eye(2))
        with pytest.raises(ValueError, match="right matrix contains non-finite"):
            hermitian_gevd(np.eye(2), imag_inf)


    def test_stack_equals_matrix_by_matrix(self, rng):
        a = np.stack([random_hermitian_pd(rng, 8) for _ in range(7)])
        b = np.stack([random_hermitian_pd(rng, 8) for _ in range(7)])
        stacked = hermitian_gevd(a, b)
        assert stacked.eigenvalues.shape == (7, 8)
        assert stacked.eigenvectors.shape == (7, 8, 8)
        for k in range(7):
            single = hermitian_gevd(a[k], b[k])
            np.testing.assert_array_equal(stacked.eigenvalues[k], single.eigenvalues)
            np.testing.assert_array_equal(stacked.eigenvectors[k], single.eigenvectors)

    @pytest.mark.parametrize(
        ("bad", "message"),
        [(np.diag([1.0, -1e-3]), "positive definite"),
         (np.diag([1.0, 1e-14]), "condition number")],
        ids=["not_pd", "ill_conditioned"],
    )
    def test_stack_with_one_bad_right_matrix_rejected(self, bad, message):
        b = np.stack([np.eye(2), bad, np.eye(2)])
        with pytest.raises(SingularMatrixError, match=message):
            hermitian_gevd(np.stack([np.eye(2)] * 3), b)

def _eigvalsh_rule(b):
    """The message the eigenvalue tests reject b with, or None: b's
    Hermitian part must have a positive smallest eigenvalue and a
    largest-to-smallest ratio of at most MAX_CONDITION."""
    eigs = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
    if eigs[0] <= 0.0:
        return ("right matrix is not positive definite: smallest eigenvalue "
                f"{eigs[0]:.6e} (largest {eigs[-1]:.6e})")
    if eigs[-1] / eigs[0] > MAX_CONDITION:
        return (f"right matrix condition number {eigs[-1] / eigs[0]:.3e} "
                f"exceeds {MAX_CONDITION:.0e}")
    return None


def _with_spectrum(rng, eigs):
    """A Hermitian matrix with the given eigenvalues and random eigenvectors."""
    size = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((size, size))
                        + 1j * rng.standard_normal((size, size)))
    return (q * np.asarray(eigs)) @ q.conj().T


def _right_matrices(rng, size):
    """Right matrices with condition numbers log-spaced from 1 to 1e14,
    one that is not positive definite and one that is singular."""
    out = [_with_spectrum(rng, np.logspace(0.0, -decades, size))
           for decades in np.linspace(0.0, 14.0, 29)]
    out.append(_with_spectrum(rng, np.r_[np.ones(size - 1), -1e-3]))
    out.append(_with_spectrum(rng, np.r_[np.ones(size - 1), 0.0]))
    return out


class TestRightMatrixCertificate:
    """hermitian_gevd certifies most right matrices from their Cholesky
    factor and defers the rest to the eigenvalue tests: it must accept
    and reject exactly as those tests do, with their messages."""

    @pytest.mark.parametrize("size", [1, 2, 8])
    def test_rejects_exactly_as_the_eigenvalue_rule(self, rng, size):
        a = random_hermitian_pd(rng, size)
        rejected = 0
        for b in _right_matrices(rng, size):
            expected = _eigvalsh_rule(b)
            if expected is None:
                hermitian_gevd(a, b)
                continue
            rejected += 1
            with pytest.raises(SingularMatrixError) as info:
                hermitian_gevd(a, b)
            assert str(info.value) == expected
        # the non-PD matrix at least, and past 1e12 every matrix of a
        # nontrivial spread
        assert rejected >= (1 if size == 1 else 6)

    @pytest.mark.parametrize(
        "spectrum",
        [np.r_[np.ones(7), 1.0 / 4e11],  # accepted, but not certified
         np.r_[np.ones(7), 1e-13],  # past MAX_CONDITION
         np.r_[np.ones(7), -1e-3]],  # not positive definite
        ids=["accepted_exactly", "ill_conditioned", "not_pd"],
    )
    def test_stack_entry_decided_as_alone(self, rng, spectrum):
        bad = _with_spectrum(rng, spectrum)
        a = np.stack([random_hermitian_pd(rng, 8) for _ in range(3)])
        b = np.stack([random_hermitian_pd(rng, 8), bad, random_hermitian_pd(rng, 8)])
        try:
            alone = hermitian_gevd(a[1], bad)
        except SingularMatrixError as error:
            with pytest.raises(SingularMatrixError) as info:
                hermitian_gevd(a, b)
            assert str(info.value) == str(error)
        else:
            stacked = hermitian_gevd(a, b)
            np.testing.assert_array_equal(stacked.eigenvalues[1], alone.eigenvalues)
            np.testing.assert_array_equal(stacked.eigenvectors[1], alone.eigenvectors)

    def test_certified_stack_skips_the_eigenvalue_solve(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m, *args, **kwargs):
            calls.append(m.shape)
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        a = np.stack([random_hermitian_pd(rng, 8) for _ in range(20)])
        b = np.stack([random_hermitian_pd(rng, 8) for _ in range(20)])
        hermitian_gevd(a, b)
        assert calls == []
        # one uncertified entry sends the whole stack to the exact tests once
        b[3] = _with_spectrum(rng, np.r_[np.ones(7), 1.0 / 4e11])
        hermitian_gevd(a, b)
        assert calls == [(20, 8, 8)]

    def test_matches_scipy_on_sweep_pencils(self):
        # the stacks the sweeps solve: the quiet pair and 137 grid SNRs of
        # every scheme's Grams from one call, at the top INR level
        tolerance = 1e-9
        code = generate_gold_codes(1)[0]
        reference = five_tones_scenario(10.0, snr_db=0.0, num_symbols=400,
                                        seed=(91, 0, 0))
        stream = synthesize(reference)
        alphas = np.r_[0.0, 10.0 ** (np.arange(-20.0, 48.5, 0.5) / 20.0)]
        bases = [make_basis(scheme, code, monitor_freq=0.5, chip_index=0)
                 for scheme in ("MIC", "Maximin", "PAPC")]
        for pair in component_grams(stream, bases, 0).covariance_pair(alphas, 10.0):
            assert pair.r_s.shape == (138, 8, 8)
            ours = hermitian_gevd(pair.r_s, pair.r_i).eigenvalues
            for k in range(len(alphas)):
                oracle = scipy.linalg.eigh(pair.r_s[k], pair.r_i[k],
                                           eigvals_only=True)[::-1]
                np.testing.assert_allclose(ours[k], oracle, rtol=tolerance,
                                           atol=tolerance * oracle[0])


class TestLowerInverse:
    """The forward-substitution inverse of the Cholesky factor against
    numpy's LU inverse, and the leading-vector path it serves."""

    @pytest.mark.parametrize("size", [1, 2, 8])
    def test_matches_lu_inverse_on_random_factors(self, rng, size):
        # cond(C) stays below about 1e2 here, so both inverses carry
        # relative errors far below 1e-12
        tolerance = 1e-12
        b = np.stack([random_hermitian_pd(rng, size) for _ in range(20)])
        tri = np.tril(random_block(rng, 20, size, size))
        idx = np.arange(size)
        tri[:, idx, idx] = 1.0 + rng.random((20, size))
        for chol in (np.linalg.cholesky(b), tri):
            ours = _inverse_lower(chol)
            oracle = np.linalg.inv(chol)
            scale = np.abs(oracle).max(axis=(-2, -1), keepdims=True)
            assert np.all(np.abs(ours - oracle) <= tolerance * scale)
            # exact zeros above the diagonal, the reciprocal on it
            np.testing.assert_array_equal(np.triu(ours, 1), 0.0)
            np.testing.assert_array_equal(ours[:, idx, idx],
                                          1.0 / chol[:, idx, idx].real)

    def test_matches_lu_inverse_near_max_condition(self, rng):
        # cond(b) just under MAX_CONDITION puts cond(C) near 1e6: a
        # relative error of a few eps * cond(C) ~ 1e-9 is roundoff
        tolerance = 1e-8
        b = np.stack([_with_spectrum(rng, np.logspace(0.0, -11.99, 8))
                      for _ in range(5)])
        chol = np.linalg.cholesky(0.5 * (b + b.conj().swapaxes(-1, -2)))
        ours, oracle = _inverse_lower(chol), np.linalg.inv(chol)
        scale = np.abs(oracle).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(ours - oracle) <= tolerance * scale)
        hermitian_gevd(np.eye(8), b[0])  # accepted, as before

    @pytest.mark.parametrize("leading", [1, 3])
    def test_leading_vectors_equal_the_full_call(self, rng, leading):
        a = np.stack([random_hermitian_pd(rng, 8) for _ in range(6)])
        b = np.stack([random_hermitian_pd(rng, 8) for _ in range(6)])
        full = hermitian_gevd(a, b)
        lead = hermitian_gevd(a, b, leading=leading)
        assert lead.eigenvectors.shape == (6, 8, leading)
        np.testing.assert_array_equal(lead.eigenvalues, full.eigenvalues)
        scale = np.abs(full.eigenvectors).max()
        np.testing.assert_allclose(lead.eigenvectors,
                                   full.eigenvectors[..., :leading],
                                   rtol=0.0, atol=1e-12 * scale)
        single = hermitian_gevd(a[0], b[0], leading=1)
        assert single.eigenvectors.shape == (8, 1)
        every = hermitian_gevd(a, b, leading=8)
        np.testing.assert_array_equal(every.eigenvectors, full.eigenvectors)

    def test_leading_rejects_out_of_range_and_keeps_rejections(self, rng):
        for leading in (0, 9):
            with pytest.raises(ValueError, match="leading must lie in"):
                hermitian_gevd(np.eye(8), np.eye(8), leading=leading)
        a = random_hermitian_pd(rng, 8)
        for b in _right_matrices(rng, 8):
            expected = _eigvalsh_rule(b)
            if expected is None:
                hermitian_gevd(a, b, leading=1)
                continue
            with pytest.raises(SingularMatrixError) as info:
                hermitian_gevd(a, b, leading=1)
            assert str(info.value) == expected


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

    def test_stack_normalized_matrix_by_matrix(self, rng):
        vectors = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        vectors[1, :, 2] = 0.0
        fixed = normalize_phase(vectors)
        for k in range(3):
            np.testing.assert_array_equal(fixed[k], normalize_phase(vectors[k]))


class TestRankOneInverseUpdate:
    def test_zero_vector_scales_inverse(self, rng):
        p = random_hermitian_pd(rng, 4)
        mu = 0.97
        # a vector, and a block of three zero rows
        for shape in ((4,), (3, 4)):
            gain, p_next = rank_one_inverse_update(p, np.zeros(shape, dtype=complex), mu)
            np.testing.assert_allclose(gain, np.zeros(shape), atol=1e-15)
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
        for mu in (np.nan, np.inf, -0.5):
            with pytest.raises(ValueError, match="forgetting factor"):
                rank_one_inverse_update(p, x, mu)
        # non-finite in the real part or in the imaginary part alone
        for entry in (np.inf, np.nan, complex(0.0, np.inf), complex(1.0, -np.inf)):
            bad = x.copy()
            bad[0] = entry
            with pytest.raises(ValueError, match="non-finite"):
                rank_one_inverse_update(p, bad, 0.9)
        # the block form: wrong L, no rows, a leading axis p lacks
        block = np.zeros((2, 3), dtype=complex)
        for shape in ((2, 4), (0, 3), (1, 2, 3)):
            with pytest.raises(ValueError, match="does not match"):
                rank_one_inverse_update(p, np.zeros(shape, dtype=complex), 0.9)
        for mu in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="forgetting factor"):
                rank_one_inverse_update(p, block, mu)
        # NaN in a real part, inf in an imaginary part alone
        for entry in (complex(np.nan, 0.0), complex(1.0, np.inf)):
            bad = block.copy()
            bad[1, 2] = entry
            with pytest.raises(ValueError, match="non-finite"):
                rank_one_inverse_update(p, bad, 0.9)

    def test_leading_axis_equals_per_slice_calls(self, rng):
        p = np.stack([np.linalg.inv(random_hermitian_pd(rng, 5)) for _ in range(4)])
        # (4, 5) vectors and (4, 3, 5) blocks, equal to the per-entry calls
        # bit for bit
        for shape in ((4, 5), (4, 3, 5)):
            x = random_block(rng, *shape)
            gains, p_next = rank_one_inverse_update(p, x, 0.95)
            assert gains.shape == shape and p_next.shape == (4, 5, 5)
            for t in range(4):
                gain, p_t = rank_one_inverse_update(p[t], x[t], 0.95)
                np.testing.assert_array_equal(gains[t], gain)
                np.testing.assert_array_equal(p_next[t], p_t)
            for bad in (x[:3], x[..., :4], x[None]):
                with pytest.raises(ValueError, match="does not match"):
                    rank_one_inverse_update(p, bad, 0.95)


class TestBlockInverseUpdate:
    """The rank-m form: one lemma step for R <- mu R + U U^H, U = block^T."""

    # relative to the largest entry of the reference, fixed before
    # comparing: inputs are well conditioned (cond R well under 1e3)
    RTOL = 1e-11

    def assert_close(self, actual, expected):
        np.testing.assert_allclose(
            actual, expected, rtol=0, atol=self.RTOL * np.abs(expected).max()
        )

    @pytest.mark.parametrize("size", [4, 10])
    @pytest.mark.parametrize("rank", [2, 5, "L"])
    def test_equals_sequential_steps_and_dense_inverse(self, rng, size, rank):
        m = size if rank == "L" else rank
        mu = 0.9
        r = random_hermitian_pd(rng, size, ridge=1.0)
        block = random_block(rng, m, size)
        gain, p_next = rank_one_inverse_update(np.linalg.inv(r), block, mu)
        assert gain.shape == (m, size) and p_next.shape == (size, size)
        # m rank-one steps, the forgetting factor on the first only
        p = np.linalg.inv(r)
        for t in range(m):
            _, p = rank_one_inverse_update(p, block[t], mu if t == 0 else 1.0)
        self.assert_close(p_next, p)
        u = block.T
        dense = np.linalg.inv(mu * r + u @ u.conj().T)
        self.assert_close(p_next, dense)
        # the gain vectors are the columns of P' U S^-1 = p_next U
        self.assert_close(gain, (dense @ u).T)

    def test_one_row_block_equals_the_vector_call(self, rng):
        p = np.stack([np.linalg.inv(random_hermitian_pd(rng, 6)) for _ in range(3)])
        x = random_block(rng, 3, 6)
        gain, p_next = rank_one_inverse_update(p, x[:, None, :], 0.95)
        vector_gain, vector_p = rank_one_inverse_update(p, x, 0.95)
        assert gain.shape == (3, 1, 6) and p_next.shape == (3, 6, 6)
        self.assert_close(gain[:, 0], vector_gain)
        self.assert_close(p_next, vector_p)

    def test_long_chain_matches_dense_inverse(self):
        # woodbury_drift's check (criterion 05's 1e-8) with rank-8 blocks:
        # 2,000 steps, each re-symmetrized as the recursion does
        rng = np.random.default_rng(1)
        size, rank, mu, delta = 10, 8, 0.99, 1e-3
        p = np.eye(size, dtype=complex) / delta
        dense = delta * np.eye(size, dtype=complex)
        for _ in range(2000):
            block = random_block(rng, rank, size) / np.sqrt(2.0)
            dense = mu * dense + block.T @ block.conj()
            _, p = rank_one_inverse_update(p, block, mu)
            p = 0.5 * (p + p.conj().T)
        direct = np.linalg.inv(dense)
        assert np.linalg.norm(p - direct) / np.linalg.norm(direct) <= 1e-8

    def test_output_stays_hermitian_over_mic_steps(self):
        # the recursion's symmetry drift: over 500 MIC-shaped steps (10
        # elements, 30 monitor channels, so 10 Cholesky factor rows per
        # symbol) every output, before the recursion re-symmetrizes it,
        # is Hermitian to 1e-10 of its largest entry, in every trial
        rng = np.random.default_rng(2)
        trials, size, channels, mu, delta = 3, 10, 30, 0.98, 1e-3
        p = np.broadcast_to(np.eye(size, dtype=complex) / delta,
                            (trials, size, size))
        worst = 0.0
        for _ in range(500):
            x_i = random_block(rng, trials, size, channels)
            block = np.linalg.cholesky(
                x_i @ x_i.conj().swapaxes(-1, -2) / channels).swapaxes(-1, -2)
            _, p = rank_one_inverse_update(p, block, mu)
            p_h = p.conj().swapaxes(-1, -2)
            asymmetry = np.abs(p - p_h).max(axis=(-2, -1)) / np.abs(p).max(axis=(-2, -1))
            worst = max(worst, asymmetry.max())
            p = 0.5 * (p + p_h)
        assert worst <= 1e-10, worst


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
