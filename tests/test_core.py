"""Projection bases, despreading snapshots, and batch weight solving.

Projection outputs are validated against hand-computed analytic forms
(single-path despreading gains, matched-filter weights), against the
window-by-window inner-product reference in oracles.direct_projection
and, for MIC, against the code-matched FFT route in oracles.
"""

import math

import numpy as np
import pytest

from mpb_lab.core import (
    CovariancePair,
    make_basis,
    project_stream,
    solve_batch,
)
from mpb_lab.linalg import hermitian_gevd
from mpb_lab.oracles import (
    covariances_from_arrays,
    direct_projection,
    fft_projection_gap,
)
from mpb_lab.scenario import (
    CODE_LENGTH,
    ArrayGeometry,
    PathSpec,
    ScenarioConfig,
    desired_path_power,
    steering_vector,
    synthesize,
)


def soi_only_config(snr_db=0.0, num_symbols=200, delay_chips=0, doa_deg=0.0,
                    seed=3):
    """Desired path only; the clean component is A_s Y_s of the stream."""
    return ScenarioConfig(
        geometry=ArrayGeometry(num_elements=8),
        chip_rate_hz=3.1e6,
        symbol_rate_hz=1e5,
        num_symbols=num_symbols,
        snr_db=snr_db,
        desired=[PathSpec(user_index=0, doa_deg=doa_deg,
                          delay_chips=delay_chips)],
        seed=seed,
    )


class TestSegment:
    """Cutting a stream into despreading windows at a chip offset."""

    def test_rejects_out_of_range_requests(self, code0):
        stream = synthesize(soi_only_config(num_symbols=2))
        basis = make_basis("MIC", code0)
        for n0 in (-1, CODE_LENGTH):
            with pytest.raises(ValueError, match="offset"):
                project_stream(stream.samples, basis, n0)
        x_s, _ = project_stream(stream.samples, basis, 1)
        assert x_s.shape[1] == 1  # the offset eats the 2nd whole window

    def test_alignment_offset_recovers_despreading_gain(self, code0, rendered):
        # a path delayed by 3 chips despreads coherently only at n0 = 3
        config = soi_only_config(delay_chips=3, num_symbols=100)
        stream = synthesize(config)
        p0 = desired_path_power(config, config.desired[0])
        basis = make_basis("MIC", code0)
        soi = stream.soi_steering @ rendered(stream)[0]

        x_aligned, _ = project_stream(soi, basis, 3)
        x_misaligned, _ = project_stream(soi, basis, 0)
        aligned = float(np.mean(np.abs(x_aligned) ** 2))
        misaligned = float(np.mean(np.abs(x_misaligned) ** 2))
        assert aligned == pytest.approx(CODE_LENGTH * p0, rel=1e-10)
        assert aligned > 100.0 * misaligned


class TestBases:
    def test_papc_monitor_is_chip_selector(self, code0):
        basis = make_basis("PAPC", code0, chip_index=5)
        assert basis.scheme == "PAPC"
        assert basis.h_i.shape == (CODE_LENGTH, 1)
        expected = np.zeros(CODE_LENGTH)
        expected[5] = 1.0
        np.testing.assert_array_equal(basis.h_i[:, 0], expected)
        np.testing.assert_allclose(
            basis.h_s, code0.chips / math.sqrt(CODE_LENGTH), atol=1e-15
        )

    def test_papc_chip_index_bounds(self, code0):
        with pytest.raises(ValueError, match="chip_index"):
            make_basis("PAPC", code0, chip_index=CODE_LENGTH)
        with pytest.raises(ValueError, match="chip_index"):
            make_basis("PAPC", code0, chip_index=-1)

    def test_maximin_monitor_unit_norm(self, code0):
        basis = make_basis("Maximin", code0, monitor_freq=0.5)
        assert basis.h_i.shape == (CODE_LENGTH, 1)
        assert np.linalg.norm(basis.h_i[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert basis.num_channels == 1

    def test_maximin_integer_freq_degenerates(self, code0):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            basis = make_basis("Maximin", code0, monitor_freq=1.0)
        np.testing.assert_allclose(basis.h_i[:, 0], basis.h_s, atol=1e-12)

    def test_maximin_freq_bounds(self, code0):
        with pytest.raises(ValueError, match="monitor_freq"):
            make_basis("Maximin", code0, monitor_freq=-0.1)
        with pytest.raises(ValueError, match="monitor_freq"):
            make_basis("Maximin", code0, monitor_freq=1.5)

    def test_mic_monitor_orthonormal_and_code_free(self, code0):
        basis = make_basis("MIC", code0)
        assert basis.h_i.shape == (CODE_LENGTH, CODE_LENGTH - 1)
        gram = basis.h_i.conj().T @ basis.h_i
        np.testing.assert_allclose(gram, np.eye(CODE_LENGTH - 1), atol=1e-12)
        leakage = np.abs(basis.h_i.conj().T @ code0.chips)
        assert float(np.max(leakage)) <= 1e-12

    def test_make_basis_dispatch(self, code0):
        assert make_basis("PAPC", code0, chip_index=2).scheme == "PAPC"
        assert make_basis("Maximin", code0, monitor_freq=0.25).scheme == "Maximin"
        assert make_basis("MIC", code0).scheme == "MIC"
        with pytest.raises(ValueError, match="scheme"):
            make_basis("LMS", code0)

    @pytest.mark.parametrize("scheme", ["PAPC", "Maximin", "MIC"])
    def test_monitor_projector_idempotent(self, scheme, code0):
        basis = make_basis(scheme, code0, monitor_freq=0.5, chip_index=0)
        h_i = basis.h_i
        projector = h_i @ np.linalg.pinv(h_i)
        np.testing.assert_allclose(projector @ projector, projector, atol=1e-10)

    def test_mic_channels_complete_the_space(self, code0):
        # signal column + 30 monitor columns form an orthonormal basis,
        # so the two projectors must resolve the identity
        basis = make_basis("MIC", code0)
        h_s = basis.h_s[:, None]
        p_s = h_s @ h_s.conj().T
        p_i = basis.h_i @ basis.h_i.conj().T
        np.testing.assert_allclose(p_s + p_i, np.eye(CODE_LENGTH), atol=1e-12)

    def test_rejects_non_binary_chips(self, code0):
        class FakeCode:
            chips = np.linspace(-1.0, 1.0, CODE_LENGTH)
            length = CODE_LENGTH

        with pytest.raises(ValueError, match=r"\+-1"):
            make_basis("MIC", FakeCode())


class TestProject:
    def test_papc_monitor_reads_raw_chip(self, rng, code0):
        samples = rng.standard_normal((4, CODE_LENGTH)) \
            + 1j * rng.standard_normal((4, CODE_LENGTH))
        _, x_i = project_stream(samples, make_basis("PAPC", code0, chip_index=7), 0)
        np.testing.assert_allclose(x_i[:, 0, 0], samples[:, 7], atol=1e-14)

    def test_soi_only_block_lands_in_signal_channel(self, code0, rendered):
        config = soi_only_config(snr_db=4.0, num_symbols=20)
        stream = synthesize(config)
        p0 = desired_path_power(config, config.desired[0])
        k = 4
        soi = stream.soi_steering @ rendered(stream)[0]
        x_s, x_i = project_stream(soi, make_basis("MIC", code0), 0)
        steer = steering_vector(config.geometry, 0.0)
        expected = math.sqrt(CODE_LENGTH * p0) * stream.symbols[0][k + 1] * steer
        np.testing.assert_allclose(x_s[:, k], expected, rtol=1e-10)
        assert float(np.max(np.abs(x_i[:, k]))) <= 1e-9 * float(
            np.max(np.abs(x_s[:, k]))
        )

    def test_rejects_wrong_block_width(self, rng, code0):
        # a stream narrower than one code length holds no whole window
        samples = rng.standard_normal((4, CODE_LENGTH - 1))
        with pytest.raises(ValueError, match="too short"):
            project_stream(samples, make_basis("MIC", code0), 0)

    def test_fft_route_matches_inner_products(self):
        for seed in range(5):
            assert fft_projection_gap(seed=seed, num_elements=6) <= 1e-10

    @pytest.mark.parametrize("scheme", ["PAPC", "Maximin", "MIC"])
    def test_project_stream_zero_block(self, scheme, code0):
        x_s, x_i = project_stream(
            np.zeros((3, CODE_LENGTH), dtype=complex), make_basis(scheme, code0), 0
        )
        assert not x_s.any()
        assert not x_i.any()

    @pytest.mark.parametrize("scheme", ["PAPC", "Maximin", "MIC"])
    def test_project_stream_matches_block_loop(self, scheme, rng, code0):
        basis = make_basis(scheme, code0, monitor_freq=0.5, chip_index=0)
        n0 = 6
        samples = rng.standard_normal((5, 8 * CODE_LENGTH + n0)) \
            + 1j * rng.standard_normal((5, 8 * CODE_LENGTH + n0))
        x_s, x_i = project_stream(samples, basis, n0)
        assert x_s.shape == (5, 8)
        assert x_i.shape == (5, 8, basis.num_channels)
        ref_s, ref_i = direct_projection(samples, basis, n0)
        np.testing.assert_allclose(x_s, ref_s, atol=1e-10)
        np.testing.assert_allclose(x_i, ref_i, atol=1e-10)

    def test_project_stream_rejects_short_stream(self, rng, code0):
        # one code length plus two chips, but the offset eats the window
        samples = rng.standard_normal((4, CODE_LENGTH + 2))
        with pytest.raises(ValueError, match="too short"):
            project_stream(samples, make_basis("MIC", code0), 3)


class TestCovariances:
    def test_single_snapshot_outer_products(self, rng):
        x_s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x_i = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        pair = covariances_from_arrays(x_s[:, None], x_i[:, None, :])
        np.testing.assert_allclose(pair.r_s, np.outer(x_s, x_s.conj()),
                                   atol=1e-12)
        expected_ri = sum(
            np.outer(x_i[:, t], x_i[:, t].conj()) for t in range(2)
        ) / 2.0
        np.testing.assert_allclose(pair.r_i, expected_ri, atol=1e-12)

    def test_hermitian_outputs(self, rng):
        x_s = rng.standard_normal((5, 50)) + 1j * rng.standard_normal((5, 50))
        x_i = rng.standard_normal((5, 50, 2)) \
            + 1j * rng.standard_normal((5, 50, 2))
        pair = covariances_from_arrays(x_s, x_i)
        np.testing.assert_allclose(pair.r_s, pair.r_s.conj().T, atol=1e-12)
        np.testing.assert_allclose(pair.r_i, pair.r_i.conj().T, atol=1e-12)

    def test_rejects_empty_and_mismatched(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            covariances_from_arrays(np.zeros((4, 0)), np.zeros((4, 0, 2)))
        x_s = rng.standard_normal((4, 5))
        x_i = rng.standard_normal((3, 5, 2))
        with pytest.raises(ValueError, match="inconsistent"):
            covariances_from_arrays(x_s, x_i)

    def test_noise_only_monitor_covariance_white(self, code0):
        config = ScenarioConfig(
            geometry=ArrayGeometry(num_elements=8),
            chip_rate_hz=3.1e6,
            symbol_rate_hz=1e5,
            num_symbols=10000,
            snr_db=0.0,
            desired=[],
            noise_power=2.0,
            seed=11,
        )
        stream = synthesize(config)
        x_s, x_i = project_stream(stream.samples, make_basis("MIC", code0), 0)
        pair = covariances_from_arrays(x_s, x_i)
        target = 2.0 * np.eye(8)
        gap = np.linalg.norm(pair.r_i - target, "fro") / np.linalg.norm(
            target, "fro"
        )
        assert gap <= 0.05

    def test_soi_does_not_leak_into_monitor(self, code0):
        # SOI 10 dB above noise, yet the monitor covariance along the SOI
        # steering direction must still read pure noise power
        config = soi_only_config(snr_db=10.0, num_symbols=5000)
        stream = synthesize(config)
        x_s, x_i = project_stream(stream.samples, make_basis("MIC", code0), 0)
        pair = covariances_from_arrays(x_s, x_i)
        steer = steering_vector(config.geometry, 0.0)
        along = float(np.real(steer.conj() @ pair.r_i @ steer)) / 8.0
        assert abs(along - config.noise_power) <= 0.05 * config.noise_power


class TestSolveBatch:
    def test_stack_equals_pair_by_pair(self, rng):
        def pd(size):
            m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            return m @ m.conj().T + np.eye(size)

        r_s = np.stack([pd(8) for _ in range(6)])
        r_i = np.stack([pd(8) for _ in range(6)])
        evals, weights = solve_batch(CovariancePair(r_s, r_i))
        assert evals.shape == weights.shape == (6, 8)
        for g in range(6):
            single_evals, single_weight = solve_batch(CovariancePair(r_s[g], r_i[g]))
            np.testing.assert_array_equal(evals[g], single_evals)
            np.testing.assert_array_equal(weights[g], single_weight)

    def test_matched_filter_in_white_monitor(self):
        steer = steering_vector(ArrayGeometry(num_elements=6), 20.0)
        r_s = 4.0 * np.outer(steer, steer.conj()) + np.eye(6)
        r_i = np.eye(6)
        _, weight = solve_batch(CovariancePair(r_s, r_i))
        expected = steer / np.linalg.norm(steer)
        np.testing.assert_allclose(weight, expected, atol=1e-10)
        rayleigh = float(
            np.real(weight.conj() @ r_s @ weight)
            / np.real(weight.conj() @ r_i @ weight)
        )
        assert rayleigh == pytest.approx(4.0 * 6.0 + 1.0, rel=1e-10)

    def test_interference_direction_suppressed(self):
        geom = ArrayGeometry(num_elements=8)
        soi = steering_vector(geom, 0.0)
        jam = steering_vector(geom, 30.0)
        r_s = 2.0 * np.outer(soi, soi.conj()) \
            + 50.0 * np.outer(jam, jam.conj()) + np.eye(8)
        r_i = 50.0 * np.outer(jam, jam.conj()) + np.eye(8)
        _, weight = solve_batch(CovariancePair(r_s, r_i))
        soi_gain = abs(np.vdot(weight, soi)) ** 2
        jam_gain = abs(np.vdot(weight, jam)) ** 2
        assert soi_gain > 100.0 * jam_gain

    def test_generalized_eigen_residual(self, rng):
        for _ in range(5):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            r_s = a @ a.conj().T + np.eye(6)
            r_i = b @ b.conj().T + np.eye(6)
            evals, weight = solve_batch(CovariancePair(r_s, r_i))
            # the pencil's eigenvalues, descending, from the same GEVD
            np.testing.assert_array_equal(
                evals, hermitian_gevd(r_s, r_i).eigenvalues
            )
            assert np.linalg.norm(weight) == pytest.approx(1.0, abs=1e-12)
            rayleigh = complex(
                (weight.conj() @ r_s @ weight)
                / (weight.conj() @ r_i @ weight)
            )
            residual = r_s @ weight - rayleigh * (r_i @ weight)
            assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(r_s)
