"""Threshold theory, SINR metrics, patterns, and basis suitability.

Ground truths: the leakage ratio of the frequency-shifted monitor has
the closed form |sin(pi f N)/sin(pi f)|^2 / N^2 (geometric sum); the
predicted threshold is checked by substituting it back into the
eigenvalue-candidate formula; the empirical threshold extractor is fed
hand-built curves whose crossings are computed analytically.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mpb_lab.analysis import (
    array_pattern,
    condition_check,
    gamma0,
    lambda_max_prediction,
    measure_threshold,
    mvdr_optimum_sinr,
    normalized_sinr_from_covariances,
    output_sinr,
    plr_beta,
    predicted_threshold,
    threshold_beta,
)
from mpb_lab.core import (
    make_basis,
    project_stream,
)
from mpb_lab.linalg import hermitian_gevd
from mpb_lab.oracles import (
    covariances_from_arrays,
    estimate_gamma1,
    maximin_leakage_closed_form,
    normalized_sinr,
)
from mpb_lab.presets import five_tones_scenario, periodic_noise_scenario
from mpb_lab.scenario import (
    CODE_LENGTH,
    ArrayGeometry,
    PathSpec,
    ScenarioConfig,
    steering_vector,
    synthesize,
)

N = CODE_LENGTH


def plain_config(num_symbols=100, snr_db=0.0, seed=9, **overrides):
    base = dict(
        geometry=ArrayGeometry(num_elements=8),
        chip_rate_hz=3.1e6,
        symbol_rate_hz=1e5,
        num_symbols=num_symbols,
        snr_db=snr_db,
        desired=[PathSpec(user_index=0, doa_deg=0.0)],
        seed=seed,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestPlrBeta:
    def test_full_monitoring_set_leaks_nothing(self, code0):
        assert plr_beta(make_basis("MIC", code0), code0) <= 1e-12

    @pytest.mark.parametrize("chip_index", [0, 7, 30])
    def test_single_chip_monitor_leaks_fully(self, code0, chip_index):
        basis = make_basis("PAPC", code0, chip_index=chip_index)
        assert plr_beta(basis, code0) == pytest.approx(1.0, abs=1e-12)

    def test_half_cycle_monitor_closed_form(self, code0):
        beta = plr_beta(make_basis("Maximin", code0, 0.5), code0)
        assert beta == pytest.approx(1.0 / (N * N), rel=1e-12)
        assert beta == pytest.approx(maximin_leakage_closed_form(0.5, N),
                                     rel=1e-12)

    @pytest.mark.parametrize("freq", [0.1, 0.25, 0.37])
    def test_shifted_monitor_matches_closed_form(self, code0, freq):
        beta = plr_beta(make_basis("Maximin", code0, freq), code0)
        assert beta == pytest.approx(maximin_leakage_closed_form(freq, N),
                                     rel=1e-10)

    def test_degenerate_integer_frequency(self, code0):
        with pytest.warns(RuntimeWarning):
            basis = make_basis("Maximin", code0, 1.0)
        assert plr_beta(basis, code0) == pytest.approx(1.0, rel=1e-12)
        assert maximin_leakage_closed_form(1.0, N) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self, code0):
        class ShortCode:
            chips = np.ones(7)
            length = 7

        with pytest.raises(ValueError, match="does not match"):
            plr_beta(make_basis("MIC", code0), ShortCode())


class TestGamma0:
    def test_zero_leakage_is_linear_in_snr(self):
        for snr in (0.5, 1.0, 10.0):
            assert gamma0(snr, N, 8, 0.0) == pytest.approx(8 * snr, rel=1e-12)

    def test_full_leakage_kills_the_candidate(self):
        assert gamma0(100.0, N, 8, float(N)) == 0.0

    def test_saturation_level(self):
        beta = 1.0
        limit = (N - beta) / beta
        assert gamma0(1e12, N, 8, beta) == pytest.approx(limit, rel=1e-9)

    def test_strictly_increasing_in_snr(self):
        grid = np.logspace(-2, 4, 30)
        values = [gamma0(s, N, 8, 1.0) for s in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="snr_linear"):
            gamma0(-1.0, N, 8, 0.0)
        with pytest.raises(ValueError, match="beta"):
            gamma0(1.0, N, 8, -0.1)
        with pytest.raises(ValueError, match="beta"):
            gamma0(1.0, N, 8, N + 1.0)


class TestPredictedThreshold:
    def test_zero_leakage_closed_form(self):
        assert predicted_threshold(12.0, 0.0, N, 8) == pytest.approx(
            10.0 * math.log10(12.0 / 8.0)
        )

    def test_threshold_solves_the_crossover_equation(self):
        for beta, g1 in [(0.0, 5.0), (1.0, 3.0), (1.0 / 961.0, 400.0)]:
            snr_db = predicted_threshold(g1, beta, N, 8)
            snr = 10.0 ** (snr_db / 10.0)
            assert gamma0(snr, N, 8, beta) == pytest.approx(g1, rel=1e-10)

    def test_past_the_pole_is_unbounded(self):
        # leakage saturates the signal candidate below gamma1: no finite
        # operating point exists
        assert predicted_threshold(float(N), 1.0, N, 8) == math.inf
        assert predicted_threshold(1e6, 1.0 / 961.0, N, 8) == math.inf

    def test_zero_gamma1_is_minus_inf(self):
        assert predicted_threshold(0.0, 0.0, N, 8) == -math.inf

    def test_lambda_max_prediction_picks_winner(self):
        assert lambda_max_prediction(3.0, 5.0) == 6.0
        assert lambda_max_prediction(7.0, 2.0) == 8.0


class TestThresholdBeta:
    @pytest.mark.parametrize("freq", [0.5, 0.25, 0.37, 1.0])
    def test_tone_monitor_matches_geometric_sum(self, code0, freq):
        # beta = |sum_n exp(2j pi f n)|^2 / N, which is plr_beta's closed
        # form times the monitor's N taps: 1/N at f = 0.5, N at integer f
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            basis = make_basis("Maximin", code0, freq)
        direct = abs(np.sum(np.exp(2j * np.pi * freq * np.arange(N)))) ** 2 / N
        beta = threshold_beta(basis, code0)
        assert beta == pytest.approx(direct, rel=1e-10)
        assert beta == pytest.approx(
            maximin_leakage_closed_form(freq, N) * N, rel=1e-10
        )
        assert beta == pytest.approx(plr_beta(basis, code0) * N, rel=1e-12)

    def test_half_chip_rate_tone_leaks_one_over_n(self, code0):
        beta = threshold_beta(make_basis("Maximin", code0, 0.5), code0)
        assert beta == pytest.approx(1.0 / N, rel=1e-12)
        # the signal eigenvalue saturates at N / beta - 1 = N^2 - 1
        assert gamma0(1e15, N, 8, beta) == pytest.approx(N * N - 1, rel=1e-9)

    def test_chip_and_full_monitors(self, code0):
        assert threshold_beta(make_basis("PAPC", code0), code0) == pytest.approx(
            1.0, rel=1e-12
        )
        assert threshold_beta(make_basis("MIC", code0), code0) <= 1e-12


class TestSignalEigenvalueRoutes:
    # Route 1: gamma0 with threshold_beta. Route 2: the dominant
    # generalized eigenvalue (minus one) of a synthesized signal-only
    # stream. At 4000 symbols the routes agree to about 3 % over seeds;
    # plr_beta's tap-normalised leakage would put the tone monitor 8 %
    # high at 10 dB and 30x high at 50 dB.
    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0, 40.0, 50.0])
    def test_gamma0_matches_signal_only_eigenvalue(self, code0, snr_db):
        config = plain_config(num_symbols=4000, snr_db=snr_db, seed=3)
        samples = synthesize(config).samples
        bases = [
            make_basis("PAPC", code0),
            make_basis("MIC", code0),
            *(make_basis("Maximin", code0, f) for f in (0.5, 0.25, 0.37)),
        ]
        for basis in bases:
            x_s, x_i = project_stream(samples, basis, 0)
            pair = covariances_from_arrays(x_s, x_i)
            measured = hermitian_gevd(pair.r_s, pair.r_i).eigenvalues[0] - 1.0
            predicted = gamma0(
                10.0 ** (snr_db / 10.0), N, 8, threshold_beta(basis, code0)
            )
            assert measured == pytest.approx(predicted, rel=0.05), (
                f"{basis.scheme} at {snr_db:g} dB"
            )


class TestEstimateGamma1:
    def test_sample_size_guard(self, code0):
        config = plain_config()
        with pytest.raises(ValueError, match="num_symbols"):
            estimate_gamma1(config, make_basis("PAPC", code0), 79)

    def test_noise_only_is_near_zero(self, code0):
        config = plain_config()
        value = estimate_gamma1(config, make_basis("MIC", code0), 4000)
        assert abs(value) <= 0.1

    def test_single_channel_grows_with_interference_power(self, code0):
        # five interferers against a rank-one monitor: the dominant
        # eigenvalue cannot be whitened away, so it scales with power
        basis = make_basis("Maximin", code0, 0.5)
        low = estimate_gamma1(
            five_tones_scenario(10.0, snr_db=0.0, num_symbols=100, seed=5),
            basis, 3000,
        )
        high = estimate_gamma1(
            five_tones_scenario(20.0, snr_db=0.0, num_symbols=100, seed=5),
            basis, 3000,
        )
        assert 8.0 <= high / low <= 12.0

    def test_full_monitoring_set_is_power_invariant(self, code0):
        # the full code-orthogonal basis sees every interferer, so the
        # whitened eigenvalue no longer depends on interference power
        basis = make_basis("MIC", code0)
        values = [
            estimate_gamma1(
                five_tones_scenario(inr, snr_db=0.0, num_symbols=100, seed=5),
                basis, 20000,
            )
            for inr in (10.0, 20.0, 30.0)
        ]
        spread = (max(values) - min(values)) / min(values)
        assert spread <= 0.05


class TestNormalizedSinr:
    def test_analytic_component_arrays(self):
        y_soi = np.full(6, 2.0 + 0j)
        y_interference = np.zeros(6, dtype=complex)
        y_noise = np.full(6, 1.0 + 0j)
        value = normalized_sinr(y_soi, y_interference, y_noise,
                                snr_linear=1.0, num_elements=4)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_zero_clutter_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalized_sinr(np.ones(4), np.zeros(4), np.zeros(4), 1.0, 4)

    def test_nonpositive_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_linear"):
            normalized_sinr(np.ones(4), np.zeros(4), np.ones(4), 0.0, 4)

    def test_covariance_route_identical(self, rng):
        weight = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        parts = {}
        for name in ("soi", "interference", "noise"):
            x = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
            parts[name] = x
        outputs = {k: weight.conj() @ v for k, v in parts.items()}
        covs = {k: (v @ v.conj().T) / 40 for k, v in parts.items()}
        direct = normalized_sinr(outputs["soi"], outputs["interference"],
                                 outputs["noise"], 2.0, 5)
        via_cov = normalized_sinr_from_covariances(
            weight, covs["soi"], covs["interference"], covs["noise"], 2.0, 5
        )
        assert direct == pytest.approx(via_cov, rel=1e-12)

    def test_weight_stack_equals_per_weight_loop(self, rng):
        weights = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        covs = []
        for _ in range(3):
            x = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
            covs.append((x @ x.conj().T) / 40)
        alphas = np.linspace(0.5, 3.0, 6)
        soi = alphas[:, None, None] ** 2 * covs[0]
        snr = np.linspace(1.0, 4.0, 6)
        batched = normalized_sinr_from_covariances(weights, soi, covs[1], covs[2], snr, 5)
        assert batched.shape == (6,)
        loop = [normalized_sinr_from_covariances(w, s, covs[1], covs[2], x, 5)
                for w, s, x in zip(weights, soi, snr)]
        np.testing.assert_allclose(batched, loop, rtol=1e-14)
        with pytest.raises(ValueError, match="snr_linear"):
            normalized_sinr_from_covariances(
                weights, soi, covs[1], covs[2], np.array([1.0, 0.0, 1, 1, 1, 1]), 5
            )

    def test_matched_filter_hits_the_optimum(self, code0, rendered):
        # no interference: the matched filter reaches L*SNR, so the
        # normalized ratio is one
        snr_db = 5.0
        config = plain_config(num_symbols=10000, snr_db=snr_db)
        stream = synthesize(config)
        basis = make_basis("MIC", code0)
        soi_s, _ = project_stream(stream.soi_steering @ rendered(stream)[0], basis, 0)
        noise_s, _ = project_stream(stream.noise, basis, 0)
        weight = steering_vector(config.geometry, 0.0) / math.sqrt(8)
        y_soi = weight.conj() @ soi_s
        y_noise = weight.conj() @ noise_s
        value = normalized_sinr(
            y_soi, np.zeros_like(y_soi), y_noise,
            10.0 ** (snr_db / 10.0), 8,
        )
        assert value == pytest.approx(1.0, abs=0.03)


class TestOutputSinr:
    def test_analytic_diagonal_case(self):
        steering = np.array([1.0, 1.0], dtype=complex)
        clutter = np.diag([1.0, 2.0]).astype(complex)
        weight = np.array([1.0, 0.0], dtype=complex)
        assert output_sinr(weight, 3.0, steering, clutter) == pytest.approx(3.0)
        assert mvdr_optimum_sinr(3.0, steering, clutter) == pytest.approx(4.5)

    def test_optimum_dominates_random_weights(self, rng):
        geom = ArrayGeometry(num_elements=6)
        steering = steering_vector(geom, 10.0)
        base = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        clutter = base @ base.conj().T + 0.5 * np.eye(6)
        best = mvdr_optimum_sinr(2.0, steering, clutter)
        for _ in range(50):
            weight = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert output_sinr(weight, 2.0, steering, clutter) \
                <= best * (1.0 + 1e-9)

    def test_nonpositive_clutter_along_weight_rejected(self):
        steering = np.ones(2, dtype=complex)
        clutter = np.diag([1.0, 0.0]).astype(complex)
        weight = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="positive"):
            output_sinr(weight, 1.0, steering, clutter)

    def test_stacked_weights_equal_per_weight_calls(self, rng):
        geom = ArrayGeometry(num_elements=5)
        steering = steering_vector(geom, 10.0)
        base = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        clutters = base @ base.conj().swapaxes(-1, -2) + 0.5 * np.eye(5)
        weights = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        # (2, 3) weights against one covariance, and against one per column
        shared = output_sinr(weights, 2.0, steering, clutters[0])
        per_column = output_sinr(weights, 2.0, steering, clutters)
        assert shared.shape == per_column.shape == (2, 3)
        for t in range(2):
            for k in range(3):
                for value, clutter in ((shared, clutters[0]), (per_column, clutters[k])):
                    assert value[t, k] == pytest.approx(
                        output_sinr(weights[t, k], 2.0, steering, clutter), rel=1e-13
                    )


class TestArrayPattern:
    def test_matched_weight_peaks_at_steering_direction(self):
        geom = ArrayGeometry(num_elements=8)
        weight = steering_vector(geom, 0.0) / math.sqrt(8)
        thetas = np.arange(-90.0, 90.01, 0.5)
        gains = array_pattern(weight, geom, thetas)
        assert gains.shape == thetas.shape
        assert thetas[int(np.argmax(gains))] == pytest.approx(0.0)
        assert gains.max() == pytest.approx(0.0, abs=1e-12)
        assert np.all(gains <= 1e-12)

    def test_uniform_array_first_sidelobe_level(self):
        # classic uniform-window sidelobe: about -12.8 dB for 8 elements;
        # gains are normalized by the peak inside the grid, so the grid
        # must contain the mainlobe
        geom = ArrayGeometry(num_elements=8)
        weight = steering_vector(geom, 0.0) / math.sqrt(8)
        thetas = np.arange(-90.0, 90.0, 0.02)
        gains = array_pattern(weight, geom, thetas)
        sidelobe = gains[(15.0 <= thetas) & (thetas <= 21.0)].max()
        assert -13.3 <= sidelobe <= -12.3

    def test_null_floor_is_finite(self):
        geom = ArrayGeometry(num_elements=4)
        weight = steering_vector(geom, 0.0)
        # exact null of the 4-element uniform pattern: asin(1/2) = 30 deg
        gains = array_pattern(weight, geom, np.array([0.0, 30.0]))
        assert np.isfinite(gains[1])
        assert gains[1] <= -250.0

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero weight"):
            array_pattern(np.zeros(4), ArrayGeometry(num_elements=4),
                          np.array([0.0]))


class TestConditionCheck:
    def test_full_basis_passes_both_conditions(self, rng, code0):
        basis = make_basis("MIC", code0)
        waveforms = rng.standard_normal((N, 2)) \
            + 1j * rng.standard_normal((N, 2))
        report = condition_check(basis, waveforms, basis.h_s)
        assert report.principle1
        assert report.principle2
        assert report.leakage <= 1e-10
        assert report.min_singular_ratio > 0.0

    def test_code_aligned_interference_breaks_rank_condition(self, rng,
                                                             code0):
        # an interferer that lives along the code itself is invisible to
        # the code-orthogonal monitors
        basis = make_basis("MIC", code0)
        other = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        waveforms = np.stack([code0.chips.astype(complex), other], axis=1)
        report = condition_check(basis, waveforms, basis.h_s)
        assert report.principle1
        assert not report.principle2

    def test_single_channel_cannot_span_periodic_pair(self, code0, rendered):
        # ground-truth waveforms from the synthesizer: two periodic
        # interferers exceed the reach of any rank-one monitor
        config = periodic_noise_scenario(10.0, num_symbols=10, seed=3)
        stream = synthesize(config)
        waveforms = rendered(stream)[1][:, :N].T
        papc = make_basis("PAPC", code0)
        report = condition_check(papc, waveforms, papc.h_s)
        assert not report.principle1  # chip monitor overlaps the code
        assert not report.principle2  # rank one cannot cover dimension two
        mic = make_basis("MIC", code0)
        report_full = condition_check(mic, waveforms, mic.h_s)
        assert report_full.principle1
        assert report_full.principle2

    def test_shifted_monitor_leaks_but_is_rank_sufficient_for_one(self,
                                                                  code0):
        basis = make_basis("Maximin", code0, 0.5)
        tone = np.exp(2j * np.pi * 0.13 * np.arange(N))
        report = condition_check(basis, tone[:, None], basis.h_s)
        assert not report.principle1
        assert report.principle2

    def test_no_interference_is_vacuously_fine(self, code0):
        basis = make_basis("MIC", code0)
        report = condition_check(basis, np.zeros((N, 0)), basis.h_s)
        assert report.principle2
        assert report.min_singular_ratio == math.inf

    def test_dimension_mismatch_rejected(self, rng, code0):
        basis = make_basis("MIC", code0)
        with pytest.raises(ValueError, match="do not match"):
            condition_check(basis, rng.standard_normal((N - 1, 2)), basis.h_s)


class TestMeasureThreshold:
    def test_flat_curve_operates_everywhere(self):
        snr = np.array([-10.0, 0.0, 10.0, 20.0, 30.0])
        assert measure_threshold(snr, np.ones(5)) == -10.0

    def test_sigmoid_crossing_interpolated(self):
        snr = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
        g = np.array([0.1, 0.2, 0.8, 1.0, 1.0])
        plateau = (0.8 + 1.0 + 1.0) / 3.0
        half = plateau / 2.0
        expected = 10.0 + (half - 0.2) / (0.8 - 0.2) * 10.0
        assert measure_threshold(snr, g) == pytest.approx(expected, rel=1e-12)

    def test_uses_last_upward_crossing(self):
        snr = np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        g = np.array([0.1, 0.8, 0.3, 0.9, 1.0, 1.0])
        plateau = (0.9 + 1.0 + 1.0) / 3.0
        half = plateau / 2.0
        expected = 20.0 + (half - 0.3) / (0.9 - 0.3) * 10.0
        assert measure_threshold(snr, g) == pytest.approx(expected, rel=1e-12)

    def test_rise_and_collapse_has_no_threshold(self):
        snr = np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        g = np.array([0.1, 2.0, 1.0, 0.5, 0.4, 0.45])
        assert measure_threshold(snr, g) == math.inf

    def test_still_climbing_tail_has_no_threshold(self):
        snr = np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        g = np.array([0.0, 0.05, 0.1, 0.4, 0.6, 0.9])
        assert measure_threshold(snr, g) == math.inf

    def test_all_zero_curve_has_no_threshold(self):
        snr = np.array([0.0, 10.0, 20.0])
        assert measure_threshold(snr, np.zeros(3)) == math.inf

    def test_two_point_grid(self):
        assert measure_threshold(np.array([0.0, 10.0]),
                                 np.array([1.0, 1.0])) == 0.0

    def test_input_validation(self):
        snr = np.array([0.0, 10.0, 20.0])
        with pytest.raises(ValueError, match="ascending"):
            measure_threshold(snr[::-1], np.ones(3))
        with pytest.raises(ValueError, match="matching"):
            measure_threshold(snr, np.ones(4))
        with pytest.raises(ValueError, match="matching"):
            measure_threshold(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            measure_threshold(snr, np.array([1.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            measure_threshold(snr, np.array([1.0, -0.5, 1.0]))


@pytest.mark.slow
class TestThresholdConsistencyAtScale:
    def test_measured_matches_predicted_for_full_basis(self):
        # long-run check that the empirical switch point of the full
        # monitoring basis lands on the eigenvalue-crossover prediction
        from mpb_lab.harness import default_spec, run_threshold_sweep

        spec = replace(
            default_spec("threshold_sweep"),
            schemes=["MIC"],
            inr_list_db=[10.0],
            symbols=100000,
            trials=1,
            snr_grid_db=[float(s) for s in range(-20, 21, 2)],
        )
        result = run_threshold_sweep(spec)
        by_scenario = {}
        for row in result.rows:
            by_scenario.setdefault(row["scenario"], row)
        assert set(by_scenario) == {"periodic_noise", "multipath_mai",
                                    "five_tones"}
        for name, row in sorted(by_scenario.items()):
            measured = row["measured_threshold_db"]
            predicted = row["predicted_threshold_db"]
            assert math.isfinite(measured), name
            assert math.isfinite(predicted), name
            assert abs(measured - predicted) <= 1.0, (
                f"{name}: measured {measured:+.2f} dB vs "
                f"predicted {predicted:+.2f} dB"
            )
