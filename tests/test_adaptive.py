"""Recursive beamformer state machine.

The inverse-matrix recursion is checked symbol by symbol against a
dense accumulate-and-invert reference, and the steady-state weight is
checked against the batch generalized-eigenvector solution on the same
data.
"""

import numpy as np
import pytest

from mpb_lab import adaptive
from mpb_lab.core import (
    basis_mic,
    basis_papc,
    covariances_from_arrays,
    project_stream,
    solve_batch,
)
from mpb_lab.linalg import subspace_angle
from mpb_lab.presets import convergence_scenario
from mpb_lab.scenario import synthesize


def random_snapshot(rng, num_elements=6, channels=3):
    """One symbol's (x_s, x_i) snapshots."""
    x_s = rng.standard_normal(num_elements) \
        + 1j * rng.standard_normal(num_elements)
    x_i = rng.standard_normal((num_elements, channels)) \
        + 1j * rng.standard_normal((num_elements, channels))
    return x_s, x_i


class TestInit:
    def test_initial_state_values(self):
        state = adaptive.init(8, mu=0.99, delta=1e-3)
        np.testing.assert_allclose(state.r_s, 1e-3 * np.eye(8), atol=1e-18)
        np.testing.assert_allclose(state.p, 1e3 * np.eye(8), atol=1e-9)
        expected_w = np.zeros(8, dtype=complex)
        expected_w[0] = 1.0
        np.testing.assert_array_equal(state.w, expected_w)
        np.testing.assert_allclose(state.r_s @ state.p, np.eye(8), atol=1e-12)
        assert state.symbol_count == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="num_elements"):
            adaptive.init(0, mu=0.99, delta=1e-3)
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive.init(4, mu=1.0, delta=1e-3)
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive.init(4, mu=0.0, delta=1e-3)
        with pytest.raises(ValueError, match="delta"):
            adaptive.init(4, mu=0.99, delta=0.0)


class TestUpdateSymbol:
    def test_output_uses_pre_update_weight(self, rng):
        state = adaptive.init(6, mu=0.95, delta=1e-2)
        x_s, x_i = random_snapshot(rng)
        # fresh state has w = e1, so the first output is just x_s[0]
        _, out = adaptive.update_symbol(state, x_s, x_i)
        assert out.y_o == pytest.approx(complex(x_s[0]), abs=1e-12)
        assert not np.array_equal(out.w, np.eye(6)[0])

    def test_zero_monitor_symbols_scale_inverse_once(self):
        # all-zero monitoring snapshots leave only the forgetting factor,
        # applied exactly once per symbol: P -> P / mu
        mu = 0.9
        state = adaptive.init(4, mu=mu, delta=1.0)
        x_s = np.zeros(4, dtype=complex)
        x_i = np.zeros((4, 5), dtype=complex)
        adaptive.update_symbol(state, x_s, x_i)
        np.testing.assert_allclose(state.p, np.eye(4) / mu, atol=1e-12)
        adaptive.update_symbol(state, x_s, x_i)
        np.testing.assert_allclose(state.p, np.eye(4) / mu**2, atol=1e-12)

    def test_inverse_tracks_dense_accumulation(self, rng):
        mu, delta = 0.97, 1e-2
        num_elements, channels = 6, 3
        state = adaptive.init(num_elements, mu, delta)
        dense = delta * np.eye(num_elements, dtype=complex)
        for k in range(200):
            x_s, x_i = random_snapshot(rng, num_elements, channels)
            adaptive.update_symbol(state, x_s, x_i)
            x_hat = x_i / np.sqrt(channels)
            dense = mu * dense + x_hat @ x_hat.conj().T
            np.testing.assert_allclose(
                state.p, np.linalg.inv(dense), atol=1e-8, rtol=1e-8
            )

    def test_signal_covariance_recursion(self, rng):
        mu, delta = 0.9, 1e-3
        state = adaptive.init(5, mu, delta)
        dense = delta * np.eye(5, dtype=complex)
        for k in range(50):
            x_s, x_i = random_snapshot(rng, 5, 2)
            adaptive.update_symbol(state, x_s, x_i)
            dense = mu * dense + np.outer(x_s, x_s.conj())
            np.testing.assert_allclose(state.r_s, dense, atol=1e-10)

    def test_asymmetry_diagnostic_stays_tiny(self, rng):
        state = adaptive.init(6, mu=0.98, delta=1e-3)
        worst = 0.0
        for k in range(500):
            _, out = adaptive.update_symbol(state, *random_snapshot(rng, 6, 4))
            worst = max(worst, out.p_asymmetry)
        assert worst <= 1e-10

    def test_non_finite_snapshot_leaves_state_untouched(self, rng):
        state = adaptive.init(4, mu=0.95, delta=1e-2)
        adaptive.update_symbol(state, *random_snapshot(rng, 4, 2))
        before = (state.r_s.copy(), state.p.copy(), state.w.copy(),
                  state.symbol_count)
        x_s, x_i = random_snapshot(rng, 4, 2)
        x_i[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            adaptive.update_symbol(state, x_s, x_i)
        np.testing.assert_array_equal(state.r_s, before[0])
        np.testing.assert_array_equal(state.p, before[1])
        np.testing.assert_array_equal(state.w, before[2])
        assert state.symbol_count == before[3]

    def test_shape_validation(self, rng):
        state = adaptive.init(4, mu=0.95, delta=1e-2)
        with pytest.raises(ValueError, match="does not match"):
            adaptive.update_symbol(state, *random_snapshot(rng, 5, 2))
        with pytest.raises(ValueError, match="invalid shape"):
            adaptive.update_symbol(state, np.zeros(4, dtype=complex),
                                   np.zeros((4, 0), dtype=complex))

    def test_symbol_count_and_output_index(self, rng):
        state = adaptive.init(4, mu=0.95, delta=1e-2)
        for k in range(5):
            _, out = adaptive.update_symbol(state, *random_snapshot(rng, 4, 2))
            assert out.symbol_index == k
        assert state.symbol_count == 5


class TestRun:
    def test_deterministic(self, code0):
        stream = synthesize(convergence_scenario(snr_db=20.0, num_symbols=60,
                                                 seed=4))
        a = adaptive.run(stream, code0, 0, mu=0.99, delta=1e-3)
        b = adaptive.run(stream, code0, 0, mu=0.99, delta=1e-3)
        assert len(a) == len(b) == 60
        for out_a, out_b in zip(a, b):
            assert out_a.y_o == out_b.y_o
            np.testing.assert_array_equal(out_a.w, out_b.w)

    def test_max_symbols_truncates(self, code0):
        stream = synthesize(convergence_scenario(snr_db=20.0, num_symbols=60,
                                                 seed=4))
        outputs = adaptive.run(stream, code0, 0, mu=0.99, delta=1e-3,
                               max_symbols=25)
        assert len(outputs) == 25

    def test_explicit_single_channel_basis(self, code0):
        stream = synthesize(convergence_scenario(snr_db=20.0, num_symbols=40,
                                                 seed=4))
        outputs = adaptive.run(
            stream, code0, 0, mu=0.99, delta=1e-3,
            basis=basis_papc(code0, chip_index=0),
        )
        assert len(outputs) == 40
        assert all(np.isfinite(out.y_o) for out in outputs)

    def test_default_basis_is_full_monitoring_set(self, code0):
        # spot check: default run equals an explicit full-basis run
        stream = synthesize(convergence_scenario(snr_db=20.0, num_symbols=30,
                                                 seed=4))
        default = adaptive.run(stream, code0, 0, mu=0.99, delta=1e-3)
        explicit = adaptive.run(stream, code0, 0, mu=0.99, delta=1e-3,
                                basis=basis_mic(code0))
        for out_d, out_e in zip(default, explicit):
            assert out_d.y_o == pytest.approx(out_e.y_o, abs=1e-9)

    def test_converges_to_batch_weight(self, code0):
        # with mu near one the recursion must land on the batch
        # generalized-eigenvector solution of the same data
        config = convergence_scenario(snr_db=20.0, num_symbols=500, seed=0)
        stream = synthesize(config)
        outputs = adaptive.run(stream, code0, 0, mu=0.999, delta=1e-3)
        x_s, x_i = project_stream(stream.samples, basis_mic(code0), 0)
        _, batch_weight = solve_batch(covariances_from_arrays(x_s, x_i))
        angle = subspace_angle(outputs[-1].w, batch_weight)
        assert angle <= 0.05
