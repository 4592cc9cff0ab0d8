"""Recursive beamformer state machine.

The inverse-matrix recursion is checked symbol by symbol against a
dense accumulate-and-invert reference, stacked trials are checked
against single-trial runs, and the steady-state weight is checked
against the batch generalized-eigenvector solution on the same data.
"""

import numpy as np
import pytest

from mpb_lab import adaptive
from mpb_lab.core import (
    basis_mic,
    basis_papc,
    project_stream,
    solve_batch,
)
from mpb_lab.oracles import covariances_from_arrays, subspace_angle
from mpb_lab.presets import convergence_scenario
from mpb_lab.scenario import synthesize


def random_snapshot(rng, num_trials=2, num_elements=6, channels=3):
    """One symbol's (x_s, x_i) snapshots of every trial."""
    x_s = rng.standard_normal((num_trials, num_elements)) \
        + 1j * rng.standard_normal((num_trials, num_elements))
    x_i = rng.standard_normal((num_trials, num_elements, channels)) \
        + 1j * rng.standard_normal((num_trials, num_elements, channels))
    return x_s, x_i


def random_stream(rng, num_trials, num_elements, num_symbols, channels):
    """(T, L, K) and (T, L, K, r) snapshot stacks for adaptive.run."""
    shapes = ((num_trials, num_elements, num_symbols),
              (num_trials, num_elements, num_symbols, channels))
    return tuple(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for shape in shapes)


def projected(code, num_symbols, seed=4, basis=None):
    """One trial's convergence-scenario snapshots, with a trial axis of 1."""
    stream = synthesize(convergence_scenario(snr_db=20.0, num_symbols=num_symbols,
                                             seed=seed))
    x_s, x_i = project_stream(stream.samples, basis or basis_mic(code), 0)
    return x_s[None], x_i[None]


class TestInit:
    def test_initial_state_values(self):
        state = adaptive.init(3, 8, mu=0.99, delta=1e-3)
        eye = np.broadcast_to(np.eye(8), (3, 8, 8))
        np.testing.assert_allclose(state.r_s, 1e-3 * eye, atol=1e-18)
        np.testing.assert_allclose(state.p, 1e3 * eye, atol=1e-9)
        expected_w = np.zeros((3, 8), dtype=complex)
        expected_w[:, 0] = 1.0
        np.testing.assert_array_equal(state.w, expected_w)
        np.testing.assert_allclose(state.r_s @ state.p, eye, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="num_elements"):
            adaptive.init(1, 0, mu=0.99, delta=1e-3)
        with pytest.raises(ValueError, match="num_trials"):
            adaptive.init(0, 4, mu=0.99, delta=1e-3)
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive.init(1, 4, mu=1.0, delta=1e-3)
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive.init(1, 4, mu=0.0, delta=1e-3)
        with pytest.raises(ValueError, match="delta"):
            adaptive.init(1, 4, mu=0.99, delta=0.0)


class TestUpdateSymbol:
    def test_output_uses_pre_update_weight(self, rng):
        state = adaptive.init(2, 6, mu=0.95, delta=1e-2)
        x_s, x_i = random_snapshot(rng)
        # fresh state has w = e1, so the first output is just x_s[:, 0]
        y_o, _ = adaptive.update_symbol(state, x_s, x_i)
        np.testing.assert_allclose(y_o, x_s[:, 0], atol=1e-12)
        assert not np.array_equal(state.w[0], np.eye(6)[0])

    def test_zero_monitor_symbols_scale_inverse_once(self):
        # all-zero monitoring snapshots leave only the forgetting factor,
        # applied exactly once per symbol: P -> P / mu
        mu = 0.9
        state = adaptive.init(2, 4, mu=mu, delta=1.0)
        x_s = np.zeros((2, 4), dtype=complex)
        x_i = np.zeros((2, 4, 5), dtype=complex)
        eye = np.broadcast_to(np.eye(4), (2, 4, 4))
        adaptive.update_symbol(state, x_s, x_i)
        np.testing.assert_allclose(state.p, eye / mu, atol=1e-12)
        adaptive.update_symbol(state, x_s, x_i)
        np.testing.assert_allclose(state.p, eye / mu**2, atol=1e-12)

    def test_inverse_tracks_dense_accumulation(self, rng):
        mu, delta = 0.97, 1e-2
        trials, num_elements, channels = 3, 6, 3
        state = adaptive.init(trials, num_elements, mu, delta)
        dense = delta * np.broadcast_to(np.eye(num_elements, dtype=complex),
                                        (trials, num_elements, num_elements))
        for k in range(200):
            x_s, x_i = random_snapshot(rng, trials, num_elements, channels)
            adaptive.update_symbol(state, x_s, x_i)
            x_hat = x_i / np.sqrt(channels)
            dense = mu * dense + x_hat @ x_hat.conj().swapaxes(-1, -2)
            np.testing.assert_allclose(
                state.p, np.linalg.inv(dense), atol=1e-8, rtol=1e-8
            )

    def test_signal_covariance_recursion(self, rng):
        mu, delta = 0.9, 1e-3
        state = adaptive.init(2, 5, mu, delta)
        dense = delta * np.broadcast_to(np.eye(5, dtype=complex), (2, 5, 5))
        for k in range(50):
            x_s, x_i = random_snapshot(rng, 2, 5, 2)
            adaptive.update_symbol(state, x_s, x_i)
            dense = mu * dense + x_s[:, :, None] * x_s[:, None, :].conj()
            np.testing.assert_allclose(state.r_s, dense, atol=1e-10)

    def test_asymmetry_diagnostic_stays_tiny(self, rng):
        out = adaptive.run(*random_stream(rng, 3, 6, 500, 4), mu=0.98, delta=1e-3)
        assert out.p_asymmetry.shape == (3, 500)
        assert np.max(out.p_asymmetry) <= 1e-10

    def test_non_finite_snapshot_leaves_state_untouched(self, rng, monkeypatch):
        # run checks every snapshot before the first symbol is processed
        steps = []
        monkeypatch.setattr(adaptive, "update_symbol",
                            lambda *args: steps.append(args))
        x_s = np.ones((2, 4, 10), dtype=complex)
        x_i = np.ones((2, 4, 10, 2), dtype=complex)
        x_i[1, 2, 9, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            adaptive.run(x_s, x_i, mu=0.95, delta=1e-2)
        x_i[1, 2, 9, 1] = 1.0
        x_s[0, 0, 9] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            adaptive.run(x_s, x_i, mu=0.95, delta=1e-2)
        assert steps == []

    def test_shape_validation(self):
        x_s = np.zeros((2, 4, 10), dtype=complex)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            adaptive.run(x_s, np.zeros((2, 5, 10, 2), dtype=complex), 0.95, 1e-2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            adaptive.run(x_s[0], np.zeros((4, 10, 2), dtype=complex), 0.95, 1e-2)
        with pytest.raises(ValueError, match="one channel"):
            adaptive.run(x_s, np.zeros((2, 4, 10, 0), dtype=complex), 0.95, 1e-2)
        with pytest.raises(ValueError, match="one symbol"):
            adaptive.run(x_s[:, :, :0], np.zeros((2, 4, 0, 2), dtype=complex),
                         0.95, 1e-2)

    def test_symbol_count_and_output_index(self, rng):
        x_s, x_i = random_stream(rng, 3, 4, 5, 2)
        out = adaptive.run(x_s, x_i, mu=0.95, delta=1e-2)
        assert out.y_o.shape == out.p_asymmetry.shape == (3, 5)
        assert out.w.shape == (3, 5, 4)
        state = adaptive.init(3, 4, mu=0.95, delta=1e-2)
        for k in range(5):
            y_o, _ = adaptive.update_symbol(state, x_s[:, :, k], x_i[:, :, k])
            np.testing.assert_array_equal(y_o, out.y_o[:, k])


class TestRun:
    def test_deterministic(self, code0):
        x_s, x_i = projected(code0, 60)
        a = adaptive.run(x_s, x_i, mu=0.99, delta=1e-3)
        b = adaptive.run(x_s, x_i, mu=0.99, delta=1e-3)
        assert a.y_o.shape == (1, 60)
        np.testing.assert_array_equal(a.y_o, b.y_o)
        np.testing.assert_array_equal(a.w, b.w)

    def test_weight_is_the_one_that_produced_the_output(self, rng):
        x_s, x_i = random_stream(rng, 2, 4, 6, 3)
        out = adaptive.run(x_s, x_i, mu=0.95, delta=1e-2)
        np.testing.assert_array_equal(out.w[:, 0], np.broadcast_to(np.eye(4)[0], (2, 4)))
        produced = np.einsum("tkl,tlk->tk", out.w.conj(), x_s)
        np.testing.assert_allclose(out.y_o, produced, rtol=1e-12)

    def test_stacked_trials_equal_single_trial_runs(self, code0):
        singles = [projected(code0, 40, seed=seed) for seed in range(4)]
        stacked = adaptive.run(
            np.concatenate([x_s for x_s, _ in singles]),
            np.concatenate([x_i for _, x_i in singles]),
            mu=0.99, delta=1e-3,
        )
        for t, (x_s, x_i) in enumerate(singles):
            single = adaptive.run(x_s, x_i, mu=0.99, delta=1e-3)
            np.testing.assert_array_equal(stacked.y_o[t], single.y_o[0])
            np.testing.assert_array_equal(stacked.w[t], single.w[0])
            np.testing.assert_array_equal(stacked.p_asymmetry[t],
                                          single.p_asymmetry[0])

    def test_explicit_single_channel_basis(self, code0):
        x_s, x_i = projected(code0, 40, basis=basis_papc(code0, chip_index=0))
        assert x_i.shape[-1] == 1
        out = adaptive.run(x_s, x_i, mu=0.99, delta=1e-3)
        assert out.y_o.shape == (1, 40)
        assert np.all(np.isfinite(out.y_o)) and np.all(np.isfinite(out.w))

    def test_converges_to_batch_weight(self, code0):
        # with mu near one the recursion must land on the batch
        # generalized-eigenvector solution of the same data
        x_s, x_i = projected(code0, 500, seed=0)
        out = adaptive.run(x_s, x_i, mu=0.999, delta=1e-3)
        _, batch_weight = solve_batch(covariances_from_arrays(x_s[0], x_i[0]))
        angle = subspace_angle(out.w[0, -1], batch_weight)
        assert angle <= 0.05
