"""Recursive beamformer: its pure step and its driver.

The monitor factor rows are checked against the Gram they factor, the
inverse-matrix recursion symbol by symbol against a dense
accumulate-and-invert reference, stacked trials against single-trial
runs, and the steady-state weight against the batch
generalized-eigenvector solution on the same data.
"""

from dataclasses import replace

import numpy as np
import pytest

from mpb_lab import adaptive, linalg
from mpb_lab.core import (
    make_basis,
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


def factored(x_i):
    """adaptive.run's (..., K, m, L) factor rows of (..., L, K, r) snapshots."""
    return adaptive.monitor_factors(x_i.swapaxes(-3, -2))


def random_stream(rng, num_trials, num_elements, num_symbols, channels):
    """(T, L, K) snapshots and (T, K, m, L) factor rows for adaptive.run."""
    shapes = ((num_trials, num_elements, num_symbols),
              (num_trials, num_elements, num_symbols, channels))
    x_s, x_i = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in shapes)
    return x_s, factored(x_i)


def projected(code, num_symbols, seed=4, basis=None):
    """One trial's convergence-scenario snapshots, with a trial axis of 1."""
    stream = synthesize(convergence_scenario(snr_db=20.0, num_symbols=num_symbols,
                                             seed=seed))
    x_s, x_i = project_stream(stream.samples, basis or make_basis("MIC", code), 0)
    return x_s[None], x_i[None]


def initial(num_trials, num_elements, delta):
    """run's starting state (r_s, p, w): delta I, I/delta and e1."""
    eye = np.broadcast_to(np.eye(num_elements, dtype=complex),
                          (num_trials, num_elements, num_elements))
    w = np.zeros((num_trials, num_elements), dtype=complex)
    w[:, 0] = 1.0
    return delta * eye, (1.0 / delta) * eye, w


def step(state, x_s, x_i, mu):
    """update_symbol on one symbol's (T, L) and (T, L, r) snapshots."""
    return adaptive.update_symbol(*state, x_s, adaptive.monitor_factors(x_i), mu)


class TestFactors:
    @pytest.mark.parametrize("num_elements, channels", [(6, 3), (6, 6), (6, 9)],
                             ids=["channels_below_elements", "channels_equal_elements",
                                  "channels_above_elements"])
    def test_rows_reproduce_the_gram_over_r(self, rng, num_elements, channels):
        # min(L, r) rows per symbol whose outer products sum to x_i x_i^H / r
        _, x_i = random_snapshot(rng, 3, num_elements, channels)
        rows = adaptive.monitor_factors(x_i)
        assert rows.shape == (3, min(num_elements, channels), num_elements)
        gram = x_i @ x_i.conj().swapaxes(-1, -2) / channels
        np.testing.assert_allclose(rows.swapaxes(-1, -2) @ rows.conj(), gram,
                                   rtol=0, atol=1e-12 * np.max(np.abs(gram)))
        if channels <= num_elements:
            # no decomposition: the snapshots themselves, scaled
            np.testing.assert_array_equal(
                rows, x_i.swapaxes(-1, -2) * (1.0 / np.sqrt(channels)))

    @pytest.mark.parametrize("scheme, elements", [
        ("PAPC", 10), ("MIC", 10), ("MIC", 32),
    ], ids=["one_channel", "mic_channels_above_elements",
            "mic_channels_below_elements"])
    def test_rows_reproduce_the_projected_monitor_gram(self, code0, scheme,
                                                        elements):
        # per symbol of a scenario stream, the rows' outer products sum to
        # x_i x_i^H / r of the projected monitor channels: MIC's 30
        # channels on 10 elements take the Cholesky route, on 32 the
        # snapshot route. The bound, 1e-12 of each symbol's Gram norm,
        # is fixed before comparing.
        config = convergence_scenario(snr_db=30.0, num_symbols=60, seed=(5, 1))
        config = replace(config, geometry=replace(config.geometry,
                                                  num_elements=elements))
        basis = make_basis(scheme, code0)
        _, x_i = project_stream(synthesize(config).samples, basis, 3)
        x_i = x_i.swapaxes(0, 1)
        rows = adaptive.monitor_factors(x_i)
        assert rows.shape == (len(x_i), min(elements, basis.num_channels), elements)
        gram = x_i @ x_i.conj().swapaxes(-1, -2)
        got = basis.num_channels * rows.swapaxes(-1, -2) @ rows.conj()
        gap = np.linalg.norm(got - gram, axis=(-2, -1))
        assert np.all(gap <= 1e-12 * np.linalg.norm(gram, axis=(-2, -1))), gap.max()

    def test_failed_factorization_names_the_input(self):
        # a rank-deficient or non-finite monitor Gram is a ValueError that
        # names the recursion input, never a bare LinAlgError
        x_i = np.zeros((2, 4, 6), dtype=complex)
        with pytest.raises(ValueError, match="recursion input"):
            adaptive.monitor_factors(x_i)
        x_i[:] = 1.0
        x_i[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="recursion input"):
            adaptive.monitor_factors(x_i)


class TestInit:
    """run's initial state and the rule on its settings."""

    def test_initial_state_values(self, rng):
        # output 0 comes from e1, output 1 from one pure step of
        # R_S = delta I, P = I/delta, w = e1
        x_s, factors = random_stream(rng, 3, 8, 2, 4)
        w = adaptive.run(x_s, factors, mu=0.99, delta=1e-3)
        np.testing.assert_array_equal(w[:, 0], np.broadcast_to(np.eye(8)[0], (3, 8)))
        state = initial(3, 8, 1e-3)
        np.testing.assert_allclose(state[0] @ state[1],
                                   np.broadcast_to(np.eye(8), (3, 8, 8)), atol=1e-12)
        _, _, w1 = adaptive.update_symbol(*state, x_s[:, :, 0], factors[:, 0], 0.99)
        np.testing.assert_array_equal(w[:, 1], w1)

    def test_parameter_validation(self):
        assert adaptive.check_settings(0.99, 1e-3) is None
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive.check_settings(1.0, 1e-3)
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive.check_settings(0.0, 1e-3)
        with pytest.raises(ValueError, match="delta"):
            adaptive.check_settings(0.99, 0.0)
        # run applies the same rule, and needs a trial and an element
        x_s, factors = np.ones((1, 4, 3), dtype=complex), np.ones((1, 3, 1, 4))
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive.run(x_s, factors, mu=1.0, delta=1e-3)
        with pytest.raises(ValueError, match="delta"):
            adaptive.run(x_s, factors, mu=0.99, delta=0.0)
        with pytest.raises(ValueError, match="num_elements"):
            adaptive.run(x_s[:, :0], factors[..., :0], mu=0.99, delta=1e-3)
        with pytest.raises(ValueError, match="num_trials"):
            adaptive.run(x_s[:0], factors[:0], mu=0.99, delta=1e-3)


class TestUpdateSymbol:
    def test_output_uses_pre_update_weight(self, rng):
        # the step returns the next (r_s, p, w), leaves its inputs as
        # they were, and moves the weight away from e1, the one that
        # produces output 0
        x_s, x_i = random_snapshot(rng)
        inputs = (*initial(2, 6, 1e-2), x_s, adaptive.monitor_factors(x_i))
        copies = [a.copy() for a in inputs]
        r_s, p, w = adaptive.update_symbol(*inputs, 0.95)
        assert r_s.shape == p.shape == (2, 6, 6) and w.shape == (2, 6)
        for before, after in zip(copies, inputs):
            np.testing.assert_array_equal(before, after)
        assert not np.array_equal(w[0], np.eye(6)[0])

    def test_zero_monitor_symbols_scale_inverse_once(self):
        # all-zero monitoring snapshots leave only the forgetting factor,
        # applied exactly once per symbol: P -> P / mu
        mu = 0.9
        state = initial(2, 4, 1.0)
        x_s = np.zeros((2, 4), dtype=complex)
        x_i = np.zeros((2, 4, 3), dtype=complex)
        eye = np.broadcast_to(np.eye(4), (2, 4, 4))
        state = step(state, x_s, x_i, mu)
        np.testing.assert_allclose(state[1], eye / mu, atol=1e-12)
        state = step(state, x_s, x_i, mu)
        np.testing.assert_allclose(state[1], eye / mu**2, atol=1e-12)
        # with r > L the factor rows come from a Cholesky factor of the
        # monitor Gram, which zero snapshots do not have: rejected
        with pytest.raises(ValueError, match="recursion input"):
            step(state, x_s, np.zeros((2, 4, 5), dtype=complex), mu)

    @pytest.mark.parametrize(
        "num_elements, channels", [(6, 3), (6, 9), (10, 30)],
        ids=["channels_below_elements", "channels_above_elements", "mic_shape"],
    )
    def test_inverse_tracks_dense_accumulation(self, rng, num_elements, channels):
        # the factored update adds exactly x_i x_i^H / r, whatever the rank
        mu, delta = 0.97, 1e-2
        trials = 3
        state = initial(trials, num_elements, delta)
        dense = delta * np.broadcast_to(np.eye(num_elements, dtype=complex),
                                        (trials, num_elements, num_elements))
        for k in range(200):
            x_s, x_i = random_snapshot(rng, trials, num_elements, channels)
            state = step(state, x_s, x_i, mu)
            x_hat = x_i / np.sqrt(channels)
            dense = mu * dense + x_hat @ x_hat.conj().swapaxes(-1, -2)
            np.testing.assert_allclose(
                state[1], np.linalg.inv(dense), atol=1e-8, rtol=1e-8
            )

    @pytest.mark.parametrize("num_elements, channels",
                             [(6, 1), (6, 3), (6, 9), (10, 30)])
    def test_one_inverse_update_per_symbol(self, rng, monkeypatch,
                                           num_elements, channels):
        # x_i x_i^H has rank m = min(L, r): one inverse update per symbol,
        # carrying mu, on the (T, m, L) factor block, or on the (T, L)
        # row when m = 1 (the scalar rank-one arithmetic)
        calls = []
        inverse_update = linalg.rank_one_inverse_update

        def spy(p, x, mu):
            calls.append((x.shape, mu))
            return inverse_update(p, x, mu)

        monkeypatch.setattr(linalg, "rank_one_inverse_update", spy)
        state = initial(2, num_elements, 1e-2)
        for k in range(3):
            state = step(state, *random_snapshot(rng, 2, num_elements, channels), 0.9)
        m = min(num_elements, channels)
        shape = (2, m, num_elements) if m > 1 else (2, num_elements)
        assert calls == 3 * [(shape, 0.9)]

    def test_signal_covariance_recursion(self, rng):
        mu, delta = 0.9, 1e-3
        state = initial(2, 5, delta)
        dense = delta * np.broadcast_to(np.eye(5, dtype=complex), (2, 5, 5))
        for k in range(50):
            x_s, x_i = random_snapshot(rng, 2, 5, 2)
            state = step(state, x_s, x_i, mu)
            dense = mu * dense + x_s[:, :, None] * x_s[:, None, :].conj()
            np.testing.assert_allclose(state[0], dense, atol=1e-10)

    def test_non_finite_snapshot_leaves_state_untouched(self, rng, monkeypatch):
        # run checks every snapshot before the first symbol is processed
        steps = []
        monkeypatch.setattr(adaptive, "update_symbol",
                            lambda *args: steps.append(args))
        x_s = np.ones((2, 4, 10), dtype=complex)
        factors = np.ones((2, 10, 2, 4), dtype=complex)
        factors[1, 9, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            adaptive.run(x_s, factors, mu=0.95, delta=1e-2)
        factors[1, 9, 1, 2] = 1.0
        x_s[0, 0, 9] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            adaptive.run(x_s, factors, mu=0.95, delta=1e-2)
        assert steps == []

    def test_shape_validation(self):
        x_s = np.zeros((2, 4, 10), dtype=complex)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            adaptive.run(x_s, np.zeros((2, 10, 2, 5), dtype=complex), 0.95, 1e-2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            adaptive.run(x_s, np.zeros((2, 9, 2, 4), dtype=complex), 0.95, 1e-2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            adaptive.run(x_s[0], np.zeros((10, 2, 4), dtype=complex), 0.95, 1e-2)
        with pytest.raises(ValueError, match="one channel"):
            adaptive.run(x_s, np.zeros((2, 10, 0, 4), dtype=complex), 0.95, 1e-2)
        with pytest.raises(ValueError, match="one symbol"):
            adaptive.run(x_s[:, :, :0], np.zeros((2, 0, 2, 4), dtype=complex),
                         0.95, 1e-2)

    def test_symbol_count_and_output_index(self, rng, monkeypatch):
        # one step per symbol, each given symbol k's snapshot and factor
        # rows, and one (T, L) weight per symbol
        x_s, factors = random_stream(rng, 3, 4, 5, 2)
        seen = []
        update_symbol = adaptive.update_symbol

        def spy(r_s, p, w, x, factor, mu):
            seen.append((x, factor))
            return update_symbol(r_s, p, w, x, factor, mu)

        monkeypatch.setattr(adaptive, "update_symbol", spy)
        w = adaptive.run(x_s, factors, mu=0.95, delta=1e-2)
        assert w.shape == (3, 5, 4)
        assert len(seen) == 5
        for k, (x, factor) in enumerate(seen):
            np.testing.assert_array_equal(x, x_s[:, :, k])
            np.testing.assert_array_equal(factor, factors[:, k])


class TestRun:
    def test_deterministic(self, code0):
        x_s, x_i = projected(code0, 60)
        a = adaptive.run(x_s, factored(x_i), mu=0.99, delta=1e-3)
        b = adaptive.run(x_s, factored(x_i), mu=0.99, delta=1e-3)
        assert a.shape == (1, 60, 10)
        np.testing.assert_array_equal(a, b)

    def test_weight_is_the_one_that_produced_the_output(self, rng):
        # w[:, k] is the weight held before symbol k's update: e1 at k = 0
        x_s, factors = random_stream(rng, 2, 4, 6, 3)
        w = adaptive.run(x_s, factors, mu=0.95, delta=1e-2)
        state = initial(2, 4, 1e-2)
        for k in range(6):
            np.testing.assert_array_equal(w[:, k], state[2])
            state = adaptive.update_symbol(*state, x_s[:, :, k], factors[:, k], 0.95)

    def test_stacked_trials_equal_single_trial_runs(self, code0):
        singles = [projected(code0, 40, seed=seed) for seed in range(4)]
        stacked = adaptive.run(
            np.concatenate([x_s for x_s, _ in singles]),
            np.concatenate([factored(x_i) for _, x_i in singles]),
            mu=0.99, delta=1e-3,
        )
        for t, (x_s, x_i) in enumerate(singles):
            single = adaptive.run(x_s, factored(x_i), mu=0.99, delta=1e-3)
            np.testing.assert_array_equal(stacked[t], single[0])

    def test_weights_written_into_a_caller_block(self, rng):
        # out is filled in place and returned; a block of the wrong
        # shape or dtype is rejected before any symbol
        x_s, factors = random_stream(rng, 2, 4, 6, 3)
        block = np.zeros((4, 6, 4), dtype=complex)
        out = block[1:3]
        assert adaptive.run(x_s, factors, mu=0.95, delta=1e-2, out=out) is out
        np.testing.assert_array_equal(
            block[1:3], adaptive.run(x_s, factors, mu=0.95, delta=1e-2)
        )
        assert not block[0].any() and not block[3].any()
        for bad in (block, block[1:3].real.copy(), block[1:3, :, :3]):
            with pytest.raises(ValueError, match="out must be"):
                adaptive.run(x_s, factors, mu=0.95, delta=1e-2, out=bad)

    def test_explicit_single_channel_basis(self, code0):
        x_s, x_i = projected(code0, 40, basis=make_basis("PAPC", code0, chip_index=0))
        assert x_i.shape[-1] == 1
        w = adaptive.run(x_s, factored(x_i), mu=0.99, delta=1e-3)
        assert w.shape == (1, 40, 10)
        assert np.all(np.isfinite(w))

    def test_converges_to_batch_weight(self, code0):
        # with mu near one the recursion must land on the batch
        # generalized-eigenvector solution of the same data
        x_s, x_i = projected(code0, 500, seed=0)
        w = adaptive.run(x_s, factored(x_i), mu=0.999, delta=1e-3)
        _, batch_weight = solve_batch(covariances_from_arrays(x_s[0], x_i[0]))
        angle = subspace_angle(w[0, -1], batch_weight)
        assert angle <= 0.05
