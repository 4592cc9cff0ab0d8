"""Spreading codes, array responses, and stream synthesis.

The correlation properties of the code family are verified by
brute-force enumeration (independent of the generator), and the
synthesized streams are checked against their analytic per-component
forms and calibration targets.
"""

import functools
import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mpb_lab.core import gram, make_basis, project_stream
from mpb_lab.oracles import gold_correlation_levels
from mpb_lab.presets import (
    PERIODIC_NOISE_WAVEFORM_SEEDS,
    five_tones_scenario,
    multipath_mai_scenario,
    periodic_noise_scenario,
)
from mpb_lab.scenario import (
    CODE_LENGTH,
    GOLD_FAMILY_SIZE,
    ArrayGeometry,
    JammerSpec,
    PathSpec,
    ScenarioConfig,
    _TONE_BLOCK,
    _USER_CODE_ORDER,
    desired_path_power,
    generate_gold_codes,
    gold_family_bits,
    group_identical_delays,
    interference_moments,
    steering_vector,
    synthesize,
)


def make_config(**overrides):
    base = dict(
        geometry=ArrayGeometry(num_elements=8),
        chip_rate_hz=3.1e6,
        symbol_rate_hz=1e5,
        num_symbols=50,
        snr_db=0.0,
        desired=[PathSpec(user_index=0, doa_deg=0.0)],
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGoldCodes:
    def test_family_shape_and_alphabet(self):
        bits = gold_family_bits()
        assert bits.shape == (GOLD_FAMILY_SIZE, CODE_LENGTH)
        assert set(np.unique(bits)) <= {0, 1}

    def test_codes_are_pm1_and_distinct(self):
        codes = generate_gold_codes(GOLD_FAMILY_SIZE)
        assert len(codes) == GOLD_FAMILY_SIZE
        seen = set()
        for code in codes:
            assert code.length == CODE_LENGTH
            assert set(np.unique(code.chips)) == {-1.0, 1.0}
            seen.add(tuple(code.chips.astype(int)))
        assert len(seen) == GOLD_FAMILY_SIZE

    def test_correlation_levels_brute_force(self):
        cross, auto_offpeak = gold_correlation_levels()
        assert set(cross) == {-9, -1, 7}
        assert set(auto_offpeak) == {-9, -1, 7}

    def test_frozen_user_assignment(self):
        # regression pin: the user -> family-member table is part of the
        # reproducibility contract and must never drift
        family = 1.0 - 2.0 * gold_family_bits()
        codes = generate_gold_codes(3)
        np.testing.assert_array_equal(codes[0].chips, family[_USER_CODE_ORDER[0]])
        np.testing.assert_array_equal(codes[1].chips, family[_USER_CODE_ORDER[1]])
        assert _USER_CODE_ORDER[:2] == (31, 23)

    def test_family_built_once_and_read_only(self):
        family = gold_family_bits()
        assert gold_family_bits() is family
        assert not family.flags.writeable
        with pytest.raises(ValueError):
            family[0, 0] = 1 - family[0, 0]

    def test_all_codes_unchanged(self):
        # regression pin: sha256 of all 33 codes' float64 chips, user order
        codes = generate_gold_codes(GOLD_FAMILY_SIZE)
        chips = np.stack([code.chips for code in codes])
        assert chips.dtype == np.float64
        assert hashlib.sha256(chips.tobytes()).hexdigest() == (
            "b5f4f6a4844577b812e15eaf10701c5029cf467401fe9073bae9e736d2631209"
        )
        # each call hands out its own writeable chips
        assert all(code.chips.flags.writeable for code in codes)

    def test_deterministic_across_calls(self):
        first = generate_gold_codes(5)
        second = generate_gold_codes(5)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.chips, b.chips)

    def test_user_count_bounds(self):
        with pytest.raises(ValueError):
            generate_gold_codes(0)
        with pytest.raises(ValueError):
            generate_gold_codes(GOLD_FAMILY_SIZE + 1)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        vec = steering_vector(ArrayGeometry(num_elements=8), 0.0)
        np.testing.assert_allclose(vec, np.ones(8), atol=1e-15)

    def test_two_element_quarter_turn(self):
        vec = steering_vector(
            ArrayGeometry(num_elements=2, spacing_wavelengths=0.5), 30.0
        )
        np.testing.assert_allclose(vec, [1.0, -1j], atol=1e-12)

    def test_opposite_angles_conjugate(self):
        geom = ArrayGeometry(num_elements=8)
        plus = steering_vector(geom, 45.0)
        minus = steering_vector(geom, -45.0)
        np.testing.assert_allclose(plus, minus.conj(), atol=1e-14)

    def test_unit_modulus(self):
        vec = steering_vector(ArrayGeometry(num_elements=6), 37.5)
        np.testing.assert_allclose(np.abs(vec), np.ones(6), atol=1e-14)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError, match="doa_deg"):
            steering_vector(ArrayGeometry(num_elements=4), 120.0)


class TestGroupIdenticalDelays:
    def test_distinct_delays_are_singletons(self):
        paths = [PathSpec(0, 0.0, 0), PathSpec(0, 12.0, 3)]
        assert group_identical_delays(paths) == [[0], [1]]

    def test_same_delay_shares_group(self):
        paths = [PathSpec(0, 0.0, 0), PathSpec(0, 12.0, 0)]
        assert group_identical_delays(paths) == [[0, 1]]

    def test_mixed_four_paths(self):
        paths = [
            PathSpec(0, 0.0, 0),
            PathSpec(0, 5.0, 0),
            PathSpec(0, 10.0, 3),
            PathSpec(0, 15.0, 5),
        ]
        assert group_identical_delays(paths) == [[0, 1], [2], [3]]


class TestSynthesize:
    def test_additivity_exact(self, rendered):
        stream = synthesize(make_config(jammers=[
            JammerSpec(kind="tone", doa_deg=25.0, inr_db=10.0, tone_offset_hz=1e5)
        ]))
        soi, waves = rendered(stream)
        assert stream.soi_steering.shape == (8, 1)
        assert stream.steering.shape == (8, 1)
        np.testing.assert_array_equal(
            stream.samples,
            stream.soi_steering @ soi + stream.steering @ waves + stream.noise,
        )

    def test_seed_reproducibility_bit_identical(self):
        config = make_config(jammers=[
            JammerSpec(kind="bpsk_broadband", doa_deg=40.0, inr_db=20.0)
        ])
        a = synthesize(config)
        b = synthesize(config)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_noise_draw_order_is_pinned(self):
        # the reproducibility contract: user symbols by ascending user
        # index, then the jammers in list order, then the noise as one
        # (L, chips) real draw followed by one imaginary draw
        config = make_config(
            noise_power=2.0,
            mais=[PathSpec(user_index=3, doa_deg=20.0, delay_chips=2, power=1.5)],
            jammers=[
                JammerSpec(kind="tone", doa_deg=25.0, inr_db=10.0,
                           tone_offset_hz=1e5),
                JammerSpec(kind="bpsk_broadband", doa_deg=-40.0, inr_db=20.0),
            ],
        )
        total = config.num_symbols * config.processing_gain
        rng = np.random.default_rng(config.seed)
        for _user in (0, 3):
            rng.integers(0, 2, size=config.num_symbols + 1)
        rng.uniform(0.0, 2.0 * np.pi)
        rng.integers(0, 2, size=total)
        shape = (config.geometry.num_elements, total)
        sigma = math.sqrt(config.noise_power / 2.0)
        expected = sigma * (rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        noise = synthesize(config).noise
        assert noise.dtype == expected.dtype and noise.shape == expected.shape
        assert noise.tobytes() == expected.tobytes()

    def test_different_seeds_differ(self):
        a = synthesize(make_config(seed=1))
        b = synthesize(make_config(seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_single_path_component_is_analytic(self, code0, rendered):
        config = make_config(snr_db=6.0)
        stream = synthesize(config)
        p0 = desired_path_power(config, config.desired[0])
        sym = stream.symbols[0]  # index 0 holds the k = -1 lead-in symbol
        soi = stream.soi_steering @ rendered(stream)[0]
        n = CODE_LENGTH
        for k in (0, 3, 49):
            window = soi[:, k * n : (k + 1) * n]
            expected = math.sqrt(p0) * sym[k + 1] * code0.chips
            # broadside path: every element carries the same waveform
            for l in range(config.geometry.num_elements):
                np.testing.assert_allclose(window[l], expected, rtol=1e-12)

    def test_delayed_path_uses_previous_symbol_head(self, code0, rendered):
        config = make_config(
            desired=[PathSpec(user_index=0, doa_deg=0.0, delay_chips=3)],
            snr_db=0.0,
        )
        stream = synthesize(config)
        p0 = desired_path_power(config, config.desired[0])
        sym = stream.symbols[0]
        # first three chips belong to the tail of the k = -1 symbol
        head = (stream.soi_steering @ rendered(stream)[0])[0, :3]
        expected = math.sqrt(p0) * sym[0] * code0.chips[-3:]
        np.testing.assert_allclose(head, expected, rtol=1e-12)

    def test_noise_only_covariance_near_identity(self):
        config = make_config(desired=[], num_symbols=10000, noise_power=2.0)
        stream = synthesize(config)
        x = stream.samples
        cov = (x @ x.conj().T) / x.shape[1]
        target = 2.0 * np.eye(8)
        gap = np.linalg.norm(cov - target, "fro") / np.linalg.norm(target, "fro")
        assert gap <= 0.05

    def test_tone_constant_modulus(self, rendered):
        config = make_config(jammers=[
            JammerSpec(kind="tone", doa_deg=25.0, inr_db=13.0, tone_offset_hz=2e5)
        ])
        stream = synthesize(config)
        wave = rendered(stream)[1][0]
        np.testing.assert_allclose(
            np.abs(wave), np.full(wave.size, np.abs(wave[0])), rtol=1e-12
        )

    def test_tone_matches_per_chip_phasor(self, rendered):
        # synthesis builds the row from one coarse phasor per block and
        # one fine ramp; it must equal the per-chip exp on a long stream
        # that ends in a partial block
        offset_hz = 400e3
        config = make_config(
            geometry=ArrayGeometry(num_elements=2), num_symbols=25000,
            jammers=[JammerSpec(kind="tone", doa_deg=25.0, inr_db=30.0,
                                tone_offset_hz=offset_hz)],
        )
        total = config.num_symbols * config.processing_gain
        assert total % _TONE_BLOCK
        rng = np.random.default_rng(config.seed)
        rng.integers(0, 2, size=config.num_symbols + 1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        freq = offset_hz / config.chip_rate_hz
        expected = math.sqrt(1e3) * np.exp(
            1j * (2.0 * np.pi * freq * np.arange(total) + phase)
        )
        wave = rendered(synthesize(config))[1][0]
        gap = np.linalg.norm(wave - expected) / np.linalg.norm(expected)
        assert gap <= 1e-10, gap

    def test_periodic_jammer_exact_period(self, rendered):
        config = make_config(jammers=[
            JammerSpec(kind="periodic_white_noise", doa_deg=30.0, inr_db=10.0)
        ])
        stream = synthesize(config)
        wave = rendered(stream)[1][0]
        np.testing.assert_array_equal(wave[CODE_LENGTH:], wave[:-CODE_LENGTH])

    def test_waveform_seed_pins_the_period(self, rendered):
        def jam(seed):
            return JammerSpec(
                kind="periodic_white_noise", doa_deg=30.0, inr_db=10.0,
                waveform_seed=seed,
            )

        pinned_a = synthesize(make_config(seed=100, jammers=[jam(1589)]))
        pinned_b = synthesize(make_config(seed=200, jammers=[jam(1589)]))
        np.testing.assert_array_equal(rendered(pinned_a)[1][0],
                                      rendered(pinned_b)[1][0])
        free_a = synthesize(make_config(seed=100, jammers=[jam(None)]))
        free_b = synthesize(make_config(seed=200, jammers=[jam(None)]))
        assert not np.array_equal(rendered(free_a)[1][0], rendered(free_b)[1][0])

    @pytest.mark.parametrize(
        "builder", [periodic_noise_scenario, multipath_mai_scenario,
                    five_tones_scenario],
    )
    def test_interferer_power_calibration(self, builder, rendered):
        inr_db = 10.0
        config = builder(inr_db, snr_db=0.0, num_symbols=10000, seed=5)
        stream = synthesize(config)
        for idx, wave in enumerate(rendered(stream)[1]):
            measured = float(np.mean(np.abs(wave) ** 2))
            expected = config.noise_power * 10.0 ** (inr_db / 10.0)
            assert abs(measured - expected) <= 0.03 * expected, f"interferer {idx}"

    def test_soi_post_despreading_snr_calibration(self, code0, rendered):
        snr_db = 10.0
        config = make_config(snr_db=snr_db, num_symbols=10000)
        stream = synthesize(config)
        soi = stream.soi_steering @ rendered(stream)[0]
        x_s, _ = project_stream(soi, make_basis("MIC", code0), 0)
        # per-element despread power over the per-element noise power
        measured = float(np.mean(np.abs(x_s) ** 2)) / config.noise_power
        expected = 10.0 ** (snr_db / 10.0)
        assert abs(measured - expected) <= 0.03 * expected

    def test_mai_streams_use_their_own_codes(self, rendered):
        config = make_config(
            mais=[PathSpec(user_index=1, doa_deg=30.0, delay_chips=0, power=4.0)],
        )
        stream = synthesize(config)
        wave = rendered(stream)[1][0]
        chips1 = generate_gold_codes(2)[1].chips
        sym1 = stream.symbols[1]
        expected = 2.0 * sym1[1] * chips1
        np.testing.assert_allclose(wave[:CODE_LENGTH], expected, rtol=1e-12)

    def test_signal_free_removes_soi_only(self, rendered):
        config = make_config(jammers=[
            JammerSpec(kind="tone", doa_deg=25.0, inr_db=10.0, tone_offset_hz=1e5)
        ])
        quiet = synthesize(config.signal_free())
        loud = synthesize(config)
        assert np.all(rendered(quiet)[0] == 0.0)
        np.testing.assert_array_equal(quiet.steering, loud.steering)
        np.testing.assert_array_equal(rendered(quiet)[1], rendered(loud)[1])
        np.testing.assert_array_equal(quiet.noise, loud.noise)


class TestRender:
    """Every [soi; interferer] row is kept as what determines it and
    rendered on demand: any chip range must equal the same columns of
    the whole row, bit for bit."""

    @staticmethod
    def ranges(total, n=CODE_LENGTH):
        # single chips, ranges across a tone block boundary, the stream's
        # end, and the Gram blocks of component_grams (512 windows at
        # offset 3; 512 * 31 chips is a multiple of no row's period)
        block = 512 * n
        return [(0, 1), (total - 1, total), (_TONE_BLOCK - 5, _TONE_BLOCK + 7),
                (2 * _TONE_BLOCK - 1, 3 * _TONE_BLOCK + 1), (17, total),
                (total - 40, total), (0, 3 + block), (block, 3 + 2 * block)]

    @pytest.mark.parametrize("kind", [
        "tone", "tone_0hz", "periodic", "periodic_pinned", "bpsk_broadband",
        "delayed_mai", "soi",
    ])
    def test_any_range_equals_the_whole_row(self, kind, rendered):
        jammers = {
            "tone": [JammerSpec(kind="tone", doa_deg=25.0, inr_db=20.0,
                                tone_offset_hz=123456.7)],
            "tone_0hz": [JammerSpec(kind="tone", doa_deg=25.0, inr_db=20.0,
                                    tone_offset_hz=0.0)],
            "periodic": [JammerSpec(kind="periodic_white_noise", doa_deg=30.0,
                                    inr_db=10.0, period_chips=37)],
            "periodic_pinned": [JammerSpec(kind="periodic_white_noise",
                                           doa_deg=30.0, inr_db=10.0,
                                           period_chips=37, waveform_seed=1589)],
            "bpsk_broadband": [JammerSpec(kind="bpsk_broadband", doa_deg=40.0,
                                          inr_db=20.0)],
        }.get(kind, [])
        mais = ([PathSpec(user_index=2, doa_deg=20.0, delay_chips=7, power=1.5)]
                if kind == "delayed_mai" else [])
        desired = [PathSpec(user_index=0, doa_deg=0.0, delay_chips=4)]
        stream = synthesize(make_config(num_symbols=1200, desired=desired,
                                        mais=mais, jammers=jammers))
        total = stream.noise.shape[1]
        assert total % 512 and total > 2 * 512 * CODE_LENGTH + 3
        row = len(stream.soi_steering.T) if kind != "soi" else 0
        whole = stream.render(0, total)[row]
        assert np.any(whole != 0.0)
        for start, stop in self.ranges(total):
            part = stream.render(start, stop)
            assert part.shape == (len(stream.rows), stop - start)
            np.testing.assert_array_equal(part[row], whole[start:stop])
        soi, waves = rendered(stream)
        np.testing.assert_array_equal(
            stream.samples,
            stream.soi_steering @ soi + stream.steering @ waves + stream.noise,
        )

    def test_render_writes_into_a_given_buffer(self):
        stream = synthesize(make_config(jammers=[
            JammerSpec(kind="tone", doa_deg=25.0, inr_db=10.0, tone_offset_hz=1e5)
        ]))
        out = np.zeros((3, 40), dtype=np.complex128)
        assert stream.render(100, 140, out=out[:2]).base is out
        np.testing.assert_array_equal(out[:2], stream.render(100, 140))
        assert np.all(out[2] == 0.0)

    @staticmethod
    def arrays(value):
        """Every array a stream field holds, looking into the partial
        objects that keep its rows."""
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, functools.partial):
            for item in (*value.args, *value.keywords.values()):
                yield from TestRender.arrays(item)
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from TestRender.arrays(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from TestRender.arrays(item)

    def test_the_stream_holds_no_waveform_array(self):
        # the noise is the only complex array of chip length a stream
        # holds, and synthesis peaks within 10 % of it (the soi row
        # alone would add 12.5 %, five stored tone rows 62.5 %)
        config = five_tones_scenario(30.0, num_symbols=12000, seed=(81, 0, 0))
        tracemalloc.start()
        try:
            stream = synthesize(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * stream.noise.nbytes, (peak, stream.noise.nbytes)
        total = stream.noise.shape[1]
        chip_long = [array for field in stream.__dataclass_fields__
                     for array in self.arrays(getattr(stream, field))
                     if np.iscomplexobj(array) and total in array.shape]
        assert len(chip_long) == 1 and chip_long[0] is stream.noise


class TestInterferenceMoments:
    """The closed-form despread moment against the sampled Gram of the
    interferer rows despread by h_s, averaged over independent streams."""

    # windows per stream (a multiple of the pinned rows' joint cycle, 60)
    # and streams: the tolerance is fixed at five standard errors of one
    # snapshot's product, relative to sqrt(C_ii C_jj)
    WINDOWS, STREAMS, N0 = 4020, 8, 5

    @staticmethod
    def config(seed):
        # every row kind, windows at a nonzero offset: user 1's two paths
        # at distinct delays and one path of user 2, a broadband and a
        # tone jammer, a periodic jammer of unpinned period P != N (P at
        # least the window count, so each stream sees distinct offsets)
        # and two pinned ones whose cycles of window offsets, 12 and 20
        # windows, share a factor of 4
        return make_config(
            geometry=ArrayGeometry(num_elements=10),
            num_symbols=TestInterferenceMoments.WINDOWS + 1,
            seed=seed,
            desired=[PathSpec(user_index=0, doa_deg=0.0, delay_chips=5)],
            mais=[PathSpec(1, 30.0, 2, 2.0), PathSpec(1, -20.0, 9, 1.0),
                  PathSpec(2, 50.0, 0, 0.5)],
            jammers=[
                JammerSpec("bpsk_broadband", -50.0, 3.0),
                JammerSpec("tone", -35.0, 0.0, tone_offset_hz=37e3),
                JammerSpec("periodic_white_noise", 65.0, 2.0, period_chips=8009),
                JammerSpec("periodic_white_noise", 10.0, 1.0, period_chips=12,
                           waveform_seed=5),
                JammerSpec("periodic_white_noise", -70.0, -1.0, period_chips=20,
                           waveform_seed=6),
            ],
        )

    @pytest.fixture(scope="class")
    def moments(self, rendered):
        basis = make_basis("PAPC", generate_gold_codes(1)[0])
        exact = interference_moments(self.config(0), basis.h_s, self.N0)
        sampled = np.zeros_like(exact)
        for seed in range(self.STREAMS):
            rows, _ = project_stream(
                rendered(synthesize(self.config(seed)))[1], basis, self.N0)
            assert rows.shape[1] == self.WINDOWS
            sampled += gram(rows, rows) / (self.WINDOWS * self.STREAMS)
        return exact, sampled

    def test_every_row_kind_matches_sampled_grams(self, moments):
        exact, sampled = moments
        power = exact.diagonal().real
        gap = np.abs(sampled - exact) / np.sqrt(np.outer(power, power))
        assert gap.max() <= 5.0 / math.sqrt(self.WINDOWS * self.STREAMS), gap

    def test_pinned_pair_is_its_joint_cycle_average(self, moments):
        # the pinned rows are deterministic and every stream holds whole
        # joint cycles, so the sample Gram is their cycle average
        exact, sampled = moments
        np.testing.assert_allclose(sampled[6:, 6:], exact[6:, 6:],
                                   rtol=1e-12, atol=1e-12 * abs(exact[6, 6]))

    def test_independent_rows_do_not_couple(self, moments):
        # only paths of one user and the pinned pair have cross moments
        exact, _ = moments
        coupled = np.eye(len(exact), dtype=bool)
        coupled[0, 1] = coupled[1, 0] = coupled[6, 7] = coupled[7, 6] = True
        assert np.all(exact[~coupled] == 0.0)
        assert np.all(np.abs(exact[coupled]) > 0.0)
        np.testing.assert_array_equal(exact, exact.conj().T)

    def test_short_unpinned_period_averages_over_its_waveforms(self, rendered):
        # a period P < N folds the window onto P residue classes; each
        # stream's draw of the period is one snapshot of a cycle average
        # whose relative spread is at most one, so the tolerance is five
        # standard errors over the streams
        streams = 1000
        config = make_config(num_symbols=6, jammers=[JammerSpec(
            "periodic_white_noise", 30.0, 0.0, period_chips=5)])
        basis = make_basis("PAPC", generate_gold_codes(1)[0])
        [[exact]] = interference_moments(config, basis.h_s, 3)
        sampled = 0.0
        for seed in range(streams):
            stream = synthesize(replace(config, seed=seed))
            rows, _ = project_stream(rendered(stream)[1], basis, 3)
            sampled += np.mean(np.abs(rows) ** 2) / streams
        assert abs(sampled / exact.real - 1.0) <= 5.0 / math.sqrt(streams)

    def test_rejects_a_window_offset_outside_the_code(self):
        h = np.ones(CODE_LENGTH) / math.sqrt(CODE_LENGTH)
        with pytest.raises(ValueError, match="window offset"):
            interference_moments(self.config(0), h, CODE_LENGTH)


class TestValidation:
    def test_interferer_budget_enforced(self):
        mais = [
            PathSpec(user_index=i + 1, doa_deg=float(i), power=1.0)
            for i in range(8)
        ]
        with pytest.raises(ValueError, match="stay below the"):
            make_config(mais=mais).validate()

    def test_desired_paths_must_be_user_zero(self):
        config = make_config(desired=[PathSpec(user_index=1, doa_deg=0.0)])
        with pytest.raises(ValueError, match="user_index 0"):
            config.validate()

    def test_interfering_paths_must_not_be_user_zero(self):
        config = make_config(mais=[PathSpec(user_index=0, doa_deg=10.0)])
        with pytest.raises(ValueError, match="must not use user_index 0"):
            config.validate()

    def test_delay_range(self):
        config = make_config(
            desired=[PathSpec(user_index=0, doa_deg=0.0, delay_chips=31)]
        )
        with pytest.raises(ValueError, match="delay_chips"):
            config.validate()

    def test_jammer_kind_fields(self):
        with pytest.raises(ValueError, match="requires tone_offset_hz"):
            JammerSpec(kind="tone", doa_deg=0.0, inr_db=0.0).validate()
        with pytest.raises(ValueError, match="tone_offset_hz is not valid"):
            JammerSpec(
                kind="bpsk_broadband", doa_deg=0.0, inr_db=0.0, tone_offset_hz=1.0
            ).validate()
        with pytest.raises(ValueError, match="period_chips is not valid"):
            JammerSpec(
                kind="tone", doa_deg=0.0, inr_db=0.0, tone_offset_hz=1.0,
                period_chips=31,
            ).validate()
        with pytest.raises(ValueError, match="waveform_seed is not valid"):
            JammerSpec(
                kind="bpsk_broadband", doa_deg=0.0, inr_db=0.0, waveform_seed=3
            ).validate()
        with pytest.raises(ValueError, match="kind must be one of"):
            JammerSpec(kind="chirp", doa_deg=0.0, inr_db=0.0).validate()

    def test_geometry_bounds(self):
        with pytest.raises(ValueError, match="num_elements"):
            ArrayGeometry(num_elements=1).validate()
        with pytest.raises(ValueError, match="spacing"):
            ArrayGeometry(num_elements=4, spacing_wavelengths=0.6).validate()

    def test_non_integer_processing_gain_rejected(self):
        config = make_config(chip_rate_hz=3.15e6)
        with pytest.raises(ValueError, match="integer"):
            config.validate()


class TestPresetScenarios:
    def test_periodic_noise_uses_frozen_waveforms(self):
        config = periodic_noise_scenario(10.0, seed=0)
        seeds = [jam.waveform_seed for jam in config.jammers]
        assert tuple(seeds) == PERIODIC_NOISE_WAVEFORM_SEEDS

    def test_sweep_scenarios_validate(self):
        for builder in (periodic_noise_scenario, multipath_mai_scenario,
                        five_tones_scenario):
            builder(20.0, snr_db=5.0, num_symbols=100, seed=1).validate()

    def test_multipath_rays_carry_full_power_each(self):
        config = multipath_mai_scenario(10.0, seed=0)
        for path in config.mais:
            assert path.power == pytest.approx(10.0)
