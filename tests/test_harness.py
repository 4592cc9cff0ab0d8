"""Config loading, result serialization, runners, and the CLI.

The component-Gram fast path used by the sweep runners is checked
against direct per-SNR covariance estimation on independently
synthesized streams; file outputs are checked for byte-level
reproducibility.
"""

import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpb_lab import cli, harness, linalg
from mpb_lab.analysis import output_sinr
from mpb_lab.core import make_basis, project_stream
from mpb_lab.harness import (
    ConfigError,
    ExperimentResult,
    component_grams,
    default_spec,
    load_config,
    run_convergence,
    run_eigencurve,
    run_identical_delay,
    run_pattern,
    run_preset,
    run_threshold_sweep,
    run_tracking,
    scenario_hash,
    write_result,
)
from mpb_lab.oracles import covariances_from_arrays
from mpb_lab.presets import five_tones_scenario, tracking_scenario
from mpb_lab.scenario import generate_gold_codes, synthesize


def write_config(tmp_path, text, name="experiment.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaultSpec:
    def test_known_presets_resolve(self):
        spec = default_spec("threshold_sweep")
        assert spec.preset == "threshold_sweep"
        assert spec.symbols == 20000
        assert spec.trials == 4
        assert spec.snr_grid_db[0] == -20.0
        assert spec.snr_grid_db[-1] == 48.0
        assert spec.schemes == ["MIC", "Maximin", "PAPC"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            default_spec("warp_drive")

    @pytest.mark.parametrize("preset", harness.PRESETS)
    def test_every_preset_default_validates(self, preset):
        default_spec(preset).validate()

    @pytest.mark.parametrize(
        "preset, field, value",
        [
            ("tracking", "schemes", ["PAPC"]),  # ran MIC, labelled PAPC
            ("eigencurve", "schemes", ["MIC", "PAPC"]),
            ("eigencurve", "inr_list_db", [10.0, 20.0]),
            ("identical_delay", "schemes", ["PAPC"]),
            ("identical_delay", "inr_list_db", [20.0]),
            ("identical_delay", "trials", 3),
            ("identical_delay", "snr_grid_db", [10.0, 15.0]),
            ("pattern", "trials", 2),
            ("convergence", "inr_list_db", [20.0]),
            ("tracking", "snr_grid_db", [10.0, 20.0]),
            ("threshold_sweep", "mu", 0.9),
            ("eigencurve", "monitor_freq", 0.25),  # MIC has no tone monitor
        ],
    )
    def test_settings_a_preset_ignores_are_rejected(self, preset, field, value):
        spec = default_spec(preset)
        setattr(spec, field, value)
        with pytest.raises(ConfigError, match=field):
            spec.validate()

    def test_spec_validation_catches_bad_fields(self):
        spec = default_spec("threshold_sweep")
        spec.trials = 0
        with pytest.raises(ConfigError, match="trials"):
            spec.validate()
        spec = default_spec("threshold_sweep")
        spec.schemes = ["MIC", "FFT"]
        with pytest.raises(ConfigError, match="scheme"):
            spec.validate()
        spec = default_spec("threshold_sweep")
        spec.snr_grid_db = [10.0, 0.0]
        with pytest.raises(ConfigError, match="ascending"):
            spec.validate()


class TestLoadConfig:
    def test_minimal_file_gets_preset_defaults(self, tmp_path):
        spec = load_config(write_config(tmp_path, "preset: eigencurve\n"))
        assert spec.preset == "eigencurve"
        assert spec.schemes == ["MIC"]
        assert spec.trials == 2
        assert spec.inr_list_db == [10.0]

    def test_overrides_win_over_defaults(self, tmp_path):
        text = (
            "preset: threshold_sweep\n"
            "seed: 99\n"
            "symbols: 500\n"
            "trials: 2\n"
            "schemes: [MIC]\n"
            "scenarios: [five_tones]\n"
            "inr_list_db: [10]\n"
            "snr_grid_db: [-10, 0, 10]\n"
            "output_dir: out\n"
        )
        spec = load_config(write_config(tmp_path, text))
        assert spec.seed == 99
        assert spec.symbols == 500
        assert spec.trials == 2
        assert spec.schemes == ["MIC"]
        assert spec.scenario_names == ["five_tones"]
        assert spec.snr_grid_db == [-10.0, 0.0, 10.0]
        assert spec.output_dir == "out"

    def test_grid_range_form(self, tmp_path):
        text = (
            "preset: threshold_sweep\n"
            "snr_grid_db: {start: -4, stop: 4, step: 2}\n"
        )
        spec = load_config(write_config(tmp_path, text))
        assert spec.snr_grid_db == [-4.0, -2.0, 0.0, 2.0, 4.0]

    def test_grid_range_must_ascend(self, tmp_path):
        text = (
            "preset: threshold_sweep\n"
            "snr_grid_db: {start: 4, stop: -4, step: 2}\n"
        )
        with pytest.raises(ConfigError, match="ascend"):
            load_config(write_config(tmp_path, text))

    def test_unknown_top_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(
                write_config(tmp_path, "preset: pattern\nwarp: 9\n")
            )

    def test_missing_preset_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="preset"):
            load_config(write_config(tmp_path, "seed: 5\n"))

    def test_duplicate_key_reports_line(self, tmp_path):
        text = "preset: pattern\nseed: 1\nseed: 2\n"
        with pytest.raises(ConfigError, match="line 3"):
            load_config(write_config(tmp_path, text))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_custom_scenario_section(self, tmp_path):
        text = (
            "preset: threshold_sweep\n"
            "symbols: 400\n"
            "scenario:\n"
            "  num_elements: 6\n"
            "  snr_db: 3\n"
            "  desired:\n"
            "    - {doa_deg: 5, delay_chips: 2}\n"
            "  mais:\n"
            "    - {user_index: 2, doa_deg: -20, inr_db: 10}\n"
            "  jammers:\n"
            "    - {kind: tone, doa_deg: 40, inr_db: 20, tone_offset_hz: 1e5}\n"
        )
        spec = load_config(write_config(tmp_path, text))
        scenario = spec.scenario
        assert scenario is not None
        assert scenario.geometry.num_elements == 6
        assert scenario.num_symbols == 400
        assert scenario.desired[0].delay_chips == 2
        assert scenario.mais[0].power == pytest.approx(10.0)
        assert scenario.jammers[0].tone_offset_hz == pytest.approx(1e5)

    @pytest.mark.parametrize("key", ["inr_list_db: [10]", "scenarios: [five_tones]"])
    def test_custom_scenario_rejects_named_scenario_keys(self, tmp_path, key):
        text = (
            "preset: threshold_sweep\n"
            f"{key}\n"
            "scenario:\n"
            "  jammers:\n"
            "    - {kind: tone, doa_deg: 40, inr_db: 20, tone_offset_hz: 1e5}\n"
        )
        with pytest.raises(ConfigError, match="does not read"):
            load_config(write_config(tmp_path, text))

    def test_readme_yaml_blocks_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks
        for idx, block in enumerate(blocks):
            load_config(write_config(tmp_path, block, name=f"readme{idx}.yaml"))

    def test_readme_names_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files")[1].split("\n## ")[0]
        tables = (harness._TOP, harness._GRID_RANGE, harness._SCENARIO,
                  harness._DESIRED, harness._INTERFERING, harness._JAMMER)
        keys = {key for table in tables for key in table}
        missing = [key for key in sorted(keys)
                   if not re.search(rf"`{key}`|\b{key}:", section)]
        assert not missing, f"README Config files section omits {missing}"

    def test_interferer_power_and_inr_exclusive(self, tmp_path):
        text = (
            "preset: threshold_sweep\n"
            "scenario:\n"
            "  mais:\n"
            "    - {user_index: 2, doa_deg: -20, inr_db: 10, power: 3}\n"
        )
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, text))

    def test_scenario_validation_failures_surface(self, tmp_path):
        text = (
            "preset: threshold_sweep\n"
            "scenario:\n"
            "  num_elements: 1\n"
        )
        with pytest.raises(ConfigError, match="scenario"):
            load_config(write_config(tmp_path, text))


class TestScenarioHash:
    def test_stable_across_calls(self):
        config = five_tones_scenario(10.0, snr_db=0.0, num_symbols=100, seed=1)
        assert scenario_hash(config) == scenario_hash(config)
        assert len(scenario_hash(config)) == 12

    def test_sensitive_to_any_field(self):
        base = five_tones_scenario(10.0, snr_db=0.0, num_symbols=100, seed=1)
        assert scenario_hash(base) != scenario_hash(replace(base, snr_db=1.0))
        assert scenario_hash(base) != scenario_hash(replace(base, seed=2))
        assert scenario_hash(base) != scenario_hash(
            replace(base, num_symbols=101)
        )


class TestGramFastPath:
    @pytest.mark.parametrize("scheme", ["MIC", "Maximin", "PAPC"])
    def test_matches_direct_estimation_across_snr(self, scheme):
        # the sweep runners assemble per-SNR covariances algebraically
        # from component Grams; this must equal estimating from a stream
        # synthesized at that SNR with the same seed
        code = generate_gold_codes(1)[0]
        basis = make_basis(scheme, code, monitor_freq=0.5, chip_index=0)
        reference = five_tones_scenario(10.0, snr_db=0.0, num_symbols=400,
                                        seed=(77, 0, 0))
        grams = component_grams(synthesize(reference), basis, 0)
        for snr_db in (-10.0, 0.0, 12.0):
            alpha = 10.0 ** (snr_db / 20.0)
            fast = grams.covariance_pair(alpha)
            direct_stream = synthesize(replace(reference, snr_db=snr_db))
            x_s, x_i = project_stream(direct_stream.samples, basis, 0)
            direct = covariances_from_arrays(x_s, x_i)
            np.testing.assert_allclose(fast.r_s, direct.r_s, rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(fast.r_i, direct.r_i, rtol=1e-10,
                                       atol=1e-12)

    def test_sinr_covariances_match_component_streams(self):
        code = generate_gold_codes(1)[0]
        basis = make_basis("MIC", code)
        reference = five_tones_scenario(10.0, snr_db=0.0, num_symbols=300,
                                        seed=(78, 0, 0))
        grams = component_grams(synthesize(reference), basis, 0)
        snr_db = 6.0
        alpha = 10.0 ** (snr_db / 20.0)
        soi_cov, int_cov, noise_cov = grams.sinr_covariances(alpha)
        stream = synthesize(replace(reference, snr_db=snr_db))
        for cov, component in ((soi_cov, stream.soi_steering @ stream.soi_waveforms),
                               (int_cov, stream.steering @ stream.waveforms),
                               (noise_cov, stream.noise)):
            x_s, _ = project_stream(component, basis, 0)
            direct = (x_s @ x_s.conj().T) / x_s.shape[1]
            np.testing.assert_allclose(cov, direct, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["MIC", "Maximin", "PAPC"])
    def test_blocks_match_direct_estimation(self, scheme):
        # three whole Gram blocks and a remainder, at a nonzero offset:
        # the block sums must equal estimating from the whole summed stream
        basis = make_basis(scheme, generate_gold_codes(1)[0])
        config = five_tones_scenario(
            10.0, snr_db=3.0,
            num_symbols=3 * harness._GRAM_BLOCK_SYMBOLS + 200, seed=(79, 0, 0),
        )
        stream = synthesize(config)
        n0 = 5
        x_s, x_i = project_stream(stream.samples, basis, n0)
        assert x_s.shape[1] % harness._GRAM_BLOCK_SYMBOLS > 0
        direct = covariances_from_arrays(x_s, x_i)
        fast = component_grams(stream, basis, n0).covariance_pair(1.0)
        np.testing.assert_allclose(fast.r_s, direct.r_s, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fast.r_i, direct.r_i, rtol=1e-10, atol=1e-12)

    def test_rejects_bad_offset_and_short_stream(self):
        basis = make_basis("MIC", generate_gold_codes(1)[0])
        stream = synthesize(five_tones_scenario(10.0, num_symbols=2,
                                                seed=(80, 0, 0)))
        for n0 in (-1, basis.h_s.size):
            with pytest.raises(ValueError, match="window offset"):
                component_grams(stream, basis, n0)
        short = synthesize(five_tones_scenario(10.0, num_symbols=1,
                                               seed=(80, 0, 0)))
        with pytest.raises(ValueError, match="too short"):
            component_grams(short, basis, 1)

    def test_memory_is_flat_in_the_symbol_count(self):
        # a whole-stream MIC projection is as large as the noise itself;
        # accumulated block by block, the call's peak must not grow with
        # the stream (about 14 MB at both sizes)
        basis = make_basis("MIC", generate_gold_codes(1)[0])
        peaks = []
        for symbols in (3000, 12000):
            stream = synthesize(five_tones_scenario(
                30.0, num_symbols=symbols, seed=(81, 0, 0)))
            tracemalloc.start()
            try:
                component_grams(stream, basis, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks
        assert peaks[1] < 0.5 * stream.noise.nbytes, (peaks, stream.noise.nbytes)

    def test_clutters_match_direct_estimation_per_interferer_count(self):
        check_clutters(300)

    def test_clutters_match_direct_estimation_across_blocks(self):
        check_clutters(harness._GRAM_BLOCK_SYMBOLS + 300)


def check_clutters(symbols):
    # entry k of the recursive presets' clutter stack keeps the quiet
    # stream's first k interferer rows; the reference zeroes the rest
    # and estimates from the summed stream
    base = tracking_scenario(num_symbols=12, seed=(6, 0, 0))
    basis = make_basis("PAPC", generate_gold_codes(1)[0])
    clutters = harness._clutters(base, 0, symbols, (6, 1))
    quiet = synthesize(replace(base.signal_free(), num_symbols=symbols,
                               seed=(6, 1)))
    assert len(clutters) == len(quiet.waveforms) + 1
    for k, clutter in enumerate(clutters):
        waveforms = quiet.waveforms.copy()
        waveforms[k:] = 0.0
        samples = replace(quiet, waveforms=waveforms).samples
        direct = covariances_from_arrays(
            *project_stream(samples, basis, 0)
        ).r_s
        gap = np.linalg.norm(clutter - direct) / np.linalg.norm(direct)
        assert gap <= 1e-12, (k, gap)


def tiny_sweep_spec(**overrides):
    spec = default_spec("threshold_sweep")
    spec.symbols = 400
    spec.trials = 2
    spec.schemes = ["MIC"]
    spec.scenario_names = ["five_tones"]
    spec.inr_list_db = [10.0]
    spec.snr_grid_db = [-10.0, 0.0, 10.0]
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


class TestRunners:
    def test_threshold_sweep_rows_and_traceability(self):
        # the grid reaches the plateau, so both thresholds are finite
        spec = tiny_sweep_spec(snr_grid_db=[-10.0, 0.0, 10.0, 20.0, 30.0])
        result = run_threshold_sweep(spec)
        assert len(result.rows) == 5  # one row per grid point
        row = result.rows[0]
        expected_hash = scenario_hash(
            five_tones_scenario(10.0, snr_db=0.0, num_symbols=spec.symbols,
                                seed=spec.seed)
        )
        assert row["scenario_hash"] == expected_hash
        assert row["scenario"] == "five_tones"
        assert row["scheme"] == "MIC"
        assert row["beta"] <= 1e-12
        for key in ("predicted_threshold_db", "measured_threshold_db"):
            values = {row[key] for row in result.rows}
            assert len(values) == 1 and math.isfinite(values.pop()), key

    def test_preset_mismatch_rejected(self):
        spec = tiny_sweep_spec()
        with pytest.raises(ConfigError, match="preset"):
            run_eigencurve(spec)
        with pytest.raises(ConfigError, match="preset"):
            run_pattern(spec)

    def test_run_preset_dispatch(self):
        result = run_preset(tiny_sweep_spec())
        assert result.preset == "threshold_sweep"

    @pytest.mark.parametrize("preset", ["threshold_sweep", "eigencurve", "pattern"])
    def test_sweep_solves_one_gevd_per_grid_point(self, monkeypatch, preset):
        # one GEVD per grid point (solve_batch's, which also gives the
        # eigenvalues) plus one for the gamma1 quiet pair, per trial and
        # scheme: the batch driver's cost is the same for every preset
        calls = []
        original = linalg.hermitian_gevd

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(linalg, "hermitian_gevd", counting)
        if preset == "threshold_sweep":
            spec = tiny_sweep_spec(schemes=["MIC", "PAPC"])
        else:
            spec = default_spec(preset)
            spec.symbols = 400
        run_preset(spec)
        assert len(calls) == (
            spec.trials * len(spec.schemes) * (len(spec.snr_grid_db) + 1)
        )

    def test_deterministic_rows(self):
        first = run_threshold_sweep(tiny_sweep_spec())
        second = run_threshold_sweep(tiny_sweep_spec())
        assert first.rows == second.rows

    def test_custom_sweep_is_one_unlabelled_cell(self):
        spec = tiny_sweep_spec(
            inr_list_db=default_spec("threshold_sweep").inr_list_db,
            scenario_names=default_spec("threshold_sweep").scenario_names,
            scenario=five_tones_scenario(20.0, snr_db=0.0, num_symbols=400),
        )
        result = run_preset(spec)
        assert len(result.rows) == len(spec.snr_grid_db)
        assert {row["scenario"] for row in result.rows} == {"custom"}
        assert {row["inr_db"] for row in result.rows} == {""}

    def test_eigencurve_smoke(self):
        spec = default_spec("eigencurve")
        spec.symbols = 400
        spec.trials = 1
        spec.snr_grid_db = [-10.0, 0.0, 10.0]
        result = run_eigencurve(spec)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row["lambda1"] >= row["lambda2"]
            assert row["lambda_max_predicted"] > 0.0
        assert "crossover_db" in result.metadata

    def test_pattern_smoke(self):
        spec = default_spec("pattern")
        spec.symbols = 400
        result = run_pattern(spec)
        expected = {
            f"{scheme}_snr{snr:g}dB"
            for scheme in spec.schemes
            for snr in spec.snr_grid_db
        }
        assert set(result.patterns) == expected
        for samples in result.patterns.values():
            gains = [s.gain_db for s in samples]
            assert max(gains) == pytest.approx(0.0, abs=1e-9)
        for row in result.rows:
            assert row["gain_at_0deg_db"] <= 1e-9

    def test_convergence_smoke(self):
        spec = default_spec("convergence")
        spec.symbols = 40
        spec.trials = 2
        spec.snr_grid_db = [20.0]
        result = run_convergence(spec)
        for scheme in spec.schemes:
            key = f"convergence_symbols_{scheme}_snr20"
            assert key in result.metadata
        assert len(result.rows) == 2 * spec.symbols  # per scheme, per symbol

    def test_tracking_smoke(self):
        spec = default_spec("tracking")
        spec.symbols = 120
        spec.trials = 2
        spec.entry_interval = 40
        result = run_tracking(spec)
        entry_keys = [k for k in result.metadata if k.endswith("_symbol")]
        assert entry_keys
        recovery_keys = [
            k for k in result.metadata if k.endswith("_recovery_symbols")
        ]
        assert recovery_keys
        runs = {row["run"] for row in result.rows}
        assert runs == {"staggered", "control"}

    @pytest.mark.parametrize("preset", ["convergence", "tracking"])
    def test_symbol_zero_scores_the_initial_weight(self, preset, monkeypatch):
        # every trial's symbol-0 output comes from the initial weight e1,
        # so its SINR is output_sinr(e1) against the clutter of that cell
        # (the covariances the runner hands to mvdr_optimum_sinr, in order)
        seen = []
        optimum = harness.mvdr_optimum_sinr

        def recording(power, steering, clutter):
            seen.append((power, steering, clutter))
            return optimum(power, steering, clutter)

        monkeypatch.setattr(harness, "mvdr_optimum_sinr", recording)
        spec = default_spec(preset)
        spec.trials = 2
        if preset == "convergence":
            spec.symbols, spec.snr_grid_db = 40, [20.0]
            result = run_convergence(spec)
        else:
            spec.symbols, spec.entry_interval = 120, 40
            result = run_tracking(spec)
        first = [row for row in result.rows if row["symbol"] == 0]
        assert len(first) == 2  # two schemes, or the two tracking runs
        for row in first:
            power, steering, clutter = seen[row.get("active_interferers", 0)]
            e1 = np.eye(len(steering))[0]
            expected = np.mean([output_sinr(e1, power, steering, clutter)] * spec.trials)
            assert row["sinr_db"] == pytest.approx(10.0 * math.log10(expected), abs=1e-9)

    @pytest.mark.parametrize("preset", ["convergence", "tracking"])
    def test_one_quiet_stream_per_recursive_preset(self, preset, monkeypatch):
        # each trial of each cell or run is synthesized once, and one quiet
        # stream serves every SNR (convergence) or interferer count (tracking)
        calls = []
        original = harness.synthesize

        def counting(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(harness, "synthesize", counting)
        spec = default_spec(preset)
        spec.trials = 2
        if preset == "convergence":
            spec.symbols, spec.snr_grid_db = 40, [10.0, 20.0]
            run_convergence(spec)
            expected = spec.trials * len(spec.snr_grid_db) + 1
        else:
            spec.symbols, spec.entry_interval = 120, 40
            run_tracking(spec)
            expected = 2 * spec.trials + 1
        assert len(calls) == expected
        assert sum(math.isinf(c.snr_db) for c in calls) == 1

    def test_interferer_free_custom_scenario(self):
        # no interferer at all: the interference component has zero
        # waveform rows, and its Gram blocks are zero-row contractions
        scenario = replace(five_tones_scenario(10.0, num_symbols=400), jammers=[])
        assert not scenario.mais
        for preset in ("threshold_sweep", "pattern"):
            spec = default_spec(preset)
            spec.symbols = 400
            spec.trials = 1
            spec.scenario = scenario
            result = run_preset(spec)
            assert result.rows
            for row in result.rows:
                # a threshold may be +-inf by definition; nothing else may
                values = [value for key, value in row.items()
                          if isinstance(value, float) and "threshold" not in key]
                assert values and np.all(np.isfinite(values)), row
            for samples in result.patterns.values():
                assert np.all(np.isfinite([s.gain_db for s in samples]))

    def test_staggered_input_matches_per_interferer_accumulation(self):
        # tracking's input: interferer i is absent before its entry chip
        # and fully present from it on. The reference accumulates each
        # interferer's own element-by-chip stream onto soi + noise from
        # its entry on; the last two entries lie at or past the stream's end.
        config = tracking_scenario(num_symbols=12, seed=(5, 0, 0))
        stream = synthesize(config)
        total = stream.noise.shape[1]
        entries = [(i + 1) * 2 * config.processing_gain
                   for i in range(len(stream.waveforms))]
        assert entries[-2] == total and entries[-1] > total
        staggered = harness._staggered(stream, entries)
        reference = stream.soi_steering @ stream.soi_waveforms + stream.noise
        streams = [np.outer(stream.steering[:, i], wave)
                   for i, wave in enumerate(stream.waveforms)]
        for start, interferer in zip(entries, streams):
            reference[:, start:] += interferer[:, start:]
        tol = 1e-12 * np.max(np.abs(reference))
        np.testing.assert_allclose(staggered, reference, rtol=0, atol=tol)
        for i, (start, interferer) in enumerate(zip(entries, streams)):
            never = [*entries[:i], total, *entries[i + 1:]]
            alone = staggered - harness._staggered(stream, never)
            np.testing.assert_allclose(alone[:, :start], 0.0, rtol=0, atol=tol)
            np.testing.assert_allclose(
                alone[:, start:], interferer[:, start:], rtol=0, atol=tol
            )

    def test_identical_delay_smoke(self):
        spec = default_spec("identical_delay")
        spec.symbols = 400
        result = run_identical_delay(spec)
        assert set(result.patterns) == {
            "distinct_path1", "distinct_path2", "identical"
        }
        assert len(result.rows) == 3


class TestWriteResult:
    def test_round_trip_files(self, tmp_path):
        result = ExperimentResult(
            preset="threshold_sweep",
            rows=[
                {"scenario": "five_tones", "snr_db": 1.0,
                 "g_linear": 0.123456789012345, "measured_threshold_db":
                 math.inf},
                {"scenario": "five_tones", "snr_db": 2.0,
                 "g_linear": 1.0, "measured_threshold_db": -math.inf},
            ],
            patterns={"MIC_snr10dB": []},
            metadata={"seed": 1, "timestamp": "now"},
        )
        path = write_result(result, tmp_path / "out")
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# schema=mpb-lab/1"
        assert lines[1] == "# preset=threshold_sweep"
        assert "# seed=1" in lines
        # timestamps stay out of results.csv so reruns are byte-identical
        assert not any("timestamp" in line for line in lines)
        assert "inf" in text and "-inf" in text
        assert (tmp_path / "out" / "patterns_MIC_snr10dB.csv").exists()
        meta = (tmp_path / "out" / "meta.txt").read_text()
        assert "preset: threshold_sweep" in meta
        assert "timestamp: now" in meta

    def test_float_formatting_round_trips(self, tmp_path):
        value = 0.123456789012345
        result = ExperimentResult(
            preset="pattern", rows=[{"x": value}], patterns={}, metadata={},
        )
        path = write_result(result, tmp_path / "out")
        data = path.read_text().splitlines()[-1]
        assert float(data) == pytest.approx(value, rel=1e-9)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = tiny_sweep_spec()
        first = write_result(run_threshold_sweep(spec), tmp_path / "a")
        second = write_result(run_threshold_sweep(spec), tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()


class TestCli:
    def test_oracle_command(self, capsys):
        assert cli.main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "gold" in out

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, "preset: eigencurve\nseed: 3\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "OK: preset=eigencurve" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "preset: eigencurve\nwarp: 1\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "preset: threshold_sweep\nschemes: [PAPC]\npapc_chip_index: 40\n",
            "preset: threshold_sweep\nschemes: [Maximin]\nmonitor_freq: 2.0\n",
            "preset: tracking\nmu: 1.5\n",
            "preset: convergence\ndelta_scale: -1\n",
            "preset: eigencurve\nseed: abc\n",
            "preset: eigencurve\nscenario:\n  desired:\n    - {doa_deg: x}\n",
            "preset: threshold_sweep\ninr_list_db: 10\n",
            "preset: threshold_sweep\nschemes: MIC\n",
            "preset: threshold_sweep\nsymbols: 400.7\n",
            "preset: threshold_sweep\ntrials: true\n",
            "preset: eigencurve\nscenario:\n  num_elements: 8.9\n",
            "preset: eigencurve\nscenario:\n  desired:\n"
            "    - {doa_deg: 0.0, delay_chips: 2.5}\n",
            # a bool is not a number
            "preset: convergence\ndelta_scale: true\n",
            "preset: threshold_sweep\ninr_list_db: [true, 20]\n",
            "preset: threshold_sweep\nschemes: [Maximin]\nmonitor_freq: true\n",
            "preset: eigencurve\nscenario:\n  snr_db: true\n",
            "preset: eigencurve\nscenario:\n  desired:\n    - {doa_deg: false}\n",
            "preset: threshold_sweep\nsnr_grid_db: {start: true, stop: 4, step: 2}\n",
            # more points than numpy can index
            "preset: threshold_sweep\nsnr_grid_db: {start: 0, stop: 1e20, step: 1}\n",
            # numbers must be finite
            "preset: convergence\ndelta_scale: .inf\n",
            "preset: threshold_sweep\nsnr_grid_db: [.nan]\n",
            "preset: threshold_sweep\ninr_list_db: [.inf]\n",
            "preset: eigencurve\nscenario:\n  noise_power: .inf\n",
            "preset: eigencurve\nscenario:\n  jammers:\n"
            "    - {kind: tone, doa_deg: 40, inr_db: .nan, tone_offset_hz: 1e5}\n",
            "preset: eigencurve\nscenario:\n  jammers:\n"
            "    - {kind: tone, doa_deg: 40, inr_db: 20, tone_offset_hz: .nan}\n",
            "preset: eigencurve\nscenario:\n  chip_rate_hz: .inf\n",
            "preset: eigencurve\nscenario:\n  chip_rate_hz: 1e300\n"
            "  symbol_rate_hz: 1e-10\n",
            # the spreading codes are 31 chips long
            "preset: eigencurve\nscenario:\n  chip_rate_hz: 6.2e6\n",
            # a null is never the same as an absent key
            "preset: threshold_sweep\nscenario: null\n",
            "preset: eigencurve\nscenario:\n  jammers:\n"
            "    - {kind: bpsk_broadband, doa_deg: 40, inr_db: 20, tone_offset_hz: null}\n",
            "preset: eigencurve\nscenario:\n  jammers:\n"
            "    - {kind: bpsk_broadband, doa_deg: 40, inr_db: 20, period_chips: null}\n",
            "preset: eigencurve\nseed: -3\n",
            "preset: convergence\nscenario:\n  desired: []\n",
        ],
        ids=[
            "papc_chip_index", "monitor_freq", "mu", "delta_scale",
            "seed", "doa_deg", "inr_list_db", "schemes",
            "symbols", "trials", "num_elements", "delay_chips",
            "delta_scale_bool", "inr_list_db_bool", "monitor_freq_bool",
            "snr_db_bool", "doa_deg_bool", "snr_grid_start_bool",
            "snr_grid_huge", "delta_scale_inf", "snr_grid_db_nan",
            "inr_list_db_inf", "noise_power_inf", "jammer_inr_db_nan",
            "tone_offset_hz_nan", "chip_rate_hz_inf", "rate_ratio_inf",
            "processing_gain", "scenario_null", "tone_offset_hz_null",
            "period_chips_null", "seed_negative", "desired_empty",
        ],
    )
    def test_validate_rejects_out_of_range_knobs(self, tmp_path, capsys, text):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError):
            load_config(path)
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed_line, flags",
        [("seed: -3\n", []), ("", ["--seed", "-1"])],
        ids=["config", "flag"],
    )
    def test_negative_seed_is_an_error_not_a_traceback(
        self, tmp_path, capsys, seed_line, flags
    ):
        # numpy's SeedSequence would refuse a negative seed mid-run
        path = write_config(
            tmp_path, f"preset: identical_delay\nsymbols: 300\n{seed_line}"
        )
        rc = cli.main(["identical_delay", "--config", str(path), *flags,
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_preset_mismatch_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "preset: eigencurve\n")
        rc = cli.main(["pattern", "--config", str(path)])
        assert rc == 1
        assert "declares preset" in capsys.readouterr().err

    def test_tiny_sweep_run_writes_outputs(self, tmp_path, capsys):
        text = (
            "preset: threshold_sweep\n"
            "symbols: 400\n"
            "trials: 1\n"
            "schemes: [MIC]\n"
            "scenarios: [five_tones]\n"
            "inr_list_db: [10]\n"
            "snr_grid_db: [-10, 0, 10]\n"
        )
        config = write_config(tmp_path, text)
        out_dir = tmp_path / "run"
        rc = cli.main(
            ["threshold_sweep", "--config", str(config), "--out", str(out_dir)]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "running threshold_sweep" in captured
        assert "wrote" in captured
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "meta.txt").exists()

    @pytest.mark.parametrize(
        "preset", ["threshold_sweep", "eigencurve", "pattern", "convergence"]
    )
    def test_symbols_override_reaches_custom_scenario(
        self, tmp_path, monkeypatch, preset
    ):
        seen = set()

        def spy(config):
            seen.add(config.num_symbols)
            return synthesize(config)

        monkeypatch.setattr(harness, "synthesize", spy)
        grid = "[20]" if preset == "convergence" else "[10, 20]"
        trials = "" if preset == "pattern" else "trials: 1\n"
        config = write_config(
            tmp_path,
            f"preset: {preset}\nsymbols: 500\n{trials}schemes: [MIC]\n"
            f"snr_grid_db: {grid}\nscenario:\n  jammers:\n"
            "    - {kind: tone, doa_deg: 40, inr_db: 20, tone_offset_hz: 1e5}\n",
        )
        out_dir = tmp_path / "run"
        rc = cli.main(
            [preset, "--config", str(config), "--symbols", "40",
             "--out", str(out_dir)]
        )
        assert rc == 0
        assert "symbols: 40" in (out_dir / "meta.txt").read_text()
        assert 40 in seen and 500 not in seen

    def test_cli_overrides_win(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "preset: identical_delay\nsymbols: 400\nseed: 1\n",
        )
        out_dir = tmp_path / "run"
        rc = cli.main(
            [
                "identical_delay", "--config", str(config),
                "--seed", "2", "--symbols", "300", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        meta = (out_dir / "meta.txt").read_text()
        assert "seed: 2" in meta
        assert "symbols: 300" in meta
