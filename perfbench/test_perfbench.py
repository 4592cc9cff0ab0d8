"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import build_spec  # noqa: E402


def test_self_time_of_nested_calls(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracer_mod.Tracer(run_id=3)
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    # clock reads: outer 0, inner 1-2, inner 3-4, outer 5
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.run) == [3, 3, 3]


def test_span_closes_when_the_call_raises(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracer_mod.Tracer()

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("fail", fail)()
    assert tracer.summary()["fail"]["total_s"] == 1.0
    assert tracer._stack == []


def _sweep_fixture(tmp_path, mutate=None):
    spec = {
        "preset": "threshold_sweep",
        "scenario_names": ["five_tones"],
        "inr_list_db": [30.0],
        "schemes": ["MIC", "Maximin", "PAPC"],
        "snr_grid_db": [-20.0, 0.0],
    }
    beta = {"MIC": 1e-30, "Maximin": 1.0 / 961.0, "PAPC": 1.0}
    rows = []
    for scheme in spec["schemes"]:
        for snr in spec["snr_grid_db"]:
            rows.append({
                "scenario": "five_tones", "scheme": scheme, "inr_db": 30.0,
                "snr_db": snr, "g_linear": 0.5, "g_db": -3.0, "lambda1": 2.0,
                "gamma1": 1.0, "beta": f"{beta[scheme]:.10g}",
                "measured_threshold_db": -0.7, "predicted_threshold_db": -0.6,
                "scenario_hash": "abc",
            })
    if mutate:
        mutate(rows)
    path = tmp_path / "results.csv"
    with path.open("w", newline="") as handle:
        handle.write("# schema=mpb-lab/1\n")
        writer = csv.DictWriter(handle, fieldnames=checks.SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    columns, read = checks.read_results(path)
    return checks.check_sweep(columns, read, spec, beta)


def test_sweep_checks_accept_a_consistent_csv(tmp_path):
    assert _sweep_fixture(tmp_path) == []


def test_sweep_checks_reject_nan_g_linear(tmp_path):
    def nan(rows):
        rows[3]["g_linear"] = "nan"

    failures = _sweep_fixture(tmp_path, nan)
    assert any("non-finite g_linear" in f for f in failures)


def test_sweep_checks_reject_wrong_beta(tmp_path):
    def wrong(rows):
        for row in rows:
            if row["scheme"] == "Maximin":
                row["beta"] = "0.00105"

    failures = _sweep_fixture(tmp_path, wrong)
    assert any("Maximin: beta" in f for f in failures)


def test_sweep_checks_reject_mic_threshold_out_of_band(tmp_path):
    def shifted(rows):
        for row in rows:
            if row["scheme"] == "MIC":
                row["measured_threshold_db"] = 1.0

    failures = _sweep_fixture(tmp_path, shifted)
    assert any("MIC five_tones" in f for f in failures)


def test_sweep_checks_ignore_maximin_threshold(tmp_path):
    def saturated(rows):
        for row in rows:
            if row["scheme"] == "Maximin":
                row["measured_threshold_db"] = math.inf

    assert _sweep_fixture(tmp_path, saturated) == []


def test_tracking_checks_reject_a_control_run_far_from_optimum():
    rows = [
        {"run": run, "scheme": "MIC", "symbol": str(k), "sinr_db": "20",
         "active_interferers": "7", "optimum_sinr_db": "21",
         "scenario_hash": "abc"}
        for run in checks.TRACK_RUNS for k in range(60)
    ]
    spec = {"symbols": 60}
    assert checks.check_tracking(checks.TRACK_COLUMNS, rows, spec) == []
    rows[-1]["sinr_db"] = "10"
    assert checks.check_tracking(checks.TRACK_COLUMNS, rows, spec)


@pytest.fixture(scope="module")
def harness():
    from mpb_lab import harness

    return harness


def test_sweep_fine_sizes(harness):
    spec = build_spec(harness, "sweep-fine", 7, "unused")
    assert spec.preset == "threshold_sweep"
    assert spec.scenario_names == ["periodic_noise", "multipath_mai", "five_tones"]
    assert spec.schemes == ["MIC", "Maximin", "PAPC"]
    assert spec.inr_list_db == [10.0, 20.0, 30.0]
    assert (spec.symbols, spec.trials, spec.seed) == (2000, 2, 7)
    grid = spec.snr_grid_db
    assert len(grid) == 137 and grid[0] == -20.0 and grid[-1] == 48.0
    assert all(b - a == 0.5 for a, b in zip(grid, grid[1:]))


def test_sweep_long_sizes(harness):
    from mpb_lab import presets

    spec = build_spec(harness, "sweep-long", 7, "unused")
    assert spec.scenario_names == ["five_tones"]
    assert spec.inr_list_db == [30.0]
    assert spec.schemes == ["MIC", "Maximin", "PAPC"]
    assert (spec.symbols, spec.trials) == (25000, 1)
    assert spec.symbols * presets.PROCESSING_GAIN == 775_000
    assert spec.snr_grid_db == list(harness.default_spec("threshold_sweep").snr_grid_db)


def test_track_sizes(harness):
    from mpb_lab import presets

    spec = build_spec(harness, "track", 7, "unused")
    assert spec.preset == "tracking"
    assert (spec.symbols, spec.trials, spec.mu, spec.schemes) == (450, 4, 0.95, ["MIC"])
    scenario = presets.tracking_scenario(num_symbols=spec.symbols)
    assert scenario.geometry.num_elements == 10
    assert len(scenario.mais) + len(scenario.jammers) == 7
    assert scenario.processing_gain - 1 == 30  # MIC monitor channels


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)],
         "lower", 0.1, "improved"),
        ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)],
         "lower", 0.1, "worse"),
        ([10.0 + 0.01 * i for i in range(10)], [10.0 + 0.01 * i for i in range(10)],
         "lower", 0.1, "unchanged"),
        ([8.0, 12.0] * 5, [10.5, 9.5] * 5, "lower", 0.1, "unresolved"),
        ([10.0 + 0.01 * i for i in range(3)], [8.0 + 0.01 * i for i in range(3)],
         "lower", 0.1, "unresolved"),
        ([1.0 + 0.01 * i for i in range(10)], [2.0 + 0.01 * i for i in range(10)],
         "higher", None, "improved"),
    ],
)
def test_compare_verdicts(parent, change, better, bound, expected):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, better, bound)[0] == expected


def test_compare_gain_does_not_count_with_more_failures():
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [8.0 + 0.01 * i for i in range(10)]
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "lower", 0.1, more_failures=True)[0] == "unresolved"
