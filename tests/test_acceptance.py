"""End-to-end acceptance run at desk scale.

Each numbered criterion gets exactly one test whose verbose result line
is the pass/fail record; every test also writes a one-line summary
(bypassing capture) so the criterion outcomes are visible in the live
log. The heavy fixtures are shared module-wide: the full threshold
sweep drives criteria 1 and 2 plus the growth/invariance checks, and
the recursive-solver presets drive criteria 7 and 8.

Expected runtime is about a minute on a 2-core desk machine; deselect
with -m 'not slow' during development.
"""

import math
import sys

import numpy as np
import pytest

from mpb_lab import adaptive, oracles
from mpb_lab.core import (
    make_basis,
    project_stream,
    solve_batch,
)
from mpb_lab.harness import (
    default_spec,
    run_convergence,
    run_eigencurve,
    run_identical_delay,
    run_pattern,
    run_threshold_sweep,
    run_tracking,
)
from mpb_lab.oracles import subspace_angle
from mpb_lab.presets import convergence_scenario
from mpb_lab.scenario import CODE_LENGTH, synthesize

pytestmark = pytest.mark.slow

INR_ORDER = (10.0, 20.0, 30.0)
SCENARIO_ORDER = ("periodic_noise", "multipath_mai", "five_tones")

# expected desk-scale thresholds (dB) per scenario at INR 10/20/30 dB
MIC_EXPECTED = {
    "periodic_noise": (-0.93, -0.85, -0.84),
    "multipath_mai": (-9.4, -9.3, -9.3),
    "five_tones": (-0.64, -0.56, -0.55),
}
# Maximin references are eigenvalue-crossover predictions: SNR =
# (N/L) gamma1 / (N - beta (1 + gamma1)) with the half-chip-rate tone's
# leakage beta = 1/N and the gamma1 the default sweep records
# (periodic_noise 49.5 / 443 / 4383, multipath_mai 26.5 / 236 / 2331,
# five_tones 409 / 4094 / 40935). Through that monitor the desired
# signal's eigenvalue saturates at N/beta - 1 = N^2 - 1 = 960, so a cell
# whose gamma1 reaches 960 has no operating threshold: +inf, which is
# also what the measured curve gives there.
MAXIMIN_EXPECTED = {
    "periodic_noise": (8.2, 20.1, math.inf),
    "multipath_mai": (5.3, 15.9, math.inf),
    "five_tones": (19.5, math.inf, math.inf),
}
# gamma1 at which the tone monitor's threshold becomes +inf
MAXIMIN_POLE = CODE_LENGTH**2 - 1
MIC_TOL = 1.0
MAXIMIN_TOL = 1.5


@pytest.fixture()
def announce(capsys):
    """Write one live pass/fail line per criterion, bypassing capture."""

    def _announce(criterion: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            sys.stdout.write(
                f"\n[criterion {criterion:02d}] {status} — {detail}\n"
            )
            sys.stdout.flush()

    return _announce


@pytest.fixture(scope="module")
def sweep_result():
    return run_threshold_sweep(default_spec("threshold_sweep"))


@pytest.fixture(scope="module")
def sweep_cells(sweep_result):
    """(scenario, scheme, inr) -> representative row of that sweep cell."""
    cells = {}
    for row in sweep_result.rows:
        cells.setdefault((row["scenario"], row["scheme"], row["inr_db"]), row)
    return cells


@pytest.fixture(scope="module")
def eigencurve_result():
    return run_eigencurve(default_spec("eigencurve"))


@pytest.fixture(scope="module")
def pattern_result():
    return run_pattern(default_spec("pattern"))


@pytest.fixture(scope="module")
def convergence_result():
    return run_convergence(default_spec("convergence"))


@pytest.fixture(scope="module")
def tracking_result():
    return run_tracking(default_spec("tracking"))


@pytest.fixture(scope="module")
def identical_result():
    return run_identical_delay(default_spec("identical_delay"))


@pytest.fixture(scope="module")
def papc_decay_rows():
    # single long realization: the quadratic decay law is asymptotic and
    # trial-averaging of the linear mean biases the tail upward
    spec = default_spec("threshold_sweep")
    spec.scenario_names = ["periodic_noise"]
    spec.schemes = ["PAPC"]
    spec.inr_list_db = [10.0]
    spec.symbols = 150000
    spec.trials = 1
    spec.snr_grid_db = [float(s) for s in range(20, 41, 2)]
    return run_threshold_sweep(spec).rows


def test_criterion_01_threshold_tables(sweep_cells, announce):
    failures = []
    print("scenario        scheme   INR   measured   predicted   expected")
    for scenario in SCENARIO_ORDER:
        for scheme in ("MIC", "Maximin", "PAPC"):
            for i_idx, inr in enumerate(INR_ORDER):
                row = sweep_cells[(scenario, scheme, inr)]
                measured = row["measured_threshold_db"]
                predicted = row["predicted_threshold_db"]
                if scheme == "MIC":
                    target, tol, value = (
                        MIC_EXPECTED[scenario][i_idx], MIC_TOL, measured,
                    )
                    ok = abs(value - target) <= tol
                    expected_text = f"{target:+.2f}±{tol:g}"
                elif scheme == "Maximin":
                    # the single-channel monitor saturates its measurable
                    # switch, so the eigenvalue-crossover prediction is the
                    # comparable threshold for this scheme; it must still
                    # have a threshold exactly where the measured curve does
                    target, tol, value = (
                        MAXIMIN_EXPECTED[scenario][i_idx], MAXIMIN_TOL,
                        predicted,
                    )
                    if math.isinf(target):
                        ok = value == math.inf
                        expected_text = "+inf"
                    else:
                        ok = (
                            math.isfinite(value)
                            and abs(value - target) <= tol
                        )
                        expected_text = f"{target:+.2f}±{tol:g}"
                    if math.isinf(predicted) != math.isinf(measured):
                        ok = False
                        expected_text += ", finite iff measured is"
                else:
                    value = measured
                    ok = math.isinf(value) and value > 0
                    expected_text = "+inf"
                print(
                    f"{scenario:<15} {scheme:<8} {inr:>4.0f} "
                    f"{measured:>+9.2f} {predicted:>+10.2f}   "
                    f"{expected_text}{'' if ok else '   <-- out of band'}"
                )
                if not ok:
                    failures.append(
                        f"{scenario}/{scheme}/INR{inr:g}: got {value:+.2f}, "
                        f"expected {expected_text}"
                    )
    ok = not failures
    announce(1, ok, f"threshold tables, 27 cells, {len(failures)} out of band")
    assert ok, "; ".join(failures)


def test_criterion_02_invariance_of_full_basis_prediction(sweep_cells, announce):
    worst = 0.0
    for scenario in SCENARIO_ORDER:
        values = [
            sweep_cells[(scenario, "MIC", inr)]["predicted_threshold_db"]
            for inr in INR_ORDER
        ]
        worst = max(worst, max(values) - min(values))
    ok = worst <= 0.5
    announce(
        2, ok,
        f"full-basis predicted threshold drift across INR <= 0.5 dB "
        f"(worst {worst:.2f} dB)",
    )
    assert ok


def test_criterion_03_eigenvalue_crossover(eigencurve_result, announce):
    rows = eigencurve_result.rows
    crossover = rows[0]["crossover_db"]
    in_band = -1.6 <= crossover <= 0.4
    worst_ratio_gap = 0.0
    for row in rows:
        if abs(row["snr_db"] - crossover) <= 1.0:
            continue
        ratio = row["lambda1"] / row["lambda_max_predicted"]
        worst_ratio_gap = max(worst_ratio_gap, abs(ratio - 1.0))
    tracks = worst_ratio_gap <= 0.10
    ok = in_band and tracks
    announce(
        3, ok,
        f"crossover {crossover:+.2f} dB (band -0.6±1), dominant eigenvalue "
        f"within {worst_ratio_gap * 100:.1f}% of prediction off-band",
    )
    assert in_band, f"crossover {crossover:+.2f} outside [-1.6, 0.4]"
    assert tracks, f"eigenvalue prediction gap {worst_ratio_gap:.3f} > 0.10"


def test_criterion_04_single_channel_decay_law(papc_decay_rows, announce):
    snr = np.array([row["snr_db"] for row in papc_decay_rows])
    g = np.array([row["g_linear"] for row in papc_decay_rows])
    assert np.all(g > 0)
    slope = float(np.polyfit(snr / 10.0, np.log10(g), 1)[0])
    ok = -2.3 <= slope <= -1.7
    announce(
        4, ok,
        f"chip-monitor G decays with log-log slope {slope:.2f} (band -2±0.3)",
    )
    assert ok, f"slope {slope:.3f} outside [-2.3, -1.7]"


def test_criterion_05_numerical_oracles(announce):
    values = oracles.run_all()
    checks = [
        ("woodbury_drift_10k", values["woodbury_drift_10k"], 1e-8),
        ("fft_projection_gap", values["fft_projection_gap"], 1e-10),
        ("whitening_residual", values["whitening_residual"], 1e-9),
        ("mic_leakage", values["mic_leakage"], 1e-12),
        (
            "basis_orthonormality_gap",
            values["basis_orthonormality_gap"],
            1e-12,
        ),
    ]
    failures = [
        f"{name} = {value:.3g} > {bound:g}"
        for name, value, bound in checks
        if not value <= bound
    ]
    ok = not failures
    worst = max(value / bound for _, value, bound in checks)
    announce(
        5, ok,
        f"five numerical oracles within tolerance (worst at "
        f"{worst * 100:.1f}% of its bound)",
    )
    assert ok, "; ".join(failures)


def test_criterion_06_recursion_reaches_batch_solution(code0, announce):
    config = convergence_scenario(snr_db=20.0, num_symbols=500, seed=0)
    stream = synthesize(config)
    x_s, x_i = project_stream(stream.samples, make_basis("MIC", code0), 0)
    factors = adaptive.monitor_factors(x_i.swapaxes(0, 1))
    w = adaptive.run(x_s[None], factors[None], mu=0.999, delta=1e-3)
    _, batch_weight = solve_batch(oracles.covariances_from_arrays(x_s, x_i))
    angle = subspace_angle(w[0, -1], batch_weight)
    ok = angle <= 0.05
    announce(
        6, ok,
        f"recursive weight vs batch weight after 500 symbols: "
        f"{angle:.4f} rad (bound 0.05)",
    )
    assert ok


def test_criterion_07_convergence_speed(convergence_result, announce):
    meta = convergence_result.metadata
    counts = {
        snr: meta[f"convergence_symbols_MIC_snr{snr:g}"]
        for snr in (10.0, 20.0, 30.0)
    }
    fast = all(1 <= count <= 5 for count in counts.values())
    spread = max(counts.values()) - min(counts.values())
    insensitive = spread <= 2
    ok = fast and insensitive
    detail = ", ".join(f"SNR {snr:g}: {c} symbols" for snr, c in counts.items())
    announce(7, ok, f"full-basis convergence {detail} (<=5, spread <=2)")
    assert fast, f"convergence counts {counts} exceed 5 symbols"
    assert insensitive, f"convergence spread {spread} > 2 symbols"


def test_criterion_08_tracking_recovery(tracking_result, announce):
    meta = tracking_result.metadata
    recoveries = {
        key: meta[key]
        for key in meta
        if key.startswith("entry_") and key.endswith("_recovery_symbols")
    }
    assert len(recoveries) == 7
    failures = [
        f"{key} = {value}"
        for key, value in recoveries.items()
        if not 0 <= value <= 10
    ]
    ok = not failures
    worst = max(recoveries.values())
    announce(
        8, ok,
        f"recovery after each of 7 interferer entries <= 10 symbols "
        f"(worst {worst})",
    )
    assert ok, "; ".join(failures)


def test_criterion_09_beam_patterns(pattern_result, identical_result, announce):
    rows = {
        (row["scheme"], row["snr_db"]): row for row in pattern_result.rows
    }
    failures = []

    low_mic = rows[("MIC", 10.9)]
    if abs(low_mic["peak_theta_deg"]) > 3.0:
        failures.append(
            f"full-basis peak at low SNR: {low_mic['peak_theta_deg']:+.1f} deg"
        )
    low_papc = rows[("PAPC", 10.9)]
    papc_peak = low_papc["peak_theta_deg"]
    if not (abs(papc_peak - 30.0) <= 3.0 or abs(papc_peak + 40.0) <= 3.0):
        failures.append(
            f"chip-monitor peak at low SNR: {papc_peak:+.1f} deg, expected an "
            f"interferer direction"
        )
    high_papc = rows[("PAPC", 40.9)]
    if high_papc["gain_at_0deg_db"] > -30.0:
        failures.append(
            f"chip-monitor gain toward the desired signal at high SNR: "
            f"{high_papc['gain_at_0deg_db']:.1f} dB > -30"
        )
    for snr in (10.9, 40.9):
        mic = rows[("MIC", snr)]
        for key in ("gain_at_30deg_db", "gain_at_-40deg_db"):
            if mic[key] > -40.0:
                failures.append(
                    f"full-basis interferer null at SNR {snr:g}: "
                    f"{key} = {mic[key]:.1f} dB > -40"
                )

    id_rows = {row["beamformer"]: row for row in identical_result.rows}
    path1 = id_rows["distinct_path1"]
    if path1["gain_at_12deg_db"] > -20.0:
        failures.append(
            f"path-1 beam gain at the other path: "
            f"{path1['gain_at_12deg_db']:.1f} dB > -20"
        )
    compound = id_rows["identical"]
    for key in ("gain_at_0deg_db", "gain_at_12deg_db"):
        if compound[key] < -3.0:
            failures.append(
                f"compound beam {key} = {compound[key]:.1f} dB < -3"
            )
    for name, row in id_rows.items():
        if row["gain_at_40deg_db"] > -30.0:
            failures.append(
                f"{name} jammer null: {row['gain_at_40deg_db']:.1f} dB > -30"
            )

    ok = not failures
    announce(
        9, ok,
        f"pattern placement/null checks across 3 schemes and both "
        f"two-path variants ({len(failures)} failures)",
    )
    assert ok, "; ".join(failures)


def test_criterion_10_code_family_correlations(announce):
    cross, auto_offpeak = oracles.gold_correlation_levels()
    ok = set(cross) == {-9, -1, 7} and set(auto_offpeak) == {-9, -1, 7}
    announce(
        10, ok,
        f"brute-force code-family correlation levels: cross {sorted(cross)}, "
        f"off-peak auto {sorted(auto_offpeak)}",
    )
    assert ok


# ---------------------------------------------------------------------------
# supporting statistical invariants on the shared acceptance fixtures


def test_full_basis_interference_eigenvalue_is_power_invariant(sweep_cells):
    # the prediction's stability under INR (criterion 2) rests on the
    # interference eigenvalue itself being whitened away
    for scenario in SCENARIO_ORDER:
        values = [
            sweep_cells[(scenario, "MIC", inr)]["gamma1"] for inr in INR_ORDER
        ]
        spread = (max(values) - min(values)) / min(values)
        assert spread <= 0.05, f"{scenario}: gamma1 spread {spread:.3f}"


@pytest.mark.parametrize("scenario", SCENARIO_ORDER)
def test_single_channel_threshold_grows_with_inr(sweep_cells, scenario):
    # one monitor channel cannot whiten structured interference, so its
    # interference eigenvalue climbs decibel-for-decibel with INR; the
    # predicted threshold climbs at least as fast (faster near the pole,
    # where the leaky signal eigenvalue saturates) and is +inf from the
    # pole on
    cells = [sweep_cells[(scenario, "Maximin", inr)] for inr in INR_ORDER]
    gamma1 = [cell["gamma1"] for cell in cells]
    values = [cell["predicted_threshold_db"] for cell in cells]
    for lower, upper in zip(gamma1, gamma1[1:]):
        step = 10.0 * math.log10(upper / lower)
        assert 8.5 <= step <= 11.5, (
            f"{scenario}: gamma1 step {step:.2f} dB (values {gamma1})"
        )
    for g1, value in zip(gamma1, values):
        assert (value == math.inf) == (g1 >= MAXIMIN_POLE), (
            f"{scenario}: threshold {value:+.2f} dB at gamma1 {g1:.1f} "
            f"(pole {MAXIMIN_POLE})"
        )
    for lower, upper in zip(values, values[1:]):
        if lower == math.inf:
            assert upper == math.inf, f"{scenario}: values {values}"
        else:
            assert upper - lower >= 8.5, (
                f"{scenario}: predicted threshold step {upper - lower:.2f} "
                f"dB (values {values})"
            )


def test_single_channel_recursion_lags_full_basis(convergence_result):
    meta = convergence_result.metadata
    settle = meta["convergence_symbols_MIC_snr20"]
    by_symbol = {
        (row["scheme"], row["symbol"]): row["sinr_db"]
        for row in convergence_result.rows
        if row["snr_db"] == 20.0
    }
    symbol = settle - 1  # rows are 0-indexed, convergence counts are 1-indexed
    gap = by_symbol[("MIC", symbol)] - by_symbol[("PAPC", symbol)]
    assert gap >= 5.0, (
        f"single-channel recursion only {gap:.1f} dB behind at the "
        f"full basis's convergence point"
    )


def test_tracking_control_run_is_flat(tracking_result):
    sinr = [
        row["sinr_db"]
        for row in tracking_result.rows
        if row["run"] == "control" and row["symbol"] >= 50
    ]
    variation = max(sinr) - min(sinr)
    assert variation <= 1.0, f"control-run variation {variation:.2f} dB"


def test_weak_entry_perturbs_less_than_strong_entry(tracking_result):
    meta = tracking_result.metadata
    dips = [float(meta[f"entry_{i}_dip_db"]) for i in range(7)]
    weak = np.mean(dips[:2])   # the two 8 dB interferers enter first
    strong = np.mean(dips[2:])  # then the five 40 dB interferers
    assert weak < strong, (
        f"weak-entry mean dip {weak:.3f} dB vs strong-entry {strong:.3f} dB"
    )
