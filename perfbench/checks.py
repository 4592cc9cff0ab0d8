"""Output checks on a run's results.csv that any correct program passes.

They hold for any seed, for a change of RNG draw order and for scoring
the tracking runs with the pre-update weight: structure, finiteness,
exact leakage ratios, the full-basis (MIC) thresholds of the acceptance
table within its own 1 dB band, and a converged tracking control run.
They neither require nor forbid the documented structural failures
(Maximin on five_tones at INR 30 dB; zero-symbol tracking recovery), so
Maximin thresholds and recovery counts are not checked.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# MIC measured thresholds (dB) at INR 10/20/30 dB: the acceptance table
# of the test suite, with its tolerance.
MIC_EXPECTED_DB = {
    "periodic_noise": {10.0: -0.93, 20.0: -0.85, 30.0: -0.84},
    "multipath_mai": {10.0: -9.4, 20.0: -9.3, 30.0: -9.3},
    "five_tones": {10.0: -0.64, 20.0: -0.56, 30.0: -0.55},
}
MIC_TOL_DB = 1.0

# Leakage ratio bands by scheme, on top of equality with analysis.plr_beta.
BETA_BANDS = {
    "PAPC": (1.0 - 1e-9, 1.0 + 1e-9),
    "Maximin": (0.99 / 961.0, 1.01 / 961.0),
    "MIC": (0.0, 1e-12),
}

SWEEP_COLUMNS = [
    "scenario", "scheme", "inr_db", "snr_db", "g_linear", "g_db", "lambda1",
    "gamma1", "beta", "measured_threshold_db", "predicted_threshold_db",
    "scenario_hash",
]
TRACK_COLUMNS = [
    "run", "scheme", "symbol", "sinr_db", "active_interferers",
    "optimum_sinr_db", "scenario_hash",
]
TRACK_RUNS = ("staggered", "control")
# The control run (every interferer present from symbol 0) must sit within
# this many dB of its MVDR optimum after this many symbols.
CONTROL_SETTLE_SYMBOLS = 50
CONTROL_GAP_DB = 3.0


def read_results(path: str | Path) -> tuple[list[str], list[dict[str, str]]]:
    """Column names and rows of a results.csv, skipping '#' header lines."""
    with Path(path).open(newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    reader = csv.DictReader(lines)
    rows = list(reader)
    return list(reader.fieldnames or []), rows


def _finite(rows, column: str) -> list[str]:
    bad = [i for i, row in enumerate(rows) if not math.isfinite(float(row[column]))]
    if bad:
        return [f"{len(bad)} non-finite {column} values (first at row {bad[0]})"]
    return []


def check_sweep(
    columns: list[str], rows: list[dict[str, str]], spec: dict,
    expected_beta: dict[str, float],
) -> list[str]:
    """Failures of a threshold_sweep result against its spec."""
    failures = []
    if columns != SWEEP_COLUMNS:
        failures.append(f"columns {columns} != {SWEEP_COLUMNS}")
        return failures
    cells = {
        (sc, scheme, float(inr), float(snr))
        for sc in spec["scenario_names"]
        for inr in spec["inr_list_db"]
        for scheme in spec["schemes"]
        for snr in spec["snr_grid_db"]
    }
    seen = [
        (r["scenario"], r["scheme"], float(r["inr_db"]), float(r["snr_db"]))
        for r in rows
    ]
    if len(rows) != len(cells) or set(seen) != cells:
        failures.append(f"{len(rows)} rows do not cover the {len(cells)} spec cells")
    failures += _finite(rows, "g_linear") + _finite(rows, "lambda1")
    for scheme, expected in expected_beta.items():
        low, high = BETA_BANDS[scheme]
        if not low <= expected <= high:
            failures.append(f"{scheme}: plr_beta {expected!r} outside [{low}, {high}]")
        for value in {float(r["beta"]) for r in rows if r["scheme"] == scheme}:
            if not math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-15):
                failures.append(f"{scheme}: beta {value!r} != plr_beta {expected!r}")
    for r in rows:
        if r["scheme"] != "MIC" or float(r["snr_db"]) != spec["snr_grid_db"][0]:
            continue
        target = MIC_EXPECTED_DB[r["scenario"]][float(r["inr_db"])]
        measured = float(r["measured_threshold_db"])
        if not abs(measured - target) <= MIC_TOL_DB:
            failures.append(
                f"MIC {r['scenario']} INR {r['inr_db']}: threshold {measured:+.2f} dB "
                f"outside {target:+.2f} +- {MIC_TOL_DB:g}"
            )
    return failures


def check_tracking(
    columns: list[str], rows: list[dict[str, str]], spec: dict
) -> list[str]:
    """Failures of a tracking result against its spec."""
    failures = []
    if columns != TRACK_COLUMNS:
        failures.append(f"columns {columns} != {TRACK_COLUMNS}")
        return failures
    expected = {(run, k) for run in TRACK_RUNS for k in range(spec["symbols"])}
    seen = [(r["run"], int(r["symbol"])) for r in rows]
    if len(rows) != len(expected) or set(seen) != expected:
        failures.append(f"{len(rows)} rows do not cover {len(expected)} run symbols")
    failures += _finite(rows, "sinr_db")
    gaps = [
        float(r["optimum_sinr_db"]) - float(r["sinr_db"])
        for r in rows
        if r["run"] == "control" and int(r["symbol"]) > CONTROL_SETTLE_SYMBOLS
    ]
    worst = max(gaps, default=math.inf)
    if not worst <= CONTROL_GAP_DB:
        failures.append(
            f"control run {worst:.2f} dB below its optimum after symbol "
            f"{CONTROL_SETTLE_SYMBOLS} (limit {CONTROL_GAP_DB:g} dB)"
        )
    return failures


def check_report(report: dict) -> list[str]:
    """Failures of one child's results.csv, given the child's report."""
    columns, rows = read_results(report["results"])
    spec = report["spec"]
    if spec["preset"] == "threshold_sweep":
        return check_sweep(columns, rows, spec, report["expected_beta"])
    if spec["preset"] == "tracking":
        return check_tracking(columns, rows, spec)
    return [f"no output checks for preset {spec['preset']!r}"]
