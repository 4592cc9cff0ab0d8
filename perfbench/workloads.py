"""The benchmark's workloads: which preset each runs, at what size, and why.

A workload only edits an ExperimentSpec that the child process obtained
from ``harness.default_spec``; the program sees nothing but that spec.
This module imports nothing from ``mpb_lab`` so that the client process,
which only spawns children and reads their reports, stays small (the
peak RSS of a child spawned by fork/exec includes the parent's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20260819

# Functions that every traced run of the workload must see called at least
# once. A zero count means the tracer missed a binding, so the traced run
# fails instead of reporting a silently empty layer.
_SWEEP_CALLS = (
    "harness.run_preset",
    "harness.run_threshold_sweep",
    "scenario.synthesize",
    "core.project_stream",
    "core.solve_batch",
    "harness.component_grams",
    "harness.SchemeGrams.covariance_pair",
    "harness.write_result",
    "linalg.hermitian_gevd",
    "analysis.normalized_sinr_from_covariances",
)
_TRACK_CALLS = (
    "harness.run_preset",
    "harness.run_tracking",
    "scenario.synthesize",
    "core.project_stream",
    "harness.write_result",
    "linalg.rank_one_inverse_update",
    "linalg.power_iteration_step",
    "adaptive.run",
    "adaptive.update_symbol",
    "analysis.output_sinr",
    "analysis.mvdr_optimum_sinr",
)


@dataclass(frozen=True)
class Workload:
    preset: str
    configure: Callable[[object], None]
    expected_calls: tuple[str, ...]


# Each size keeps one child at 3-9 s, so that a run's median rests on
# several children. sweep-fine keeps 4,000 symbols per stream in all (two
# trials): with fewer, the MIC thresholds scatter past the checks' 1 dB.


def _sweep_fine(spec) -> None:
    # every scenario, scheme and INR of the preset on a 0.5 dB grid:
    # thousands of small GEVDs, call overhead dominates
    spec.symbols = 2000
    spec.trials = 2
    spec.snr_grid_db = [-20.0 + 0.5 * i for i in range(137)]


def _sweep_long(spec) -> None:
    # one long trial of one scenario on the preset's 2 dB grid: large
    # arrays in synthesis, projection and Grams
    spec.scenario_names = ["five_tones"]
    spec.inr_list_db = [30.0]
    spec.symbols = 25000
    spec.trials = 1


def _track(spec) -> None:
    # the preset's recursion at its default size, fewer trials
    spec.trials = 4


WORKLOADS: dict[str, Workload] = {
    "sweep-fine": Workload("threshold_sweep", _sweep_fine, _SWEEP_CALLS),
    "sweep-long": Workload("threshold_sweep", _sweep_long, _SWEEP_CALLS),
    "track": Workload("tracking", _track, _TRACK_CALLS),
}


def build_spec(harness, workload: str, seed: int, output_dir: str):
    """The validated spec a child runs for one workload and seed."""
    w = WORKLOADS[workload]
    spec = harness.default_spec(w.preset)
    w.configure(spec)
    spec.seed = seed
    spec.output_dir = output_dir
    spec.validate()
    return spec
