"""Matrix-pair beamforming on a synthetic multi-user CDMA array channel.

The library splits into six layers:

- linalg: generalized eigensolver, rank-one inverse updates
- scenario: Gold codes, array geometry, synthetic chip-rate streams
- core: projection bases (PAPC / Maximin / MIC, all built by
  make_basis), window projection, batch weight solving
- adaptive: the per-symbol recursive solver, all trials at once
  (shared by MIC and PAPC-RLS)
- analysis: leakage / threshold theory, SINR metrics, beam patterns,
  applicability checks
- harness + cli: experiment presets, config files, CSV emission; the
  one covariance route (component Grams) lives in the harness

The second routes the tests compare against (direct covariance
estimation, window-by-window and FFT projection, closed forms) live in
oracles and are not exported.
"""

from .adaptive import run
from .analysis import (
    array_pattern,
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
from .core import (
    CovariancePair,
    make_basis,
    project_stream,
    solve_batch,
)
from .harness import (
    ConfigError,
    ExperimentResult,
    ExperimentSpec,
    default_spec,
    load_config,
    run_preset,
    scenario_hash,
    write_result,
)
from .linalg import SingularMatrixError
from .scenario import (
    ArrayGeometry,
    JammerSpec,
    PathSpec,
    ScenarioConfig,
    generate_gold_codes,
    group_identical_delays,
    steering_vector,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "ConfigError",
    "CovariancePair",
    "ExperimentResult",
    "ExperimentSpec",
    "JammerSpec",
    "PathSpec",
    "ScenarioConfig",
    "SingularMatrixError",
    "array_pattern",
    "default_spec",
    "gamma0",
    "generate_gold_codes",
    "group_identical_delays",
    "lambda_max_prediction",
    "load_config",
    "make_basis",
    "measure_threshold",
    "mvdr_optimum_sinr",
    "normalized_sinr_from_covariances",
    "output_sinr",
    "plr_beta",
    "predicted_threshold",
    "project_stream",
    "run",
    "run_preset",
    "scenario_hash",
    "solve_batch",
    "steering_vector",
    "synthesize",
    "threshold_beta",
    "write_result",
]
