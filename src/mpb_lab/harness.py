"""Experiment harness: config loading, preset runners, CSV emission.

Every preset produces an ExperimentResult holding plain row dicts, named
pattern tables and a metadata map; write_result serializes them as
results.csv / patterns_<name>.csv / meta.txt. Result rows carry the
scenario hash so any row is traceable to the exact configuration and
seed that produced it, and results.csv content is a pure function of
(config, seed) so reruns are byte-identical.

Every synthesized stream is an exact sum of a unit-reference desired
component, an interference component and a noise component, the first
two held as steering matrices times waveform rows. component_grams is
the one covariance route: it projects only the waveform rows and the
noise, and forms block (a, b) of the components' Gram as A_a G_ab A_b^H,
with G_ab the cross-Gram of the projected rows and A = I for noise. The
sweep-style presets build it once per (scenario, INR, trial) and, since
only the desired amplitude changes across the SNR grid, assemble the
covariance pair for any SNR from it algebraically; identical_delay
assembles its stream at amplitude one. The clutter covariances of the
recursive presets are the same assembly at zero desired amplitude, all
read from one quiet stream per preset by keeping its first k interferer
rows. This matches direct estimation on the summed stream
(ChipStream.samples, built only for the recursion's raw snapshots) to
roundoff, as the test suite verifies.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import adaptive as adaptive_mod
from . import presets
from .analysis import (
    PatternSample,
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
    ProjectionBasis,
    gram,
    make_basis,
    project_stream,
    solve_batch,
)
from .scenario import (
    ArrayGeometry,
    ChipStream,
    JammerSpec,
    PathSpec,
    ScenarioConfig,
    generate_gold_codes,
    group_identical_delays,
    steering_vector,
    synthesize,
)

SCHEMA_VERSION = "mpb-lab/1"
PRESETS = (
    "eigencurve",
    "threshold_sweep",
    "pattern",
    "convergence",
    "tracking",
    "identical_delay",
)
ALL_SCHEMES = ("MIC", "Maximin", "PAPC")
PATTERN_GRID_DEG = np.arange(-90.0, 90.0 + 1e-9, 0.5)


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


# ---------------------------------------------------------------------------
# experiment specification


@dataclass
class ExperimentSpec:
    """Fully resolved description of one harness run."""

    preset: str
    seed: int = 20260819
    symbols: int = 20000
    trials: int = 1
    schemes: list[str] = field(default_factory=lambda: list(ALL_SCHEMES))
    scenario_names: list[str] = field(
        default_factory=lambda: list(presets.SWEEP_SCENARIOS)
    )
    snr_grid_db: list[float] = field(default_factory=list)
    inr_list_db: list[float] = field(default_factory=lambda: [10.0, 20.0, 30.0])
    output_dir: str = ""
    scenario: ScenarioConfig | None = None
    monitor_freq: float = 0.5
    papc_chip_index: int = 0
    mu: float = 0.99
    delta_scale: float = 1e-3
    entry_interval: int = 50

    def _unread_fields(self) -> set[str]:
        """Fields this spec's preset never reads, given its schemes and scenario."""
        unread = set(_UNREAD[self.preset])
        if self.scenario is not None:
            unread |= {"scenario_names", "inr_list_db"}
        if "Maximin" not in self.schemes:
            unread.add("monitor_freq")
        if "PAPC" not in self.schemes:
            unread.add("papc_chip_index")
        return unread

    def validate(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigError(
                f"preset must be one of {PRESETS}, got {self.preset!r}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.symbols < 1:
            raise ConfigError(f"symbols must be >= 1, got {self.symbols}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.schemes:
            raise ConfigError("schemes must be a nonempty list")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must be nonempty")
        if list(self.snr_grid_db) != sorted(self.snr_grid_db):
            raise ConfigError("snr_grid_db must be ascending")
        if not self.inr_list_db:
            raise ConfigError("inr_list_db must be nonempty")
        for name in self.scenario_names:
            if name not in presets.SWEEP_SCENARIOS:
                raise ConfigError(
                    f"unknown scenario name {name!r}; valid: "
                    f"{tuple(presets.SWEEP_SCENARIOS)}"
                )
        if self.entry_interval < 1:
            raise ConfigError(f"entry_interval must be >= 1, got {self.entry_interval}")
        # nothing is silently ignored: a setting the preset never reads
        # must keep its default, and a list may not outrun what is used
        reference = _preset_spec(self.preset)
        for name in sorted(self._unread_fields()):
            if getattr(self, name) != getattr(reference, name):
                raise ConfigError(
                    f"{self.preset} does not read {name}; leave it at "
                    f"{getattr(reference, name)!r}"
                )
        for name, limit in _LIST_LIMITS.get(self.preset, {}).items():
            if len(getattr(self, name)) > limit:
                raise ConfigError(
                    f"{self.preset} reads only {limit} entry of {name}, "
                    f"got {len(getattr(self, name))}"
                )
        # schemes and knob ranges are the ones the basis and solver set-up check
        try:
            for scheme in self.schemes:
                _scheme_basis(self, scheme)
            adaptive_mod.init(1, 1, self.mu, self.delta_scale)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.scenario is not None:
            self.scenario.validate()


_PRESET_DEFAULTS: dict[str, dict] = {
    "threshold_sweep": {
        "symbols": 20000, "trials": 4,
        "snr_grid_db": list(np.arange(-20.0, 48.0 + 1e-9, 2.0)),
    },
    "eigencurve": {
        "symbols": 20000, "trials": 2, "schemes": ["MIC"],
        "snr_grid_db": list(np.arange(-20.0, 20.0 + 1e-9, 2.0)),
        "inr_list_db": [10.0],
    },
    "pattern": {
        "symbols": 20000, "trials": 1,
        "snr_grid_db": [10.9, 40.9], "inr_list_db": [30.0],
    },
    "convergence": {
        "symbols": 60, "trials": 200, "schemes": ["MIC", "PAPC"],
        "snr_grid_db": [10.0, 20.0, 30.0],
    },
    "tracking": {
        "symbols": 450, "trials": 200, "schemes": ["MIC"],
        "snr_grid_db": [20.0], "mu": 0.95,
    },
    "identical_delay": {
        "symbols": 20000, "trials": 1, "schemes": ["MIC"],
        "snr_grid_db": [15.0],
    },
}

# Fields a preset never reads, whatever its schemes and scenario.
_UNREAD: dict[str, tuple[str, ...]] = {
    "threshold_sweep": ("mu", "delta_scale", "entry_interval"),
    "eigencurve": ("scenario_names", "mu", "delta_scale", "entry_interval"),
    "pattern": ("trials", "scenario_names", "mu", "delta_scale", "entry_interval"),
    "convergence": ("scenario_names", "inr_list_db", "entry_interval"),
    "tracking": ("schemes", "scenario_names", "inr_list_db"),
    "identical_delay": (
        "trials", "schemes", "scenario_names", "inr_list_db", "scenario",
        "mu", "delta_scale", "entry_interval",
    ),
}

# Lists of which a preset reads only the leading entries.
_LIST_LIMITS: dict[str, dict[str, int]] = {
    "eigencurve": {"schemes": 1, "inr_list_db": 1},
    "pattern": {"inr_list_db": 1},
    "tracking": {"snr_grid_db": 1},
    "identical_delay": {"snr_grid_db": 1},
}


def _preset_spec(preset: str) -> ExperimentSpec:
    spec = ExperimentSpec(preset=preset, output_dir=f"runs/{preset}")
    for key, value in _PRESET_DEFAULTS[preset].items():
        setattr(spec, key, list(value) if isinstance(value, list) else value)
    return spec


def default_spec(preset: str) -> ExperimentSpec:
    """Preset defaults: desk-scale sizes, all applicable schemes."""
    if preset not in PRESETS:
        raise ConfigError(f"preset must be one of {PRESETS}, got {preset!r}")
    spec = _preset_spec(preset)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# config files


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that refuses duplicate mapping keys."""


def _construct_mapping(loader: _StrictLoader, node, deep: bool = False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise ConfigError(
                f"duplicate key {key!r} at line {key_node.start_mark.line + 1}"
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


# Each config section maps its keys to kinds: int, float, str, dict (a
# mapping, read as a section of its own), [kind] (a list of kind), or
# (dict, [kind]) for either form.
_TOP = {
    "preset": str, "seed": int, "symbols": int, "trials": int,
    "schemes": [str], "scenarios": [str], "snr_grid_db": (dict, [float]),
    "inr_list_db": [float], "output_dir": str, "scenario": dict,
    "monitor_freq": float, "papc_chip_index": int, "mu": float,
    "delta_scale": float, "entry_interval": int,
}
_GRID_RANGE = {"start": float, "stop": float, "step": float}
_SCENARIO = {
    "num_elements": int, "spacing_wavelengths": float, "chip_rate_hz": float,
    "symbol_rate_hz": float, "snr_db": float, "noise_power": float,
    "desired": [dict], "mais": [dict], "jammers": [dict],
}
_DESIRED = {"doa_deg": float, "delay_chips": int, "power": float}
_INTERFERING = {**_DESIRED, "user_index": int, "inr_db": float}
_JAMMER = {
    "kind": str, "doa_deg": float, "inr_db": float,
    "tone_offset_hz": float, "period_chips": int,
}


def _value(value, kind, key: str):
    """One config value coerced to its kind. A null is an error; so is a
    bool, a non-finite number or, for an int, a fraction where a number
    is due. A numeric string parses (PyYAML reads 1e5 as a string)."""
    if value is None:
        raise ConfigError(f"{key} must not be null")
    if isinstance(kind, tuple):
        kind = kind[0] if isinstance(value, dict) else kind[1]
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_value(v, kind[0], f"{key}[{i}]") for i, v in enumerate(value)]
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a mapping, got {value!r}")
        return value
    if kind is str and not isinstance(value, (dict, list)):
        return str(value)
    try:
        # float() raises TypeError on a mapping or a list, also for kind str
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{key} must be int, got {value!r}")
    return value if isinstance(value, int) else int(number)


def _section(raw: dict, kinds: dict, where: str, required=()) -> dict:
    """A config mapping's values coerced to their kinds; an unknown key or
    a missing required one is an error."""
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown, key=str)}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{where} requires {key}")
    return {key: _value(value, kinds[key], f"{where}.{key}")
            for key, value in raw.items()}


def _parse_scenario(section: dict, spec: ExperimentSpec) -> ScenarioConfig:
    """Custom scenario; its symbol count is spec.symbols, applied per run."""
    where = "config.scenario"
    values = {
        "chip_rate_hz": presets.CHIP_RATE_HZ, "symbol_rate_hz": presets.SYMBOL_RATE_HZ,
        "snr_db": 0.0, "noise_power": 1.0, "desired": [{"doa_deg": 0.0}],
        **_section(section, _SCENARIO, where),
    }
    values["desired"] = [
        PathSpec(user_index=0, **_section(
            entry, _DESIRED, f"{where}.desired[{idx}]", ["doa_deg"]))
        for idx, entry in enumerate(values["desired"])
    ]
    if not values["desired"]:
        raise ConfigError(f"{where}.desired must be nonempty")
    for idx, entry in enumerate(values.setdefault("mais", [])):
        path = _section(entry, _INTERFERING, f"{where}.mais[{idx}]", ["doa_deg"])
        if ("power" in path) == ("inr_db" in path):
            raise ConfigError(
                f"{where}.mais[{idx}] requires exactly one of power / inr_db"
            )
        if "inr_db" in path:
            path["power"] = values["noise_power"] * 10.0 ** (path.pop("inr_db") / 10.0)
        values["mais"][idx] = PathSpec(**{"user_index": idx + 1, **path})
    values["jammers"] = [
        JammerSpec(**_section(entry, _JAMMER, f"{where}.jammers[{idx}]",
                              ["kind", "doa_deg", "inr_db"]))
        for idx, entry in enumerate(values.get("jammers", []))
    ]
    config = ScenarioConfig(
        ArrayGeometry(values.pop("num_elements", 8),
                      values.pop("spacing_wavelengths", 0.5)),
        num_symbols=spec.symbols, seed=spec.seed, **values,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    return config


def load_config(path: str | Path) -> ExperimentSpec:
    """Parse and validate a YAML experiment file, applying preset defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    raw = _value({} if raw is None else raw, dict, "config")
    values = _section(raw, _TOP, "config", ["preset"])
    spec = default_spec(values.pop("preset"))
    if "scenarios" in values:
        values["scenario_names"] = values.pop("scenarios")
    grid = values.get("snr_grid_db")
    if isinstance(grid, dict):
        grid = _section(grid, _GRID_RANGE, "config.snr_grid_db", list(_GRID_RANGE))
        span = (grid["stop"] - grid["start"]) / grid["step"] if grid["step"] > 0 else -1
        if not 0 <= span < 1e6:
            raise ConfigError("snr_grid_db range must ascend in under 1e6 steps > 0")
        values["snr_grid_db"] = list(
            np.arange(grid["start"], grid["stop"] + 1e-9, grid["step"])
        )
    for key, value in values.items():
        if key != "scenario":
            setattr(spec, key, value)
    # the scenario takes its symbol count and seed from the spec
    if "scenario" in values:
        spec.scenario = _parse_scenario(values["scenario"], spec)
    # a key the preset never reads is an error even at its default value
    unread = set(values) & spec._unread_fields()
    if unread:
        raise ConfigError(f"{spec.preset} does not read {sorted(unread)}")
    spec.validate()
    return spec


def scenario_hash(config: ScenarioConfig) -> str:
    """Stable short digest of a scenario configuration."""
    canonical = repr(sorted(asdict(config).items()))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# results


@dataclass
class ExperimentResult:
    preset: str
    rows: list[dict]
    patterns: dict[str, list[PatternSample]]
    metadata: dict


def write_result(result: ExperimentResult, out_dir: str | Path) -> Path:
    """Serialize a result: results.csv, patterns_<name>.csv, meta.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = result.rows
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    results_path = out / "results.csv"
    with results_path.open("w", newline="") as handle:
        handle.write(f"# schema={SCHEMA_VERSION}\n")
        handle.write(f"# preset={result.preset}\n")
        for key in sorted(result.metadata):
            if key == "timestamp":
                continue
            handle.write(f"# {key}={result.metadata[key]}\n")
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_cell(v) for k, v in row.items()})

    for name, samples in result.patterns.items():
        with (out / f"patterns_{name}.csv").open("w", newline="") as handle:
            handle.write(f"# schema={SCHEMA_VERSION}\n")
            handle.write(f"# preset={result.preset}\n")
            writer = csv.writer(handle)
            writer.writerow(["theta_deg", "gain_db"])
            for sample in samples:
                writer.writerow(
                    [_format_cell(sample.theta_deg), _format_cell(sample.gain_db)]
                )

    with (out / "meta.txt").open("w") as handle:
        handle.write(f"schema: {SCHEMA_VERSION}\n")
        handle.write(f"preset: {result.preset}\n")
        handle.write(f"written: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        for key in sorted(result.metadata):
            handle.write(f"{key}: {result.metadata[key]}\n")
    return results_path


def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.10g}"
    return str(value)


# ---------------------------------------------------------------------------
# component-Gram fast path

# Windows projected at once by component_grams: bounds its working set
# (MIC's noise projection is L x 1,024 x 30 complex, 3.9 MB at L = 8).
_GRAM_BLOCK_SYMBOLS = 1024


@dataclass
class SchemeGrams:
    """Block Grams of the projected [soi; interference; noise] snapshots
    of one basis: s_gram over the signal channel, i_gram over the
    monitoring channels, each 3L x 3L with block (a, b) the cross-Gram
    of components a and b.

    Assembling with amplitude alpha reproduces the covariance pair the
    direct estimator would compute on a stream whose desired component
    is alpha times the reference stream's.
    """

    s_gram: np.ndarray
    i_gram: np.ndarray

    def covariance_pair(self, alpha: float) -> CovariancePair:
        """C G C^T for both Grams, with C = [alpha I, I, I]."""
        eye = np.eye(len(self.s_gram) // 3)
        mix = np.hstack((alpha * eye, eye, eye))
        r_s = mix @ self.s_gram @ mix.T
        r_i = mix @ self.i_gram @ mix.T
        return CovariancePair(
            r_s=0.5 * (r_s + r_s.conj().T),
            r_i=0.5 * (r_i + r_i.conj().T),
        )

    def sinr_covariances(
        self, alpha: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Signal-channel component covariances (soi scaled, interference, noise):
        the diagonal blocks of s_gram."""
        l = len(self.s_gram) // 3
        soi, interference, noise = (self.s_gram[k : k + l, k : k + l]
                                    for k in range(0, 3 * l, l))
        return alpha**2 * soi, interference, noise


def component_grams(
    stream: ChipStream, basis: ProjectionBasis, n0: int
) -> SchemeGrams:
    """Block Grams of the soi, interference and noise components.

    Each component is a steering matrix A times waveform rows Y (noise
    is A = I times itself), so its projection is A P(Y) and block (a, b)
    is A_a gram(P(Y_a), P(Y_b)) A_b^H over the snapshot count: only the
    waveform rows are projected, never an element-by-chip copy of a
    component. The rows are projected _GRAM_BLOCK_SYMBOLS windows at a
    time and the blocks' cross-Gram sums added up, so no projection of
    the whole stream is ever held; the division comes once, at the end.
    """
    l = stream.num_elements
    n = basis.h_s.size
    components = (
        (stream.soi_steering, stream.soi_waveforms),
        (stream.steering, stream.waveforms),
        (np.eye(l), stream.noise),
    )
    sums = {(side, a, b): 0.0
            for side in (0, 1) for a in range(3) for b in range(a, 3)}
    windows = (stream.noise.shape[1] - n0) // n
    # at least one block: its projection rejects a bad n0 or a stream
    # shorter than one window
    for start in range(0, max(windows, 1), _GRAM_BLOCK_SYMBOLS):
        chips = slice(start * n, n0 + min(start + _GRAM_BLOCK_SYMBOLS, windows) * n)
        projected = [project_stream(rows[:, chips], basis, n0)
                     for _, rows in components]
        for side, a, b in sums:
            sums[side, a, b] += gram(projected[a][side], projected[b][side])
    snapshots = (windows, windows * basis.num_channels)
    blocks = [slice(k * l, (k + 1) * l) for k in range(3)]
    grams = np.empty((2, 3 * l, 3 * l), dtype=np.complex128)
    for (side, a, b), total in sums.items():
        block = (components[a][0] @ (total / snapshots[side])
                 @ components[b][0].conj().T)
        grams[side, blocks[a], blocks[b]] = block
        grams[side, blocks[b], blocks[a]] = block.conj().T
    return SchemeGrams(*grams)


def _scheme_basis(spec: ExperimentSpec, scheme: str) -> ProjectionBasis:
    code = generate_gold_codes(1)[0]
    return make_basis(
        scheme, code,
        monitor_freq=spec.monitor_freq, chip_index=spec.papc_chip_index,
    )


def _scenario(
    spec: ExperimentSpec,
    builder: Callable[..., ScenarioConfig] | None,
    seed: int | tuple[int, ...],
    **overrides,
) -> tuple[ScenarioConfig, int]:
    """One trial's scenario and the window offset of its first desired path.

    The spec's custom scenario if it has one, else builder's built-in
    one; either way with spec.symbols symbols, the given seed and the
    overrides (snr_db and the like).
    """
    if spec.scenario is not None:
        config = replace(
            spec.scenario, num_symbols=spec.symbols, seed=seed, **overrides
        )
    else:
        config = builder(num_symbols=spec.symbols, seed=seed, **overrides)
    return config, config.desired[0].delay_chips if config.desired else 0


def _cell(
    spec: ExperimentSpec,
    builder: Callable[..., ScenarioConfig] | None,
    seed: tuple[int, ...],
    **overrides,
) -> tuple[ScenarioConfig, str, ChipStream, int]:
    """Set up and synthesize one trial of a preset: the _scenario config,
    its hash at the master seed (the same for every trial of a cell),
    the stream, and the window offset."""
    config, n0 = _scenario(spec, builder, seed, **overrides)
    config_hash = scenario_hash(replace(config, seed=spec.seed))
    return config, config_hash, synthesize(config), n0


# ---------------------------------------------------------------------------
# preset runners


@dataclass
class GridSolution:
    """One scheme's batch solutions in a cell, over T trials and G grid SNRs."""

    gamma1: np.ndarray  # (T,) interference-to-noise eigenvalue of the quiet pair
    eigenvalues: np.ndarray  # (T, G, L) generalized eigenvalues, descending
    weights: np.ndarray  # (T, G, L) dominant generalized eigenvectors
    sinr: np.ndarray  # (T, G) normalized output SINR of each weight


def _solve_grid(
    spec: ExperimentSpec,
    builder: Callable[..., ScenarioConfig] | None,
    seed: tuple[int, ...],
    bases: dict[str, ProjectionBasis],
) -> tuple[ScenarioConfig, str, dict[str, GridSolution]]:
    """Solve the batch pencil of every scheme over all trials of one cell.

    Trial t is synthesized once, at 0 dB and seed (*seed, t). Each basis
    builds its component Grams from it once, solves the zero-amplitude
    pair for gamma1 and then one pair per grid SNR, and scores each
    weight by its normalized output SINR. Returns the last trial's
    config, the cell's scenario hash and each scheme's GridSolution.
    """
    grid = np.asarray(spec.snr_grid_db, dtype=np.float64)
    solved: dict[str, list[tuple]] = {scheme: [] for scheme in bases}
    for trial in range(spec.trials):
        config, config_hash, stream, n0 = _cell(
            spec, builder, (*seed, trial), snr_db=0.0
        )
        alphas = 10.0 ** (grid / 20.0) / math.sqrt(config.snr_linear)
        for scheme, basis in bases.items():
            grams = component_grams(stream, basis, n0)
            gamma1 = solve_batch(grams.covariance_pair(0.0))[0][0] - 1.0
            evals, weights = zip(
                *(solve_batch(grams.covariance_pair(alpha)) for alpha in alphas)
            )
            sinr = [
                normalized_sinr_from_covariances(
                    w, *grams.sinr_covariances(alpha), 10.0 ** (snr_db / 10.0),
                    config.geometry.num_elements,
                )
                for w, alpha, snr_db in zip(weights, alphas, grid)
            ]
            solved[scheme].append((gamma1, evals, weights, sinr))
        del stream
    return config, config_hash, {
        scheme: GridSolution(*map(np.array, zip(*per_trial)))
        for scheme, per_trial in solved.items()
    }


def run_threshold_sweep(spec: ExperimentSpec) -> ExperimentResult:
    """G-vs-SNR sweeps and measured/predicted thresholds per scheme."""
    if spec.preset != "threshold_sweep":
        raise ConfigError("run_threshold_sweep requires preset=threshold_sweep")
    rows: list[dict] = []
    code = generate_gold_codes(1)[0]
    bases = {scheme: _scheme_basis(spec, scheme) for scheme in spec.schemes}

    # a custom scenario is one cell: it has no INR to sweep or label
    if spec.scenario is not None:
        cells = [(0, "custom", None, "")]
    else:
        cells = [
            (s_idx, name, partial(presets.SWEEP_SCENARIOS[name], inr_db),
             float(inr_db))
            for s_idx, name in enumerate(spec.scenario_names)
            for inr_db in spec.inr_list_db
        ]

    for s_idx, scenario_name, builder, inr_label in cells:
        # the INR is deliberately absent from the seed: every INR level
        # of a scenario reuses the same trial draws with rescaled
        # powers, so threshold ladders reflect the power sweep alone
        config, config_hash, solved = _solve_grid(
            spec, builder, (spec.seed, s_idx), bases
        )
        n = config.processing_gain
        l = config.geometry.num_elements
        for scheme, solution in solved.items():
            g_mean = solution.sinr.mean(axis=0)
            lam_mean = solution.eigenvalues[:, :, 0].mean(axis=0)
            gamma1_mean = solution.gamma1.mean()
            beta = plr_beta(bases[scheme], code)
            theory_beta = threshold_beta(bases[scheme], code)
            measured = measure_threshold(spec.snr_grid_db, g_mean)
            predicted = predicted_threshold(gamma1_mean, theory_beta, n, l)
            for g_idx, snr_db in enumerate(spec.snr_grid_db):
                rows.append(
                    {
                        "scenario": scenario_name,
                        "scheme": scheme,
                        "inr_db": inr_label,
                        "snr_db": float(snr_db),
                        "g_linear": float(g_mean[g_idx]),
                        "g_db": 10.0 * math.log10(max(g_mean[g_idx], 1e-30)),
                        "lambda1": float(lam_mean[g_idx]),
                        "gamma1": gamma1_mean,
                        "beta": beta,
                        "measured_threshold_db": measured,
                        "predicted_threshold_db": predicted,
                        "scenario_hash": config_hash,
                    }
                )

    metadata = _base_metadata(spec)
    return ExperimentResult(
        preset=spec.preset, rows=rows, patterns={}, metadata=metadata
    )


def run_eigencurve(spec: ExperimentSpec) -> ExperimentResult:
    """Largest two generalized eigenvalues vs SNR with their predictions."""
    if spec.preset != "eigencurve":
        raise ConfigError("run_eigencurve requires preset=eigencurve")
    scheme = spec.schemes[0]
    basis = _scheme_basis(spec, scheme)
    beta = threshold_beta(basis, generate_gold_codes(1)[0])
    config, config_hash, solved = _solve_grid(
        spec, partial(presets.five_tones_scenario, spec.inr_list_db[0]),
        (spec.seed, 0), {scheme: basis},
    )
    solution = solved[scheme]
    lam1, lam2 = solution.eigenvalues[:, :, :2].mean(axis=0).T
    gamma1_mean = solution.gamma1.mean()
    n = config.processing_gain
    l = config.geometry.num_elements

    crossover_db = predicted_threshold(gamma1_mean, beta, n, l)

    rows = []
    for g_idx, snr_db in enumerate(spec.snr_grid_db):
        g0 = gamma0(10.0 ** (snr_db / 10.0), n, l, beta)
        rows.append(
            {
                "snr_db": float(snr_db),
                "lambda1": float(lam1[g_idx]),
                "lambda2": float(lam2[g_idx]),
                "gamma0_plus_1": g0 + 1.0,
                "gamma1_plus_1": gamma1_mean + 1.0,
                "lambda_max_predicted": lambda_max_prediction(g0, gamma1_mean),
                "crossover_db": crossover_db,
                "scenario_hash": config_hash,
            }
        )
    metadata = _base_metadata(spec)
    metadata["crossover_db"] = f"{crossover_db:.4f}"
    metadata["gamma1"] = f"{gamma1_mean:.6f}"
    return ExperimentResult(
        preset=spec.preset, rows=rows, patterns={}, metadata=metadata
    )


def run_pattern(spec: ExperimentSpec) -> ExperimentResult:
    """Batch beam patterns at the two periodic-noise operating points."""
    if spec.preset != "pattern":
        raise ConfigError("run_pattern requires preset=pattern")
    inr_db = spec.inr_list_db[0]
    rows: list[dict] = []
    patterns: dict[str, list[PatternSample]] = {}
    bases = {scheme: _scheme_basis(spec, scheme) for scheme in spec.schemes}
    config, config_hash, solved = _solve_grid(
        spec, partial(presets.periodic_noise_scenario, inr_db), (spec.seed, 0),
        bases,
    )
    for scheme, solution in solved.items():
        # pattern runs a single trial
        for snr_db, weight in zip(spec.snr_grid_db, solution.weights[0]):
            samples, beam = _beam(weight, config.geometry, (0.0, 30.0, -40.0))
            patterns[f"{scheme}_snr{snr_db:g}dB"] = samples
            rows.append(
                {
                    "scheme": scheme,
                    "snr_db": float(snr_db),
                    "inr_db": "" if spec.scenario is not None else float(inr_db),
                    **beam,
                    "scenario_hash": config_hash,
                }
            )
    metadata = _base_metadata(spec)
    return ExperimentResult(
        preset=spec.preset, rows=rows, patterns=patterns, metadata=metadata
    )


def _beam(
    weight: np.ndarray, geometry: ArrayGeometry, angles: tuple[float, ...]
) -> tuple[list[PatternSample], dict[str, float]]:
    """A weight's beam pattern over PATTERN_GRID_DEG and its row columns:
    the peak direction, then the gain at the grid point nearest each angle."""
    samples = array_pattern(weight, geometry, PATTERN_GRID_DEG)
    gains = np.array([s.gain_db for s in samples])
    columns = {"peak_theta_deg": float(PATTERN_GRID_DEG[np.argmax(gains)])}
    for angle in angles:
        nearest = np.argmin(np.abs(PATTERN_GRID_DEG - angle))
        columns[f"gain_at_{angle:g}deg_db"] = float(gains[nearest])
    return samples, columns


def _clutters(
    base: ScenarioConfig, n0: int, num_symbols: int, seed: tuple[int, ...]
) -> np.ndarray:
    """Signal-channel interference+noise covariances from one quiet run.

    Entry k of the (D+1, L, L) stack has only the first k interferers
    (in config order) present, so entry D is the whole scenario's clutter.
    """
    quiet = synthesize(
        replace(base.signal_free(), num_symbols=num_symbols, seed=seed)
    )
    # every basis shares the signal channel h_s; PAPC's monitor is one channel
    basis = make_basis("PAPC", generate_gold_codes(1)[0])
    return np.stack([
        component_grams(
            replace(quiet, steering=quiet.steering[:, :k],
                    waveforms=quiet.waveforms[:k]),
            basis, n0,
        ).covariance_pair(0.0).r_s
        for k in range(len(quiet.waveforms) + 1)
    ])


def _staggered(stream: ChipStream, entries: list[int]) -> np.ndarray:
    """The stream's samples with interferer i silent before chip entries[i]."""
    waveforms = stream.waveforms.copy()
    for row, entry in zip(waveforms, entries):
        row[:entry] = 0.0
    return replace(stream, waveforms=waveforms).samples


def _recursion(
    spec: ExperimentSpec,
    builder: Callable[..., ScenarioConfig],
    seed: tuple[int, ...],
    snr_db: float,
    bases: dict[str, ProjectionBasis],
    entries: list[int],
) -> tuple[str, dict[str, np.ndarray]]:
    """Run the recursion of every scheme over all trials of one cell.

    Trial t is synthesized once, at seed (*seed, t), with interferer i
    silent before symbol entries[i]; every basis's projection of it is
    stacked on a leading trial axis and each scheme's adaptive.run sees
    all trials at once. Returns the cell's scenario hash and each
    scheme's (T, K, L) weights, w[:, k] the one that produced output k.
    """
    stacks: dict[str, list[np.ndarray]] = {}
    for trial in range(spec.trials):
        config, config_hash, stream, n0 = _cell(
            spec, builder, (*seed, trial), snr_db=snr_db
        )
        received = _staggered(
            stream, [entry * config.processing_gain for entry in entries]
        )
        for scheme, basis in bases.items():
            projected = project_stream(received, basis, n0)
            if trial == 0:
                stacks[scheme] = [
                    np.empty((spec.trials, *x.shape), dtype=x.dtype)
                    for x in projected
                ]
            for stack, x in zip(stacks[scheme], projected):
                stack[trial] = x
    delta = spec.delta_scale * config.noise_power
    return config_hash, {
        scheme: adaptive_mod.run(*stacks.pop(scheme), spec.mu, delta).w
        for scheme in bases
    }


def run_convergence(spec: ExperimentSpec) -> ExperimentResult:
    """Trial-averaged per-symbol output SINR of the recursive solvers."""
    if spec.preset != "convergence":
        raise ConfigError("run_convergence requires preset=convergence")
    rows: list[dict] = []
    metadata = _base_metadata(spec)
    bases = {scheme: _scheme_basis(spec, scheme) for scheme in spec.schemes}
    # interferer powers do not depend on the SNR, so neither does the clutter
    base, n0 = _scenario(
        spec, presets.convergence_scenario, spec.seed, snr_db=spec.snr_grid_db[0]
    )
    clutters = _clutters(base, n0, 10000, (spec.seed, 7000))
    clutter = clutters[-1]
    steer = steering_vector(base.geometry, base.desired[0].doa_deg)
    for s_idx, snr_db in enumerate(spec.snr_grid_db):
        sig_power = base.noise_power * 10.0 ** (snr_db / 10.0)
        optimum = mvdr_optimum_sinr(sig_power, steer, clutter)
        config_hash, weights = _recursion(
            spec, presets.convergence_scenario, (spec.seed, s_idx), snr_db,
            bases, [0] * (len(clutters) - 1),
        )
        for scheme, w in weights.items():
            sinr_mean = np.mean(output_sinr(w, sig_power, steer, clutter), axis=0)
            converged = _first_within_3db(sinr_mean, optimum)
            for k in range(sinr_mean.size):
                rows.append(
                    {
                        "scheme": scheme,
                        "snr_db": float(snr_db),
                        "symbol": k,
                        "sinr_db": 10.0 * math.log10(max(sinr_mean[k], 1e-30)),
                        "optimum_sinr_db": 10.0 * math.log10(optimum),
                        "g_db": 10.0
                        * math.log10(max(sinr_mean[k] / optimum, 1e-30)),
                        "convergence_symbols": converged,
                        "scenario_hash": config_hash,
                    }
                )
            metadata[f"convergence_symbols_{scheme}_snr{snr_db:g}"] = converged
    return ExperimentResult(
        preset=spec.preset, rows=rows, patterns={}, metadata=metadata
    )


def _first_within_3db(sinr_mean: np.ndarray, optimum: float) -> int:
    """Symbols needed to first reach half the optimum (-3 dB); -1 if never."""
    hits = np.flatnonzero(sinr_mean >= 0.5 * optimum)
    return int(hits[0]) + 1 if hits.size else -1


def run_tracking(spec: ExperimentSpec) -> ExperimentResult:
    """Per-symbol SINR of the MIC recursion through staggered interferer entries.

    Interferer i becomes active at symbol (i+1) * entry_interval. A
    control run with every interferer active from the start is included
    for the stationarity reference.
    """
    if spec.preset != "tracking":
        raise ConfigError("run_tracking requires preset=tracking")
    snr_db = spec.snr_grid_db[0]
    base, n0 = _scenario(spec, presets.tracking_scenario, spec.seed, snr_db=snr_db)
    num_interferers = len(base.mais) + len(base.jammers)
    entries = [(i + 1) * spec.entry_interval for i in range(num_interferers)]

    # clutter covariance and optimum per count of active interferers
    # (interferers join in config order)
    steer = steering_vector(base.geometry, base.desired[0].doa_deg)
    sig_power = base.noise_power * 10.0 ** (snr_db / 10.0)
    clutters = _clutters(base, n0, 6000, (spec.seed, 8000 + num_interferers))
    optima = [mvdr_optimum_sinr(sig_power, steer, q) for q in clutters]

    bases = {"MIC": _scheme_basis(spec, "MIC")}
    rows: list[dict] = []
    metadata = _base_metadata(spec)
    for r_idx, run_name in enumerate(("staggered", "control")):
        run_entries = entries if run_name == "staggered" else [0] * num_interferers
        config_hash, weights = _recursion(
            spec, presets.tracking_scenario, (spec.seed, r_idx), snr_db,
            bases, run_entries,
        )
        num_symbols = weights["MIC"].shape[1]
        active = [sum(1 for e in run_entries if e <= k) for k in range(num_symbols)]
        sinr = output_sinr(weights["MIC"], sig_power, steer, clutters[active])
        sinr_mean = np.mean(sinr, axis=0)
        for k in range(num_symbols):
            rows.append(
                {
                    "run": run_name,
                    "scheme": "MIC",
                    "symbol": k,
                    "sinr_db": 10.0 * math.log10(max(sinr_mean[k], 1e-30)),
                    "active_interferers": active[k],
                    "optimum_sinr_db": 10.0 * math.log10(optima[active[k]]),
                    "scenario_hash": config_hash,
                }
            )
        if run_name == "staggered":
            for i, entry in enumerate(entries):
                if entry >= num_symbols:
                    continue
                recovery, dip_db = _entry_recovery(sinr_mean, entry)
                metadata[f"entry_{i}_symbol"] = entry
                metadata[f"entry_{i}_recovery_symbols"] = recovery
                metadata[f"entry_{i}_dip_db"] = f"{dip_db:.3f}"
    return ExperimentResult(
        preset=spec.preset, rows=rows, patterns={}, metadata=metadata
    )


def _entry_recovery(sinr_mean: np.ndarray, entry: int) -> tuple[int, float]:
    """Symbols to climb back within 3 dB of the pre-entry plateau, and the
    dip depth in dB relative to that plateau."""
    lead = sinr_mean[max(0, entry - 10) : entry]
    plateau = float(np.mean(lead)) if lead.size else float(sinr_mean[entry])
    tail = sinr_mean[entry:]
    dip = float(np.min(tail[: min(tail.size, 50)]))
    dip_db = 10.0 * math.log10(max(plateau, 1e-30) / max(dip, 1e-300))
    hits = np.flatnonzero(tail >= 0.5 * plateau)
    recovery = int(hits[0]) if hits.size else -1
    return recovery, dip_db


def run_identical_delay(spec: ExperimentSpec) -> ExperimentResult:
    """Two-path study: separate beams for distinct delays, one compound
    beam when the paths coincide."""
    if spec.preset != "identical_delay":
        raise ConfigError("run_identical_delay requires preset=identical_delay")
    rows: list[dict] = []
    patterns: dict[str, list[PatternSample]] = {}
    metadata = _base_metadata(spec)
    code = generate_gold_codes(1)[0]
    basis = make_basis("MIC", code)
    for v_idx, identical in enumerate((False, True)):
        variant = "identical" if identical else "distinct"
        config, config_hash, stream, _ = _cell(
            spec, partial(presets.identical_delay_scenario, identical),
            (spec.seed, v_idx), snr_db=spec.snr_grid_db[0],
        )
        groups = group_identical_delays(config.desired)
        for g_idx, group in enumerate(groups):
            n0 = config.desired[group[0]].delay_chips
            _, weight = solve_batch(
                component_grams(stream, basis, n0).covariance_pair(1.0)
            )
            name = (
                f"{variant}" if len(groups) == 1 else f"{variant}_path{g_idx + 1}"
            )
            samples, beam = _beam(
                weight, config.geometry, (0.0, 12.0, 40.0, -10.0, -50.0)
            )
            patterns[name] = samples
            rows.append(
                {
                    "variant": variant,
                    "beamformer": name,
                    "delay_chips": n0,
                    **beam,
                    "scenario_hash": config_hash,
                }
            )
        del stream
    return ExperimentResult(
        preset=spec.preset, rows=rows, patterns=patterns, metadata=metadata
    )


RUNNERS: dict[str, Callable[[ExperimentSpec], ExperimentResult]] = {
    "threshold_sweep": run_threshold_sweep,
    "eigencurve": run_eigencurve,
    "pattern": run_pattern,
    "convergence": run_convergence,
    "tracking": run_tracking,
    "identical_delay": run_identical_delay,
}


def run_preset(spec: ExperimentSpec) -> ExperimentResult:
    spec.validate()
    return RUNNERS[spec.preset](spec)


def _base_metadata(spec: ExperimentSpec) -> dict:
    return {
        "seed": spec.seed,
        "symbols": spec.symbols,
        "trials": spec.trials,
        "schemes": ",".join(spec.schemes),
        "desk_scale_note": (
            "desk-scale run; reference scale is 1e6 symbols and 1000 trials"
        ),
    }
