"""Experiment harness: config loading, preset runners, CSV emission.

Every preset produces an ExperimentResult holding plain row dicts, named
beam patterns (gains over PATTERN_GRID_DEG) and a metadata map, built by
one _result call; write_result serializes them as
results.csv / patterns_<name>.csv / meta.txt. Result rows carry the
scenario hash so any row is traceable to the exact configuration and
seed that produced it, and results.csv content is a pure function of
(config, seed) so reruns are byte-identical.

Every synthesized stream is an exact sum of a unit-reference desired
component, an interference component and a noise component, the first
two held as steering matrices times waveform rows. component_grams is
the one covariance route: given bases that share the signal channel h_s,
it reads the stream once, projects only the waveform rows and the noise
and returns one SchemeGrams: the Gram G of the stacked projected rows
[soi; interferers; noise] over h_s, summed once for all bases, and one G
per basis over its monitor channels, those of every incomplete basis
(Maximin, PAPC) projected through one stacked projector. When a
numerical test finds [h_s, h_i] unitary (MIC's complete basis), that
basis's monitor G is the raw windows' Gram minus the signal Gram, and
its monitor channels are never projected. SchemeGrams holds the steering
matrices once and is the one place they are applied: every covariance is
M G M^H with M = [alpha A_s, A diag(s), I], alpha the desired amplitude
and s the interferer rows' amplitudes. The sweep-style presets take
every scheme's G in one call per (scenario, trial) and, since only alpha
changes across the SNR grid and only s across the INR levels, mix each
INR's pairs for every SNR, the signal side once for all schemes, and
solve each scheme's SNR grid as one stack; identical_delay mixes its
stream at amplitude one. The clutter covariances the recursive presets
score against are closed-form expectations over the scenario's random
draws (scenario.interference_moments), not sample Grams: no stream is
synthesized for them, and the test suite checks them against direct
estimation on quiet streams.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import adaptive as adaptive_mod
from . import presets
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
    interference_moments,
    rebind_desired,
    steering_vector,
    synthesize,
)

SCHEMA_VERSION = "mpb-lab/1"
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
        default_factory=lambda: list(_PRESETS["threshold_sweep"].builders)
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

    def validate(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigError(
                f"preset must be one of {PRESETS}, got {self.preset!r}"
            )
        preset = _PRESETS[self.preset]
        # a spec built in code gets a config file's kind rules on every
        # numeric field: no bool, no fraction for an int, no inf or nan
        for name, kind in _TOP.items():
            if kind not in (str, [str], dict):
                kind = kind[1] if isinstance(kind, tuple) else kind
                setattr(self, name, _value(getattr(self, name), kind, name))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.symbols < 1:
            raise ConfigError(f"symbols must be >= 1, got {self.symbols}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # nothing is silently ignored: an unread setting keeps its default,
        # and a list holds no more entries than read, no fewer than needed
        reference = _preset_spec(self.preset)
        for name in sorted(preset.unread(self)):
            if getattr(self, name) != getattr(reference, name):
                raise ConfigError(
                    f"{self.preset} does not read {_KEYS.get(name, name)}; leave it at "
                    f"{getattr(reference, name)!r}"
                )
        for name, (fewest, most) in preset.lists.items():
            count, key = len(getattr(self, name)), _KEYS.get(name, name)
            if count < fewest:
                raise ConfigError(
                    f"{self.preset} needs at least {fewest} {key} "
                    f"entr{'y' if fewest == 1 else 'ies'}, got {count}"
                )
            if most is not None and count > most:
                raise ConfigError(
                    f"{self.preset} reads only {most} entry of {key}, got {count}"
                )
        if np.any(np.diff(self.snr_grid_db) <= 0):
            raise ConfigError("snr_grid_db must be strictly ascending")
        if "scenario_names" in preset.lists:
            for name in self.scenario_names:
                if name not in preset.builders:
                    raise ConfigError(
                        f"unknown scenarios entry {name!r}; valid: "
                        f"{tuple(preset.builders)}"
                    )
        if self.entry_interval < 1:
            raise ConfigError(f"entry_interval must be >= 1, got {self.entry_interval}")
        # schemes and knob ranges are the ones the basis and solver set-up
        # check, each error reported under the key that set the value
        knobs = {"Maximin": "monitor_freq", "PAPC": "papc_chip_index"}
        channels = {}
        for scheme in self.schemes:
            try:
                channels[scheme] = _scheme_basis(self, scheme).num_channels
            except ValueError as exc:
                raise ConfigError(f"{knobs.get(scheme, 'schemes')}: {exc}") from exc
        for key, mu, delta in (("mu", self.mu, 1.0),
                               ("delta_scale", 0.5, self.delta_scale)):
            try:
                adaptive_mod.init(1, 1, mu, delta)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        if self.scenario is not None:
            if not self.scenario.desired:
                raise ConfigError("scenario.desired must be nonempty")
            try:
                self.scenario.validate()
            except ValueError as exc:
                raise ConfigError(f"scenario: {exc}") from exc
        # every run projects at least one whole window, and a batch solve
        # needs a full-rank monitor covariance: at least as many
        # snapshots (windows x channels) as the array has elements
        for scenario in _scenarios(self):
            n = scenario.config.processing_gain
            needed = 1 if preset.recursive else scenario.config.geometry.num_elements
            for n0, (scheme, count) in product(scenario.offsets, channels.items()):
                windows = (self.symbols * n - n0) // n
                if windows * count < needed:
                    raise ConfigError(
                        f"symbols={self.symbols} leaves {windows} whole "
                        f"window(s) at chip offset {n0}: {windows * count} "
                        f"{scheme} monitor snapshots; {self.preset} needs {needed}"
                    )


@dataclass(frozen=True)
class _Preset:
    """One preset as validation and its runner read it: its settings
    over ExperimentSpec's defaults, the fields it never reads whatever
    its schemes and scenario, the (fewest, most) entries it reads of
    each list it reads (most None: no bound), its built-in scenario
    builders by name, whether it runs the recursion (else a batch
    solve), and whether it solves each group of identical-delay desired
    paths at that group's window offset (else the first path's only)."""

    defaults: dict
    never_reads: tuple[str, ...]
    lists: dict[str, tuple[int, int | None]]
    builders: dict[str, Callable[..., ScenarioConfig]]
    recursive: bool = False
    path_groups: bool = False

    def unread(self, spec: ExperimentSpec) -> set[str]:
        """Fields spec never reads, given its schemes and scenario."""
        unread = set(self.never_reads)
        if spec.scenario is not None:
            unread |= {"scenario_names", "inr_list_db"}
        if "Maximin" not in spec.schemes:
            unread.add("monitor_freq")
        if "PAPC" not in spec.schemes:
            unread.add("papc_chip_index")
        return unread


_PRESETS: dict[str, _Preset] = {
    "threshold_sweep": _Preset(
        {"symbols": 20000, "trials": 4,
         "snr_grid_db": list(np.arange(-20.0, 48.0 + 1e-9, 2.0))},
        ("mu", "delta_scale", "entry_interval"),
        # a threshold is measured between two grid points
        {"schemes": (1, None), "scenario_names": (1, None),
         "snr_grid_db": (2, None), "inr_list_db": (1, None)},
        presets.SWEEP_SCENARIOS,
    ),
    "eigencurve": _Preset(
        {"symbols": 20000, "trials": 2, "schemes": ["MIC"],
         "snr_grid_db": list(np.arange(-20.0, 20.0 + 1e-9, 2.0)),
         "inr_list_db": [10.0]},
        ("scenario_names", "mu", "delta_scale", "entry_interval"),
        {"schemes": (1, 1), "snr_grid_db": (1, None), "inr_list_db": (1, 1)},
        {"five_tones": presets.five_tones_scenario},
    ),
    "pattern": _Preset(
        {"symbols": 20000, "trials": 1,
         "snr_grid_db": [10.9, 40.9], "inr_list_db": [30.0]},
        ("trials", "scenario_names", "mu", "delta_scale", "entry_interval"),
        {"schemes": (1, None), "snr_grid_db": (1, None), "inr_list_db": (1, 1)},
        {"periodic_noise": presets.periodic_noise_scenario},
    ),
    "convergence": _Preset(
        {"symbols": 60, "trials": 200, "schemes": ["MIC", "PAPC"],
         "snr_grid_db": [10.0, 20.0, 30.0]},
        ("scenario_names", "inr_list_db", "entry_interval"),
        {"schemes": (1, None), "snr_grid_db": (1, None)},
        {"convergence": presets.convergence_scenario}, recursive=True,
    ),
    "tracking": _Preset(
        {"symbols": 450, "trials": 200, "schemes": ["MIC"],
         "snr_grid_db": [20.0], "mu": 0.95},
        ("schemes", "scenario_names", "inr_list_db"),
        {"snr_grid_db": (1, 1)},
        {"tracking": presets.tracking_scenario}, recursive=True,
    ),
    "identical_delay": _Preset(
        {"symbols": 20000, "trials": 1, "schemes": ["MIC"], "snr_grid_db": [15.0]},
        ("trials", "schemes", "scenario_names", "inr_list_db", "scenario",
         "mu", "delta_scale", "entry_interval"),
        {"snr_grid_db": (1, 1)},
        {"distinct": partial(presets.identical_delay_scenario, False),
         "identical": partial(presets.identical_delay_scenario, True)},
        path_groups=True,
    ),
}


def _preset_spec(preset: str) -> ExperimentSpec:
    spec = ExperimentSpec(preset=preset, output_dir=f"runs/{preset}")
    for key, value in _PRESETS[preset].defaults.items():
        setattr(spec, key, list(value) if isinstance(value, list) else value)
    return spec


class _Scenario(NamedTuple):
    """One scenario a preset solves: its name, one (INR label, builder)
    per INR level, its first level's config at the spec's symbols and
    seed and 0 dB, and the window offsets it is projected at."""

    name: str
    levels: list[tuple[float | str, Callable[..., ScenarioConfig]]]
    config: ScenarioConfig
    offsets: list[int]


def _scenarios(spec: ExperimentSpec) -> list[_Scenario]:
    """The scenarios spec's preset solves, in order: a custom one, named
    custom, in place of the built-in ones; else those scenario_names
    names where the preset reads it, or all. Where the preset reads
    inr_list_db a built-in scenario has one level per INR, labelled with
    it, else one level labelled ''. Each level's builder takes snr_db,
    num_symbols and seed."""
    preset = _PRESETS[spec.preset]
    unread = preset.unread(spec)
    if spec.scenario is not None:
        named = [("custom", partial(replace, spec.scenario))]
    elif "scenario_names" in unread:
        named = list(preset.builders.items())
    else:
        named = [(name, preset.builders[name]) for name in spec.scenario_names]
    scenarios = []
    for name, builder in named:
        levels = ([("", builder)] if "inr_list_db" in unread else
                  [(float(inr_db), partial(builder, inr_db))
                   for inr_db in spec.inr_list_db])
        config = levels[0][1](snr_db=0.0, num_symbols=spec.symbols, seed=spec.seed)
        groups = (group_identical_delays(config.desired) if preset.path_groups
                  else [[0]])
        offsets = [config.desired[group[0]].delay_chips for group in groups]
        scenarios.append(_Scenario(name, levels, config, offsets))
    return scenarios


def default_spec(preset: str) -> ExperimentSpec:
    """Preset defaults: desk-scale sizes, all applicable schemes."""
    if preset not in PRESETS:
        raise ConfigError(f"preset must be one of {PRESETS}, got {preset!r}")
    spec = _preset_spec(preset)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# config files


def _construct_mapping(loader, node, deep: bool = False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise ConfigError(
                f"duplicate key {key!r} at line {key_node.start_mark.line + 1}"
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


@cache
def _strict_loader() -> type:
    """A SafeLoader that refuses duplicate mapping keys, built on first
    use: only load_config reads YAML, so importing the package does not
    import yaml."""
    import yaml

    class _StrictLoader(yaml.SafeLoader):
        pass

    _StrictLoader.add_constructor(
        yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
    )
    return _StrictLoader


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
# the config key of each spec field that a config file names otherwise
_KEYS = {"scenario_names": "scenarios"}
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
    return ScenarioConfig(
        ArrayGeometry(values.pop("num_elements", 8),
                      values.pop("spacing_wavelengths", 0.5)),
        num_symbols=spec.symbols, seed=spec.seed, **values,
    )


def load_config(path: str | Path) -> ExperimentSpec:
    """Parse and validate a YAML experiment file, applying preset defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    import yaml

    try:
        raw = yaml.load(text, Loader=_strict_loader())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    raw = _value({} if raw is None else raw, dict, "config")
    values = _section(raw, _TOP, "config", ["preset"])
    spec = default_spec(values.pop("preset"))
    for name, key in _KEYS.items():
        if key in values:
            values[name] = values.pop(key)
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
    unread = set(values) & _PRESETS[spec.preset].unread(spec)
    if unread:
        raise ConfigError(f"{spec.preset} does not read "
                          f"{sorted(_KEYS.get(name, name) for name in unread)}")
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
    """A preset's rows, its beam patterns (gains in dB over
    PATTERN_GRID_DEG, by name) and its metadata."""

    preset: str
    rows: list[dict]
    patterns: dict[str, np.ndarray]
    metadata: dict


def _result(
    spec: ExperimentSpec, rows: list[dict], patterns: dict | None = None, **summary
) -> ExperimentResult:
    """A runner's result: its metadata is the spec's run settings plus summary."""
    metadata = {
        "seed": spec.seed,
        "symbols": spec.symbols,
        "trials": spec.trials,
        "schemes": ",".join(spec.schemes),
        "desk_scale_note": (
            "desk-scale run; reference scale is 1e6 symbols and 1000 trials"
        ),
        **summary,
    }
    return ExperimentResult(spec.preset, rows, patterns or {}, metadata)


def write_result(result: ExperimentResult, out_dir: str | Path) -> Path:
    """Serialize a result: results.csv, patterns_<name>.csv, meta.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = result.rows
    # every key of every row, in order of first appearance
    columns = list(dict.fromkeys(key for row in rows for key in row))
    results_path = out / "results.csv"
    with results_path.open("w", newline="") as handle:
        handle.write(f"# schema={SCHEMA_VERSION}\n")
        handle.write(f"# preset={result.preset}\n")
        for key in sorted(result.metadata):
            if key == "timestamp":
                continue
            handle.write(f"# {key}={result.metadata[key]}\n")
        writer = csv.writer(handle)
        writer.writerow(columns)
        # a column a row lacks is left empty
        writer.writerows([_format_cell(row.get(key, "")) for key in columns]
                         for row in rows)

    for name, gains in result.patterns.items():
        with (out / f"patterns_{name}.csv").open("w", newline="") as handle:
            handle.write(f"# schema={SCHEMA_VERSION}\n")
            handle.write(f"# preset={result.preset}\n")
            writer = csv.writer(handle)
            writer.writerow(["theta_deg", "gain_db"])
            writer.writerows([_format_cell(theta), _format_cell(gain)]
                             for theta, gain in zip(PATTERN_GRID_DEG, gains))

    with (out / "meta.txt").open("w") as handle:
        handle.write(f"schema: {SCHEMA_VERSION}\n")
        handle.write(f"preset: {result.preset}\n")
        handle.write(f"written: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        for key in sorted(result.metadata):
            handle.write(f"{key}: {result.metadata[key]}\n")
    return results_path


def _format_cell(value) -> str:
    # .10g spells inf, -inf and nan itself
    return f"{value:.10g}" if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# component-Gram fast path

# Windows handled at once by component_grams: bounds its working set.
# A block's projections are small; one buffer of rows x 512 windows x N
# chips is allocated per call and the [soi; interferers] rows of each
# block are rendered into it (rows = P + D, or P + D + L with a complete
# basis in the call, whose raw Gram makes one conjugate copy): 2 x 3.6 MB
# for five_tones at L = 8, about 7.5 MB of peak in all, 1.6 MB without.
_GRAM_BLOCK_SYMBOLS = 512


@dataclass
class SchemeGrams:
    """Grams of one stream's projected component rows, kept in waveform
    space: the rows are [the P soi waveform rows; the D interferer
    waveform rows; the L noise rows], s_gram is their Gram over the
    signal channel the bases share and i_grams[b] over basis b's
    monitoring channels, each divided by its snapshot count. The
    steering matrices that carry the rows onto the elements are stored
    once next to them, and only this class applies them: every
    covariance is M G M^H with M = [alpha A_s, A diag(s), I].

    Mixing with amplitudes alpha and s reproduces the covariance pair
    the direct estimator would compute on a stream whose desired
    component is alpha times the reference stream's and whose
    interferer rows are s times its: one set of Grams serves a whole SNR
    grid, every INR level of a scenario and every subset of its
    interferers, for every scheme.
    """

    s_gram: np.ndarray
    i_grams: list[np.ndarray]
    soi_steering: np.ndarray
    steering: np.ndarray

    def _mixed(self, g: np.ndarray, alpha, scale, noise: float = 1.0) -> np.ndarray:
        """M g M^H, made Hermitian, with M = [alpha A_s, R] and
        R = [A diag(scale), noise I]. scale is one amplitude or one per
        interferer row; alpha is one amplitude, giving (L, L), or an
        array of G, giving a (G, L, L) stack with entry k at alpha[k].

        On the Hermitian part of g this is a polynomial in alpha,
        alpha^2 A_s G_ss A_s^H + alpha (X + X^H) + R G_rr R^H with
        X = A_s G_sr R^H, so the three L x L terms are formed once per
        call and broadcast over the alpha grid. Each term is Hermitian
        to the bit, and so is every entry of the sum.
        """
        g = 0.5 * (g + g.conj().T)
        p = self.soi_steering.shape[1]
        rest = np.concatenate(
            [self.steering * scale, noise * np.eye(len(self.steering))], axis=1
        )
        soi = self.soi_steering @ g[:p]
        cross = soi[:, p:] @ rest.conj().T
        soi_term = soi[:, :p] @ self.soi_steering.conj().T
        rest_term = rest @ g[p:, p:] @ rest.conj().T
        alpha = np.asarray(alpha, dtype=np.float64)[..., None, None]
        return (alpha**2 * (0.5 * (soi_term + soi_term.conj().T))
                + alpha * (cross + cross.conj().T)
                + 0.5 * (rest_term + rest_term.conj().T))

    def covariance_pair(self, alpha, scale=1.0) -> list[CovariancePair]:
        """One pair per basis, mixed with soi amplitude alpha and interferer
        amplitude scale (see _mixed); every pair holds the one r_s array."""
        r_s = self._mixed(self.s_gram, alpha, scale)
        return [CovariancePair(r_s=r_s, r_i=self._mixed(g, alpha, scale))
                for g in self.i_grams]

    def sinr_covariances(
        self, alpha, scale=1.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Signal-channel component covariances: soi scaled by alpha,
        interference by scale, noise. An array of G amplitudes alpha
        gives a (G, L, L) soi stack."""
        alpha = np.asarray(alpha, dtype=np.float64)[..., None, None]
        return (alpha**2 * self._mixed(self.s_gram, 1.0, 0.0, 0.0),
                self._mixed(self.s_gram, 0.0, scale, 0.0),
                self._mixed(self.s_gram, 0.0, 0.0))


def _complete(basis: ProjectionBasis) -> bool:
    """Whether [h_s, h_i] is a unitary N x N basis, as MIC's is."""
    full = np.column_stack([basis.h_s, basis.h_i])
    return full.shape[0] == full.shape[1] and np.allclose(
        full.conj().T @ full, np.eye(len(full)), rtol=0.0, atol=1e-12
    )


def component_grams(
    stream: ChipStream, bases: list[ProjectionBasis], n0: int
) -> SchemeGrams:
    """Grams of the projected soi, interferer and noise rows, one
    SchemeGrams for every basis, from one pass over the stream.

    Each component is a steering matrix times waveform rows (noise is
    the identity times itself) and a projection acts on the rows alone,
    so only the rows are projected, never an element-by-chip copy of a
    component; SchemeGrams applies the steering. The bases must share
    the signal channel h_s (a ValueError otherwise), so its Gram is
    taken once and serves every basis. The monitor channels of every
    incomplete basis are stacked into one projector with h_s, so the
    rendered rows and the noise are each projected once per block
    however many bases there are. The stream's [soi; interferers] rows
    of each block are rendered into one buffer, allocated once per
    call. When [h_s, h_i] is unitary (a numerical test, true for MIC)
    the monitor projectors sum to I - h_s h_s^H, so that basis's
    monitor Gram is the raw windows' Gram minus the signal Gram: the
    buffer then has room for the noise rows too, and the raw rows
    [soi; interferers; noise] of each block take one Gram. The rows are
    handled _GRAM_BLOCK_SYMBOLS windows at a time and each Gram keeps
    one running sum, so no projection of the whole stream, nor any
    rendered row, is ever held whole; the division comes once, at the
    end.
    """
    if not bases or any(not np.array_equal(b.h_s, bases[0].h_s) for b in bases):
        raise ValueError("component_grams needs bases that share one h_s")
    n = bases[0].h_s.size
    complete = [_complete(basis) for basis in bases]
    monitors = [b.h_i for b, done in zip(bases, complete) if not done]
    edges = np.cumsum([0, *(h_i.shape[1] for h_i in monitors)])
    projector = replace(bases[0], h_i=np.concatenate(
        [np.empty((n, 0), dtype=np.complex128), *monitors], axis=1))
    waves = len(stream.rows)
    size = waves + stream.num_elements
    s_sum = np.zeros((size, size), dtype=np.complex128)
    i_sums = np.zeros((len(monitors), size, size), dtype=np.complex128)
    raw_sum = np.zeros_like(s_sum)
    height = size if any(complete) else waves
    buffer = np.empty((height, _GRAM_BLOCK_SYMBOLS * n + n0), dtype=np.complex128)
    windows = (stream.noise.shape[1] - n0) // n
    # at least one block: its projection rejects a bad n0 or a stream
    # shorter than one window
    for start in range(0, max(windows, 1), _GRAM_BLOCK_SYMBOLS):
        stop = min(start + _GRAM_BLOCK_SYMBOLS, windows)
        block = buffer[:, : n0 + (stop - start) * n]
        rows = stream.render(start * n, n0 + stop * n, out=block[:waves])
        noise = stream.noise[:, start * n : n0 + stop * n]
        x_s, x_i = (np.concatenate(side) for side in zip(*(
            project_stream(component, projector, n0) for component in (rows, noise)
        )))
        s_sum += gram(x_s, x_s)
        for i_sum, a, b in zip(i_sums, edges, edges[1:]):
            i_sum += gram(x_i[..., a:b], x_i[..., a:b])
        if any(complete):
            block[waves:] = noise
            raw_sum += gram(block[:, n0:], block[:, n0:])
    monitor_sums = iter(i_sums)
    return SchemeGrams(
        s_sum / windows,
        [(raw_sum - s_sum if done else next(monitor_sums))
         / (windows * basis.num_channels)
         for basis, done in zip(bases, complete)],
        stream.soi_steering, stream.steering,
    )


def _scheme_basis(spec: ExperimentSpec, scheme: str) -> ProjectionBasis:
    code = generate_gold_codes(1)[0]
    return make_basis(
        scheme, code,
        monitor_freq=spec.monitor_freq, chip_index=spec.papc_chip_index,
    )


# ---------------------------------------------------------------------------
# preset runners


@dataclass
class GridSolution:
    """One scheme's batch solutions in a cell, over T trials and G grid SNRs."""

    gamma1: np.ndarray  # (T,) interference-to-noise eigenvalue of the quiet pair
    eigenvalues: np.ndarray  # (T, G, L) generalized eigenvalues, descending
    weights: np.ndarray  # (T, G, L) dominant generalized eigenvectors
    sinr: np.ndarray  # (T, G) normalized output SINR of each weight


def _interference_scale(reference: ScenarioConfig, config: ScenarioConfig) -> float:
    """The amplitude ratio s of config's interferers to reference's.

    A stream synthesized from reference serves config, with every
    interferer row scaled by s, only if the two configs agree in
    everything but interferer power and every interferer row gives the
    same s: sqrt(power / power_ref) for an interfering path and
    10^(delta INR / 20) for a jammer. A path of zero reference power
    gives no ratio and must have zero power in config too (its row is
    zero at any s). Anything else is a ValueError.
    """
    paths = list(zip(reference.mais, config.mais))
    ratios = [math.sqrt(path.power / ref.power) for ref, path in paths if ref.power]
    ratios += [10.0 ** ((jam.inr_db - ref.inr_db) / 20.0)
               for ref, jam in zip(reference.jammers, config.jammers)]
    unscaled = replace(
        config,
        mais=[replace(path, power=ref.power) if ref.power else path
              for ref, path in paths],
        jammers=[replace(jam, inr_db=ref.inr_db)
                 for ref, jam in zip(reference.jammers, config.jammers)],
    )
    if (
        len(config.mais) != len(reference.mais)
        or len(config.jammers) != len(reference.jammers)
        or unscaled != reference
        or any(not math.isclose(r, ratios[0], rel_tol=1e-12) for r in ratios)
    ):
        raise ValueError(
            "INR levels of one scenario must differ only in interferer "
            "power, by one amplitude ratio for every interferer"
        )
    return ratios[0] if ratios else 1.0


def _solve_grid(
    spec: ExperimentSpec, bases: dict[str, ProjectionBasis]
) -> list[tuple[str, float | str, ScenarioConfig, str, dict[str, GridSolution]]]:
    """Solve the batch pencil of every scheme over all trials of every
    (scenario, INR level) cell of spec's preset (_scenarios).

    Each level's config is built once, at 0 dB and the spec's seed, and
    must match its scenario's first level but for one interference
    amplitude s (_interference_scale). Trial t of scenario i is
    synthesized once, from the first level at seed (spec.seed, i, t):
    the INR is deliberately absent from the seed, so every level of a
    scenario is served by the same stream, its interferers rescaled, and
    threshold ladders reflect the power sweep alone. One component_grams
    call builds every basis's Grams in one pass over the stream. Per
    level, all pairs and the SINR covariances are mixed once, at
    amplitude s, and one GEVD per scheme solves the quiet pair (for
    gamma1) and one pair per grid SNR as one stack, each weight scored
    by its normalized output SINR. Returns, per cell, its scenario name,
    INR label, config, scenario hash and each scheme's GridSolution.
    """
    grid = np.asarray(spec.snr_grid_db, dtype=np.float64)
    cells = []
    for s_idx, scenario in enumerate(_scenarios(spec)):
        [n0] = scenario.offsets
        configs = [builder(snr_db=0.0, num_symbols=spec.symbols, seed=spec.seed)
                   for _, builder in scenario.levels]
        reference = configs[0]
        scales = [_interference_scale(reference, config) for config in configs]
        alphas = 10.0 ** (grid / 20.0) / math.sqrt(reference.snr_linear)
        quiet_and_grid = np.concatenate(([0.0], alphas))
        solved = [{scheme: [] for scheme in bases} for _ in configs]
        for trial in range(spec.trials):
            stream = synthesize(replace(reference, seed=(spec.seed, s_idx, trial)))
            grams = component_grams(stream, list(bases.values()), n0)
            del stream
            for cell, scale in zip(solved, scales):
                pairs = grams.covariance_pair(quiet_and_grid, scale)
                covariances = grams.sinr_covariances(alphas, scale)
                for scheme, pair in zip(bases, pairs):
                    evals, weights = solve_batch(pair)
                    sinr = normalized_sinr_from_covariances(
                        weights[1:], *covariances,
                        10.0 ** (grid / 10.0), reference.geometry.num_elements,
                    )
                    cell[scheme].append(
                        (evals[0, 0] - 1.0, evals[1:], weights[1:], sinr)
                    )
        cells += [
            (scenario.name, label, config, scenario_hash(config), {
                scheme: GridSolution(*map(np.array, zip(*per_trial)))
                for scheme, per_trial in cell.items()
            })
            for (label, _), config, cell in zip(scenario.levels, configs, solved)
        ]
    return cells


def run_threshold_sweep(spec: ExperimentSpec) -> ExperimentResult:
    """G-vs-SNR sweeps and measured/predicted thresholds per scheme."""
    if spec.preset != "threshold_sweep":
        raise ConfigError("run_threshold_sweep requires preset=threshold_sweep")
    rows: list[dict] = []
    code = generate_gold_codes(1)[0]
    bases = {scheme: _scheme_basis(spec, scheme) for scheme in spec.schemes}
    # a custom scenario is one cell: it has no INR to sweep or label
    cells = _solve_grid(spec, bases)
    for scenario_name, inr_label, config, config_hash, solved in cells:
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
    return _result(spec, rows)


def run_eigencurve(spec: ExperimentSpec) -> ExperimentResult:
    """Largest two generalized eigenvalues vs SNR with their predictions."""
    if spec.preset != "eigencurve":
        raise ConfigError("run_eigencurve requires preset=eigencurve")
    scheme = spec.schemes[0]
    basis = _scheme_basis(spec, scheme)
    beta = threshold_beta(basis, generate_gold_codes(1)[0])
    [(_, _, config, config_hash, solved)] = _solve_grid(spec, {scheme: basis})
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
    return _result(spec, rows, crossover_db=f"{crossover_db:.4f}",
                   gamma1=f"{gamma1_mean:.6f}")


def run_pattern(spec: ExperimentSpec) -> ExperimentResult:
    """Batch beam patterns at the two periodic-noise operating points."""
    if spec.preset != "pattern":
        raise ConfigError("run_pattern requires preset=pattern")
    rows: list[dict] = []
    patterns: dict[str, np.ndarray] = {}
    bases = {scheme: _scheme_basis(spec, scheme) for scheme in spec.schemes}
    [(_, inr_label, config, config_hash, solved)] = _solve_grid(spec, bases)
    for scheme, solution in solved.items():
        # pattern runs a single trial
        for snr_db, weight in zip(spec.snr_grid_db, solution.weights[0]):
            gains, beam = _beam(weight, config.geometry, (0.0, 30.0, -40.0))
            patterns[f"{scheme}_snr{snr_db:g}dB"] = gains
            rows.append(
                {
                    "scheme": scheme,
                    "snr_db": float(snr_db),
                    "inr_db": inr_label,
                    **beam,
                    "scenario_hash": config_hash,
                }
            )
    return _result(spec, rows, patterns)


def _beam(
    weight: np.ndarray, geometry: ArrayGeometry, angles: tuple[float, ...]
) -> tuple[np.ndarray, dict[str, float]]:
    """A weight's gains in dB over PATTERN_GRID_DEG and its row columns:
    the peak direction, then the gain at the grid point nearest each angle."""
    gains = array_pattern(weight, geometry, PATTERN_GRID_DEG)
    columns = {"peak_theta_deg": float(PATTERN_GRID_DEG[np.argmax(gains)])}
    for angle in angles:
        nearest = np.argmin(np.abs(PATTERN_GRID_DEG - angle))
        columns[f"gain_at_{angle:g}deg_db"] = float(gains[nearest])
    return gains, columns


def _clutters(base: ScenarioConfig, n0: int) -> np.ndarray:
    """Signal-channel interference+noise covariances of base, in closed form.

    Entry k of the (D+1, L, L) stack has only the first k interferers
    (in config order) present, so entry D is the whole scenario's
    clutter: noise_power |h_s|^2 I + A_k C_k A_k^H, with h_s the signal
    channel every basis shares, A_k the first k interferer steering
    columns and C_k the first k rows and columns of their despread
    moment (scenario.interference_moments). Nothing is synthesized.
    """
    h_s = make_basis("PAPC", generate_gold_codes(1)[0]).h_s
    moments = interference_moments(base, h_s, n0)
    steering = np.zeros((base.geometry.num_elements, len(moments)),
                        dtype=np.complex128)
    for column, source in zip(steering.T, [*base.mais, *base.jammers]):
        column[:] = steering_vector(base.geometry, source.doa_deg)
    noise = base.noise_power * np.vdot(h_s, h_s).real * np.eye(len(steering))
    stack = np.stack([
        noise + steering[:, :k] @ moments[:k, :k] @ steering[:, :k].conj().T
        for k in range(len(moments) + 1)
    ])
    return 0.5 * (stack + stack.conj().swapaxes(-1, -2))


def _silenced(fill: Callable, entry: int, out: np.ndarray, start: int) -> None:
    """A ChipStream row's fill with every chip before entry set to zero."""
    fill(out, start)
    out[: max(entry - start, 0)] = 0.0


def _staggered(stream: ChipStream, entries: list[int]) -> np.ndarray:
    """The stream's samples with interferer i silent before chip entries[i]."""
    rows = list(stream.rows)
    p = stream.soi_steering.shape[1]
    for i, entry in enumerate(entries):
        rows[p + i] = partial(_silenced, rows[p + i], entry)
    return replace(stream, rows=tuple(rows)).samples


# (cell, trial) rows stepped by one adaptive.run call, at most
# _RECURSION_ROWS and at most _RECURSION_BYTES of input stacks: per row
# and basis, x_s and the monitor factor rows, 16 K L (1 + m) bytes
# (m = min(L, r)). Bounds the stacks in trials and in memory. One MIC
# update_symbol (10 elements, one rank-10 inverse update) costs about
# 8.5-10.5 us per row at 64-512 rows, 14-17 us at 8 and 55-80 us at 1
# (fixed call overhead), one BLAS thread, so every chunk adds a fixed
# cost per symbol; building a MIC row's inputs costs about 3 ms per 450
# symbols (projection 1.2 ms, monitor Grams 1.0 ms, Cholesky 0.6 ms).
# A default tracking row holds 792 kB: its 400 rows go in 4 chunks of
# 100 (79 MB of stacks), with a desk peak of 153 MB; at 256 MiB the row
# cap alone would give 2 chunks of 200 and twice the stacks.
_RECURSION_ROWS = 256
_RECURSION_BYTES = 80 * 2**20


def _recursion(
    spec: ExperimentSpec,
    builder: Callable[..., ScenarioConfig],
    n0: int,
    cells: list[tuple[float, list[int]]],
    bases: dict[str, ProjectionBasis],
) -> list[tuple[str, dict[str, np.ndarray]]]:
    """Run the recursion of every scheme over all trials of every cell.

    A cell is (snr_db, entries): its trial t is builder's config at seed
    (spec.seed, 0, t) and snr_db, with interferer i silent before symbol
    entries[i], projected at window offset n0. Every cell shares each
    trial's draws: the trial is synthesized once, and every cell rebinds
    that stream's desired rows at its own SNR (scenario.rebind_desired,
    bit for bit a synthesis at that SNR). The (cell, trial) rows go
    trial-major, so one trial's rows are consecutive and only one
    trial's stream is held at a time, freed once its last row is
    rendered; the rows are split into the fewest chunks of equal size
    that keep each within _RECURSION_ROWS rows and _RECURSION_BYTES of
    stacks. Per row and basis, the projection's x_s and the monitor
    factor rows of its x_i (adaptive.monitor_factors) fill one
    preallocated pair of stacks, so no stack holds the r monitor
    channels; each scheme's adaptive.run steps the whole chunk at once.
    Rows never mix in the recursion, so a row's weights do not depend
    on the chunking or on the run's other cells. Every cell must
    share one delta = delta_scale * noise_power, else ValueError.
    Returns per cell its scenario hash and each scheme's (T, K, L)
    weights, w[:, k] the one that produced output k.
    """
    rows = [
        (builder(snr_db=snr_db, num_symbols=spec.symbols, seed=(spec.seed, 0, trial)),
         entries)
        for trial in range(spec.trials)
        for snr_db, entries in cells
    ]
    deltas = {spec.delta_scale * config.noise_power for config, _ in rows}
    if len(deltas) != 1:
        raise ValueError(
            f"recursion cells must share one delta, got {sorted(deltas)}"
        )
    (delta,) = deltas
    config = rows[0][0]
    n = config.processing_gain
    elements = config.geometry.num_elements
    symbols = (config.num_symbols * n - n0) // n
    ranks = {scheme: min(elements, basis.num_channels)
             for scheme, basis in bases.items()}
    row_bytes = sum(16 * symbols * elements * (1 + m) for m in ranks.values())
    most = max(1, min(_RECURSION_ROWS, _RECURSION_BYTES // max(row_bytes, 1)))
    chunks = -(-len(rows) // most)
    size = -(-len(rows) // chunks)
    stacks = {
        scheme: (np.empty((size, elements, symbols), dtype=np.complex128),
                 np.empty((size, symbols, m, elements), dtype=np.complex128))
        for scheme, m in ranks.items()
    }
    weights = {scheme: np.empty((len(rows), symbols, elements), dtype=np.complex128)
               for scheme in bases}
    stream = None
    for start in range(0, len(rows), size):
        chunk = rows[start : start + size]
        for row, (config, entries) in enumerate(chunk):
            if stream is None:
                stream = synthesize(config)
            received = _staggered(
                rebind_desired(stream, config),
                [entry * config.processing_gain for entry in entries],
            )
            # free the trial's draws after its last row, before projecting
            if (start + row + 1) % len(cells) == 0:
                stream = None
            for scheme, basis in bases.items():
                x_s, x_i = project_stream(received, basis, n0)
                stacks[scheme][0][row] = x_s
                stacks[scheme][1][row] = adaptive_mod.monitor_factors(
                    x_i.swapaxes(0, 1)
                )
        for scheme in bases:
            x_s, factors = (stack[: len(chunk)] for stack in stacks[scheme])
            adaptive_mod.run(x_s, factors, spec.mu, delta,
                             out=weights[scheme][start : start + len(chunk)])
    # cell c's trial t is row t * len(cells) + c
    return [
        (
            scenario_hash(replace(rows[c][0], seed=spec.seed)),
            {scheme: w[c :: len(cells)] for scheme, w in weights.items()},
        )
        for c in range(len(cells))
    ]


def run_convergence(spec: ExperimentSpec) -> ExperimentResult:
    """Trial-averaged per-symbol output SINR of the recursive solvers."""
    if spec.preset != "convergence":
        raise ConfigError("run_convergence requires preset=convergence")
    rows: list[dict] = []
    summary: dict[str, int] = {}
    bases = {scheme: _scheme_basis(spec, scheme) for scheme in spec.schemes}
    [scenario] = _scenarios(spec)
    [(_, builder)], [n0] = scenario.levels, scenario.offsets
    # interferer powers do not depend on the SNR, so neither does the clutter
    base = builder(snr_db=spec.snr_grid_db[0], num_symbols=spec.symbols,
                   seed=spec.seed)
    clutters = _clutters(base, n0)
    clutter = clutters[-1]
    # every SNR cell of a trial shares its draws (common random numbers)
    cells = _recursion(
        spec, builder, n0,
        [(snr_db, [0] * (len(clutters) - 1)) for snr_db in spec.snr_grid_db],
        bases,
    )
    for snr_db, (config_hash, weights) in zip(spec.snr_grid_db, cells):
        sig_power, steer = _scored_path(base, snr_db)
        optimum = mvdr_optimum_sinr(sig_power, steer, clutter)
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
            summary[f"convergence_symbols_{scheme}_snr{snr_db:g}"] = converged
    return _result(spec, rows, **summary)


def _scored_path(base: ScenarioConfig, snr_db: float) -> tuple[float, np.ndarray]:
    """The scored (first) desired path's despread power at snr_db, its
    power a factor on the noise power times the SNR, and its steering."""
    path = base.desired[0]
    return (path.power * base.noise_power * 10.0 ** (snr_db / 10.0),
            steering_vector(base.geometry, path.doa_deg))


def _first_within_3db(sinr_mean: np.ndarray, optimum: float) -> int:
    """Symbols needed to first reach half the optimum (-3 dB); -1 if never."""
    hits = np.flatnonzero(sinr_mean >= 0.5 * optimum)
    return int(hits[0]) + 1 if hits.size else -1


def run_tracking(spec: ExperimentSpec) -> ExperimentResult:
    """Per-symbol SINR of the MIC recursion through staggered interferer entries.

    Interferer i becomes active at symbol (i+1) * entry_interval. A
    control run with every interferer active from the start, on each
    staggered trial's own draws, is included for the stationarity
    reference.
    """
    if spec.preset != "tracking":
        raise ConfigError("run_tracking requires preset=tracking")
    snr_db = spec.snr_grid_db[0]
    [scenario] = _scenarios(spec)
    [(_, builder)], [n0] = scenario.levels, scenario.offsets
    base = builder(snr_db=snr_db, num_symbols=spec.symbols, seed=spec.seed)
    num_interferers = len(base.mais) + len(base.jammers)
    entries = [(i + 1) * spec.entry_interval for i in range(num_interferers)]

    # clutter covariance and optimum per count of active interferers
    # (interferers join in config order)
    sig_power, steer = _scored_path(base, snr_db)
    clutters = _clutters(base, n0)
    optima = [mvdr_optimum_sinr(sig_power, steer, q) for q in clutters]

    # the control run is each staggered trial's stream with nothing silenced
    runs = {"staggered": entries, "control": [0] * num_interferers}
    cells = _recursion(
        spec, builder, n0,
        [(snr_db, run_entries) for run_entries in runs.values()],
        {"MIC": _scheme_basis(spec, "MIC")},
    )
    rows: list[dict] = []
    summary: dict[str, object] = {}
    for (run_name, run_entries), (config_hash, weights) in zip(runs.items(), cells):
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
                summary[f"entry_{i}_symbol"] = entry
                summary[f"entry_{i}_recovery_symbols"] = recovery
                summary[f"entry_{i}_dip_db"] = f"{dip_db:.3f}"
    return _result(spec, rows, **summary)


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
    patterns: dict[str, np.ndarray] = {}
    basis = make_basis("MIC", generate_gold_codes(1)[0])
    for v_idx, (variant, [(_, builder)], _, offsets) in enumerate(_scenarios(spec)):
        config = builder(snr_db=spec.snr_grid_db[0], num_symbols=spec.symbols,
                         seed=(spec.seed, v_idx))
        config_hash = scenario_hash(replace(config, seed=spec.seed))
        stream = synthesize(config)
        # one beam per group of identical-delay desired paths
        for g_idx, n0 in enumerate(offsets):
            _, weight = solve_batch(
                component_grams(stream, [basis], n0).covariance_pair(1.0)[0]
            )
            name = (
                f"{variant}" if len(offsets) == 1 else f"{variant}_path{g_idx + 1}"
            )
            gains, beam = _beam(
                weight, config.geometry, (0.0, 12.0, 40.0, -10.0, -50.0)
            )
            patterns[name] = gains
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
    return _result(spec, rows, patterns)


RUNNERS: dict[str, Callable[[ExperimentSpec], ExperimentResult]] = {
    "eigencurve": run_eigencurve,
    "threshold_sweep": run_threshold_sweep,
    "pattern": run_pattern,
    "convergence": run_convergence,
    "tracking": run_tracking,
    "identical_delay": run_identical_delay,
}
PRESETS = tuple(RUNNERS)


def run_preset(spec: ExperimentSpec) -> ExperimentResult:
    spec.validate()
    return RUNNERS[spec.preset](spec)
