"""Synthetic multi-user CDMA channel seen by a uniform linear array.

The stream model is chip-rate sampling after the receive filter: every
additive term (desired-user paths, other users' paths, jammers, noise)
is generated separately and recorded, so experiments can form exact
signal/interference/noise decompositions of anything computed downstream.
Every path and jammer is a rank-one term a(theta) s(t) and is kept as
its steering vector and what determines its waveform (an amplitude and
the symbols, code and delay of a path; the frequency and phase of a
tone; one period of periodic noise; the +-1 chips of a broadband
jammer); any chip range of the waveforms is rendered on demand. Only
receiver noise is stored as a full element-by-chip array. The same
description of the rows gives their despread second moments in closed
form (interference_moments), with no stream synthesized.

Conventions used throughout:
  * spreading codes are real +-1 chips of length 31 (degree-5 Gold family),
  * element l of the array response for direction theta is
    exp(-j*2*pi*l*spacing*sin(theta)), l = 0..L-1,
  * a user's path with delay d places chip q of symbol k at sample
    n = k*N + d + q,
  * the desired user's post-despreading SNR is N*P0/sigma^2, so snr_db
    fixes the per-element path power P0 = weight * sigma^2 * 10^(snr/10)/N.
    Interferer path powers are absolute per-element linear powers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

GOLD_DEGREE = 5
CODE_LENGTH = 31
GOLD_FAMILY_SIZE = CODE_LENGTH + 2

# Feedback exponents (besides x^5 and 1) of the preferred polynomial pair
# x^5 + x^2 + 1 and x^5 + x^4 + x^3 + x^2 + 1.
_POLY_A = (2,)
_POLY_B = (4, 3, 2)

JAMMER_KINDS = ("tone", "bpsk_broadband", "periodic_white_noise")


# ---------------------------------------------------------------------------
# configuration types


@dataclass
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    num_elements: int
    spacing_wavelengths: float = 0.5

    def validate(self) -> None:
        if self.num_elements < 2:
            raise ValueError(
                f"geometry.num_elements must be >= 2, got {self.num_elements}"
            )
        if not 0.0 < self.spacing_wavelengths <= 0.5:
            raise ValueError(
                "geometry.spacing_wavelengths must lie in (0, 0.5], got "
                f"{self.spacing_wavelengths}"
            )


@dataclass
class SpreadingCode:
    """One +-1 spreading sequence assigned to a user."""

    chips: np.ndarray
    user_index: int

    @property
    def length(self) -> int:
        return int(self.chips.size)


@dataclass
class PathSpec:
    """One propagation path of one user.

    power is a relative linear weight for user 0 (scaled by the scenario
    snr_db) and an absolute per-element linear power for interfering users.
    """

    user_index: int
    doa_deg: float
    delay_chips: int = 0
    power: float = 1.0


@dataclass
class JammerSpec:
    """Non-CDMA interferer. Exactly one kind-specific field may be set:

    tone                 -> tone_offset_hz (carrier offset from band center)
    periodic_white_noise -> period_chips (defaults to the processing gain);
                            waveform_seed optionally pins the repeated period
                            so the same waveform is reused across trials
    bpsk_broadband       -> no extra field (chip-rate random +-1)
    """

    kind: str
    doa_deg: float
    inr_db: float
    tone_offset_hz: float | None = None
    period_chips: int | None = None
    waveform_seed: int | None = None

    def validate(self) -> None:
        if self.kind not in JAMMER_KINDS:
            raise ValueError(
                f"jammer kind must be one of {JAMMER_KINDS}, got {self.kind!r}"
            )
        if self.kind == "tone" and self.tone_offset_hz is None:
            raise ValueError("tone jammer requires tone_offset_hz")
        if self.kind != "tone" and self.tone_offset_hz is not None:
            raise ValueError(f"tone_offset_hz is not valid for kind {self.kind!r}")
        if self.kind != "periodic_white_noise" and self.period_chips is not None:
            raise ValueError(f"period_chips is not valid for kind {self.kind!r}")
        if self.period_chips is not None and self.period_chips < 1:
            raise ValueError(f"period_chips must be >= 1, got {self.period_chips}")
        if self.kind != "periodic_white_noise" and self.waveform_seed is not None:
            raise ValueError(f"waveform_seed is not valid for kind {self.kind!r}")


@dataclass
class ScenarioConfig:
    """Full description of one synthetic run."""

    geometry: ArrayGeometry
    chip_rate_hz: float
    symbol_rate_hz: float
    num_symbols: int
    snr_db: float
    desired: list[PathSpec] = field(default_factory=list)
    mais: list[PathSpec] = field(default_factory=list)
    jammers: list[JammerSpec] = field(default_factory=list)
    noise_power: float = 1.0
    seed: int | tuple[int, ...] = 0

    @property
    def processing_gain(self) -> int:
        ratio = self.chip_rate_hz / self.symbol_rate_hz
        gain = round(ratio) if math.isfinite(ratio) else 0
        if not gain or abs(ratio - gain) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"chip rate / symbol rate must be a nonzero integer, got {ratio}"
            )
        return int(gain)

    @property
    def snr_linear(self) -> float:
        return float(10.0 ** (self.snr_db / 10.0))

    def validate(self) -> None:
        self.geometry.validate()
        if self.chip_rate_hz <= 0 or self.symbol_rate_hz <= 0:
            raise ValueError("chip_rate_hz and symbol_rate_hz must be positive")
        n = self.processing_gain
        if n != CODE_LENGTH:
            raise ValueError(f"processing gain must be {CODE_LENGTH}, got {n}")
        if self.num_symbols < 1:
            raise ValueError(f"num_symbols must be >= 1, got {self.num_symbols}")
        # every SNR and INR, and the recursion's delta, is relative to it
        if self.noise_power <= 0:
            raise ValueError(f"noise_power must be > 0, got {self.noise_power}")
        for path in self.desired:
            if path.user_index != 0:
                raise ValueError("desired paths must have user_index 0")
        for path in [*self.desired, *self.mais]:
            if not -90.0 <= path.doa_deg <= 90.0:
                raise ValueError(f"path doa_deg out of [-90, 90]: {path.doa_deg}")
            if not 0 <= path.delay_chips < n:
                raise ValueError(
                    f"path delay_chips must lie in [0, {n}), got {path.delay_chips}"
                )
            if path.power < 0:
                raise ValueError(f"path power must be >= 0, got {path.power}")
        # snr_db scales the desired paths: with no power there is no signal
        # to label it (an empty list is a signal-free stream on purpose)
        if self.desired and not sum(path.power for path in self.desired) > 0:
            raise ValueError("desired path powers must sum to > 0")
        for path in self.mais:
            if path.user_index == 0:
                raise ValueError("interfering paths must not use user_index 0")
            if path.user_index >= GOLD_FAMILY_SIZE:
                raise ValueError(
                    f"user_index must be < {GOLD_FAMILY_SIZE}, got {path.user_index}"
                )
        for jam in self.jammers:
            jam.validate()
            if not -90.0 <= jam.doa_deg <= 90.0:
                raise ValueError(f"jammer doa_deg out of [-90, 90]: {jam.doa_deg}")
        # interference budget: every path beyond the first desired one plus
        # every jammer consumes an array degree of freedom
        extra = max(0, len(self.desired) - 1) + len(self.mais) + len(self.jammers)
        if extra >= self.geometry.num_elements:
            raise ValueError(
                f"interferer + extra-path count {extra} must stay below the "
                f"element count {self.geometry.num_elements}"
            )

    def signal_free(self) -> "ScenarioConfig":
        """Same scenario with the desired user's power forced to zero."""
        return replace(self, snr_db=-math.inf)


@dataclass
class ChipStream:
    """Synthesized chip-rate array data as its exact components.

    The desired signal is soi_steering (L, P) times the P soi waveform
    rows, one per desired path; the interference is steering (L, D)
    times the D interferer waveform rows, one per interferer, the
    interfering paths first and then the jammers, in config order. Only
    noise is an (L, chips) array: the P + D waveform rows are kept as
    rows[i], which fills out (a row of any length) with row i's chips
    from start on, called as rows[i](out, start), and render is the one
    route to their values.
    """

    soi_steering: np.ndarray
    steering: np.ndarray
    rows: tuple[Callable[[np.ndarray, int], None], ...]
    noise: np.ndarray
    symbols: dict[int, np.ndarray]

    @property
    def num_elements(self) -> int:
        return int(self.noise.shape[0])

    def render(
        self, start: int, stop: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Chips [start, stop) of the rows [soi; interferers], (P + D,
        stop - start), written into out when it is given. Equal bit for
        bit to the same columns of a render of the whole stream."""
        if out is None:
            out = np.empty((len(self.rows), stop - start), dtype=np.complex128)
        for row, fill in zip(out, self.rows):
            fill(row, start)
        return out

    @property
    def samples(self) -> np.ndarray:
        """The received (L, chips) stream, built anew on every access: a
        second route, read by oracles, the tests and the benchmark's
        tracer; the runners project the rendered rows and the noise."""
        rows = self.render(0, self.noise.shape[1])
        p = self.soi_steering.shape[1]
        out = self.steering @ rows[p:]
        out += self.soi_steering @ rows[:p]
        out += self.noise
        return out


# ---------------------------------------------------------------------------
# spreading codes


def _m_sequence(feedback_powers: tuple[int, ...]) -> np.ndarray:
    """One period of the maximal-length sequence for x^5 + sum x^p + 1."""
    bits = np.ones(CODE_LENGTH, dtype=np.int64)
    for n in range(GOLD_DEGREE, CODE_LENGTH):
        bit = bits[n - GOLD_DEGREE]
        for p in feedback_powers:
            bit ^= bits[n - GOLD_DEGREE + p]
        bits[n] = bit
    return bits


@functools.cache
def gold_family_bits() -> np.ndarray:
    """All 33 Gold sequences (rows, 0/1 bits) from the preferred pair.

    Built on the first call; every call returns that one read-only array.
    """
    seq_a = _m_sequence(_POLY_A)
    seq_b = _m_sequence(_POLY_B)
    rows = [seq_a, seq_b]
    rows.extend(seq_a ^ np.roll(seq_b, -k) for k in range(CODE_LENGTH))
    family = np.stack(rows)
    family.flags.writeable = False
    return family


# Fixed user -> family-member assignment. The family rows are enumerated
# canonically (both preferred sequences first, then the XOR combinations by
# shift), and users draw from them in this frozen order. The order is part
# of the reproducibility contract: every preset scenario exercises the same
# cross-correlation couplings on every run, and changing it would silently
# change every published number produced by the harness.
_USER_CODE_ORDER: tuple[int, ...] = (31, 23) + tuple(
    i for i in range(33) if i not in (31, 23)
)


def generate_gold_codes(num_users: int) -> list[SpreadingCode]:
    """First num_users codes of the family, as +-1 chip sequences.

    The assignment is deterministic: user i always receives the family
    member picked out by the frozen assignment table, so scenario
    synthesis never depends on call order or run history.
    """
    if not 1 <= num_users <= GOLD_FAMILY_SIZE:
        raise ValueError(
            f"num_users must lie in [1, {GOLD_FAMILY_SIZE}], got {num_users}"
        )
    family = gold_family_bits()
    return [
        SpreadingCode(
            chips=(1.0 - 2.0 * family[_USER_CODE_ORDER[i]]).astype(np.float64),
            user_index=i,
        )
        for i in range(num_users)
    ]


# ---------------------------------------------------------------------------
# array response


def steering_vector(geometry: ArrayGeometry, doa_deg: float) -> np.ndarray:
    """Array response a(theta) for a far-field source at doa_deg degrees."""
    geometry.validate()
    if not -90.0 <= doa_deg <= 90.0:
        raise ValueError(f"doa_deg must lie in [-90, 90], got {doa_deg}")
    elements = np.arange(geometry.num_elements)
    phase = -2.0j * np.pi * elements * geometry.spacing_wavelengths
    return np.exp(phase * math.sin(math.radians(doa_deg)))


def desired_path_power(config: ScenarioConfig, path: PathSpec) -> float:
    """Per-element linear power of one desired-user path."""
    n = config.processing_gain
    snr = 10.0 ** (config.snr_db / 10.0)
    return path.power * config.noise_power * snr / n


# ---------------------------------------------------------------------------
# synthesis


def _path(
    out: np.ndarray, start: int, amplitude: float, symbols: np.ndarray,
    chips: np.ndarray, delay: int,
) -> None:
    """Fill out with amplitude times one path's +-1 chips from sample start.

    symbols holds k = -1..K-1 so delayed paths are defined from sample 0.
    """
    n = chips.size
    first, skip = divmod(start + n - delay, n)
    count = -(-(skip + out.size) // n)
    extended = np.repeat(symbols[first : first + count], n) * np.tile(chips, count)
    out[:] = amplitude * extended[skip : skip + out.size]


def group_identical_delays(paths: list[PathSpec]) -> list[list[int]]:
    """Partition path indices into groups sharing (user_index, delay_chips).

    Groups appear in order of first occurrence; paths of the same user
    arriving with the same delay are unresolvable in the despread domain
    and must be handled by one beamformer with a compound array response.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, path in enumerate(paths):
        groups.setdefault((path.user_index, path.delay_chips), []).append(idx)
    return list(groups.values())


# Chips per block of a tone row: one exp per block start and one fine
# ramp of this many chips, instead of one exp per chip.
_TONE_BLOCK = 1024


def _tone(
    out: np.ndarray, start: int, amplitude: float, freq: float, phase: float
) -> None:
    """Fill out with amplitude * exp(j(2 pi freq n + phase)), n = start, ...

    Chip bB + q is the coarse phasor of block b, exp(j(2 pi freq bB +
    phase)), times the fine ramp exp(j 2 pi freq q), B = _TONE_BLOCK,
    whatever the range, so every range matches the whole row bit for
    bit. B is a power of two, so freq B and its fractional part are
    exact and the coarse phases stay accurate to roundoff of b, not of bB.
    """
    first, skip = divmod(start, _TONE_BLOCK)
    fine = np.exp(2j * np.pi * freq * np.arange(_TONE_BLOCK))
    step = math.fmod(freq * _TONE_BLOCK, 1.0)
    blocks = np.arange(first, first + -(-(skip + out.size) // _TONE_BLOCK))
    coarse = amplitude * np.exp(1j * (2.0 * np.pi * (step * blocks % 1.0) + phase))
    out[:] = (coarse[:, None] * fine).ravel()[skip : skip + out.size]


def _periodic(
    out: np.ndarray, start: int, amplitude: float, period: np.ndarray
) -> None:
    """Fill out with amplitude times period repeated, from chip start."""
    out[:] = amplitude * np.resize(np.roll(period, -start), out.size)


def _chips(out: np.ndarray, start: int, amplitude: float, chips: np.ndarray) -> None:
    """Fill out with amplitude times chips[start:]."""
    out[:] = amplitude * chips[start : start + out.size]


def _jammer_amplitude(config: ScenarioConfig, jam: JammerSpec) -> float:
    """A jammer row's amplitude: its INR on the noise power, as an rms."""
    return math.sqrt(config.noise_power * 10.0 ** (jam.inr_db / 10.0))


def _unit_period(rng: np.random.Generator, period: int) -> np.ndarray:
    """One period of complex white noise, scaled to exact unit rms."""
    seg = rng.standard_normal(period) + 1j * rng.standard_normal(period)
    # exact unit RMS per period keeps the INR calibration tight
    seg /= np.sqrt(np.mean(np.abs(seg) ** 2))
    return seg


def steering_matrix(geometry: ArrayGeometry, sources: list) -> np.ndarray:
    """(L, len(sources)) matrix of the sources' array responses."""
    out = np.empty((geometry.num_elements, len(sources)), dtype=np.complex128)
    for column, source in zip(out.T, sources):
        column[:] = steering_vector(geometry, source.doa_deg)
    return out


def synthesize(config: ScenarioConfig) -> ChipStream:
    """Generate one chip-rate array stream and its exact decomposition.

    Draw order is fixed (user data symbols by ascending user index, then
    jammers in list order, then noise) so a given seed and config always
    produce the bit-identical stream.
    """
    config.validate()
    n = config.processing_gain
    num_symbols = config.num_symbols
    num_elements = config.geometry.num_elements
    total = num_symbols * n
    rng = np.random.default_rng(config.seed)

    user_indices = sorted({0, *(p.user_index for p in config.mais)})
    codes = {c.user_index: c for c in generate_gold_codes(max(user_indices) + 1)}
    # one extra leading symbol (k = -1) so delayed paths are defined at n = 0
    symbols = {
        u: rng.integers(0, 2, size=num_symbols + 1) * 2.0 - 1.0
        for u in user_indices
    }

    def path(amplitude: float, spec: PathSpec) -> Callable:
        return functools.partial(
            _path, amplitude=amplitude, symbols=symbols[spec.user_index],
            chips=codes[spec.user_index].chips, delay=spec.delay_chips,
        )

    rows = [path(math.sqrt(desired_path_power(config, p)), p) for p in config.desired]
    rows += [path(math.sqrt(p.power), p) for p in config.mais]
    for jam in config.jammers:
        amplitude = _jammer_amplitude(config, jam)
        if jam.kind == "tone":
            freq = jam.tone_offset_hz / config.chip_rate_hz
            rows.append(functools.partial(
                _tone, amplitude=amplitude, freq=freq,
                phase=rng.uniform(0.0, 2.0 * np.pi),
            ))
        elif jam.kind == "bpsk_broadband":
            # drawn as int64 (an int8 draw gives other bits), kept as int8
            chips = (rng.integers(0, 2, size=total) * 2 - 1).astype(np.int8)
            rows.append(functools.partial(_chips, amplitude=amplitude, chips=chips))
        else:  # periodic_white_noise
            period = jam.period_chips if jam.period_chips is not None else n
            # waveform_seed pins the repeated period itself, making the
            # waveform a fixed property of the scenario (like a DOA) while
            # data, phases, and noise still vary run to run
            seg_rng = (
                rng if jam.waveform_seed is None
                else np.random.default_rng(jam.waveform_seed)
            )
            rows.append(functools.partial(_periodic, amplitude=amplitude,
                                          period=_unit_period(seg_rng, period)))

    # filled in place row by row through one reused draw buffer, all real
    # parts then all imaginary parts: the draws of
    # sigma * (N(L, total) + 1j * N(L, total)), bit for bit, without its
    # full-size temporaries
    sigma = math.sqrt(config.noise_power / 2.0)
    noise = np.empty((num_elements, total), dtype=np.complex128)
    draws = np.empty(total)
    for part in (noise.real, noise.imag):
        for row in part:
            np.multiply(rng.standard_normal(out=draws), sigma, out=row)
    return ChipStream(
        soi_steering=steering_matrix(config.geometry, config.desired),
        steering=steering_matrix(config.geometry, [*config.mais, *config.jammers]),
        rows=tuple(rows),
        noise=noise,
        symbols=symbols,
    )


def interference_moments(
    config: ScenarioConfig, h: np.ndarray, n0: int
) -> np.ndarray:
    """The (D, D) moment E[y_i conj(y_j)] of the interferer rows despread
    by h at window offset n0, in closed form.

    Row i of ChipStream.steering's order (the interfering paths, then
    the jammers) gives y_i(k) = sum_m conj(h[m]) row_i[k N + n0 + m] in
    window k. The moment is averaged over the data symbols, broadband
    chips, tone phases and unpinned periodic waveforms synthesize draws,
    and over windows:
      * a path of amplitude a and delay d spans the symbols j = -1, 0, 1
        of its window, symbol j with the lag weight
        g_j = sum of conj(h[m]) c[(n0 + m - d) mod N] over the m with
        floor((n0 + m - d) / N) = j; two paths of one user give
        a_i a_j sum_j g_j(d_i) conj(g_j(d_j)), of two users 0;
      * a broadband jammer gives a^2 |h|^2, a tone of f cycles/chip
        a^2 |sum_m conj(h[m]) exp(j 2 pi f m)|^2, a periodic jammer of
        unpinned period P a^2 sum over c mod P of |sum_{m = c mod P} h[m]|^2;
      * the rows of pinned periodic jammers average over the cycle of
        Q = P / gcd(N, P) window offsets (k N + n0) mod P they visit,
        the joint cycle for a pair;
      * every other pair is independent and zero-mean: 0.
    """
    n = config.processing_gain
    if not 0 <= n0 < n:
        raise ValueError(f"window offset must lie in [0, {n}), got {n0}")
    chips = np.arange(n)
    weights = np.conj(np.asarray(h, dtype=np.complex128))
    paths = len(config.mais)
    out = np.zeros((paths + len(config.jammers),) * 2, dtype=np.complex128)
    users = np.array([path.user_index for path in config.mais], dtype=np.int64)
    codes = generate_gold_codes(int(users.max(initial=0)) + 1)
    lags = np.zeros((paths, 3), dtype=np.complex128)
    for row, path in zip(lags, config.mais):
        t = n0 + chips - path.delay_chips
        np.add.at(row, t // n + 1, weights * codes[path.user_index].chips[t % n])
        row *= math.sqrt(path.power)
    out[:paths, :paths] = (users[:, None] == users) * (lags @ lags.conj().T)
    # each pinned row's outputs over its cycle of window offsets
    cycles: dict[int, np.ndarray] = {}
    for i, jam in enumerate(config.jammers, start=paths):
        amplitude = _jammer_amplitude(config, jam)
        period = jam.period_chips if jam.period_chips is not None else n
        if jam.kind == "tone":
            freq = jam.tone_offset_hz / config.chip_rate_hz
            power = abs(weights @ np.exp(2j * np.pi * freq * chips)) ** 2
        elif jam.kind == "bpsk_broadband":
            power = np.vdot(weights, weights).real
        elif jam.waveform_seed is None:
            folded = np.zeros(period, dtype=np.complex128)
            np.add.at(folded, chips % period, weights)
            power = np.vdot(folded, folded).real
        else:
            seg = _unit_period(np.random.default_rng(jam.waveform_seed), period)
            starts = np.arange(period // math.gcd(n, period)) * n + n0
            cycles[i] = amplitude * sum(
                w * seg[(starts + m) % period] for m, w in enumerate(weights))
            continue
        out[i, i] = amplitude**2 * power
    # over a pair's joint cycle, lcm(Q_i, Q_j) windows, (k mod Q_i,
    # k mod Q_j) takes each pair of residues that agree mod
    # g = gcd(Q_i, Q_j) once (Chinese remainder theorem): the joint
    # average is the mean over r mod g of the product of each row's mean
    # over the k = r mod g of its own cycle
    for (i, y_i), (j, y_j) in itertools.product(cycles.items(), repeat=2):
        g = math.gcd(y_i.size, y_j.size)
        out[i, j] = np.vdot(y_j.reshape(-1, g).mean(axis=0),
                            y_i.reshape(-1, g).mean(axis=0)) / g
    return out
