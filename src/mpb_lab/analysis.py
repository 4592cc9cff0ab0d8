"""Theory-side quantities and measurement helpers.

Covers the leakage ratio of a projection basis, the two candidate
expressions for the dominant generalized eigenvalue (signal-driven and
interference-driven), the predicted operating threshold derived from
them, output-SINR normalization, array patterns and the structured
interference rank conditions, plus the empirical threshold read off a
measured G-vs-SNR curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProjectionBasis
from .scenario import ArrayGeometry, SpreadingCode, steering_vector

# A curve whose peak exceeds its high-SNR tail by more than this factor
# (about 2 dB) rose and then collapsed instead of levelling off, so it
# has no stable operating region and no measurable threshold.
PLATEAU_COLLAPSE = 1.6

# Singular values at least this fraction of the largest one count as
# nonzero in the rank tests.
RANK_TOLERANCE = 1e-8


@dataclass
class ConditionReport:
    """Structured-interference suitability of a monitoring basis.

    principle1: the monitoring space is orthogonal to the signal-side
    vector (no desired-signal leakage).
    principle2: the monitoring channels resolve every dimension of the
    interference waveform space (no interference hides from the monitor).
    """

    principle1: bool
    principle2: bool
    leakage: float
    min_singular_ratio: float


def _monitor_code_power(basis: ProjectionBasis, code: SpreadingCode) -> float:
    """||H_I^H c||^2: raw-code power captured by the whole monitoring bank."""
    chips = np.asarray(code.chips, dtype=np.complex128)
    if chips.size != basis.h_i.shape[0]:
        raise ValueError(
            f"code length {chips.size} does not match basis rows "
            f"{basis.h_i.shape[0]}"
        )
    leak = basis.h_i.conj().T @ chips
    return float(np.real(np.vdot(leak, leak)))


def plr_beta(basis: ProjectionBasis, code: SpreadingCode) -> float:
    """Power leakage ratio of the code into the monitoring channels.

    Each monitoring column is compared against the raw chip sequence and
    the squared overlap is normalised by the column's integration length
    (its count of nonzero taps) and by the channel count:

        beta = ||H_I^H c||^2 / (r * taps)

    A one-tap monitor sampling a single chip therefore scores 1, a
    full-length monitor aligned with the code itself also scores 1, and
    any monitor orthogonal to the code scores 0. This is the reported
    leakage figure (the `beta` column of a sweep); the threshold theory
    takes threshold_beta, which is this value times the tap count.
    """
    taps = int(np.count_nonzero(np.abs(basis.h_i[:, 0]) > 0.0))
    return _monitor_code_power(basis, code) / (basis.num_channels * taps)


def threshold_beta(basis: ProjectionBasis, code: SpreadingCode) -> float:
    """Code leakage in the normalisation that gamma0 and predicted_threshold take.

        beta = ||H_I^H c||^2 / r = plr_beta * taps

    the desired signal's per-channel monitor power relative to the 1/N
    share of its despread power N. It is 0 for a monitor orthogonal to
    the code, 1 for a single-chip monitor, N for a monitor aligned with
    the code, and |sum_n exp(2j pi f n)|^2 / N for the tone monitor at
    f cycles/chip (1/N at f = 0.5, where the signal eigenvalue saturates
    at N^2 - 1).
    """
    return _monitor_code_power(basis, code) / basis.num_channels


def gamma0(snr_linear: float, n: int, l: int, beta: float) -> float:
    """Signal-driven eigenvalue candidate.

    gamma0 = L (N - beta) SNR / (L beta SNR + N); increases without bound
    in SNR when beta = 0 and saturates at (N - beta)/beta otherwise.
    beta is the per-channel code leakage ||H_I^H c||^2 / r of
    threshold_beta, which lies in [0, N]; plr_beta's tap-normalised
    ratio is a different quantity.
    """
    if snr_linear < 0:
        raise ValueError(f"snr_linear must be >= 0, got {snr_linear}")
    if not 0 <= beta <= n:
        raise ValueError(f"beta must lie in [0, {n}], got {beta}")
    return l * (n - beta) * snr_linear / (l * beta * snr_linear + n)


def predicted_threshold(gamma1: float, beta: float, n: int, l: int) -> float:
    """Operating threshold in dB from the eigenvalue crossover.

    Solves gamma0(SNR) = gamma1 for SNR: (N/L) gamma1 / (N - beta (1 +
    gamma1)). Returns +inf when the denominator is not positive (the
    signal-driven eigenvalue can never win) and -inf for gamma1 = 0.
    beta is threshold_beta's ||H_I^H c||^2 / r, as for gamma0, so the
    pole gamma1 = N/beta - 1 is where gamma0 saturates.
    """
    denom = n - beta * (1.0 + gamma1)
    if denom <= 0.0:
        return math.inf
    snr = (n / l) * gamma1 / denom
    if snr <= 0.0:
        return -math.inf
    return 10.0 * math.log10(snr)


def lambda_max_prediction(gamma0_value: float, gamma1_value: float) -> float:
    """Dominant generalized eigenvalue: whichever candidate wins, plus one."""
    return max(gamma0_value, gamma1_value) + 1.0


def _output_power(w: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """w^H cov w per leading index of the (..., L) weights and (..., L, L)
    covariances, which broadcast."""
    return np.real(w[..., None, :].conj() @ (cov @ w[..., None]))[..., 0, 0]


def normalized_sinr_from_covariances(
    weight: np.ndarray,
    soi_cov: np.ndarray,
    interference_cov: np.ndarray,
    noise_cov: np.ndarray,
    snr_linear: float | np.ndarray,
    num_elements: int,
) -> float | np.ndarray:
    """Output SINR over the interference-free optimum L*SNR.

    Takes the weight and the signal-channel sample covariances of the
    exact signal/interference/noise components. Identical to
    oracles.normalized_sinr on the stacked beamformer outputs because
    E|w^H x|^2 = w^H Cov(x) w for zero-reference sample covariances.
    weight is (..., L), the covariances (..., L, L) and snr_linear a
    scalar or (...) array; their leading axes broadcast, and the result
    has that broadcast shape (a float for one weight and one SNR).
    """
    snr = np.asarray(snr_linear, dtype=np.float64)
    if np.any(snr <= 0):
        raise ValueError(f"snr_linear must be positive, got {snr_linear}")
    w = np.asarray(weight, dtype=np.complex128)
    signal = _output_power(w, soi_cov)
    clutter = _output_power(w, interference_cov) + _output_power(w, noise_cov)
    if np.any(clutter == 0.0):
        raise ValueError("interference + noise output power is zero")
    sinr = (signal / clutter) / (num_elements * snr)
    return float(sinr) if sinr.ndim == 0 else sinr


def output_sinr(
    weight: np.ndarray,
    despread_signal_power: float,
    steering: np.ndarray,
    clutter_cov: np.ndarray,
) -> float | np.ndarray:
    """Deterministic output SINR of a fixed weight.

    despread_signal_power is the post-despreading per-element signal
    power (N*P0 for a single path); clutter_cov is the covariance of the
    interference-plus-noise part of the despread signal-channel snapshot.
    weight is (..., L) and clutter_cov (..., L, L); their leading axes
    broadcast, and the result has that broadcast shape (a float for one
    weight and one covariance).
    """
    w = np.asarray(weight, dtype=np.complex128)
    a = np.asarray(steering, dtype=np.complex128)
    q = np.asarray(clutter_cov, dtype=np.complex128)
    num = despread_signal_power * np.abs(w.conj() @ a) ** 2
    den = _output_power(w, q)
    if np.any(den <= 0.0):
        raise ValueError("clutter covariance is not positive along the weight")
    return num / den


def mvdr_optimum_sinr(
    despread_signal_power: float, steering: np.ndarray, clutter_cov: np.ndarray
) -> float:
    """Best achievable output SINR: attained by w = clutter_cov^-1 a."""
    a = np.asarray(steering, dtype=np.complex128)
    w = np.linalg.solve(np.asarray(clutter_cov, dtype=np.complex128), a)
    return output_sinr(w, despread_signal_power, a, clutter_cov)


def array_pattern(
    weight: np.ndarray, geometry: ArrayGeometry, thetas_deg: np.ndarray
) -> np.ndarray:
    """Normalized power pattern |w^H a(theta)|^2 over a direction grid:
    one gain in dB per direction, 0 dB at the grid's peak."""
    w = np.asarray(weight, dtype=np.complex128)
    if np.linalg.norm(w) == 0.0:
        raise ValueError("pattern undefined for a zero weight")
    thetas = np.asarray(thetas_deg, dtype=np.float64)
    responses = np.stack(
        [steering_vector(geometry, float(t)) for t in thetas], axis=1
    )
    power = np.abs(w.conj() @ responses) ** 2
    peak = power.max()
    # keep log10 finite at exact nulls; -300 dB is far below anything measured
    return 10.0 * np.log10(np.maximum(power / peak, 1e-30))


def condition_check(
    basis: ProjectionBasis,
    interference_waveforms: np.ndarray,
    h_s: np.ndarray,
) -> ConditionReport:
    """Check the two suitability conditions of a monitoring basis.

    interference_waveforms stacks one-period waveforms of the
    interferers as columns (N x D, ground truth from the synthesis).
    """
    h_i = basis.h_i
    h_s = np.asarray(h_s, dtype=np.complex128)
    waveforms = np.asarray(interference_waveforms, dtype=np.complex128)
    if waveforms.ndim == 1:
        waveforms = waveforms[:, None] if waveforms.size else waveforms.reshape(0, 0)
    if waveforms.size and waveforms.shape[0] != h_i.shape[0]:
        raise ValueError(
            f"waveform rows {waveforms.shape} do not match basis length "
            f"{h_i.shape[0]}"
        )

    leakage = float(np.linalg.norm(h_i.conj().T @ h_s, ord=np.inf))
    principle1 = leakage <= 1e-10

    if waveforms.size == 0:
        return ConditionReport(
            principle1=principle1, principle2=True,
            leakage=leakage, min_singular_ratio=math.inf,
        )

    # orthonormal basis of the interference waveform span
    u, sv, _ = np.linalg.svd(waveforms, full_matrices=False)
    rank = int(np.sum(sv > RANK_TOLERANCE * sv[0])) if sv[0] > 0 else 0
    if rank == 0:
        return ConditionReport(
            principle1=principle1, principle2=True,
            leakage=leakage, min_singular_ratio=math.inf,
        )
    span = u[:, :rank]

    # columns of h_i^H span are independent iff all `rank` singular
    # values survive; fewer monitoring channels than waveform dimensions
    # makes that impossible
    product = h_i.conj().T @ span
    product_sv = np.linalg.svd(product, compute_uv=False)
    if product_sv.size < rank or product_sv[0] == 0.0:
        principle2, ratio = False, 0.0
    else:
        ratio = float(product_sv[rank - 1] / product_sv[0])
        principle2 = ratio > RANK_TOLERANCE
    return ConditionReport(
        principle1=principle1, principle2=principle2,
        leakage=leakage, min_singular_ratio=ratio,
    )


def measure_threshold(snr_grid_db: np.ndarray, g_values: np.ndarray) -> float:
    """Empirical threshold: the SNR where G settles above half its plateau.

    The plateau is the mean of the three highest-SNR grid points. A threshold
    only exists when the curve actually levels off there: if the curve
    peaked earlier and then collapsed (peak more than PLATEAU_COLLAPSE
    times the tail level), or the top points vary by more than half
    their mean, the scheme has no stable operating region and the
    threshold is +inf. Otherwise the last upward crossing of plateau/2
    is located with linear interpolation; a curve that never drops
    below that line operates over the whole grid and reports the first
    grid point.
    """
    snr = np.asarray(snr_grid_db, dtype=np.float64)
    g = np.asarray(g_values, dtype=np.float64)
    if snr.ndim != 1 or snr.shape != g.shape or snr.size < 2:
        raise ValueError("need matching 1-d grids with at least two points")
    if not np.all(np.diff(snr) > 0):
        raise ValueError("SNR grid must be strictly ascending")
    if np.any(~np.isfinite(g)) or np.any(g < 0):
        raise ValueError("G values must be finite and nonnegative")

    tail = g[-3:] if g.size >= 3 else g
    plateau = float(np.mean(tail))
    if plateau <= 0.0:
        return math.inf
    if float(np.max(g)) > PLATEAU_COLLAPSE * plateau:
        return math.inf  # rose and fell: no high-SNR operating region
    spread = float(np.max(tail) - np.min(tail))
    if spread > 0.5 * plateau:
        return math.inf  # still climbing or too noisy: no plateau formed

    half = 0.5 * plateau
    below = np.flatnonzero(g < half)
    if below.size == 0:
        return float(snr[0])  # operating over the entire grid
    last_below = int(below[-1])
    if last_below == snr.size - 1:
        return math.inf  # ends below the line: never settles
    x0, x1 = snr[last_below], snr[last_below + 1]
    y0, y1 = g[last_below], g[last_below + 1]
    return float(x0 + (half - y0) * (x1 - x0) / (y1 - y0))
