"""Independent reference computations for the frozen test constants.

Each function here derives a checked quantity by a route deliberately
different from the library implementation (brute-force enumeration,
closed forms, dense linear algebra), so the unit tests can compare two
independent computations instead of an implementation against itself.
The CLI `oracle` subcommand prints them all.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import core, linalg
from .scenario import (
    CODE_LENGTH,
    ScenarioConfig,
    generate_gold_codes,
    gold_family_bits,
    synthesize,
)


def gold_correlation_levels() -> tuple[list[int], list[int]]:
    """Brute-force the cross- and off-peak auto-correlation level sets.

    Enumerates every ordered pair of family codes at every cyclic shift
    with plain integer arithmetic. Three-valued {-9, -1, 7} for length
    31 is the expected outcome.
    """
    bits = gold_family_bits()
    chips = 1 - 2 * bits.astype(np.int64)
    cross: set[int] = set()
    auto_offpeak: set[int] = set()
    num = chips.shape[0]
    for a in range(num):
        for b in range(num):
            for shift in range(CODE_LENGTH):
                value = int(np.dot(chips[a], np.roll(chips[b], shift)))
                if a == b:
                    if shift != 0:
                        auto_offpeak.add(value)
                else:
                    cross.add(value)
    return sorted(cross), sorted(auto_offpeak)


def maximin_leakage_closed_form(
    monitor_freq: float = 0.5, length: int = CODE_LENGTH
) -> float:
    """Desired-code power leaking into the monitoring channel, closed form.

    The monitoring vector is the unit-norm code modulated by a complex
    exponential, so its tap-normalised overlap with the raw code
    collapses to a pure geometric sum over the chip index, independent
    of the chip signs: leakage = |sum_n exp(2j pi f n)|^2 / length^2.
    At f = 0.5 and odd length the sum has magnitude 1, giving
    1/length^2; at integer f the monitor coincides with the despreading
    channel and the leakage degenerates to 1.
    """
    if monitor_freq == round(monitor_freq):
        return 1.0  # degenerate: the monitor equals the signal channel
    num = math.sin(math.pi * monitor_freq * length)
    den = math.sin(math.pi * monitor_freq)
    return (num / den) ** 2 / length**2


def whitening_residual(seed: int = 0, size: int = 8) -> float:
    """Worst defining-equation residual of the generalized eigensolver.

    Draws a random Hermitian pair (A, B) with B positive definite and
    checks max_k ||A u_k - lambda_k B u_k|| / ||A||. Small residual means
    the returned pairs satisfy the defining equation, independent of how
    the solver produced them.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    a = m @ m.conj().T + np.eye(size)
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    b = m @ m.conj().T + np.eye(size)
    result = linalg.hermitian_gevd(a, b)
    norm_a = np.linalg.norm(a, 2)
    worst = 0.0
    for k in range(size):
        residual = a @ result.eigenvectors[:, k] - result.eigenvalues[
            k
        ] * (b @ result.eigenvectors[:, k])
        worst = max(worst, float(np.linalg.norm(residual) / norm_a))
    return worst


def woodbury_drift(num_updates: int = 10000, seed: int = 1, size: int = 8) -> float:
    """Relative gap between the recursive inverse and a dense inverse.

    Feeds the same random rank-one stream to the update recursion and to
    a directly accumulated matrix, then compares the recursion's inverse
    with numpy's dense inverse at the end.
    """
    rng = np.random.default_rng(seed)
    mu = 0.99
    delta = 1e-3
    p = np.eye(size, dtype=np.complex128) / delta
    dense = delta * np.eye(size, dtype=np.complex128)
    for _ in range(num_updates):
        x = (
            rng.standard_normal(size) + 1j * rng.standard_normal(size)
        ) / math.sqrt(2.0)
        dense = mu * dense + np.outer(x, x.conj())
        _, p = linalg.rank_one_inverse_update(p, x, mu)
        p = 0.5 * (p + p.conj().T)
    direct = np.linalg.inv(dense)
    return float(
        np.linalg.norm(p - direct, "fro") / np.linalg.norm(direct, "fro")
    )


def direct_projection(
    samples: np.ndarray, basis: core.ProjectionBasis, n0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Window-by-window inner-product projection of a raw stream.

    The reference for core.project_stream: window k is samples[:, k*N +
    n0 : (k+1)*N + n0], and its signal and monitoring snapshots are the
    plain inner products with h_s and with each column of h_i. Same
    shapes as project_stream, (L, K) and (L, K, channels).
    """
    n = basis.h_s.size
    windows = [
        samples[:, k * n + n0 : (k + 1) * n + n0]
        for k in range((samples.shape[1] - n0) // n)
    ]
    x_s = np.stack([window @ basis.h_s.conj() for window in windows], axis=1)
    x_i = np.stack([window @ basis.h_i.conj() for window in windows], axis=1)
    return x_s, x_i


def covariances_from_arrays(
    x_s: np.ndarray, x_i: np.ndarray
) -> core.CovariancePair:
    """Sample covariance pair from stacked snapshots (L,K) and (L,K,r).

    The direct-estimation reference for harness.component_grams: the
    Grams of the projected summed stream, not of its components.
    """
    if x_s.ndim != 2 or x_i.ndim != 3 or x_i.shape[:2] != x_s.shape:
        raise ValueError(
            f"snapshot stacks have inconsistent shapes {x_s.shape} / {x_i.shape}"
        )
    if x_s.shape[1] < 1 or x_i.shape[2] < 1:
        raise ValueError("need at least one snapshot and one channel")
    r_s = core.gram(x_s, x_s) / x_s.shape[1]
    r_i = core.gram(x_i, x_i) / (x_i.shape[1] * x_i.shape[2])
    return core.CovariancePair(
        r_s=0.5 * (r_s + r_s.conj().T),
        r_i=0.5 * (r_i + r_i.conj().T),
    )


def normalized_sinr(
    y_soi: np.ndarray,
    y_interference: np.ndarray,
    y_noise: np.ndarray,
    snr_linear: float,
    num_elements: int,
) -> float:
    """Output SINR over L*SNR from per-symbol beamformer outputs.

    The time-domain reference for analysis.normalized_sinr_from_covariances:
    the three arguments are the outputs w^H x_s of the exact signal,
    interference and noise components, and expectations are sample means.
    """
    if snr_linear <= 0:
        raise ValueError(f"snr_linear must be positive, got {snr_linear}")
    signal = float(np.mean(np.abs(np.asarray(y_soi)) ** 2))
    clutter = float(
        np.mean(np.abs(np.asarray(y_interference)) ** 2)
        + np.mean(np.abs(np.asarray(y_noise)) ** 2)
    )
    if clutter == 0.0:
        raise ValueError("interference + noise output power is zero")
    return (signal / clutter) / (num_elements * snr_linear)


def fft_projection(
    samples: np.ndarray, basis: core.ProjectionBasis, n0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Code-matched FFT projection of a raw stream onto the MIC basis.

    Multiplying a window by the chips and taking its length-N FFT
    evaluates every remodulated-code correlation at once: bin 0 is the
    signal channel and bins 1..N-1 are the monitoring channels. Same
    shapes as core.project_stream, (L, K) and (L, K, N-1).
    """
    if basis.scheme != "MIC":
        raise ValueError(f"the FFT route needs the MIC basis, got {basis.scheme}")
    n = basis.h_s.size
    num_blocks = (samples.shape[1] - n0) // n
    windows = samples[:, n0 : n0 + num_blocks * n].reshape(
        samples.shape[0], num_blocks, n
    )
    chips = np.sqrt(float(n)) * basis.h_s.real
    spectrum = np.fft.fft(windows * chips, axis=2) / np.sqrt(n)
    return spectrum[:, :, 0], spectrum[:, :, 1:]


def fft_projection_gap(seed: int = 2, num_elements: int = 8) -> float:
    """Max elementwise gap between fft_projection and core.project_stream
    on the MIC basis, over four windows at a nonzero offset."""
    rng = np.random.default_rng(seed)
    basis = core.make_basis("MIC", generate_gold_codes(1)[0])
    shape = (num_elements, 4 * CODE_LENGTH + 5)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fft = fft_projection(samples, basis, 5)
    direct = core.project_stream(samples, basis, 5)
    return float(
        max(np.max(np.abs(f - d)) for f, d in zip(fft, direct))
    )


def basis_orthonormality_gap() -> float:
    """Worst |H^H H - I| entry across the three projection bases."""
    code = generate_gold_codes(1)[0]
    worst = 0.0
    for scheme in ("PAPC", "Maximin", "MIC"):
        basis = core.make_basis(scheme, code)
        h = basis.h_i
        gram = h.conj().T @ h
        gap = np.max(np.abs(gram - np.eye(basis.num_channels)))
        worst = max(worst, float(gap))
    return worst


def mic_leakage() -> float:
    """Signal power reaching the MIC monitoring bank (exactly zero in theory)."""
    from .analysis import plr_beta

    code = generate_gold_codes(1)[0]
    return plr_beta(core.make_basis("MIC", code), code)


def estimate_gamma1(
    config: ScenarioConfig, basis: core.ProjectionBasis, num_symbols: int
) -> float:
    """Interference-driven eigenvalue candidate, from a signal-free run.

    The direct-estimation reference for the gamma1 the sweep runners
    read off their component Grams: synthesizes the scenario with the
    desired user's power forced to zero, estimates the covariance pair
    of the projected raw stream and returns its dominant generalized
    eigenvalue minus one.
    """
    l = config.geometry.num_elements
    if num_symbols * basis.num_channels < 10 * l:
        raise ValueError(
            f"need num_symbols * channels >= {10 * l} for a usable "
            f"estimate, got {num_symbols * basis.num_channels}"
        )
    quiet = replace(config.signal_free(), num_symbols=num_symbols)
    n0 = config.desired[0].delay_chips if config.desired else 0
    x_s, x_i = core.project_stream(synthesize(quiet).samples, basis, n0)
    return core.solve_batch(covariances_from_arrays(x_s, x_i))[0][0] - 1.0


def sampled_clutters(
    config: ScenarioConfig, n0: int, num_symbols: int, seed: int | tuple[int, ...]
) -> np.ndarray:
    """The clutter stack of harness._clutters, estimated from one
    signal-free stream of num_symbols symbols at seed.

    The sampled reference for the closed form: entry k of the
    (D+1, L, L) stack is the signal-channel sample covariance of the
    summed stream with only the first k interferer rows (config order)
    and the noise kept, estimated directly from its projected windows.
    """
    quiet = synthesize(
        replace(config.signal_free(), num_symbols=num_symbols, seed=seed)
    )
    basis = core.make_basis("PAPC", generate_gold_codes(1)[0])
    waveforms = quiet.render(0, quiet.noise.shape[1])[len(config.desired) :]
    stack = []
    for k in range(len(waveforms) + 1):
        samples = quiet.steering[:, :k] @ waveforms[:k] + quiet.noise
        x_s, _ = core.project_stream(samples, basis, n0)
        r_s = core.gram(x_s, x_s) / x_s.shape[1]
        stack.append(0.5 * (r_s + r_s.conj().T))
    return np.stack(stack)


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between two complex vectors, ignoring global phase."""
    u = np.asarray(u, dtype=np.complex128).ravel()
    v = np.asarray(v, dtype=np.complex128).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle undefined for zero vectors")
    overlap = min(1.0, abs(np.vdot(u, v)) / (nu * nv))
    return float(np.arccos(overlap))


def run_all() -> dict[str, object]:
    cross, auto = gold_correlation_levels()
    return {
        "gold_cross_correlation_levels": cross,
        "gold_auto_offpeak_levels": auto,
        "maximin_leakage_f0.5": maximin_leakage_closed_form(),
        "maximin_leakage_times_31": maximin_leakage_closed_form() * 31,
        "mic_leakage": mic_leakage(),
        "basis_orthonormality_gap": basis_orthonormality_gap(),
        "fft_projection_gap": fft_projection_gap(),
        "whitening_residual": whitening_residual(),
        "woodbury_drift_10k": woodbury_drift(),
    }
