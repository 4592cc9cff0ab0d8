"""Matrix pair beamformer core.

Turns a chip-rate array stream into per-symbol snapshot pairs (one
signal-bearing vector, one or more interference-monitoring vectors),
holds the Gram contraction every covariance estimate is built from (the
estimates themselves are harness.component_grams) and solves the batch
weight as the dominant generalized eigenvector of a covariance pair.

The three projection schemes differ only in the monitoring basis:

  PAPC     one column of the identity (a single unspread chip position),
  Maximin  the code remodulated by a fixed off-center frequency,
  MIC      the code remodulated by every nonzero DFT frequency, which
           spans the whole code-orthogonal subspace (N-1 columns).

All bases are unit-column-normalized; the signal side is always the code
itself scaled to unit norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .scenario import SpreadingCode


@dataclass
class ProjectionBasis:
    """Signal-side vector h_s and monitoring matrix h_i (columns)."""

    scheme: str
    h_s: np.ndarray  # (code_length,)
    h_i: np.ndarray  # (code_length, num_channels)

    @property
    def num_channels(self) -> int:
        return int(self.h_i.shape[1])


@dataclass
class CovariancePair:
    """Sample covariances of the signal and monitoring channels."""

    r_s: np.ndarray
    r_i: np.ndarray


def _unit_code(code: SpreadingCode) -> np.ndarray:
    chips = np.asarray(code.chips, dtype=np.float64)
    if chips.ndim != 1 or chips.size < 2:
        raise ValueError("spreading code must be a chip vector of length >= 2")
    if not np.all(np.abs(np.abs(chips) - 1.0) < 1e-12):
        raise ValueError("spreading code chips must be +-1")
    return chips / np.sqrt(chips.size)


def basis_papc(code: SpreadingCode, chip_index: int = 0) -> ProjectionBasis:
    """Single-chip monitoring: the standard basis vector at chip_index."""
    h_s = _unit_code(code)
    n = h_s.size
    if not 0 <= chip_index < n:
        raise ValueError(f"chip_index must lie in [0, {n}), got {chip_index}")
    h_i = np.zeros((n, 1), dtype=np.complex128)
    h_i[chip_index, 0] = 1.0
    return ProjectionBasis(scheme="PAPC", h_s=h_s.astype(np.complex128), h_i=h_i)


def basis_maximin(code: SpreadingCode, monitor_freq: float = 0.5) -> ProjectionBasis:
    """Code remodulated by one fixed normalized frequency (cycles/chip)."""
    h_s = _unit_code(code)
    n = h_s.size
    if not 0.0 < monitor_freq <= 1.0:
        raise ValueError(
            f"monitor_freq must lie in (0, 1] cycles/chip, got {monitor_freq}"
        )
    if monitor_freq == 1.0:
        warnings.warn(
            "monitor frequency of one cycle/chip is degenerate: the "
            "monitoring channel collapses onto the signal channel",
            RuntimeWarning,
            stacklevel=2,
        )
    ramp = np.exp(2j * np.pi * monitor_freq * np.arange(n))
    h_i = (h_s * ramp)[:, None]
    return ProjectionBasis(scheme="Maximin", h_s=h_s.astype(np.complex128), h_i=h_i)


def basis_mic(code: SpreadingCode) -> ProjectionBasis:
    """Code remodulated by all N-1 nonzero DFT frequencies.

    The columns are mutually orthonormal, orthogonal to the signal-side
    vector by construction, and together with it form a complete basis,
    so the two projectors sum to the identity.
    """
    h_s = _unit_code(code)
    n = h_s.size
    ticks = np.arange(n)
    # column r: h_s modulated by exp(+j*2*pi*r*n/N), r = 1..N-1
    dft = np.exp(2j * np.pi * np.outer(ticks, np.arange(1, n)) / n)
    h_i = h_s[:, None] * dft
    return ProjectionBasis(scheme="MIC", h_s=h_s.astype(np.complex128), h_i=h_i)


def make_basis(
    scheme: str,
    code: SpreadingCode,
    monitor_freq: float = 0.5,
    chip_index: int = 0,
) -> ProjectionBasis:
    """Dispatch helper: build the basis named by scheme."""
    if scheme == "PAPC":
        return basis_papc(code, chip_index)
    if scheme == "Maximin":
        return basis_maximin(code, monitor_freq)
    if scheme == "MIC":
        return basis_mic(code)
    raise ValueError(f"unknown scheme {scheme!r}; valid: MIC, Maximin, PAPC")


def project_stream(
    samples: np.ndarray, basis: ProjectionBasis, n0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project every whole window of a raw stream at offset n0.

    Returns (x_s, x_i) with shapes (L, K) and (L, K, channels), both
    C-contiguous: one matrix product of the (L, K, N) window view with
    the conjugated basis, the same for every scheme.
    oracles.direct_projection is the window-by-window reference and
    oracles.fft_projection the code-matched FFT twin for MIC.
    """
    n = basis.h_s.size
    if not 0 <= n0 < n:
        raise ValueError(f"window offset must lie in [0, {n}), got {n0}")
    num_blocks = (samples.shape[1] - n0) // n
    if num_blocks < 1:
        raise ValueError("stream too short for a single window")
    windows = samples[:, n0 : n0 + num_blocks * n].reshape(
        samples.shape[0], num_blocks, n
    )
    return windows @ basis.h_s.conj(), windows @ basis.h_i.conj()


def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-Gram of two snapshot stacks with equal trailing axes.

    The stacks are (M, ...) and (M', ...) with the same trailing axes;
    every trailing index is one snapshot, so the result is the M x M'
    sum of a_k b_k^H over them (M or M' may be 0). Divide by the
    snapshot count for the sample mean, once the sums of all blocks of
    a stream are in. Not symmetrized: a cross-Gram need not be Hermitian.
    """
    snapshots = math.prod(a.shape[1:])
    a = a.reshape(len(a), snapshots)
    return a @ b.reshape(len(b), snapshots).conj().T


def solve_batch(pair: CovariancePair) -> tuple[np.ndarray, np.ndarray]:
    """Batch solution of the pair (r_s, r_i): its generalized eigenvalues,
    sorted descending, and the dominant generalized eigenvector.

    The weight is returned with unit Euclidean norm and the standard
    phase convention (first significant component real positive).
    """
    result = linalg.hermitian_gevd(pair.r_s, pair.r_i)
    weight = result.eigenvectors[:, 0]
    return result.eigenvalues, weight / np.linalg.norm(weight)
