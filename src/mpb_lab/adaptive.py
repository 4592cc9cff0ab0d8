"""Recursive beamformer: exponentially weighted covariance tracking with
an inverse-matrix recursion on the monitoring channels and a single
power-iteration weight step per symbol.

Per symbol k the update is

    R_S <- mu R_S + x_s x_s^H
    for t = 1..r:   (r monitoring channels)
        x_hat = x_i[:, t] / sqrt(r)
        P <- rank-one inverse update of (mu_t R_I + x_hat x_hat^H),
             with mu_t = mu at t = 1 and mu_t = 1 afterwards
    w <- P R_S (w / ||w||)
    y_o = (previous w)^H x_s

so the forgetting factor is applied exactly once per symbol on each
covariance, and the emitted output always uses the weight held before
the update (the weight that the data of symbol k could not influence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import ProjectionBasis, basis_mic, project_stream
from .scenario import ChipStream, SpreadingCode


@dataclass
class AdaptiveState:
    """Single-owner mutable solver state for one beamformer instance."""

    r_s: np.ndarray
    p: np.ndarray
    w: np.ndarray
    mu: float
    delta: float
    symbol_count: int = 0

    @property
    def num_elements(self) -> int:
        return int(self.w.size)


@dataclass
class AdaptiveOutput:
    """Per-symbol emission: array output plus diagnostics.

    w is the weight after this symbol's update; p_asymmetry is the
    relative Hermitian-symmetry error of the inverse matrix measured
    just before the per-symbol re-symmetrization.
    """

    symbol_index: int
    y_o: complex
    w: np.ndarray
    p_asymmetry: float


def init(num_elements: int, mu: float, delta: float) -> AdaptiveState:
    """Fresh state: R_S = delta I, P = I/delta, w = first basis vector."""
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements}")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1), got {mu}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    w = np.zeros(num_elements, dtype=np.complex128)
    w[0] = 1.0
    return AdaptiveState(
        r_s=delta * np.eye(num_elements, dtype=np.complex128),
        p=(1.0 / delta) * np.eye(num_elements, dtype=np.complex128),
        w=w,
        mu=mu,
        delta=delta,
    )


def update_symbol(
    state: AdaptiveState, x_s: np.ndarray, x_i: np.ndarray
) -> tuple[AdaptiveState, AdaptiveOutput]:
    """Advance the state by one symbol's snapshots and emit the array output.

    x_s is the (L,) signal snapshot and x_i the (L, r) monitoring
    snapshots, with at least one monitoring channel; with the
    full code-orthogonal basis r = N-1 this is the per-symbol recursion
    of the multi-channel scheme, and with a single channel it reduces to
    classic exponentially weighted RLS on that channel.

    A non-finite snapshot raises without touching the state.
    """
    x_s = np.asarray(x_s, dtype=np.complex128)
    x_i = np.asarray(x_i, dtype=np.complex128)
    if x_s.shape != (state.num_elements,):
        raise ValueError(
            f"snapshot dimension {x_s.shape} does not match state "
            f"({state.num_elements},)"
        )
    if x_i.ndim != 2 or x_i.shape[0] != state.num_elements or x_i.shape[1] < 1:
        raise ValueError(f"monitoring snapshot has invalid shape {x_i.shape}")
    finite = (
        np.all(np.isfinite(x_s.real)) and np.all(np.isfinite(x_s.imag))
        and np.all(np.isfinite(x_i.real)) and np.all(np.isfinite(x_i.imag))
    )
    if not finite:
        raise ValueError("snapshot contains non-finite entries; state unchanged")

    y_o = complex(np.vdot(state.w, x_s))

    r_s = state.mu * state.r_s + np.outer(x_s, x_s.conj())

    channels = x_i.shape[1]
    scale = 1.0 / math.sqrt(channels)
    p = state.p
    for t in range(channels):
        mu_t = state.mu if t == 0 else 1.0
        _, p = linalg.rank_one_inverse_update(p, x_i[:, t] * scale, mu_t)

    asym = float(np.max(np.abs(p - p.conj().T)) / max(np.max(np.abs(p)), 1e-300))
    p = 0.5 * (p + p.conj().T)

    w = linalg.power_iteration_step(p, r_s, state.w)

    state.r_s = r_s
    state.p = p
    state.w = w
    state.symbol_count += 1
    return state, AdaptiveOutput(
        symbol_index=state.symbol_count - 1,
        y_o=y_o,
        w=w.copy(),
        p_asymmetry=asym,
    )


def run(
    stream: ChipStream,
    code: SpreadingCode,
    n0: int,
    mu: float,
    delta: float,
    basis: ProjectionBasis | None = None,
    max_symbols: int | None = None,
) -> list[AdaptiveOutput]:
    """Drive the recursion over every whole symbol window of a stream.

    With basis omitted the full code-orthogonal monitoring basis is used
    (the multi-channel scheme); passing an explicit basis runs the same
    recursion on its channels, which is how the single-channel RLS
    variant is realized.
    """
    if basis is None:
        basis = basis_mic(code)
    x_s, x_i = project_stream(stream.samples, basis, n0)
    num_symbols = x_s.shape[1]
    if max_symbols is not None:
        num_symbols = min(num_symbols, max_symbols)
    state = init(stream.num_elements, mu, delta)
    outputs: list[AdaptiveOutput] = []
    for k in range(num_symbols):
        state, out = update_symbol(state, x_s[:, k], x_i[:, k, :])
        outputs.append(out)
    return outputs
