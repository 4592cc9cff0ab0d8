"""Recursive beamformer: exponentially weighted covariance tracking with
an inverse-matrix recursion on the monitoring channels and a single
power-iteration weight step per symbol.

Per symbol k the update is

    R_S <- mu R_S + x_s x_s^H
    P   <- inverse update of (mu R_I + sum_t f_t f_t^H), over the rows
           f_t, t = 1..m, of the symbol's monitor factor, the m vectors
           with sum_t f_t f_t^H = x_i x_i^H / r
    w   <- P R_S (w / ||w||)

so the forgetting factor is applied exactly once per symbol on each
covariance and R_I gains exactly the monitor increment x_i x_i^H / r of
the paper's one-update-per-channel recursion, in one rank-m step of the
matrix inversion lemma with one m x m solve, m = min(L, r) (the scalar
rank-one step when m = 1). The factors are built for every symbol of a
stream before the recursion starts (monitor_factors): with r <= L its
rows are the r monitoring snapshots over sqrt(r), no decomposition
needed; with r > L they are the columns of the Cholesky factor of the
L x L monitor Gram over r, one batched factorization for all symbols.
Output k is produced by the weight held before symbol k's update, the
weight that the data of symbol k could not influence:
y_o[k] = w[k]^H x_s[k].

Every array carries a leading trial axis: independent Monte-Carlo
trials advance together, one symbol at a time, and a single trial is
the same code with T = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass
class AdaptiveState:
    """Single-owner mutable solver state of T trials: r_s and p are
    (T, L, L), w is (T, L)."""

    r_s: np.ndarray
    p: np.ndarray
    w: np.ndarray
    mu: float


@dataclass
class AdaptiveOutput:
    """Per-trial, per-symbol record of a run over K symbols.

    w is (T, K, L) with w[:, k] the weight held before symbol k, the
    one that produces output k (e1 at k = 0); p_asymmetry is (T, K), the
    relative Hermitian-symmetry error of the inverse matrix measured
    just before each per-symbol re-symmetrization.
    """

    w: np.ndarray
    p_asymmetry: np.ndarray


def init(num_trials: int, num_elements: int, mu: float, delta: float) -> AdaptiveState:
    """Fresh state: R_S = delta I, P = I/delta, w = first basis vector."""
    if num_trials < 1 or num_elements < 1:
        raise ValueError(
            f"num_trials and num_elements must be >= 1, got {num_trials}, {num_elements}"
        )
    if not 0.0 < mu < 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1), got {mu}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    eye = np.broadcast_to(np.eye(num_elements, dtype=np.complex128),
                          (num_trials, num_elements, num_elements))
    w = np.zeros((num_trials, num_elements), dtype=np.complex128)
    w[:, 0] = 1.0
    return AdaptiveState(r_s=delta * eye, p=(1.0 / delta) * eye, w=w, mu=mu)


def monitor_factors(x_i: np.ndarray) -> np.ndarray:
    """Monitor factor rows of snapshots: (..., L, r) -> (..., min(L, r), L).

    The rows f_t satisfy sum_t f_t f_t^H = x_i x_i^H / r. With r <= L
    they are the r snapshots over sqrt(r), no decomposition needed. With
    r > L they are the columns of the Cholesky factor of x_i x_i^H / r,
    one batched factorization over the leading axes, so that Gram must
    be positive definite: rank-deficient (all-zero, say) or non-finite
    snapshots with r > L raise ValueError naming the recursion input.
    """
    x_i = np.asarray(x_i, dtype=np.complex128)
    elements, channels = x_i.shape[-2:]
    if channels <= elements:
        return x_i.swapaxes(-1, -2) * (1.0 / math.sqrt(channels))
    try:
        lower = np.linalg.cholesky(x_i @ x_i.conj().swapaxes(-1, -2) / channels)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "recursion input: a monitor Gram x_i x_i^H is not positive definite"
        ) from exc
    return lower.swapaxes(-1, -2)


def update_symbol(
    state: AdaptiveState, x_s: np.ndarray, factor: np.ndarray
) -> np.ndarray:
    """Advance all T trials by one symbol's snapshots.

    x_s is the (T, L) signal snapshot and factor the (T, m, L) rows f_t
    of the symbol's monitor factor, sum_t f_t f_t^H = x_i x_i^H / r
    (monitor_factors); with the full code-orthogonal basis r = N-1 this
    is the per-symbol recursion of the multi-channel scheme, and with a
    single channel it reduces to classic exponentially weighted RLS on
    that channel. P takes the whole increment in one
    linalg.rank_one_inverse_update call: the (T, m, L) block when m > 1,
    the (T, L) row when m = 1, which keeps the scalar rank-one
    arithmetic. Returns the (T,) P asymmetries. The inputs are taken as
    given: run checks them before any symbol.
    """
    r_s = state.mu * state.r_s + x_s[:, :, None] * x_s[:, None, :].conj()

    if factor.shape[-2] == 1:
        factor = factor[..., 0, :]
    _, p = linalg.rank_one_inverse_update(state.p, factor, state.mu)

    p_h = p.conj().swapaxes(-1, -2)
    asym = np.max(np.abs(p - p_h), axis=(-2, -1)) / np.maximum(
        np.max(np.abs(p), axis=(-2, -1)), 1e-300
    )
    p = 0.5 * (p + p_h)

    state.w = linalg.power_iteration_step(p, r_s, state.w)
    state.r_s = r_s
    state.p = p
    return asym


def run(
    x_s: np.ndarray,
    factors: np.ndarray,
    mu: float,
    delta: float,
    out: np.ndarray | None = None,
) -> AdaptiveOutput:
    """Drive the recursion over every symbol of T trials' inputs.

    x_s is the (T, L, K) stack of signal snapshots (core.project_stream's
    x_s on a leading trial axis) and factors the (T, K, m, L) monitor
    factor rows of every trial and symbol (monitor_factors of the
    snapshots); the monitoring channels behind them choose the scheme
    (all N-1 code-orthogonal channels for MIC, one channel for
    single-channel RLS). Shapes and finiteness are checked before any
    symbol is processed. The (T, K, L) weights, w[:, k] the one that
    produces output k, are written into out when it is given (a
    caller's preallocated block), else into a new array.
    """
    x_s = np.asarray(x_s, dtype=np.complex128)
    factors = np.asarray(factors, dtype=np.complex128)
    if (x_s.ndim != 3 or factors.ndim != 4
            or factors.shape[:2] != (x_s.shape[0], x_s.shape[2])
            or factors.shape[3] != x_s.shape[1]):
        raise ValueError(
            f"input stacks have inconsistent shapes {x_s.shape} / {factors.shape}"
        )
    if x_s.shape[2] < 1 or factors.shape[2] < 1:
        raise ValueError("need at least one symbol and one channel's factor row, "
                         f"got {factors.shape}")
    # trial by trial, so the check's temporary is one trial's, not the stack's
    if not all(np.isfinite(x).all() for x in (*x_s, *factors)):
        raise ValueError("snapshots contain non-finite entries")

    trials, elements, symbols = x_s.shape
    shape = (trials, symbols, elements)
    w = np.empty(shape, dtype=np.complex128) if out is None else out
    if w.shape != shape or w.dtype != np.complex128:
        raise ValueError(f"out must be complex128 {shape}, got {w.dtype} {w.shape}")
    state = init(trials, elements, mu, delta)
    asym = np.empty((trials, symbols))
    for k in range(symbols):
        w[:, k] = state.w
        asym[:, k] = update_symbol(state, x_s[:, :, k], factors[:, k])
    return AdaptiveOutput(w=w, p_asymmetry=asym)
