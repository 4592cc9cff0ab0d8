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
The recursion starts from R_S = delta I, P = I/delta and w = e1, and
update_symbol is one pure step of it; run holds the state and returns
only the weights. Output k is produced by the weight held before symbol
k's update, the weight that the data of symbol k could not influence:
y_o[k] = w[k]^H x_s[k].

Every array carries a leading trial axis: independent Monte-Carlo
trials advance together, one symbol at a time, and a single trial is
the same code with T = 1.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg


def check_settings(mu: float, delta: float) -> None:
    """Reject a forgetting factor outside (0, 1) or a delta that is not
    positive, with a ValueError naming which."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1), got {mu}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")


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
    r_s: np.ndarray,
    p: np.ndarray,
    w: np.ndarray,
    x_s: np.ndarray,
    factor: np.ndarray,
    mu: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One symbol's step of all T trials: (r_s, p, w) -> the next ones.

    r_s and p are the (T, L, L) signal covariance and monitor inverse,
    w the (T, L) weight, x_s the (T, L) signal snapshot and factor the
    (T, m, L) rows f_t of the symbol's monitor factor, sum_t f_t f_t^H
    = x_i x_i^H / r (monitor_factors); with the full code-orthogonal
    basis r = N-1 this is the per-symbol recursion of the multi-channel
    scheme, and with a single channel it reduces to classic
    exponentially weighted RLS on that channel. P takes the whole
    increment in one linalg.rank_one_inverse_update call: the (T, m, L)
    block when m > 1, the (T, L) row when m = 1, which keeps the scalar
    rank-one arithmetic. The inputs are taken as given and not modified:
    run checks them before any symbol.
    """
    r_s = mu * r_s + x_s[:, :, None] * x_s[:, None, :].conj()
    if factor.shape[-2] == 1:
        factor = factor[..., 0, :]
    _, p = linalg.rank_one_inverse_update(p, factor, mu)
    p = 0.5 * (p + p.conj().swapaxes(-1, -2))
    return r_s, p, linalg.power_iteration_step(p, r_s, w)


def run(
    x_s: np.ndarray,
    factors: np.ndarray,
    mu: float,
    delta: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Drive the recursion over every symbol of T trials' inputs.

    x_s is the (T, L, K) stack of signal snapshots (core.project_stream's
    x_s on a leading trial axis) and factors the (T, K, m, L) monitor
    factor rows of every trial and symbol (monitor_factors of the
    snapshots); the monitoring channels behind them choose the scheme
    (all N-1 code-orthogonal channels for MIC, one channel for
    single-channel RLS). Shapes, finiteness and the settings
    (check_settings) are checked before any symbol is processed. Returns
    the (T, K, L) weights, w[:, k] the one that produces output k (e1 at
    k = 0): out when it is given (a caller's preallocated block, filled
    in place), else a new array.
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
    if trials < 1 or elements < 1:
        raise ValueError(
            f"num_trials and num_elements must be >= 1, got {trials}, {elements}"
        )
    check_settings(mu, delta)
    eye = np.broadcast_to(np.eye(elements, dtype=np.complex128),
                          (trials, elements, elements))
    r_s, p, w_k = delta * eye, (1.0 / delta) * eye, eye[:, 0]
    for k in range(symbols):
        w[:, k] = w_k
        r_s, p, w_k = update_symbol(r_s, p, w_k, x_s[:, :, k], factors[:, k], mu)
    return w
