"""Dense complex linear algebra for the beamformer solvers.

Everything operates on plain numpy arrays. Hermitian inputs are expected
to be Hermitian to within roundoff; positive definiteness and the
condition number of the matrix on the right-hand side of the pencil are
checked explicitly because every routine here leans on them. The
Cholesky factor the solver needs anyway certifies both through a trace
bound on the condition number; the eigenvalue tests are the fallback for
the entries it cannot certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Right-hand matrices with a worse spread than this are rejected instead
# of silently producing garbage eigenvectors.
MAX_CONDITION = 1e12


class SingularMatrixError(RuntimeError):
    """Raised when a matrix that must be positive definite is not."""


@dataclass(frozen=True)
class GevdResult:
    """Solution of a Hermitian generalized eigenproblem.

    eigenvalues are real and sorted descending; column r of eigenvectors
    pairs with eigenvalues[r]. Eigenvectors are orthonormal in the inner
    product induced by the right-hand matrix, with the first
    above-roundoff component of each vector rotated to be real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape != a.shape:
        raise ValueError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    if not np.isfinite(a).all():
        raise ValueError("left matrix contains non-finite entries")
    if not np.isfinite(b).all():
        raise ValueError("right matrix contains non-finite entries")
    return a, b


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return m.conj().swapaxes(-1, -2)


def normalize_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive.

    vectors is one vector, an (L, K) matrix of columns or an (..., L, K)
    stack of such matrices. The reference component is the first entry
    whose magnitude exceeds 1e-8 times the column's largest magnitude,
    which keeps the convention stable when leading entries are exact
    zeros plus roundoff dust.
    """
    fixed = np.array(vectors, dtype=np.complex128, copy=True)
    columns = fixed[:, None] if fixed.ndim == 1 else fixed  # a view
    mags = np.abs(columns)
    # a zero column has lead 0 and angle 0, so it is left unchanged
    lead = np.argmax(mags > 1e-8 * mags.max(axis=-2, keepdims=True), axis=-2)
    columns *= np.exp(-1j * np.angle(
        np.take_along_axis(columns, lead[..., None, :], axis=-2)
    ))
    return fixed


def _check_right_matrix(b: np.ndarray) -> None:
    """The exact definiteness and condition tests on every right matrix
    of a stack, from the eigenvalues of its Hermitian part: raises
    SingularMatrixError at the first failing entry."""
    b_eigs = np.linalg.eigvalsh(b)
    smallest, largest = b_eigs[..., 0], b_eigs[..., -1]
    # only a nonpositive smallest eigenvalue fails definiteness; a positive
    # one too small for the largest is the condition test's to reject
    singular = smallest <= 0.0
    if np.any(singular):
        first = np.argmax(singular.ravel())
        raise SingularMatrixError(
            "right matrix is not positive definite: smallest eigenvalue "
            f"{smallest.flat[first]:.6e} (largest {largest.flat[first]:.6e})"
        )
    condition = largest / smallest
    if np.any(condition > MAX_CONDITION):
        raise SingularMatrixError(
            f"right matrix condition number {condition.max():.3e} "
            f"exceeds {MAX_CONDITION:.0e}"
        )


def hermitian_gevd(a: np.ndarray, b: np.ndarray) -> GevdResult:
    """Solve a v = lambda b v for Hermitian a and Hermitian PD b.

    a and b are (L, L), or (..., L, L) stacks solved pencil by pencil in
    one call: eigenvalues are then (..., L) and eigenvectors (..., L, L),
    each entry equal to the 2-D call on that pencil.

    Implemented by Cholesky whitening: with b = C C^H and C^-1 formed
    once, the pencil reduces to the ordinary Hermitian eigenproblem of
    C^-1 a C^-H, whose eigenvectors map back through C^-H. This keeps
    the computed eigenvalues real and the eigenvectors b-orthonormal.

    Raises SingularMatrixError when any b is not positive definite or its
    condition number exceeds MAX_CONDITION. The factor certifies most
    stacks without an eigenvalue solve: cond(b) <= tr(b) tr(b^-1) =
    tr(b) ||C^-1||_F^2. When every entry's bound is at most half of
    MAX_CONDITION (the half absorbs the roundoff of both the bound and
    the eigenvalues near the limit) both tests pass. Otherwise, or when
    the Cholesky factorization fails, the exact tests on the eigenvalues
    of b decide, with their own messages; a factorization that fails on
    a b they pass is rejected too.
    """
    a, b = _as_square_pair(a, b)
    # the Hermitian part: the factor and the exact tests see one matrix
    b = 0.5 * (b + _adjoint(b))
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        _check_right_matrix(b)
        raise SingularMatrixError(
            "right matrix is not positive definite: Cholesky factorization failed"
        ) from None
    inv_chol = np.linalg.inv(chol)
    bound = np.trace(b, axis1=-2, axis2=-1).real * np.sum(
        inv_chol.real**2 + inv_chol.imag**2, axis=(-2, -1)
    )
    # a NaN bound fails the comparison and takes the exact tests too
    if not np.all(bound <= 0.5 * MAX_CONDITION):
        _check_right_matrix(b)

    inv_chol_h = _adjoint(inv_chol)
    whitened = inv_chol @ a @ inv_chol_h
    whitened = 0.5 * (whitened + _adjoint(whitened))
    # eigh sorts ascending; reverse for descending
    evals, white_vecs = np.linalg.eigh(whitened)
    vectors = inv_chol_h @ white_vecs[..., ::-1]
    return GevdResult(eigenvalues=evals[..., ::-1],
                      eigenvectors=normalize_phase(vectors))


def rank_one_inverse_update(
    p: np.ndarray, x: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """One inverse-covariance step for R <- mu R + x x^H done on P = R^-1.

    Returns (gain, p_next) with, for P' = P / mu (P itself when mu = 1),

        gain   = P' x / (1 + x^H P' x)
        p_next = P' - gain (P' x)^H

    which is the matrix inversion lemma applied to the forgetting-factor
    update, so p_next = (mu R + x x^H)^-1 without ever forming R.
    p is (..., L, L) and x is (..., L): leading axes are independent
    problems (one per trial) stepped together.

    x may instead be a block (..., m, L) of rows f_t, for the rank-m
    step R <- mu R + sum_t f_t f_t^H = mu R + U U^H with U = block^T
    (L x m). The lemma is then applied once, with one m x m solve:

        S      = I_m + U^H P' U
        gain   = (P' U S^-1)^T, (..., m, L), one gain vector per row
        p_next = P' - gain^T (P' U)^H

    which for m = 1 is the vector form up to roundoff (the vector call
    keeps the scalar division).
    """
    p = np.asarray(p, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {p.shape}")
    block = x.ndim == p.ndim
    lead = x.shape[:-2] if block else x.shape[:-1]
    if (lead != p.shape[:-2] or x.shape[-1:] != p.shape[-1:]
            or block and x.shape[-2] < 1):
        raise ValueError(f"update shape {x.shape} does not match matrix {p.shape}")
    if not math.isfinite(mu) or mu <= 0.0:
        raise ValueError(f"forgetting factor must be positive, got {mu}")
    if not np.isfinite(x).all():
        raise ValueError("update vector contains non-finite entries")

    if mu != 1.0:
        p = p / mu
    if block:
        # (P' U)^H = conj(block) P', P' Hermitian; S is Hermitian positive
        # definite for Hermitian positive definite P'
        pu_h = x.conj() @ p
        s = pu_h @ x.swapaxes(-1, -2)
        m = x.shape[-2]
        # S = I + U^H P' U: s is a fresh contiguous product, so the
        # reshape is a view and this adds 1 to every diagonal entry
        s.reshape(*s.shape[:-2], m * m)[..., :: m + 1] += 1.0
        gain = np.linalg.solve(s, pu_h)
        np.conjugate(gain, out=gain)
        p_next = gain.swapaxes(-1, -2) @ pu_h
        return gain, np.subtract(p, p_next, out=p_next)
    px = (p @ x[..., None])[..., 0]
    # x^H P x is real for Hermitian P; drop the roundoff imaginary part.
    quad = np.real(x[..., None, :].conj() @ px[..., None])[..., 0]
    gain = px / (1.0 + quad)
    p_next = p - gain[..., :, None] * px[..., None, :].conj()
    return gain, p_next


def power_iteration_step(
    p: np.ndarray, r_s: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """One unnormalized power-iteration step w_next = P R_S (w / ||w||).

    p and r_s are (..., L, L) and w is (..., L), one step per leading index.
    """
    p = np.asarray(p, dtype=np.complex128)
    r_s = np.asarray(r_s, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(norm == 0.0) or not np.all(np.isfinite(norm)):
        raise ValueError("weight vector must be nonzero and finite")
    return (p @ (r_s @ (w / norm)[..., None]))[..., 0]

