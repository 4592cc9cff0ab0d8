"""Dense complex linear algebra for the beamformer solvers.

Everything operates on plain numpy arrays. Hermitian inputs are expected
to be Hermitian to within roundoff; positive definiteness of the matrix
on the right-hand side of the pencil is checked explicitly because every
routine here leans on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Right-hand matrices with a worse spread than this are rejected instead
# of silently producing garbage eigenvectors.
MAX_CONDITION = 1e12

# Relative floor under which an eigenvalue counts as zero for the
# positive-definiteness test.
_PD_FLOOR = 1e-12


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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape != a.shape:
        raise ValueError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("left matrix contains non-finite entries")
    if not (np.all(np.isfinite(b.real)) and np.all(np.isfinite(b.imag))):
        raise ValueError("right matrix contains non-finite entries")
    return a, b


def normalize_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive.

    The reference component is the first entry whose magnitude exceeds
    1e-8 times the column's largest magnitude, which keeps the convention
    stable when leading entries are exact zeros plus roundoff dust.
    """
    fixed = np.array(vectors, dtype=np.complex128, copy=True)
    columns = fixed.reshape(len(fixed), -1)  # a view; 1-D input is one column
    mags = np.abs(columns)
    # a zero column has lead 0 and angle 0, so it is left unchanged
    lead = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    columns *= np.exp(-1j * np.angle(columns[lead, np.arange(columns.shape[1])]))
    return fixed


def hermitian_gevd(a: np.ndarray, b: np.ndarray) -> GevdResult:
    """Solve a v = lambda b v for Hermitian a and Hermitian PD b.

    Implemented by Cholesky whitening: with b = L L^H the pencil reduces
    to the ordinary Hermitian eigenproblem of L^-1 a L^-H, whose
    eigenvectors map back through L^-H. This keeps the computed
    eigenvalues real and the eigenvectors b-orthonormal.

    Raises SingularMatrixError when b is not positive definite or its
    condition number exceeds MAX_CONDITION.
    """
    a, b = _as_square_pair(a, b)
    b_eigs = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
    smallest, largest = b_eigs[0], b_eigs[-1]
    if smallest <= 0.0 or smallest <= _PD_FLOOR * largest:
        raise SingularMatrixError(
            "right matrix is not positive definite: "
            f"smallest eigenvalue {smallest:.6e} (largest {largest:.6e})"
        )
    if largest / smallest > MAX_CONDITION:
        raise SingularMatrixError(
            f"right matrix condition number {largest / smallest:.3e} "
            f"exceeds {MAX_CONDITION:.0e}"
        )

    chol = np.linalg.cholesky(b)
    half = np.linalg.solve(chol, a)
    whitened = np.linalg.solve(chol, half.conj().T).conj().T
    whitened = 0.5 * (whitened + whitened.conj().T)
    evals, white_vecs = np.linalg.eigh(whitened)

    order = np.argsort(evals)[::-1]
    evals = evals[order]
    vectors = np.linalg.solve(chol.conj().T, white_vecs[:, order])
    return GevdResult(eigenvalues=evals, eigenvectors=normalize_phase(vectors))


def rank_one_inverse_update(
    p: np.ndarray, x: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """One inverse-covariance step for R <- mu R + x x^H done on P = R^-1.

    Returns (gain, p_next) with

        gain   = (P x / mu) / (1 + x^H P x / mu)
        p_next = (P - gain (P x)^H) / mu

    which is the matrix inversion lemma applied to the forgetting-factor
    update, so p_next = (mu R + x x^H)^-1 without ever forming R.
    p is (..., L, L) and x is (..., L): leading axes are independent
    problems (one per trial) stepped together.
    """
    p = np.asarray(p, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {p.shape}")
    if x.shape != p.shape[:-1]:
        raise ValueError(f"vector shape {x.shape} does not match matrix {p.shape}")
    if not np.isfinite(mu) or mu <= 0.0:
        raise ValueError(f"forgetting factor must be positive, got {mu}")
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise ValueError("update vector contains non-finite entries")

    px = (p @ x[..., None])[..., 0]
    # x^H P x is real for Hermitian P; drop the roundoff imaginary part.
    quad = np.real(x[..., None, :].conj() @ px[..., None])[..., 0]
    gain = (px / mu) / (1.0 + quad / mu)
    p_next = (p - gain[..., :, None] * px[..., None, :].conj()) / mu
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


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between two complex vectors, ignoring global phase."""
    u = np.asarray(u, dtype=np.complex128).ravel()
    v = np.asarray(v, dtype=np.complex128).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle undefined for zero vectors")
    overlap = min(1.0, abs(np.vdot(u, v)) / (nu * nv))
    return float(np.arccos(overlap))
