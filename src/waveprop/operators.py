"""Finite-dimensional Hermitian operators and spectral reference routes.

Everything downstream treats these as the ground truth: cos_sqrt_sum_oracle
and sinc_sqrt_sum_oracle diagonalize the sum of squares directly, so the
lifted quadrature and splitting constructions always have an independent
answer to be measured against.

The input checks of every route live here, one copy of each refusal:
_checked_operators, _checked_vector and _checked_time serve the oracles,
the splitting entries, the ascent and the grid routes, so a route and its
oracle refuse the same input with the same message.  Operators are plain
arrays; _eigh is the one validated eigendecomposition, and _hermitian_part
the symmetrize-and-warn policy of the matrix fixture check.

One rule, _series_order, picks the order of every even t-series both
operator routes sum: the least whose factorial tail bound is at most the
float's rounding unit, refused past ORDER_CAP with SeriesCapError.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np

__all__ = [
    "cos_sqrt_sum_oracle",
    "sinc_sqrt_sum_oracle",
    "random_hermitian",
    "random_state",
]

HERMITIAN_RTOL = 1e-12
RECONSTRUCT_RTOL = 1e-10
ORDER_CAP = 400


class SeriesCapError(ValueError):
    """A numerical refusal: the series a route needs runs past its order cap, which the message names."""


def _tail_bound(amp: float, y: float, t: float, order: int, sine: bool = False) -> float:
    """amp sum_(n>order) y^n/(2n)!, or amp |t| sum_(n>order) y^n/(2n+1)! for the sine series.

    Terms are added until the ratio r of the next term to the current one
    is at most 1/2; the ratios fall with n, so the rest is at most
    term r / (1 - r).  A term past e^700 gives inf.
    """
    if amp == 0.0 or y == 0.0:
        return 0.0
    shift, log_y, total = int(sine), math.log(y), 0.0
    n = order + 1
    while True:
        log_term = n * log_y - math.lgamma(2 * n + 1 + shift)
        if log_term > 700.0:
            return math.inf
        term = math.exp(log_term)
        total += term
        ratio = y / ((2 * n + 1 + shift) * (2 * n + 2 + shift))
        if ratio <= 0.5:
            return amp * (abs(t) if sine else 1.0) * (total + term * ratio / (1.0 - ratio))
        n += 1


def _series_order(y: float, t: float, sine: bool) -> int:
    """Smallest order N >= 2 whose relative tail bound _tail_bound(1, y, t, N, sine) is at most float eps."""
    for n in range(2, ORDER_CAP + 1):
        if _tail_bound(1.0, y, t, n, sine) <= sys.float_info.epsilon:
            return n
    raise SeriesCapError(f"series order cap {ORDER_CAP} exceeded; |t| too large for these norms")


def _hermitian_defect(mat: np.ndarray) -> float:
    """Relative Hermitian defect ||M - M*|| / ||M|| (Frobenius), or 0.0 when within HERMITIAN_RTOL."""
    scale = np.linalg.norm(mat)
    defect = np.linalg.norm(mat - mat.conj().T)
    return float(defect / scale) if defect > HERMITIAN_RTOL * scale else 0.0  # 0.0 for a non-finite entry


def _hermitian_part(matrix) -> tuple[np.ndarray, bool]:
    """The matrix, or its Hermitian part (M + M*)/2 with a warning, and whether it was symmetrized.

    A square matrix whose _hermitian_defect is not zero is symmetrized
    rather than refused; every other refusal of _checked_operators holds:
    the matrix must be square and finite.
    """
    mat = np.asarray(matrix, dtype=complex)
    defect = _hermitian_defect(mat) if mat.ndim == 2 and mat.shape[0] == mat.shape[1] else 0.0
    if defect:
        warnings.warn(f"input is not Hermitian (relative defect {defect:.3e}); using the Hermitian part",
                      stacklevel=2)
        mat = (mat + mat.conj().T) / 2.0
    (mat,) = _checked_operators([mat])
    return mat, bool(defect)


def _eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of a Hermitian matrix.

    A stack (..., n, n) is decomposed block by block.  Each pair is
    validated: it must rebuild its matrix and the eigenvectors be
    orthonormal, both to RECONSTRUCT_RTOL, or LinAlgError is raised.
    """
    matrix = np.asarray(matrix, dtype=complex)
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for {matrix.shape[-2]}x{matrix.shape[-1]} input: {exc}"
        ) from exc
    vh = np.swapaxes(v.conj(), -1, -2)
    scale = np.maximum(np.linalg.norm(matrix, axis=(-2, -1)), 1e-300)
    recon = np.linalg.norm((v * w[..., None, :]) @ vh - matrix, axis=(-2, -1)) / scale
    ortho = np.linalg.norm(vh @ v - np.eye(w.shape[-1]), axis=(-2, -1))
    if np.any(recon > RECONSTRUCT_RTOL) or np.any(ortho > RECONSTRUCT_RTOL):
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed validation: reconstruction {np.max(recon):.3e}, "
            f"orthonormality {np.max(ortho):.3e}"
        )
    return w, v


def _checked_operators(ops) -> list[np.ndarray]:
    """The operators as finite Hermitian matrices of one square shape.

    Refuses with ValueError naming the failed condition: no operators, a
    non-square or mismatched shape, a non-finite entry, or a Hermitian
    defect above HERMITIAN_RTOL (relative, Frobenius).
    """
    mats = [np.asarray(op, dtype=complex) for op in ops]
    if not mats:
        raise ValueError("need at least one operator")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected square operators, got shape {shape}")
    for i, mat in enumerate(mats):
        if mat.shape != shape:
            raise ValueError(f"operator {i} has shape {mat.shape}, operator 0 has {shape}")
        if not np.isfinite(mat).all():
            raise ValueError(f"operator {i} has non-finite entries")
        defect = _hermitian_defect(mat)
        if defect:
            raise ValueError(
                f"operator {i} is not Hermitian: relative defect {defect:.3e} exceeds {HERMITIAN_RTOL:.0e}"
            )
    return mats


def _checked_vector(vector, dim: int) -> np.ndarray:
    """The vector as a complex array, refused unless finite and of length dim."""
    vec = np.asarray(vector, dtype=complex)
    if vec.shape != (dim,):
        raise ValueError(f"vector of shape {vec.shape} does not match operator dimension {dim}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector h has non-finite entries")
    return vec


def _checked_time(t: float) -> None:
    """Refuse a time t that is not finite."""
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got t = {t}")


def _oracle(ops, t: float, vector, fn):
    """fn of the sum of squares, as a matrix, or applied to the vector when one is given.

    The inputs pass the routes' checks before the sum is formed.
    """
    _checked_time(t)
    mats = _checked_operators(ops)
    d = len(mats[0])
    vec = None if vector is None else _checked_vector(vector, d)
    total = np.zeros((d, d), dtype=complex)
    for m in mats:
        total += m @ m
    w, v = _eigh(total)
    return (v * fn(w)) @ v.conj().T if vec is None else v @ (fn(w) * (v.conj().T @ vec))


def cos_sqrt_sum_oracle(ops, t: float, vector=None):
    """cos(t sqrt(A_1^2 + ... + A_n^2)) by direct diagonalization.

    Eigenvalues of the sum of squares are clipped at zero before the
    square root; the result is the reference for every lifted route.
    """
    return _oracle(ops, t, vector, lambda lam: _cos_sqrt(lam, t))


def _cos_sqrt(lam: np.ndarray, t: float) -> np.ndarray:
    """cos(t sqrt(lam)) on eigenvalues of a sum of squares, clipped at zero first."""
    return np.cos(t * np.sqrt(np.clip(lam, 0.0, None)))


def sinc_sqrt_sum_oracle(ops, t: float, vector=None):
    """sin(t sqrt(S)) / sqrt(S) with the value t on the kernel of S."""

    def fn(lam):
        lam = np.clip(lam, 0.0, None)
        root = np.sqrt(lam)
        out = np.empty_like(root)
        small = root * abs(t) < 1e-150
        out[small] = t
        nz = ~small
        out[nz] = np.sin(t * root[nz]) / root[nz]
        return out

    return _oracle(ops, t, vector, fn)


def random_hermitian(dim: int, rng=None, norm: float | None = None, seed: int | None = None) -> np.ndarray:
    """Seeded dense Hermitian test matrix, optionally scaled to a 2-norm."""
    if rng is None:
        rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    if norm is not None:
        current = np.linalg.norm(h, 2)
        if current > 0:
            h *= norm / current
    return h


def random_state(dim: int, rng=None, seed: int | None = None) -> np.ndarray:
    if rng is None:
        rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
