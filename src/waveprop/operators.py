"""Finite-dimensional Hermitian operators and spectral reference routes.

Everything downstream treats these as the ground truth: cos_sqrt_sum_oracle
and sinc_sqrt_sum_oracle diagonalize the sum of squares directly, so the
lifted quadrature and splitting constructions always have an independent
answer to be measured against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "StateVector",
    "as_matrix",
    "as_vector",
    "spectral_apply",
    "operator_norm",
    "heat_semigroup",
    "cos_sqrt_sum_oracle",
    "sinc_sqrt_sum_oracle",
    "random_hermitian",
    "random_state",
]

HERMITIAN_RTOL = 1e-12
RECONSTRUCT_RTOL = 1e-10


@dataclass(eq=False)
class HermitianOperator:
    """Dense Hermitian matrix with a cached eigendecomposition.

    Inputs whose Hermitian defect exceeds HERMITIAN_RTOL (relative,
    Frobenius) are symmetrized to (M + M*)/2 with a warning rather than
    rejected; the `symmetrized` flag records that this happened.
    """

    entries: np.ndarray
    symmetrized: bool = False
    _decomposition: "SpectralDecomposition | None" = field(default=None, repr=False)

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        scale = np.linalg.norm(entries)
        defect = np.linalg.norm(entries - entries.conj().T)
        if scale > 0 and defect > HERMITIAN_RTOL * scale:
            warnings.warn(
                f"input is not Hermitian (relative defect {defect / scale:.3e}); "
                "using the Hermitian part",
                stacklevel=2,
            )
            entries = (entries + entries.conj().T) / 2.0
            self.symmetrized = True
        else:
            self.symmetrized = False
        self.entries = entries
        self._decomposition = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def decomposition(self) -> "SpectralDecomposition":
        if self._decomposition is None:
            self._decomposition = SpectralDecomposition.from_matrix(self.entries)
        return self._decomposition

    def norm2(self) -> float:
        w = self.decomposition().eigenvalues
        return float(max(abs(w[0]), abs(w[-1]))) if len(w) else 0.0


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "SpectralDecomposition":
        matrix = np.asarray(matrix, dtype=complex)
        try:
            w, v = np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"eigendecomposition failed for {matrix.shape[0]}x{matrix.shape[1]} input: {exc}"
            ) from exc
        dec = cls(eigenvalues=w, eigenvectors=v)
        scale = max(np.linalg.norm(matrix), 1e-300)
        recon = np.linalg.norm((v * w) @ v.conj().T - matrix)
        ortho = np.linalg.norm(v.conj().T @ v - np.eye(len(w)))
        if recon > RECONSTRUCT_RTOL * scale or ortho > RECONSTRUCT_RTOL:
            raise np.linalg.LinAlgError(
                f"eigendecomposition failed validation: reconstruction {recon / scale:.3e}, "
                f"orthonormality {ortho:.3e}"
            )
        return dec

    def apply(self, fn, vector: np.ndarray) -> np.ndarray:
        """f(M) v through the eigenbasis."""
        coeffs = self.eigenvectors.conj().T @ vector
        return self.eigenvectors @ (fn(self.eigenvalues) * coeffs)

    def matrix_function(self, fn) -> np.ndarray:
        return (self.eigenvectors * fn(self.eigenvalues)) @ self.eigenvectors.conj().T


@dataclass(eq=False)
class StateVector:
    """Complex vector the propagators act on."""

    entries: np.ndarray

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 1:
            raise ValueError(f"expected a one-dimensional vector, got shape {entries.shape}")
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.entries)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def as_matrix(op) -> np.ndarray:
    """Accept HermitianOperator or a plain array."""
    if isinstance(op, HermitianOperator):
        return op.entries
    return np.asarray(op, dtype=complex)


def as_vector(h) -> np.ndarray:
    if isinstance(h, StateVector):
        return h.entries
    return np.asarray(h, dtype=complex)


def _decomposition_of(op) -> SpectralDecomposition:
    if isinstance(op, HermitianOperator):
        return op.decomposition()
    return SpectralDecomposition.from_matrix(as_matrix(op))


def spectral_apply(fn, op, vector) -> np.ndarray:
    """f(M) v for Hermitian M via eigendecomposition."""
    v = as_vector(vector)
    dec = _decomposition_of(op)
    if len(dec.eigenvalues) != len(v):
        raise ValueError(f"dimension mismatch: operator {len(dec.eigenvalues)}, vector {len(v)}")
    return dec.apply(fn, v)


def operator_norm(op) -> float:
    if isinstance(op, HermitianOperator):
        return op.norm2()
    m = as_matrix(op)
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def heat_semigroup(op, rho: float, vector=None):
    """exp(-rho M^2) as a matrix, or applied to a vector when given.

    rho >= 0; eigenvalues of M^2 are clipped at zero so roundoff cannot
    produce a growing factor.
    """
    if rho < 0:
        raise ValueError("rho must be non-negative")
    dec = _decomposition_of(op)
    fn = lambda lam: np.exp(-rho * np.clip(lam * lam, 0.0, None))
    if vector is None:
        return dec.matrix_function(fn)
    return dec.apply(fn, as_vector(vector))


def _sum_of_squares(ops) -> np.ndarray:
    mats = [as_matrix(op) for op in ops]
    if not mats:
        raise ValueError("need at least one operator")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("all operators must share one dimension")
    total = np.zeros((d, d), dtype=complex)
    for m in mats:
        total += m @ m
    return total


def cos_sqrt_sum_oracle(ops, t: float, vector=None):
    """cos(t sqrt(A_1^2 + ... + A_n^2)) by direct diagonalization.

    Eigenvalues of the sum of squares are clipped at zero before the
    square root; the result is the reference for every lifted route.
    """
    dec = SpectralDecomposition.from_matrix(_sum_of_squares(ops))
    fn = lambda lam: np.cos(t * np.sqrt(np.clip(lam, 0.0, None)))
    if vector is None:
        return dec.matrix_function(fn)
    return dec.apply(fn, as_vector(vector))


def sinc_sqrt_sum_oracle(ops, t: float, vector=None):
    """sin(t sqrt(S)) / sqrt(S) with the value t on the kernel of S."""
    dec = SpectralDecomposition.from_matrix(_sum_of_squares(ops))

    def fn(lam):
        lam = np.clip(lam, 0.0, None)
        root = np.sqrt(lam)
        out = np.empty_like(root)
        small = root * abs(t) < 1e-150
        out[small] = t
        nz = ~small
        out[nz] = np.sin(t * root[nz]) / root[nz]
        return out

    if vector is None:
        return dec.matrix_function(fn)
    return dec.apply(fn, as_vector(vector))


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
