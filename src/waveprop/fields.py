"""Periodic grid fields and Fourier multiplier references.

Fields live on uniform periodic boxes in any number of dimensions.  The
reference propagator is diagonal in the discrete Fourier basis, so
round-trip FFT exactness makes the discrete model self-consistent: the
kernel-averaging routes in pde.py are compared against these multipliers.
A symbol is a complex array of the field's shape, one value per discrete
wavenumber.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import _checked_time

__all__ = [
    "GridField",
    "wave_symbol",
    "klein_gordon_symbol",
    "damped_symbol",
    "spectral_wave_reference",
    "gaussian_bump",
    "relative_l2_gap",
    "assert_no_wrap",
]


@dataclass(eq=False)
class GridField:
    """Complex samples on a uniform periodic box."""

    values: np.ndarray
    lengths: tuple[float, ...]
    origins: tuple[float, ...] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim == 0:
            raise ValueError("fields need at least one axis")
        if 0 in self.values.shape:
            raise ValueError(f"every axis needs at least one sample, got shape {self.values.shape}")
        self.lengths = tuple(float(x) for x in np.atleast_1d(self.lengths))
        if len(self.lengths) != self.values.ndim:
            raise ValueError("one box length per axis required")
        if not all(0.0 < x < math.inf for x in self.lengths):
            raise ValueError(f"box lengths must be positive and finite, got {self.lengths}")
        if self.origins is None:
            self.origins = (0.0,) * self.values.ndim
        self.origins = tuple(float(x) for x in np.atleast_1d(self.origins))
        if len(self.origins) != self.values.ndim:
            raise ValueError("one origin per axis required")
        if not all(map(math.isfinite, self.origins)):
            raise ValueError(f"origins must be finite, got {self.origins}")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def spacing(self, axis: int) -> float:
        return self.lengths[axis] / self.shape[axis]

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.origins[axis] + self.spacing(axis) * np.arange(self.shape[axis])

    def wavenumbers(self, axis: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.shape[axis], d=self.spacing(axis))

    def fft(self) -> np.ndarray:
        return np.fft.fftn(self.values)

    def like(self, values: np.ndarray) -> "GridField":
        return GridField(values, self.lengths, self.origins)


def _finite_values(field: GridField) -> np.ndarray:
    """The field's samples, refused before any work if one is not finite."""
    if not np.all(np.isfinite(field.values)):
        raise ValueError("field values have non-finite entries")
    return field.values


def _axis_sum_of_squares(field: GridField, axis_values) -> np.ndarray:
    """sum over axes of axis_values(axis)^2, each 1-D array broadcast along its axis."""
    total = np.zeros(field.shape)
    for axis in range(field.dim):
        shape = [1] * field.dim
        shape[axis] = -1
        total += axis_values(axis).reshape(shape) ** 2
    return total


def _k_squared(field: GridField) -> np.ndarray:
    """|k|^2 at every discrete wavenumber of the grid."""
    return _axis_sum_of_squares(field, field.wavenumbers)


def _periodic_r2(field: GridField, center) -> np.ndarray:
    """Squared distance from every grid point to the nearest periodic image of center."""

    def offsets(axis):
        length = field.lengths[axis]
        return (field.axis_coordinates(axis) - center[axis] + length / 2.0) % length - length / 2.0

    return _axis_sum_of_squares(field, offsets)


def wave_symbol(field: GridField) -> np.ndarray:
    """|k|: the propagator multiplier becomes cos(t |k|)."""
    return np.sqrt(_k_squared(field)).astype(complex)


def klein_gordon_symbol(field: GridField, a: float) -> np.ndarray:
    """sqrt(|k|^2 + a^2) for the mass-a dispersive wave."""
    return np.sqrt(_k_squared(field) + a * a).astype(complex)


def damped_symbol(field: GridField, a: float) -> np.ndarray:
    """sqrt(|k|^2 - a^2); imaginary below the cutoff, where cos -> cosh."""
    return np.sqrt((_k_squared(field) - a * a).astype(complex))


def spectral_wave_reference(field: GridField, t: float, symbol: np.ndarray | None = None) -> GridField:
    """cos(t * symbol) applied in the Fourier basis; the oracle for grids.

    symbol is a complex array of the field's shape (wave_symbol by default)
    with finite entries.  t and the field samples are refused as the grid
    routes refuse them: both must be finite.  Real samples through a real
    multiplier that is even in k give exactly real values.
    """
    _checked_time(t)
    _finite_values(field)
    symbol = wave_symbol(field) if symbol is None else np.asarray(symbol, dtype=complex)
    if symbol.shape != field.shape:
        raise ValueError("symbol shape does not match the field")
    if not np.all(np.isfinite(symbol)):
        raise ValueError("symbol has non-finite entries")
    multiplier = np.cos(t * symbol)
    out = np.fft.ifftn(multiplier * field.fft())
    if not (np.any(field.values.imag) or np.any(multiplier.imag)) and _is_even(multiplier):
        out = out.real  # real data through a real even multiplier: the imaginary part is rounding
    return field.like(out)


def _is_even(multiplier: np.ndarray) -> bool:
    """Whether multiplier[k] == multiplier[-k] at every discrete wavenumber k."""
    axes = tuple(range(multiplier.ndim))
    return np.array_equal(multiplier, np.roll(np.flip(multiplier, axes), 1, axes))


def gaussian_bump(shape, lengths, center, sigma: float) -> GridField:
    """Gaussian bump exp(-|x-center|^2 / (2 sigma^2)) sampled on the box with origin 0.

    shape holds integers, sigma must be positive and finite, and center
    finite with one coordinate per axis; the box is checked by GridField.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    shape = np.atleast_1d(shape)
    if not np.issubdtype(shape.dtype, np.integer):
        raise ValueError(f"shape entries must be integers, got {shape.tolist()}")
    template = GridField(np.zeros(tuple(shape), dtype=complex), lengths)
    center = np.atleast_1d(center).astype(float)
    if center.shape != (template.dim,):
        raise ValueError(f"center needs one coordinate per axis ({template.dim}), got {center.tolist()}")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center must be finite, got {center.tolist()}")
    r2 = _periodic_r2(template, center)
    template.values = np.exp(-r2 / (2.0 * sigma * sigma)).astype(complex)
    return template


def relative_l2_gap(a: GridField | np.ndarray, b: GridField | np.ndarray) -> float:
    """||a - b|| / ||b||, refused unless a and b have one shape."""
    va = a.values if isinstance(a, GridField) else np.asarray(a)
    vb = b.values if isinstance(b, GridField) else np.asarray(b)
    if va.shape != vb.shape:
        raise ValueError(f"operands of shapes {va.shape} and {vb.shape} differ")
    return float(np.linalg.norm(va - vb) / max(np.linalg.norm(vb), 1e-300))


def assert_no_wrap(field: GridField, t: float) -> None:
    """Warn when translated samples could wrap around the periodic box.

    Needs |t| + support radius < box/2.  The radius is estimated from the
    smallest ball around the field's peak containing all samples above
    1e-12 of the maximum.
    """
    mag = np.abs(field.values)
    mask = mag > 1e-12 * mag.max()
    if not mask.any():
        return  # a zero (or non-finite) field
    idx = np.unravel_index(int(mag.argmax()), field.shape)
    center = [field.axis_coordinates(axis)[idx[axis]] for axis in range(field.dim)]
    support_radius = float(np.sqrt(_periodic_r2(field, center)[mask].max()))
    if support_radius > 0.45 * min(field.lengths):
        return  # field fills the box (e.g. constants); wrap is meaningless
    if abs(t) + support_radius >= min(field.lengths) / 2.0:
        warnings.warn(
            f"|t| + support radius = {abs(t) + support_radius:.3f} exceeds half the box "
            f"({min(field.lengths) / 2.0:.3f}); periodic images will pollute the result",
            stacklevel=2,
        )
