"""Tests for periodic grid fields, their |k|^2 grid, and the spectral reference."""

import math
import re
import warnings

import numpy as np
import pytest

import waveprop as wp
from waveprop.fields import _k_squared, assert_no_wrap


TWO_PI = 2.0 * math.pi


def _mode(n, k, length=TWO_PI):
    x = np.arange(n) * (length / n)
    return wp.GridField(np.exp(1j * k * x), (length,))


def test_wavenumbers_frozen_values():
    f = wp.GridField(np.zeros(8, dtype=complex), (TWO_PI,))
    assert np.array_equal(f.wavenumbers(0), [0, 1, 2, 3, -4, -3, -2, -1])
    g = wp.GridField(np.zeros(8, dtype=complex), (2.0 * TWO_PI,))
    assert np.allclose(g.wavenumbers(0), [0, 0.5, 1, 1.5, -2, -1.5, -1, -0.5])


def test_grid_geometry():
    f = wp.GridField(np.zeros((8, 16), dtype=complex), (TWO_PI, 2.0 * TWO_PI))
    assert f.dim == 2
    assert f.shape == (8, 16)
    assert f.spacing(0) == pytest.approx(TWO_PI / 8)
    assert f.spacing(1) == pytest.approx(TWO_PI / 8)
    x0 = f.axis_coordinates(0)
    assert x0[0] == 0.0
    assert x0[-1] == pytest.approx(TWO_PI - TWO_PI / 8)


def test_norm_is_plain_l2():
    # gaps between fields take the plain l2 norm of the samples, with no cell volume
    f = wp.GridField(np.ones(8, dtype=complex), (TWO_PI,))
    assert wp.relative_l2_gap(f.like(f.values + np.eye(8)[0]), f) == pytest.approx(1.0 / math.sqrt(8.0))


def test_like_preserves_geometry():
    f = wp.GridField(np.zeros(8, dtype=complex), (TWO_PI,), origins=(1.0,))
    g = f.like(np.arange(8, dtype=complex))
    assert g.lengths == f.lengths
    assert g.origins == (1.0,)
    assert np.array_equal(g.values, np.arange(8))


def test_fft_roundtrip():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    f = wp.GridField(vals, (TWO_PI, TWO_PI))
    back = np.fft.ifftn(f.fft())
    assert np.linalg.norm(back - vals) <= 1e-12 * np.linalg.norm(vals)


def test_wave_symbol_is_modulus_of_wavenumber():
    # the wave's symbol |k| is the root of _k_squared, whose half grid has rfftfreq's squares
    f = wp.GridField(np.zeros((8, 7), dtype=complex), (TWO_PI, 2.0 * TWO_PI))
    kx = f.wavenumbers(0)[:, None]
    ky = f.wavenumbers(1)[None, :]
    assert np.allclose(np.sqrt(_k_squared(f)), np.hypot(kx, ky))
    half = 2.0 * np.pi * np.fft.rfftfreq(7, d=f.spacing(1))
    assert np.array_equal(_k_squared(f)[:, :4], kx ** 2 + half[None, :] ** 2)


def test_klein_gordon_symbol_shifts_dispersion():
    # shift a^2 propagates the mode k by cos(t sqrt(k^2 + a^2))
    f, t = _mode(8, 3), 0.7
    out = wp.spectral_wave_reference(f, t, shift=4.0)
    assert np.allclose(out.values, math.cos(math.sqrt(13.0) * t) * f.values, atol=1e-13)


def test_spectral_reference_identity_at_zero_time():
    rng = np.random.default_rng(1)
    f = wp.GridField(rng.standard_normal(32).astype(complex), (TWO_PI,))
    out = wp.spectral_wave_reference(f, 0.0)
    assert np.allclose(out.values, f.values, atol=1e-14)


def test_spectral_reference_plane_wave_factor():
    f = _mode(64, 3)
    t = 0.7
    out = wp.spectral_wave_reference(f, t)
    assert np.allclose(out.values, math.cos(3.0 * t) * f.values, atol=1e-13)


def test_spectral_reference_klein_gordon_zero_mode():
    f = wp.GridField(np.ones(16, dtype=complex), (TWO_PI,))
    t = 0.9
    out = wp.spectral_wave_reference(f, t, shift=1.5 * 1.5)
    assert np.allclose(out.values, math.cos(1.5 * t), atol=1e-13)


def test_damped_symbol_grows_below_cutoff():
    # modes with |k| < a continue to hyperbolic cosine growth
    f = wp.GridField(np.ones(16, dtype=complex), (TWO_PI,))
    t = 0.8
    a = 0.5
    out = wp.spectral_wave_reference(f, t, shift=-a * a)
    assert np.allclose(out.values, math.cosh(a * t), atol=1e-12)
    mode = _mode(16, 1)
    out2 = wp.spectral_wave_reference(mode, t, shift=-4.0)
    assert np.allclose(out2.values, math.cosh(math.sqrt(3.0) * t) * mode.values,
                       atol=1e-12)


def test_gaussian_bump_uses_nearest_periodic_image():
    sigma = 0.3
    f = wp.gaussian_bump((64,), (TWO_PI,), (0.1,), sigma)
    x = f.axis_coordinates(0)
    for idx in (0, 5, 63):
        diff = abs(x[idx] - 0.1)
        d = min(diff, TWO_PI - diff)
        assert f.values[idx].real == pytest.approx(
            math.exp(-d * d / (2.0 * sigma * sigma)), rel=1e-12
        )


def test_gaussian_bump_amplitude_and_peak():
    f = wp.gaussian_bump((32, 32), (TWO_PI, TWO_PI), (math.pi, math.pi), 0.4)
    assert abs(f.values).max() == 1.0
    assert f.origins == (0.0, 0.0)
    peak = np.unravel_index(abs(f.values).argmax(), f.shape)
    assert peak == (16, 16)


def test_effective_support_radius_values():
    # the no-wrap guard's support estimate is the radius sigma sqrt(2 ln 1e12),
    # where the bump falls below 1e-12 of its peak, to within one grid spacing
    bump = wp.gaussian_bump((64,), (TWO_PI,), (math.pi,), 0.25)
    radius = 0.25 * math.sqrt(2.0 * math.log(1e12))
    assert radius == pytest.approx(1.8584610944249191)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_no_wrap(bump, math.pi - radius - 1e-9)
    with pytest.warns(UserWarning, match="periodic images"):
        assert_no_wrap(bump, math.pi - radius + TWO_PI / 64)


def test_relative_l2_gap_normalizes_by_reference():
    a = np.array([3.0, 4.0])
    assert wp.relative_l2_gap(a, a) == 0.0
    assert wp.relative_l2_gap(a, 2.0 * a) == pytest.approx(0.5)
    assert wp.relative_l2_gap(2.0 * a, a) == pytest.approx(1.0)


def test_relative_l2_gap_refuses_operands_of_different_shapes():
    # broadcasting (3,) against (3, 1) would compare a 3 x 3 difference
    with pytest.raises(ValueError, match=re.escape("operands of shapes (3,) and (3, 1) differ")):
        wp.relative_l2_gap(np.ones(3), 2.0 * np.ones((3, 1)))
    f = wp.GridField(np.ones(4, dtype=complex), (TWO_PI,))
    with pytest.raises(ValueError, match=re.escape("(4,) and (2, 2)")):
        wp.relative_l2_gap(f, np.ones((2, 2)))


def test_no_wrap_guard_warns_only_when_cone_reaches_boundary():
    bump = wp.gaussian_bump((64,), (TWO_PI,), (math.pi,), 0.25)
    with pytest.warns(UserWarning, match="periodic images"):
        assert_no_wrap(bump, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_no_wrap(bump, 0.5)


def test_no_wrap_guard_skips_fields_filling_the_box():
    wide = wp.gaussian_bump((64,), (TWO_PI,), (math.pi,), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_no_wrap(wide, 10.0)


def test_spectral_reference_refuses_a_non_finite_shift():
    f = wp.gaussian_bump((16,), (TWO_PI,), (math.pi,), 0.5)
    for shift in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="shift must be finite"):
            wp.spectral_wave_reference(f, 0.5, shift)


def test_gaussian_bump_refuses_non_integer_shape():
    for shape in ((8.7,), (8, 8.0), ("8",)):
        with pytest.raises(ValueError, match="shape entries must be integers"):
            wp.gaussian_bump(shape, (TWO_PI,) * len(shape), (1.0,) * len(shape), 0.5)


def test_spectral_reference_refuses_what_the_grid_routes_refuse():
    f = wp.gaussian_bump((16,), (TWO_PI,), (math.pi,), 0.5)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time t must be finite"):
            wp.spectral_wave_reference(f, t)
    bad = f.like(f.values.copy())
    bad.values[3] = math.nan
    with pytest.raises(ValueError, match="field values have non-finite entries"):
        wp.spectral_wave_reference(bad, 0.5)
    with pytest.raises(ValueError, match="field values have non-finite entries"):
        wp.wave_general(bad, 0.5)


def test_grid_field_validation():
    with pytest.raises(ValueError):
        wp.GridField(np.zeros((2, 2), dtype=complex), (TWO_PI,))
    with pytest.raises(ValueError, match="fields need at least one axis"):
        wp.GridField(np.zeros((), dtype=complex), ())
    for values, lengths, origins, match in [
        (np.zeros(8), (math.nan,), None, "box lengths must be positive and finite"),
        (np.zeros(8), (math.inf,), None, "box lengths must be positive and finite"),
        (np.zeros(8), (-TWO_PI,), None, "box lengths must be positive and finite"),
        (np.zeros(8), (TWO_PI,), (math.nan,), "origins must be finite"),
        (np.zeros((8, 8)), (TWO_PI, TWO_PI), (0.0, -math.inf), "origins must be finite"),
        (np.zeros(0), (1.0,), None, "every axis needs at least one sample"),
        (np.zeros((4, 0)), (1.0, 1.0), None, "every axis needs at least one sample"),
    ]:
        with pytest.raises(ValueError, match=match):
            wp.GridField(values, lengths, origins)
    for center, sigma, match in [
        ((1.0, 1.0), 0.0, "sigma must be positive and finite"),
        ((1.0, 1.0), -0.3, "sigma must be positive and finite"),
        ((1.0, 1.0), math.nan, "sigma must be positive and finite"),
        ((1.0, 1.0), math.inf, "sigma must be positive and finite"),
        ((1.0, math.nan), 0.3, "center must be finite"),
        ((math.inf, 1.0), 0.3, "center must be finite"),
        ((1.0,), 0.3, r"center needs one coordinate per axis \(2\)"),
        ((1.0, 1.0, 1.0), 0.3, r"center needs one coordinate per axis \(2\)"),
    ]:
        with pytest.raises(ValueError, match=match):
            wp.gaussian_bump((8, 8), (TWO_PI, TWO_PI), center, sigma)
