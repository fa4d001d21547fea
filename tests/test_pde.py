"""Tests for grid-operator propagators: wave, Klein-Gordon, damped, demos."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from scipy.special import j0

import waveprop as wp
from waveprop import pde, trotter
from waveprop.fields import _k_squared, spectral_wave_reference

TWO_PI = 2.0 * math.pi


def _bump(shape, sigma=0.3, length=TWO_PI):
    dims = len(shape)
    lengths = (length,) * dims
    center = (length / 2.0,) * dims
    return wp.gaussian_bump(shape, lengths, center, sigma)


def _mode(shape, kvec, length=TWO_PI):
    lengths = (length,) * len(shape)
    grids = np.meshgrid(
        *[np.arange(n) * (length / n) for n in shape], indexing="ij"
    )
    phase = sum(k * g for k, g in zip(kvec, grids))
    return wp.GridField(np.exp(1j * phase), lengths)


def _sine_reference(field, t, shift=0.0):
    sym = np.sqrt((_k_squared(field) + shift).astype(complex))
    factor = np.where(sym == 0.0, t, np.sin(t * sym) / np.where(sym == 0.0, 1.0, sym))
    return field.like(np.fft.ifftn(factor * field.fft()))


def test_wave2d_preserves_constants():
    f = wp.GridField(np.full((32, 32), 1.7, dtype=complex), (TWO_PI, TWO_PI))
    out = wp.wave2d_poisson(f, 0.5)
    assert wp.relative_l2_gap(out, f) <= 1e-12


def test_wave2d_plane_wave_factor():
    f = _mode((48, 48), (3, 4))
    t = 0.5
    out = wp.wave2d_poisson(f, t)
    assert wp.relative_l2_gap(out.values, math.cos(5.0 * t) * f.values) <= 1e-8


def test_wave2d_matches_spectral_reference():
    f = _bump((64, 64), sigma=0.3)
    t = 0.5
    out = wp.wave2d_poisson(f, t)
    ref = spectral_wave_reference(f, t)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_wave2d_is_even_in_time():
    f = _bump((48, 48), sigma=0.3)
    fwd = wp.wave2d_poisson(f, 0.4)
    bwd = wp.wave2d_poisson(f, -0.4)
    assert wp.relative_l2_gap(fwd, bwd) <= 1e-11


def test_wave2d_sine_route_matches_reference():
    f = _bump((48, 48), sigma=0.3)
    t = 0.4
    out = wp.wave2d_poisson(f, t, kind="sin")
    ref = _sine_reference(f, t)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_wave3d_matches_spectral_reference():
    f = _bump((32, 32, 32), sigma=0.35)
    t = 0.4
    out = wp.wave3d_kirchhoff(f, t)
    ref = spectral_wave_reference(f, t)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_wave3d_sine_route_matches_reference():
    f = _bump((32, 32, 32), sigma=0.35)
    t = 0.4
    out = wp.wave3d_kirchhoff(f, t, kind="sin")
    ref = _sine_reference(f, t)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_general_route_dim1_translation_average():
    rng = np.random.default_rng(2)
    f = wp.GridField(
        rng.standard_normal(64) + 1j * rng.standard_normal(64), (TWO_PI,)
    )
    t = 1.3  # exact for any t: periodic translations are spectrally exact
    out = wp.wave_general(f, t)
    ref = spectral_wave_reference(f, t)
    assert wp.relative_l2_gap(out, ref) <= 1e-12


def test_general_route_dim1_sine():
    f = _bump((128,), sigma=0.25)
    t = 0.8
    out = wp.wave_general(f, t, kind="sin")
    ref = _sine_reference(f, t)
    assert wp.relative_l2_gap(out, ref) <= 1e-10


def test_general_route_matches_stencil_route_2d():
    f = _bump((48, 48), sigma=0.3)
    t = 0.4
    ladder = wp.wave_general(f, t)
    stencil = wp.wave2d_poisson(f, t)
    assert wp.relative_l2_gap(ladder, stencil) <= 1e-9


def test_general_route_matches_stencil_route_3d():
    f = _bump((16, 16, 16), sigma=0.5)
    t = 0.3
    ladder = wp.wave_general(f, t)
    stencil = wp.wave3d_kirchhoff(f, t)
    assert wp.relative_l2_gap(ladder, stencil) <= 1e-9


def test_general_route_3d_tube_descends_to_2d():
    # data constant along the third axis: the sphere route must reproduce
    # the disk route on every slab, for both propagators
    plane = _bump((48, 48), sigma=0.3)
    tube = wp.GridField(np.repeat(plane.values[:, :, None], 8, axis=2), (TWO_PI,) * 3)
    t = 0.4
    for kind in ("cos", "sin"):
        slab = wp.wave_general(tube, t, kind=kind).values[:, :, 3]
        native = wp.wave_general(plane, t, kind=kind)
        assert wp.relative_l2_gap(slab, native.values) <= 1e-9


@pytest.mark.parametrize("shape", [(16,) * 4, (12,) * 5], ids=["16^4", "12^5"])
@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_general_route_beyond_three_axes_matches_spectral_multipliers(shape, kind):
    # the ascent's route in R^d: the ball for even d, the sphere S^(d-1) for odd d
    f = _bump(shape, sigma=0.6)
    got = wp.wave_general(f, 0.4, kind=kind)
    want = spectral_wave_reference(f, 0.4) if kind == "cos" else _sine_reference(f, 0.4)
    assert wp.relative_l2_gap(got, want) <= 1e-12


def test_general_route_4d_tube_descends_to_3d():
    # data constant along the fourth axis: the 4-D ball route reproduces the
    # 3-D sphere route on every slab
    solid = _bump((16, 16, 16), sigma=0.6)
    tube = wp.GridField(np.repeat(solid.values[..., None], 4, axis=3), (TWO_PI,) * 4)
    for kind in ("cos", "sin"):
        slab = wp.wave_general(tube, 0.4, kind=kind).values[..., 1]
        assert wp.relative_l2_gap(slab, wp.wave_general(solid, 0.4, kind=kind).values) <= 1e-12


_MASS_ROUTES = [(wp.klein_gordon, 1.0, 1.0), (wp.damped_wave, -1.0, 0.5)]


@pytest.mark.parametrize("shape", [(128,), (48, 48), (16,) * 3, (16,) * 4, (12,) * 5],
                         ids=["128", "48^2", "16^3", "16^4", "12^5"])
@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("route, sign, a", _MASS_ROUTES, ids=["klein_gordon", "damped"])
def test_mass_routes_in_any_number_of_axes_match_spectral_multipliers(route, sign, a, shape, kind):
    # the massless route of R^(d+1): no axis count is refused
    f = _bump(shape, sigma=0.6)
    got = route(f, 0.4, a, kind=kind)
    shift = sign * a * a
    want = spectral_wave_reference(f, 0.4, shift) if kind == "cos" else _sine_reference(f, 0.4, shift)
    assert wp.relative_l2_gap(got, want) <= 1e-14


@pytest.mark.parametrize("shape", [(64,), (16, 16), (8, 8, 8)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_klein_gordon_is_the_wave_slab_of_one_more_axis(shape, kind):
    # Hadamard's descent: for integer a, f(x) cos(a y) is a frequency-a mode along
    # y, and its massless wave on R^(d+1) at y = 0 is the mass-a wave of f
    f, a = _bump(shape, sigma=0.6), 2
    y = np.arange(8) * (TWO_PI / 8)
    lifted = wp.GridField(np.multiply.outer(f.values, np.cos(a * y)), (TWO_PI,) * (len(shape) + 1))
    slab = wp.wave_general(lifted, 0.4, kind=kind).values[..., 0]
    assert wp.relative_l2_gap(wp.klein_gordon(f, 0.4, a, kind=kind).values, slab) <= 1e-13


def test_general_route_identity_at_zero_time():
    f = _bump((32, 32), sigma=0.3)
    out = wp.wave_general(f, 0.0)
    assert wp.relative_l2_gap(out, f) == 0.0


@pytest.mark.parametrize("route, shape, sigma", [
    (wp.wave2d_poisson, (48, 48), 0.3),
    (wp.wave3d_kirchhoff, (16, 16, 16), 0.5),
])
@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_named_routes_equal_general_route_bit_for_bit(route, shape, sigma, kind):
    f = _bump(shape, sigma=sigma)
    named = route(f, 0.3, kind=kind).values
    assert np.array_equal(named, wp.wave_general(f, 0.3, kind=kind).values)


@pytest.mark.parametrize("route, shape", [(wp.wave2d_poisson, (16, 16)),
                                          (wp.wave3d_kirchhoff, (8, 8, 8))])
def test_named_routes_are_exact_at_zero_time(route, shape):
    f = _bump(shape, sigma=0.5)
    assert np.array_equal(route(f, 0.0).values, f.values)
    sine = route(f, 0.0, kind="sin").values
    assert sine.shape == f.shape and not sine.any()


def test_general_route_rejects_unknown_kind():
    f = _bump((16, 16), sigma=0.4)
    with pytest.raises(ValueError):
        wp.wave_general(f, 0.3, kind="tan")


_GRID_ROUTES = {
    "wave2d": ((16, 16), lambda f, t: wp.wave2d_poisson(f, t)),
    "wave3d": ((8, 8, 8), lambda f, t: wp.wave3d_kirchhoff(f, t, kind="sin")),
    "klein_gordon": ((8, 8, 8), lambda f, t: wp.klein_gordon(f, t, 1.0)),
    "damped": ((16, 16), lambda f, t: wp.damped_wave(f, t, 0.5)),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("route", sorted(_GRID_ROUTES))
def test_grid_routes_refuse_non_finite_time(route, t):
    shape, call = _GRID_ROUTES[route]
    with pytest.raises(ValueError, match=r"time t must be finite, got t = (nan|inf)"):
        call(_bump(shape), t)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("route", sorted(_GRID_ROUTES))
def test_grid_routes_refuse_non_finite_field_values(route, bad):
    shape, call = _GRID_ROUTES[route]
    field = _bump(shape)
    field.values.flat[3] = bad
    with pytest.raises(ValueError, match="field values have non-finite entries"):
        call(field, 0.4)


def _noise(shape):
    return wp.GridField(np.random.default_rng(7).standard_normal(shape), (TWO_PI,) * len(shape))


@pytest.mark.parametrize("route, shift, kind", [
    (wp.wave2d_poisson, 0.0, "cos"), (wp.wave2d_poisson, 0.0, "sin"),
    (lambda f, t, kind: wp.klein_gordon(f, t, 3.0, kind=kind), 9.0, "cos"),
    (lambda f, t, kind: wp.damped_wave(f, t, 3.0, kind=kind), -9.0, "cos"),
], ids=["wave2d-cos", "wave2d-sin", "klein_gordon", "damped"])
def test_past_the_level_cap_the_routes_halve_t_and_double_back(route, shift, kind):
    # white noise asks for level 736 at t = 5: two halvings, no warning, rounding-level gaps
    f, t = _noise((128, 128)), 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = route(f, t, kind=kind)
    want = spectral_wave_reference(f, t, shift) if kind == "cos" else _sine_reference(f, t, shift)
    assert wp.relative_l2_gap(out, want) <= 1e-11


def test_long_time_1d_sine_doubles_back_through_the_two_point_cosine():
    f, t = _noise((256,)), 20.0
    assert wp.relative_l2_gap(wp.wave_general(f, t, kind="sin"), _sine_reference(f, t)) <= 1e-11


def test_default_cli_grid_inputs_do_not_warn(tmp_path):
    from waveprop import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("wave2d", "wave3d", "kg", "damped"):
            assert cli.main([name, "--out", str(tmp_path / f"{name}.json")]) == 0
        for name in ("kg", "damped"):
            for dim in ("2", "3", "4", "5"):
                assert cli.main([name, "--dim", dim, "--out", str(tmp_path / f"{name}{dim}.json")]) == 0


# ---------------------------------------------------------------------------
# the s shell rule read off one Dirichlet rule


# the ids keep the (d, p, mass) form the rows had when the rule also carried a mass
_SHELL_RULES = [(2, -0.5), (1, 0.0), (2, None), (3, None)]


@pytest.mark.parametrize("d, p", _SHELL_RULES, ids=[f"{d}-{p}-None" for d, p in _SHELL_RULES])
def test_shell_rule_moments_match_dirichlet_closed_form(d, p):
    s, weights = pde._shell_rule(d, 8, p)
    for i in range(5):
        got = float(np.sum(weights * s ** (2 * i)))
        if p is None:  # sphere: twice Dirichlet(1/2, ..., 1/2) in w^2
            exact = 2.0 * math.pi ** ((d - 1) / 2.0) * math.exp(
                math.lgamma(i + 0.5) - math.lgamma(i + d / 2.0))
        else:
            exact = wp.ball_moment((i,) + (0,) * (d - 1), boundary_exponent=p)
        assert got == pytest.approx(exact, rel=1e-13)


def test_shell_rule_on_s0_is_the_single_node_one():
    s, weights = pde._shell_rule(1, 12)
    assert s.tolist() == [1.0] and weights.tolist() == [2.0]


def test_klein_gordon_1d_matches_reference():
    f = _bump((128,), sigma=0.25)
    t = 0.5
    out = wp.klein_gordon(f, t, 1.0)
    ref = spectral_wave_reference(f, t, shift=1.0)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_klein_gordon_2d_matches_reference():
    f = _bump((48, 48), sigma=0.3)
    t = 0.4
    out = wp.klein_gordon(f, t, 1.0)
    ref = spectral_wave_reference(f, t, shift=1.0)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_klein_gordon_3d_matches_reference():
    f = _bump((16, 16, 16), sigma=0.5)
    t = 0.3
    out = wp.klein_gordon(f, t, 1.0)
    ref = spectral_wave_reference(f, t, shift=1.0)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_klein_gordon_3d_sine_route():
    f = _bump((16, 16, 16), sigma=0.5)
    t = 0.3
    out = wp.klein_gordon(f, t, 1.0, kind="sin")
    ref = _sine_reference(f, t, shift=1.0)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_klein_gordon_zero_mass_collapses_to_wave():
    f = _bump((96,), sigma=0.25)
    t = 0.5
    kg = wp.klein_gordon(f, t, 0.0)
    wave = wp.wave_general(f, t)
    assert wp.relative_l2_gap(kg, wave) <= 1e-10


@pytest.mark.parametrize("shape,sigma", [((48, 48), 0.3), ((16, 16, 16), 0.5)])
@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_zero_mass_collapses_to_wave_in_2d_and_3d(shape, sigma, kind):
    # a = 0 runs the route of R^(d+1) on data constant along the extra axis
    f = _bump(shape, sigma=sigma)
    t = 0.4
    wave = wp.wave_general(f, t, kind=kind)
    for route in (wp.klein_gordon, wp.damped_wave):
        assert wp.relative_l2_gap(route(f, t, 0.0, kind=kind), wave) <= 1e-10


def test_kernel_spec_validation():
    f = _bump((32,), sigma=0.4)
    for route in (wp.klein_gordon, wp.damped_wave):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                route(f, 0.3, bad)
    with pytest.raises(ValueError, match="nonnegative"):
        wp.klein_gordon(f, 0.3, -1.0)
    assert np.all(np.isfinite(wp.damped_wave(f, 0.3, -1.0).values))


def test_damped_wave_zero_mode_grows_as_cosh():
    f = wp.GridField(np.ones(64, dtype=complex), (TWO_PI,))
    a, t = 0.5, 0.8
    out = wp.damped_wave(f, t, a)
    assert wp.relative_l2_gap(out.values, math.cosh(a * t) * np.ones(64)) <= 1e-8


def test_damped_wave_matches_reference_1d():
    f = _bump((128,), sigma=0.25)
    a, t = 0.5, 0.5
    out = wp.damped_wave(f, t, a)
    ref = spectral_wave_reference(f, t, shift=-a * a)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


def test_damped_wave_matches_reference_2d():
    f = _bump((48, 48), sigma=0.3)
    a, t = 0.5, 0.4
    out = wp.damped_wave(f, t, a)
    ref = spectral_wave_reference(f, t, shift=-a * a)
    assert wp.relative_l2_gap(out, ref) <= 1e-6


@pytest.mark.parametrize("route, shape, t, a", [
    (wp.wave2d_poisson, (64, 64), 0.5, None), (wp.wave2d_poisson, (64, 64), 1.0, None),
    (wp.wave3d_kirchhoff, (24, 24, 24), 0.5, None),
    (wp.klein_gordon, (128,), 0.5, 1.0), (wp.klein_gordon, (64, 64), 0.5, 1.0), (wp.klein_gordon, (24, 24, 24), 0.5, 1.0),
    (wp.damped_wave, (128,), 0.4, 0.5), (wp.damped_wave, (64, 64), 0.4, 0.5), (wp.damped_wave, (24, 24, 24), 0.4, 0.5),
])
def test_grid_routes_sit_at_rounding_against_the_spectral_reference(route, shape, t, a):
    # the gaps are rounding, ~5e-16; rule weights a few 1e-11 off read up to 2.4e-13 on these cases
    f = _bump(shape, sigma=0.25 if len(shape) < 3 else 0.3)
    if a is None:
        out, ref = route(f, t), spectral_wave_reference(f, t)
    else:
        shift = a * a if route is wp.klein_gordon else -a * a
        out, ref = route(f, t, a), spectral_wave_reference(f, t, shift)
    assert wp.relative_l2_gap(out, ref) <= 1e-14


@pytest.mark.parametrize("shape", [(8, 1), (1, 8), (7,), (9, 5), (2,), (8, 8)],
                         ids=["8x1", "1x8", "7", "9x5", "2", "8x8"])
@pytest.mark.parametrize("t", [0.3, -0.3])
def test_half_spectrum_plumbing_matches_the_full_complex_transform(shape, t):
    # odd and even lengths, single-sample axes and the even length's Nyquist column,
    # against one complex fftn of the same multiplier; real data come back exactly real
    rng = np.random.default_rng(11)
    real = wp.GridField(rng.standard_normal(shape), (TWO_PI,) * len(shape))
    wavy = real.like(real.values + 1j * rng.standard_normal(shape))
    routes = [(wp.wave_general, 0.0), (functools.partial(wp.klein_gordon, a=1.0), 1.0),
              (functools.partial(wp.damped_wave, a=0.5), -0.25)]
    for field in (real, wavy):
        for route, shift in routes:
            root = np.sqrt((_k_squared(field) + shift).astype(complex))
            want = {"cos": np.fft.ifftn(np.cos(t * root).real * np.fft.fftn(field.values)),
                    "sin": _sine_reference(field, t, shift).values}
            outs = [("cos", wp.spectral_wave_reference(field, t, shift))]
            outs += [(kind, route(field, t, kind=kind)) for kind in ("cos", "sin")]
            for kind, out in outs:
                assert wp.relative_l2_gap(out.values, want[kind]) <= 1e-14, (route, kind)
                assert np.any(out.values.imag) == (field is wavy)


def test_bessel_kernel_identity():
    for theta in (0.3, 1.0, 2.7):
        report = wp.bessel_kernel_check(theta)
        assert report["gap"] <= 1e-10
        # the power-series reference, independent of the circle rules
        assert abs(report["bessel_reference"] - math.pi * j0(theta)) <= 2e-15
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            wp.bessel_kernel_check(theta)


def test_cos_to_exp_rewrite_identity_for_symmetric_rule():
    report = wp.cos_to_exp_rewrite_check([0.6, -0.3], 0.9)
    assert report["gap"] <= 1e-12
    assert report["imaginary_residual"] <= 1e-12


def test_cos_to_exp_rewrite_negative_control():
    # shifting the nodes in both coordinates destroys the sign symmetry
    # the rewrite relies on, so the gap must become macroscopic
    rule = wp.build_ball_rule(2, 10)
    shifted = dataclasses.replace(rule, nodes=rule.nodes + np.array([0.07, 0.05]))
    report = wp.cos_to_exp_rewrite_check([0.6, -0.3], 0.9, rule=shifted)
    assert report["gap"] > 1e-4
    assert report["imaginary_residual"] > 1e-4


def test_huygens_exterior_point_silent_in_3d():
    n, sigma, t = 48, 0.25, 0.4
    f = _bump((n, n, n), sigma=sigma)
    out = wp.wave3d_kirchhoff(f, t)
    # sample a point the light cone cannot have reached
    offset = 2.4
    assert offset > t + sigma * math.sqrt(2.0 * math.log(1e12))  # bump below 1e-12 of its peak
    idx = round((math.pi + offset) % TWO_PI / (TWO_PI / n))
    center = n // 2
    assert abs(out.values[idx, center, center]) <= 1e-8


def test_interior_tail_persists_in_2d():
    # after the front passes, an even-dimensional wave leaves a tail at the
    # source; measured at the bump center once t exceeds the support radius
    n, sigma, t = 96, 0.25, 2.0
    length = 2.0 * TWO_PI
    f = wp.gaussian_bump((n, n), (length, length), (TWO_PI, TWO_PI), sigma)
    assert t > sigma * math.sqrt(2.0 * math.log(1e12))  # bump below 1e-12 of its peak
    out = wp.wave2d_poisson(f, t)
    center = n // 2
    assert abs(out.values[center, center]) > 1e-6


def test_energy_split_per_mode():
    # |cos-route spectrum|^2 + |k * sine-route spectrum|^2 recovers |f-hat|^2
    f = _bump((48, 48), sigma=0.3)
    t = 0.4
    cos_part = wp.wave2d_poisson(f, t).fft()
    sin_part = wp.wave2d_poisson(f, t, kind="sin").fft()
    energy = np.abs(cos_part) ** 2 + _k_squared(f) * np.abs(sin_part) ** 2
    target = np.abs(f.fft()) ** 2
    assert np.linalg.norm(energy - target) <= 1e-6 * np.linalg.norm(target)


def test_spectral_derivative_matrix_is_hermitian_and_exact():
    n, length = 16, TWO_PI
    mat = wp.spectral_derivative_matrix(n, length)
    assert np.allclose(mat, mat.conj().T)
    x = np.arange(n) * (length / n)
    mode = np.exp(2j * x)
    assert np.allclose(mat @ mode, 2.0 * mode, atol=1e-12)
    for bad_n, bad_length, match in [
        (4, 0.0, "box length must be positive and finite, got 0.0"),
        (4, -TWO_PI, "box length must be positive and finite"),
        (4, math.nan, "box length must be positive and finite, got nan"),
        (4, math.inf, "box length must be positive and finite, got inf"),
        (0, TWO_PI, "grid size n must be at least 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=match):
            wp.spectral_derivative_matrix(bad_n, bad_length)


def test_oscillator_ground_state_converges():
    n = 64
    x = np.arange(n) * (16.0 / n) - 8.0
    ground = wp.GridField(np.exp(-x * x / 2.0).astype(complex), (16.0,),
                          origins=(-8.0,))
    out, report, diag = wp.harmonic_oscillator(ground, 0.2, tol=1e-3, m_cap=64)
    assert diag["oracle_gap"] <= 1e-3
    assert report.verdict == "converged"
    # the ground state has eigenvalue 1, so the profile only oscillates
    assert wp.relative_l2_gap(out.values, math.cos(0.2) * ground.values) <= 1e-3


def test_oscillator_excited_state_factor():
    n = 64
    x = np.arange(n) * (16.0 / n) - 8.0
    excited = wp.GridField((x * np.exp(-x * x / 2.0)).astype(complex), (16.0,),
                           origins=(-8.0,))
    t = 0.2
    out, _, _ = wp.harmonic_oscillator(excited, t, tol=1e-4, m_cap=128)
    want = math.cos(math.sqrt(3.0) * t) * excited.values
    assert wp.relative_l2_gap(out.values, want) <= 1e-3


def test_oscillator_romberg_walk_reaches_the_oracle():
    excited = pde._hermite_state(256, excited=True)
    _, report, diag = wp.harmonic_oscillator(excited, 0.2, tol=1e-10)
    assert report.verdict == "converged" and report.m_values[0] == 1
    assert diag["oracle_gap"] <= 1e-12


def test_oscillator_refuses_non_decaying_data():
    ones = wp.GridField(np.ones(64, dtype=complex), (16.0,), origins=(-8.0,))
    with pytest.raises(ValueError, match="near-vanishing"):
        wp.harmonic_oscillator(ones, 0.2)


_ORACLES = {"harmonic_oscillator": "cos_sqrt_sum_oracle", "grushin_demo": "_grushin_oracle"}


@pytest.mark.parametrize("driver, shape", [("harmonic_oscillator", (128,)), ("grushin_demo", (8, 8))])
def test_splitting_drivers_refuse_non_finite_field_before_the_oracle(monkeypatch, driver, shape):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the field was checked")

    monkeypatch.setattr(pde, _ORACLES[driver], oracle)
    field = _bump(shape)
    field.values.flat[40] = math.nan
    with pytest.raises(ValueError, match="field values have non-finite entries"):
        getattr(wp, driver)(field, 0.2)


def test_grushin_constant_in_x2_collapses_to_1d_wave():
    n = 12
    x1 = np.arange(n) * (TWO_PI / n)
    vals = np.repeat(np.exp(-((x1 - math.pi) ** 2))[:, None], n, axis=1)
    f = wp.GridField(vals.astype(complex), (TWO_PI, TWO_PI))
    out, report, diag = wp.grushin_demo(f, 0.2)
    assert diag["b_action_residual"] <= 1e-12
    assert "collapse_gap" in diag
    assert diag["collapse_gap"] <= 1e-8
    assert diag["oracle_gap"] <= 1e-6
    assert report.verdict == "converged"


def test_grushin_random_field_errors_shrink():
    rng = np.random.default_rng(4)
    n = 10
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = wp.GridField(vals, (TWO_PI, TWO_PI))
    _, report, diag = wp.grushin_demo(f, 0.2, tol=1e-10)
    assert diag["oracle_gap"] <= 1e-3
    assert report.errors == sorted(report.errors, reverse=True)


def test_grushin_rejects_oversized_grid():
    big = wp.GridField(np.ones((80, 80), dtype=complex), (TWO_PI, TWO_PI))
    with pytest.raises(ValueError, match="Toeplitz stacks; keep n1\\*n2 <= 4096"):
        wp.grushin_demo(big, 0.2)


def _grushin_dense_pair(field):
    """A = (1/i) d/dx1 (x) I and B = diag(x1) (x) (1/i) d/dx2 as dense N x N matrices."""
    n1, n2 = field.shape
    d1 = wp.spectral_derivative_matrix(n1, field.lengths[0])
    d2 = wp.spectral_derivative_matrix(n2, field.lengths[1])
    x1 = field.axis_coordinates(0).astype(complex)
    return np.kron(d1, np.eye(n2)), np.kron(np.diag(x1), d2)


def _random_grushin_field(n):
    rng = np.random.default_rng(n)
    return wp.GridField(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                        (TWO_PI, TWO_PI), (-math.pi, 0.0))


@pytest.mark.parametrize("n", [7, 8, 16])
def test_fft_factor_actions_equal_the_dense_operators(n):
    field = wp.GridField(np.zeros((n, n)), (TWO_PI, 3.0), (-math.pi, 0.5))
    h = _random_grushin_field(n).values.reshape(-1)
    a_mat, b_mat = _grushin_dense_pair(field)
    x1, k1, k2 = field.axis_coordinates(0), field.wavenumbers(0), field.wavenumbers(1)
    cases = [
        (k1, trotter._AxisDFT((n,), 0), wp.spectral_derivative_matrix(n, TWO_PI), h[:n]),
        (np.repeat(k1, n), trotter._AxisDFT((n, n), 0), a_mat, h),
        (np.outer(x1, k2).reshape(-1), trotter._AxisDFT((n, n), 1), b_mat, h),
        (x1, None, np.diag(x1), h[:n]),
    ]
    for lam, basis, mat, vec in cases:
        action = trotter._back(basis, lam * trotter._to(basis, vec))
        assert np.max(np.abs(action - mat @ vec)) <= 1e-13 * np.max(np.abs(mat @ vec))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_grushin_known_bases_match_the_dense_drive(n):
    field = _random_grushin_field(n)
    out, report, _ = wp.grushin_demo(field, 0.2)
    dense, dense_report = wp.cos_noncomm(_grushin_dense_pair(field), field.values.reshape(-1), 0.2,
                                         tol=1e-8, m_cap=256)
    assert report.m_values == dense_report.m_values and report.column == dense_report.column
    assert np.linalg.norm(out.values.reshape(-1) - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("n, excited", [(64, False), (64, True), (256, False), (256, True)])
def test_oscillator_known_bases_match_the_dense_drive(n, excited):
    field = pde._hermite_state(n, excited)
    out, report, _ = wp.harmonic_oscillator(field, 0.2)
    dense, dense_report = wp.cos_noncomm(pde._oscillator_pair(field), field.values, 0.2, tol=1e-6)
    assert report.m_values == dense_report.m_values and report.column == dense_report.column
    assert np.linalg.norm(out.values - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_grushin_block_oracle_matches_the_dense_oracle(n):
    field = _random_grushin_field(n)
    dense = wp.cos_sqrt_sum_oracle(_grushin_dense_pair(field), 0.3, field.values.reshape(-1))
    assert np.linalg.norm(pde._grushin_oracle(field, 0.3) - dense) <= 1e-13 * np.linalg.norm(dense)


def test_grushin_on_32_squared_reaches_its_oracle():
    box = wp.GridField(np.zeros((32, 32)), (TWO_PI, TWO_PI), (-math.pi, 0.0))
    x1, x2 = box.axis_coordinates(0), box.axis_coordinates(1)
    field = box.like(np.outer(np.exp(np.cos(x1)), 1.0 + 0.5 * np.cos(x2)))
    _, report, diag = wp.grushin_demo(field, 0.2, tol=1e-9)
    assert diag["b_action_residual"] > 0.1  # not the collapse: B acts on the data
    assert report.verdict == "converged"
    assert diag["oracle_gap"] <= 1e-12


def _grushin(field, t, kind):
    assert kind == "cos"  # the splitting series propagates the cosine only
    return wp.grushin_demo(field, t)[0]


def _grushin_reference(field, t):
    return field.like(pde._grushin_oracle(field, t).reshape(field.shape))


def _shifted_reference(shift):
    return lambda field, t: spectral_wave_reference(field, t, shift)


@pytest.mark.parametrize("route, shape, reference, kinds, tol", [
    (wp.wave2d_poisson, (24, 24), spectral_wave_reference, ("cos", "sin"), 1e-13),
    (wp.wave3d_kirchhoff, (12, 12, 12), spectral_wave_reference, ("cos", "sin"), 1e-13),
    (functools.partial(wp.klein_gordon, a=1.0), (24, 24), _shifted_reference(1.0),
     ("cos", "sin"), 1e-13),
    (functools.partial(wp.damped_wave, a=0.5), (24,), _shifted_reference(-0.25), ("cos", "sin"), 1e-13),
    (_grushin, (6, 6), _grushin_reference, ("cos",), 1e-10),  # the splitting walk stops at tol 1e-8
], ids=["wave2d_poisson-shape0-None", "wave3d_kirchhoff-shape1-None", "klein_gordon-shape2-1.0",
        "damped_wave-shape3-0.5", "grushin_demo-shape4-None"])
def test_real_data_stay_real_and_complex_data_stay_complex(route, shape, reference, kinds, tol):
    t = 0.4
    real = _bump(shape)
    wavy = real.like(real.values * np.exp(1j * real.axis_coordinates(0)).reshape((-1,) + (1,) * (len(shape) - 1)))
    for field in (real, wavy):
        outs = {kind: route(field, t, kind=kind) for kind in kinds}
        assert all(np.any(out.values.imag) == (field is wavy) for out in outs.values())
        want = reference(field, t)
        # the spectral references keep real data exactly real; the Grushin oracle's imaginary part is rounding
        assert route is _grushin or np.any(want.values.imag) == (field is wavy)
        assert wp.relative_l2_gap(outs["cos"], want) <= tol
