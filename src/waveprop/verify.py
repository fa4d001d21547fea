"""Named verification suites spanning every route in the package.

Each check builds its own deterministic fixture from the seed, runs one
identity or cross-route comparison, and reports gaps next to pinned
tolerances.  The registry drives both `waveprop verify` and the test
suite's spot checks; names are stable identifiers, and each check names
the formula it exercises by a descriptive slug.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import ascent, pde, quadrature, trotter
from .fields import GridField, _k_squared, gaussian_bump, relative_l2_gap, spectral_wave_reference
from .operators import _hermitian_part, cos_sqrt_sum_oracle, random_hermitian, random_state
from .operators import sinc_sqrt_sum_oracle
from .serialization import fixture_from_json, load_json_file

__all__ = ["list_checks", "run_checks", "run_fixture_check"]

_BOX = 2.0 * math.pi


def _result(name, formula, gaps, tolerances, warnings_list=None, details=None) -> dict:
    """One check's report: its gaps, the tolerances they were held to and whether all held."""
    return {
        "name": name,
        "formula": formula,
        "gaps": gaps,
        "tolerances": tolerances,
        "passed": all(gaps[k] <= tolerances[k] for k in tolerances),
        "warnings": list(warnings_list or []),
        "details": details or {},
    }


def _check_moments(seed: int) -> dict:
    gaps = {}
    worst_fact = 0.0
    for d in (2, 4):
        rule = quadrature.build_ball_rule(d, 14)
        probes = np.asarray(quadrature._even_probe_indices(d, 6))
        est = quadrature._monomial_moments(rule.nodes, rule.weights, probes)
        even = np.all(probes % 2 == 0, axis=1)
        # closed form takes half-exponents: moment of w^(2*beta)
        exact = np.array([quadrature.ball_moment(tuple(beta)) for beta in probes[even] // 2])
        gaps[f"closed_form_rel_d{d}"] = float(np.max(np.abs(est[even] - exact) / exact))
        gaps[f"odd_moment_abs_d{d}"] = float(np.max(np.abs(est[~even])))
        for beta in probes:
            rhs = quadrature.dirichlet_moment_double_factorial(beta)
            worst_fact = max(worst_fact, abs(quadrature.ball_moment(beta) - rhs) / abs(rhs))
    gaps["factorial_form_rel"] = worst_fact
    gaps["duplication_rel"] = max(
        abs(l - r) / abs(r)
        for l, r in (quadrature.gamma_duplication_check(k) for k in range(1, 11))
    )
    tols = {
        "closed_form_rel_d2": 1e-8,
        "closed_form_rel_d4": 1e-8,
        "odd_moment_abs_d2": 1e-12,
        "odd_moment_abs_d4": 1e-12,
        "factorial_form_rel": 1e-12,
        "duplication_rel": 1e-13,
    }
    return _result("moments", "unit-ball-moment-closed-form", gaps, tols)


def _check_sphere_area(seed: int) -> dict:
    closed = {3: 4 * math.pi, 5: 8 * math.pi ** 2 / 3, 7: 16 * math.pi ** 3 / 15, 9: 32 * math.pi ** 4 / 105}
    gaps = {}
    worst = 0.0
    worst_ladder = 0.0
    for n, value in closed.items():
        worst = max(worst, abs(quadrature.sphere_area(n) - value) / value)
        m = (n - 1) // 2
        odd_product = math.prod(range(1, n - 1, 2))
        lhs = odd_product * quadrature.sphere_area(n)
        rhs = 2.0 * (2.0 * math.pi) ** m
        worst_ladder = max(worst_ladder, abs(lhs - rhs) / rhs)
    gaps["closed_form_rel"] = worst
    gaps["ladder_identity_rel"] = worst_ladder
    return _result(
        "sphere-area",
        "sphere-area-closed-form",
        gaps,
        {"closed_form_rel": 1e-12, "ladder_identity_rel": 1e-12},
    )


def _check_rule_symmetry(seed: int) -> dict:
    two = pde.cos_to_exp_rewrite_check((1.0, 1.0), 1.0)
    three = pde.cos_to_exp_rewrite_check((1.0, 0.0, 1.0), 1.0)
    gaps = {
        "pair_gap": two["gap"],
        "pair_imag": two["imaginary_residual"],
        "triple_gap": three["gap"],
        "triple_imag": three["imaginary_residual"],
    }
    tols = {k: 1e-10 for k in gaps}
    return _result("rule-symmetry", "sign-symmetric-rewrite", gaps, tols)


def _check_scalar_ascent(seed: int) -> dict:
    fam2 = ascent.CommutingFamily([np.eye(1), np.eye(1)])
    fam3 = ascent.CommutingFamily([np.eye(1)] * 3)
    gaps = {}
    for t in (0.5, 1.0, 2.0):
        got = ascent.cos_ascent(fam2, t)[0, 0].real
        gaps[f"pair_t{t}"] = abs(got - math.cos(math.sqrt(2.0) * t))
    got3 = ascent.cos_ascent(fam3, 0.5)[0, 0].real
    gaps["triple_t0.5"] = abs(got3 - math.cos(math.sqrt(3.0) * 0.5))
    tols = {k: 1e-6 for k in gaps}
    return _result("scalar-ascent", "scalar-cosine-ladder", gaps, tols)


def _check_matrix_ascent(seed: int) -> dict:
    rng = np.random.default_rng(seed + 61)
    mats = [np.diag(rng.uniform(-1.0, 1.0, 3).astype(complex)) for _ in range(4)]
    fam = ascent.CommutingFamily(mats)
    t = 0.7
    got = ascent.cos_ascent(fam, t)
    oracle = cos_sqrt_sum_oracle(mats, t)
    gap = np.linalg.norm(got - oracle)
    fam5 = ascent.CommutingFamily(mats + [np.zeros((3, 3), dtype=complex)])
    drift = np.linalg.norm(ascent.cos_ascent(fam5, t) - got)
    gaps = {"oracle_frobenius": float(gap), "descent_drift": float(drift)}
    return _result(
        "matrix-ascent",
        "diagonal-family-ladder",
        gaps,
        {"oracle_frobenius": 1e-5, "descent_drift": 1e-8},
    )


def _check_transmutation(seed: int) -> dict:
    b = random_hermitian(6, seed=seed + 17)
    gaps = {}
    for rho in (0.1, 1.0):
        _, _, gap = ascent.transmutation_check(b, rho)
        gaps[f"rho_{rho}"] = float(gap)
    return _result(
        "transmutation",
        "gaussian-cosine-transmutation",
        gaps,
        {k: 1e-8 for k in gaps},
    )


def _check_product_heat(seed: int) -> dict:
    rng = np.random.default_rng(seed + 29)
    fam = ascent.CommutingFamily(
        [np.diag(rng.uniform(-1.0, 1.0, 3).astype(complex)) for _ in range(2)]
    )
    _, _, gap = ascent.product_heat_expansion_check(fam, 0.5)
    return _result(
        "product-heat",
        "product-heat-sphere-average",
        {"frobenius": float(gap)},
        {"frobenius": 1e-10},
    )


def _check_splitting_convergence(seed: int) -> dict:
    rng = np.random.default_rng(seed + 5)
    a = random_hermitian(4, rng=rng, norm=1.0)
    b = random_hermitian(4, rng=rng, norm=1.0)
    h = random_state(4, rng=rng)
    t = 0.3
    reference = cos_sqrt_sum_oracle([a, b], t, h)
    errors = [
        float(np.linalg.norm(trotter.fm_evaluate([a, b], h, t, m) - reference)) for m in (8, 16, 32)
    ]
    slope = np.polyfit(np.log([8.0, 16.0, 32.0]), np.log(errors), 1)[0]
    _, report = trotter.cos_noncomm([a, b], h, t, tol=1e-3, reference=reference)
    gaps = {
        "error_m32": errors[2],
        "monotone_violation": max(
            0.0, max(errors[i + 1] - errors[i] for i in range(len(errors) - 1))
        ),
        "decay_exponent_deficit": max(0.0, 0.9 - (-slope)),
        "tail_bound": float(report.tail_bound),
    }
    tols = {
        "error_m32": 1e-2,
        "monotone_violation": 0.0,
        "decay_exponent_deficit": 0.0,
        "tail_bound": 1e-10,
    }
    details = {"errors": errors, "decay_exponent": float(-slope), "order": report.truncation_order}
    return _result("splitting-convergence", "splitting-series-limit", gaps, tols, details=details)


def _check_series_quadrature(seed: int) -> dict:
    rng = np.random.default_rng(seed + 43)
    a = random_hermitian(3, rng=rng, norm=1.0)
    b = random_hermitian(3, rng=rng, norm=1.0)
    h = random_state(3, rng=rng)
    gap = trotter.fm_quadrature_crosscheck([a, b], h, 0.2, 2)[2]
    _, _, gap_m64, _, _, sine_gap_m64 = trotter.fm_quadrature_crosscheck([a, b], h, 0.2, 64)
    gaps = {"gap": gap, "gap_m64": gap_m64, "sine_gap_m64": sine_gap_m64}
    tols = {"gap": 1e-4, "gap_m64": 1e-11, "sine_gap_m64": 1e-11}
    return _result("series-quadrature", "series-vs-ball-quadrature", gaps, tols)


def _check_taylor_limit(seed: int) -> dict:
    rng = np.random.default_rng(seed + 11)
    a = random_hermitian(4, rng=rng, norm=1.0)
    b = random_hermitian(4, rng=rng, norm=1.0)
    h = random_state(4, rng=rng)
    gaps_by_m = trotter.taylor_limit_check(a, b, 2, h)
    ratio = gaps_by_m[0] / gaps_by_m[3]
    gaps = {
        "m64_vs_m8_over6": max(0.0, gaps_by_m[3] - gaps_by_m[0] / 6.0),
        "ratio_off_by": abs(ratio - 8.0) / 8.0,
    }
    tols = {"m64_vs_m8_over6": 0.0, "ratio_off_by": 0.3}
    return _result(
        "taylor-limit",
        "ladder-coefficient-limit",
        gaps,
        tols,
        details={"gaps": [float(g) for g in gaps_by_m], "ratio": float(ratio)},
    )


def _check_sine_routes(seed: int) -> dict:
    rng = np.random.default_rng(seed + 71)
    mats = [np.diag(rng.uniform(-1.0, 1.0, 3).astype(complex)) for _ in range(3)]
    fam = ascent.CommutingFamily(mats)
    t = 0.6
    got = ascent.sin_ascent(fam, t)
    commuting_gap = float(np.linalg.norm(got - sinc_sqrt_sum_oracle(mats, t)))

    a = random_hermitian(4, rng=rng, norm=1.0)
    b = random_hermitian(4, rng=rng, norm=1.0)
    h = random_state(4, rng=rng)
    m = 64
    dt = 1e-3
    deriv = (
        trotter.sin_fm_evaluate([a, b], h, 0.3 + dt, m)
        - trotter.sin_fm_evaluate([a, b], h, 0.3 - dt, m)
    ) / (2.0 * dt)
    cos_val = trotter.fm_evaluate([a, b], h, 0.3, m)
    derivative_gap = float(np.linalg.norm(deriv - cos_val))
    gaps = {"commuting_vs_sinc": commuting_gap, "noncomm_ddt": derivative_gap}
    return _result(
        "sine-routes",
        "sine-ladder",
        gaps,
        {"commuting_vs_sinc": 1e-5, "noncomm_ddt": 1e-5},
    )


def _bump2(n=64, sigma=0.3, box=_BOX):
    return gaussian_bump((n, n), (box, box), (box / 2, box / 2), sigma)


def _check_wave2d(seed: int) -> dict:
    f = _bump2()
    t = 0.5
    u = pde.wave2d_poisson(f, t)
    ref = spectral_wave_reference(f, t)
    const = GridField(np.ones((32, 32)), (_BOX, _BOX))
    uc = pde.wave2d_poisson(const, 0.7)
    gaps = {
        "reference_l2": relative_l2_gap(u, ref),
        "constant_residual": float(np.abs(uc.values - 1.0).max()),
    }
    return _result(
        "wave-2d",
        "disk-average-time-derivative",
        gaps,
        {"reference_l2": 1e-3, "constant_residual": 1e-10},
    )


def _check_wave3d(seed: int) -> dict:
    f = gaussian_bump((32, 32, 32), (_BOX,) * 3, (_BOX / 2,) * 3, 0.35)
    t = 0.4
    u = pde.wave3d_kirchhoff(f, t)
    ref = spectral_wave_reference(f, t)
    return _result(
        "wave-3d",
        "sphere-average-time-derivative",
        {"reference_l2": relative_l2_gap(u, ref)},
        {"reference_l2": 1e-3},
    )


def _check_ladder_routes(seed: int) -> dict:
    f = _bump2()
    t = 0.5
    tube = GridField(np.repeat(f.values[:, :, None], 8, axis=2), (_BOX,) * 3)
    slab = pde.wave_general(tube, t).values[:, :, 0]
    native = pde.wave_general(f, t)
    f1 = gaussian_bump((128,), (_BOX,), (_BOX / 2,), 0.25)
    one_d = pde.wave_general(f1, 0.8)
    two_point = 0.5 * (
        np.fft.ifft(np.exp(1j * 0.8 * f1.wavenumbers(0)) * f1.fft())
        + np.fft.ifft(np.exp(-1j * 0.8 * f1.wavenumbers(0)) * f1.fft())
    )
    gaps = {
        "descent_3d_to_2d": relative_l2_gap(slab, native.values),
        "dim1_two_point": relative_l2_gap(one_d.values, two_point),
    }
    return _result(
        "ladder-routes",
        "radial-derivative-ladder",
        gaps,
        {"descent_3d_to_2d": 1e-8, "dim1_two_point": 1e-12},
    )


def _check_huygens(seed: int) -> dict:
    # 3-D: a point the front has not reached stays below 1e-8
    sigma = 0.25
    f = gaussian_bump((64, 64, 64), (_BOX,) * 3, (_BOX / 2,) * 3, sigma)
    t = 0.4
    u = pde.wave3d_kirchhoff(f, t)
    dx = _BOX / 64
    offset = int(round(2.4 / dx))
    exterior = abs(u.values[32 + offset, 32, 32])
    # 2-D: after the front passes the center (t beyond the support radius)
    # a tail persists; in 3-D sharp support would leave exactly zero there
    big = 2.0 * _BOX
    f2 = gaussian_bump((128, 128), (big, big), (big / 2, big / 2), sigma)
    u2 = pde.wave2d_poisson(f2, 2.0)
    tail = abs(u2.values[64, 64])
    gaps = {"exterior_residual": float(exterior), "flat_tail_deficit": float(max(0.0, 1e-6 - tail))}
    details = {"two_d_tail": float(tail), "exterior_distance": offset * dx, "t": t}
    return _result(
        "huygens",
        "sharp-support-exterior",
        gaps,
        {"exterior_residual": 1e-8, "flat_tail_deficit": 0.0},
        details=details,
    )


def _check_mass_kernels(seed: int) -> dict:
    f1 = gaussian_bump((256,), (_BOX,), (_BOX / 2,), 0.25)
    t, a = 0.5, 1.0
    u = pde.klein_gordon(f1, t, a)
    ref = spectral_wave_reference(f1, t, shift=a * a)
    collapse = relative_l2_gap(pde.klein_gordon(f1, t, 0.0), pde.wave_general(f1, t))
    bessel_worst = max(
        pde.bessel_kernel_check(at * c)["gap"] for c in (0.3, 1.0) for at in (0.5, 2.0)
    )
    const = GridField(np.ones(64), (_BOX,))
    ud = pde.damped_wave(const, 0.7, 0.8)
    cosh_residual = float(np.abs(ud.values - math.cosh(0.8 * 0.7)).max() / math.cosh(0.8 * 0.7))
    gaps = {
        "kg1_reference_l2": relative_l2_gap(u, ref),
        "a0_collapse": collapse,
        "bessel_identity": float(bessel_worst),
        "cosh_mode_rel": cosh_residual,
    }
    tols = {
        "kg1_reference_l2": 1e-12,
        "a0_collapse": 1e-12,
        "bessel_identity": 1e-8,
        "cosh_mode_rel": 1e-12,
    }
    return _result("mass-kernels", "massless-descent-ladder", gaps, tols)


def _check_oscillator(seed: int) -> dict:
    f = pde._hermite_state(64, excited=False)
    t = 0.2
    a_mat, b_mat = pde._oscillator_pair(f)
    reference = cos_sqrt_sum_oracle([a_mat, b_mat], t, f.values)
    got = trotter.fm_evaluate([a_mat, b_mat], f.values, t, 32)
    gap = float(np.linalg.norm(got - reference) / np.linalg.norm(reference))
    excited = pde._hermite_state(64, excited=True)
    u, _, diag = pde.harmonic_oscillator(excited, t, tol=1e-6)
    factor_gap = float(
        np.linalg.norm(u.values - math.cos(math.sqrt(3.0) * t) * excited.values)
        / np.linalg.norm(excited.values)
    )
    gaps = {"ground_m32": gap, "excited_factor": factor_gap, "excited_oracle": diag["oracle_gap"]}
    tols = {"ground_m32": 1e-3, "excited_factor": 1e-3, "excited_oracle": 1e-3}
    return _result("oscillator", "splitting-series-oscillator", gaps, tols)


def _check_grushin(seed: int) -> dict:
    _, report, diag = pde.grushin_demo(pde._grushin_field(12), 0.2, tol=1e-8)
    gaps = {
        "oracle_gap": diag["oracle_gap"],
        "collapse_gap": diag.get("collapse_gap", float("inf")),
    }
    return _result(
        "grushin",
        "splitting-series-grushin",
        gaps,
        {"oracle_gap": 1e-6, "collapse_gap": 1e-3},
        details={"verdict": report.verdict},
    )


def _check_double_angle(seed: int) -> dict:
    f = _bump2(sigma=0.25)
    t = 0.35
    twice = pde.wave_general(f, 2 * t)
    once = pde.wave_general(f, t)
    again = pde.wave_general(once, t)
    composed = f.like(2.0 * again.values - f.values)
    return _result(
        "double-angle",
        "double-angle-composition",
        {"gap": relative_l2_gap(twice, composed)},
        {"gap": 2e-3},
    )


def _check_energy_time_symmetry(seed: int) -> dict:
    f = _bump2(sigma=0.3)
    t = 0.5
    u = pde.wave_general(f, t)
    us = pde.wave_general(f, t, kind="sin")
    k = np.sqrt(_k_squared(f))
    energy = float(
        np.sum(np.abs(np.fft.fftn(u.values)) ** 2 + np.abs(k * np.fft.fftn(us.values)) ** 2)
    )
    base = float(np.sum(np.abs(f.fft()) ** 2))
    reflected = pde.wave2d_poisson(f, -t)
    forward = pde.wave2d_poisson(f, t)
    gaps = {
        "mode_energy_rel": abs(energy - base) / base,
        "time_reflection": relative_l2_gap(reflected, forward),
    }
    return _result(
        "energy-symmetry",
        "mode-energy-conservation",
        gaps,
        {"mode_energy_rel": 1e-3, "time_reflection": 1e-11},
    )


_REGISTRY = [
    ("moments", "closed-form ball moments vs tensor rules and factorial forms", _check_moments),
    ("sphere-area", "closed-form sphere areas and the odd-dimension ladder identity", _check_sphere_area),
    ("rule-symmetry", "cosine product vs one-sided exponential rewrite", _check_rule_symmetry),
    ("scalar-ascent", "scalar cosine ladder against cos(sqrt(n) t)", _check_scalar_ascent),
    ("matrix-ascent", "diagonal commuting family vs spectral oracle, with zero-append descent", _check_matrix_ascent),
    ("transmutation", "heat semigroup as a Gaussian average of cosines", _check_transmutation),
    ("product-heat", "product of heat factors as a radial sphere average", _check_product_heat),
    ("splitting-convergence", "splitting series error decay in the refinement parameter", _check_splitting_convergence),
    ("series-quadrature", "splitting series vs literal ball-quadrature evaluation", _check_series_quadrature),
    ("taylor-limit", "per-coefficient limit of the splitting series", _check_taylor_limit),
    ("sine-routes", "sine propagator via ladder and splitting routes", _check_sine_routes),
    ("wave-2d", "disk average with rim weight vs spectral reference", _check_wave2d),
    ("wave-3d", "sphere average vs spectral reference", _check_wave3d),
    ("ladder-routes", "general-dimension ladder: 3-D to 2-D descent and 1-D two-point average", _check_ladder_routes),
    ("huygens", "sharp exterior support in 3-D, persistent tail in 2-D", _check_huygens),
    ("mass-kernels", "mass as one more axis: descent, collapse, cosh mode, Bessel identity", _check_mass_kernels),
    ("oscillator", "derivative-plus-position pair vs dense oracle", _check_oscillator),
    ("grushin", "degenerate pair: oracle gap and invariant collapse", _check_grushin),
    ("double-angle", "cos(2t) from two applications of cos(t)", _check_double_angle),
    ("energy-symmetry", "per-mode energy identity and time reflection", _check_energy_time_symmetry),
]


def list_checks() -> list[tuple[str, str]]:
    return [(name, desc) for name, desc, _ in _REGISTRY]


def run_fixture_check(path) -> dict:
    """Transmutation identity on a user-supplied matrix fixture.

    Non-Hermitian input is symmetrized (operators._hermitian_part); the
    warning is surfaced in the result rather than failing the run.
    """
    obj = load_json_file(path)
    decoded = fixture_from_json(obj, where=str(path))
    if decoded["kind"] == "matrix":
        mat = decoded["matrix"]
    elif decoded["kind"] == "hermitian-pair":
        mat = decoded["a"]
    else:
        mat = decoded["matrices"][0]
    captured = []
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        mat, symmetrized = _hermitian_part(mat)
        _, _, gap = ascent.transmutation_check(mat, 0.5)
        captured = [str(w.message) for w in grabbed]
    return _result(
        "fixture",
        "gaussian-cosine-transmutation",
        {"transmutation_gap": float(gap)},
        {"transmutation_gap": 1e-8},
        warnings_list=captured,
        details={"symmetrized": symmetrized},
    )


def run_checks(names=None, seed: int = 0, fixture=None) -> dict:
    """Run the named checks (all by default) and assemble a report."""
    known = {name for name, _, _ in _REGISTRY}
    if names:
        unknown = sorted(set(names) - known)
        if unknown:
            raise KeyError(f"unknown checks: {', '.join(unknown)}")
    selected = [entry for entry in _REGISTRY if not names or entry[0] in names]
    results = []
    for name, _, fn in selected:
        results.append(fn(seed))
    if fixture is not None:
        results.append(run_fixture_check(fixture))
    return {
        "seed": seed,
        "checks": results,
        "passed": all(r["passed"] for r in results),
        "failures": [r["name"] for r in results if not r["passed"]],
    }
