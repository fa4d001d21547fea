"""Tests for sphere and weighted-ball quadrature rules and closed-form moments."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln

import waveprop as wp
from waveprop import quadrature
from waveprop import serialization as ser
from waveprop.ascent import _family_ascent
from waveprop.quadrature import TENSOR_DIM_LIMIT, _dirichlet_rule


# Closed-form surface areas of S^{n-1} inside R^n.
SPHERE_AREAS = {
    1: 2.0,
    2: 2.0 * math.pi,
    3: 4.0 * math.pi,
    5: 8.0 * math.pi**2 / 3.0,
    7: 16.0 * math.pi**3 / 15.0,
    9: 32.0 * math.pi**4 / 105.0,
}


def test_sphere_area_closed_forms():
    for n, expected in SPHERE_AREAS.items():
        assert wp.sphere_area(n) == pytest.approx(expected, rel=1e-14)


def test_sphere_area_fits_a_float_wherever_its_value_does():
    # pi^(n/2) alone overflows past n = 1240 and Gamma(n/2) past n = 343; the area is tiny there
    for n in (100, 343, 344, 400, 1000):
        log_area = math.log(2.0) + n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0)
        assert wp.sphere_area(n) == pytest.approx(math.exp(log_area), rel=1e-12)
    assert wp.sphere_area(344) == pytest.approx(5.2e-224, rel=1e-2)
    assert wp.sphere_area(2000) == 0.0
    rule = wp.build_sphere_rule(400, 2, samples=10)
    assert rule.method == "montecarlo"
    assert rule.weights.sum() == pytest.approx(wp.sphere_area(400), rel=1e-14)


def test_sphere_rule_mass_and_even_moments():
    rule = wp.build_sphere_rule(3, 10)
    ones = np.ones(len(rule.weights))
    assert rule.integrate(ones) == pytest.approx(4.0 * math.pi, rel=1e-12)
    x, y, _ = rule.nodes.T
    # spherical averages: <x^2> = 1/3, <x^4> = 1/5, <x^2 y^2> = 1/15
    assert rule.integrate(x**2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert rule.integrate(x**4) == pytest.approx(4.0 * math.pi / 5.0, rel=1e-12)
    assert rule.integrate(x**2 * y**2) == pytest.approx(4.0 * math.pi / 15.0, rel=1e-12)


def test_sphere_rule_odd_moments_vanish():
    rule = wp.build_sphere_rule(3, 8)
    x, y, z = rule.nodes.T
    for vals in (x, x * y**2, x**3 * z, y * z):
        assert abs(rule.integrate(vals)) <= 1e-13


def test_sphere_rule_one_dimension_is_two_point():
    rule = wp.build_sphere_rule(1, 4)
    assert len(rule.weights) == 2
    assert rule.integrate(np.ones(2)) == pytest.approx(2.0)
    assert rule.integrate(rule.nodes[:, 0] ** 2) == pytest.approx(2.0)
    assert abs(rule.integrate(rule.nodes[:, 0])) == 0.0


def test_ball_rule_mass_matches_closed_form():
    # chebyshev weight on the disk integrates to 2*pi
    disk = wp.build_ball_rule(2, 8)
    assert disk.integrate(np.ones(len(disk.weights))) == pytest.approx(
        2.0 * math.pi, rel=1e-12
    )
    # flat weight on the 3-ball integrates to its volume
    ball = wp.build_ball_rule(3, 8, boundary_exponent=0.0)
    assert ball.integrate(np.ones(len(ball.weights))) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-12
    )


def test_ball_rule_matches_closed_form_moments():
    for d in (2, 4):
        rule = wp.build_ball_rule(d, 12)
        for beta in ((1,) + (0,) * (d - 1), (1, 2) + (0,) * (d - 2), (2,) * d):
            vals = np.prod(rule.nodes ** (2 * np.asarray(beta)), axis=1)
            closed = wp.ball_moment(beta)
            assert rule.integrate(vals) == pytest.approx(closed, rel=1e-10)


def test_ball_moment_against_independent_quadrature():
    # moment of x^2 y^4 over the chebyshev-weighted disk, computed in polar
    # coordinates with an adaptive 1-D integrator
    angular, _ = integrate.quad(
        lambda th: math.cos(th) ** 2 * math.sin(th) ** 4, 0.0, 2.0 * math.pi
    )
    radial, _ = integrate.quad(
        lambda r: r**7 / math.sqrt(1.0 - r * r), 0.0, 1.0
    )
    assert wp.ball_moment((1, 2)) == pytest.approx(angular * radial, rel=1e-9)
    # frozen value of the same moment
    assert wp.ball_moment((1, 2)) == pytest.approx(0.179519580205131, rel=1e-12)


def test_ball_rule_odd_moments_vanish():
    rule = wp.build_ball_rule(2, 10)
    x, y = rule.nodes.T
    for vals in (x, x * y**2, x**3 * y):
        assert abs(rule.integrate(vals)) <= 1e-13


def test_dirichlet_double_factorial_form_agrees():
    # the factorial-only rewrite exists in even dimension d = 2m
    for alpha in ((0, 0), (1, 0), (1, 2), (2, 1, 1, 0), (3, 2, 0, 1)):
        gamma_form = wp.ball_moment(alpha)
        df_form = wp.dirichlet_moment_double_factorial(alpha)
        assert df_form == pytest.approx(gamma_form, rel=1e-12)


def test_gamma_duplication_identity():
    for k in range(1, 11):
        lhs, rhs = wp.gamma_duplication_check(k)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_gamma_duplication_rejects_nonpositive():
    with pytest.raises(ValueError):
        wp.gamma_duplication_check(0)


def test_montecarlo_ball_within_three_sigma():
    rule = wp.build_ball_rule(5, 10, method="montecarlo", samples=200_000, seed=0)
    vals = rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2
    closed = wp.ball_moment((1, 1, 0, 0, 0))
    sigma = rule.error_estimate(vals)
    assert sigma > 0.0
    assert abs(rule.integrate(vals) - closed) <= 3.0 * sigma


def test_montecarlo_sphere_within_three_sigma():
    rule = wp.build_sphere_rule(4, 8, method="montecarlo", samples=200_000, seed=0)
    vals = rule.nodes[:, 0] ** 2
    closed = math.pi**2 / 2.0  # area(S^3)/4
    sigma = rule.error_estimate(vals)
    assert abs(rule.integrate(vals) - closed) <= 3.0 * sigma


def test_high_dimension_auto_falls_back_to_montecarlo():
    rule = wp.build_ball_rule(7, 6, samples=50_000, seed=1)
    assert rule.method == "montecarlo"
    assert rule.seed == 1


def test_stable_sum_compensates_cancellation():
    values = np.array([1.0, 1e16, 1.0, -1e16, 1.0])
    assert wp.stable_sum(values) == math.fsum(values)
    block = np.arange(12.0).reshape(3, 4)
    assert np.allclose(wp.stable_sum(block), block.sum(axis=0))


def test_stable_sum_of_no_rows_is_zero_of_the_trailing_shape():
    assert wp.stable_sum(np.zeros(0)) == 0.0
    empty = wp.stable_sum(np.zeros((0, 3)))
    assert empty.shape == (3,) and np.array_equal(empty, np.zeros(3))
    assert wp.stable_sum(np.zeros((0, 2, 2), dtype=complex)).shape == (2, 2)


def test_stable_sum_matches_fsum_on_long_inputs():
    rng = np.random.default_rng(3)
    big = rng.standard_normal(50_000) * 1e10
    cancelling = np.concatenate([big, rng.standard_normal(777), -rng.permutation(big)])
    for values in (np.zeros(0), rng.standard_normal(1), rng.standard_normal(1024),
                   rng.standard_normal(1025), rng.standard_normal(100_003), cancelling):
        exact = math.fsum(values.tolist())
        assert abs(wp.stable_sum(values) - exact) <= 1e-15 * max(abs(exact), 1.0)


def test_rule_csv_export_roundtrips(tmp_path):
    rule = wp.build_ball_rule(2, 6)
    path = tmp_path / "rule.csv"
    with open(path, "w", newline="") as fh:
        ser.rule_to_csv(rule, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "w1,w2,weight"
    assert len(lines) == len(rule.weights) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == rule.nodes[0, 0]
    assert first[2] == rule.weights[0]


def test_rule_construction_validation():
    with pytest.raises(ValueError):
        wp.build_ball_rule(0, 8)
    with pytest.raises(ValueError):
        wp.build_ball_rule(2, -1)
    with pytest.raises(ValueError):
        wp.build_sphere_rule(2, 8, method="nope")
    # n = 9 is past both builders' Monte Carlo cut-over, where samples=0 divided by zero
    for build in (wp.build_ball_rule, wp.build_sphere_rule):
        for n in (2, 9):
            with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
                build(n, 4, samples=0)
    for p in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="boundary exponent must be finite and exceed -1"):
            wp.build_ball_rule(2, 4, boundary_exponent=p)
        with pytest.raises(ValueError, match="boundary exponent must be finite and exceed -1"):
            wp.ball_moment((1, 0), boundary_exponent=p)


def test_moments_refuse_negative_or_fractional_exponents():
    for alpha in ((-1, 2), (0.5, 1)):
        with pytest.raises(ValueError, match="non-negative integers"):
            wp.ball_moment(alpha)


@settings(max_examples=40, deadline=None)
@given(
    beta=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_tensor_rule_integrates_even_monomials_exactly(beta):
    rule = wp.build_ball_rule(2, 10)
    vals = rule.nodes[:, 0] ** (2 * beta[0]) * rule.nodes[:, 1] ** (2 * beta[1])
    closed = wp.ball_moment(beta)
    assert rule.integrate(vals) == pytest.approx(closed, rel=1e-10, abs=1e-13)


# ---------------------------------------------------------------------------
# Dirichlet rules on the simplex: pushforwards of sphere and ball under u = w^2


def _u_moment(nodes, weights, beta):
    return float(weights @ np.prod(nodes ** np.asarray(beta, dtype=float), axis=1))


def _selftest(alphas, level):
    """The simplex rule's self-test error, as _mirrored_rule reads it."""
    return quadrature._stick_rule(tuple(alphas), level, min(level, quadrature.PROBE_DEGREE))[1]


def _bounded(d, level):
    return [a for a in itertools.product(range(level + 1), repeat=d) if sum(a) <= level]


def _dirichlet_mass(alphas):
    """Gamma(alpha_1)...Gamma(alpha_K) / Gamma(sum alpha): the mass the probability rules divide out."""
    return math.exp(gammaln(alphas).sum() - gammaln(sum(alphas)))


def test_dirichlet_sphere_pushforward_moments_are_exact():
    level = 5
    for n in range(1, 8):
        u, weights = _dirichlet_rule([0.5] * n, level)
        mass = _dirichlet_mass([0.5] * n)
        for beta in _bounded(n, level):
            b = np.asarray(beta, dtype=float)
            closed = math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + n / 2.0)) / mass
            got = _u_moment(u, weights, beta)
            assert got == pytest.approx(closed, rel=1e-12)


def test_dirichlet_ball_pushforward_moments_are_exact():
    level = 5
    for p in (-0.5, 0.0):
        for n in range(1, 7):
            u, weights = _dirichlet_rule([0.5] * n + [p + 1.0], level)
            u = u[:, :n]  # drop the slack coordinate 1 - |w|^2
            mass = _dirichlet_mass([0.5] * n + [p + 1.0])
            for beta in _bounded(n, level):
                closed = wp.ball_moment(beta, boundary_exponent=p) / mass
                assert _u_moment(u, weights, beta) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("alphas, level", [([1.5], 4), ([0.5] * 3, 6), ([0.3, 1.2, 2.0, 0.7], 7),
                                           ([0.5] * 7, 12), ([0.5] * 4 + [1.0], 14), ([0.5] * 8, 2)])
def test_every_dirichlet_and_stick_rule_is_a_probability_rule(alphas, level):
    sticks = quadrature._dirichlet_sticks(alphas, level)
    for _, _, wx in sticks:
        assert abs(math.fsum(wx.tolist()) - 1.0) <= 1e-15
    for c in quadrature._stick_moments(sticks, 2):
        assert abs(c[0, 0] - 1.0) <= 1e-15
    for c in quadrature._stick_rule(tuple(alphas), level, min(level, quadrature.PROBE_DEGREE))[0]:
        assert abs(c[0, 0] - 1.0) <= 1e-15
    _, weights = quadrature._dirichlet_tensor(sticks)
    assert abs(math.fsum(weights.tolist()) - 1.0) <= 1e-15
    _, weights = _dirichlet_rule(alphas, level)
    assert abs(math.fsum(weights.tolist()) - 1.0) <= 1e-15


def test_stick_selftest_stays_finite_with_hundreds_of_sticks():
    # 500 unnormalized stick masses would multiply to 0.0, so only probability rules keep this finite
    moments, error = quadrature._stick_rule((0.5,) * 501, 4, 4)
    assert len(moments) == 500
    assert math.isfinite(error) and error <= 1e-11


def test_dirichlet_tensor_rule_shape():
    for alphas, level in (([0.5] * 3, 6), ([0.5] * 5, 8), ([0.3, 1.2, 2.0, 0.7], 7), ([1.5], 4)):
        u, weights = _dirichlet_rule(alphas, level)
        assert len(weights) == (level // 2 + 1) ** (len(alphas) - 1)
        assert np.all(weights > 0.0)
        assert np.all(u >= 0.0)
        assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-15
        assert weights.sum() == pytest.approx(1.0, rel=1e-13)
        assert _selftest(alphas, level) <= 1e-12


def test_dirichlet_switches_to_montecarlo_above_tensor_limit():
    # only the public rules switch to Monte Carlo: the simplex rule stays tensor above TENSOR_DIM_LIMIT
    k = TENSOR_DIM_LIMIT + 2
    alphas = [0.5] * k
    u, weights = _dirichlet_rule(alphas, 2)
    assert len(weights) == 2 ** (k - 1)
    assert np.all(weights > 0.0)
    assert np.all(u >= 0.0)
    assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-15
    assert weights.sum() == pytest.approx(1.0, rel=1e-13)
    assert _selftest(alphas, 2) <= 1e-12


def test_dirichlet_rule_refusals():
    with pytest.raises(ValueError, match="level"):
        _dirichlet_rule([0.5, 0.5], -1)
    for bad in ([0.5, 0.0], [-0.5, 1.0]):
        with pytest.raises(ValueError, match="positive"):
            _dirichlet_rule(bad, 4)


# ---------------------------------------------------------------------------
# public tensor rules: the Dirichlet rule mirrored into every sign pattern


def _no_dirichlet_rule(*args):
    raise AssertionError("a refused rule must not build its simplex rule")


@pytest.mark.parametrize("build, count", [(lambda: wp.build_sphere_rule(7, 14), 8 ** 6 * 2 ** 7),
                                          (lambda: wp.build_ball_rule(6, 14), 8 ** 6 * 2 ** 6)])
def test_public_tensor_rules_refuse_above_the_node_limit(monkeypatch, build, count):
    monkeypatch.setattr(quadrature, "_dirichlet_rule", _no_dirichlet_rule)
    with pytest.raises(ValueError, match=f"{count} mirrored nodes, above the limit of {1 << 22}"):
        build()


def test_node_limit_counts_the_mirrored_nodes_exactly(monkeypatch):
    # build_ball_rule(2, 4): 3 nodes on each of 2 sticks, mirrored into 4 sign patterns
    monkeypatch.setattr(quadrature, "MIRRORED_NODE_LIMIT", 36)
    assert len(wp.build_ball_rule(2, 4).weights) == 36
    monkeypatch.setattr(quadrature, "MIRRORED_NODE_LIMIT", 35)
    with pytest.raises(ValueError, match="36 mirrored nodes, above the limit of 35"):
        wp.build_ball_rule(2, 4)


def _sorted_rows(nodes, weights):
    rows = np.column_stack([nodes, weights])
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("kind, n, p", [("sphere", 3, None), ("sphere", 4, None),
                                        ("ball", 3, -0.5), ("ball", 2, 0.0)])
def test_mirrored_rule_size_sign_symmetry_and_moments(kind, n, p, level):
    if kind == "sphere":
        rule, sticks = wp.build_sphere_rule(n, level), n - 1
        closed = lambda b: 2.0 * math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + n / 2.0))
    else:
        rule, sticks = wp.build_ball_rule(n, level, boundary_exponent=p), n
        closed = lambda b: wp.ball_moment(tuple(b), boundary_exponent=p)
    assert rule.method == "tensor"
    assert len(rule.weights) == (level // 2 + 1) ** sticks * 2 ** n
    reference = _sorted_rows(rule.nodes, rule.weights)
    for i in range(n):
        flipped = rule.nodes.copy()
        flipped[:, i] *= -1.0
        assert np.array_equal(_sorted_rows(flipped, rule.weights), reference)
    probes = np.asarray(_bounded(n, level))
    got = quadrature._monomial_moments(rule.nodes, rule.weights, 2 * probes)
    exact = np.array([closed(b) for b in probes])
    assert np.max(np.abs(got - exact) / exact) <= 1e-12


def test_explicit_tensor_method_above_the_limit_stays_tensor():
    rule = wp.build_sphere_rule(TENSOR_DIM_LIMIT + 2, 2, method="tensor")
    assert rule.method == "tensor"
    assert len(rule.weights) == 2 ** (TENSOR_DIM_LIMIT + 1) * 2 ** (TENSOR_DIM_LIMIT + 2)
    assert rule.moment_error <= 1e-12


# ---------------------------------------------------------------------------
# the batched monomial-moment kernel


def _per_probe_moments(nodes, weights, exponents):
    """Reference: one exactly rounded weighted sum per exponent row."""
    return np.array([math.fsum((weights * np.prod(nodes ** e, axis=1)).tolist())
                     for e in exponents])


def _kernel_gap(nodes, weights, exponents):
    """Gap to the reference: relative where the integrand is positive (all-even
    rows, or nonnegative nodes), absolute elsewhere."""
    exponents = np.asarray(exponents)
    got = quadrature._monomial_moments(nodes, weights, exponents)
    ref = _per_probe_moments(nodes, weights, exponents)
    relative = np.all(exponents % 2 == 0, axis=1) | np.all(nodes >= 0.0)
    return float(np.max(np.abs(got - ref) / np.where(relative, np.abs(ref), 1.0)))


def _arrays(rule):
    return rule.nodes, rule.weights


# each entry builds (nodes, weights)
KERNEL_RULES = {
    "sphere3": lambda: _arrays(wp.build_sphere_rule(3, 8)),
    "ball4": lambda: _arrays(wp.build_ball_rule(4, 8)),
    "flat_ball2": lambda: _arrays(wp.build_ball_rule(2, 14, boundary_exponent=0)),
    "mc_ball7": lambda: _arrays(wp.build_ball_rule(7, 4, samples=20_000)),
    "simplex5": lambda: _dirichlet_rule([0.5] * 5, 8),
}


@pytest.mark.parametrize("name", sorted(KERNEL_RULES))
def test_monomial_moments_match_per_probe_reference(name):
    nodes, weights = KERNEL_RULES[name]()
    d = nodes.shape[1]
    degree = 3 if d > 4 else 6
    exponents = _bounded(d, degree)  # even and odd rows, |e| <= degree
    assert _kernel_gap(nodes, weights, exponents) <= 1e-14


def test_monomial_moments_ragged_chunks_single_probe_and_mass(monkeypatch):
    rule = wp.build_ball_rule(3, 8)
    exponents = _bounded(3, 5)
    # 7 nodes per chunk: the node count is not a multiple of the chunk
    monkeypatch.setattr(quadrature, "_PROBE_BLOCK", 7 * len(exponents))
    assert len(rule.weights) % 7 != 0
    assert _kernel_gap(rule.nodes, rule.weights, exponents) <= 1e-14
    monkeypatch.undo()
    assert _kernel_gap(rule.nodes, rule.weights, [(4, 0, 2)]) <= 1e-14
    mass = quadrature._monomial_moments(rule.nodes, rule.weights, [(0, 0, 0)])
    assert mass.shape == (1,)
    assert mass[0] == pytest.approx(math.fsum(rule.weights.tolist()), rel=1e-15)


def _reference_moment_error(nodes, weights, exponents, exact):
    got = _per_probe_moments(nodes, weights, exponents)
    return float(np.max(np.abs(got - exact) / exact))


def test_tensor_moment_errors_match_per_probe_reference():
    sphere = wp.build_sphere_rule(3, 8)
    probes = np.asarray(quadrature._even_probe_indices(3, 4))
    exact = [2.0 * math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + 1.5)) for b in probes]
    ref = _reference_moment_error(sphere.nodes, sphere.weights, 2 * probes, exact)
    assert abs(sphere.moment_error - ref) <= 1e-14
    for d, p in ((4, -0.5), (2, 0.0)):
        ball = wp.build_ball_rule(d, 8 if d == 4 else 14, boundary_exponent=p)
        probes = np.asarray(quadrature._even_probe_indices(d, 4))
        exact = [wp.ball_moment(tuple(b), boundary_exponent=p) for b in probes]
        ref = _reference_moment_error(ball.nodes, ball.weights, 2 * probes, exact)
        assert abs(ball.moment_error - ref) <= 1e-14
    u, weights = _dirichlet_rule([0.5] * 5, 8)
    probes = np.asarray(quadrature._even_probe_indices(5, 4))
    exact = [math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + 2.5)) / _dirichlet_mass([0.5] * 5) for b in probes]
    ref = _reference_moment_error(u, weights, probes, exact)
    assert abs(_selftest([0.5] * 5, 8) - ref) <= 1e-14


def test_even_probe_indices_match_the_filtered_product_order():
    def filtered(d, level):
        bounded = (a for a in itertools.product(range(level + 1), repeat=d) if sum(a) <= level)
        out = list(itertools.islice(bounded, quadrature.MOMENT_PROBE_CAP))
        corners = [tuple(level if i == j else 0 for i in range(d)) for j in range(d)]
        return out + [c for c in corners if c not in out]

    for d in range(1, 9):
        for level in range(15):
            assert quadrature._even_probe_indices(d, level) == filtered(d, level)


def test_stick_moments_integrate_the_tensor_rule_monomials():
    alphas = np.array([0.3, 1.2, 2.0, 0.7])
    sticks = quadrature._dirichlet_sticks(alphas, 7)
    u, weights = quadrature._dirichlet_tensor(sticks)
    moments = quadrature._stick_moments(sticks, 7)
    for b in _bounded(4, 7):
        tail = np.cumsum(b[::-1])[::-1]
        got = math.prod(c[b[j], tail[j + 1]] for j, c in enumerate(moments))
        assert got == pytest.approx(_u_moment(u, weights, b), rel=1e-13)


# ---------------------------------------------------------------------------
# per-process rule caches


def _clear_rule_caches():
    quadrature._gauss_jacobi_unit.cache_clear()
    quadrature._stick_rule.cache_clear()


def _commuting_family(n):
    rng = np.random.default_rng(n)
    return wp.CommutingFamily([np.diag(rng.uniform(-1.0, 1.0, 3)) for _ in range(n)])


def test_cold_and_warm_rule_caches_give_identical_outputs():
    fam = _commuting_family(3)
    a, b = wp.random_hermitian(4, seed=1, norm=1.0), wp.random_hermitian(4, seed=2, norm=1.0)
    h = wp.random_state(4, seed=3)

    def outputs():
        return [wp.cos_ascent(fam, 0.7), wp.sin_ascent(fam, 0.7), _family_ascent(fam, 0.7, sine=False)[1],
                *wp.fm_quadrature_crosscheck([a, b], h, 0.4, 2), *_dirichlet_rule([0.5, 1.0, 1.5], 9),
                _selftest([0.5, 1.0, 1.5], 9)]

    _clear_rule_caches()
    cold = outputs()
    warm = outputs()
    assert quadrature._stick_rule.cache_info().hits >= 3
    assert quadrature._gauss_jacobi_unit.cache_info().hits > 0
    for got, want in zip(warm, cold):
        assert np.array_equal(got, want)


def test_cached_rule_tables_are_read_only():
    assert quadrature._gauss_jacobi_unit.cache_info().maxsize == quadrature._GAUSS_JACOBI_CACHE
    assert quadrature._stick_rule.cache_info().maxsize == quadrature._STICK_RULE_CACHE
    moments, _ = quadrature._stick_rule((0.5, 0.5, 1.0), 6, 6)
    tables = [*quadrature._gauss_jacobi_unit(4, 0.5, 1.5), *moments]
    for stick in quadrature._dirichlet_sticks([0.5, 0.5, 1.0], 6):
        tables += stick
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0


def test_repeated_ball_rules_reuse_one_stick_table():
    _clear_rule_caches()
    first = wp.build_ball_rule(3, 8)
    assert quadrature._stick_rule.cache_info()[:2] == (0, 1)  # hits, misses
    for hits in (1, 2):
        again = wp.build_ball_rule(3, 8)
        assert quadrature._stick_rule.cache_info()[:2] == (hits, 1)
        assert np.array_equal(again.weights, first.weights)
        assert again.moment_error == first.moment_error


@pytest.mark.parametrize("n", [2, 3])
def test_cos_and_sin_at_one_time_share_one_stick_table(n):
    fam = _commuting_family(n)
    _clear_rule_caches()
    wp.cos_ascent(fam, 0.7)
    assert quadrature._stick_rule.cache_info()[:2] == (0, 1)  # hits, misses
    wp.sin_ascent(fam, 0.7)
    assert quadrature._stick_rule.cache_info()[:2] == (1, 1)
