"""Tests for commuting-family cosine/sine routes and the derivative ladder."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import waveprop as wp
from waveprop.ascent import _ladder_cos, _ladder_sin


def _scalar_family(*values):
    return wp.CommutingFamily([np.array([[float(v)]]) for v in values])


def _diag_family(count, dim, seed):
    rng = np.random.default_rng(seed)
    return wp.CommutingFamily(
        [np.diag(rng.uniform(-1.0, 1.0, size=dim)) for _ in range(count)]
    )


def test_scalar_pair_matches_closed_form():
    fam = _scalar_family(1.0, 1.0)
    for t in (0.5, 1.0, 2.0):
        got = wp.cos_ascent(fam, t)[0, 0]
        assert got == pytest.approx(math.cos(math.sqrt(2.0) * t), abs=1e-10)


def test_scalar_triple_matches_closed_form():
    fam = _scalar_family(1.0, 1.0, 1.0)
    got = wp.cos_ascent(fam, 0.5)[0, 0]
    assert got == pytest.approx(math.cos(math.sqrt(3.0) / 2.0), abs=1e-10)


def test_single_operator_family_degenerates_to_plain_cosine():
    fam = _scalar_family(1.3)
    got = wp.cos_ascent(fam, 0.9)[0, 0]
    assert got == pytest.approx(math.cos(1.3 * 0.9), abs=1e-12)


def test_parity_entry_points_agree_with_dispatcher():
    even_fam = _scalar_family(0.7, -0.4)
    odd_fam = _scalar_family(0.7, -0.4, 0.2)
    t = 1.1
    assert wp.cos_ascent_even(even_fam, t) == pytest.approx(
        wp.cos_ascent(even_fam, t), abs=1e-14
    )
    assert wp.cos_ascent_odd(odd_fam, t) == pytest.approx(
        wp.cos_ascent(odd_fam, t), abs=1e-14
    )


def test_family_rejects_noncommuting_pair():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="splitting-series"):
        wp.CommutingFamily([sx, sz])


def test_family_records_zero_defect_for_diagonals():
    fam = _diag_family(3, 4, seed=0)
    assert fam.commutator_defect == 0.0
    assert fam.dim == 4


def test_matrix_family_matches_spectral_oracle():
    fam = _diag_family(4, 3, seed=21)
    t = 0.7
    got = wp.cos_ascent(fam, t)
    want = wp.cos_sqrt_sum_oracle(fam.operators, t)
    assert np.linalg.norm(got - want) <= 1e-8


def test_descent_appending_zero_operator_is_consistent():
    fam = _diag_family(4, 3, seed=21)
    padded = wp.CommutingFamily(list(fam.operators) + [np.zeros((3, 3))])
    t = 0.7
    base = wp.cos_ascent(fam, t)
    lifted = wp.cos_ascent(padded, t)
    assert np.linalg.norm(lifted - base) <= 1e-10


def test_sine_route_matches_sinc_oracle():
    fam = _diag_family(3, 4, seed=8)
    t = 0.6
    got = wp.sin_ascent(fam, t)
    want = wp.sinc_sqrt_sum_oracle(fam.operators, t)
    assert np.linalg.norm(got - want) <= 1e-8


def test_six_operator_ball_route_matches_oracles():
    # order 6 at this t: a 4^6-node simplex rule for the 6-ball
    fam = _diag_family(6, 3, seed=6)
    t = 0.08
    assert np.linalg.norm(wp.cos_ascent(fam, t) - wp.cos_sqrt_sum_oracle(fam.operators, t)) <= 1e-8
    assert np.linalg.norm(wp.sin_ascent(fam, t) - wp.sinc_sqrt_sum_oracle(fam.operators, t)) <= 1e-8


def test_seven_operator_sphere_route_matches_oracles():
    # order 6 at this t: a 4^6-node simplex rule for S^6
    fam = _diag_family(7, 3, seed=7)
    t = 0.05
    assert np.linalg.norm(wp.cos_ascent(fam, t) - wp.cos_sqrt_sum_oracle(fam.operators, t)) <= 1e-8
    assert np.linalg.norm(wp.sin_ascent(fam, t) - wp.sinc_sqrt_sum_oracle(fam.operators, t)) <= 1e-8


def test_routes_at_time_zero():
    fam = _diag_family(2, 3, seed=1)
    assert np.allclose(wp.cos_ascent(fam, 0.0), np.eye(3), atol=1e-14)
    assert np.allclose(wp.sin_ascent(fam, 0.0), np.zeros((3, 3)), atol=1e-14)


def test_ladder_coefficients_frozen_values():
    # m=1: 2k+1; m=2: (2k+1)(2k+3); m=3: (2k+1)(2k+3)(2k+5)
    assert [_ladder_cos(k, 1) for k in range(3)] == [1.0, 3.0, 5.0]
    assert [_ladder_cos(k, 2) for k in range(3)] == [3.0, 15.0, 35.0]
    assert [_ladder_cos(k, 3) for k in range(3)] == [15.0, 105.0, 315.0]
    # sine ladder drops the leading 2k+1 factor
    assert [_ladder_sin(k, 3) for k in range(3)] == [15.0, 35.0, 63.0]


def test_d_ladder_matches_symbolic_differentiation():
    # apply d/dt (1/t d/dt)^{m-1} to t^{2m-1} (c0 + c1 t^2 + c2 t^4) with sympy
    coeffs = [0.7, -1.3, 0.25]
    for m in (1, 2, 3):
        t = sympy.Symbol("t")
        expr = t ** (2 * m - 1) * sum(c * t ** (2 * k) for k, c in enumerate(coeffs))
        for _ in range(m - 1):
            expr = sympy.diff(expr, t) / t
        expr = sympy.expand(sympy.diff(expr, t))
        series = wp.OddTimeSeries(
            2 * m - 1, [np.array([[c]]) for c in coeffs], truncation=len(coeffs)
        )
        reduced = wp.d_operator_apply(series, m)
        for t0 in (0.3, 1.7):
            want = float(expr.subs(t, t0))
            got = reduced.evaluate(t0)[0, 0].real
            assert got == pytest.approx(want, rel=1e-12)


def test_even_series_evaluates_even_polynomial():
    series = wp.EvenTimeSeries(
        [np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]])], truncation=3
    )
    t = 1.3
    assert series.evaluate(t)[0, 0].real == pytest.approx(
        2.0 + 3.0 * t**2 + 4.0 * t**4, rel=1e-14
    )


def test_odd_series_evaluates_odd_polynomial():
    series = wp.OddTimeSeries(
        3, [np.array([[2.0]]), np.array([[5.0]])], truncation=2
    )
    t = 0.6
    assert series.evaluate(t)[0, 0].real == pytest.approx(
        t**3 * (2.0 + 5.0 * t**2), rel=1e-14
    )


def test_insufficient_rule_level_raises():
    fam = _scalar_family(1.0, 1.0)
    with pytest.raises(ValueError, match="level"):
        wp.cos_ascent(fam, 6.0, rule_level=2)


def test_transmutation_heat_from_cosines():
    b = wp.random_hermitian(4, seed=17)
    for rho in (0.1, 1.0):
        _, _, gap = wp.transmutation_check(b, rho)
        assert gap <= 1e-9


def test_product_heat_expansion_identity():
    fam = _diag_family(2, 3, seed=30)
    _, _, gap = wp.product_heat_expansion_check(fam, 0.3)
    assert gap <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=3,
    ),
    t=st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
)
def test_scalar_ascent_property(values, t):
    fam = _scalar_family(*values)
    got = wp.cos_ascent(fam, t)[0, 0]
    want = math.cos(t * math.sqrt(sum(v * v for v in values)))
    assert got == pytest.approx(want, abs=1e-8)
