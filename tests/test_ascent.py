"""Tests for commuting-family cosine/sine routes and the derivative ladder."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import waveprop as wp
from waveprop import ascent, quadrature
from waveprop.ascent import (X_MAX, _ascent, _cos_product_average, _family_ascent, _ladder_constants,
                             _ladder_row, _ladder_sum)
from waveprop.operators import _tail_bound


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("route, oracle", [
    (wp.cos_ascent, wp.cos_sqrt_sum_oracle),
    (wp.sin_ascent, wp.sinc_sqrt_sum_oracle),
], ids=["cos", "sin"])
def test_routes_match_spectral_oracles(route, oracle, n):
    # n = 1..5 walks every ladder depth m = 0, 1, 2 on both parities
    fam = _diag_family(n, 3, seed=40 + n)
    for t in (0.45, -0.3):
        got = route(fam, t)
        want = oracle(fam.operators, t)
        assert np.linalg.norm(got - want) <= 1e-10


def test_family_rejects_noncommuting_pair():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="splitting-series"):
        wp.CommutingFamily([sx, sz])


def test_family_and_time_are_validated_at_the_boundary():
    sx = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match="operator 0 has non-finite entries"):
        wp.CommutingFamily([np.diag([np.nan, 2.0]), sx])
    with pytest.raises(ValueError, match=r"operator 1 is not Hermitian: relative defect .* exceeds 1e-12"):
        wp.CommutingFamily([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="square"):
        wp.CommutingFamily([np.ones((2, 3))])
    fam = _diag_family(2, 3, seed=1)
    for route in (wp.cos_ascent, wp.sin_ascent):
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="time t must be finite"):
                route(fam, t)
    for rho in (math.nan, math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="heat time rho must be positive and finite"):
            wp.transmutation_check(sx, rho)
        with pytest.raises(ValueError, match="heat time rho must be positive and finite"):
            wp.product_heat_expansion_check(fam, rho)


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
    fam = _diag_family(6, 3, seed=6)
    t = 0.08
    assert np.linalg.norm(wp.cos_ascent(fam, t) - wp.cos_sqrt_sum_oracle(fam.operators, t)) <= 1e-8
    assert np.linalg.norm(wp.sin_ascent(fam, t) - wp.sinc_sqrt_sum_oracle(fam.operators, t)) <= 1e-8


def test_seven_operator_sphere_route_matches_oracles():
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
    assert list(_ladder_constants(1, 5)[:3]) == [1.0, 3.0, 5.0]
    assert list(_ladder_constants(2, 5)[:3]) == [3.0, 15.0, 35.0]
    assert list(_ladder_constants(3, 5)[:3]) == [15.0, 105.0, 315.0]
    # sine ladder drops the leading 2k+1 factor
    assert [c / (2 * k + 1) for k, c in enumerate(_ladder_constants(3, 5)[:3])] == [15.0, 35.0, 63.0]


def test_d_ladder_matches_symbolic_differentiation():
    # D = d/dt (1/t d/dt)^(m-1) takes t^(2k+2m-1) to L(k, m) t^(2k);
    # without the left-most d/dt it lands on L(k, m) / (2k+1) t^(2k+1)
    t = sympy.Symbol("t")
    for m in (1, 2, 3):
        for k, constant in enumerate(_ladder_constants(m, 5)):
            expr = t ** (2 * k + 2 * m - 1)
            for _ in range(m - 1):
                expr = sympy.diff(expr, t) / t
            assert sympy.simplify(expr - sympy.Rational(constant, 2 * k + 1) * t ** (2 * k + 1)) == 0
            assert sympy.simplify(sympy.diff(expr, t) - constant * t ** (2 * k)) == 0


def test_ladder_row_matches_symbolic_differentiation():
    # D[t^(2m-1) f] = sum_j a_j t^j f^(j) for a generic f; the sine row drops
    # the left-most d/dt and carries a factor t
    t = sympy.Symbol("t")
    f = sympy.Function("f")(t)
    for m in (1, 2, 3, 4):
        expr = t ** (2 * m - 1) * f
        for _ in range(m - 1):
            expr = sympy.diff(expr, t) / t
        for sine, target, scale in ((True, expr, t), (False, sympy.diff(expr, t), 1)):
            row = _ladder_row(m, sine)
            assert all(isinstance(a, int) for a in row)
            jets = sum(a * t ** j * sympy.diff(f, t, j) for j, a in enumerate(row))
            assert sympy.expand(target - scale * jets) == 0
    assert _ladder_row(0, False) == (1,)


def _rotated_family(count, dim, seed):
    """Commuting Hermitian family sharing one random unitary eigenbasis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    mats = [(q * rng.uniform(-1.0, 1.0, size=dim)) @ q.conj().T for _ in range(count)]
    return wp.CommutingFamily([(m + m.conj().T) / 2.0 for m in mats])


def _per_node_average(squares, level, order):
    """The tensor rule's nodes walked one at a time: the plain sum the evaluator factorizes."""
    n, d = len(squares), squares[0].shape[0]
    u, weights = quadrature._dirichlet_tensor(quadrature._dirichlet_sticks(np.full(n, 0.5), level))
    # series[k, j] is the coefficient of t^(2k) of node j's product so far
    series = np.zeros((order + 1, len(weights), d, d), dtype=complex)
    series[0] = np.eye(d)
    for x2, ui in zip(squares, u.T):
        p = [np.eye(d, dtype=complex)]
        for a in range(1, order + 1):
            p.append(-(p[-1] @ x2) / ((2 * a) * (2 * a - 1)))
        series = np.array([sum(series[k - a] @ p[a] * (ui ** a)[:, None, None] for a in range(k + 1))
                           for k in range(order + 1)])
    return np.einsum("j,kjab->kab", weights, series)


@pytest.mark.parametrize("slack", [False, True], ids=["sphere", "ball"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_factorized_average_equals_the_per_node_sum(n, slack):
    # the ball is the sphere with a zero last square on the slack coordinate
    fam = _rotated_family(n, 3, seed=60 + n)
    ordered = [h @ h for h in (wp.random_hermitian(3, seed=70 + n + i) for i in range(n))]
    order = 6 if n <= 5 else 4  # keeps the n = 7 ball reference at 3^7 nodes
    v = np.random.default_rng(n).standard_normal(3) + 1j
    for squares, levels in (([a @ a for a in fam.operators], (order, order + 3)), (ordered, (order,))):
        squares = squares + [np.zeros((3, 3))] * slack
        got, _ = _cos_product_average(squares, order, np.eye(3))
        for level in levels:
            want = _per_node_average(squares, level, order)
            for k in range(order + 1):
                assert np.linalg.norm(got[k] - want[k]) <= 1e-13 * np.linalg.norm(want[k])
        # one state as a one-column block: the cross-check's path
        column, _ = _cos_product_average(squares, order, v[:, None])
        for k in range(order + 1):
            assert np.linalg.norm(column[k, :, 0] - got[k] @ v) <= 1e-14 * np.linalg.norm(got[k] @ v)


@pytest.mark.parametrize("n", [9, 12])
def test_high_dimensional_families_use_the_exact_rule(n):
    # a sphere (n = 9) and a ball (n = 12) family, past the public rules' Monte Carlo cut-over
    fam = _rotated_family(n, 3, seed=n)
    for t in (0.3, -0.5):
        assert np.linalg.norm(wp.cos_ascent(fam, t) - wp.cos_sqrt_sum_oracle(fam.operators, t)) <= 1e-12
        assert np.linalg.norm(wp.sin_ascent(fam, t) - wp.sinc_sqrt_sum_oracle(fam.operators, t)) <= 1e-12
    assert _family_ascent(fam, 0.5, sine=False)[1] <= 1e-12


def test_deep_ladders_are_exact_or_refused(monkeypatch):
    # 300 and 600 operators: ladders of depth 150 and 300, whose constants L(k, m)
    # overflow a float while the ratios L(k, m) / L(0, m) the ascent applies fit
    rng = np.random.default_rng(4)
    for count in (300, 600):
        ops = [np.diag(rng.uniform(-2e-3, 2e-3, size=3)) for _ in range(count)]
        fam = wp.CommutingFamily(ops)
        with pytest.raises(OverflowError):
            float(_ladder_constants(count // 2, 2)[1])
        assert np.linalg.norm(wp.cos_ascent(fam, 1.0) - wp.cos_sqrt_sum_oracle(ops, 1.0)) <= 1e-12
        assert np.linalg.norm(wp.sin_ascent(fam, 1.0) - wp.sinc_sqrt_sum_oracle(ops, 1.0)) <= 1e-12
    # a ratio past the float range is refused by name
    monkeypatch.setattr(ascent, "_ladder_constants", lambda m, count: (1, 10 ** 400, 1)[:count])
    for sine in (False, True):
        with pytest.raises(ValueError, match=r"ladder depth m = n // 2 = 150 is too deep"):
            _ladder_sum(np.ones((3, 1, 1)), 0.2, 150, sine)


def test_norms_are_the_spectral_norms():
    fam = _rotated_family(5, 4, seed=11)
    assert fam.commutator_defect > 0.0  # not diagonal in the standard basis
    for got, a in zip(fam.norms, fam.operators):
        want = np.linalg.norm(a, 2)
        assert abs(got - want) <= 1e-14 * want


def _oracle_gaps(fam, t):
    """Frobenius gaps of cos_ascent and sin_ascent to the spectral oracles at t."""
    cos_gap = np.linalg.norm(wp.cos_ascent(fam, t) - wp.cos_sqrt_sum_oracle(fam.operators, t))
    sin_gap = np.linalg.norm(wp.sin_ascent(fam, t) - wp.sinc_sqrt_sum_oracle(fam.operators, t))
    return cos_gap, sin_gap


@pytest.mark.parametrize("fam, t", [
    # four random diagonals at t = 20: one unhalved series there overflows to NaN
    (wp.CommutingFamily([np.diag(np.random.default_rng(1).uniform(-1.0, 1.0, 8)) for _ in range(4)]), 20.0),
    # one diagonal four times at t = 19: one unhalved series there loses 1e-2 with no warning
    (wp.CommutingFamily([np.diag(np.linspace(-0.95, 0.95, 8))] * 4), 19.0),
], ids=["nan", "linspace"])
def test_long_time_reproducers_are_finite_and_accurate(fam, t):
    cos_gap, sin_gap = _oracle_gaps(fam, t)
    assert cos_gap <= 1e-10 and sin_gap <= 1e-10 * abs(t)


@pytest.mark.parametrize("n, dim", [(2, 8), (3, 16), (4, 64), (5, 32), (6, 64)])
@pytest.mark.parametrize("t", [20.0, -1000.0, 1000.0])
def test_long_times_halve_and_double_back_to_the_oracles(n, dim, t):
    fam = _rotated_family(n, dim, seed=90 + n)
    cos_gap, sin_gap = _oracle_gaps(fam, t)
    assert cos_gap <= 1e-10 and sin_gap <= 1e-10 * abs(t)


@pytest.mark.parametrize("x", [0.8, 3.0])
@pytest.mark.parametrize("sine", [False, True], ids=["cos", "sin"])
def test_ascent_truncation_is_within_the_factorial_tail_bound(sine, x):
    # the ascent at order N is the degree-N Taylor polynomial of cos(t sqrt(S)), so
    # it differs from a deep order by at most the splitting's own factorial tail,
    # below X_MAX (where the family's ascent runs) and above it
    assert 0.8 < X_MAX < 3.0
    fam = _rotated_family(3, 6, seed=5)
    squares = [a @ a for a in fam.operators]
    total = sum(norm * norm for norm in fam.norms)
    t = x / math.sqrt(total)
    deep = _ascent(squares, 40, np.eye(6), t)[sine]
    for order in (2, 3, 4, 5):
        diff = np.linalg.norm(_ascent(squares, order, np.eye(6), t)[sine] - deep, 2)
        assert 0.0 < diff <= _tail_bound(1.0, t * t * total, t, order, sine)


def test_transmutation_heat_from_cosines():
    b = wp.random_hermitian(4, seed=17)
    for rho in (0.1, 1.0):
        _, _, gap = wp.transmutation_check(b, rho)
        assert gap <= 1e-9


def test_product_heat_expansion_identity():
    fam = _diag_family(2, 3, seed=30)
    _, _, gap = wp.product_heat_expansion_check(fam, 0.3)
    assert gap <= 1e-10


def test_product_heat_expansion_refuses_before_any_node_forms(monkeypatch):
    # 64 radial x 7 sphere nodes of 3 x 3 entries for a pair: 4032 entries
    def no_rule(*args):
        raise AssertionError("a refused check must not build its sphere rule")

    fam = _diag_family(2, 3, seed=30)
    monkeypatch.setattr(quadrature, "MIRRORED_NODE_LIMIT", 4032)
    assert wp.product_heat_expansion_check(fam, 0.3)[2] <= 1e-10
    monkeypatch.setattr(quadrature, "MIRRORED_NODE_LIMIT", 4031)
    monkeypatch.setattr(ascent, "_dirichlet_rule", no_rule)
    with pytest.raises(ValueError, match="4032 node-chain entries, above the limit of 4031"):
        wp.product_heat_expansion_check(fam, 0.3)


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
