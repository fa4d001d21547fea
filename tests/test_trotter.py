"""Tests for the splitting-series route: coefficients, convergence, bounds."""

import math

import numpy as np
import pytest

import waveprop as wp
from waveprop import trotter
from waveprop.operators import _eigh, _tail_bound
from waveprop.trotter import _series_scales, _series_sum


@pytest.fixture()
def unit_pair():
    rng = np.random.default_rng(0)
    a = wp.random_hermitian(4, rng=rng, norm=1.0)
    b = wp.random_hermitian(4, rng=rng, norm=1.0)
    h = wp.random_state(4, rng=rng)
    return a, b, h


def _series(ops, h, m, order):
    """W_n h at the one depth m as row n of an (order+1, dim) array: the entries' front end and walk."""
    _, vec, bases = trotter._prepared(ops, h)
    (series,) = trotter._depths(bases, vec, order, [m])
    return series


def test_series_leading_coefficients_are_exact(unit_pair):
    a, b, h = unit_pair
    for m in (1, 4, 16):
        series = _series([a, b], h, m, order=6)
        assert np.allclose(series[0], h, atol=1e-14)
        assert np.allclose(series[1], (a @ a + b @ b) @ h, atol=1e-13)


def test_series_build_validation(unit_pair):
    a, b, h = unit_pair
    with pytest.raises(ValueError, match="splitting depth m must be at least 1, got 0"):
        wp.fm_evaluate([a, b], h, 0.3, 0)
    with pytest.raises(ValueError):
        wp.fm_evaluate([], h, 0.3, 2)


def _dense_series(ops, h, m, order):
    """W_n h from the literal product of truncated dense matrix series."""
    dim = len(h)
    total = [np.eye(dim, dtype=complex)] + [np.zeros((dim, dim), dtype=complex)] * order
    for _ in range(m):
        for op in ops:
            x = op @ op / m
            factor = [np.linalg.matrix_power(x, j) / math.factorial(j) for j in range(order + 1)]
            total = [sum(total[k - j] @ factor[j] for j in range(k + 1)) for k in range(order + 1)]
    return np.array([coeff @ h for coeff in total])


def _grushin_pair(n1=4, n2=4):
    """A = (1/i) d/dx1 and B = x1 (1/i) d/dx2: repeated eigenvalues, large null spaces."""
    x1 = -math.pi + 2.0 * math.pi * np.arange(n1) / n1
    d1 = wp.spectral_derivative_matrix(n1, 2.0 * math.pi)
    d2 = wp.spectral_derivative_matrix(n2, 2.0 * math.pi)
    return np.kron(d1, np.eye(n2)), np.kron(np.diag(x1.astype(complex)), d2)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [0, 1, 6])
def test_series_build_matches_dense_product(q, m, order):
    rng = np.random.default_rng(10 * q + m)
    ops = [wp.random_hermitian(5, rng=rng, norm=1.5) for _ in range(q)]
    h = wp.random_state(5, rng=rng)
    dense = _dense_series(ops, h, m, order)
    built = _series(ops, h, m, order)
    assert np.max(np.abs(built - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("m", [1, 3])
def test_series_build_with_zero_and_degenerate_operators(m):
    a, b = _grushin_pair()
    h = wp.random_state(len(a), seed=4)
    cases = [[a, b], [np.zeros_like(a), b], [a, np.zeros_like(a), b], [np.zeros_like(a)]]
    for ops in cases:
        dense = _dense_series(ops, h, m, 6)
        built = _series(ops, h, m, 6)
        assert np.max(np.abs(built - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_splitting_inputs_are_refused_at_the_boundary(unit_pair):
    a, b, h = unit_pair
    skew = a.copy()
    skew[0, 1] += 1e-6
    splitting = (lambda x, y, v: wp.fm_evaluate([x, y], v, 0.3, 4),
                 lambda x, y, v: wp.cos_noncomm([x, y], v, 0.3, tol=1e-6))
    oracles = (lambda x, y, v: wp.cos_sqrt_sum_oracle([x, y], 0.3, v),
               lambda x, y, v: wp.sinc_sqrt_sum_oracle([x, y], 0.3, v))
    for call in splitting + oracles:
        with pytest.raises(ValueError, match=r"not Hermitian: relative defect .* exceeds 1e-12"):
            call(skew, b, h)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="operator 1 has non-finite entries"):
                call(a, np.where(np.eye(4) > 0, bad, b), h)
        with pytest.raises(ValueError, match="shape"):
            call(a, b[:3, :3], h)
        with pytest.raises(ValueError, match="operator dimension 4"):
            call(a, b, h[:3])
    for call in splitting:  # an oracle given no vector returns the matrix
        with pytest.raises(ValueError, match="does not match operator dimension 4"):
            call(a, b, None)
    for route in (wp.cos_noncomm, wp.sin_noncomm):
        for tol in (math.nan, math.inf, 0.0, -1e-6):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                route([a, b], h, 0.3, tol=tol)
        with pytest.raises(ValueError, match="m_cap must be at least 1, got 0"):
            route([a, b], h, 0.3, tol=1e-6, m_cap=0)


_TIMED_ENTRY_POINTS = {
    "fm_evaluate": lambda a, b, h, t: wp.fm_evaluate([a, b], h, t, 4),
    "sin_fm_evaluate": lambda a, b, h, t: wp.sin_fm_evaluate([a, b], h, t, 4),
    "cos_noncomm": lambda a, b, h, t: wp.cos_noncomm([a, b], h, t, tol=1e-6),
    "sin_noncomm": lambda a, b, h, t: wp.sin_noncomm([a, b], h, t, tol=1e-6),
    "fm_quadrature_crosscheck": lambda a, b, h, t: wp.fm_quadrature_crosscheck([a, b], h, t, 2),
    "cos_sqrt_sum_oracle": lambda a, b, h, t: wp.cos_sqrt_sum_oracle([a, b], t, h),
    "sinc_sqrt_sum_oracle": lambda a, b, h, t: wp.sinc_sqrt_sum_oracle([a, b], t, h),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_TIMED_ENTRY_POINTS))
def test_splitting_routes_refuse_non_finite_time(unit_pair, entry, t):
    a, b, h = unit_pair
    with pytest.raises(ValueError, match=r"time t must be finite, got t = -?(nan|inf)"):
        _TIMED_ENTRY_POINTS[entry](a, b, h, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_TIMED_ENTRY_POINTS))
def test_splitting_routes_refuse_non_finite_vector(unit_pair, entry, bad):
    a, b, h = unit_pair
    with pytest.raises(ValueError, match="vector h has non-finite entries"):
        _TIMED_ENTRY_POINTS[entry](a, b, np.where(np.arange(4) == 2, bad, h), 0.3)


def test_errors_halve_as_m_doubles(unit_pair):
    a, b, h = unit_pair
    t = 0.3
    ref = wp.cos_sqrt_sum_oracle([a, b], t) @ h
    errs = [np.linalg.norm(wp.fm_evaluate([a, b], h, t, m) - ref) for m in (8, 16, 32, 64)]
    for lo, hi in zip(errs[1:], errs):
        assert hi / lo == pytest.approx(2.0, rel=0.1)


def test_fitted_decay_exponent_near_one(unit_pair):
    a, b, h = unit_pair
    t = 0.3
    ref = wp.cos_sqrt_sum_oracle([a, b], t) @ h
    ms = np.array([8, 16, 32, 64, 128])
    errs = np.array([np.linalg.norm(wp.fm_evaluate([a, b], h, t, int(m)) - ref) for m in ms])
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    assert -slope == pytest.approx(1.0, abs=0.05)


def test_tail_bound_covers_truncation_error(unit_pair):
    a, b, h = unit_pair
    t = 0.6  # close enough to the radius that truncation is visible
    amp, y, x, _ = _series_scales([np.linalg.norm(a, 2), np.linalg.norm(b, 2)], h, t)
    assert x < 1.0  # inside the radius
    # the order-3 sum is the prefix of one deep series
    series = _series([a, b], h, 32, 24)
    diff = np.linalg.norm(_series_sum(series[:4], t, False) - _series_sum(series, t, False))
    assert 0.0 < diff <= _tail_bound(amp, y, t, 3)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_series_coefficients_obey_the_norm_majorant(q, seed):
    # ||W_n(m) h|| <= ||h|| (sum ||A_i||^2)^n / n!, the bound behind the factorial tail
    rng = np.random.default_rng(seed)
    ops = [wp.random_hermitian(5, rng=rng, norm=rng.uniform(0.3, 2.0)) for _ in range(q)]
    h = wp.random_state(5, rng=rng)
    s = sum(np.linalg.norm(op, 2) ** 2 for op in ops)
    for m in (1, 2, 5, 16):
        vectors = _series(ops, h, m, order=10)
        for n, w in enumerate(vectors):
            assert np.linalg.norm(w) <= (1.0 + 1e-12) * np.linalg.norm(h) * s ** n / math.factorial(n)


@pytest.mark.parametrize("sine", [False, True], ids=["cos", "sin"])
@pytest.mark.parametrize("t", [0.6, 3.0])
def test_tail_bound_holds_inside_and_outside_the_radius(unit_pair, sine, t):
    a, b, h = unit_pair
    amp, y, _, _ = _series_scales([np.linalg.norm(a, 2), np.linalg.norm(b, 2)], h, t)
    series = _series([a, b], h, 16, 60)
    deep = _series_sum(series, t, sine)
    for order in (2, 4, 8):
        diff = np.linalg.norm(_series_sum(series[: order + 1], t, sine) - deep)
        assert diff <= _tail_bound(amp, y, t, order, sine)


def test_driver_tail_bound_is_positive_outside_the_radius(unit_pair):
    a, b, h = unit_pair
    _, report = wp.cos_noncomm([3.0 * a, 3.0 * b], h, 0.5, tol=1e-4)
    assert report.caution_outside_radius
    assert 0.0 < report.tail_bound <= 1e-12


def test_driver_converges_with_reference(unit_pair):
    a, b, h = unit_pair
    t = 0.3
    ref = wp.cos_sqrt_sum_oracle([a, b], t) @ h
    result, report = wp.cos_noncomm([a, b], h, t, tol=1e-6, reference=ref)
    assert report.verdict == "converged"
    assert not report.caution_outside_radius
    assert report.errors == sorted(report.errors, reverse=True)
    assert np.linalg.norm(result - ref) <= 1e-4
    assert report.tail_bound <= 1e-10


def test_driver_reports_slow_when_cap_hit(unit_pair):
    a, b, h = unit_pair
    _, report = wp.cos_noncomm([a, b], h, 0.3, tol=1e-14, m_cap=4)
    assert report.verdict == "slow"
    assert report.m_values == [1, 2, 4]


def test_driver_flags_time_outside_radius(unit_pair):
    a, b, h = unit_pair
    _, report = wp.cos_noncomm([a, b], h, 2.0, tol=1e-12, m_cap=4)
    assert report.caution_outside_radius
    assert report.verdict == "outside_radius"
    assert report.radius == pytest.approx(1.0 / math.sqrt(2.0))


def test_romberg_extrapolation_improves_result(unit_pair):
    a, b, h = unit_pair
    t = 0.3
    ref = wp.cos_sqrt_sum_oracle([a, b], t) @ h
    plain = wp.fm_evaluate([a, b], h, t, 64)
    romberg, report = wp.cos_noncomm([a, b], h, t, tol=1e-9, m_cap=64)
    assert report.verdict == "converged" and report.m_values[-1] <= 8
    assert np.linalg.norm(romberg - ref) <= np.linalg.norm(plain - ref) / 1e6


@pytest.mark.parametrize("t, depth", [(2.0, 16), (5.0, 64)])
def test_romberg_drive_on_a_wide_unit_pair(monkeypatch, t, depth):
    rng = np.random.default_rng(0)
    a = wp.random_hermitian(64, rng=rng, norm=1.0)
    b = wp.random_hermitian(64, rng=rng, norm=1.0)
    h = wp.random_state(64, rng=rng)
    ref = wp.cos_sqrt_sum_oracle([a, b], t, h)
    calls = _count_sweeps(monkeypatch)
    got, report = wp.cos_noncomm([a, b], h, t, tol=1e-6)
    assert report.verdict == "converged"
    assert len(calls) == report.m_values[-1] <= depth
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(h)


def test_quadrature_crosscheck_small_m():
    rng = np.random.default_rng(3)
    a = wp.random_hermitian(3, rng=rng, norm=1.0)
    b = wp.random_hermitian(3, rng=rng, norm=1.0)
    h = wp.random_state(3, rng=rng)
    for m in (1, 2, 3):
        _, _, gap, *_ = wp.fm_quadrature_crosscheck([a, b], h, 0.2, m)
        assert gap <= 1e-10


def test_quadrature_crosscheck_large_m(unit_pair):
    # the paper's ball quadrature at a deep splitting, on the pair and on a three-operator list
    a, b, h = unit_pair
    c = wp.random_hermitian(4, seed=9, norm=1.0)
    for ops in ([a, b], [a, b, c]):
        series, quad, gap, *_ = wp.fm_quadrature_crosscheck(ops, h, 0.2, 64)
        assert gap <= 1e-12 * np.linalg.norm(series)
    # ladders of depth 160 and 256, whose constants L(k, m) overflow a float
    for m in (160, 256):
        series, quad, gap, *_ = wp.fm_quadrature_crosscheck([a, b], h, 0.2, m)
        assert gap <= 1e-12 * np.linalg.norm(series)
    for m in (0, -1):
        with pytest.raises(ValueError, match="splitting depth m must be at least 1"):
            wp.fm_quadrature_crosscheck([a, b], h, 0.2, m)


def test_quadrature_crosscheck_sine_twin(unit_pair):
    # the ascent's sine, from the same average, against the series sine of the same depth
    a, b, h = unit_pair
    series, quad, gap, sine_series, sine_quad, sine_gap = wp.fm_quadrature_crosscheck([a, b], h, 0.2, 128)
    assert np.array_equal(sine_series, wp.sin_fm_evaluate([a, b], h, 0.2, 128))
    assert sine_gap == float(np.linalg.norm(sine_series - sine_quad))
    assert sine_gap <= 1e-12 * np.linalg.norm(sine_series)
    assert gap <= 1e-12 * np.linalg.norm(series)


def test_taylor_coefficient_gap_halves(unit_pair):
    a, b, h = unit_pair
    gaps = wp.taylor_limit_check(a, b, 2, h)
    for hi, lo in zip(gaps, gaps[1:]):
        assert hi / lo == pytest.approx(2.0, abs=1e-9)
    assert gaps[0] / gaps[-1] == pytest.approx(8.0, abs=1e-8)
    # the check's walk doubles m, so each depth is bit-identical to a fresh build
    s = a @ a + b @ b
    target = s @ (s @ h) / 2.0
    fresh = [float(np.linalg.norm(target - _series([a, b], h, m, 2)[2])) for m in (8, 16, 32, 64)]
    assert gaps == fresh


def test_sine_series_matches_sinc_oracle(unit_pair):
    a, b, h = unit_pair
    t = 0.3
    ref = wp.sinc_sqrt_sum_oracle([a, b], t) @ h
    errs = [
        np.linalg.norm(wp.sin_fm_evaluate([a, b], h, t, m) - ref) for m in (8, 32, 128)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-5


def test_sine_is_time_derivative_antiderivative_of_cosine(unit_pair):
    # d/dt [sin(t sqrt(S))/sqrt(S) h] = cos(t sqrt(S)) h, checked with a
    # central difference on the series route at fixed depth
    a, b, h = unit_pair
    t, dt, m = 0.3, 1e-3, 64
    plus = wp.sin_fm_evaluate([a, b], h, t + dt, m)
    minus = wp.sin_fm_evaluate([a, b], h, t - dt, m)
    cos_val = wp.fm_evaluate([a, b], h, t, m)
    assert np.linalg.norm((plus - minus) / (2.0 * dt) - cos_val) <= 1e-5


def test_sine_driver_converges(unit_pair):
    a, b, h = unit_pair
    t = 0.3
    ref = wp.sinc_sqrt_sum_oracle([a, b], t) @ h
    result, report = wp.sin_noncomm([a, b], h, t, tol=1e-6, reference=ref)
    assert report.verdict == "converged"
    assert np.linalg.norm(result - ref) <= 1e-4


def test_three_operator_family(unit_pair):
    rng = np.random.default_rng(9)
    ops = [wp.random_hermitian(4, rng=rng, norm=1.0) for _ in range(3)]
    h = wp.random_state(4, rng=rng)
    t = 0.2
    ref = wp.cos_sqrt_sum_oracle(ops, t) @ h
    errs = [np.linalg.norm(wp.fm_evaluate(ops, h, t, m) - ref) for m in (16, 64)]
    assert errs[1] <= errs[0] / 3.0
    result, report = wp.cos_noncomm(ops, h, t, tol=1e-7, reference=ref)
    assert report.verdict == "converged"


def test_report_serializes_to_plain_dict(unit_pair):
    a, b, h = unit_pair
    _, report = wp.cos_noncomm([a, b], h, 0.3, tol=1e-6)
    d = report.to_dict()
    assert set(d) == {
        "m_values",
        "errors",
        "column",
        "truncation_order",
        "tail_bound",
        "radius",
        "caution_outside_radius",
        "verdict",
    }
    assert isinstance(d["errors"], list)


def _family(q, seed=0, dim=5):
    rng = np.random.default_rng(seed)
    ops = [wp.random_hermitian(dim, rng=rng, norm=rng.uniform(0.5, 1.5)) for _ in range(q)]
    return ops, wp.random_state(dim, rng=rng)


def _drive(ops, h, t, sine, **kwargs):
    return (wp.sin_noncomm if sine else wp.cos_noncomm)(ops, h, t, **kwargs)


@pytest.mark.parametrize("seed", [1, 3, 8])
@pytest.mark.parametrize("q, sine", [(2, False), (3, False), (2, True)], ids=["cos-q2", "cos-q3", "sin-q2"])
def test_driver_series_at_every_depth_equals_a_fresh_build(monkeypatch, q, sine, seed):
    # each depth continues the one before with an exact power-of-two scale
    ops, h = _family(q, seed=q + seed)
    seen = []
    sum_series = trotter._series_sum

    def recording(series, t, sine):
        seen.append(series)
        return sum_series(series, t, sine)

    monkeypatch.setattr(trotter, "_series_sum", recording)
    _, report = _drive(ops, h, 0.6, sine, tol=1e-15, m_cap=64)
    assert report.verdict != "converged" and report.m_values == [1, 2, 4, 8, 16, 32, 64]
    assert len(seen) == len(report.m_values)
    for m, series in zip(report.m_values, seen):
        assert np.array_equal(series, _series(ops, h, m, report.truncation_order))


def _count_sweeps(monkeypatch) -> list:
    """A list that gains one entry per sweep of the depth walk."""
    calls, sweep = [], trotter._sweep

    def counting(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(trotter, "_sweep", counting)
    return calls


@pytest.mark.parametrize("sine", [False, True], ids=["cos", "sin"])
@pytest.mark.parametrize("m_cap, tol", [(96, 1e-15), (512, 1e-6), (64, 1e-4)])
def test_drive_to_depth_m_runs_m_sweeps(monkeypatch, sine, m_cap, tol):
    ops, h = _family(2)
    calls = _count_sweeps(monkeypatch)
    _, report = _drive(ops, h, 0.3, sine, tol=tol, m_cap=m_cap)
    assert len(report.m_values) >= 2
    assert len(calls) == report.m_values[-1]


def test_one_depth_and_the_limit_check_run_their_last_depth_in_sweeps(monkeypatch, unit_pair):
    a, b, h = unit_pair
    calls = _count_sweeps(monkeypatch)
    wp.fm_evaluate([a, b], h, 0.3, 5)
    assert len(calls) == 5
    wp.taylor_limit_check(a, b, 2, h)
    assert len(calls) == 5 + 64


@pytest.mark.parametrize("q", [2, 3])
def test_walk_with_ratios_off_powers_of_two_matches_fresh_builds(q):
    ops, h = _family(q, seed=7)
    order, depths = 9, (8, 24, 40)
    bases = trotter._eigenbases([_eigh(op) for op in ops])
    walk = trotter._depths(bases, np.asarray(h, dtype=complex), order, depths)
    for m, series in zip(depths, walk):
        fresh = _series(ops, h, m, order)
        assert np.max(np.abs(series - fresh)) <= 1e-13 * np.max(np.abs(fresh))


@pytest.mark.parametrize("sine", [False, True], ids=["cos", "sin"])
def test_romberg_is_the_diagonal_of_the_table_over_the_visited_depths(unit_pair, sine):
    a, b, h = unit_pair
    evaluate = wp.sin_fm_evaluate if sine else wp.fm_evaluate
    result, report = _drive([a, b], h, 0.3, sine, tol=1e-9, m_cap=64)
    assert report.verdict == "converged"
    assert report.column == len(report.m_values) - 1 >= 2
    # the table by hand, from the evaluators, which pick the driver's automatic order
    rows = []
    for m in report.m_values:
        row = [evaluate([a, b], h, 0.3, m)]
        for k, left in enumerate(rows[-1] if rows else [], start=1):
            row.append(row[-1] + (row[-1] - left) / (2 ** k - 1))
        rows.append(row)
    diagonal = [row[-1] for row in rows]
    assert np.array_equal(result, diagonal[-1])
    assert report.errors == [float(np.linalg.norm(hi - lo)) for lo, hi in zip(diagonal, diagonal[1:])]
    assert report.errors[-1] <= 1e-9 * np.linalg.norm(h) < report.errors[-2]
    # plain depths gain 2 a step; column k also removes the 1/m^k term, so step k gains more than 2^(k+1)
    gains = [hi / lo for hi, lo in zip(report.errors, report.errors[1:])]
    assert all(g > 2.0 ** (k + 1) for k, g in enumerate(gains))


def test_driver_errors_without_a_reference_are_one_fewer_than_the_depths(unit_pair):
    a, b, h = unit_pair
    _, report = wp.cos_noncomm([a, b], h, 0.3, tol=1e-6)
    assert report.m_values == [1, 2, 4]
    assert report.column == 2
    assert len(report.errors) == 2  # ||F(m_(i+1)) - F(m_i)|| on the diagonal
    ref = wp.cos_sqrt_sum_oracle([a, b], 0.3) @ h
    _, with_ref = wp.cos_noncomm([a, b], h, 0.3, tol=1e-6, reference=ref)
    assert with_ref.m_values == report.m_values
    assert with_ref.column == report.column
    assert len(with_ref.errors) == 3  # ||F(m_i) - reference||


@pytest.mark.parametrize("sine", [False, True], ids=["cos", "sin"])
def test_drivers_refuse_a_malformed_reference_by_name(unit_pair, sine):
    # a column would broadcast against the value, and NaN gaps would read as converged
    a, b, h = unit_pair
    ref = (wp.sinc_sqrt_sum_oracle if sine else wp.cos_sqrt_sum_oracle)([a, b], 0.3, h)
    for bad in (ref[:, None], ref[:3], np.array(1.0)):
        with pytest.raises(ValueError, match=r"vector reference of shape .* does not match operator dimension 4"):
            _drive([a, b], h, 0.3, sine, tol=1e-6, reference=bad)
    for fill in (np.nan, np.inf):
        with pytest.raises(ValueError, match="vector reference has non-finite entries"):
            _drive([a, b], h, 0.3, sine, tol=1e-6, reference=np.full(4, fill))
    _, report = _drive([a, b], h, 0.3, sine, tol=1e-6, reference=list(ref))
    assert report.verdict == "converged" and report.errors[-1] <= 1e-6
