"""Cosine propagators for non-commuting pairs via splitting-limit series.

The vector cos(t sqrt(A^2+B^2)) h is the m -> infinity limit of

    F_m(t) h = sum_n (-1)^n t^(2n) (n!/(2n)!) W_n h,
    W_n h = coefficient of z^n in [e^(z A^2/m) e^(z B^2/m)]^m h,

with W_n built by truncated power-series multiplication, one exponential
factor at a time; the series is an (order+1, N) array whose row n is
W_n h.  Each factor is a function of one operator, so it acts diagonally
in that operator's own eigenbasis: the coefficient vectors
move into the basis of the next factor by one fixed unitary U_i =
V_i^H V_(i-1), an (order+1) x N x N product, and the factor is then a
Cauchy product with the scalar series exp(z lambda^2/m), O(order^2 N).
Only the single operators are diagonalized, never the sum.  W_0 h = h
and W_1 h = (A^2+B^2) h hold for every m; higher coefficients approach
(A^2+B^2)^n h / n! at rate O(1/m).  The coefficient of z^n in the
product of exponentials is bounded by that of the product of their norm
series, so ||W_n h|| <= ||h|| (||A||^2+||B||^2)^n / n! for every m, and
the tail beyond order N is at most the explicit factorial tail
||h|| sum_(n>N) y^n / (2n)! with y = t^2 (||A||^2+||B||^2) (sine:
||h|| |t| sum_(n>N) y^n / (2n+1)!), for every t.  That tail over ||h||
picks the order, by the rule every series shares
(operators._series_order), and the tail is the reported bound.  The
paper's radius sqrt(2)|t| K < 1, K = max(||A||, ||B||), is still
reported; outside it the depth m may converge slowly, and the driver
flags the caution.

One depth walk, _depths, is the only sweep loop.  With Q_m(z) the
product of one sweep's factors, e^(z A^2/m) e^(z B^2/m) for a pair,
Q_m(z) = Q_p(z p/m), so the first p sweeps at depth m are the depth-p
series with row n scaled by (p/m)^n: each depth continues the one
before with that scale and m - p more sweeps.  A single depth m costs m
sweeps, and so does a whole drive that ends at depth m.  Every public
walk doubles m (the drivers from m0, taylor_limit_check over 8, 16, 32,
64), and a power-of-two scale is exact, so every depth is bit-identical
to a fresh build.

Every entry takes the ordered operator list [A_1, .., A_q] (pattern
A_1^2 .. A_q^2 repeated m times); the smoothed sine series has
coefficients n!/(2n+1)!.  Only taylor_limit_check takes a pair (a, b),
because it checks the paper's pair identity.  Inputs are checked once,
at each public entry point, by the checks the oracles use
(operators._checked_operators, _checked_vector, _checked_time): the
operators must be square, of one shape, finite and Hermitian to
HERMITIAN_RTOL, h must be finite and match their dimension, and t must
be finite.  The timed entries
(the F_m evaluators, the m drivers and fm_quadrature_crosscheck) share
one front end, _prepared: it checks the inputs, diagonalizes each
factor, forms the series scales and picks the order whose relative tail
bound is at most the float's rounding unit; none of them takes an order
argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ascent import _ascent
from .operators import _checked_operators, _checked_time, _checked_vector, _eigh, _series_order, _tail_bound

__all__ = [
    "ConvergenceReport",
    "taylor_series_build",
    "fm_evaluate",
    "sin_fm_evaluate",
    "cos_noncomm",
    "sin_noncomm",
    "taylor_limit_check",
    "fm_quadrature_crosscheck",
]

@dataclass
class ConvergenceReport:
    """Outcome of driving the splitting depth m upward.

    With a reference, errors[i] is the gap ||F(m_values[i]) - reference||
    and the two lists have one length.  Without one, errors[i] is the
    successive difference ||F(m_values[i+1]) - F(m_values[i])||, so errors
    is one shorter than m_values.
    """

    m_values: list[int]
    errors: list[float]
    truncation_order: int
    tail_bound: float
    radius: float
    caution_outside_radius: bool
    verdict: str  # converged | slow | outside_radius

    def to_dict(self) -> dict:
        return {
            "m_values": list(self.m_values),
            "errors": [float(e) for e in self.errors],
            "truncation_order": int(self.truncation_order),
            "tail_bound": float(self.tail_bound),
            "radius": float(self.radius),
            "caution_outside_radius": bool(self.caution_outside_radius),
            "verdict": self.verdict,
        }


@dataclass(eq=False)
class _Eigenbases:
    """Per-factor eigenvalues and basis moves of one ordered operator family.

    Factors act right to left, A_q first and A_1 last in each sweep, and
    the lists are kept in that order.  moves[i] = V_i^H V_(i-1) takes
    coefficients into factor i's eigenbasis, cyclically, so a sweep starts
    and ends in the eigenbasis `last` of A_1.
    """

    eigenvalues: tuple
    moves: list
    last: np.ndarray
    norms: list  # ||A_i|| = max |lambda|


def _eigenbases(mats) -> _Eigenbases:
    lams, vecs = zip(*map(_eigh, reversed(mats)))
    moves = [v.conj().T @ prev for v, prev in zip(vecs, vecs[-1:] + vecs[:-1])]
    norms = [float(np.max(np.abs(lam), initial=0.0)) for lam in lams]
    return _Eigenbases(lams, moves, vecs[-1], norms)


def _toeplitz(lam: np.ndarray, m: int, order: int) -> np.ndarray:
    """T[n, k, l] = (lam_n^2/m)^(k-l) / (k-l)!: exp(z lam_n^2/m) as a Cauchy product."""
    steps = np.ones((len(lam), order + 1))
    steps[:, 1:] = np.multiply.outer(lam * lam / m, 1.0 / np.arange(1, order + 1))
    powers = np.cumprod(steps, axis=1)
    lag = np.subtract.outer(np.arange(order + 1), np.arange(order + 1))
    stack = powers[:, np.maximum(lag, 0)]
    stack *= lag >= 0
    return stack


def _checked_depth(m: int, order: int) -> list[int]:
    """The one splitting depth m as a walk [m]; refused unless m >= 1 and order >= 0."""
    if m < 1:
        raise ValueError(f"splitting depth m must be at least 1, got {m}")
    if order < 0:
        raise ValueError("order must be non-negative")
    return [m]


def _sweep(bases: _Eigenbases, stacks, coeffs: np.ndarray) -> np.ndarray:
    """One pass of the factor pattern over the (dim, order+1) coefficients, in and out of the basis `last`."""
    dim, width = coeffs.shape
    for move, stack in zip(bases.moves, stacks):
        coeffs = move @ coeffs
        # real stack against (re, im) pairs: one batched product, no complex copy
        pairs = stack @ coeffs.view(float).reshape(dim, width, 2)
        coeffs = pairs.reshape(dim, 2 * width).view(complex)
    return coeffs


def _depths(bases: _Eigenbases, vec: np.ndarray, order: int, depths):
    """The splitting series at each depth in turn, each depth continuing the one before.

    From depth p to depth m the coefficient of z^n is scaled by (p/m)^n,
    then m - p sweeps of the depth-m factors follow, so a walk that ends
    at depth M runs M sweeps.  Every public walk doubles m, and a
    power-of-two ratio m/p scales exactly, so each depth is bit-identical
    to a fresh build; other ratios agree with one to rounding.  The state
    starts at p = 0 with coefficients (V^H h, 0, .., 0), so one depth is
    the same code.  The depths must be positive and strictly increasing;
    each yield is the (order+1, dim) array whose row n is W_n h.
    """
    coeffs = np.zeros((len(vec), order + 1), dtype=complex)  # coeffs[:, k]: z^k, basis `last`
    coeffs[:, 0] = (bases.last.T @ vec.conj()).conj()  # V^H h with no conjugated copy of V
    p = 0
    for m in depths:
        parts = coeffs.view(float)  # a real scale on re and im: exact for 2^-n, signed zeros too
        parts *= np.repeat((p / m) ** np.arange(order + 1), 2)
        stacks = [_toeplitz(lam, m, order) for lam in bases.eigenvalues]
        for _ in range(m - p):
            coeffs = _sweep(bases, stacks, coeffs)
        del stacks  # not held across the yield, nor next to the next depth's stacks
        p = m
        yield coeffs.T @ bases.last.T


def taylor_series_build(ops, h, m: int, order: int) -> np.ndarray:
    """W_n h for the pattern (A_1^2 .. A_q^2) repeated m times, as row n of an (order+1, dim) array.

    The product of exponential factors acts on h right factor first; each
    factor exp(z X/m) updates the truncated series by
    v_k <- sum_j (X/m)^j / j! v_(k-j), taken in the eigenbasis of X.
    """
    mats = _checked_operators(ops)
    vec = _checked_vector(h, len(mats[0]))
    (series,) = _depths(_eigenbases(mats), vec, order, _checked_depth(m, order))
    return series


def _series_scales(norms, vec: np.ndarray, t: float):
    """||h||, y = t^2 sum ||A_i||^2, the paper's x = sqrt(q)|t| max ||A_i|| and its radius in t."""
    amp = float(np.linalg.norm(vec))
    k = max(norms)
    q = len(norms)
    y = t * t * sum(norm * norm for norm in norms)
    x = math.sqrt(q) * abs(t) * k
    radius = math.inf if k == 0 else 1.0 / (math.sqrt(q) * k)
    return amp, y, x, radius


def _prepared(ops, h, t: float, sine: bool = False):
    """The setup of every timed entry: checked inputs, eigenbases, series scales, order.

    Returns (mats, vec, bases, order, (amp, y, x, radius)); the order is
    the one every series takes (operators._series_order).
    """
    _checked_time(t)
    mats = _checked_operators(ops)
    vec = _checked_vector(h, len(mats[0]))
    bases = _eigenbases(mats)  # one decomposition per operator for every depth
    scales = _series_scales(bases.norms, vec, t)
    return mats, vec, bases, _series_order(scales[1], t, sine), scales


def _series_sum(series: np.ndarray, t: float, sine: bool) -> np.ndarray:
    out = np.zeros_like(series[0])
    coeff = t if sine else 1.0
    for n, row in enumerate(series):
        out = out + ((-1) ** n * coeff) * row
        coeff *= t * t / (2.0 * (2 * n + 3)) if sine else t * t / (2.0 * (2 * n + 1))
    return out


def _fm(ops, h, t: float, m: int, sine: bool) -> np.ndarray:
    _, vec, bases, order, _ = _prepared(ops, h, t, sine)
    (series,) = _depths(bases, vec, order, _checked_depth(m, order))
    return _series_sum(series, t, sine)


def fm_evaluate(ops, h, t: float, m: int) -> np.ndarray:
    """F_m(t) h for the ordered operator family, cosine weights n!/(2n)!."""
    return _fm(ops, h, t, m, sine=False)


def sin_fm_evaluate(ops, h, t: float, m: int) -> np.ndarray:
    """Sine-series analogue with weights n!/(2n+1)!; odd in t."""
    return _fm(ops, h, t, m, sine=True)


def _drive(ops, h, t: float, tol: float, m0: int, m_cap: int, sine: bool,
           reference=None, richardson: bool = False):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if m0 < 1 or m_cap < m0:
        raise ValueError("need 1 <= m0 <= m_cap")
    _, vec, bases, order, (amp, y, x, radius) = _prepared(ops, h, t, sine=sine)
    ref = None if reference is None else np.asarray(reference, dtype=complex)
    depths = [m0]
    while 2 * depths[-1] <= m_cap:
        depths.append(2 * depths[-1])
    # a lazy walk: the depths after convergence are never swept
    values = (_series_sum(series, t, sine) for series in _depths(bases, vec, order, depths))

    def gap(v):
        return float(np.linalg.norm(v - ref))

    m_values, errors = [m0], []
    prev = next(values)
    if ref is not None:
        errors.append(gap(prev))
    result, verdict = prev, "slow"
    for m, current in zip(depths[1:], values):
        diff = float(np.linalg.norm(current - prev))
        m_values.append(m)
        errors.append(gap(current) if ref is not None else diff)
        result = (2.0 * current - prev) if richardson else current
        if diff <= tol * max(amp, 1e-300):
            verdict = "converged"
            break
        prev = current
    if verdict != "converged" and x >= 1.0:
        verdict = "outside_radius"
    report = ConvergenceReport(
        m_values=m_values,
        errors=errors,
        truncation_order=order,
        tail_bound=_tail_bound(amp, y, t, order, sine),
        radius=radius,
        caution_outside_radius=x >= 1.0,
        verdict=verdict,
    )
    return result, report


def cos_noncomm(ops, h, t: float, tol: float, m0: int = 8, m_cap: int = 512,
                reference=None, richardson: bool = False):
    """Drive F_m(t) h for the ordered operator list upward in m until successive refinements settle.

    Halts when consecutive depths differ by at most tol * ||h||; the
    report carries the visited depths, errors, the truncation order, the
    tail bound, and the convergence verdict.  The errors are the gaps to
    the reference at each visited depth when one is given; otherwise they
    are the successive differences ||F(m_(i+1)) - F(m_i)||, one fewer than
    the depths.  The depths m0, 2 m0, .. share one walk (_depths), so a
    drive that ends at depth M runs M sweeps.
    """
    return _drive(ops, h, t, tol, m0, m_cap, sine=False,
                  reference=reference, richardson=richardson)


def sin_noncomm(ops, h, t: float, tol: float, m0: int = 8, m_cap: int = 512,
                reference=None, richardson: bool = False):
    """Splitting-series smoothed sine propagator applied to h, driven as cos_noncomm."""
    return _drive(ops, h, t, tol, m0, m_cap, sine=True,
                  reference=reference, richardson=richardson)


def taylor_limit_check(a, b, n: int, h) -> list[float]:
    """Gaps || (A^2+B^2)^n h / n! - W_n h || at the splitting depths 8, 16, 32, 64.

    The depths share one walk, so the last depth sets the number of
    sweeps.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    amat, bmat = _checked_operators([a, b])
    vec = _checked_vector(h, len(amat))
    s = amat @ amat + bmat @ bmat
    target = vec.copy()
    for j in range(1, n + 1):
        target = (s @ target) / j
    walk = _depths(_eigenbases([amat, bmat]), vec, n, (8, 16, 32, 64))
    return [float(np.linalg.norm(target - series[n])) for series in walk]


def fm_quadrature_crosscheck(ops, h, t: float, m: int):
    """Evaluate F_m(t) h twice: series route and literal sphere or ball quadrature.

    The quadrature route is cos_ascent's formula (ascent._ascent) on the
    n = q m squares [A_1^2/m, .., A_q^2/m] repeated m times, run on h as a
    one-column block: the even t-series of the ordered product
    cos(t w_1 A_1/sqrt(m)) cos(t w_2 A_2/sqrt(m)) ... h, averaged over
    S^(n-1) for odd n and over the unit ball of R^n against
    (1-|w|^2)^(-1/2) for even n (S^n with a zero slack square last), on
    the simplex in u = w^2 one stick at a time by the Dirichlet rule whose
    level is the series order, so the rule integrates the truncated series
    exactly; then the derivative ladder of depth n // 2 over (2 (n // 2) - 1)!!,
    the probability average's form of the paper's (2 pi)^(-(n // 2)).
    Returns (series, quadrature, gap).
    """
    mats, vec, bases, order, _ = _prepared(ops, h, t)
    (series,) = _depths(bases, vec, order, _checked_depth(m, order))
    series_value = _series_sum(series, t, sine=False)
    quad_value = _ascent([mat @ mat / m for mat in mats] * m, order, vec[:, None], t)[0][:, 0]
    return series_value, quad_value, float(np.linalg.norm(series_value - quad_value))
