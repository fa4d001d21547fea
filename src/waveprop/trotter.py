"""Cosine propagators for non-commuting pairs via splitting-limit series.

The vector cos(t sqrt(A^2+B^2)) h is the m -> infinity limit of

    F_m(t) h = sum_n (-1)^n t^(2n) (n!/(2n)!) W_n h,
    W_n h = coefficient of z^n in [e^(z A^2/m) e^(z B^2/m)]^m h,

with W_n built by truncated power-series multiplication, one exponential
factor at a time; the series is an (order+1, N) array whose row n is
W_n h.  Each factor is a function of one operator, so it acts diagonally
in that operator's own eigenbasis V_i: the coefficient vectors move into
the basis of the next factor by the unitary V_i^H V_(i-1), and the
factor is then a Cauchy product with the scalar series
exp(z lambda^2/m), O(order^2 N).  A basis is a dense unitary from
operators._eigh, when the public entries are handed matrices, and the
move between two of those is one precomputed N x N product; or it is
known, as pde's oscillator and Grushin routes know theirs: the unitary
DFT along one axis of a grid (_AxisDFT) or the identity, and the move
is two FFTs or one.  The sum of the squares is never diagonalized.
W_0 h = h and W_1 h = (A^2+B^2) h hold for every m; higher coefficients approach
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

Each row W_n h is a polynomial in 1/m of degree at most n whose constant
term is the limit, so the truncated F_m(t) h is a polynomial in 1/m.
The drivers (cos_noncomm, sin_noncomm) keep Romberg's table on the
doubling walk m_i = 2^i: T[i][0] = F_(m_i) and
T[i][k] = T[i][k-1] + (T[i][k-1] - T[i-1][k-1]) / (2^k - 1), column k
free of the 1/m .. 1/m^k terms (W. Romberg 1955; Blanes, Casas & Ros,
Celest. Mech. Dyn. Astron. 75, 1999).  The walk starts at m = 1: a walk
that ends at depth M costs M sweeps from any start, so a later start
would only drop rows of the table.  They stop when two successive
diagonal entries agree to tol ||h|| and return the last, and the report
names its column.  The evaluators, taylor_limit_check and
fm_quadrature_crosscheck keep the plain F_m.

One depth walk, _depths, is the only sweep loop.  With Q_m(z) the
product of one sweep's factors, e^(z A^2/m) e^(z B^2/m) for a pair,
Q_m(z) = Q_p(z p/m), so the first p sweeps at depth m are the depth-p
series with row n scaled by (p/m)^n: each depth continues the one
before with that scale and m - p more sweeps.  A single depth m costs m
sweeps, and so does a whole drive that ends at depth m.  Every public
walk doubles m (the drivers from 1, taylor_limit_check over 8, 16, 32,
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
be finite.  The entries that take t check it first, the drivers with
tol and m_cap (_checked_walk); then every entry shares one front end,
_prepared: it checks the operators and h and diagonalizes each
operator.  The timed entries (the F_m evaluators, cos_noncomm,
sin_noncomm and fm_quadrature_crosscheck) pick the order
whose relative tail bound is at most the float's rounding unit (_order);
none of them takes an order argument.  harmonic_oscillator and
grushin_demo in pde check their own fields and walk before their oracles
and hand _cos_known_bases factors of known bases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ascent import _ascent
from .operators import _checked_operators, _checked_time, _checked_vector, _eigh, _series_order, _tail_bound

__all__ = [
    "ConvergenceReport",
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

    F(m_values[i]) is Romberg's diagonal entry T[i][i] at depth
    m_values[i], and column is the i of the one returned.  With a
    reference, errors[i] is the gap ||F(m_values[i]) - reference|| and the
    two lists have one length.  Without one, errors[i] is the successive
    difference ||F(m_values[i+1]) - F(m_values[i])||, so errors is one
    shorter than m_values.
    """

    m_values: list[int]
    errors: list[float]
    column: int  # the Romberg column returned: the diagonal entry at the last depth
    truncation_order: int
    tail_bound: float
    radius: float
    caution_outside_radius: bool
    verdict: str  # converged | slow | outside_radius

    def to_dict(self) -> dict:
        return {
            "m_values": list(self.m_values),
            "errors": [float(e) for e in self.errors],
            "column": int(self.column),
            "truncation_order": int(self.truncation_order),
            "tail_bound": float(self.tail_bound),
            "radius": float(self.radius),
            "caution_outside_radius": bool(self.caution_outside_radius),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class _AxisDFT:
    """The eigenbasis V of a multiplier along one axis of a grid: V^H is the unitary DFT along it.

    Coefficients are (prod(shape), ...) arrays, the grid flattened in C
    order with any trailing columns riding along.
    """

    shape: tuple
    axis: int

    def to(self, c: np.ndarray) -> np.ndarray:  # V^H c
        return self._along(np.fft.fft, c)

    def back(self, c: np.ndarray) -> np.ndarray:  # V c
        return self._along(np.fft.ifft, c)

    def _along(self, fft, c):
        grid = c.reshape(self.shape + c.shape[1:])
        return fft(grid, axis=self.axis, norm="ortho").reshape(c.shape)


def _to(basis, c: np.ndarray) -> np.ndarray:
    """V^H c for a basis V: a dense unitary, an _AxisDFT, or None for the identity."""
    if basis is None:
        return c
    if isinstance(basis, np.ndarray):
        return (basis.T @ c.conj()).conj()  # no conjugated copy of V
    return basis.to(c)


def _back(basis, c: np.ndarray) -> np.ndarray:
    """V c for a basis V, as _to takes it."""
    if basis is None:
        return c
    if isinstance(basis, np.ndarray):
        return (c.T @ basis.T).T
    return basis.back(c)


def _move(basis, prev):
    """c -> V^H V_prev c: one precomputed product between two dense bases, else prev's back then this to."""
    if isinstance(basis, np.ndarray) and isinstance(prev, np.ndarray):
        return functools.partial(np.matmul, basis.conj().T @ prev)
    return lambda c: np.ascontiguousarray(_to(basis, _back(prev, c)))


@dataclass(eq=False)
class _Eigenbases:
    """Per-factor eigenvalues and basis moves of one ordered operator family.

    Factors act right to left, A_q first and A_1 last in each sweep, and
    the lists are kept in that order.  moves[i] takes coefficients from
    factor (i-1)'s eigenbasis into factor i's, cyclically, so a sweep
    starts and ends in the eigenbasis `last` of A_1.
    """

    eigenvalues: tuple
    moves: list
    last: object  # a basis, as _to takes it
    norms: list  # ||A_i|| = max |lambda|


def _eigenbases(factors) -> _Eigenbases:
    """The bases of the ordered factors [(eigenvalues of A_1, basis of A_1), ..]."""
    lams, bases = zip(*reversed(factors))
    moves = [_move(basis, prev) for basis, prev in zip(bases, bases[-1:] + bases[:-1])]
    norms = [float(np.max(np.abs(lam), initial=0.0)) for lam in lams]
    return _Eigenbases(lams, moves, bases[-1], norms)


def _toeplitz(lam: np.ndarray, m: int, order: int) -> np.ndarray:
    """T[n, k, l] = (lam_n^2/m)^(k-l) / (k-l)!: exp(z lam_n^2/m) as a Cauchy product."""
    steps = np.ones((len(lam), order + 1))
    steps[:, 1:] = np.multiply.outer(lam * lam / m, 1.0 / np.arange(1, order + 1))
    powers = np.cumprod(steps, axis=1)
    lag = np.subtract.outer(np.arange(order + 1), np.arange(order + 1))
    stack = powers[:, np.maximum(lag, 0)]
    stack *= lag >= 0
    return stack


def _checked_depth(m: int) -> list[int]:
    """The one splitting depth m as a walk [m]; refused unless m >= 1."""
    if m < 1:
        raise ValueError(f"splitting depth m must be at least 1, got {m}")
    return [m]


def _checked_walk(t: float, tol: float, m_cap: int) -> None:
    """Refuse a driver's non-finite t, a tolerance that is not positive and finite, or m_cap < 1."""
    _checked_time(t)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if m_cap < 1:
        raise ValueError(f"m_cap must be at least 1, got {m_cap}")


def _sweep(bases: _Eigenbases, stacks, coeffs: np.ndarray) -> np.ndarray:
    """One pass of the factor pattern over the (dim, order+1) coefficients, in and out of the basis `last`."""
    dim, width = coeffs.shape
    for move, stack in zip(bases.moves, stacks):
        coeffs = move(coeffs)
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
    coeffs[:, 0] = _to(bases.last, vec)
    p = 0
    for m in depths:
        parts = coeffs.view(float)  # a real scale on re and im: exact for 2^-n, signed zeros too
        parts *= np.repeat((p / m) ** np.arange(order + 1), 2)
        stacks = [_toeplitz(lam, m, order) for lam in bases.eigenvalues]
        for _ in range(m - p):
            coeffs = _sweep(bases, stacks, coeffs)
        del stacks  # not held across the yield, nor next to the next depth's stacks
        p = m
        yield _back(bases.last, coeffs).T


def _series_scales(norms, vec: np.ndarray, t: float):
    """||h||, y = t^2 sum ||A_i||^2, the paper's x = sqrt(q)|t| max ||A_i|| and its radius in t."""
    amp = float(np.linalg.norm(vec))
    k = max(norms)
    q = len(norms)
    y = t * t * sum(norm * norm for norm in norms)
    x = math.sqrt(q) * abs(t) * k
    radius = math.inf if k == 0 else 1.0 / (math.sqrt(q) * k)
    return amp, y, x, radius


def _prepared(ops, h):
    """The setup of every entry on matrices: checked inputs and the operators' dense eigenbases.

    Returns (mats, vec, bases), one decomposition per operator for every
    depth.  The entries that take a time check it first.
    """
    mats = _checked_operators(ops)
    vec = _checked_vector(h, len(mats[0]))
    return mats, vec, _eigenbases([_eigh(mat) for mat in mats])


def _order(bases: _Eigenbases, vec: np.ndarray, t: float, sine: bool):
    """The order every series takes (operators._series_order) and the scales (amp, y, x, radius) it comes from."""
    scales = _series_scales(bases.norms, vec, t)
    return _series_order(scales[1], t, sine), scales


def _series_sum(series: np.ndarray, t: float, sine: bool) -> np.ndarray:
    out = np.zeros_like(series[0])
    coeff = t if sine else 1.0
    for n, row in enumerate(series):
        out = out + ((-1) ** n * coeff) * row
        coeff *= t * t / (2.0 * (2 * n + 3)) if sine else t * t / (2.0 * (2 * n + 1))
    return out


def _fm(ops, h, t: float, m: int, sine: bool) -> np.ndarray:
    _checked_time(t)
    _, vec, bases = _prepared(ops, h)
    order, _ = _order(bases, vec, t, sine)
    (series,) = _depths(bases, vec, order, _checked_depth(m))
    return _series_sum(series, t, sine)


def fm_evaluate(ops, h, t: float, m: int) -> np.ndarray:
    """F_m(t) h for the ordered operator family, cosine weights n!/(2n)!."""
    return _fm(ops, h, t, m, sine=False)


def sin_fm_evaluate(ops, h, t: float, m: int) -> np.ndarray:
    """Sine-series analogue with weights n!/(2n+1)!; odd in t."""
    return _fm(ops, h, t, m, sine=True)


def _drive(bases: _Eigenbases, vec, t: float, tol: float, m_cap: int, sine: bool, reference=None):
    """Romberg's walk, as cos_noncomm describes, of the prepared bases and checked vector and walk; (value, report)."""
    order, (amp, y, x, radius) = _order(bases, vec, t, sine)
    ref = None if reference is None else _checked_vector(reference, len(vec), "reference")
    depths = [1]
    while 2 * depths[-1] <= m_cap:
        depths.append(2 * depths[-1])
    # a lazy walk: the depths after convergence are never swept
    values = (_series_sum(series, t, sine) for series in _depths(bases, vec, order, depths))
    m_values, errors, row, verdict = [], [], [], "slow"
    for m, value in zip(depths, values):
        # Romberg row at depth m: column k takes the 1/m^k term out of column k-1
        prev, row = row, [value]
        for k, left in enumerate(prev, start=1):
            row.append(row[-1] + (row[-1] - left) / (2 ** k - 1))
        m_values.append(m)
        if ref is not None:
            errors.append(float(np.linalg.norm(row[-1] - ref)))
        if prev:
            diff = float(np.linalg.norm(row[-1] - prev[-1]))
            if ref is None:
                errors.append(diff)
            if diff <= tol * max(amp, 1e-300):
                verdict = "converged"
                break
    if verdict != "converged" and x >= 1.0:
        verdict = "outside_radius"
    report = ConvergenceReport(
        m_values=m_values,
        errors=errors,
        column=len(row) - 1,
        truncation_order=order,
        tail_bound=_tail_bound(amp, y, t, order, sine),
        radius=radius,
        caution_outside_radius=x >= 1.0,
        verdict=verdict,
    )
    return row[-1], report


def cos_noncomm(ops, h, t: float, tol: float, m_cap: int = 512, reference=None):
    """Drive F_m(t) h for the ordered operator list upward in m, Romberg-extrapolated in 1/m.

    The depths 1, 2, 4, .. up to m_cap share one walk (_depths), so a
    drive that ends at depth M runs M sweeps.  Each depth adds a row to
    Romberg's table, T[i][0] = F_(m_i) and
    T[i][k] = T[i][k-1] + (T[i][k-1] - T[i-1][k-1]) / (2^k - 1); the
    drive halts when two successive diagonal entries T[i][i] differ by at
    most tol * ||h|| and returns the last one.  The report carries the
    visited depths, the Romberg column returned, the errors, the
    truncation order, the tail bound and the convergence verdict.  The
    errors are taken at the diagonal entries: the gaps to the reference
    at each visited depth when one is given, otherwise the successive
    differences ||T[i+1][i+1] - T[i][i]||, one fewer than the depths.
    A reference must be a finite vector of h's length.
    """
    _checked_walk(t, tol, m_cap)
    _, vec, bases = _prepared(ops, h)
    return _drive(bases, vec, t, tol, m_cap, sine=False, reference=reference)


def sin_noncomm(ops, h, t: float, tol: float, m_cap: int = 512, reference=None):
    """Splitting-series smoothed sine propagator applied to h, driven as cos_noncomm."""
    _checked_walk(t, tol, m_cap)
    _, vec, bases = _prepared(ops, h)
    return _drive(bases, vec, t, tol, m_cap, sine=True, reference=reference)


def _cos_known_bases(factors, vec: np.ndarray, t: float, tol: float, m_cap: int, reference=None):
    """cos_noncomm on factors whose eigenbases are known; (value, report).

    factors is the ordered list [(eigenvalues of A_1, basis of A_1), ..]:
    a basis is a dense unitary, an _AxisDFT or None for the identity.  The
    caller checks the walk and the finite vector vec, flattened as the bases take it.
    """
    return _drive(_eigenbases(factors), vec, t, tol, m_cap, sine=False, reference=reference)


def taylor_limit_check(a, b, n: int, h) -> list[float]:
    """Gaps || (A^2+B^2)^n h / n! - W_n h || at the splitting depths 8, 16, 32, 64.

    The depths share one walk, so the last depth sets the number of
    sweeps.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    (amat, bmat), vec, bases = _prepared([a, b], h)
    s = amat @ amat + bmat @ bmat
    target = vec.copy()
    for j in range(1, n + 1):
        target = (s @ target) / j
    walk = _depths(bases, vec, n, (8, 16, 32, 64))
    return [float(np.linalg.norm(target - series[n])) for series in walk]


def fm_quadrature_crosscheck(ops, h, t: float, m: int):
    """Evaluate F_m(t) h and its sine twin twice: series route and literal sphere or ball quadrature.

    The quadrature route is cos_ascent's formula (ascent._ascent) on the
    n = q m squares [A_1^2/m, .., A_q^2/m] repeated m times, run on h as a
    one-column block: the even t-series of the ordered product
    cos(t w_1 A_1/sqrt(m)) cos(t w_2 A_2/sqrt(m)) ... h, averaged over
    S^(n-1) for odd n and over the unit ball of R^n against
    (1-|w|^2)^(-1/2) for even n (S^n with a zero slack square last), on
    the simplex in u = w^2 one stick at a time by the Dirichlet rule whose
    level is the series order, so the rule integrates the truncated series
    exactly; then the derivative ladder of depth n // 2 over (2 (n // 2) - 1)!!,
    the probability average's form of the paper's (2 pi)^(-(n // 2)).  The
    sine drops the ladder's left-most d/dt; its series reads the same W_n h
    rows with the weights n!/(2n+1)!.
    Returns (series, quadrature, gap, sine_series, sine_quadrature, sine_gap).
    """
    _checked_time(t)
    mats, vec, bases = _prepared(ops, h)
    order, _ = _order(bases, vec, t, sine=False)
    (series,) = _depths(bases, vec, order, _checked_depth(m))
    cos_quad, sin_quad, _ = _ascent([mat @ mat / m for mat in mats] * m, order, vec[:, None], t)
    out = []
    for sine, quad in ((False, cos_quad[:, 0]), (True, sin_quad[:, 0])):
        value = _series_sum(series, t, sine)
        out += [value, quad, float(np.linalg.norm(value - quad))]
    return tuple(out)
