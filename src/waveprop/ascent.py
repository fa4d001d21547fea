"""Cosine and sine propagators for commuting families.

For pairwise commuting Hermitian A_1..A_n the propagator
cos(t sqrt(A_1^2+...+A_n^2)) is one formula in one-dimensional cosines,

    D [ t^(2m-1) E[cos(t w_1 A_1)...cos(t w_n A_n)] ] / (2m-1)!!,

with D = d/dt (1/t d/dt)^(m-1) and E the probability average over the
unit sphere S^(2m) for n = 2m+1 and over the unit ball of R^(2m)
against (1-|w|^2)^(-1/2) for n = 2m, which is S^(2m)'s with a zero last
operator.  It is the paper's (2 pi)^(-m) D [ t^(2m-1) integral over
S^(2m) ] by (2m-1)!! |S^(2m)| = 2 (2 pi)^m.  The product of cosines is
expanded as an even power series in t, so D acts exactly on monomials:
D takes t^(2k+2m-1) to L(k, m) t^(2k), read off _ladder_row (the grid
routes in pde share it), and L(0, m) = (2m-1)!!.

The product is even in every w_i, so the average is taken on the simplex
in u_i = w_i^2, where the sphere measure is a Dirichlet measure.  The
coefficient of t^(2k) is a degree-k polynomial in u, so the series
truncated at order N is integrated exactly by the stick-breaking
Dirichlet Gauss-Jacobi rule whose level is N, the series order itself.
_cos_product_average never forms that rule's tensor nodes: each
monomial's integral is a product of one-dimensional stick moments, so
the sum factorizes one stick at a time (sum factorization), one block
recursion at about n * N^2 / 2 products of X_i^2 with a (d, r) block:
the identity for the operator, one state for the splitting cross-check.

The same formula with the left-most d/dt dropped yields the smoothed
sine propagator sin(t sqrt(S)) / sqrt(S).

The ascent at order N is the degree-N Taylor polynomial of the
propagator, so the splitting's factorial tail bounds its error and one
rule, operators._series_order, picks both orders.  A long time is halved
to tau = t / 2^k, |tau| sqrt(sum ||A_i||^2) <= X_MAX, and doubled back by
C(2 tau) = 2 C^2 - I and S(2 tau) = 2 S C (Serbin & Blalock 1980).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import _checked_operators, _checked_time, _eigh, _series_order
from . import quadrature
from .quadrature import PROBE_DEGREE, _dirichlet_rule, _gauss_jacobi_unit, _gauss_laguerre, _stick_rule, stable_sum

__all__ = [
    "CommutingFamily",
    "cos_ascent",
    "sin_ascent",
    "transmutation_check",
    "product_heat_expansion_check",
]

COMMUTATOR_RTOL = 1e-10
X_MAX = 2.0  # |tau| sqrt(sum ||A_i||^2) at which halving stops; measured against 1 and 4


def _erfc_root(y: float) -> float:
    """z >= 0 with erfc(z) = y, 0 < y < 1, by bisection of math.erfc to adjacent floats."""
    lo, hi = 0.0, 27.0  # erfc(27) underflows a double
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if math.erfc(mid) > y else (lo, mid)
    return hi


# the two-sided Gaussian tail beyond T = 2 sqrt(rho) z is erfc(z); transmutation_check sets it to 1e-11
_TAIL_Z = _erfc_root(1e-11)


@dataclass(eq=False)
class CommutingFamily:
    """Ordered family of pairwise commuting Hermitian operators.

    Members are checked by operators._checked_operators (square, one
    shape, finite, Hermitian), then pairwise for commutation.
    """

    operators: list
    commutator_defect: float = 0.0
    norms: tuple = ()

    def __init__(self, operators):
        mats = _checked_operators(operators)
        stack = np.array(mats)
        norms = np.linalg.norm(stack, axis=(1, 2))
        worst = 0.0
        for i in range(len(mats) - 1):  # one batched product per row, against every later operator
            a, rest, scale = stack[i], stack[i + 1 :], norms[i] * norms[i + 1 :]
            defects = np.linalg.norm(a @ rest - rest @ a, axis=(1, 2))
            worst = max(worst, float(np.divide(defects, scale, out=np.zeros_like(scale), where=scale > 0).max()))
        if worst > COMMUTATOR_RTOL:
            raise ValueError(
                f"family does not commute (relative defect {worst:.3e}); "
                "use the splitting-series route for non-commuting operators"
            )
        self.operators = mats
        self.commutator_defect = worst
        self.norms = tuple(float(np.abs(np.linalg.eigvalsh(a)).max(initial=0.0)) for a in mats)

    def __len__(self) -> int:
        return len(self.operators)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@functools.cache
def _ladder_row(m: int, sine: bool) -> tuple:
    """Integer row a_j with D[t^(2m-1) f] = sum_j a_j t^j f^(j); (1,) when m = 0.

    With sine the left-most d/dt of D is dropped and the sum gains a factor
    t.  Each d/dt takes c t^p f^(j) to c (p t^(p-1) f^(j) + t^p f^(j+1)).
    """
    row, power = [1], 2 * m - 1  # sum_j row[j] t^(power+j) f^(j)
    for step in range(m - sine):
        row = [(power + j) * c + (row[j - 1] if j else 0) for j, c in enumerate(row)] + [row[-1]]
        power -= 1 if step == m - 1 else 2  # every d/dt but the last is followed by 1/t
    return tuple(row)


@functools.cache
def _ladder_constants(m: int, count: int) -> tuple:
    """The exact integers L(k, m) for k < count, computed once per (m, count).

    D maps t^(2k+2m-1) to L(k, m) t^(2k): the row on f = t^(2k).
    """
    row = _ladder_row(m, False)
    return tuple(sum(a * math.perm(2 * k, j) for j, a in enumerate(row)) for k in range(count))


def _ladder_sum(coeffs, t: float, m: int, sine: bool) -> np.ndarray:
    """sum_k c_k L(k, m, sine) / L(0, m) t^(2k+sine): D on t^(2m-1) times the bracket, over (2m-1)!!.

    coeffs[k] is the coefficient of t^(2k) in the bracket.  With sine
    False, L = L(k, m) of _ladder_constants and D = d/dt (1/t d/dt)^(m-1)
    lands on t^(2k); with sine True the left-most d/dt is dropped,
    L = L(k, m) / (2k+1) and the power is t^(2k+1).  Each ratio of exact
    integers is rounded once.  A ladder whose ratios overflow a float is
    refused: at m = 1000 they fit up to order 305.
    """
    constants = _ladder_constants(m, len(coeffs))
    try:
        ladder = np.array([c / constants[0] for c in constants])
    except OverflowError:
        raise ValueError(f"ladder depth m = n // 2 = {m} is too deep: its ratios overflow a float") from None
    k = np.arange(len(coeffs))
    if sine:
        ladder /= 2 * k + 1
    return np.tensordot(float(t) ** (2 * k + sine), coeffs * ladder[:, None, None], axes=1)


def _cos_product_average(squares, order: int, block):
    """Average of the even t-series of cos(t w_1 X_1)...cos(t w_n X_n) block, and the rule's moment error.

    squares[i] = X_i^2; the product keeps its factor order, so the X_i
    need not commute; block is (d, r): the identity, or a state as one
    column.  The probability average is over S^(n-1) (a zero last square
    makes it the ball average in R^(n-1)), taken on the simplex in
    u_i = w_i^2 with the stick-breaking Dirichlet rule of level order,
    exact for the degree-order coefficients.  The coefficient of t^(2k) is sum over
    a_1+...+a_n = k of E[u^a] P_1[a_1]...P_n[a_n] block,
    P_i[a] = (-1)^a X_i^(2a)/(2a)!, and E[u^a] is a product of per-stick
    moments c_i[a_i, a_(i+1)+...+a_n], so the sum factorizes one stick at
    a time, from the last to the first:

        G_n[b] = P_n[b] block,   G_i[k] = sum_(a+b=k) c_i[a, b] P_i[a] G_(i+1)[b],

    with P_i[a] G[b] = X_i^2 P_i[a-1] G[b] / (-(2a)(2a-1)), one product
    by X_i^2 for every b <= order-a at once.  Returns the (order+1, d, r)
    coefficients and the rule's moment error, which with the stick
    moments comes from quadrature._stick_rule, built once per (n, order, top).
    """
    n, (d, r) = len(squares), block.shape
    moments, moment_error = _stick_rule((0.5,) * n, order, max(order, PROBE_DEGREE))
    step = [0.0] + [-1.0 / ((2 * a) * (2 * a - 1)) for a in range(1, order + 1)]
    # g[:, b] is G[b]; the last factor fills the remaining stick, and a
    # zero last square (the ball's slack) leaves G[b >= 1] at zero
    g = np.zeros((d, order + 1, r), dtype=complex)
    g[:, 0] = block
    if squares[-1].any():
        for b in range(1, order + 1):
            g[:, b] = (squares[-1] @ g[:, b - 1]) * step[b]
    for i in reversed(range(n - 1)):
        new, pg = np.zeros_like(g), g  # pg[:, b] = P_i[a] G[b], b <= order-a
        for a in range(order + 1):
            tail = order + 1 - a
            if a:
                pg = (squares[i] @ pg[:, :tail].reshape(d, -1)).reshape(d, tail, r) * step[a]
            new[:, a:] += pg * moments[i][a, :tail, None]
        g = new
    return g.transpose(1, 0, 2), moment_error


def _ascent(squares, order: int, block, t: float):
    """D[t^(2m-1) E[cosine product]] block / (2m-1)!!, its sine, and the moment error.

    m = n // 2; the sine drops the left-most d/dt of D, and both read the
    one average: n = 2m+1 squares over S^(2m), n = 2m over the ball, which
    is S^(2m) with a zero slack square appended.
    """
    n = len(squares)
    slack = [np.zeros_like(squares[0])] * (1 - n % 2)
    coeffs, moment_error = _cos_product_average(list(squares) + slack, order, block)
    return _ladder_sum(coeffs, t, n // 2, False), _ladder_sum(coeffs, t, n // 2, True), moment_error


def _family_ascent(fam: CommutingFamily, t: float, sine: bool):
    """The family's cosine (or sine) propagator at t, halved and doubled back, and the moment error.

    One average at tau yields both series, so its order bounds both tails.
    """
    _checked_time(t)
    root = math.sqrt(sum(norm * norm for norm in fam.norms))
    x = abs(t) * root
    k = math.frexp(x / X_MAX)[1] if x > X_MAX else 0  # x / 2^k < X_MAX
    tau = math.ldexp(t, -k)
    order = max(_series_order((tau * root) ** 2, tau, s) for s in (False, True))
    eye = np.eye(fam.dim)
    cos, sin, moment_error = _ascent([a @ a for a in fam.operators], order, eye, tau)
    for _ in range(k):
        if sine:
            sin = 2.0 * sin @ cos
        cos = 2.0 * cos @ cos - eye
    return (sin if sine else cos), moment_error


def cos_ascent(fam: CommutingFamily, t: float) -> np.ndarray:
    """cos(t sqrt(sum A_i^2)) for a commuting family.

    Realizes D [ t^(2m-1) E[cosine product] ] / (2m-1)!!, the ball
    average for n = 2m and the sphere average for n = 2m+1,
    with the integrand expanded as an even series in t to the order N
    whose factorial tails, cosine and sine, are at most the float's
    rounding unit, and averaged by the Dirichlet rule of level N, which
    integrates every kept term exactly.  A long time is halved first and
    doubled back.  n = 1 degenerates to the plain two-point average, which
    reproduces cos(t A) exactly.
    """
    return _family_ascent(fam, t, sine=False)[0]


def sin_ascent(fam: CommutingFamily, t: float) -> np.ndarray:
    """sin(t sqrt(sum A_i^2)) / sqrt(sum A_i^2) for a commuting family.

    The cosine formula with the left-most d/dt of the ladder dropped; the
    coefficient of t^(2k) gains 1/(2k+1) relative to the cosine ladder and
    the result is odd in t.  The order and the halving are those of
    cos_ascent, and S(2 tau) = 2 S C doubles back.  At sum A_i^2 = 0 the
    value is t times the identity, matching the spectral convention.
    """
    return _family_ascent(fam, t, sine=True)[0]


# ---------------------------------------------------------------------------
# heat-kernel identities used to certify the transmutation step


def transmutation_check(b, rho: float):
    """Compare exp(-rho B^2) with its cosine-transform representation.

    rhs = (4 pi rho)^(-1/2) integral e^(-t^2/(4 rho)) cos(B t) dt over
    [-T, T], with T chosen so the discarded Gaussian tail is below 1e-10.
    Returns (lhs, rhs, gap) with gap in the Frobenius norm.  b is refused
    as the oracles refuse an operator: it must be square, finite and Hermitian.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"heat time rho must be positive and finite, got {rho}")
    (mat,) = _checked_operators([b])
    lam, vecs = _eigh(mat)
    lhs = (vecs * np.exp(-rho * np.clip(lam * lam, 0.0, None))) @ vecs.conj().T
    norm_b = float(max(abs(lam[0]), abs(lam[-1]))) if mat.size else 0.0
    horizon = 2.0 * math.sqrt(rho) * _TAIL_Z
    count = max(96, int(1.5 * horizon * max(1.0, norm_b)) + 48)
    x, one_minus_x, w = _gauss_jacobi_unit(count, 1.0, 1.0)  # Gauss-Legendre on [0, 1], cached per count
    ts = horizon * (x - one_minus_x)
    gauss = (4.0 * math.pi * rho) ** (-0.5) * np.exp(-ts * ts / (4.0 * rho)) * (2.0 * horizon * w)
    cos_t_lam = np.cos(np.outer(ts, lam))  # (count, d)
    diag = stable_sum(gauss[:, None] * cos_t_lam)
    rhs = (vecs * diag) @ vecs.conj().T
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))


def product_heat_expansion_check(fam: CommutingFamily, rho: float):
    """Product of heat factors against its radial cosine representation.

    prod_i exp(-rho A_i^2) = (4 pi rho)^(-n/2) int_0^inf t^(n-1)
    e^(-t^2/(4 rho)) [integral over S^(n-1) of prod_i cos(t w_i A_i)] dt.
    With u = t^2/(4 rho) the radial measure is Gamma(n/2), averaged by the
    64-node generalized Gauss-Laguerre probability rule, and the sphere's
    probability average is taken by the level-12 Dirichlet rule, so no
    prefactor is left.  More than quadrature.MIRRORED_NODE_LIMIT
    node-chain entries are refused before any node forms.  Returns (lhs, rhs, gap).
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"heat time rho must be positive and finite, got {rho}")
    mats, d = fam.operators, fam.dim
    n = len(mats)
    radial, level, limit = 64, 12, quadrature.MIRRORED_NODE_LIMIT
    entries = radial * (level // 2 + 1) ** (n - 1) * d * d
    if entries > limit:
        raise ValueError(f"product heat check would form {entries} node-chain entries, above the limit of {limit}")
    lhs = np.eye(d, dtype=complex)
    lams, vecs = zip(*map(_eigh, mats))
    for lam, v in zip(lams, vecs):
        lhs = lhs @ ((v * np.exp(-rho * np.clip(lam * lam, 0.0, None))) @ v.conj().T)
    sphere_u, sphere_w = _dirichlet_rule([0.5] * n, level)  # S^(n-1) in u = w^2: the integrand is even in every w_i
    u, wu = _gauss_laguerre(radial, n / 2.0 - 1.0)
    ts = 2.0 * np.sqrt(rho * u)
    # cos(t w_i lambda) at every radial x sphere node, for all operators at once
    phases = np.multiply.outer(ts, np.sqrt(sphere_u))  # (radial, sphere, n)
    cosines = np.cos(phases[..., None] * np.array(lams))  # (radial, sphere, n, d)
    # prod_i V_i C_i V_i^H = V_1 C_1 (V_1^H V_2) C_2 ... C_n V_n^H, node by node
    chain = cosines[..., 0, :, None] * np.eye(d)
    for i in range(1, n):
        move = vecs[i - 1].conj().T @ vecs[i]
        chain = (chain @ move) * cosines[..., i, None, :]
    # sphere average per t, then the radial sum: the order of a plain loop
    inner = (chain * sphere_w[:, None, None]).sum(axis=1)
    inner = (inner * wu[:, None, None]).sum(axis=0)
    rhs = vecs[0] @ inner @ vecs[-1].conj().T
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))
