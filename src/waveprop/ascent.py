"""Cosine and sine propagators for commuting families.

For pairwise commuting Hermitian A_1..A_n the propagator
cos(t sqrt(A_1^2+...+A_n^2)) is one formula in one-dimensional cosines,

    (2 pi)^(-m) D [ t^(2m-1) average of cos(t w_1 A_1)...cos(t w_n A_n) ],

with D = d/dt (1/t d/dt)^(m-1), the average taken over the unit ball
against (1-|w|^2)^(-1/2) for n = 2m and over the unit sphere, with an
extra factor 1/2, for n = 2m+1.  Per quadrature node the product of
cosines is expanded as an even power series in t, so D acts exactly on
monomials and no numerical differentiation enters: D takes
t^(2k+2m-1) to _ladder_cos(k, m) t^(2k), and _ladder_sum is the one place
that ladder is applied.

The product is even in every w_i, so the average is taken on the simplex
in u_i = w_i^2, where the sphere and ball measures are Dirichlet measures:
the coefficient of t^(2k) is a degree-k polynomial in u, integrated
exactly by a Dirichlet Gauss-Jacobi rule of level N with no sign-mirror
copies.

The same formula with the left-most d/dt dropped yields the smoothed
sine propagator sin(t sqrt(S)) / sqrt(S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcinv, roots_genlaguerre, roots_legendre

from .operators import HermitianOperator, SpectralDecomposition, _checked_operators, as_matrix
from .quadrature import _dirichlet_rule, stable_sum

__all__ = [
    "CommutingFamily",
    "cos_ascent",
    "sin_ascent",
    "transmutation_check",
    "product_heat_expansion_check",
]

COMMUTATOR_RTOL = 1e-10
SERIES_TAIL_TOL = 1e-13
SERIES_ORDER_CAP = 120
NODE_CHUNK = 2048


@dataclass(eq=False)
class CommutingFamily:
    """Ordered family of pairwise commuting Hermitian operators.

    Members are checked by operators._checked_operators (square, one
    shape, finite, Hermitian), then pairwise for commutation.
    """

    operators: list
    commutator_defect: float = 0.0

    def __init__(self, operators):
        mats = _checked_operators(operators)
        worst = 0.0
        for i, a in enumerate(mats):
            na = np.linalg.norm(a)
            for b in mats[i + 1 :]:
                nb = np.linalg.norm(b)
                if na > 0 and nb > 0:
                    worst = max(worst, np.linalg.norm(a @ b - b @ a) / (na * nb))
        if worst > COMMUTATOR_RTOL:
            raise ValueError(
                f"family does not commute (relative defect {worst:.3e}); "
                "use the splitting-series route for non-commuting operators"
            )
        self.operators = mats
        self.commutator_defect = worst

    def __len__(self) -> int:
        return len(self.operators)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def norm_sum(self) -> float:
        return float(sum(np.linalg.norm(m, 2) for m in self.operators))


def _ladder_cos(k: int, m: int) -> float:
    """D maps t^(2k+2m-1) to this constant times t^(2k); 1 when m = 0."""
    if m == 0:
        return 1.0
    out = float(2 * k + 1)
    for j in range(1, m):
        out *= 2 * k + 2 * j + 1
    return out


def _ladder_sin(k: int, m: int) -> float:
    """Ladder with the left-most d/dt dropped: exponent stays 2k+1."""
    return _ladder_cos(k, m) / (2 * k + 1)


def _ladder_sum(coeffs, t: float, m: int, sine: bool) -> np.ndarray:
    """sum_k c_k L(k, m, sine) t^(2k+sine): the ladder applied to t^(2m-1) times the bracket.

    coeffs[k] is the coefficient of t^(2k) in the bracket.  With sine
    False, L = _ladder_cos and D = d/dt (1/t d/dt)^(m-1) lands on t^(2k);
    with sine True the left-most d/dt is dropped, L = _ladder_sin and the
    power is t^(2k+1).
    """
    ladder = _ladder_sin if sine else _ladder_cos
    t2 = t * t
    acc = np.zeros_like(coeffs[0])
    power = float(t) if sine else 1.0
    for k, c in enumerate(coeffs):
        acc = acc + c * ladder(k, m) * power
        power *= t2
    return acc


def _truncation_order(norm_sum: float, t: float, m: int, tol: float = SERIES_TAIL_TOL) -> int:
    """Smallest N with ladder-amplified cosine-product tail below tol."""
    x = norm_sum * abs(t)
    if x == 0.0:
        return 2
    logx = math.log(x)
    n = 2
    while n < SERIES_ORDER_CAP:
        log_tail = (2 * n + 2) * logx - math.lgamma(2 * n + 3)
        log_tail += math.log(_ladder_cos(n + 1, max(m, 1)))
        if log_tail <= math.log(tol):
            return n
        n += 1
    raise ValueError(
        f"time horizon too large for the series route (norm*|t| = {x:.3e}); "
        "no truncation order below the cap reaches the tolerance"
    )


def _times_series(series: np.ndarray, x2: np.ndarray, steps) -> np.ndarray:
    """series times sum_j c_j X^j, c_j = steps[0]...steps[j-1], truncated at its order.

    series[k] is the coefficient of z^k (leading axis); X = x2 acts on the
    last axis from the right.  The running term is rescaled by one step
    per power, so no unscaled X^j forms, and each power is one GEMM.
    It serves the ascent node series alone: the splitting series works in
    per-factor eigenbases instead (trotter._build).
    """
    updated = series.copy()
    running = series
    for j, step in enumerate(steps, start=1):
        head = running[:-1]
        running = (head.reshape(-1, len(x2)) @ x2).reshape(head.shape) * step
        updated[j:] += running
    return updated


def _cos_series_sum(start, squares, u, weights, order: int) -> np.ndarray:
    """Weighted node sum of the even t-series of start cos(t w_1 X_1)...cos(t w_n X_n).

    start is a (d, d) matrix or a (d,) row vector; squares[i] = X_i^2 acts
    on it from the right, and u[:, i] holds the nodes' w_i^2.  Returns
    shape (order+1,) + start.shape: the quadrature of the coefficient of
    t^(2k).  Nodes are processed in fixed-size chunks and combined with
    compensated summation, so the accumulation order never varies.
    """
    total = np.zeros((order + 1,) + start.shape, dtype=complex)
    comp = np.zeros_like(total)
    for lo in range(0, len(weights), NODE_CHUNK):
        ub = u[lo : lo + NODE_CHUNK]
        # (order+1, nodes, ...) keeps every running[:-1] contiguous for one GEMM
        series = np.zeros((order + 1, len(ub)) + total.shape[1:], dtype=complex)
        series[0] = start
        for c2, x2 in zip(ub.T, squares):
            c2 = c2.reshape((-1,) + (1,) * (total.ndim - 1))
            steps = [-c2 / ((2 * j) * (2 * j - 1)) for j in range(1, order + 1)]
            series = _times_series(series, x2, steps)
        part = np.einsum("k,jk...->j...", weights[lo : lo + NODE_CHUNK], series)
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _simplex_rule(n: int, level: int, sphere: bool):
    """u = w^2 columns and weights of the S^(n-1) or (1-|w|^2)^(-1/2) ball rule.

    Both measures are Dirichlet on the simplex: the sphere with alphas
    (1/2,)*n and twice the weight, the ball with one more 1/2 for the
    slack 1-|w|^2, whose column is dropped.
    """
    if sphere:
        rule = _dirichlet_rule([0.5] * n, level)
        return rule.nodes, 2.0 * rule.weights
    rule = _dirichlet_rule([0.5] * (n + 1), level)
    return rule.nodes[:, :n], rule.weights


def _ascent_series(fam: CommutingFamily, t: float, rule_level: int | None):
    """Bracket coefficients of t^(2k), ladder depth m and prefactor of the family at t.

    n = 2m is averaged over the ball, n = 2m+1 over the sphere with an
    extra factor 1/2.
    """
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got t = {t}")
    n = len(fam)
    m, odd = n // 2, n % 2 == 1
    order = _truncation_order(fam.norm_sum(), t, m)
    level = order if rule_level is None else rule_level
    if level < order:
        raise ValueError(
            f"quadrature level {level} cannot integrate the degree-{order} "
            f"series terms; need level >= {order}"
        )
    u, weights = _simplex_rule(n, level, sphere=odd)
    prefactor = (0.5 if odd else 1.0) * (2.0 * math.pi) ** (-m)
    squares = [a @ a for a in fam.operators]
    coeffs = _cos_series_sum(np.eye(fam.dim, dtype=complex), squares, u, weights, order)
    return coeffs, m, prefactor


def cos_ascent(fam: CommutingFamily, t: float, rule_level: int | None = None) -> np.ndarray:
    """cos(t sqrt(sum A_i^2)) for a commuting family.

    Realizes (2 pi)^(-m) D [ t^(2m-1) average of the cosine product ],
    the ball average for n = 2m and half the sphere average for n = 2m+1,
    with the integrand expanded per node as an even series in t.  n = 1
    degenerates to the plain two-point average, which reproduces cos(t A)
    exactly.
    """
    coeffs, m, prefactor = _ascent_series(fam, t, rule_level)
    return prefactor * _ladder_sum(coeffs, t, m, sine=False)


def sin_ascent(fam: CommutingFamily, t: float, rule_level: int | None = None) -> np.ndarray:
    """sin(t sqrt(sum A_i^2)) / sqrt(sum A_i^2) for a commuting family.

    The cosine formula with the left-most d/dt of the ladder dropped; the
    coefficient of t^(2k) gains 1/(2k+1) relative to the cosine ladder and
    the result is odd in t.  At sum A_i^2 = 0 the value is t times the
    identity, matching the spectral convention.
    """
    coeffs, m, prefactor = _ascent_series(fam, t, rule_level)
    return prefactor * _ladder_sum(coeffs, t, m, sine=True)


# ---------------------------------------------------------------------------
# heat-kernel identities used to certify the transmutation step


def transmutation_check(b, rho: float, tol: float = 1e-10):
    """Compare exp(-rho B^2) with its cosine-transform representation.

    rhs = (4 pi rho)^(-1/2) integral e^(-t^2/(4 rho)) cos(B t) dt over
    [-T, T], with T chosen so the discarded Gaussian tail is below tol.
    Returns (lhs, rhs, gap) with gap in the Frobenius norm.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    mat = as_matrix(b)
    dec = HermitianOperator(mat).decomposition()
    lhs = dec.matrix_function(lambda lam: np.exp(-rho * np.clip(lam * lam, 0.0, None)))
    norm_b = float(max(abs(dec.eigenvalues[0]), abs(dec.eigenvalues[-1]))) if mat.size else 0.0
    # two-sided Gaussian tail beyond T equals erfc(T / (2 sqrt(rho)))
    horizon = 2.0 * math.sqrt(rho) * float(erfcinv(min(tol / 10.0, 0.5)))
    count = max(96, int(1.5 * horizon * max(1.0, norm_b)) + 48)
    x, w = roots_legendre(count)
    ts = horizon * x
    gauss = (4.0 * math.pi * rho) ** (-0.5) * np.exp(-ts * ts / (4.0 * rho)) * (horizon * w)
    cos_t_lam = np.cos(np.outer(ts, dec.eigenvalues))  # (count, d)
    diag = stable_sum(gauss[:, None] * cos_t_lam)
    rhs = (dec.eigenvectors * diag) @ dec.eigenvectors.conj().T
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))


def product_heat_expansion_check(fam: CommutingFamily, rho: float,
                                 sphere_level: int = 12, radial_count: int = 64):
    """Product of heat factors against its radial cosine representation.

    prod_i exp(-rho A_i^2) = (4 pi rho)^(-n/2) int_0^inf t^(n-1)
    e^(-t^2/(4 rho)) [sphere average of prod_i cos(t w_i A_i)] dt.
    The radial integral is mapped by u = t^2/(4 rho) onto a generalized
    Gauss-Laguerre rule; the integrand is entire in u, so the rule
    converges rapidly.  Returns (lhs, rhs, gap).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    mats = fam.operators
    n = len(mats)
    d = fam.dim
    lhs = np.eye(d, dtype=complex)
    decs = [SpectralDecomposition.from_matrix(m) for m in mats]
    for dec in decs:
        lhs = lhs @ dec.matrix_function(
            lambda lam: np.exp(-rho * np.clip(lam * lam, 0.0, None))
        )
    sphere_u, sphere_weights = _simplex_rule(n, sphere_level, sphere=True)  # even in every w_i
    u, wu = roots_genlaguerre(radial_count, n / 2.0 - 1.0)
    ts = 2.0 * np.sqrt(rho * u)
    prefactor = 2.0 ** (n - 1) * (4.0 * math.pi) ** (-n / 2.0)
    # cos(t w_i lambda) at every radial x sphere node, for all operators at once
    phases = np.multiply.outer(ts, np.sqrt(sphere_u))  # (radial, sphere, n)
    lams = np.array([dec.eigenvalues for dec in decs])
    cosines = np.cos(phases[..., None] * lams)  # (radial, sphere, n, d)
    # prod_i V_i C_i V_i^H = V_1 C_1 (V_1^H V_2) C_2 ... C_n V_n^H, node by node
    chain = cosines[..., 0, :, None] * np.eye(d)
    for i in range(1, n):
        move = decs[i - 1].eigenvectors.conj().T @ decs[i].eigenvectors
        chain = (chain @ move) * cosines[..., i, None, :]
    # sphere average per t, then the radial sum: the order of a plain loop
    inner = (chain * sphere_weights[:, None, None]).sum(axis=1)
    inner = (inner * (prefactor * wu)[:, None, None]).sum(axis=0)
    rhs = decs[0].eigenvectors @ inner @ decs[-1].eigenvectors.conj().T
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))
