"""Quadrature on unit spheres, weighted unit balls and the simplex.

The rules here integrate products of one-dimensional cosines against the
measures that appear in the dimension-lifting propagator formulas: the
surface measure on S^{n-1} and the measure (1 - |w|^2)^p dw on the unit
ball (p = -1/2 is the standard boundary weight, p = 0 the flat ball).

Integrands even in every coordinate only see u_i = w_i^2.  Under that
map both measures become Dirichlet distributions on the simplex times
a closed-form mass, integrated by one probability rule (_dirichlet_rule;
each caller multiplies by its mass), a conical product of
one-dimensional Gauss-Jacobi rules (Stroud, Approximate Calculation of
Multiple Integrals, 1971), one per stick (_dirichlet_sticks).  The
tensor nodes are formed only where a caller needs them; the ascent and
the one rule self-test read the per-stick mixed moments instead
(_stick_moments).  Each one-dimensional rule is Golub-Welsch with a
Newton polish on the three-term recurrence (_gauss_rule).  None of this
depends on an operator, so each one-dimensional rule
(_gauss_jacobi_unit) and each stick table with its self-test
(_stick_rule) is built once per process, in bounded caches, and handed
out read-only.  The public sphere and ball rules are the
Dirichlet rule mirrored into every sign pattern w_i = +-sqrt(u_i),
exact on even monomials up to the requested level, and carry its
self-test error.  Above dimension 6 they switch by default to an
importance-sampled Monte Carlo rule with a fixed seed.  That rule has no
moment error (moment_error is None): its statistical error depends on
the integrand, mass * std(values) / sqrt(samples).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphereRule",
    "BallRule",
    "ball_moment",
    "dirichlet_moment_double_factorial",
    "gamma_duplication_check",
    "sphere_area",
    "build_sphere_rule",
    "build_ball_rule",
    "stable_sum",
]

TENSOR_DIM_LIMIT = 6  # public rules: tensor up to here, Monte Carlo beyond by default
MIRRORED_NODE_LIMIT = 1 << 22  # public tensor rules refuse to form more nodes
MOMENT_PROBE_CAP = 400
PROBE_DEGREE = 4  # rule self-tests probe moments of total degree <= min(level, this)
_MOMENT_CHUNK = 1024  # nodes per chunk of _monomial_moments
_GAUSS_JACOBI_CACHE = 256  # one-dimensional rules kept per process
_STICK_RULE_CACHE = 32  # stick tables kept per process


def _components(alpha) -> tuple[int, ...]:
    """Exponents of a moment as a tuple of non-negative integers."""
    comp = tuple(alpha)
    if any(c < 0 or int(c) != c for c in comp):
        raise ValueError("multi-index components must be non-negative integers")
    return tuple(int(c) for c in comp)


def stable_sum(values: np.ndarray) -> np.ndarray:
    """Compensated summation along the first axis, deterministic order.

    One-dimensional float input is laid out in zero-padded rows of 1024,
    summed down each column with Neumaier compensation, and the column
    sums and compensations are finished by math.fsum; otherwise
    fixed-size chunks are reduced pairwise and the chunk partials combined
    with Kahan compensation.  Input with no rows sums to zeros of the
    trailing shape.
    """
    values = np.asarray(values)
    chunk = 1024
    if values.ndim == 1 and values.dtype.kind == "f":
        total, comp = np.zeros(chunk), np.zeros(chunk)
        for row in np.pad(values, (0, -len(values) % chunk)).reshape(-1, chunk):
            t = total + row
            comp += np.where(np.abs(total) >= np.abs(row), (total - t) + row, (row - t) + total)
            total = t
        return np.float64(math.fsum(np.concatenate([total, comp]).tolist()))
    partials = [values[i : i + chunk].sum(axis=0) for i in range(0, len(values), chunk)]
    total = comp = np.zeros_like(values[:0].sum(axis=0))
    for p in partials:
        y = p - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _monomial_moments(nodes: np.ndarray, weights: np.ndarray, exponents) -> np.ndarray:
    """sum_i w_i prod_j x_ij^e_pj for every exponent row e_p, shape (P,).

    The coordinates split at h = ceil(d/2), so probe p's moment is
    sum_i w_i A_i B_i, with A the monomial of its first-half exponents and
    B that of its second half.  Each distinct half row is formed once per
    node from a per-coordinate power table x^0 .. x^top, and one GEMM,
    (w A) B^T, gives every pair of half rows at once.  Nodes are walked in
    chunks of at most _MOMENT_CHUNK, and the row of chunk partials of each
    pair is summed pairwise, numpy's order along a contiguous axis.
    """
    exponents = np.asarray(exponents, dtype=int)
    h = -(-exponents.shape[1] // 2)
    first, i1 = np.unique(exponents[:, :h], axis=0, return_inverse=True)
    second, i2 = np.unique(exponents[:, h:], axis=0, return_inverse=True)  # one empty row at d = 1
    top = exponents.max(initial=0)
    # x^0 .. x^top as running products, shape (power, d, chunk), refilled per chunk
    powers = np.empty((top + 1, nodes.shape[1], min(_MOMENT_CHUNK, len(weights))))
    partials = []
    for start in range(0, len(weights), _MOMENT_CHUNK):
        x = np.ascontiguousarray(nodes[start : start + _MOMENT_CHUNK].T)
        table = powers[:, :, : x.shape[1]]
        table[0] = 1.0
        for n in range(1, top + 1):
            np.multiply(table[n - 1], x, out=table[n])
        a = np.repeat(weights[None, start : start + _MOMENT_CHUNK], len(first), axis=0)
        for j, e in enumerate(first.T):
            a *= table[e, j]
        b = np.ones((len(second), x.shape[1]))
        for j, e in enumerate(second.T, start=h):
            b *= table[e, j]
        partials.append((a @ b.T).reshape(-1))
    # partials as contiguous rows: a sum down axis 0 would add the chunks one at a time
    moments = np.ascontiguousarray(np.transpose(partials)).sum(axis=1).reshape(len(first), len(second))
    return moments[i1.reshape(-1), i2.reshape(-1)]


# ---------------------------------------------------------------------------
# closed-form moments


def ball_moment(alpha, boundary_exponent: float = -0.5) -> float:
    """Moment of w^(2*alpha) over the unit ball of R^len(alpha) against (1-|w|^2)^p.

    Equals Gamma(a_1+1/2)...Gamma(a_d+1/2) Gamma(p+1) / Gamma(|a|+d/2+p+1),
    taken as the mass pi^(d/2) Gamma(p+1) / Gamma(c), c = d/2+p+1, times
    the rising factorials (1/2)_(a_1)...(1/2)_(a_d) / (c)_(|a|), one
    factor below 1 at a time; p = -1/2 is the standard boundary weight.
    The mass takes math.gamma until Gamma(c) overflows past 171, then logs.
    """
    comp = _components(alpha)
    d = len(comp)
    p = boundary_exponent
    if not -1.0 < p < math.inf:
        raise ValueError(f"boundary exponent must be finite and exceed -1 for integrability, got {p}")
    c = d / 2.0 + p + 1.0
    if c < 171.0:
        mass = math.pi ** (d / 2.0) * math.gamma(p + 1.0) / math.gamma(c)
    else:
        mass = math.exp(d / 2.0 * math.log(math.pi) + math.lgamma(p + 1.0) - math.lgamma(c))
    steps = [j + 0.5 for a in comp for j in range(a)]
    return mass * math.prod(step / (c + k) for k, step in enumerate(steps))


def dirichlet_moment_double_factorial(alpha) -> float:
    """Same moment in even dimension d=2m through factorials alone.

    (2 pi)^m (2a)! / (2^|a| a! (2m+2|a|-1)!!)
    = prod_(j<=m) (2 pi / (2j-1)) * prod_i (2a_i-1)!! / ((2m+1)(2m+3)...(2m+2|a|-1)),
    the last ratio of exact integers rounded once; agreement with
    ball_moment at p = -1/2 is an independent consistency check.
    """
    comp = _components(alpha)
    d = len(comp)
    if d % 2 != 0:
        raise ValueError("double-factorial form requires even dimension")
    m = d // 2
    odd = math.prod(math.prod(range(2 * c - 1, 0, -2)) for c in comp)
    ratio = odd / math.prod(range(2 * m + 1, 2 * m + 2 * sum(comp), 2))
    return math.prod(2.0 * math.pi / j for j in range(1, 2 * m, 2)) * ratio


def gamma_duplication_check(k: int) -> tuple[float, float]:
    """Gamma(k+1/2) next to sqrt(pi) Gamma(2k) / (2^(2k-1) Gamma(k))."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    lhs = math.exp(math.lgamma(k + 0.5))
    rhs = math.exp(0.5 * math.log(math.pi) + math.lgamma(2 * k) - (2 * k - 1) * math.log(2.0) - math.lgamma(k))
    return lhs, rhs


def sphere_area(n: int) -> float:
    """Surface area 2 pi^(n/2) / Gamma(n/2) of the unit sphere S^(n-1) in R^n.

    Climbed from |S^0| = 2 or |S^1| = 2 pi by |S^(j+1)| = 2 pi / j |S^(j-1)|,
    so no factor overflows and |S^0| is exactly 2.
    """
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    area = 2.0 if n % 2 else 2.0 * math.pi
    for j in range(2 - n % 2, n - 1, 2):
        area *= 2.0 * math.pi / j
    return area


# ---------------------------------------------------------------------------
# rules


@dataclass(eq=False)
class SphereRule:
    """Nodes and weights on S^(dim-1); weights sum to the surface area."""

    dim: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray
    method: str
    moment_error: float | None = None
    seed: int | None = None

    def integrate(self, values) -> np.ndarray | float:
        values = values(self.nodes) if callable(values) else np.asarray(values)
        return stable_sum(self.weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values)


@dataclass(eq=False)
class BallRule:
    """Nodes and weights on the unit ball against (1-|w|^2)^boundary_exponent."""

    dim: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray
    method: str
    boundary_exponent: float = -0.5
    moment_error: float | None = None
    seed: int | None = None

    integrate = SphereRule.integrate


def _bounded_tuples(d: int, budget: int):
    """Tuples in range(budget+1)^d with sum <= budget, in lexicographic order.

    The successor of a tuple with sum below the budget raises its last
    entry; at the budget, the right-most non-zero entry is zeroed and the
    one before it raised, so no rejected tuple is visited.
    """
    a, total = [0] * d, 0
    while True:
        yield tuple(a)
        if total < budget:
            a[-1] += 1
            total += 1
            continue
        j = d - 1
        while j > 0 and a[j] == 0:
            j -= 1
        if j <= 0:
            return
        total -= a[j] - 1
        a[j], a[j - 1] = 0, a[j - 1] + 1


def _even_probe_indices(d: int, level: int):
    """Representative even-monomial exponents with |alpha| <= level."""
    out = list(itertools.islice(_bounded_tuples(d, level), MOMENT_PROBE_CAP))
    corners = [tuple(level if i == j else 0 for i in range(d)) for j in range(d)]
    for c in corners:
        if c not in out:
            out.append(c)
    return out


def build_sphere_rule(n: int, level: int, method: str = "auto",
                      samples: int = 200_000, seed: int = 0) -> SphereRule:
    """Rule on S^(n-1) exact (tensor) on even monomials of degree <= 2*level.

    Tensor rules mirror the Dirichlet rule with alphas (1/2,)*n into every
    sign pattern of w_i = +-sqrt(u_i), at the sphere's area as mass.
    """
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    if level < 0:
        raise ValueError("level must be non-negative")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if method == "auto":
        method = "tensor" if n <= TENSOR_DIM_LIMIT + 1 else "montecarlo"
    mass = sphere_area(n)
    if method == "tensor":
        return _mirrored_rule(SphereRule, n, level, [0.5] * n, mass)
    if method != "montecarlo":
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n))
    nodes = g / np.linalg.norm(g, axis=1, keepdims=True)
    return SphereRule(n, level, nodes, np.full(samples, mass / samples), "montecarlo", seed=seed)


def build_ball_rule(d: int, level: int, method: str = "auto",
                    boundary_exponent: float = -0.5,
                    samples: int = 200_000, seed: int = 0) -> BallRule:
    """Rule on the unit ball in R^d against (1-|w|^2)^boundary_exponent.

    Tensor rules mirror the Dirichlet rule with alphas (1/2,)*d + (p+1,),
    whose last coordinate is the slack 1-|w|^2, into every sign pattern
    of w_i = +-sqrt(u_i).  Exact on monomials w^(2a) with |a| <= level.
    Monte Carlo samples u ~ Beta(d/2, p+1) and uniform directions, with
    constant weights mass/samples.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if level < 0:
        raise ValueError("level must be non-negative")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    p = boundary_exponent
    if not -1.0 < p < math.inf:
        raise ValueError(f"boundary exponent must be finite and exceed -1, got {p}")
    if method == "auto":
        method = "tensor" if d <= TENSOR_DIM_LIMIT else "montecarlo"
    mass = ball_moment((0,) * d, boundary_exponent=p)
    if method == "tensor":
        return _mirrored_rule(BallRule, d, level, [0.5] * d + [p + 1.0], mass, boundary_exponent=p)
    if method != "montecarlo":
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    u = rng.beta(d / 2.0, p + 1.0, size=samples)
    g = rng.standard_normal((samples, d))
    directions = g / np.linalg.norm(g, axis=1, keepdims=True)
    nodes = np.sqrt(u)[:, None] * directions
    return BallRule(d, level, nodes, np.full(samples, mass / samples), "montecarlo",
                    boundary_exponent=p, seed=seed)


def _read_only(arrays) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return tuple(arrays)


def _gauss_rule(diag: np.ndarray, off: np.ndarray):
    """Longdouble nodes and float probability weights of the k-node Gauss rule of a probability measure.

    The measure's orthonormal polynomials satisfy p_0 = 1 and
    sqrt(b_(n+1)) p_(n+1) = (x - c_n) p_n - sqrt(b_n) p_(n-1); diag holds
    c_0..c_(k-1) and off b_1..b_k, both longdouble.  The eigenvalues of
    the Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969) start two
    Newton steps on p_k; the weights are the Christoffel numbers
    1 / sum_(n<k) p_n(x_i)^2, summed by the second step at nodes the
    first has already polished.  The steps and the weights run in numpy's
    longdouble (80-bit extended on x86-64), so the coefficients' and the
    recurrence's rounding stay below a double's even at the nodes next
    to an end, where a double recurrence loses about k^2 eps; where
    longdouble is a plain double, that loss returns.
    """
    root = np.sqrt(off)
    x = np.linalg.eigvalsh(np.diag(diag.astype(float)) + np.diag(root[:-1].astype(float), -1))
    x = x.astype(np.longdouble)
    for _ in range(2):
        # p_(-1) = 0, so the n = 0 step reads root[-1] only times zero
        p_prev, p, dp_prev, dp, total = 0.0, np.ones_like(x), 0.0, 0.0, 0.0
        for n, c in enumerate(diag):
            total = total + p * p
            shift = x - c
            p_prev, p, dp_prev, dp = (p, (shift * p - root[n - 1] * p_prev) / root[n],
                                      dp, (shift * dp + p - root[n - 1] * dp_prev) / root[n])
        x = x - p / dp
    weights = (1.0 / total).astype(float)
    return x, weights / math.fsum(weights.tolist())


@functools.lru_cache(maxsize=_GAUSS_JACOBI_CACHE)
def _gauss_jacobi_unit(k: int, a: float, b: float):
    """k-node probability rule on [0,1] for Beta(a, b): read-only (x, 1-x, weights).

    The recurrence of the Beta(a, b) orthonormal polynomials, with
    s = a+b-2, has c_0 = a/(a+b), the mean, b_1 = ab/((a+b)^2 (a+b+1)),
    the variance (a closed form also where a+b = 1, the Chebyshev sticks),
    and for n >= 1 the cancellation-free forms
    c_n = ((n+a)(n+s) + n(n+b)) / ((2n+s)(2n+s+2)) and
    b_(n+1) = m(m+a-1)(m+b-1)(m+s) / ((2m+s)^2 (2m+s+1)(2m+s-1)), m = n+1.
    """
    a, b = np.longdouble(a), np.longdouble(b)
    s, n = a + b - 2, np.arange(1, k, dtype=np.longdouble)
    m = n + 1
    diag = np.concatenate([[a / (a + b)], ((n + a) * (n + s) + n * (n + b)) / ((2 * n + s) * (2 * n + s + 2))])
    off = np.concatenate([[a * b / ((a + b) ** 2 * (a + b + 1))],
                          m * (m + a - 1) * (m + b - 1) * (m + s) / ((2 * m + s) ** 2 * (2 * m + s + 1) * (2 * m + s - 1))])
    x, weights = _gauss_rule(diag, off)
    return _read_only([x.astype(float), (1 - x).astype(float), weights])


@functools.lru_cache(maxsize=_GAUSS_JACOBI_CACHE)
def _gauss_laguerre(k: int, alpha: float):
    """k-node probability rule on [0, inf) for Gamma(alpha+1), weight u^alpha e^(-u): read-only (u, weights).

    The orthonormal recurrence has c_n = 2n+alpha+1 and b_n = n(n+alpha).
    """
    n = np.arange(k, dtype=np.longdouble)
    u, weights = _gauss_rule(2 * n + alpha + 1, (n + 1) * (n + 1 + alpha))
    return _read_only([u.astype(float), weights])


def _dirichlet_sticks(alphas, level: int) -> list:
    """The one-dimensional rules of the stick-breaking tensor rule, one per stick.

    Stick j < K carries a (level//2+1)-node Gauss-Jacobi probability rule
    for Beta(alpha_j, alpha_(j+1)+...+alpha_K) as (x, 1-x, weights);
    u_j = x_j (1-x_1)...(1-x_(j-1)) and u_K = (1-x_1)...(1-x_(K-1)).
    """
    alphas = np.asarray(alphas, dtype=float)
    k = level // 2 + 1
    return [_gauss_jacobi_unit(k, float(alphas[j]), float(alphas[j + 1 :].sum()))
            for j in range(len(alphas) - 1)]


def _dirichlet_tensor(sticks):
    """Nodes u and weights of the tensor product of the sticks' rules.

    With k nodes per stick, exact on polynomials in u of total degree <= 2k-1.
    """
    cols, rest, weights = np.zeros((1, 0)), np.ones(1), np.ones(1)
    for x, one_minus_x, wx in sticks:
        cols = np.concatenate([np.repeat(cols, len(x), axis=0), np.outer(rest, x).reshape(-1, 1)], axis=1)
        rest = np.outer(rest, one_minus_x).ravel()
        weights = np.outer(weights, wx).ravel()
    return np.concatenate([cols, rest[:, None]], axis=1), weights


def _stick_moments(sticks, top: int) -> list:
    """c_j[a, b] = sum_i w_i x_i^a (1-x_i)^b of every stick, for 0 <= a, b <= top.

    The tensor rule integrates u_1^b_1...u_K^b_K to the product over the
    sticks of c_j[b_j, b_(j+1)+...+b_K], so no tensor node need form.
    """
    powers = np.arange(top + 1)[:, None]
    return [(x ** powers * wx) @ (one_minus_x ** powers).T for x, one_minus_x, wx in sticks]


def _stick_selftest(alphas, level: int, moments) -> float:
    """Max relative error of the tensor rule on u^b, |b| <= min(level, PROBE_DEGREE).

    Each probe is integrated from the stick moments, whose top must reach
    min(level, PROBE_DEGREE), and compared with the Dirichlet mean
    E[u^b] = prod_i (a_i)_(b_i) / (|a|)_(|b|), in rising factorials.
    """
    alphas = np.asarray(alphas, dtype=float)
    b = np.asarray(_even_probe_indices(len(alphas), min(level, PROBE_DEGREE)))
    # (x)_j = x (x+1)...(x+j-1) for j <= PROBE_DEGREE, of every a_i and of |a|
    starts = np.append(alphas, alphas.sum())
    table = np.cumprod(np.hstack([np.ones((len(starts), 1)), np.add.outer(starts, np.arange(PROBE_DEGREE))]), axis=1)
    exact = table[np.arange(len(alphas)), b].prod(axis=1) / table[-1, b.sum(axis=1)]
    tails = np.cumsum(b[:, ::-1], axis=1)[:, ::-1]  # tails[:, j] = b_j + ... + b_K
    got = np.ones(len(b))
    for j, c in enumerate(moments):
        got = got * c[b[:, j], tails[:, j + 1]]
    return float(np.max(np.abs(got - exact) / exact))


@functools.lru_cache(maxsize=_STICK_RULE_CACHE)
def _stick_rule(alphas: tuple, level: int, top: int):
    """Read-only stick moments up to top of the level's rule, and its _stick_selftest error.

    top must reach min(level, PROBE_DEGREE) for the self-test.
    """
    moments = _stick_moments(_dirichlet_sticks(alphas, level), top)
    return _read_only(moments), _stick_selftest(alphas, level, moments)


def _mirrored(u: np.ndarray, weights: np.ndarray):
    """Nodes w = (+-sqrt(u_1), ..., +-sqrt(u_n)) over all 2^n sign patterns.

    Each weight is split evenly over its 2^n copies, so the rule is
    symmetric under every coordinate sign flip and odd monomials cancel.
    """
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=u.shape[1])))
    nodes = np.sqrt(u)[:, None, :] * signs[None, :, :]
    return nodes.reshape(-1, u.shape[1]), np.repeat(weights / len(signs), len(signs))


def _dirichlet_rule(alphas, level: int):
    """Nodes u and weights of the Dirichlet(alpha_1, ..., alpha_K) distribution on the simplex.

    Under u_i = w_i^2 the normalized surface measure of S^(n-1) is the
    distribution with alphas (1/2,)*n, and the normalized ball weight
    (1-|w|^2)^p in R^n the one with alphas (1/2,)*n + (p+1,), whose last
    coordinate is the slack 1-|w|^2.  The rule is _dirichlet_tensor,
    exact on polynomials in u of total degree <= level; its weights sum
    to 1, and _stick_rule holds its self-test error.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise ValueError("need a non-empty list of Dirichlet parameters")
    if not np.all(a > 0.0):
        raise ValueError("Dirichlet parameters must be positive")
    if level < 0:
        raise ValueError("level must be non-negative")
    return _dirichlet_tensor(_dirichlet_sticks(a, level))


def _mirrored_rule(cls, d: int, level: int, alphas, mass: float, **fields):
    """Public tensor rule on R^d from the Dirichlet rule with these alphas.

    The first d coordinates are mirrored into every sign pattern and the
    weights multiplied by the measure's mass.  The moment error is the
    larger of the Dirichlet rule's self-test error and the first moments relative to
    the mass: those vanish by sign symmetry, so a broken mirroring shows.
    A rule of more than MIRRORED_NODE_LIMIT nodes is refused before any
    node forms.
    """
    count = (level // 2 + 1) ** (len(alphas) - 1) * 2 ** d
    if count > MIRRORED_NODE_LIMIT:
        raise ValueError(f"tensor rule would form {count} mirrored nodes, "
                         f"above the limit of {MIRRORED_NODE_LIMIT}")
    u, weights = _dirichlet_rule(alphas, level)
    nodes, weights = _mirrored(u[:, :d], weights)
    rule = cls(d, level, nodes, mass * weights, "tensor", **fields)
    # benchmarks/test_benchmark.py traces this integrate inside build_ball_rule
    first = np.max(np.abs(rule.integrate(nodes))) / rule.weights.sum()
    selftest = _stick_rule(tuple(alphas), level, min(level, PROBE_DEGREE))[1]
    rule.moment_error = max(selftest, float(first))
    return rule
