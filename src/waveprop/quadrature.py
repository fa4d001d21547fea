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
(_stick_moments).  None of this depends on an operator, so each
one-dimensional rule (_gauss_jacobi_unit) and each stick table with its
self-test (_stick_rule) is built once per process, in bounded caches,
and handed out read-only.  The public sphere and ball rules are the
Dirichlet rule mirrored into every sign pattern w_i = +-sqrt(u_i),
exact on even monomials up to the requested level, and carry its
self-test error.  Above dimension 6 they switch by default to an
importance-sampled Monte Carlo rule with a fixed seed.  That rule has no
moment error (moment_error is None); its statistical error depends on
the integrand, and error_estimate(values) gives it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_jacobi

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
_PROBE_BLOCK = 1 << 15  # nodes x probes entries per chunk of _monomial_moments (256 KB)
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

    Powers come from a per-coordinate table built by repeated
    multiplication.  Nodes are walked in chunks of at most _PROBE_BLOCK
    nodes x probes entries; the chunks and then their partials are summed
    pairwise in a fixed order, as the 2-D path of stable_sum does for up
    to 1024 partials.
    """
    exponents = np.asarray(exponents, dtype=int)
    top, step = exponents.max(initial=0), max(1, _PROBE_BLOCK // len(exponents))
    partials = []
    for start in range(0, len(weights), step):
        x = nodes[start : start + step].T
        # x^0 .. x^top as running products of [1, x, x, ...], shape (power, d, chunk)
        table = np.cumprod(np.concatenate([np.ones((1,) + x.shape), np.broadcast_to(x, (top,) + x.shape)]), axis=0)
        values = table[exponents[:, 0], 0] * weights[start : start + step]
        for j in range(1, len(x)):
            values *= table[exponents[:, j], j]
        partials.append(values.sum(axis=1))
    return np.sum(partials, axis=0)


# ---------------------------------------------------------------------------
# closed-form moments


def ball_moment(alpha, boundary_exponent: float = -0.5) -> float:
    """Moment of w^(2*alpha) over the unit ball of R^len(alpha) against (1-|w|^2)^p.

    Equals Gamma(a_1+1/2)...Gamma(a_d+1/2) Gamma(p+1) / Gamma(|a|+d/2+p+1),
    evaluated in log space; p = -1/2 is the standard boundary weight.
    """
    comp = _components(alpha)
    d = len(comp)
    p = boundary_exponent
    if not -1.0 < p < math.inf:
        raise ValueError(f"boundary exponent must be finite and exceed -1 for integrability, got {p}")
    a = np.asarray(comp, dtype=float)
    lg = gammaln(a + 0.5).sum() + gammaln(p + 1.0) - gammaln(a.sum() + d / 2.0 + p + 1.0)
    return float(math.exp(lg))


def dirichlet_moment_double_factorial(alpha) -> float:
    """Same moment in even dimension d=2m through factorials alone.

    (2 pi)^m (2a)! / (2^|a| a! (2m+2|a|-1)!!); agreement with
    ball_moment at p = -1/2 is an independent consistency check.
    """
    comp = _components(alpha)
    d = len(comp)
    if d % 2 != 0:
        raise ValueError("double-factorial form requires even dimension")
    m = d // 2
    k = sum(comp)
    a = np.asarray(comp, dtype=float)
    lg = m * math.log(2 * math.pi) + gammaln(2 * a + 1).sum()
    lg -= k * math.log(2.0) + gammaln(a + 1).sum()
    lg -= sum(math.log(j) for j in range(2 * m + 2 * k - 1, 0, -2))
    return float(math.exp(lg))


def gamma_duplication_check(k: int) -> tuple[float, float]:
    """Gamma(k+1/2) next to sqrt(pi) Gamma(2k) / (2^(2k-1) Gamma(k))."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    lhs = math.exp(gammaln(k + 0.5))
    rhs = math.exp(0.5 * math.log(math.pi) + gammaln(2 * k) - (2 * k - 1) * math.log(2.0) - gammaln(k))
    return lhs, rhs


def sphere_area(n: int) -> float:
    """Surface area 2 pi^(n/2) / Gamma(n/2) of the unit sphere S^(n-1) in R^n, in log space."""
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    return float(2.0 * math.exp(n / 2.0 * math.log(math.pi) - gammaln(n / 2.0)))


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

    def error_estimate(self, values) -> float:
        values = values(self.nodes) if callable(values) else np.asarray(values)
        if self.method == "montecarlo":
            return float(self.weights.sum() * np.std(values, axis=0).max() / math.sqrt(len(self.weights)))
        return 0.0 if self.moment_error is None else self.moment_error


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
    error_estimate = SphereRule.error_estimate


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


@functools.lru_cache(maxsize=_GAUSS_JACOBI_CACHE)
def _gauss_jacobi_unit(k: int, a: float, b: float):
    """k-node probability rule on [0,1] for Beta(a, b): read-only (x, 1-x, weights)."""
    xj, wj = roots_jacobi(k, b - 1.0, a - 1.0)
    return _read_only([(1.0 + xj) / 2.0, (1.0 - xj) / 2.0, wj / math.fsum(wj.tolist())])


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
    E[u^b] = Gamma(|a|) / Gamma(|a|+|b|) prod_i Gamma(a_i+b_i) / Gamma(a_i).
    """
    alphas = np.asarray(alphas, dtype=float)
    b = np.asarray(_even_probe_indices(len(alphas), min(level, PROBE_DEGREE)))
    rising = gammaln(alphas + b) - gammaln(alphas)
    exact = np.exp(rising.sum(axis=1) + gammaln(alphas.sum()) - gammaln(alphas.sum() + b.sum(axis=1)))
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
