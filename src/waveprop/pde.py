"""Propagators built from translation averages over spheres and balls.

Every route here evaluates cos(t*sqrt(L)) (or its sine partner) without
ever touching the spectrum of L directly: the field is averaged over
quadrature nodes on a sphere or weighted ball, and a radial derivative
ladder converts the average into the propagated field.  Grid translation
by a vector t*omega is exact through FFT phase multipliers, so quadrature
is the only approximation in the average itself.

Shell averages and the exact time ladder: the average of the plane wave
exp(i tau k.w) over a rotation invariant measure depends only on tau|k|.
By the Funk-Hecke reduction (Dai & Xu, Approximation Theory and Harmonic
Analysis on Spheres and Balls, 2013) it is a one dimensional average of
cos(tau |k| s) in s = w.k/|k|, against the Gauss-Jacobi weight
(1-s^2)^(p+(d-1)/2) for the ball weight (1-|w|^2)^p in R^d, or
(1-s^2)^((d-3)/2) for the sphere S^(d-1).  The multiplier is therefore
evaluated once per distinct |k|^2 shell of the FFT grid, as
g(tau) = sum_i w_i K(tau rho_i) cos(tau |k| s_i) with a mass kernel K
(1 for the plain wave).  The ladder d/dtau (1/tau d/dtau)^(m-1) [tau^(2m-1) g]
is sum_j a_j t^j g^(j)(t) at tau = t, with the row a_j of ascent._ladder_row;
the jets t^j g^(j) follow from Leibniz's rule on K(tau rho) cos(tau |k| s),
so a shell costs one cos and one sin per node, and no stencil or fit enters.

Kernel average identities used for the mass-a symbol sqrt(|k|^2 + a^2):
the flat interval with a J0(a tau sqrt(1-nu^2)) factor in one dimension,
the inverse square root disk weight with a cos(a tau sqrt(1-r^2)) factor
in two, and the flat solid ball with a J0 factor and a second ladder rung
in three.  The shell sums see only s = w.k/|k| and rho = sqrt(1-|w|^2),
and for the ball weight (1-|w|^2)^p in R^d the triple
(s^2, |w|^2-s^2, 1-|w|^2) is Dirichlet(1/2, (d-1)/2, p+1), so one
Dirichlet Gauss-Jacobi rule on the simplex gives every (s, rho) node
with its weight, one node per distinct pair.
Replacing a^2 by -a^2 (J0 -> I0, cos -> cosh) gives the partially
imaginary symbol sqrt(|k|^2 - a^2).

The massless route in R^d, any d, is the ascent's (see _propagate); the mass
routes are a table, _MASS_ROUTES, of one to three axes.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np
from scipy.special import i0, i1, j0, j1

from .ascent import _ladder_row
from .fields import GridField, _finite_values, _k_squared, assert_no_wrap, relative_l2_gap
from .operators import _checked_time, cos_sqrt_sum_oracle
from .quadrature import _dirichlet_rule, ball_moment, build_ball_rule, sphere_area
from .trotter import cos_noncomm

__all__ = [
    "wave_general",
    "wave2d_poisson",
    "wave3d_kirchhoff",
    "klein_gordon",
    "damped_wave",
    "bessel_kernel_check",
    "cos_to_exp_rewrite_check",
    "spectral_derivative_matrix",
    "harmonic_oscillator",
    "grushin_demo",
]

_LEVEL_CAP = 240
_SHELL_BLOCK = 1 << 18  # shells x nodes entries per block of phases
_EDGE_DECAY_RTOL = 1e-11
_DENSE_ORACLE_CAP = 4096


# ---------------------------------------------------------------------------
# resolution heuristics keyed to the spectral content of the data


def _spectrum(field: GridField):
    """(forward FFT, |k|^2 grid) of the field, taken once per propagation."""
    return field.fft(), _k_squared(field)


def _spectral_scale(spectrum, a: float = 0.0) -> float:
    values, k2 = spectrum
    amp = np.abs(values)
    peak = amp.max()
    if peak == 0.0:
        return abs(a)
    k_eff = float(np.sqrt(k2[amp > 1e-13 * peak].max()))
    return k_eff + abs(a)


def _auto_level(spectrum, t, a=0.0) -> int:
    # quadrature must integrate exp(i*c*x) with c = |t| * k_eff to roundoff
    c = abs(t) * _spectral_scale(spectrum, a)
    level = max(12, int(1.6 * c) + 12)
    if level > _LEVEL_CAP:
        warnings.warn(
            f"the data ask for quadrature level {level}, above the cap of {_LEVEL_CAP}; "
            "the result may lose accuracy (pass level= explicitly to go past the cap)",
            stacklevel=4,
        )
        return _LEVEL_CAP
    return level


# ---------------------------------------------------------------------------
# the (s, rho) rule and the per-shell engine


def _shell_rule(d: int, level: int, p: float | None = None, a: float | None = None):
    """(s, a*rho, weights) for S^(d-1) (p None) or the ball weight (1-|w|^2)^p.

    s = w.k/|k| and rho = sqrt(1-|w|^2).  The shell sums are even in s, and
    u = (s^2, |w|^2-s^2, 1-|w|^2) is Dirichlet(1/2, (d-1)/2, p+1), so one
    Dirichlet probability rule, times the measure's mass, gives every
    (s, rho) pair: the sphere has no slack term, d = 1 no middle term,
    and without a field mass a the two merge.  rho is zero when a is None.
    """
    middle = [(d - 1) / 2.0] if d > 1 else []
    if p is None:
        alphas, mass = [0.5] + middle, sphere_area(d)
    else:
        alphas = [0.5] + ([(d - 1) / 2.0 + p + 1.0] if a is None else middle + [p + 1.0])
        mass = ball_moment((0,) * d, boundary_exponent=p)
    u, weights = _dirichlet_rule(alphas, level)
    s = np.sqrt(u[:, 0])
    rho = np.zeros_like(s) if a is None else a * np.sqrt(u[:, -1])
    return s, rho, weights * mass


def _bessel_jet(x, hyperbolic: bool):
    # J0'' = J1(x)/x - J0 and I0'' = I0 - I1(x)/x, with J1(x)/x, I1(x)/x -> 1/2
    first = i1(x) if hyperbolic else j1(x)
    ratio = np.divide(first, x, out=np.full_like(x, 0.5), where=x != 0.0)
    if hyperbolic:
        zeroth = i0(x)
        return zeroth, first, zeroth - ratio
    zeroth = j0(x)
    return zeroth, -first, ratio - zeroth


# the jets K(x), K'(x), K''(x) of each mass kernel; the plain wave's K = 1 has one
_KERNELS = {
    None: lambda x: (np.ones_like(x),),
    "cos": lambda x: (np.cos(x), -np.sin(x), -np.cos(x)),
    "cosh": lambda x: (np.cosh(x), np.sinh(x), np.cosh(x)),
    "j0": lambda x: _bessel_jet(x, hyperbolic=False),
    "i0": lambda x: _bessel_jet(x, hyperbolic=True),
}


def _shell_propagate(field, spectrum, t, rule, pref, m, kind, kernel=None):
    """Apply pref * sum_j a_j t^j g^(j)(t) per |k|^2 shell, g(tau) = sum w K(tau rho) cos(tau |k| s).

    a_j is _ladder_row(m, kind == "sin") (sine: times t).  With x = t|k|,
    t^j g^(j)(t) = sum_l C(j,l) sum w (t rho)^l K^(l)(t rho) (x s)^(j-l) cos(x s + (j-l) pi/2).
    """
    s, rho, weights = rule
    row = _ladder_row(m, kind == "sin")
    values, k2_grid = spectrum
    k2, inverse = np.unique(k2_grid, return_inverse=True)
    x = t * np.sqrt(k2)
    jets = _KERNELS[kernel](t * rho)
    # column n: w s^n sum_l a_(n+l) C(n+l, l) (t rho)^l K^(l), signed as cos(. + n pi/2)
    cols = [(-1) ** ((n + 1) // 2) * weights * s ** n
            * sum(row[n + l] * math.comb(n + l, l) * (t * rho) ** l * jets[l]
                  for l in range(min(len(jets), len(row) - n)))
            for n in range(len(row))]
    parts = [(trig, np.stack(cols[odd::2], axis=1), np.arange(odd, len(row), 2))
             for odd, trig in enumerate((np.cos, np.sin)) if cols[odd::2]]
    multiplier = np.empty_like(x)
    step = max(1, _SHELL_BLOCK // len(s))
    for start in range(0, len(x), step):
        xb = x[start : start + step]
        phase = np.outer(xb, s)
        multiplier[start : start + step] = sum(
            ((trig(phase) @ col) * xb[:, None] ** power).sum(axis=1) for trig, col, power in parts)
    if kind == "sin":
        multiplier *= t
    return field.like(np.fft.ifftn(values * (pref * multiplier)[inverse.reshape(field.shape)]))


# ---------------------------------------------------------------------------
# wave propagators

# dimension -> (ball exponent p; mass kernel; prefactor; ladder depth m) of
# the mass-a routes, whose kernel identities stop at three axes
_MASS_ROUTES = {
    1: (0.0, "j0", 0.5, 1),
    2: (-0.5, "cos", 1.0 / (2.0 * np.pi), 1),
    3: (0.0, "j0", 1.0 / (4.0 * np.pi), 2),
}
_HYPERBOLIC = {"j0": "i0", "cos": "cosh"}


def _propagate(field, t, level, kind, a=None, hyperbolic=False):
    """The _MASS_ROUTES entry for a mass a, else the ascent's route in R^d, m = d // 2.

    That is S^(d-1) with prefactor (2 pi)^(-m)/2 for odd d (S^0 needs no
    level), the p = -1/2 ball with (2 pi)^(-m) for even d, and the flat
    interval for the 1-D sine.  Every grid route enters here, so level, t
    and the field samples are checked here, once.
    """
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    if level is not None and not (isinstance(level, numbers.Integral) and level >= 0):
        raise ValueError(f"level must be None or a non-negative integer, got {level!r}")
    d = field.dim
    if a is not None and d not in _MASS_ROUTES:
        raise ValueError(f"the mass routes support at most three axes, got a {d}-axis field")
    _checked_time(t)
    _finite_values(field)
    if t == 0.0:
        return field.like(field.values.copy() if kind == "cos" else np.zeros_like(field.values))
    assert_no_wrap(field, t)
    if a is not None:
        p, kernel, pref, m = _MASS_ROUTES[d]
    elif (d, kind) == (1, "sin"):
        p, kernel, pref, m = 0.0, None, 0.5, 1
    else:
        m = d // 2
        p, kernel, pref = (None if d % 2 else -0.5), None, (2.0 * math.pi) ** (-m) / (1 + d % 2)
    spectrum = _spectrum(field)
    if level is None:
        level = _auto_level(spectrum, t, a or 0.0) if m else 0
    return _shell_propagate(field, spectrum, t, _shell_rule(d, level, p, a), pref, m, kind,
                            _HYPERBOLIC[kernel] if hyperbolic else kernel)


def wave2d_poisson(field: GridField, t: float, level: int | None = None, kind: str = "cos") -> GridField:
    """Disk average with the inverse square root rim weight, then d/dt.

    u = (1/2pi) d/dt [ t * avg_{|w|<1} f(x + t w) / sqrt(1-|w|^2) ].
    """
    if field.dim != 2:
        raise ValueError("wave2d_poisson expects a two dimensional field")
    return _propagate(field, t, level, kind)


def wave3d_kirchhoff(field: GridField, t: float, level: int | None = None, kind: str = "cos") -> GridField:
    """Sphere average route: u = (1/4pi) d/dt [ t * avg_{|w|=1} f(x + t w) ]."""
    if field.dim != 3:
        raise ValueError("wave3d_kirchhoff expects a three dimensional field")
    return _propagate(field, t, level, kind)


def wave_general(field: GridField, t: float, level: int | None = None, kind: str = "cos") -> GridField:
    """Wave propagator in any number of dimensions through the derivative ladder.

    One dimension degenerates to the two point average (cosine) or the
    flat interval average (sine); R^d averages over S^(d-1) for odd d and
    the (1-|w|^2)^(-1/2) ball for even d, with the ladder of depth d // 2.
    """
    return _propagate(field, t, level, kind)


def _mass(a: float, damped: bool) -> float:
    a = float(a)
    if not np.isfinite(a):
        raise ValueError("mass parameter must be a finite real")
    if not damped and a < 0:
        raise ValueError("mass parameter must be nonnegative")
    return a


def klein_gordon(
    field: GridField,
    t: float,
    a: float,
    level: int | None = None,
    kind: str = "cos",
) -> GridField:
    """Propagator of the symbol sqrt(|k|^2 + a^2) via mass weighted averages."""
    return _propagate(field, t, level, kind, _mass(a, damped=False))


def damped_wave(
    field: GridField,
    t: float,
    a: float,
    level: int | None = None,
    kind: str = "cos",
) -> GridField:
    """Propagator of sqrt(|k|^2 - a^2): hyperbolic kernels below the cutoff."""
    return _propagate(field, t, level, kind, _mass(a, damped=True), hyperbolic=True)


# ---------------------------------------------------------------------------
# scalar identity checks


def bessel_kernel_check(theta: float) -> dict:
    """Level-64 interval rule against pi*J0: the kernel behind the mass-a averages."""
    rule = build_ball_rule(1, 64)
    value = complex(rule.integrate(np.cos(theta * rule.nodes[:, 0]))).real
    reference = float(np.pi * j0(theta))
    return {
        "quadrature_value": value,
        "bessel_reference": reference,
        "gap": abs(value - reference),
        "rule_size": rule.nodes.shape[0],
    }


def cos_to_exp_rewrite_check(scalars, t: float, rule=None) -> dict:
    """Product-of-cosines average versus its one sided exponential rewrite.

    The two agree exactly when the rule is invariant under per coordinate
    sign flips; an asymmetric rule breaks the identity, which is what the
    gap reports.  The default rule is the level-10 ball rule.
    """
    scalars = np.atleast_1d(np.asarray(scalars, dtype=float))
    if rule is None:
        rule = build_ball_rule(len(scalars), 10)
    nodes = np.asarray(rule.nodes, dtype=float)
    weights = np.asarray(rule.weights)
    if nodes.shape[1] != len(scalars):
        raise ValueError("rule dimension does not match the scalar family")
    phases = t * nodes * scalars[None, :]
    cos_route = complex(np.sum(weights * np.cos(phases).prod(axis=1))).real
    exp_route = complex(np.sum(weights * np.exp(1j * phases).prod(axis=1)))
    return {
        "cosine_route": cos_route,
        "exponential_route": exp_route.real,
        "gap": abs(cos_route - exp_route.real),
        "imaginary_residual": abs(exp_route.imag),
    }


# ---------------------------------------------------------------------------
# grid operators with non commuting squares


def spectral_derivative_matrix(n: int, length: float) -> np.ndarray:
    """Dense Hermitian matrix of (1/i) d/dx on the length-periodic grid of n >= 1 points."""
    if n < 1:
        raise ValueError(f"grid size n must be at least 1, got {n}")
    if not 0.0 < length < math.inf:
        raise ValueError(f"box length must be positive and finite, got {length}")
    dft = np.fft.fft(np.eye(n), axis=0)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    mat = dft.conj().T @ (k[:, None] * dft) / n
    return 0.5 * (mat + mat.conj().T)


def _hermite_state(n: int, excited: bool) -> GridField:
    """The oscillator's ground (or first excited) Hermite function on n points of [-8, 8)."""
    box = GridField(np.zeros(n), (16.0,), (-8.0,))
    x = box.axis_coordinates(0)
    gauss = np.exp(-(x ** 2) / 2.0)
    return box.like((x * gauss if excited else gauss).astype(complex))


def _oscillator_pair(field: GridField):
    """A = (1/i) d/dx and B = x on the field's periodic box, as dense matrices."""
    x = field.axis_coordinates(0)
    return spectral_derivative_matrix(field.shape[0], field.lengths[0]), np.diag(x.astype(complex))


def _grushin_field(n: int) -> GridField:
    """exp(cos x1) on the n x n box [-pi, pi) x [0, 2pi), constant along x2."""
    box = GridField(np.zeros((n, n)), (2.0 * np.pi, 2.0 * np.pi), (-np.pi, 0.0))
    x1 = box.axis_coordinates(0)
    return box.like(np.repeat(np.exp(np.cos(x1))[:, None], n, axis=1).astype(complex))


def _oracle_drive(ops, vec, t: float, **drive):
    """The dense oracle, cos_noncomm held against it, and the relative gap to it.

    ops is the ordered operator list; drive holds cos_noncomm's options
    (tol, depth bounds, richardson).  Returns (u, report, gap).
    """
    reference = cos_sqrt_sum_oracle(ops, t, vec)
    u, report = cos_noncomm(ops, vec, t, reference=reference, **drive)
    return u, report, relative_l2_gap(u, reference)


def harmonic_oscillator(field: GridField, t: float, tol: float = 1e-6, m0: int = 8, m_cap: int = 512):
    """cos(t sqrt(A^2 + B^2)) for A = (1/i) d/dx and B = x on a periodic box.

    The splitting series needs the data to die out at the box edge, since
    B breaks periodicity there; data above 1e-12 of the peak at the edge
    is refused.  Returns the propagated field, the refinement report, and
    diagnostics against the dense eigensolver oracle.
    """
    if field.dim != 1:
        raise ValueError("harmonic_oscillator expects a one dimensional field")
    v = _finite_values(field)
    peak = float(np.abs(v).max())
    edge = float(max(abs(v[0]), abs(v[-1])))
    if peak == 0.0:
        raise ValueError("initial data is identically zero")
    if edge > _EDGE_DECAY_RTOL * peak:
        raise ValueError(
            f"initial data at the box edge is {edge / peak:.2e} of the peak; "
            "the position operator needs near-vanishing data there"
        )
    a_mat, b_mat = _oscillator_pair(field)
    u, report, gap = _oracle_drive([a_mat, b_mat], v, t, tol=tol, m0=m0, m_cap=m_cap)
    return field.like(u), report, {"oracle_gap": gap, "verdict": report.verdict}


def grushin_demo(field: GridField, t: float, tol: float = 1e-8):
    """Splitting series for A = (1/i) d/dx1 and B = x1 * (1/i) d/dx2.

    The squares do not commute, yet fields constant along x2 are
    annihilated by B, so the series collapses to the one dimensional
    propagator in x1 for every refinement stage; the diagnostics expose
    that collapse together with the dense oracle gap.  The depth walk
    stops at m = 256.
    """
    if field.dim != 2:
        raise ValueError("grushin_demo expects a two dimensional field")
    vec = _finite_values(field).reshape(-1)
    n1, n2 = field.shape
    if n1 * n2 > _DENSE_ORACLE_CAP:
        raise ValueError("grid too large for the dense oracle; keep n1*n2 <= 4096")
    x1 = field.axis_coordinates(0)
    d1 = spectral_derivative_matrix(n1, field.lengths[0])
    d2 = spectral_derivative_matrix(n2, field.lengths[1])
    a_mat = np.kron(d1, np.eye(n2))
    b_mat = np.kron(np.diag(x1.astype(complex)), d2)
    u, report, gap = _oracle_drive([a_mat, b_mat], vec, t, tol=tol, m_cap=256)
    diagnostics = {
        "oracle_gap": gap,
        "b_action_residual": float(np.linalg.norm(b_mat @ vec) / max(np.linalg.norm(vec), 1e-300)),
        "verdict": report.verdict,
    }
    if diagnostics["b_action_residual"] < 1e-12:
        # data invariant under B: compare against the pure 1-d propagator
        profile = field.values[:, 0]
        k1 = field.wavenumbers(0)
        one_d = np.fft.ifft(np.cos(t * np.abs(k1)) * np.fft.fft(profile))
        collapsed = np.repeat(one_d[:, None], n2, axis=1).reshape(-1)
        diagnostics["collapse_gap"] = relative_l2_gap(u, collapsed)
    return field.like(u.reshape(field.shape)), report, diagnostics
