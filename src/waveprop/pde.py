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
g(tau) = sum_i w_i cos(tau |k| s_i).  The ladder d/dtau (1/tau d/dtau)^(m-1)
[tau^(2m-1) g] is sum_j a_j t^j g^(j)(t) at tau = t, with the row a_j of
ascent._ladder_row, and t^j g^(j)(t) = sum_i w_i (x s_i)^j cos(x s_i + j pi/2)
with x = t|k|, so a shell costs one cos and one sin per node, and no
stencil or fit enters.

A mass is one more axis (Hadamard's method of descent, Lectures on
Cauchy's Problem, 1923): cos(t sqrt(|k|^2 + a^2)) is the massless
multiplier of R^(d+1) at the frequency (k, a).  So klein_gordon runs the
massless route of R^(d+1) on the field's own spectrum, each |k|^2 shell
shifted by a^2.  damped_wave shifts by -a^2: below the cutoff
x = t sqrt(|k|^2 - a^2) is imaginary, and the ladder, even in x,
continues to cosh (sinh(y)/y for the sine), of which the real part is kept.
Every grid route, massless or not, in any number of axes, is the ascent's
(see _propagate).

Long times are halved, as the ascent halves them.  The level grows like
1.6 t|K| for the data's largest frequency |K|; past _LEVEL_CAP the shell
multipliers are taken at tau = t/2^k, the fewest halvings that fit, and
doubled back k times per shell by C(2 tau) = 2 C^2 - 1, S(2 tau) = 2 S C
(Serbin & Blalock, SIAM J. Sci. Stat. Comput. 1, 1980), which hold for
the imaginary x of the damped shells too.  The field then takes one
inverse FFT.  Data whose level fits the cap take no halving.

The multipliers are real functions of |k|^2, so the shells and the
transforms are those of the real half spectrum (fields._half_spectra):
complex data run as two real parts with one multiplier, and real data
stay real.
"""

from __future__ import annotations

import math

import numpy as np

from .ascent import _ladder_row
from .fields import GridField, _finite_values, _from_half_spectra, _half_spectra, assert_no_wrap, relative_l2_gap
from .operators import _checked_time, _cos_sqrt, _eigh, cos_sqrt_sum_oracle
from .quadrature import _dirichlet_rule, ball_moment, build_ball_rule, sphere_area
from .trotter import _AxisDFT, _cos_known_bases

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
_TOEPLITZ_CAP = 4096  # grid points: the splitting holds N (order+1)^2 Toeplitz entries per factor


# ---------------------------------------------------------------------------
# resolution heuristics keyed to the spectral content of the data


def _spectral_scale(spectrum, shift: float) -> float:
    """The largest |K| of the data, |K|^2 = |k|^2 + |shift|: a mass a is the frequency a along one more axis.

    spectrum is _half_spectra's pair; the sum of the parts' moduli bounds
    the full spectrum's at k and at -k.
    """
    spectra, k2 = spectrum
    amp = np.abs(spectra).sum(axis=0)
    peak = amp.max()
    k2_eff = float(k2[amp > 1e-13 * peak].max()) if peak else 0.0
    return math.sqrt(k2_eff + abs(shift))


def _halvings(spectrum, t, shift) -> tuple[int, int]:
    """(k, level): the fewest halvings k >= 0 of t whose quadrature level fits _LEVEL_CAP, and that level.

    The level integrates exp(i*c*x), c = |t| |K| / 2^k, to roundoff.
    """
    c = abs(t) * _spectral_scale(spectrum, shift)
    k = 0
    while (level := int(1.6 * c / 2 ** k) + 12) > _LEVEL_CAP:
        k += 1
    return k, level


# ---------------------------------------------------------------------------
# the s rule and the per-shell engine


def _shell_rule(d: int, level: int, p: float | None = None):
    """(s, weights) for S^(d-1) (p None) or the ball weight (1-|w|^2)^p in R^d.

    s = w.k/|k|.  The shell sums are even in s, and s^2 is
    Beta(1/2, (d-1)/2) on the sphere, Beta(1/2, (d-1)/2 + p + 1) on the
    ball, so one Dirichlet probability rule, times the measure's mass,
    gives every s (S^0 has the single node s = 1).
    """
    rest = (d - 1) / 2.0 + (0.0 if p is None else p + 1.0)
    alphas = [0.5] + ([rest] if rest else [])
    mass = sphere_area(d) if p is None else ball_moment((0,) * d, boundary_exponent=p)
    u, weights = _dirichlet_rule(alphas, level)
    return np.sqrt(u[:, 0]), weights * mass


def _shell_multiplier(k2, tau, rule, pref, m, kind):
    """pref * sum_j a_j tau^j g^(j)(tau) per sorted shell |K|^2 = k2, g(tau) = sum w cos(tau |K| s).

    a_j is _ladder_row(m, kind == "sin") (sine: times tau).  With x = tau|K|,
    tau^j g^(j)(tau) = sum w (x s)^j cos(x s + j pi/2).  Shells a negative
    shift takes below zero lead k2: only there is x imaginary and the
    arithmetic complex, continued to cosh (sinh(y)/y), of which the real
    part is kept.
    """
    s, weights = rule
    row = _ladder_row(m, kind == "sin")
    # column n: a_n w s^n, signed as cos(. + n pi/2)
    cols = [(-1) ** ((n + 1) // 2) * row[n] * weights * s ** n for n in range(len(row))]
    parts = [(trig, np.stack(cols[odd::2], axis=1), np.arange(odd, len(row), 2))
             for odd, trig in enumerate((np.cos, np.sin)) if cols[odd::2]]
    below = int(np.searchsorted(k2, 0.0))
    multiplier = np.empty(len(k2))
    step = max(1, _SHELL_BLOCK // len(s))
    for lo, hi in ((0, below), (below, len(k2))):
        for start in range(lo, hi, step):
            k2b = k2[start : min(start + step, hi)]
            xb = tau * np.sqrt(k2b if k2b[0] >= 0.0 else k2b.astype(complex))
            phase = np.outer(xb, s)
            multiplier[start : start + len(xb)] = sum(
                ((trig(phase) @ col) * xb[:, None] ** power).sum(axis=1) for trig, col, power in parts).real
    return pref * (multiplier * (tau if kind == "sin" else 1.0))


# ---------------------------------------------------------------------------
# wave propagators


def _route(dim: int, kind: str):
    """(p, pref, m) of the ascent's route in R^dim: the rule's ball exponent (None: sphere), prefactor, ladder depth."""
    if (dim, kind) == (1, "sin"):
        return 0.0, 0.5, 1
    m = dim // 2
    return (None if dim % 2 else -0.5), (2.0 * math.pi) ** (-m) / (1 + dim % 2), m


def _propagate(field, t, kind, shift=None):
    """The ascent's route in R^D, m = D // 2: D = d, or D = d + 1 with the shells shifted by shift = +-a^2.

    That is S^(D-1) with prefactor (2 pi)^(-m)/2 for odd D (S^0 needs no
    level), the p = -1/2 ball with (2 pi)^(-m) for even D, and the flat
    interval for the massless 1-D sine.  Past _LEVEL_CAP the multipliers
    are taken at t/2^k and doubled back per shell.  Every grid route enters
    here, so t and the field samples are checked here, once.
    """
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    _checked_time(t)
    _finite_values(field)
    if t == 0.0:
        return field.like(field.values.copy() if kind == "cos" else np.zeros_like(field.values))
    assert_no_wrap(field, t)
    dim, shift = field.dim + (shift is not None), shift or 0.0
    p, pref, m = _route(dim, kind)
    spectrum = _half_spectra(field)
    spectra, k2_grid = spectrum
    k2, inverse = np.unique(k2_grid, return_inverse=True)
    k2 = k2 + shift
    halvings, level = _halvings(spectrum, t, shift) if m else (0, 0)
    tau = t / 2 ** halvings
    multiplier = _shell_multiplier(k2, tau, _shell_rule(dim, level, p), pref, m, kind)
    if halvings:
        # C(2 tau) = 2 C^2 - 1 and S(2 tau) = 2 S C, shell by shell (the cosine in its own route: S^0 in 1-D)
        p, pref, m = _route(dim, "cos")
        sin = multiplier
        cos = multiplier if kind == "cos" else _shell_multiplier(k2, tau, _shell_rule(dim, level, p), pref, m, "cos")
        for _ in range(halvings):
            sin, cos = 2.0 * sin * cos, 2.0 * cos * cos - 1.0
        multiplier = cos if kind == "cos" else sin
    return _from_half_spectra(field, spectra * multiplier[inverse.reshape(k2_grid.shape)])


def wave2d_poisson(field: GridField, t: float, kind: str = "cos") -> GridField:
    """Disk average with the inverse square root rim weight, then d/dt.

    u = (1/2pi) d/dt [ t * avg_{|w|<1} f(x + t w) / sqrt(1-|w|^2) ].
    """
    if field.dim != 2:
        raise ValueError("wave2d_poisson expects a two dimensional field")
    return _propagate(field, t, kind)


def wave3d_kirchhoff(field: GridField, t: float, kind: str = "cos") -> GridField:
    """Sphere average route: u = (1/4pi) d/dt [ t * avg_{|w|=1} f(x + t w) ]."""
    if field.dim != 3:
        raise ValueError("wave3d_kirchhoff expects a three dimensional field")
    return _propagate(field, t, kind)


def wave_general(field: GridField, t: float, kind: str = "cos") -> GridField:
    """Wave propagator in any number of dimensions through the derivative ladder.

    One dimension degenerates to the two point average (cosine) or the
    flat interval average (sine); R^d averages over S^(d-1) for odd d and
    the (1-|w|^2)^(-1/2) ball for even d, with the ladder of depth d // 2.
    """
    return _propagate(field, t, kind)


def _mass(a: float, damped: bool) -> float:
    a = float(a)
    if not np.isfinite(a):
        raise ValueError("mass parameter must be a finite real")
    if not damped and a < 0:
        raise ValueError("mass parameter must be nonnegative")
    return a


def klein_gordon(field: GridField, t: float, a: float, kind: str = "cos") -> GridField:
    """Propagator of the symbol sqrt(|k|^2 + a^2): the massless route of R^(d+1) at (k, a)."""
    return _propagate(field, t, kind, _mass(a, damped=False) ** 2)


def damped_wave(field: GridField, t: float, a: float, kind: str = "cos") -> GridField:
    """Propagator of sqrt(|k|^2 - a^2): klein_gordon's route with -a^2, cosh below the cutoff."""
    return _propagate(field, t, kind, -_mass(a, damped=True) ** 2)


# ---------------------------------------------------------------------------
# scalar identity checks


def bessel_kernel_check(theta: float) -> dict:
    """Level-64 interval rule against pi*J0: the circle's plane-wave average, read on one axis.

    The rule is Gauss-Chebyshev on (1-w^2)^(-1/2), the weight of S^1 in
    s = w.k/|k| (see _shell_rule), and the reference pi*J0(theta) is the
    power series sum_k (-theta^2/4)^k / (k!)^2, summed by math.fsum; its
    rounding is about eps e^|theta|, so it serves moderate theta.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    rule = build_ball_rule(1, 64)
    value = complex(rule.integrate(np.cos(theta * rule.nodes[:, 0]))).real
    terms, q = [1.0], -0.25 * theta * theta
    for k in range(1, 40 + int(2.0 * abs(theta))):
        terms.append(terms[-1] * q / (k * k))
    reference = math.pi * math.fsum(terms)
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
    """A = (1/i) d/dx and B = x on the field's periodic box, as dense matrices: the oracle's input."""
    x = field.axis_coordinates(0)
    return spectral_derivative_matrix(field.shape[0], field.lengths[0]), np.diag(x.astype(complex))


def _grushin_field(n: int) -> GridField:
    """exp(cos x1) on the n x n box [-pi, pi) x [0, 2pi), constant along x2."""
    box = GridField(np.zeros((n, n)), (2.0 * np.pi, 2.0 * np.pi), (-np.pi, 0.0))
    x1 = box.axis_coordinates(0)
    return box.like(np.repeat(np.exp(np.cos(x1))[:, None], n, axis=1).astype(complex))


def harmonic_oscillator(field: GridField, t: float, tol: float = 1e-6, m0: int = 1, m_cap: int = 512):
    """cos(t sqrt(A^2 + B^2)) for A = (1/i) d/dx and B = x on a periodic box.

    The splitting series needs the data to die out at the box edge, since
    B breaks periodicity there; data above 1e-12 of the peak at the edge
    is refused.  A acts by the FFT and B pointwise, so the walk diagonalizes
    nothing.  Returns the propagated field, the refinement report, and
    diagnostics against the dense eigensolver oracle of A^2 + B^2.
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
    reference = cos_sqrt_sum_oracle(_oscillator_pair(field), t, v)
    factors = [(field.wavenumbers(0), _AxisDFT(field.shape, 0)), (field.axis_coordinates(0), None)]
    u, report = _cos_known_bases(factors, v, t, tol, m0, m_cap, reference=reference)
    return field.like(u), report, {"oracle_gap": relative_l2_gap(u, reference), "verdict": report.verdict}


def _grushin_oracle(field: GridField, t: float) -> np.ndarray:
    """cos(t sqrt(A^2 + B^2)) applied to the field by blocks, flattened.

    In the Fourier basis of x2, A^2 + B^2 = D1^2 (x) I + X1^2 (x) D2^2 is
    the direct sum over k2 of the n1 x n1 blocks D1^2 + k2^2 X1^2, so one
    validated eigendecomposition of that stack replaces one of the N x N sum.
    """
    d1 = spectral_derivative_matrix(field.shape[0], field.lengths[0])
    x1 = field.axis_coordinates(0)
    blocks = d1 @ d1 + np.multiply.outer(field.wavenumbers(1) ** 2, np.diag(x1 * x1))
    w, v = _eigh(blocks)
    spectrum2 = np.fft.fft(field.values, axis=1, norm="ortho").T  # row j: the field at the j-th k2
    coeffs = (np.swapaxes(v.conj(), -1, -2) @ spectrum2[:, :, None])[..., 0]
    out = (v @ (_cos_sqrt(w, t) * coeffs)[:, :, None])[..., 0]
    return np.fft.ifft(out.T, axis=1, norm="ortho").reshape(-1)


def grushin_demo(field: GridField, t: float, tol: float = 1e-8):
    """Splitting series for A = (1/i) d/dx1 and B = x1 * (1/i) d/dx2.

    The squares do not commute, yet fields constant along x2 are
    annihilated by B, so the series collapses to the one dimensional
    propagator in x1 for every refinement stage; the diagnostics expose
    that collapse together with the gap to the oracle, which diagonalizes
    A^2 + B^2 by blocks (_grushin_oracle).  A and B act by FFTs along x1
    and x2, so no N x N operator is built.  The depth walk stops at m = 256.
    """
    if field.dim != 2:
        raise ValueError("grushin_demo expects a two dimensional field")
    v = _finite_values(field)
    n1, n2 = field.shape
    if n1 * n2 > _TOEPLITZ_CAP:
        raise ValueError(
            f"grid too large for the splitting's N (order+1)^2 Toeplitz stacks; keep n1*n2 <= {_TOEPLITZ_CAP}")
    _checked_time(t)
    x1, k2 = field.axis_coordinates(0), field.wavenumbers(1)
    reference = _grushin_oracle(field, t)
    factors = [(np.repeat(field.wavenumbers(0), n2), _AxisDFT(field.shape, 0)),
               (np.outer(x1, k2).reshape(-1), _AxisDFT(field.shape, 1))]
    u, report = _cos_known_bases(factors, v.reshape(-1), t, tol, 1, 256, reference=reference)
    if not np.any(v.imag):
        u = u.real  # A^2 + B^2 is real, so real data stay real: the imaginary part is rounding
    b_vec = x1[:, None] * np.fft.ifft(k2 * np.fft.fft(v, axis=1), axis=1)
    diagnostics = {
        "oracle_gap": relative_l2_gap(u, reference),
        "b_action_residual": float(np.linalg.norm(b_vec) / max(np.linalg.norm(v), 1e-300)),
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
