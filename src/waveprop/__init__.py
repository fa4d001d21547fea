"""Operator wave propagators from one dimensional cosines.

The package evaluates cos(t sqrt(A1^2 + ... + An^2)) and its sine
companion three independent ways: commuting families through sphere and
ball averages, taken on the simplex, with a derivative ladder; non
commuting pairs through a splitting series in the Trotter limit; and
periodic grids through kernel averaging, each validated against spectral
oracles.

Imports are lazy so the command line entry point can pin the BLAS thread
count before numpy initialises its pools.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # operators
    "HermitianOperator": "operators",
    "SpectralDecomposition": "operators",
    "as_matrix": "operators",
    "cos_sqrt_sum_oracle": "operators",
    "sinc_sqrt_sum_oracle": "operators",
    "random_hermitian": "operators",
    "random_state": "operators",
    # quadrature
    "SphereRule": "quadrature",
    "BallRule": "quadrature",
    "build_sphere_rule": "quadrature",
    "build_ball_rule": "quadrature",
    "dirichlet_moment": "quadrature",
    "ball_moment": "quadrature",
    "dirichlet_moment_double_factorial": "quadrature",
    "gamma_duplication_check": "quadrature",
    "sphere_area": "quadrature",
    "stable_sum": "quadrature",
    # commutative ascent
    "CommutingFamily": "ascent",
    "cos_ascent": "ascent",
    "sin_ascent": "ascent",
    "transmutation_check": "ascent",
    "product_heat_expansion_check": "ascent",
    # splitting series
    "ConvergenceReport": "trotter",
    "taylor_series_build": "trotter",
    "fm_evaluate": "trotter",
    "fm_evaluate_q": "trotter",
    "sin_fm_evaluate": "trotter",
    "cos_noncomm": "trotter",
    "cos_noncomm_q": "trotter",
    "sin_noncomm": "trotter",
    "taylor_limit_check": "trotter",
    "fm_quadrature_crosscheck": "trotter",
    # grid fields
    "GridField": "fields",
    "wave_symbol": "fields",
    "klein_gordon_symbol": "fields",
    "damped_symbol": "fields",
    "spectral_wave_reference": "fields",
    "gaussian_bump": "fields",
    "effective_support_radius": "fields",
    "relative_l2_gap": "fields",
    "assert_no_wrap": "fields",
    # pde lab
    "wave_general": "pde",
    "wave2d_poisson": "pde",
    "wave3d_kirchhoff": "pde",
    "klein_gordon": "pde",
    "damped_wave": "pde",
    "bessel_kernel_check": "pde",
    "cos_to_exp_rewrite_check": "pde",
    "spectral_derivative_matrix": "pde",
    "harmonic_oscillator": "pde",
    "grushin_demo": "pde",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
