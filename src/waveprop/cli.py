"""Command line entry point.

Every subcommand prints one deterministic JSON report to stdout (sorted
keys, no timings, seed echoed) and returns exit code 0 when all gaps sit
inside their tolerances, 1 when a check fails, and 2 on usage or parse
problems.  Wall-clock timings go to stderr so identical configurations
produce byte-identical artifacts.  The BLAS thread count is pinned from
--threads before numpy loads; the default of one thread keeps reductions
in a fixed order on every machine.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads(argv) -> None:
    # runs before any numpy import; bad values fall through to argparse
    count = "1"
    for i, token in enumerate(argv):
        if token == "--threads" and i + 1 < len(argv):
            count = argv[i + 1]
        elif token.startswith("--threads="):
            count = token.split("=", 1)[1]
    try:
        if int(count) < 1:
            return
    except ValueError:
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, count)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be strictly positive")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _resolve_out(out_arg, subcommand: str, default_ext: str):
    """--out takes 'csv', 'json', or an explicit path; bare formats land
    in $WAVEPROP_OUT (default: current directory)."""
    if not out_arg:
        return None, None
    if out_arg in ("csv", "json"):
        base = os.environ.get("WAVEPROP_OUT", ".")
        return os.path.join(base, f"{subcommand}_output.{out_arg}"), out_arg
    ext = os.path.splitext(out_arg)[1].lstrip(".").lower()
    return out_arg, ext if ext in ("csv", "json") else default_ext


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveprop",
        description="Operator wave propagators from one dimensional cosines.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="fixture seed (default 0)")
    common.add_argument("--out", default=None, help="artifact: 'csv', 'json', or a path")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="BLAS thread count (default 1, keeps runs byte-stable)")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", parents=[common], help="run the named verification suites")
    p.add_argument("--check", action="append", default=None, help="run only this check (repeatable)")
    p.add_argument("--fixture", default=None, help="matrix fixture JSON to fold into the run")
    p.add_argument("--list-checks", action="store_true", help="enumerate checks and exit")

    p = sub.add_parser("ascent", parents=[common], help="commuting-family cosine via quadrature ladder")
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--level", type=_positive_int, default=None)
    p.add_argument("--parity", choices=("even", "odd"), default=None,
                   help="family size parity when generating the fixture")
    p.add_argument("--count", type=_positive_int, default=None, help="number of operators")
    p.add_argument("--dim", type=_positive_int, default=3)
    p.add_argument("--fixture", default=None, help="commuting-family fixture JSON")

    p = sub.add_parser("noncomm", parents=[common], help="splitting-series propagator with refinement")
    p.add_argument("--t", type=float, default=0.3)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--m0", type=_positive_int, default=8)
    p.add_argument("--mcap", type=_positive_int, default=512)
    p.add_argument("--q", type=_positive_int, default=2, help="number of operators")
    p.add_argument("--dim", type=_positive_int, default=4)
    p.add_argument("--richardson", action="store_true")
    p.add_argument("--fixture", default=None, help="hermitian-pair fixture JSON")

    for name, help_text in (
        ("wave2d", "disk-average route vs spectral reference"),
        ("wave3d", "sphere-average route vs spectral reference"),
        ("kg", "mass-kernel route vs spectral reference"),
        ("damped", "hyperbolic continuation vs spectral reference"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--grid", type=_positive_int, default=None)
        p.add_argument("--t", type=float, default=0.4 if name == "wave3d" else 0.5)
        p.add_argument("--level", type=_positive_int, default=None)
        p.add_argument("--sigma", type=_positive_float, default=None, help="bump width")
        p.add_argument("--tol", type=_positive_float, default=1e-3)
        if name in ("kg", "damped"):
            p.add_argument("--a", type=float, default=1.0 if name == "kg" else 0.5)
            p.add_argument("--dim", type=_positive_int, choices=(1, 2, 3), default=1)

    p = sub.add_parser("oscillator", parents=[common], help="derivative-plus-position pair vs dense oracle")
    p.add_argument("--grid", type=_positive_int, default=64)
    p.add_argument("--t", type=float, default=0.2)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--m0", type=_positive_int, default=8)
    p.add_argument("--mcap", type=_positive_int, default=512)
    p.add_argument("--excited", action="store_true", help="first excited state instead of the ground state")

    p = sub.add_parser("grushin", parents=[common], help="degenerate pair demo vs dense oracle")
    p.add_argument("--grid", type=_positive_int, default=16)
    p.add_argument("--t", type=float, default=0.2)
    p.add_argument("--tol", type=_positive_float, default=1e-8)

    p = sub.add_parser("rule", parents=[common], help="export a quadrature rule")
    p.add_argument("--kind", choices=("sphere", "ball"), default="ball")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--level", type=_positive_int, required=True)
    p.add_argument("--exponent", type=float, default=-0.5, help="ball boundary weight exponent")
    p.add_argument("--method", choices=("auto", "tensor", "montecarlo"), default="auto")
    p.add_argument("--samples", type=_positive_int, default=200_000)

    p = sub.add_parser("fixture", parents=[common], help="generate a reproducible fixture file")
    p.add_argument("--kind", choices=("hermitian-pair", "commuting-family"), default="hermitian-pair")
    p.add_argument("--dim", type=_positive_int, default=4)
    p.add_argument("--count", type=_positive_int, default=3)
    p.add_argument("--norm", type=_positive_float, default=1.0)

    return parser


def _emit(report: dict, out_path, artifact_writer) -> None:
    from .serialization import dump_json

    if out_path is not None and artifact_writer is not None:
        artifact_writer(out_path)
        report["artifact"] = out_path
    sys.stdout.write(dump_json(report))


def _box_fixture(args, dim_override=None):
    import math

    from .fields import gaussian_bump

    dim = dim_override if dim_override is not None else getattr(args, "dim", 2)
    defaults = {1: 256, 2: 128, 3: 32}
    n = args.grid or defaults[dim]
    sigma = args.sigma or (0.35 if dim == 3 else 0.25)
    box = 2.0 * math.pi
    return gaussian_bump((n,) * dim, (box,) * dim, (box / 2.0,) * dim, sigma), n, sigma


def _write_field_artifact(field, t, seed, inputs):
    from .serialization import dump_json, field_to_csv, field_to_json

    def writer(path):
        ext = os.path.splitext(path)[1].lstrip(".").lower()
        if ext == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(f"# waveprop field artifact seed={seed}\n")
                field_to_csv(field, fh, t=t)
        else:
            payload = {"field": field_to_json(field, t=t), "seed": seed, "inputs": inputs}
            dump_json(payload, path)

    return writer


def _cmd_verify(args) -> int:
    from .serialization import dump_json
    from .verify import list_checks, run_checks

    if args.list_checks:
        for name, desc in list_checks():
            sys.stdout.write(f"{name}: {desc}\n")
        return 0
    try:
        report = run_checks(names=args.check, seed=args.seed, fixture=args.fixture)
    except KeyError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    out_path, _ = _resolve_out(args.out, "verify", "json")
    _emit(report, out_path, lambda path: dump_json(report, path))
    return 0 if report["passed"] else 1


def _cmd_ascent(args) -> int:
    import numpy as np

    from .ascent import CommutingFamily, cos_ascent
    from .operators import cos_sqrt_sum_oracle
    from .serialization import commuting_family_fixture, fixture_from_json, load_json_file, matrix_to_json

    if args.fixture:
        decoded = fixture_from_json(load_json_file(args.fixture), where=args.fixture)
        if decoded["kind"] != "commuting-family":
            sys.stderr.write("error: ascent expects a commuting-family fixture\n")
            return 2
        mats = decoded["matrices"]
    else:
        count = args.count or (3 if args.parity == "odd" else 2)
        mats = [
            np.asarray(m)
            for m in (
                fixture_from_json(commuting_family_fixture(count, args.dim, args.seed))["matrices"]
            )
        ]
    if args.parity is not None and len(mats) % 2 != (1 if args.parity == "odd" else 0):
        sys.stderr.write(f"error: --parity {args.parity} conflicts with a family of {len(mats)} operators\n")
        return 2
    fam = CommutingFamily(mats)
    result = cos_ascent(fam, args.t, rule_level=args.level)
    oracle = cos_sqrt_sum_oracle(mats, args.t)
    gap = float(np.linalg.norm(result - oracle))
    report = {
        "subcommand": "ascent",
        "formula": "sphere-cosine-ladder" if len(mats) % 2 else "ball-cosine-ladder",
        "inputs": {"t": args.t, "count": len(mats), "dim": int(mats[0].shape[0]),
                   "level": args.level, "seed": args.seed},
        "result": matrix_to_json(result),
        "gaps": {"oracle_frobenius": gap},
        "tolerances": {"oracle_frobenius": 1e-5},
        "passed": gap <= 1e-5,
    }
    out_path, _ = _resolve_out(args.out, "ascent", "json")

    def writer(path):
        from .serialization import dump_json

        dump_json(report, path)

    _emit(report, out_path, writer)
    return 0 if report["passed"] else 1


def _cmd_noncomm(args) -> int:
    import numpy as np

    from .operators import cos_sqrt_sum_oracle, random_hermitian, random_state
    from .serialization import fixture_from_json, load_json_file, series_to_csv, vector_to_json
    from .trotter import cos_noncomm_q

    if args.fixture:
        decoded = fixture_from_json(load_json_file(args.fixture), where=args.fixture)
        if decoded["kind"] != "hermitian-pair":
            sys.stderr.write("error: noncomm expects a hermitian-pair fixture\n")
            return 2
        ops = [decoded["a"], decoded["b"]]
        h = decoded["h"]
        if h is None:
            h = random_state(ops[0].shape[0], rng=np.random.default_rng(args.seed))
    else:
        rng = np.random.default_rng(args.seed)
        ops = [random_hermitian(args.dim, rng=rng, norm=1.0) for _ in range(args.q)]
        h = random_state(args.dim, rng=rng)
    reference = cos_sqrt_sum_oracle(ops, args.t, h)
    result, report = cos_noncomm_q(
        ops, h, args.t, tol=args.tol, m0=args.m0, m_cap=args.mcap,
        reference=reference, richardson=args.richardson,
    )
    gap = float(np.linalg.norm(result - reference) / max(np.linalg.norm(reference), 1e-300))
    payload = {
        "subcommand": "noncomm",
        "formula": "splitting-series-limit",
        "inputs": {"t": args.t, "tol": args.tol, "m0": args.m0, "mcap": args.mcap,
                   "q": len(ops), "dim": int(ops[0].shape[0]), "seed": args.seed,
                   "richardson": bool(args.richardson)},
        "report": report.to_dict(),
        "result": vector_to_json(result),
        "gaps": {"oracle_relative": gap},
        "tolerances": {"oracle_relative": max(args.tol * 10.0, 1e-12)},
        "passed": report.verdict == "converged" and gap <= max(args.tol * 10.0, 1e-12),
    }
    out_path, ext = _resolve_out(args.out, "noncomm", "csv")

    def writer(path):
        if ext == "json":
            from .serialization import dump_json

            dump_json(payload, path)
            return
        rows = list(zip(report.m_values, report.errors))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# waveprop noncomm error-vs-m seed={args.seed}\n")
            series_to_csv(["m", "error"], rows, fh)

    _emit(payload, out_path, writer)
    return 0 if payload["passed"] else 1


_GRID_FORMULAS = {
    "wave2d": "disk-average-time-derivative",
    "wave3d": "sphere-average-time-derivative",
    "kg": {1: "interval-bessel-mass-average", 2: "disk-cosine-mass-average",
           3: "ball-bessel-mass-ladder"},
    "damped": {1: "interval-bessel-mass-average-hyperbolic",
               2: "disk-cosine-mass-average-hyperbolic",
               3: "ball-bessel-mass-ladder-hyperbolic"},
}


def _cmd_grid(args) -> int:
    from .fields import damped_symbol, klein_gordon_symbol, relative_l2_gap, spectral_wave_reference
    from .pde import damped_wave, klein_gordon, wave2d_poisson, wave3d_kirchhoff, wave_general

    name = args.subcommand
    if name == "wave2d":
        field, n, sigma = _box_fixture(args, 2)
        propagated = wave2d_poisson(field, args.t, level=args.level)
        reference = spectral_wave_reference(field, args.t)
        formula = _GRID_FORMULAS[name]
        extra = {}
    elif name == "wave3d":
        field, n, sigma = _box_fixture(args, 3)
        propagated = wave3d_kirchhoff(field, args.t, level=args.level)
        reference = spectral_wave_reference(field, args.t)
        formula = _GRID_FORMULAS[name]
        extra = {}
    else:
        field, n, sigma = _box_fixture(args)
        if name == "kg":
            propagated = klein_gordon(field, args.t, args.a, level=args.level)
            reference = spectral_wave_reference(field, args.t, klein_gordon_symbol(field, args.a))
        else:
            propagated = damped_wave(field, args.t, args.a, level=args.level)
            reference = spectral_wave_reference(field, args.t, damped_symbol(field, args.a))
        formula = _GRID_FORMULAS[name][field.dim]
        extra = {"a": args.a}
        if args.a == 0.0:
            collapse = wave_general(field, args.t, level=args.level)
            extra["wave_collapse_gap"] = relative_l2_gap(propagated, collapse)
    gap = relative_l2_gap(propagated, reference)
    inputs = {"grid": n, "t": args.t, "sigma": sigma, "level": args.level,
              "tol": args.tol, "seed": args.seed}
    inputs.update({k: v for k, v in extra.items() if k == "a"})
    report = {
        "subcommand": name,
        "formula": formula,
        "inputs": inputs,
        "gaps": {"reference_l2": gap},
        "tolerances": {"reference_l2": args.tol},
        "passed": gap <= args.tol,
    }
    if "wave_collapse_gap" in extra:
        report["gaps"]["wave_collapse"] = extra["wave_collapse_gap"]
        report["tolerances"]["wave_collapse"] = 1e-8
        report["passed"] = report["passed"] and extra["wave_collapse_gap"] <= 1e-8
    out_path, _ = _resolve_out(args.out, name, "json")
    _emit(report, out_path, _write_field_artifact(propagated, args.t, args.seed, inputs))
    return 0 if report["passed"] else 1


def _cmd_oscillator(args) -> int:
    import numpy as np

    from .fields import GridField
    from .pde import harmonic_oscillator
    from .serialization import series_to_csv

    field = GridField(np.zeros(args.grid), (16.0,), (-8.0,))
    x = field.axis_coordinates(0)
    profile = x * np.exp(-(x ** 2) / 2.0) if args.excited else np.exp(-(x ** 2) / 2.0)
    field.values = profile.astype(complex)
    propagated, report, diagnostics = harmonic_oscillator(
        field, args.t, tol=args.tol, m0=args.m0, m_cap=args.mcap
    )
    payload = {
        "subcommand": "oscillator",
        "formula": "splitting-series-oscillator",
        "inputs": {"grid": args.grid, "t": args.t, "tol": args.tol, "m0": args.m0,
                   "mcap": args.mcap, "excited": bool(args.excited), "seed": args.seed},
        "report": report.to_dict(),
        "gaps": {"oracle_relative": diagnostics["oracle_gap"]},
        "tolerances": {"oracle_relative": 1e-3},
        "passed": diagnostics["oracle_gap"] <= 1e-3,
    }
    out_path, ext = _resolve_out(args.out, "oscillator", "csv")

    def writer(path):
        if ext == "json":
            from .serialization import dump_json

            dump_json(payload, path)
            return
        rows = list(zip(report.m_values, report.errors))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# waveprop oscillator error-vs-m seed={args.seed}\n")
            series_to_csv(["m", "error"], rows, fh)

    _emit(payload, out_path, writer)
    return 0 if payload["passed"] else 1


def _cmd_grushin(args) -> int:
    import math

    import numpy as np

    from .fields import GridField
    from .pde import grushin_demo

    n = args.grid
    box = 2.0 * math.pi
    field = GridField(np.zeros((n, n)), (box, box), (-math.pi, 0.0))
    x1 = field.axis_coordinates(0)
    field.values = np.repeat(np.exp(np.cos(x1))[:, None], n, axis=1).astype(complex)
    propagated, report, diagnostics = grushin_demo(field, args.t, tol=args.tol)
    gaps = {"oracle_relative": diagnostics["oracle_gap"]}
    tols = {"oracle_relative": 1e-6}
    if "collapse_gap" in diagnostics:
        gaps["collapse"] = diagnostics["collapse_gap"]
        tols["collapse"] = 1e-3
    payload = {
        "subcommand": "grushin",
        "formula": "splitting-series-grushin",
        "inputs": {"grid": n, "t": args.t, "tol": args.tol, "seed": args.seed},
        "report": report.to_dict(),
        "gaps": gaps,
        "tolerances": tols,
        "passed": all(gaps[k] <= tols[k] for k in tols),
    }
    out_path, _ = _resolve_out(args.out, "grushin", "json")
    _emit(payload, out_path, _write_field_artifact(propagated, args.t, args.seed, payload["inputs"]))
    return 0 if payload["passed"] else 1


def _cmd_rule(args) -> int:
    from .quadrature import build_ball_rule, build_sphere_rule
    from .serialization import rule_to_csv

    if args.kind == "sphere":
        rule = build_sphere_rule(args.dim, args.level, method=args.method,
                                 samples=args.samples, seed=args.seed)
    else:
        rule = build_ball_rule(args.dim, args.level, method=args.method,
                               boundary_exponent=args.exponent,
                               samples=args.samples, seed=args.seed)
    report = {
        "subcommand": "rule",
        "formula": "sign-mirrored-dirichlet-rule",
        "inputs": {"kind": args.kind, "dim": args.dim, "level": args.level,
                   "method": rule.method, "seed": args.seed},
        "size": int(rule.nodes.shape[0]),
        "mass": float(rule.weights.sum()),
        "moment_error": None if rule.moment_error is None else float(rule.moment_error),
        "passed": True,
    }
    if args.kind == "ball":
        report["inputs"]["exponent"] = args.exponent
    out_path, _ = _resolve_out(args.out, "rule", "csv")

    def writer(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            rule_to_csv(rule, fh)

    _emit(report, out_path, writer)
    return 0


def _cmd_fixture(args) -> int:
    from .serialization import commuting_family_fixture, dump_json, hermitian_pair_fixture

    if args.kind == "hermitian-pair":
        payload = hermitian_pair_fixture(args.dim, args.seed, norm=args.norm)
    else:
        payload = commuting_family_fixture(args.count, args.dim, args.seed)
    out_path, _ = _resolve_out(args.out, "fixture", "json")
    _emit(payload, out_path, lambda path: dump_json(payload, path))
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "ascent": _cmd_ascent,
    "noncomm": _cmd_noncomm,
    "wave2d": _cmd_grid,
    "wave3d": _cmd_grid,
    "kg": _cmd_grid,
    "damped": _cmd_grid,
    "oscillator": _cmd_oscillator,
    "grushin": _cmd_grushin,
    "rule": _cmd_rule,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = _HANDLERS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stderr.write(f"# elapsed {time.perf_counter() - started:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
