"""Command line entry point.

Every subcommand prints one deterministic JSON report to stdout (sorted
keys, no timings, seed echoed) and returns exit code 0 when all gaps sit
inside their tolerances, 1 when a check fails, 2 on usage or parse
problems, and 3 on a numerical refusal (operators.SeriesCapError: the
splitting series needs an order above operators.ORDER_CAP, which the
message names; the ascent halves a long time instead).
Wall-clock timings go to stderr so identical configurations produce
byte-identical artifacts.  The BLAS thread count is pinned from --threads
before numpy loads; the default of one thread keeps reductions in a fixed
order on every machine.

Artifacts have one emitter.  _FORMATS lists the formats each subcommand
writes, default first; main resolves --out to a path and a format once
and refuses a format the subcommand does not write, or a missing
artifact directory (exit 2), before any handler runs.  Each handler
builds its report and returns _emit(...), the only code that opens an
artifact: it writes the CSV table or the JSON payload (the report unless
a thunk builds another, called only when JSON was chosen), prints the
report and returns the exit code.
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
    # runs before any numpy import; bad values fall through to argparse.
    # An explicit --threads overrides the environment; the default of one
    # thread only fills variables that are unset.
    count = None
    for i, token in enumerate(argv):
        if token == "--threads" and i + 1 < len(argv):
            count = argv[i + 1]
        elif token.startswith("--threads="):
            count = token.split("=", 1)[1]
    if count is None:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, "1")
        return
    try:
        if int(count) < 1:
            return
    except ValueError:
        return
    os.environ.update(dict.fromkeys(_THREAD_VARS, count))


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError("must be strictly positive and finite")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# subcommand -> artifact formats it writes, default first
_FORMATS = {
    "verify": ("json",), "ascent": ("json",), "fixture": ("json",), "rule": ("csv",),
    "noncomm": ("csv", "json"), "oscillator": ("csv", "json"),
    **dict.fromkeys(("wave2d", "wave3d", "kg", "damped", "grushin"), ("json", "csv")),
}


def _resolve_out(out_arg, subcommand: str):
    """(path, format) of the artifact, or (None, None) without --out.

    --out takes 'csv', 'json', or a path whose .csv/.json extension picks
    the format (any other takes the default); bare formats land in
    $WAVEPROP_OUT (default: current directory).  A format the subcommand
    does not write, or a path whose directory does not exist, is refused.
    """
    if not out_arg:
        return None, None
    formats = _FORMATS[subcommand]
    if out_arg in ("csv", "json"):
        base = os.environ.get("WAVEPROP_OUT", ".")
        path, fmt = os.path.join(base, f"{subcommand}_output.{out_arg}"), out_arg
    else:
        ext = os.path.splitext(out_arg)[1].lstrip(".").lower()
        path, fmt = out_arg, ext if ext in ("csv", "json") else formats[0]
    if fmt not in formats:
        raise ValueError(f"{subcommand} writes {' or '.join(formats)} artifacts, not {fmt}")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"artifact directory {directory} does not exist")
    return path, fmt


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
    p.add_argument("--count", type=_positive_int, default=2,
                   help="number of operators: odd takes the sphere route, even the ball (default 2)")
    p.add_argument("--dim", type=_positive_int, default=3)
    p.add_argument("--fixture", default=None, help="commuting-family fixture JSON")

    p = sub.add_parser("noncomm", parents=[common], help="splitting-series propagator with refinement")
    p.add_argument("--t", type=float, default=0.3)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--m0", type=_positive_int, default=1)
    p.add_argument("--mcap", type=_positive_int, default=512)
    p.add_argument("--q", type=_positive_int, default=2, help="number of operators")
    p.add_argument("--dim", type=_positive_int, default=4)
    p.add_argument("--fixture", default=None, help="hermitian-pair fixture JSON")

    for name, help_text in (
        ("wave2d", "disk-average route vs spectral reference"),
        ("wave3d", "sphere-average route vs spectral reference"),
        ("kg", "massless route of one more axis vs spectral reference"),
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
            p.add_argument("--dim", type=_positive_int, default=1)

    p = sub.add_parser("oscillator", parents=[common], help="derivative-plus-position pair vs dense oracle")
    p.add_argument("--grid", type=_positive_int, default=64)
    p.add_argument("--t", type=float, default=0.2)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--m0", type=_positive_int, default=1)
    p.add_argument("--mcap", type=_positive_int, default=512)
    p.add_argument("--excited", action="store_true", help="first excited state instead of the ground state")

    p = sub.add_parser("grushin", parents=[common], help="degenerate pair demo vs block oracle")
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


def _gated(checks: dict) -> dict:
    """The report's gaps, tolerances and verdict from {name: (gap, tolerance)}."""
    return {"gaps": {k: gap for k, (gap, _) in checks.items()},
            "tolerances": {k: tol for k, (_, tol) in checks.items()},
            "passed": all(gap <= tol for gap, tol in checks.values())}


def _emit(args, report: dict, csv_writer=None, json_payload=None) -> int:
    """Write the artifact main resolved, print the report, return the exit code.

    csv_writer(fh) writes the CSV artifact; json_payload() builds the JSON
    one, which defaults to the report itself.
    """
    from .serialization import dump_json

    if args.out_path is not None:
        if args.out_format == "csv":
            with open(args.out_path, "w", encoding="utf-8", newline="") as fh:
                csv_writer(fh)
        else:
            dump_json(report if json_payload is None else json_payload(), args.out_path)
        report["artifact"] = args.out_path
    sys.stdout.write(dump_json(report))
    return 0 if report.get("passed", True) else 1


def _emit_series(args, report: dict, refinement) -> int:
    """The error-vs-m table of a refinement report as CSV, the report as JSON."""
    from .serialization import series_to_csv

    def table(fh):
        fh.write(f"# waveprop {args.subcommand} error-vs-m seed={args.seed}\n")
        series_to_csv(["m", "error"], list(zip(refinement.m_values, refinement.errors)), fh)

    return _emit(args, report, table)


def _emit_field(args, report: dict, field) -> int:
    """The propagated field as CSV, or as JSON with the seed and inputs."""
    from .serialization import field_to_csv, field_to_json

    def table(fh):
        fh.write(f"# waveprop field artifact seed={args.seed}\n")
        field_to_csv(field, fh, t=args.t)

    return _emit(args, report, table, lambda: {
        "field": field_to_json(field, t=args.t), "seed": args.seed, "inputs": report["inputs"],
    })


def _box_fixture(args, dim: int):
    import math

    from .fields import gaussian_bump

    # 256, 128 and 32 points per axis up to three axes, else the largest n <= 16 with n^dim <= 2^20
    n = args.grid or {1: 256, 2: 128, 3: 32}.get(dim) or max(n for n in range(1, 17) if n ** dim <= 1 << 20)
    sigma = args.sigma or (0.35 if dim == 3 else 0.25)
    box = 2.0 * math.pi
    return gaussian_bump((n,) * dim, (box,) * dim, (box / 2.0,) * dim, sigma), n, sigma


def _fixture(args, kind: str) -> dict:
    """The decoded --fixture file, refused (exit 2) unless it holds a fixture of this kind."""
    from .serialization import fixture_from_json, load_json_file

    decoded = fixture_from_json(load_json_file(args.fixture), where=args.fixture)
    if decoded["kind"] != kind:
        raise ValueError(f"{args.subcommand} expects a {kind} fixture")
    return decoded


def _cmd_verify(args) -> int:
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
    return _emit(args, report)


def _cmd_ascent(args) -> int:
    import numpy as np

    from .ascent import CommutingFamily, cos_ascent
    from .operators import cos_sqrt_sum_oracle
    from .serialization import commuting_family_fixture, fixture_from_json, matrix_to_json

    if args.fixture:
        mats = _fixture(args, "commuting-family")["matrices"]
    else:
        mats = fixture_from_json(commuting_family_fixture(args.count, args.dim, args.seed))["matrices"]
    result = cos_ascent(CommutingFamily(mats), args.t)
    oracle = cos_sqrt_sum_oracle(mats, args.t)
    gap = float(np.linalg.norm(result - oracle))
    report = {
        "subcommand": "ascent",
        "formula": "sphere-cosine-ladder" if len(mats) % 2 else "ball-cosine-ladder",
        "inputs": {"t": args.t, "count": len(mats), "dim": int(mats[0].shape[0]), "seed": args.seed},
        "result": matrix_to_json(result),
        **_gated({"oracle_frobenius": (gap, 1e-5)}),
    }
    return _emit(args, report)


def _cmd_noncomm(args) -> int:
    import numpy as np

    from .fields import relative_l2_gap
    from .operators import cos_sqrt_sum_oracle, random_hermitian, random_state
    from .serialization import vector_to_json
    from .trotter import cos_noncomm

    if args.fixture:
        decoded = _fixture(args, "hermitian-pair")
        ops = [decoded["a"], decoded["b"]]
        h = decoded["h"]
        if h is None:
            h = random_state(ops[0].shape[0], rng=np.random.default_rng(args.seed))
    else:
        rng = np.random.default_rng(args.seed)
        ops = [random_hermitian(args.dim, rng=rng, norm=1.0) for _ in range(args.q)]
        h = random_state(args.dim, rng=rng)
    reference = cos_sqrt_sum_oracle(ops, args.t, h)
    result, report = cos_noncomm(ops, h, args.t, tol=args.tol, m0=args.m0, m_cap=args.mcap, reference=reference)
    gap = relative_l2_gap(result, reference)
    payload = {
        "subcommand": "noncomm",
        "formula": "splitting-series-limit",
        "inputs": {"t": args.t, "tol": args.tol, "m0": args.m0, "mcap": args.mcap,
                   "q": len(ops), "dim": int(ops[0].shape[0]), "seed": args.seed},
        "report": report.to_dict(),
        "result": vector_to_json(result),
        **_gated({"oracle_relative": (gap, max(args.tol * 10.0, 1e-12))}),
    }
    payload["passed"] &= report.verdict == "converged"
    return _emit_series(args, payload, report)


# subcommand -> (dimension, or None to read --dim; formula slug)
_GRID_ROUTES = {
    "wave2d": (2, "disk-average-time-derivative"),
    "wave3d": (3, "sphere-average-time-derivative"),
    "kg": (None, "massless-descent-ladder"),
    "damped": (None, "massless-descent-ladder-hyperbolic"),
}


def _cmd_grid(args) -> int:
    from .fields import damped_symbol, klein_gordon_symbol, relative_l2_gap, spectral_wave_reference
    from .pde import damped_wave, klein_gordon, wave_general

    name = args.subcommand
    dim, formula = _GRID_ROUTES[name]
    field, n, sigma = _box_fixture(args, dim or args.dim)
    inputs = {"grid": n, "t": args.t, "sigma": sigma, "level": args.level,
              "tol": args.tol, "seed": args.seed}
    checks, symbol = {}, None
    if dim is None:  # mass routes: --dim picks the axes, --a the mass
        route, make_symbol = ((klein_gordon, klein_gordon_symbol) if name == "kg"
                              else (damped_wave, damped_symbol))
        inputs["a"] = args.a
        symbol = make_symbol(field, args.a)
        propagated = route(field, args.t, args.a, level=args.level)
        if args.a == 0.0:
            collapse = wave_general(field, args.t, level=args.level)
            checks["wave_collapse"] = (relative_l2_gap(propagated, collapse), 1e-8)
    else:
        propagated = wave_general(field, args.t, level=args.level)
    reference = spectral_wave_reference(field, args.t, symbol)
    checks["reference_l2"] = (relative_l2_gap(propagated, reference), args.tol)
    report = {"subcommand": name, "formula": formula, "inputs": inputs, **_gated(checks)}
    return _emit_field(args, report, propagated)


def _cmd_oscillator(args) -> int:
    from .pde import _hermite_state, harmonic_oscillator

    propagated, report, diagnostics = harmonic_oscillator(
        _hermite_state(args.grid, args.excited), args.t, tol=args.tol, m0=args.m0, m_cap=args.mcap
    )
    payload = {
        "subcommand": "oscillator",
        "formula": "splitting-series-oscillator",
        "inputs": {"grid": args.grid, "t": args.t, "tol": args.tol, "m0": args.m0,
                   "mcap": args.mcap, "excited": bool(args.excited), "seed": args.seed},
        "report": report.to_dict(),
        **_gated({"oracle_relative": (diagnostics["oracle_gap"], 1e-3)}),
    }
    return _emit_series(args, payload, report)


def _cmd_grushin(args) -> int:
    from .pde import _grushin_field, grushin_demo

    propagated, report, diagnostics = grushin_demo(_grushin_field(args.grid), args.t, tol=args.tol)
    checks = {"oracle_relative": (diagnostics["oracle_gap"], 1e-6)}
    if "collapse_gap" in diagnostics:
        checks["collapse"] = (diagnostics["collapse_gap"], 1e-3)
    payload = {
        "subcommand": "grushin",
        "formula": "splitting-series-grushin",
        "inputs": {"grid": args.grid, "t": args.t, "tol": args.tol, "seed": args.seed},
        "report": report.to_dict(),
        **_gated(checks),
    }
    return _emit_field(args, payload, propagated)


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
    return _emit(args, report, lambda fh: rule_to_csv(rule, fh))


def _cmd_fixture(args) -> int:
    from .serialization import commuting_family_fixture, hermitian_pair_fixture

    if args.kind == "hermitian-pair":
        payload = hermitian_pair_fixture(args.dim, args.seed, norm=args.norm)
    else:
        payload = commuting_family_fixture(args.count, args.dim, args.seed)
    return _emit(args, payload)


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


_PARSER = None  # built by the first main call, reused by the rest


def main(argv=None) -> int:
    global _PARSER
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        args.out_path, args.out_format = _resolve_out(args.out, args.subcommand)
        code = _HANDLERS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        from .operators import SeriesCapError

        sys.stderr.write(f"error: {exc}\n")
        return 3 if isinstance(exc, SeriesCapError) else 2
    sys.stderr.write(f"# elapsed {time.perf_counter() - started:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
