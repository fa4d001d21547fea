"""Workload inputs, solve lists and their oracle checks.

Each workload has ``inputs(seed)``, the seeded data alone, and
``build(seed, scratch)``, which turns the inputs into a list of ``Solve``
objects: the fixtures, the oracle references computed before timing, the
timed call and its check.  The seed changes matrix entries and the
CLI's --seed, never sizes, so the work of a pass is the same for every
seed.  Timed calls look the package function up at call time, so a tracer
installed between passes sees them.

Tolerances are the package's own: ascent 1e-5 in the Frobenius norm; the
CLI reports its own gaps and tolerances, and its exit code says whether
they held.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAP_FLOOR = 1e-16

# (route, n operators, matrix dim, t); diagonals scaled to max |entry| = 1,
# so the series order, the rule and the work depend on (n, t) alone
COMMUTING_CASES = [
    ("cos_ascent", 2, 8, 0.3), ("cos_ascent", 2, 8, 0.7),
    ("sin_ascent", 2, 8, 0.3), ("sin_ascent", 2, 8, 0.7),
    ("cos_ascent", 3, 8, 0.3), ("cos_ascent", 3, 8, 0.7),
    ("sin_ascent", 3, 8, 0.3), ("sin_ascent", 3, 8, 0.7),
    ("cos_ascent", 4, 3, 0.3),
    ("sin_ascent", 4, 6, 0.2),
    ("cos_ascent", 5, 3, 0.2),
]

# every verify check except matrix-ascent, whose work is the commuting
# workload's n=4/5 solve, and the grid propagations huygens, double-angle,
# ladder-routes and energy-symmetry, left out to keep a pass short
CLI_VERIFY_CHECKS = (
    "moments", "sphere-area", "rule-symmetry", "scalar-ascent", "transmutation",
    "product-heat", "splitting-convergence", "series-quadrature", "taylor-limit",
    "sine-routes", "wave-2d", "wave-3d", "mass-kernels", "oscillator", "grushin",
)

# noncomm runs on this many operator pairs, seeded seed*NONCOMM_DRAWS + j:
# its gap over tolerance moves with the pair between 0.98 and 1.29 digits,
# and it sets the cli accuracy minimum, so one pair per seed would make
# accuracy_digits.min track the seed rather than the code
NONCOMM_DRAWS = 8


@dataclass
class Solve:
    """One timed call and the check of its output.

    check(output) returns (passed, accuracy digits, bytes written).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def digits(gap: float, tol: float) -> float:
    """log10(tol / gap) with the gap floored at 1e-16."""
    return math.log10(tol / max(float(gap), GAP_FLOOR))


def _module(name):
    return importlib.import_module(f"waveprop.{name}")


def _call(module, name, *args, **kwargs):
    """Thunk that resolves module.name at call time (so tracing applies)."""
    return lambda: getattr(module, name)(*args, **kwargs)


def _rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


# ---------------------------------------------------------------------------
# commuting


def commuting_inputs(seed: int) -> list[dict]:
    out = []
    for index, (route, n, d, t) in enumerate(COMMUTING_CASES):
        rng = _rng(seed, index)
        mats = []
        for _ in range(n):
            x = rng.uniform(-1.0, 1.0, d)
            mats.append(np.diag((x / np.abs(x).max()).astype(complex)))
        out.append({"route": route, "t": t, "mats": mats})
    return out


def commuting_build(seed: int, scratch: str) -> list[Solve]:
    ascent, operators = _module("ascent"), _module("operators")
    solves = []
    for case in commuting_inputs(seed):
        route, t, mats = case["route"], case["t"], case["mats"]
        oracle = operators.cos_sqrt_sum_oracle if route == "cos_ascent" else operators.sinc_sqrt_sum_oracle
        ref = oracle(mats, t)
        fam = ascent.CommutingFamily(mats)

        def check(got, ref=ref):
            gap = float(np.linalg.norm(got - ref))
            return gap <= 1e-5, digits(gap, 1e-5), 0

        label = f"{route} n={len(mats)} d={mats[0].shape[0]} t={t}"
        solves.append(Solve(label, _call(ascent, route, fam, t), check))
    return solves


# ---------------------------------------------------------------------------
# cli


def cli_inputs(seed: int, out_dir: str = "out") -> list[list[str]]:
    """argv of every subcommand at its defaults, artifacts under out_dir."""
    checks = [arg for name in CLI_VERIFY_CHECKS for arg in ("--check", name)]

    def out(name, s=str(seed)):
        return ["--seed", s, "--out", os.path.join(out_dir, name)]

    return [
        ["verify", *checks, *out("verify.json")],
        ["ascent", *out("ascent.json")],
        *(["noncomm", *out(f"noncomm-{j}.csv", str(seed * NONCOMM_DRAWS + j))]
          for j in range(NONCOMM_DRAWS)),
        ["wave2d", *out("wave2d.json")],
        ["wave3d", *out("wave3d.csv")],
        ["kg", *out("kg.json")],
        ["damped", *out("damped.json")],
        ["oscillator", *out("oscillator.csv")],
        ["grushin", *out("grushin.json")],
        ["rule", "--dim", "3", "--level", "24", *out("rule.csv")],
        ["fixture", *out("fixture-pair.json")],
        ["fixture", "--kind", "commuting-family", *out("fixture-family.json")],
    ]


def _report_digits(report: dict) -> float:
    """Smallest log10(tol / gap) over the gaps with a positive tolerance."""
    pairs = []
    for item in report.get("checks", [report]):
        gaps, tols = item.get("gaps", {}), item.get("tolerances", {})
        pairs += [(gaps[k], tol) for k, tol in tols.items() if tol > 0 and k in gaps]
    return min((digits(g, t) for g, t in pairs), default=math.inf)


def cli_build(seed: int, scratch: str) -> list[Solve]:
    cli = _module("cli")
    solves = []
    for argv in cli_inputs(seed, scratch):
        artifact = argv[-1]
        first = {}

        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()

        def check(result, first=first, artifact=artifact):
            code, stdout = result
            first.setdefault("stdout", stdout)
            report = json.loads(stdout) if code == 0 else {}
            written = len(stdout.encode()) + (os.path.getsize(artifact) if os.path.exists(artifact) else 0)
            passed = code == 0 and stdout == first["stdout"]
            return passed, _report_digits(report), written

        label = "verify" if argv[0] == "verify" else " ".join(argv[: argv.index("--out")])
        solves.append(Solve(label, run, check))
    return solves


WORKLOADS = {
    "commuting": (commuting_inputs, commuting_build),
    "cli": (cli_inputs, cli_build),
}
