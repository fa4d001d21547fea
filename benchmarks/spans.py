"""In-memory spans around waveprop's public functions, installed from outside.

The tracer rebinds each public function of every waveprop module (its
``__all__``, or its public functions when it has none), the methods
``GridField.fft`` and ``SphereRule``/``BallRule.integrate``, and the
entries of the verify check registry.  A rebinding is made in the defining
module and in every waveprop module that imported the function by name,
and ``uninstall`` puts every original object back.  The module a function
lives in is its layer.

Spans are kept in a list in memory; ``layer_metrics`` turns the spans of
one pass into the per-layer numbers the benchmark prints.  Work counts are
computed from argument and result sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("quadrature", "operators", "ascent", "trotter", "fields", "pde",
          "serialization", "verify", "cli")

# verify checks and CLI subcommands the cli workload runs; one metric each
VERIFY_CHECKS = (
    "moments", "sphere-area", "rule-symmetry", "scalar-ascent", "transmutation",
    "product-heat", "splitting-convergence", "series-quadrature", "taylor-limit",
    "sine-routes", "wave-2d", "wave-3d", "mass-kernels", "oscillator", "grushin",
)
SUBCOMMANDS = ("verify", "ascent", "noncomm", "wave2d", "wave3d", "kg", "damped",
               "oscillator", "grushin", "rule", "fixture")

RULE_BUILDS = ("build_sphere_rule", "build_ball_rule")
ORACLES = ("cos_sqrt_sum_oracle", "sinc_sqrt_sum_oracle")
ASCENT_ROUTES = ("cos_ascent", "cos_ascent_even", "cos_ascent_odd", "sin_ascent")
SPLITTING_DRIVERS = ("cos_noncomm", "cos_noncomm_q", "sin_noncomm")

PER_LAYER_UNITS = {
    "quadrature.rule_build.calls": "count",
    "quadrature.rule_build.busy_s": "s",
    "quadrature.rule_build.nodes": "count",
    "quadrature.rule_build.distinct_frac": "ratio",
    "quadrature.stable_sum.calls": "count",
    "quadrature.stable_sum.busy_s": "s",
    "quadrature.stable_sum.elements": "count",
    "ascent.calls": "count",
    "ascent.busy_s": "s",
    "ascent.self_s": "s",
    "ascent.node_series_flops": "flop",
    "trotter.series_build.calls": "count",
    "trotter.series_build.busy_s": "s",
    "trotter.self_s": "s",
    "trotter.m_sum": "count",
    "trotter.m_useful_frac": "ratio",
    "trotter.order.max": "count",
    "trotter.vecmat_flops": "flop",
    "operators.oracle.calls": "count",
    "operators.oracle.busy_s": "s",
    "operators.oracle.dim.max": "count",
    "fields.calls": "count",
    "fields.busy_s": "s",
    "fields.grid_points": "count",
    "pde.calls": "count",
    "pde.busy_s": "s",
    "pde.self_s": "s",
    "pde.node_points": "count",
    "serialization.calls": "count",
    "serialization.busy_s": "s",
    "serialization.bytes_out": "bytes",
    "verify.self_s": "s",
    **{f"verify.check_s.{name}": "s" for name in VERIFY_CHECKS},
    "cli.self_s": "s",
    **{f"cli.subcommand_s.{name}": "s" for name in SUBCOMMANDS},
    "trace.overhead_frac": "ratio",
}


def _size(obj) -> int:
    values = getattr(obj, "values", None)
    if values is not None and hasattr(values, "size"):
        return int(values.size)
    symbol = getattr(obj, "symbol", None)
    if symbol is not None:
        return int(symbol.size)
    return int(getattr(obj, "size", 0))


def _fields_points(args, result) -> dict:
    """Grid points a fields call acted on: its result, else its first argument."""
    points = _size(result)
    if not points and args:
        points = _size(args[0])
    return {"points": points}


def _rule_meta(kind):
    def probe(args, result):
        return {
            "nodes": int(len(result.weights)),
            "key": [kind, int(result.dim), int(result.level), result.method,
                    getattr(result, "boundary_exponent", None)],
        }
    return probe


def _first_dim(op) -> int:
    return int(getattr(op, "entries", op).shape[0])


# probe(bound arguments, result) -> span meta; keyed by (layer, function name)
PROBES = {
    ("quadrature", "build_sphere_rule"): _rule_meta("sphere"),
    ("quadrature", "build_ball_rule"): _rule_meta("ball"),
    ("quadrature", "stable_sum"): lambda a, r: {"elements": int(getattr(a["values"], "size", 0))},
    ("operators", "cos_sqrt_sum_oracle"): lambda a, r: {"dim": _first_dim(list(a["ops"])[0])},
    ("operators", "sinc_sqrt_sum_oracle"): lambda a, r: {"dim": _first_dim(list(a["ops"])[0])},
    ("trotter", "taylor_series_build"): lambda a, r: {
        "m": int(a["m"]), "order": int(a["order"]), "q": len(list(a["ops"])),
        "d": int(r.vectors.shape[1]),
    },
    **{("trotter", name): (lambda a, r: {"final_m": int(r[1].m_values[-1])})
       for name in SPLITTING_DRIVERS},
    **{("ascent", name): (lambda a, r: {"n": len(a["fam"]), "d": int(a["fam"].dim)})
       for name in ASCENT_ROUTES},
    ("cli", "main"): lambda a, r: {"subcommand": str(list(a["argv"])[0])},
}


class Tracer:
    """Records spans (id, parent, layer, name, start, end, meta) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, layer: str, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "layer": layer,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "meta": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def take(self) -> list[dict]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, layer: str, name: str):
        probe = PROBES.get((layer, name))
        signature = inspect.signature(fn) if probe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["meta"] = probe(bound.arguments, result)
            elif layer == "fields":
                span["meta"] = _fields_points(args, result)
            elif layer == "pde" and args:
                span["meta"] = {"points": _size(args[0])}
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"waveprop.{layer}") for layer in LAYERS}
        holders = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "waveprop" or key.startswith("waveprop."))]
        for layer, mod in modules.items():
            for name, fn in public_functions(mod):
                traced = self.wrap(fn, layer, name)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, attr, traced)
        quadrature, fields = modules["quadrature"], modules["fields"]
        self._rebind(fields.GridField, "fft",
                     self.wrap(fields.GridField.fft, "fields", "GridField.fft"))
        for cls in (quadrature.SphereRule, quadrature.BallRule):
            self._rebind(cls, "integrate",
                         self.wrap(cls.__dict__["integrate"], "quadrature", "integrate"))
        verify = modules["verify"]
        registry = [(name, desc, self.wrap(fn, "verify", f"check:{name}"))
                    for name, desc, fn in verify._REGISTRY]
        self._rebind(verify, "_REGISTRY", registry)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def public_functions(mod):
    """(name, function) for a module's __all__, or its own public functions."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = []
    for name in names:
        fn = getattr(mod, name)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            out.append((name, fn))
    return out


# ---------------------------------------------------------------------------
# aggregation


def _duration(span) -> float:
    return span["end"] - span["start"]


class SpanTree:
    """Parent links over one list of closed spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def ancestors(self, span):
        parent = span["parent"]
        while parent is not None:
            node = self.by_id[parent]
            yield node
            parent = node["parent"]

    def descendants(self, span):
        stack = list(self.children[span["id"]])
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children[node["id"]])

    def outermost(self, match):
        """Spans that match and have no matching ancestor."""
        return [s for s in self.spans
                if match(s) and not any(match(a) for a in self.ancestors(s))]

    def busy(self, match) -> float:
        return sum(_duration(s) for s in self.outermost(match))

    def self_time(self, layer: str) -> float:
        """Time during which the innermost open span belongs to the layer."""
        total = 0.0
        for s in self.spans:
            if s["layer"] == layer:
                total += _duration(s) - sum(_duration(c) for c in self.children[s["id"]])
        return total


def _layer(layer):
    return lambda s: s["layer"] == layer


def _named(layer, names):
    return lambda s: s["layer"] == layer and s["name"] in names


def layer_metrics(spans, bytes_out: int = 0) -> dict:
    """Per-layer numbers for the spans of one pass (all but trace overhead)."""
    tree = SpanTree(spans)
    out = {}

    builds = tree.outermost(_named("quadrature", RULE_BUILDS))
    keys = {tuple(s["meta"].get("key", ())) for s in builds}
    sums = tree.outermost(_named("quadrature", ("stable_sum",)))
    out["quadrature.rule_build.calls"] = len(builds)
    out["quadrature.rule_build.busy_s"] = tree.busy(_named("quadrature", RULE_BUILDS))
    out["quadrature.rule_build.nodes"] = sum(s["meta"].get("nodes", 0) for s in builds)
    out["quadrature.rule_build.distinct_frac"] = len(keys) / len(builds) if builds else 0.0
    out["quadrature.stable_sum.calls"] = len(sums)
    out["quadrature.stable_sum.busy_s"] = tree.busy(_named("quadrature", ("stable_sum",)))
    out["quadrature.stable_sum.elements"] = sum(s["meta"].get("elements", 0) for s in sums)

    ascent = tree.outermost(_layer("ascent"))
    flops = 0
    for span in ascent:
        if span["name"] not in ASCENT_ROUTES or not span["meta"]:
            continue
        n, d = span["meta"]["n"], span["meta"]["d"]
        for rule in tree.descendants(span):
            if rule["layer"] == "quadrature" and rule["name"] in RULE_BUILDS and rule["meta"]:
                order = rule["meta"]["key"][2]  # rule level = series order by default
                flops += rule["meta"]["nodes"] * n * order * (order + 1) // 2 * 8 * d ** 3
    out["ascent.calls"] = len(ascent)
    out["ascent.busy_s"] = tree.busy(_layer("ascent"))
    out["ascent.self_s"] = tree.self_time("ascent")
    out["ascent.node_series_flops"] = flops

    series = tree.outermost(_named("trotter", ("taylor_series_build",)))
    m_sum = sum(s["meta"]["m"] for s in series)
    useful = 0
    for s in series:
        driver = next((a for a in tree.ancestors(s)
                       if a["layer"] == "trotter" and a["name"] in SPLITTING_DRIVERS), None)
        if driver is None or driver["meta"].get("final_m") == s["meta"]["m"]:
            useful += s["meta"]["m"]
    out["trotter.series_build.calls"] = len(series)
    out["trotter.series_build.busy_s"] = tree.busy(_named("trotter", ("taylor_series_build",)))
    out["trotter.self_s"] = tree.self_time("trotter")
    out["trotter.m_sum"] = m_sum
    out["trotter.m_useful_frac"] = useful / m_sum if m_sum else 0.0
    out["trotter.order.max"] = max((s["meta"]["order"] for s in series), default=0)
    out["trotter.vecmat_flops"] = sum(
        s["meta"]["m"] * s["meta"]["q"] * s["meta"]["order"] * (s["meta"]["order"] + 1) // 2
        * 8 * s["meta"]["d"] ** 2
        for s in series
    )

    oracles = tree.outermost(_named("operators", ORACLES))
    out["operators.oracle.calls"] = len(oracles)
    out["operators.oracle.busy_s"] = tree.busy(_named("operators", ORACLES))
    out["operators.oracle.dim.max"] = max((s["meta"]["dim"] for s in oracles), default=0)

    grid = tree.outermost(_layer("fields"))
    out["fields.calls"] = len(grid)
    out["fields.busy_s"] = tree.busy(_layer("fields"))
    out["fields.grid_points"] = sum(s["meta"].get("points", 0) for s in grid)

    routes = tree.outermost(_layer("pde"))
    node_points = 0
    for span in routes:
        nodes = sum(r["meta"]["nodes"] for r in tree.descendants(span)
                    if r["layer"] == "quadrature" and r["name"] in RULE_BUILDS)
        node_points += nodes * span["meta"].get("points", 0)
    out["pde.calls"] = len(routes)
    out["pde.busy_s"] = tree.busy(_layer("pde"))
    out["pde.self_s"] = tree.self_time("pde")
    out["pde.node_points"] = node_points

    out["serialization.calls"] = len(tree.outermost(_layer("serialization")))
    out["serialization.busy_s"] = tree.busy(_layer("serialization"))
    out["serialization.bytes_out"] = bytes_out

    out["verify.self_s"] = tree.self_time("verify")
    for name in VERIFY_CHECKS:
        out[f"verify.check_s.{name}"] = tree.busy(_named("verify", (f"check:{name}",)))

    out["cli.self_s"] = tree.self_time("cli")
    mains = tree.outermost(_named("cli", ("main",)))
    for name in SUBCOMMANDS:
        out[f"cli.subcommand_s.{name}"] = sum(
            _duration(s) for s in mains if s["meta"].get("subcommand") == name
        )
    return out
