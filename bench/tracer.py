"""Per-layer tracing of connsum from outside the package.

Tracer() wraps the public functions of every connsum module, plus the class
methods named in METHODS; install() rebinds each wrapper under every name any
``connsum.*`` module holds for the original, and uninstall() puts the
originals back.  Modules import names directly (``recipe`` and ``ohno`` keep
their own ``reduce_to_z1``), so patching only the defining module would miss
calls.

A wrapped call is a span.  Spans are aggregated in memory by
(caller, callee) edge, with call count and total time, and written out when
the run ends.  A layer's self time is the time of its spans minus the time
of the spans they cover; a function whose layer is None inherits its
caller's layer.  Calls made outside an item (set-up, golden checks) are not
traced.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> layer of its public functions
MODULE_LAYERS = {
    "scalars": "scalars", "model": "model", "transport": "transport",
    "boundary": "boundary", "duality": "duality", "ohno": "ohno", "recipe": "recipe",
    "numeric": "numeric", "serialize": "serialize", "named_examples": "named_examples",
}

# functions whose layer differs from their module's (None: caller's layer)
LAYER_OVERRIDES = {
    "numeric.eval_zterm": "numeric.eval_zterm",
    "numeric.eval_mpl_auto": "numeric.eval_mpl_auto",
    "numeric.eval_mpl": "numeric.eval_mpl_auto",  # the restart loop's body
    "numeric.eval_zterm_partial_exact": "numeric.exact_zterm",
    "numeric.eval_mpl_partial_exact": "numeric.exact_mpl",
    "numeric.telescoping_check": "numeric.telescoping",
    "numeric.verify_relation": "numeric.verify",
    "numeric.connector": None,
}

# public functions and methods no workload reaches: no callers in the
# package, or only the command line's JSON input path (ZExpr.__add__, which
# has no callers either, is left out of METHODS)
UNREACHED = {
    "scalars.in_unit_ball_of", "model.weight", "boundary.shuffle_to_harmonic",
    "numeric.connector_log",
    "ohno.apply_map_word", "ohno.boundary_series", "ohno.algebraic_ohno_check",
    "serialize.frac_from_json", "serialize.scalar_from_json", "serialize.pair_from_json",
    "serialize.zterm_from_json", "serialize.zexpr_from_json", "serialize.zexpr_to_json",
    "serialize.mplterm_from_json", "serialize.mplterm_to_json", "serialize.mplexpr_from_json",
    "serialize.mplexpr_to_json", "serialize.relation_from_json", "serialize.relation_to_json",
}

# (module, class, method): methods traced besides the public functions
METHODS = [
    ("scalars", "Scalar", m) for m in ("__add__", "__sub__", "__mul__", "__truediv__",
                                       "__pow__", "inv", "__hash__", "of")
] + [
    ("model", "ZExpr", "of"), ("model", "MplExpr", "of"), ("model", "MplExpr", "__add__"),
    ("ohno", "HSeries", "make"), ("ohno", "HSeries", "__add__"), ("ohno", "HSeries", "__mul__"),
]

# private helpers traced only for their counters, when they exist
PRIVATE = {"numeric._all_ones_deep": None}

COUNTS = {
    "scalars.ops": ["scalars.Scalar." + m for m in ("__add__", "__sub__", "__mul__",
                                                    "__truediv__", "__pow__", "inv")],
    "scalars.hashes": ["scalars.Scalar.__hash__"],
    "model.normalize_calls": ["model.ZExpr.of", "model.MplExpr.of", "model.MplExpr.__add__"],
    "transport.steps": ["transport.transport_step"],
    "transport.transportable_checks": ["transport.is_transportable"],
    "boundary.reduce_calls": ["boundary.boundary_reduce"],
    "boundary.quasi_shuffle_calls": ["boundary.quasi_shuffle"],
    "duality.dagger_calls": ["duality.dagger"],
    "ohno.apply_map_calls": ["ohno.apply_map"],
    "ohno.hseries_ops": ["ohno.HSeries.make", "ohno.HSeries.__add__", "ohno.HSeries.__mul__"],
    "recipe.relations": ["recipe.recipe_relation"],
    "numeric.eval_zterm.calls": ["numeric.eval_zterm"],
    "numeric.eval_mpl_auto.calls": ["numeric.eval_mpl_auto"],
    "numeric.eval_mpl.calls": ["numeric.eval_mpl"],
    "numeric.exact.calls": ["numeric.eval_zterm_partial_exact",
                            "numeric.eval_mpl_partial_exact"],
    "numeric.verify.calls": ["numeric.verify_relation"],
}

SELF_LAYERS = [
    "scalars", "model", "transport", "boundary", "duality", "ohno", "recipe", "serialize",
    "numeric.eval_zterm", "numeric.eval_mpl_auto", "numeric.exact_zterm", "numeric.exact_mpl",
    "numeric.telescoping", "numeric.verify", "named_examples",
]

ROOT = "bench"


def _bound_arg(args, kwargs):
    return kwargs["bound"] if "bound" in kwargs else args[1]


class Tracer:
    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.wrapped: dict[str, str | None] = {}  # key -> layer
        self.missing: list[str] = []
        self.item_s = 0.0
        self._stack: list[list] = []
        self._paused = [False]
        self._bounds: list[list[int]] = []  # per open eval_mpl_auto call
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, name, raw, wrapped
        self._bind()

    # -- hooks feeding the counters that are not plain call counts ---------

    def _after(self, key):
        values, bounds = self.values, self._bounds
        if key == "boundary.boundary_reduce":
            def after(args, kwargs, result):
                if result is not None:
                    values["boundary.mpl_terms_out"] += len(result.terms)
        elif key in ("numeric.eval_mpl", "numeric._all_ones_deep"):
            def after(args, kwargs, result):
                bound = _bound_arg(args, kwargs)
                values["numeric.mpl_terms_summed"] += bound
                if bounds:
                    bounds[-1].append(bound)
        elif key == "numeric.eval_mpl_auto":
            def after(args, kwargs, result):
                summed = bounds.pop()
                if summed:
                    values["mpl_final_bound"] += summed[-1]
                    values["mpl_summed_bound"] += sum(summed)
        elif key == "numeric.verify_relation":
            def after(args, kwargs, result):
                if result is not None:
                    ratio = result.difference / result.tol
                    values["numeric.worst_diff_ratio"] = max(
                        values["numeric.worst_diff_ratio"], ratio)
        else:
            return None, None
        before = (lambda args, kwargs: bounds.append([])) \
            if key == "numeric.eval_mpl_auto" else None
        return before, after

    def _wrap(self, fn, key, layer):
        stack, paused, edges, self_s = self._stack, self._paused, self.edges, self.self_s
        clock = time.perf_counter
        before, after = self._after(key)

        def wrapper(*args, **kwargs):
            if paused[0] or not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [key, layer or parent[1], 0.0]
            if before is not None:
                before(args, kwargs)
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                parent[2] += dt
                self_s[frame[1]] += dt - frame[2]
                edge = edges.get((parent[0], key))
                if edge is None:
                    edges[(parent[0], key)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
                if after is not None:
                    after(args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        self.wrapped[key] = layer
        return wrapper

    # -- installing and removing the wrappers ------------------------------

    def _bind(self) -> None:
        """Make the wrappers and list every binding they replace."""
        originals: dict[int, tuple[object, object]] = {}
        for modname, layer in MODULE_LAYERS.items():
            mod = sys.modules["connsum." + modname]
            for name, obj in vars(mod).items():
                key = f"{modname}.{name}"
                public = inspect.isfunction(obj) and not name.startswith("_") \
                    and obj.__module__ == mod.__name__ and key not in UNREACHED
                if public or key in PRIVATE:
                    lay = LAYER_OVERRIDES.get(key, layer) if public else PRIVATE[key]
                    originals[id(obj)] = (obj, self._wrap(obj, key, lay))
        for key in PRIVATE:
            if key not in self.wrapped:
                self.missing.append(key)
        for modname, clsname, attr in METHODS:
            key = f"{modname}.{clsname}.{attr}"
            cls = getattr(sys.modules["connsum." + modname], clsname, None)
            raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
            if raw is None:
                self.missing.append(key)
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self._wrap(fn, key, MODULE_LAYERS[modname])
            self._bindings.append((cls, attr, raw, staticmethod(wrapper) if static else wrapper))
        for modname in [m for m in sys.modules if m == "connsum" or m.startswith("connsum.")]:
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, name, obj, hit[1]))

    def install(self) -> None:
        for owner, name, _, wrapped in self._bindings:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, raw, _ in self._bindings:
            setattr(owner, name, raw)

    # -- spans around one corpus item ---------------------------------------

    @contextmanager
    def item(self):
        root = [ROOT, ROOT, 0.0]
        self._stack.append(root)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.item_s += dt
            self.self_s[ROOT] += dt - root[2]

    @contextmanager
    def paused(self):
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    # -- results -------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_, callee), (n, _) in self.edges.items():
            out[callee] += n
        return out

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
        calls = self.calls()
        out: dict[str, tuple[float, str]] = {}
        for name, keys in COUNTS.items():
            out[name] = (sum(calls.get(k, 0) for k in keys), "count")
        for layer in SELF_LAYERS:
            out[layer + ".self_s"] = (self.self_s.get(layer, 0.0), "s")
        v = self.values
        out["boundary.mpl_terms_out"] = (v["boundary.mpl_terms_out"], "count")
        out["numeric.mpl_terms_summed"] = (v["numeric.mpl_terms_summed"], "count")
        out["numeric.mpl_useful_ratio"] = (
            v["mpl_final_bound"] / v["mpl_summed_bound"] if v["mpl_summed_bound"] else 0.0,
            "ratio")
        out["numeric.worst_diff_ratio"] = (v["numeric.worst_diff_ratio"], "ratio")
        out["trace.unattributed_frac"] = (
            self.self_s.get(ROOT, 0.0) / self.item_s if self.item_s else 0.0, "ratio")
        out["trace.overhead_frac"] = (
            traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio")
        return out

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer over all traced item time."""
        total = sum(self.self_s.values())
        return {k: v / total for k, v in sorted(self.self_s.items(), key=lambda kv: -kv[1])
                if total}

    def inclusive_shares(self) -> dict[str, float]:
        """Time inside each layer's outermost spans, children included, over
        all traced item time; a layer's calls back into itself count once."""
        layer = dict(self.wrapped, **{ROOT: ROOT})
        out: dict[str, float] = defaultdict(float)
        for (caller, callee), (_, total) in self.edges.items():
            if layer[callee] is not None and layer[callee] != layer[caller]:
                out[layer[callee]] += total
        return {k: v / self.item_s for k, v in sorted(out.items(), key=lambda kv: -kv[1])
                if self.item_s}

    def dump(self, path) -> None:
        spans = [{"caller": a, "callee": b, "calls": n, "total_s": t}
                 for (a, b), (n, t) in sorted(self.edges.items())]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "self_s": dict(self.self_s),
                       "self_share": self.layer_shares(),
                       "inclusive_share": self.inclusive_shares(),
                       "wrapped": self.wrapped, "missing": self.missing}, fh, indent=1)
