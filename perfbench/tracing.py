"""Per-layer spans recorded from outside mlfunc.

``Tracer`` wraps public mlfunc functions in every module namespace that binds
them.  ``from .numcore import integrate_path`` gives ``contour``, ``bounds``
and ``matrixfn`` their own binding of the name, so patching ``numcore``
alone would miss their calls.  Each call becomes a span (name, start, end,
parent) kept in flat in-memory arrays; ``close`` restores the original
functions and ``dump`` writes the spans out.

Work is read off what crosses the boundary: the route and ``terms_or_panels``
of a returned ``EvalResult`` (so the time ``ml_eval`` spends in private
helpers is attributed to the route it took), and the number of integrand
calls made by ``integrate_path`` (one 15-node Gauss-Kronrod panel each,
tail-seed probes included).  Spans inside the library are not recorded.
"""

import json
import sys
import time
from array import array

# (module, function) pairs wrapped by the traced run
TARGETS = (
    ("numcore", "recip_gamma"),
    ("numcore", "integrate_path"),
    ("series", "ml_eval"),
    ("series", "ml_series"),
    ("series", "ml_series_deriv"),
    ("contour", "ml_contour"),
    ("contour", "ml_contour_deriv"),
    ("contour", "recip_gamma_via_contour"),
    ("bounds", "kappa_integrals"),
    ("bounds", "certify_lemma2_i"),
    ("bounds", "certify_lemma2_ii"),
    ("bounds", "certify_lemma2_iii"),
    ("bounds", "certify_lemma4"),
    ("bounds", "lemma3_limit_check"),
    ("matrixfn", "ml_matrix"),
    ("matrixfn", "decay_check"),
    ("matrixfn", "integral_check"),
    ("cli", "main"),
)

# functions whose first argument is an integrand; its calls are the work
_INTEGRAND_FIRST = {"integrate_path"}

# per-layer metrics of the traced run, per pass; 'terms' and 'panels' read
# the span's work count, 's' its duration, 'self_s' the duration minus its
# direct children
_SPAN_METRICS = (
    "series.ml_eval.compensated-series.calls",
    "series.ml_eval.compensated-series.s",
    "series.ml_eval.compensated-series.terms",
    "series.ml_eval.series.calls",
    "series.ml_eval.series.s",
    "series.ml_eval.series.terms",
    "series.ml_eval.contour.calls",
    "series.ml_eval.contour.s",
    "series.ml_eval.contour.panels",
    "series.ml_eval.failed",
    "numcore.recip_gamma.calls",
    "numcore.recip_gamma.self_s",
    "series.ml_series.calls",
    "series.ml_series.terms",
    "series.ml_series.self_s",
    "series.ml_series.failed",
    "series.ml_series_deriv.series.calls",
    "series.ml_series_deriv.series.s",
    "series.ml_series_deriv.series.terms",
    "series.ml_series_deriv.compensated-series.calls",
    "series.ml_series_deriv.compensated-series.s",
    "series.ml_series_deriv.compensated-series.terms",
    "numcore.integrate_path.calls",
    "numcore.integrate_path.panels",
    "numcore.integrate_path.self_s",
    "numcore.integrate_path.failed",
    "contour.ml_contour.calls",
    "contour.ml_contour.panels",
    "contour.ml_contour.self_s",
    "contour.ml_contour_deriv.calls",
    "contour.ml_contour_deriv.panels",
    "contour.ml_contour_deriv.self_s",
    "contour.recip_gamma_via_contour.calls",
    "contour.recip_gamma_via_contour.s",
    "bounds.kappa_integrals.calls",
    "bounds.kappa_integrals.s",
    "bounds.certify_lemma2_i.s",
    "bounds.certify_lemma2_ii.s",
    "bounds.certify_lemma2_iii.s",
    "bounds.certify_lemma4.s",
    "bounds.lemma3_limit_check.s",
    "matrixfn.ml_matrix.calls",
    "matrixfn.ml_matrix.self_s",
    "matrixfn.decay_check.s",
    "matrixfn.integral_check.s",
    "cli.main.calls",
    "cli.main.self_s",
    "trace.root_span_s",
)
_UNITS = {"calls": "count", "terms": "count", "panels": "count",
          "failed": "count", "s": "s", "self_s": "s", "root_span_s": "s"}

# name -> unit of every per-layer metric, the span metrics plus the run's
# traced wall time and the tracing overhead against the untraced passes
PER_LAYER = {name: _UNITS[name.rsplit(".", 1)[1]] for name in _SPAN_METRICS}
PER_LAYER["trace.wall_s"] = "s"
PER_LAYER["trace.overhead_frac"] = "frac"


def span_metrics(totals: dict, passes: int) -> dict:
    """Per-pass values of the span metrics from ``Tracer.totals()``."""
    out = {}
    for name in _SPAN_METRICS:
        stem, stat = name.rsplit(".", 1)
        key = f"{stem}.work" if stat in ("terms", "panels") else name
        out[name] = totals.get(key, 0.0) / passes
    return out


class Tracer:
    """Records one span per call of each wrapped function.

    ``package`` is the root package object and ``modules`` maps short module
    names to module objects; every one of them (and the package) is searched
    for bindings of each target.
    """

    def __init__(self, package, modules: dict, targets=TARGETS,
                 clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.routes: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child_s = array("d")   # time covered by direct children
        self.work = array("q")
        self.route = array("i")     # index into routes, -1 for none
        self.failed = array("b")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        namespaces = [package, *modules.values()]
        for mod_name, fn_name in targets:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original,
                                 fn_name in _INTEGRAND_FIRST)
            for ns in namespaces:
                if ns.__dict__.get(fn_name) is original:
                    self._patched.append((ns, fn_name, original))
                    setattr(ns, fn_name, wrapper)

    def close(self):
        """Put every original function back."""
        for ns, fn_name, original in reversed(self._patched):
            setattr(ns, fn_name, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _wrap(self, span_name: str, fn, counts_integrand: bool):
        self.names.append(span_name)
        name_id = len(self.names) - 1

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.name.append(name_id)
            self.parent.append(parent)
            self.child_s.append(0.0)
            self.work.append(0)
            self.route.append(-1)
            self.failed.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            calls = [0]
            if counts_integrand:
                f = args[0] if args else kwargs.pop("f")

                def counted(zeta):
                    calls[0] += 1
                    return f(zeta)

                args = (counted, *args[1:])
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                t_end = self.clock()
                self._stack.pop()
                self.end[idx] = t_end
                if parent >= 0:
                    self.child_s[parent] += t_end - self.start[idx]
                if counts_integrand:
                    self.work[idx] = calls[0]
            method = getattr(result, "method", None)
            if isinstance(method, str):
                if method not in self.routes:
                    self.routes.append(method)
                self.route[idx] = self.routes.index(method)
                self.work[idx] = result.terms_or_panels
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self):
        return len(self.start)

    def totals(self) -> dict:
        """Sums over all spans, keyed '<span>.<stat>' and '<span>.<route>.<stat>'.

        Stats: calls, s (duration), self_s (duration minus direct children),
        failed, work; plus trace.root_span_s, the summed duration of spans
        without a parent.
        """
        out: dict[str, float] = {"trace.root_span_s": 0.0}

        def add(key, value):
            out[key] = out.get(key, 0.0) + value

        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            if self.parent[i] < 0:
                out["trace.root_span_s"] += dur
            prefixes = [name]
            if self.route[i] >= 0:
                prefixes.append(f"{name}.{self.routes[self.route[i]]}")
            for prefix in prefixes:
                add(f"{prefix}.calls", 1)
                add(f"{prefix}.s", dur)
                add(f"{prefix}.self_s", dur - self.child_s[i])
                add(f"{prefix}.failed", self.failed[i])
                add(f"{prefix}.work", self.work[i])
        return out

    def dump(self, path):
        """Write the spans as one JSON document of parallel columns."""
        doc = {
            "names": self.names,
            "routes": self.routes,
            "columns": {
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "work": self.work.tolist(),
                "route": self.route.tolist(),
                "failed": self.failed.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def mlfunc_tracer() -> Tracer:
    """A Tracer over the imported mlfunc package and its six modules."""
    import mlfunc
    import mlfunc.cli  # noqa: F401  (binds mlfunc.cli)

    modules = {name: sys.modules[f"mlfunc.{name}"]
               for name in {mod for mod, _ in TARGETS}}
    return Tracer(mlfunc, modules)
