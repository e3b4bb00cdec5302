"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the six lppqs modules
with a wrapper that records a span, in every namespace that bound the
function: ``lppqs.cli`` and ``lppqs.lpp`` import functions by name, and the
package ``__init__`` re-exports them.  ``LaurentPolynomial.__mul__``,
``__add__`` and ``specialize`` are wrapped on the class, together with the
``__rmul__``/``__radd__`` aliases bound when the class was created.
Generator functions are left alone: their work runs when the caller
iterates, outside any span the call could open.  ``Tracer.uninstall`` puts
every original back.

Spans stay in memory as (name, parent, start, end) and are written out when
the benchmark ends.  A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("partitions", "characters", "growth", "lpp", "probability", "cli")

# LaurentPolynomial methods traced under short layer names.
POLY_METHODS = {"__mul__": "poly_mul", "__add__": "poly_add", "specialize": "specialize"}


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0  # an int operand is coerced to a constant


def _streams(spec) -> int:
    n = spec.geometry.n
    return n * n + n if spec.geometry.kind == "p2hlr" else n * (n + 1) // 2


def _count_poly_mul(c, args, kwargs, result):
    c["characters.poly_mul.term_pairs"] += len(args[0].terms) * _terms(args[1])


def _count_specialize(c, args, kwargs, result):
    c["characters.specialize.terms"] += len(args[0].terms)


def _count_character_jt(c, args, kwargs, result):
    key = "characters.character_jt.max_terms"
    c[key] = max(c[key], len(result.terms))


def _count_determinant(c, args, kwargs, result):
    key = "characters.determinant.max_size"
    c[key] = max(c[key], len(args[0]))


def _count_generating_series(c, args, kwargs, result):
    c["lpp.generating_series.terms"] += len(result.terms)
    c["lpp.generating_series.fillings"] += sum(result.terms.values())


def _count_sample_passage_times(c, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    n_samples = args[1] if len(args) > 1 else kwargs["n_samples"]
    streams = _streams(spec)
    c["probability.sample_passage_times.streams"] += streams
    c["probability.sample_passage_times.draws"] += streams * n_samples


COUNTERS = {
    "characters.poly_mul": _count_poly_mul,
    "characters.specialize": _count_specialize,
    "characters.character_jt": _count_character_jt,
    "characters.determinant": _count_determinant,
    "lpp.generating_series": _count_generating_series,
    "probability.sample_passage_times": _count_sample_passage_times,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # spans[i] = (name id, parent index or -1, start, end)
        self.spans: list[tuple[int, int, float, float]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        sid = self._name_id(name)
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (sid, parent, t0, t1)

    def wrap(self, name: str, fn):
        sid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, parent, t0, t1)
            counts[calls_key] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(original, layer name) for every function to trace."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"lppqs.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    out.append((obj, f"{short}.{attr}"))
        poly = sys.modules["lppqs.characters"].LaurentPolynomial
        for attr, short in POLY_METHODS.items():
            out.append((vars(poly)[attr], f"characters.{short}"))
        return out

    def install(self):
        import lppqs.cli  # noqa: F401  (loads all six modules)

        wrappers = {id(fn): self.wrap(name, fn) for fn, name in self._targets()}
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "lppqs" or name.startswith("lppqs.")]
        poly = sys.modules["lppqs.characters"].LaurentPolynomial
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers:
                    self._restore.append((ns, attr, obj))
                    ns[attr] = wrappers[id(obj)]
        for attr, obj in list(vars(poly).items()):
            if id(obj) in wrappers:
                self._restore.append((poly, attr, obj))
                setattr(poly, attr, wrappers[id(obj)])

    def uninstall(self):
        for target, attr, obj in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = obj
            else:
                setattr(target, attr, obj)
        self._restore.clear()

    # --- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its children's."""
        out = [t1 - t0 for _, _, t0, t1 in self.spans]
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                out[parent] -= t1 - t0
        return out

    def roots(self) -> list[int]:
        """Index of the outermost span enclosing each span."""
        out = []
        for i, (_, parent, _, _) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out

    def self_by_name(self, root_name: str | None = None) -> dict[str, float]:
        """Summed self time per span name, optionally under one root span."""
        totals: dict[str, float] = {}
        selfs = self.self_times()
        roots = self.roots() if root_name is not None else None
        for i, (sid, _, _, _) in enumerate(self.spans):
            if roots is not None and self.names[self.spans[roots[i]][0]] != root_name:
                continue
            name = self.names[sid]
            totals[name] = totals.get(name, 0.0) + selfs[i]
        return totals

    def write(self, path) -> None:
        """Gzipped JSON lines, one per span: name, parent index, start, end,
        self time."""
        selfs = self.self_times()
        with gzip.open(path, "wt") as fh:
            for (sid, parent, t0, t1), s in zip(self.spans, selfs):
                fh.write(json.dumps([self.names[sid], parent, t0, t1, s]) + "\n")


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    c = tracer.counts
    self_s = tracer.self_by_name()
    m: dict[str, float] = {}

    def calls_self(layer):
        m[f"{layer}.calls"] = c[f"{layer}.calls"]
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    for layer in ("characters.poly_mul", "characters.poly_add", "characters.character_jt",
                  "characters.determinant", "characters.exact_divide",
                  "characters.specialize", "lpp.generating_series",
                  "lpp.bz_map", "lpp.p2l_map", "lpp.lpp_time",
                  "growth.apply_local", "growth.invert_local", "growth.grow_grid",
                  "growth.greene_oracle", "partitions.interlaces",
                  "probability.sample_passage_times", "cli.main"):
        calls_self(layer)
    for key in ("characters.poly_mul.term_pairs", "characters.character_jt.max_terms",
                "characters.determinant.max_size", "characters.specialize.terms",
                "lpp.generating_series.terms", "lpp.generating_series.fillings",
                "probability.sample_passage_times.streams",
                "probability.sample_passage_times.draws"):
        m[key] = c[key]
    m["characters.poly_mul.term_pairs_per_s"] = _rate(
        c["characters.poly_mul.term_pairs"], m["characters.poly_mul.self_s"])
    m["lpp.generating_series.fillings_per_s"] = _rate(
        c["lpp.generating_series.fillings"], m["lpp.generating_series.self_s"])
    m["probability.sample_passage_times.draws_per_s"] = _rate(
        c["probability.sample_passage_times.draws"],
        m["probability.sample_passage_times.self_s"])
    for op in ("wide", "deep"):
        m[f"probability.sample_passage_times.{op}.self_s"] = tracer.self_by_name(
            f"op:{op}").get("probability.sample_passage_times", 0.0)
    for fn in ("sample_lpp", "factorization_report", "exact_cdf", "normalization_constant"):
        m[f"probability.{fn}.self_s"] = self_s.get(f"probability.{fn}", 0.0)
    for layer in ("characters.poly_mul", "lpp.generating_series",
                  "probability.sample_passage_times"):
        m[f"{layer}.share"] = _rate(self_s.get(layer, 0.0), traced_wall)
    m["cli.output_bytes"] = output_bytes
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
