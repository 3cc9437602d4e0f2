"""Spans around calls into the ``llinf`` layers, recorded from outside.

A :class:`Tracer` replaces every binding of the listed functions in the
``llinf`` module namespaces (``from .terms import project_depth`` makes
a separate binding in ``reduction``, ``metrics`` and ``properties``, and
each one is replaced), plus a few public methods, with wrappers that
record one span per call: name, start, end, parent span and job id.
Spans stay in memory until :meth:`Tracer.write_spans`.  ``walk`` is
wrapped as a generator that counts its yields, charged to the
innermost open span.  Python's collector is timed through
``gc.callbacks`` while the tracer is installed.

The untraced run never constructs a tracer, so it pays for none of this.
"""

import functools
import gc
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from llinf import (
    encodings, generate, lam, metrics, properties, reduction, surface, terms,
    wellform,
)

PROPERTY_CASES = {
    "subject_reduction_case": "subject_reduction",
    "weight_laws_case": "weight_laws",
    "oracle_agreement_case": "oracle_agreement",
    "joinability_case": "joinability",
    "lbl_diamond_case": "lbl_diamond",
}


def _tree_nodes(tree):
    n = 0
    todo = [tree]
    while todo:
        t = todo.pop()
        n += 1
        if isinstance(t, terms.App):
            todo.append(t.fn)
            todo.append(t.arg)
        elif isinstance(t, (terms.Lam, terms.Box)):
            todo.append(t.body)
    return n


def _constructors(tree):
    n = 0
    todo = [tree]
    while todo:
        t = todo.pop()
        if t.sym != "...":
            n += 1
        todo.extend(t.children)
    return n


def _graph_init_counts(args, kwargs, out, tracer):
    validate = args[3] if len(args) > 3 else kwargs.get("_validate", True)
    if validate:
        tracer.count["terms.graph_init.validated_calls"] += 1
    tracer.graph_defs_max = max(tracer.graph_defs_max, len(args[0].defs))


def _pruned_counts(args, kwargs, out, tracer):
    if out is not args[0]:
        tracer.count["terms.pruned.useful"] += 1


def _project_counts(args, kwargs, out, tracer):
    tracer.count["terms.project_depth.nodes"] += _tree_nodes(out)


def _check_counts(args, kwargs, out, tracer):
    tracer.count["wellform.check.states"] += out.states


def _eval_counts(args, kwargs, out, tracer):
    tracer.count["reduction.steps"] += sum(out[2].steps_per_depth.values())


def _scan_counts(args, kwargs, out, tracer):
    if out:
        tracer.count["reduction.redex_scan.hits"] += 1


def _decode_counts(args, kwargs, out, tracer):
    tracer.count["encodings.scott_decode.constructors"] += _constructors(out.tree)


def _parse_counts(args, kwargs, out, tracer):
    tracer.count["surface.parse.chars"] += len(args[0])


def _format_counts(args, kwargs, out, tracer):
    tracer.count["surface.format.chars"] += len(out)


def _case_counts(args, kwargs, out, tracer):
    tracer.count["properties.cases"] += 1
    if out is not None:
        tracer.count["properties.useful"] += 1


# (module, attribute, span name, counting hook)
FUNCTIONS = [
    (surface, "parse_program", "surface.parse", _parse_counts),
    (surface, "parse_lambda_program", "surface.parse", _parse_counts),
    (surface, "parse_term", "surface.parse", _parse_counts),
    (surface, "format_node", "surface.format", _format_counts),
    (surface, "format_graph", "surface.format", _format_counts),
    (terms, "subst_in_body", "terms.subst_in_body", None),
    (terms, "project_depth", "terms.project_depth", _project_counts),
    (terms, "canonical_string", "terms.canonical_string", None),
    (wellform, "check", "wellform.check", _check_counts),
    (wellform, "infer_env", "wellform.infer_env", None),
    (wellform, "occurrences", "wellform.occurrences", None),
    (reduction, "eval_lbl", "reduction.eval_lbl", _eval_counts),
    (reduction, "find_redexes", "reduction.redex_scan", _scan_counts),
    (reduction, "redexes_within_depth", "reduction.redex_scan", _scan_counts),
    (reduction, "contract", "reduction.contract", None),
    (reduction, "find_deadlock", "reduction.find_deadlock", None),
    (reduction, "has_any_redex", "reduction.has_any_redex", None),
    (metrics, "size_at", "metrics.projection_route", None),
    (metrics, "wei", "metrics.projection_route", None),
    (metrics, "df", "metrics.projection_route", None),
    (metrics, "twei", "metrics.projection_route", None),
    (metrics, "size_at_oracle", "metrics.oracle_route", None),
    (metrics, "wei_oracle", "metrics.oracle_route", None),
    (metrics, "df_oracle", "metrics.oracle_route", None),
    (metrics, "twei_oracle", "metrics.oracle_route", None),
    (metrics, "weight_trace", "metrics.weight_trace", None),
    (encodings, "scott_decode", "encodings.scott_decode", _decode_counts),
    (encodings, "scott_encode", "encodings.scott_encode", None),
    (lam, "check_labc", "lam.check_labc", None),
    (lam, "embed_girard", "lam.embed", None),
    (lam, "embed_cbv", "lam.embed", None),
    (generate, "random_term", "generate.random_term", None),
] + [(properties, fn, f"properties.{suite}", _case_counts)
     for fn, suite in PROPERTY_CASES.items()]

# (class, method, span name or None for a bare call counter, hook)
METHODS = [
    (terms.TermGraph, "__init__", "terms.graph_init", _graph_init_counts),
    (terms.TermGraph, "pruned", "terms.pruned", _pruned_counts),
    (terms.TermGraph, "all_names", "terms.all_names", None),
    (generate.TermGen, "term", None, None),
]


SPAN_NAMES = sorted({name for _, _, name, _ in FUNCTIONS + METHODS if name})


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, job)
        self.stack = []          # open spans: [id, name, child seconds]
        self.next_id = 0
        self.job = "setup"
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.count = Counter()
        self.graph_defs_max = 0
        self.hook_s = 0.0
        self.gc_s = 0.0
        self.gc_runs = 0
        self._gc_t0 = None
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [sid, name, 0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.self_s[name] += t1 - t0 - frame[2]
                tracer.total_s[name] += t1 - t0
                tracer.calls[name] += 1
                tracer.spans.append((sid, name, t0, t1, parent, tracer.job))
                if tracer.stack:
                    tracer.stack[-1][2] += t1 - t0
            if hook is not None:
                hook(args, kwargs, out, tracer)
                # hook time belongs to no layer: hide it from the parent
                t2 = perf_counter()
                if tracer.stack:
                    tracer.stack[-1][2] += t2 - t1
                tracer.hook_s += t2 - t1
            return out

        return wrapper

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _walk(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = tracer.stack[-1][1] if tracer.stack else "none"
            key = f"walk.{owner}"
            for item in fn(*args, **kwargs):
                tracer.count[key] += 1
                yield item

        return wrapper

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += perf_counter() - self._gc_t0
            self.gc_runs += 1
            self._gc_t0 = None

    # -- installation -----------------------------------------------------

    def _llinf_modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "llinf" or name.startswith("llinf."))]

    def install(self):
        """Replace every binding of each listed function, in every
        ``llinf`` module namespace, and the listed methods."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace = {}
        for mod, attr, name, hook in FUNCTIONS:
            orig = getattr(mod, attr)
            replace[id(orig)] = (orig, self._span(name, orig, hook))
        orig_walk = reduction.walk
        replace[id(orig_walk)] = (orig_walk, self._walk(orig_walk))
        for mod in self._llinf_modules():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for cls, attr, name, hook in METHODS:
            orig = cls.__dict__[attr]
            wrapped = (self._span(name, orig, hook) if name
                       else self._counter(f"{cls.__name__}.{attr}", orig))
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, wrapped)
        gc.callbacks.append(self._gc)

    def uninstall(self):
        gc.callbacks.remove(self._gc)
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Copy of the accumulated per-layer totals."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "count": dict(self.count),
            "graph_defs_max": self.graph_defs_max,
            "gc_s": self.gc_s,
            "gc_runs": self.gc_runs,
        }

    def write_spans(self, path):
        """Write every span as one JSON line, in opening order."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, job in sorted(self.spans):
                fh.write(json.dumps([sid, name, round(t0, 7), round(t1, 7),
                                     parent, job]) + "\n")
