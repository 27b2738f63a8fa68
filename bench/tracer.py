"""Spans around calls into zpoly, recorded from outside the library.

`Tracer.install()` replaces each target function with a timing wrapper at
every module attribute that binds it (so `analysis.interpolate_grid`, bound
by `from .exact import interpolate_grid`, is wrapped as well as
`exact.interpolate_grid`), and each target method on its class.  Spans stay
in memory as (id, name, start, end, parent, job) tuples; self time is a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> functions ("Class.method" for methods).  Per-element hot paths
# such as QMat.vecmat or Fraction arithmetic are deliberately absent.
TARGETS = {
    "cli": ("main", "load_function"),
    "mso": ("parse_count", "count_to_cplc", "count_to_linrep", "count_sets_to_linrep"),
    "lang": ("compile_regex", "residual_language", "monoid_from_generators"),
    "cplc": ("parse_expression", "Cplc.to_linrep", "Cplc.eval", "Cplc.residual",
             "product_monoid"),
    "series": ("minimize", "LinRep.eval", "distinguishing_word", "spectrum_probe"),
    "exact": ("RowBasis.insert", "RowBasis.coords", "QMat.power", "interpolate_grid",
              "char_poly"),
    "forests": ("extract_patterns", "simon_forest"),
    "analysis": ("growth_degree", "normalize_pattern", "pattern_polynomial", "equiv_mod_k"),
    "canon": ("residual_transducer", "star_free", "counter_free"),
}


def _stat_max(counters, key, value):
    counters[key] = max(counters.get(key, 0), value)


def _stat_add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


# Counters read off arguments and results:
# name -> (counter names, fn(counters, args, result)).
STATS = {
    "lang.monoid_from_generators": (
        ("size_max",), lambda c, args, res: _stat_max(c, "size_max", res[0].size)),
    "cplc.Cplc.to_linrep": (
        ("dim_out",), lambda c, args, res: _stat_add(c, "dim_out", res.dim)),
    "series.minimize": (
        ("dim_in", "dim_out"),
        lambda c, args, res: (_stat_add(c, "dim_in", args[0].dim),
                              _stat_add(c, "dim_out", res.dim))),
    "analysis.growth_degree": (
        ("patterns_tried", "exhausted"),
        lambda c, args, res: (_stat_add(c, "patterns_tried", res.patterns_tried),
                              _stat_add(c, "exhausted", int(res.budget_exhausted)))),
    "analysis.equiv_mod_k": (
        ("true",), lambda c, args, res: _stat_add(c, "true", int(bool(res)))),
    "canon.residual_transducer": (
        ("states",), lambda c, args, res: _stat_add(c, "states", res.n_states)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(dict)   # name -> {stat: value}, per job
        self.job = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        stat = STATS.get(name, (None, None))[1]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.job))
            if stat is not None:
                stat(self.counters[(self.job, name)], args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target at every binding in the loaded zpoly modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zpoly" or n.startswith("zpoly."))]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules["zpoly." + mod_name]
            for qual in funcs:
                name = "%s.%s" % (mod_name, qual)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(home, qual)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        """{span id: self seconds}."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid]
                for sid, _name, start, end, _parent, _job in self.spans}

    def per_function(self):
        """{name: {"calls", "self_s", other counters}} over all jobs."""
        out = {"%s.%s" % (m, q): {"calls": 0, "self_s": 0.0}
               for m, funcs in TARGETS.items() for q in funcs}
        for name, (keys, _fn) in STATS.items():
            out[name].update(dict.fromkeys(keys, 0))
        own = self.self_times()
        for sid, name, *_rest in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += own[sid]
        for (_job, name), stats in self.counters.items():
            for key, value in stats.items():
                if key == "size_max":
                    _stat_max(out[name], key, value)
                else:
                    _stat_add(out[name], key, value)
        return out

    def per_job(self, job):
        """Exact per-job counts: calls per function plus the counters."""
        calls = defaultdict(int)
        for _sid, name, _s, _e, _p, span_job in self.spans:
            if span_job == job:
                calls[name] += 1
        out = {"calls": dict(sorted(calls.items()))}
        for (span_job, name), stats in sorted(self.counters.items(), key=str):
            if span_job == job:
                for key, value in stats.items():
                    out["%s.%s" % (name, key)] = value
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
