"""Spans and counts recorded from outside burnmat, by wrapping its public entry points.

A span is opened around each wrapped call and closed when it returns. Its
self time is its duration minus the time covered by the spans opened inside
it, so a module's self time is the time spent in that module's own code.
Calls that happen hundreds of thousands of times (ring multiplies, series
multiplies, reductions) are only aggregated; every other span is also kept
as a record (id, parent id, name, start, end) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# spans that are aggregated but not kept one by one: there are too many
HOT = ("rings.mul", "tadic.series_mul", "tadic.eval_word", "kernels.reduce_vec",
       "ideals.reduce", "ideals.member", "groups.eval_word")


class Tracer:
    """Open-span stack, per-name aggregates, counters and the installed patches."""

    def __init__(self):
        self.stack = []      # open spans: [name, start, child_time, span_id, parent_id]
        self.agg = {}        # name -> [calls, total_s, self_s]
        self.counts = {}
        self.records = []    # (span_id, parent_id, name, start, end)
        self.suite = None    # verify suite whose span is open, for per-suite counts
        self._next_id = 1
        self._patches = []   # (owner, attr, original)

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else 0
        self.stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def end(self) -> float:
        name, start, child, sid, parent = self.stack.pop()
        stop = time.perf_counter()
        dt = stop - start
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dt
        a[2] += dt - child
        if self.stack:
            self.stack[-1][2] += dt
        if not name.startswith(HOT):
            self.records.append((sid, parent, name, start, stop))
        return dt

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name_of, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            if on_call is not None:
                on_call(name, args, kwargs)
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if on_result is not None:
                on_result(name, args, kwargs, out)
            return out

        return wrapper

    def patch_function(self, module, attr: str, name_of, on_call=None, on_result=None):
        """Wrap module.attr and every other burnmat module binding the same function."""
        orig = getattr(module, attr)
        wrapped = self._wrap(orig, name_of, on_call, on_result)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("burnmat"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name_of, on_call=None, on_result=None):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(orig, name_of, on_call, on_result))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        return sum(a[2] for n, a in self.agg.items() if n.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(a[0] for n, a in self.agg.items() if n.startswith(prefix))

    def write(self, path: str, header: dict) -> None:
        """JSON lines: a header, one aggregate per span name, counters, then span records."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "header", **header}) + "\n")
            for name in sorted(self.agg):
                calls, total, own = self.agg[name]
                fh.write(json.dumps({"kind": "aggregate", "name": name, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")
            for name in sorted(self.counts):
                fh.write(json.dumps({"kind": "count", "name": name,
                                     "value": self.counts[name]}) + "\n")
            for sid, parent, name, start, stop in self.records:
                fh.write(json.dumps({"kind": "span", "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": stop}) + "\n")


def _fixed(name):
    return lambda args, kwargs: name


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def install_setup(tracer: Tracer) -> None:
    """Wrap only the lazily built structures: HNF lattices and kernel tables."""
    from burnmat import ideals, kernels

    def lattice_name(args, kwargs):
        return f"ideals.lattice_build.q{_arg(args, kwargs, 0, 'params').q}"

    def lattice_rank(name, args, kwargs, lat):
        # the I(q)Sigma lattice is the one S(q) arithmetic reduces by
        if kwargs.get("times_sigma"):
            q = _arg(args, kwargs, 0, "params").q
            tracer.counts[f"ideals.lattice_rank.q{q}"] = lat.rank

    tracer.patch_function(ideals, "cyclotomic_lattice", lattice_name,
                          on_result=lattice_rank)
    tracer.patch_function(kernels, "tables_for", _fixed("kernels.tables"))
    tracer.patch_function(kernels, "sigma_tables", _fixed("kernels.tables"))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of rings, groups, ideals, kernels and tadic."""
    from burnmat import groups, ideals, kernels, rings, tadic

    tracer.patch_method(rings.LaurentPoly, "__mul__", _fixed("rings.mul"))

    def count_group_letters(name, args, kwargs):
        tracer.count("groups.eval_word.letters", len(_arg(args, kwargs, 1, "w")))

    tracer.patch_method(groups.GroupContext, "eval_word", _fixed("groups.eval_word"),
                        on_call=count_group_letters)
    tracer.patch_function(groups, "order_in_G", _fixed("groups.order_in_G"))
    tracer.patch_function(groups, "commutative_square_check", _fixed("groups.square"))
    tracer.patch_function(groups, "group_closure", _fixed("groups.closure"))

    tracer.patch_method(ideals.IdealLattice, "member", _fixed("ideals.member"))
    tracer.patch_method(ideals.SContext, "reduce", _fixed("ideals.reduce"))

    def eval_name(args, kwargs):
        tables = _arg(args, kwargs, 1, "tables")
        return f"kernels.eval.S{tables.q}" if tables.q else f"kernels.eval.Sigma{tables.D}"

    def count_eval(name, args, kwargs):
        tracer.count(name + ".letters", len(_arg(args, kwargs, 0, "word")))
        if tracer.suite == "orders":
            tracer.count("kernels.eval.calls_in_orders")

    tracer.patch_function(kernels, "eval_word_quotient", eval_name, on_call=count_eval)
    tracer.patch_method(kernels.QuotientTables, "reduce_vec", _fixed("kernels.reduce_vec"))

    def sample_name(args, kwargs):
        return f"tadic.sample.k{_arg(args, kwargs, 1, 'k')}"

    tracer.patch_function(tadic, "sample_layer_element", sample_name)
    tracer.patch_method(tadic.SeriesMatrix, "mul", _fixed("tadic.series_mul"))
    tracer.patch_method(tadic.SeriesContext, "eval_word", _fixed("tadic.eval_word"))
