"""The names perfbench/ wraps and loads from burnmat must keep existing.

perfbench/spans.py patches burnmat's entry points by name and
perfbench/micro.py loads benchmarks/bench_kernels.py; a rename or deletion
there would otherwise only show when the benchmark runs.
"""

import ast
import importlib.util
import inspect
import os
import random

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import micro
    import spans

    return spans, micro


def test_span_hooks_install_and_uninstall(perfbench):
    spans, _ = perfbench
    from burnmat import groups, ideals, verify

    closure = groups.group_closure
    reduce = ideals.SContext.__dict__["reduce"]
    tracer = spans.Tracer()
    try:
        spans.install_setup(tracer)
        spans.install_layers(tracer)
        assert verify.verify_burnside_exponent(2, samples=1).passed
    finally:
        tracer.uninstall()
    assert {"groups.closure", "ideals.reduce", "kernels.eval.S2"} <= set(tracer.agg)
    assert groups.group_closure is closure and verify.group_closure is closure
    assert ideals.SContext.__dict__["reduce"] is reduce


def test_wrapped_layer_names_keep_their_signatures(perfbench):
    # install_layers reads argument 1, named w, of both eval_word methods and
    # argument 1, named k, of sample_layer_element, and wraps SeriesMatrix.mul
    # and LaurentPoly.__mul__ from their class dicts
    spans, _ = perfbench
    from burnmat import groups, rings, tadic, verify

    def params(fn):
        return list(inspect.signature(fn).parameters)[:2]

    for cls in (groups.GroupContext, tadic.SeriesContext):
        assert params(cls.__dict__["eval_word"]) == ["self", "w"]
    assert params(tadic.sample_layer_element) == ["rng", "k"]
    assert callable(tadic.SeriesMatrix.__dict__["mul"])
    assert callable(rings.LaurentPoly.__dict__["__mul__"])
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer)
        assert verify.verify_derived_layers(ks=(2,), samples=2, cross_check=1).passed
        # depth-3 nodes take their children's deltas by SeriesMatrix.mul
        tadic.sample_layer_element(random.Random(0), 3, tadic.SeriesContext(3))
    finally:
        tracer.uninstall()
    assert {"groups.eval_word", "tadic.eval_word", "tadic.series_mul", "tadic.sample.k2",
            "tadic.sample.k3", "rings.mul"} <= set(tracer.agg)
    assert tracer.counts["groups.eval_word.letters"] > 0


def test_micro_loads_lane_benchmark(perfbench):
    _, micro = perfbench
    bench = micro._bench_kernels()
    assert callable(bench._batch) and callable(bench._time_lane)
    from burnmat import HAS_NUMBA  # noqa: F401  (perfbench/run.py imports it)


def _names_imported_from_burnmat(paths):
    names = set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "burnmat"
                  for alias in node.names}
    return names


def test_public_names_resolve():
    import burnmat

    assert len(burnmat.__all__) == len(set(burnmat.__all__))
    assert [n for n in burnmat.__all__ if not hasattr(burnmat, n)] == []
    # every name perfbench/ and benchmarks/ import from the package itself
    paths = [os.path.join(ROOT, d, f) for d in ("perfbench", "benchmarks")
             for f in sorted(os.listdir(os.path.join(ROOT, d))) if f.endswith(".py")]
    names = _names_imported_from_burnmat(paths)
    assert {"HAS_NUMBA", "SContext", "SeriesContext", "sample_layer_element",
            "random_reduced_word", "kernels"} <= names
    for name in sorted(names):
        assert hasattr(burnmat, name) or importlib.util.find_spec(f"burnmat.{name}"), name
