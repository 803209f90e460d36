"""The names perfbench/ wraps and loads from burnmat must keep existing.

perfbench/spans.py patches burnmat's entry points by name and
perfbench/micro.py loads benchmarks/bench_kernels.py; a rename or deletion
there would otherwise only show when the benchmark runs.
"""

import os

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


def test_micro_loads_lane_benchmark(perfbench):
    _, micro = perfbench
    bench = micro._bench_kernels()
    assert callable(bench._batch) and callable(bench._time_lane)
    from burnmat import HAS_NUMBA  # noqa: F401  (perfbench/run.py imports it)
