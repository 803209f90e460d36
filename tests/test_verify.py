"""Verification suites: determinism, statuses, and small-sample outcomes."""

import json
import os

import pytest

from burnmat import (
    SUITES,
    solvability_bound,
    verify_burnside_exponent,
    verify_derived_layers,
    verify_ideal_inclusions,
    verify_normal_forms,
    verify_order_dichotomy,
    verify_power_formula,
    verify_sanov,
    verify_solvability,
    verify_square,
)


def test_suite_registry():
    assert set(SUITES) == {"powers", "inclusions", "exponent", "orders",
                           "solvable", "square", "layers", "sanov", "normalform"}
    per_q = {name: entry["per_q"] for name, entry in SUITES.items()}
    assert per_q == {"powers": False, "inclusions": True, "exponent": True,
                     "orders": True, "solvable": True, "square": True,
                     "layers": False, "sanov": False, "normalform": False}


def test_solvability_bound_table():
    assert solvability_bound(2) == (1, 2)
    assert solvability_bound(3) == (2, 3)
    assert solvability_bound(4) == (4, 4)
    assert solvability_bound(5) == (4, 4)
    assert solvability_bound(8) == (12, 5)
    assert solvability_bound(9) == (12, 5)


def test_power_suite_small():
    r = verify_power_formula(samples=6, max_n=5, max_len=8, commutator_range=2)
    assert r.passed and r.checks == 6 * 5 + 9
    assert r.result == "powers" and r.q is None


def test_reports_are_deterministic():
    r1 = verify_power_formula(samples=6, max_n=4, seed=3)
    r2 = verify_power_formula(samples=6, max_n=4, seed=3)
    assert r1.to_record() == r2.to_record()
    assert json.dumps(r1.to_record(), sort_keys=True) == \
        json.dumps(r2.to_record(), sort_keys=True)
    r3 = verify_power_formula(samples=6, max_n=4, seed=5)
    assert r3.seed == 5 and r3.to_record() != r1.to_record()


def test_worker_count_does_not_change_reports():
    serial = verify_square(q=2, samples=6, jobs=1)
    forked = verify_square(q=2, samples=6, jobs=2)
    assert serial.to_record() == forked.to_record()
    s2 = verify_power_formula(samples=8, max_n=3, jobs=2)
    s1 = verify_power_formula(samples=8, max_n=3, jobs=1)
    assert s1.to_record() == s2.to_record()
    n1 = verify_normal_forms(samples=9, jobs=1)
    n2 = verify_normal_forms(samples=9, jobs=2)
    assert n1.to_record() == n2.to_record()
    e1 = verify_burnside_exponent(3, samples=7, jobs=1)
    e2 = verify_burnside_exponent(3, samples=7, jobs=2)
    assert e1.to_record() == e2.to_record()


def test_inclusion_suite_parameters():
    r2 = verify_ideal_inclusions(2)
    assert r2.passed and r2.parameters["d_min"] == 1
    assert r2.parameters["refinement"] is None
    assert len(r2.rows) == 2  # degrees 0 and 1
    r4 = verify_ideal_inclusions(4)
    assert r4.passed
    assert r4.parameters["refinement"] == {"j": 1, "k": 3, "ok": True}
    assert [row["degree"] for row in r4.rows] == [0, 1, 2, 3, 4]


def test_exponent_suite_small():
    r = verify_burnside_exponent(2, samples=10)
    assert r.passed and r.parameters["closure"] == 4
    r5 = verify_burnside_exponent(5, samples=5)
    assert r5.passed and r5.parameters["closure"] is None


def test_order_suite_proved_class():
    r = verify_order_dichotomy(3, samples=15, infinite_samples=5)
    assert r.status == "proved" and r.passed
    assert {row["order"] for row in r.rows} <= {1, 3}
    assert sum(row["count"] for row in r.rows) == 15


def test_order_suite_experimental_class_reports_violations():
    r = verify_order_dichotomy(4, samples=20, infinite_samples=5)
    assert r.status == "experimental"
    assert not r.passed  # violations recorded, surfaced as failures
    assert all("order" in msg for msg in r.failures)
    assert {row["order"] for row in r.rows} <= {1, 2, 4, 8}
    assert sum(row["count"] for row in r.rows) == 20
    # the infinite-order half of the dichotomy stays clean
    assert not any("classified infinite" in m or "finite order" in m
                   for m in r.failures)


def test_solvable_suite_q2():
    r = verify_solvability(2, samples=5)
    assert r.passed and r.k == 2 and r.upper_ok
    assert r.witness == "abAB" and r.witness_tried == 1


def test_solvable_suite_witness_absence_not_failed():
    r = verify_solvability(3, samples=2, witness_budget=0)
    assert r.witness is None and r.witness_tried == 0
    assert r.passed  # absence is reported, never failed


def test_square_suite_small():
    r = verify_square(3, samples=10)
    assert r.passed and r.checks == 10


def test_layers_suite_small():
    r = verify_derived_layers(ks=(2,), samples=4, cross_check=1)
    assert r.passed
    assert len(r.rows) == 4
    for row in r.rows:
        assert row["k"] == 2 and row["valuation"] >= 1 and row["sigma_ok"]


def test_sanov_suite_counts():
    r = verify_sanov(max_len=5)
    assert r.passed
    assert r.checks == 4 * (3 ** 5 - 1) // 2


def test_normal_form_suite_small():
    r = verify_normal_forms(samples=10)
    assert r.passed and r.checks == 10


def test_pmap_caps_processes_at_cpus_and_items(monkeypatch):
    import burnmat.verify as verify

    real_fork = verify.os.fork
    forks = []

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(verify.os, "fork", counting_fork)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    assert verify._pmap(abs, [-1, -2, 3], 10 ** 9) == [1, 2, 3]
    assert len(forks) == 3
    assert verify._pmap(abs, list(range(-50, 50)), 10 ** 9) == [abs(i) for i in range(-50, 50)]
    assert len(forks) == 3 + 4
    assert verify._pmap(abs, list(range(100)), 2) == list(range(100))
    assert len(forks) == 3 + 4 + 2
    # one item, one job or one CPU: no fork at all
    assert verify._pmap(abs, [-7], 10 ** 9) == [7]
    assert verify._pmap(abs, [-1, -2], 1) == [1, 2]
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert verify._pmap(abs, [-1, -2], 10 ** 9) == [1, 2]
    assert len(forks) == 9


@pytest.mark.parametrize("procs", [1, 2, 3, 4])
def test_pmap_keeps_item_order(monkeypatch, procs):
    import burnmat.verify as verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    items = list(range(23))
    got = verify._pmap(lambda i: (i, os.getpid()), items, procs)
    assert [i for i, _ in got] == items
    assert len({pid for _, pid in got}) == procs
    assert (os.getpid() in {pid for _, pid in got}) == (procs == 1)


def _fail_on_five(i):
    if i == 5:
        raise ValueError(f"item {i} is bad")
    return i


def _exit_on_two(i):
    if i == 2:
        os._exit(3)
    return i


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pmap_reraises_worker_exception(monkeypatch):
    import burnmat.verify as verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="item 5 is bad"):
        verify._pmap(_fail_on_five, list(range(10)), 2)
    _assert_no_child_left()


def test_pmap_raises_when_worker_dies(monkeypatch):
    import burnmat.verify as verify

    # two CPUs even on a one-CPU machine, where the serial path would exit pytest
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="status 3 without a result"):
        verify._pmap(_exit_on_two, list(range(10)), 2)
    _assert_no_child_left()


def test_basic_commutator_chain_matches_flat_words():
    import burnmat.verify as verify
    from burnmat import GroupContext, basic_commutator

    ctx = GroupContext("metabelian")
    got = list(verify._basic_commutator_matrices(3))
    assert [(a, b) for a, b, _ in got] == [(a, b) for a in range(4) for b in range(4)]
    for a, b, M in got:
        word, _ = basic_commutator(a, b)
        assert M == ctx.eval_word(word), (a, b)


def test_suites_build_in_the_parent_before_forking(monkeypatch):
    import burnmat.kernels as kernels
    import burnmat.verify as verify

    monkeypatch.setattr(verify, "_CTX_MEMO", {})
    monkeypatch.setattr(kernels, "_CACHE", {})
    assert verify_square(4, samples=2, jobs=2).passed
    assert verify_burnside_exponent(4, samples=2, jobs=2).passed
    assert ("s", 4) in verify._CTX_MEMO and ("s", 4) in kernels._CACHE


def test_zero_checks_never_pass():
    assert not verify_square(2, samples=0).passed
    assert not verify_solvability(2, samples=0, witness_budget=0).passed
