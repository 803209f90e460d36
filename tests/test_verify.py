"""Verification suites: determinism, statuses, and small-sample outcomes."""

import hashlib
import itertools
import json
import os

import pytest

from burnmat import (
    SUITES,
    check_derived_layer,
    free_reduce,
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
from burnmat.groups import GroupContext, balanced_commutator_word, group_context
from burnmat.ideals import SContext


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


def test_workers_forked_after_blas_products_match_serial():
    # the numpy lane multiplies by BLAS; workers forked from a parent whose
    # BLAS has already run wide products must give the serial report
    from burnmat import kernels

    tables = kernels.tables_for(SContext.for_q(8))
    kernels.eval_word_quotient("b" * 40 + "abAB" * 10, tables)
    kwargs = dict(samples=4, infinite_samples=2, max_len=6, seed=3)
    forked = verify_order_dichotomy(8, jobs=2, **kwargs)
    assert forked.to_record() == verify_order_dichotomy(8, jobs=1, **kwargs).to_record()
    forked = verify_solvability(9, samples=3, witness_budget=2, seed=3, jobs=2)
    assert forked.to_record() == verify_solvability(9, samples=3, witness_budget=2,
                                                    seed=3, jobs=1).to_record()


# sha256 of each report's record, serialized as `--output structured` does
# (less config_hash), at jobs 1 and 2.  Seed 2, not 0, so the stride of the
# per-sample seeds shows.  A report shows its words only where they fail or
# are tallied (orders, solvable, layers); the others pin their parameters.
PINNED_REPORTS = {
    "powers": (lambda j: verify_power_formula(samples=20, max_n=4, seed=2, jobs=j),
               "bca66c6c774c4b837a0a6e0e255e34cfb3a1118cb97bfb499d304a4797d78162"),
    "inclusions-q9": (lambda j: verify_ideal_inclusions(9, seed=2, jobs=j),
                      "4a63d2f01b7a017872047968798910201e793ba86e7b24c7611a2c796d0e9568"),
    "exponent-q3": (lambda j: verify_burnside_exponent(3, samples=20, seed=2, jobs=j),
                    "5a2c8f97b7610e84f0e23f8561a9c556356b1695b875362fccaa1e764161e851"),
    "exponent-q8": (lambda j: verify_burnside_exponent(8, samples=10, seed=2, jobs=j),
                    "eaeb54199ee876ffd8832ea891684bb44fc2a698bcd21ea998fa0545a2670423"),
    "orders-q4": (lambda j: verify_order_dichotomy(4, samples=20, infinite_samples=5,
                                                   max_len=8, seed=2, jobs=j),
                  "5bd738017195126960bfaa2b2877ef496fd076b8c93b2f92acb3b6108f557828"),
    "orders-q5": (lambda j: verify_order_dichotomy(5, samples=10, infinite_samples=5,
                                                   max_len=8, seed=2, jobs=j),
                  "f3327b1be7586b3ecf99ff2da552240d687c91964538b6166b4d047af32af5b6"),
    "solvable-q3": (lambda j: verify_solvability(3, samples=10, witness_budget=20,
                                                 seed=2, jobs=j),
                    "6953240eefaa88d2525cd7c48a3ced47b3d34fb6c8a834175226bb394834c1f5"),
    "solvable-q4": (lambda j: verify_solvability(4, samples=5, witness_budget=5,
                                                 seed=2, jobs=j),
                    "5a9c9bd61c54bb6f5be1fcc6aee4af93bdac4ac4618f98cc4602a7c393a0aca5"),
    "square-q4": (lambda j: verify_square(4, samples=10, seed=2, jobs=j),
                  "66970a4a4e1d2afe115bd466e90b9c14d14a86d1e2a697a21bd2f4e4cde8afcc"),
    # k = 2 only: one k = 3 cross-check costs about 4 s
    "layers-k2": (lambda j: verify_derived_layers(ks=(2,), samples=20, seed=2, jobs=j),
                  "7ce05631b2806834b8ac99d38ee5a93f88fe8499ce9179712c0f588d1e0066be"),
    "sanov": (lambda j: verify_sanov(max_len=6),
              "d1b68f2ab4a4afdff9c1bb4791c042fcaa05adb7ebd270ae4de4ee81e2f7deec"),
    "normalform": (lambda j: verify_normal_forms(samples=20, seed=2, jobs=j),
                   "f84104ceea9c987348470136e2f869daae568a0bab3456a2323aa19c4445269c"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_pinned_report_digests(name, jobs):
    call, digest = PINNED_REPORTS[name]
    record = json.dumps(call(jobs).to_record(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(record.encode()).hexdigest() == digest


# sha256 of the sorted words each sampler handed each suite at seed 2,
# recorded at the commit before word evaluation moved to letter steps.  A
# passing report of these suites shows none of its words, so the digests in
# PINNED_REPORTS cannot pin them; orders-q5 is the infinite-order half alone
# (samples=0), drawn from seed + 1.
PINNED_WORDS = {
    "powers": (lambda j: verify_power_formula(samples=20, max_n=2, seed=2, jobs=j),
               "18e88e916f2bedf579e12ed3d45d71486c552ae3933c8fe851539c4eb49227f1"),
    "exponent-q8": (lambda j: verify_burnside_exponent(8, samples=10, seed=2, jobs=j),
                    "9685cbd16a2acd08c5766c990061236f4d81b346dae83e7a5495109fe2d7e86e"),
    "square-q4": (lambda j: verify_square(4, samples=10, seed=2, jobs=j),
                  "1467090d447d79f7724fb8f114db086bd3452de1f5edda7d67eec97f1469948b"),
    "normalform": (lambda j: verify_normal_forms(samples=20, seed=2, jobs=j),
                   "7d65509be2605935ae6a87d725fe1d5967d68ec2c5487ba62a84d253f0116aa9"),
    "orders-q5": (lambda j: verify_order_dichotomy(5, samples=0, infinite_samples=10,
                                                   max_len=8, seed=2, jobs=j),
                  "9469b9527f8d27e9b773db6933c50c1343694d4f67bf01afb323ce7b2b96e4ae"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", PINNED_WORDS)
def test_pinned_sampled_words(name, jobs, tmp_path, monkeypatch):
    # forked workers inherit the wrapped samplers and append to one file;
    # sorting the lines makes the digest independent of their interleaving
    import burnmat.verify as verify

    log = str(tmp_path / "words")

    def recording(sampler):
        def draw(*args, **kwargs):
            w = sampler(*args, **kwargs)
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{sampler.__name__} {w}\n".encode())
            finally:
                os.close(fd)
            return w
        return draw

    for attr in ("random_reduced_word", "random_zero_sum_word"):
        monkeypatch.setattr(verify, attr, recording(getattr(verify, attr)))
    call, digest = PINNED_WORDS[name]
    call(jobs)
    with open(log, "rb") as fh:
        lines = sorted(fh.read().splitlines())
    assert lines
    assert hashlib.sha256(b"\n".join(lines)).hexdigest() == digest


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


@pytest.mark.parametrize("arity", [4, 8])
def test_structured_candidates_of_more_than_two_leaves_are_empty(arity):
    # why the witness search builds structured candidates only for two leaves
    for leaves in itertools.product("ab", repeat=arity):
        assert free_reduce(balanced_commutator_word(leaves)) == ""


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


def test_layers_cross_check_zero_skips_the_exact_path_at_k3(monkeypatch):
    def no_exact(self, word):
        raise AssertionError("exact evaluation with cross_check=0")

    monkeypatch.setattr(GroupContext, "eval_word", no_exact)
    r = verify_derived_layers(ks=(3,), samples=1, cross_check=0)
    assert r.passed and r.checks == 1


@pytest.mark.parametrize("ks", [(1,), (0,), (2, -1)])
def test_layers_suite_rejects_k_below_two(ks):
    # depth 1 has no layer bound (d = 2^(k-2)); rejected before any sample
    with pytest.raises(ValueError, match=f"k must be >= 2, got {min(ks)}"):
        verify_derived_layers(ks=ks, samples=1)
    with pytest.raises(ValueError, match=f"k must be >= 2, got {min(ks)}"):
        check_derived_layer(group_context("free").identity(), min(ks))


def _recorded_eval_is_identity(monkeypatch, result):
    """Make every kernel identity test return result; the words it saw, in order."""
    import burnmat.verify as verify

    seen = []

    def fake(w, tables):
        seen.append(w)
        return result

    monkeypatch.setattr(verify.kernels, "eval_is_identity", fake)
    return seen


def test_layers_sigma_failure_names_sample_and_word(monkeypatch):
    seen = _recorded_eval_is_identity(monkeypatch, False)
    r = verify_derived_layers(ks=(2,), samples=3, cross_check=0)
    assert not r.passed and len(seen) == 3
    assert r.failures == [f"k=2 sample {i}: coefficients escape Sigma^2 for word {w!r}"
                          for i, w in enumerate(seen)]


def test_layers_valuation_failure_names_sample_and_word(monkeypatch):
    import dataclasses

    import burnmat.verify as verify

    real = verify.sample_layer_element
    words = []

    def collapsed(*args, **kwargs):
        samp = real(*args, **kwargs)
        words.append(samp.word)
        return dataclasses.replace(samp, valuation=0)

    monkeypatch.setattr(verify, "sample_layer_element", collapsed)
    r = verify_derived_layers(ks=(3,), samples=2, cross_check=0)
    assert r.failures == [f"k=3 sample {i}: valuation 0 < 2 for word {w!r}"
                          for i, w in enumerate(words)]


def test_solvability_failures_name_tree_and_word(monkeypatch, capsys):
    from burnmat import cli

    seen = _recorded_eval_is_identity(monkeypatch, False)
    r = verify_solvability(2, samples=12, witness_budget=1)
    trees = seen[:12]
    assert not r.passed and not r.upper_ok
    assert r.failures == [f"tree {i}: depth-2 word {w!r} of length {len(w)} is not the identity"
                          for i, w in enumerate(trees)]
    assert r.witness == seen[12]
    # the text report lists the first 10, as the other suites do
    cli._emit_report_text(r)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("[FAIL] solvable q=2:")
    assert out[1:] == [f"    {m}" for m in r.failures[:10]] + ["    ... 2 more"]
    # the structured record is unchanged: the failures stay out of it
    assert "failures" not in r.to_record()


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

    # forked children cannot fill this process's caches, so whatever is
    # there after jobs=2 runs was built here, before the fork
    SContext.for_q.cache_clear()
    monkeypatch.setattr(kernels, "_CACHE", {})
    assert verify_square(4, samples=2, jobs=2).passed
    assert kernels._CACHE.keys() == {("s", 4)}
    assert verify_burnside_exponent(4, samples=2, jobs=2).passed
    assert kernels._CACHE.keys() == {("s", 4), ("t1", 4)}
    assert verify_order_dichotomy(5, samples=2, infinite_samples=2, jobs=2).passed
    assert kernels._CACHE.keys() == {("s", 4), ("t1", 4), ("s", 5)}
    assert SContext.for_q.cache_info().currsize == 2
    assert SContext.for_q(4) is SContext.for_q(4)


def test_zero_checks_never_pass():
    assert not verify_square(2, samples=0).passed
    assert not verify_solvability(2, samples=0, witness_budget=0).passed
