"""Command-line surface: subcommands, exit codes, reports, config."""

import contextlib
import io
import json
import os

import pytest

from burnmat.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, Config, main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_ring_valuation_and_augmentation():
    rc, out, _ = run(["ring", "(1-x)*(1-y)"])
    assert rc == EXIT_OK and "sigma-valuation: 2" in out
    rc, out, _ = run(["ring", "1+x+x^2"])
    assert rc == EXIT_OK and "augmentation: 3" in out
    rc, out, _ = run(["ring", "x^-1-1"])
    assert rc == EXIT_OK and "sigma-valuation: 1" in out
    rc, out, _ = run(["ring", "t*x - 1"])
    assert rc == EXIT_OK and "n/a" in out


def test_ring_parse_error_is_usage_error():
    rc, _, err = run(["ring", "1 + * x"])
    assert rc == EXIT_USAGE
    assert "parse error" in err and "position" in err


def test_ideal_membership_verdicts():
    rc, out, _ = run(["ideal", "--q", "3", "(1-x)^2"])
    assert rc == EXIT_OK and "member of I(3): True" in out
    rc, out, _ = run(["ideal", "--q", "3", "1-x"])
    assert rc == EXIT_OK and "member of I(3): False" in out
    rc, out, _ = run(["ideal", "--q", "2", "2*(1-x)"])
    assert rc == EXIT_OK and "member of I(2)Sigma: True" in out


def test_ideal_rejects_non_prime_power():
    rc, _, err = run(["ideal", "--q", "6", "1-x"])
    assert rc == EXIT_USAGE
    assert "prime power" in err


def test_order_reports():
    rc, out, _ = run(["order", "--q", "3", "a"])
    assert rc == EXIT_OK and "= 3" in out
    rc, out, _ = run(["order", "--q", "3", "b"])
    assert rc == EXIT_OK and "Infinite" in out and "determinant t^" in out
    rc, out, _ = run(["order", "--q", "3", "abAB"])
    assert rc == EXIT_OK and "= 3" in out


def test_order_rejects_bad_letters():
    rc, _, err = run(["order", "--q", "3", "axq"])
    assert rc == EXIT_USAGE and "invalid letters" in err


def test_order_violation_is_reported_not_fatal_for_composite_exponent():
    rc, out, _ = run(["order", "--q", "4", "abaB"])
    assert rc == EXIT_OK
    assert "violated" in out and "probed order: 8" in out


def test_verify_unknown_suite():
    rc, _, err = run(["verify", "nosuchsuite"])
    assert rc == EXIT_USAGE and "unknown suite" in err


def test_verify_text_output():
    rc, out, _ = run(["--samples", "5", "verify", "powers"])
    assert rc == EXIT_OK
    assert out.startswith("[PASS] powers:")


def test_verify_experimental_status_keeps_exit_zero():
    rc, out, _ = run(["--samples", "6", "--infinite-samples", "2",
                      "verify", "orders", "--q", "4"])
    assert rc == EXIT_OK
    assert "[EXP ]" in out


def test_structured_reports_are_byte_identical():
    argv = ["--samples", "4", "--output", "structured", "verify", "square", "--q", "2"]
    rc1, out1, _ = run(argv)
    rc2, out2, _ = run(argv)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2
    record = json.loads(out1)
    assert record["suite"] == "square" and record["config_hash"]


def test_structured_reports_ignore_worker_count():
    base = ["--samples", "4", "--output", "structured"]
    _, out1, _ = run(base + ["--jobs", "1", "verify", "square", "--q", "2"])
    _, out2, _ = run(base + ["--jobs", "2", "verify", "square", "--q", "2"])
    assert out1 == out2


def test_report_solvability_table():
    rc, out, _ = run(["--witness-budget", "10", "report", "--q", "2"])
    assert rc == EXIT_OK
    assert "all -> I" in out and "abAB" in out


def test_config_round_trip(tmp_path):
    cfg = Config(qs=(2, 3), seed=7, samples=12, witness_budget=30)
    path = os.path.join(tmp_path, "run.cfg")
    cfg.save(path)
    assert Config.from_file(path) == cfg


def test_config_hash_skips_execution_knobs():
    a = Config(qs=(2, 3), seed=1, jobs=1, output="text")
    b = Config(qs=(2, 3), seed=1, jobs=8, output="structured")
    assert a.hash() == b.hash()
    c = Config(qs=(2, 3), seed=2)
    assert c.hash() != a.hash()


def test_config_file_feeds_cli(tmp_path):
    path = os.path.join(tmp_path, "run.cfg")
    Config(qs=(2,), samples=4).save(path)
    rc, out, _ = run(["--config", path, "--output", "structured",
                      "verify", "square"])
    assert rc == EXIT_OK
    record = json.loads(out)
    assert record["q"] == 2 and record["parameters"]["samples"] == 4


@pytest.mark.parametrize("argv", [
    ["--samples", "-3", "verify", "square", "--q", "2"],
    ["--samples", "0", "verify", "square", "--q", "2"],
    ["--max-len", "0", "verify", "exponent", "--q", "2"],
])
def test_bad_override_is_usage_error(argv):
    rc, out, err = run(argv)
    assert rc == EXIT_USAGE and out == ""
    key = argv[0][2:].replace("-", "_")
    assert key in err and "Traceback" not in err


def test_bad_override_in_config_file_is_usage_error(tmp_path):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write("qs = 2\ninfinite_samples = 0\n")
    rc, _, err = run(["--config", path, "verify", "orders"])
    assert rc == EXIT_USAGE and "infinite_samples" in err


def test_non_integer_in_config_file_is_usage_error(tmp_path):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write("qs = 2\n# comment\nsamples = abc\n")
    rc, out, err = run(["--config", path, "verify", "square"])
    assert rc == EXIT_USAGE and not out
    assert f"{path}:3: samples must be an integer, got 'abc'" in err
    assert "Traceback" not in err


def test_zero_witness_budget_is_accepted():
    rc, out, _ = run(["--samples", "1", "--witness-budget", "0",
                      "verify", "solvable", "--q", "2"])
    assert rc == EXIT_OK and out.startswith("[PASS] solvable q=2")


def test_cache_options_are_gone(tmp_path):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        main(["--cache-dir", "/x", "verify", "square"])
    assert exc.value.code == EXIT_USAGE
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write("cache_dir = /x\n")
    rc, _, err = run(["--config", path, "verify", "square"])
    assert rc == EXIT_USAGE and "unknown key 'cache_dir'" in err


@pytest.mark.parametrize("q", ["6", "16"])
@pytest.mark.parametrize("cmd", [["verify", "orders"], ["report"]])
def test_unsupported_q_is_usage_error(cmd, q):
    rc, out, err = run(cmd + ["--q", f"2,{q}"])
    assert rc == EXIT_USAGE and out == ""
    assert f"got {q}" in err and "Traceback" not in err


def test_unsupported_q_in_config_file_is_usage_error(tmp_path):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write("qs = 2,6\n")
    rc, out, err = run(["--config", path, "verify", "orders"])
    assert rc == EXIT_USAGE and out == ""
    assert "got 6" in err and "Traceback" not in err


def test_module_runs_from_a_checkout():
    import subprocess
    import sys

    import burnmat

    src = os.path.dirname(os.path.dirname(os.path.abspath(burnmat.__file__)))
    proc = subprocess.run([sys.executable, "-m", "burnmat", "ring", "1-x"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "sigma-valuation: 1" in proc.stdout
