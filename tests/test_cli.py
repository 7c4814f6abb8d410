"""Command-line interface: parsing, output determinism, exit codes."""

import io
import json
import math
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from mlfunc.cli import (
    EXIT_EVAL,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _parse_block,
    main,
    parse_angle,
    parse_complex,
)
from mlfunc.series import MLParams, evaluate


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ parsing

def test_parse_complex_forms():
    assert parse_complex("1") == 1 + 0j
    assert parse_complex("-2.5") == -2.5 + 0j
    assert parse_complex("1+2j") == 1 + 2j
    assert parse_complex("1-0.5i") == 1 - 0.5j        # i is accepted for j
    assert parse_complex("3i") == 3j
    with pytest.raises(UsageError):
        parse_complex("spam")
    with pytest.raises(UsageError):
        parse_complex("inf")


def test_parse_angle_forms():
    assert parse_angle("0.75pi") == pytest.approx(0.75 * math.pi)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("-0.5pi") == pytest.approx(-0.5 * math.pi)
    assert parse_angle("1.25") == pytest.approx(1.25)
    with pytest.raises(UsageError):
        parse_angle("two pi")


def test_parse_block_forms():
    assert _parse_block("-1:2") == (-1 + 0j, 2)
    assert _parse_block("1+2i:3") == (1 + 2j, 3)
    with pytest.raises(UsageError):
        _parse_block("-1")
    with pytest.raises(UsageError):
        _parse_block("-1:0")


# -------------------------------------------------------------- eval / json

def test_eval_exp_identity():
    rc, out, _ = run(["eval", "--alpha", "1", "--beta", "1", "--z", "1"])
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "mlfunc/1"
    rec = doc["records"][0]
    assert rec["value"]["re"] == pytest.approx(math.e, rel=1e-13)
    assert rec["value"]["im"] == 0.0
    assert rec["method"] == "series"


def test_eval_contour_dispatch_reported():
    rc, out, _ = run(["eval", "--alpha", "0.5", "--beta", "1", "--z=-20"])
    assert rc == EXIT_OK
    rec = json.loads(out)["records"][0]
    # past the series band the expansion at infinity certifies this argument
    assert rec["method"] == "asymptotic"
    # E at -20 for alpha = 1/2 equals the scaled complementary error function
    assert rec["value"]["re"] == pytest.approx(0.028174348741051312, rel=1e-10)


def test_eval_derivative_grid():
    rc, out, _ = run(["eval", "--alpha", "0.5", "--beta", "1",
                      "--lambda=-1", "--t", "0.5", "--t", "1.0", "--l", "1"])
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert len(doc["records"]) == 2
    for rec in doc["records"]:
        assert rec["err_estimate"] >= 0.0


def test_output_file_and_stdout_quiet(tmp_path):
    target = tmp_path / "out.json"
    rc, out, _ = run(["eval", "--alpha", "1", "--beta", "1", "--z", "1",
                      "--output", str(target)])
    assert rc == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == "mlfunc/1"


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize("argv", [
    ["eval", "--alpha", "0.7", "--beta", "1", "--z", "2", "--z=-6", "--z", "1+1i"],
    ["certify", "lemma2-i", "--alpha", "0.6", "--lambda", "1",
     "--t-points", "6", "--t-max-factor", "10"],
    ["matrix", "--alpha", "0.5", "--beta", "1", "--block=-1:2",
     "--check", "value", "--t", "2.0"],
])
def test_byte_identical_reruns(argv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1, _, _ = run(argv + ["--output", str(a)])
    rc2, _, _ = run(argv + ["--output", str(b)])
    assert rc1 == rc2
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_json_sorted_keys():
    _, out, _ = run(["eval", "--alpha", "1", "--beta", "1", "--z", "1"])
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
    rec = doc["records"][0]
    assert list(rec) == sorted(rec)


# --------------------------------------------------------------------- csv

def test_csv_output_shape():
    rc, out, _ = run(["eval", "--alpha", "1", "--beta", "1",
                      "--z", "1", "--z", "2", "--format", "csv"])
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert "value_re" in header and "value_im" in header
    assert "np.float64" not in out
    # floats use repr, so round-tripping is exact
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["value_re"]) == pytest.approx(math.e, rel=1e-13)


def test_csv_certify():
    rc, out, _ = run(["certify", "lemma2-iii", "--alpha", "0.6", "--lambda=-1",
                      "--t-points", "5", "--t-max-factor", "10",
                      "--format", "csv"])
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 6


# ------------------------------------------- limit and matrix stability checks

_LIMIT = ["limit", "--alpha", "0.5", "--lambda", "2", "--kernel", "exp",
          "--u-grid", "2,4,6"]
_DECAY = ["matrix", "--alpha", "0.5", "--block=-1:2", "--check", "decay",
          "--t-grid", "1,100,6"]
_INTEGRAL = ["matrix", "--alpha", "0.5", "--block=-1:2", "--check", "integral",
             "--t-max", "5"]


def test_limit_command_json_and_csv():
    rc, out, _ = run(_LIMIT)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["meta"] == {"alpha": 0.5, "command": "limit", "kernel": "exp",
                           "lambda": {"im": 0.0, "re": 2.0}}
    report = doc["report"]
    assert set(report) == {"rhs", "points", "decreasing_within_noise", "final_error"}
    assert report["rhs"]["re"] == pytest.approx(0.4, rel=1e-10)
    assert [pt["u"] for pt in report["points"]] == [2.0, 4.0, 6.0]
    assert set(report["points"][0]) == {"u", "lhs", "abs_error", "err_estimate"}
    rc, out, _ = run(_LIMIT + ["--format", "csv"])
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "u,lhs_re,lhs_im,abs_error,err_estimate"
    assert len(lines) == 4


def test_matrix_decay_check_json_and_csv():
    rc, out, _ = run(_DECAY)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["meta"] == {"alpha": 0.5, "check": "decay", "command": "matrix"}
    report = doc["report"]
    assert set(report) == {"spectral", "t_grid", "norm2", "norm_inf",
                           "strictly_decreasing", "tail_slope", "final_norm2"}
    assert len(report["t_grid"]) == len(report["norm2"]) == 6
    assert report["final_norm2"] == report["norm2"][-1]
    rc, out, _ = run(_DECAY + ["--format", "csv"])
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t,norm2,norm_inf"
    assert len(lines) == 7


def test_matrix_integral_check_json_and_csv():
    rc, out, _ = run(_INTEGRAL)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["meta"] == {"alpha": 0.5, "check": "integral", "command": "matrix"}
    report = doc["report"]
    assert set(report) == {"spectral", "t_max", "numeric", "numeric_err",
                           "tail_bound", "total", "tail_fraction"}
    assert report["t_max"] == 5.0
    assert report["total"] == pytest.approx(report["numeric"] + report["tail_bound"])
    rc, out, _ = run(_INTEGRAL + ["--format", "csv"])
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t_max,numeric,numeric_err,tail_bound,total,tail_fraction"
    assert len(lines) == 2


def test_matrix_t_grid_agrees_with_per_t_calls():
    # the grid runs as one array call; each entry (0, j) must agree with the
    # scalar j-th derivative over j! within both bars
    rc, out, _ = run(["matrix", "--alpha", "0.6", "--block=-1:3",
                      "--t-grid", "0.1,200,6"])
    assert rc == EXIT_OK
    records = json.loads(out)["records"]
    ts = [rec["t"] for rec in records]
    assert len(ts) == 6
    p = MLParams(0.6, 1.0)
    batch = evaluate(p, -1.0, np.repeat(ts, 3), np.tile(np.arange(3), 6))
    errs = batch.err_estimate.reshape(6, 3)
    for rec, row_errs in zip(records, errs):
        for j in range(3):
            cell = rec["matrix"][0][j]
            one = evaluate(p, -1.0, rec["t"], j)
            bar = (row_errs[j] + one.err_estimate) / math.factorial(j)
            assert abs(complex(cell["re"], cell["im"]) - one.value / math.factorial(j)) <= bar


# ------------------------------------------------------------------ config

def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "beta": "1", "z": ["1"]}))
    rc, out, _ = run(["eval", "--config", str(cfg)])
    assert rc == EXIT_OK
    rec = json.loads(out)["records"][0]
    assert rec["value"]["re"] == pytest.approx(math.e, rel=1e-13)


def test_cli_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "beta": "2", "z": ["1"]}))
    rc, out, _ = run(["eval", "--config", str(cfg), "--beta", "1"])
    assert rc == EXIT_OK
    rec = json.loads(out)["records"][0]
    assert rec["value"]["re"] == pytest.approx(math.e, rel=1e-13)


def test_config_keys_are_flag_names(tmp_path):
    # --lambda's flag name, and matrix's --t (whose dest is t_single)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "lambda": 2, "u-grid": [2, 4, 6]}))
    rc, out, _ = run(["limit", "--config", str(cfg)])
    assert rc == EXIT_OK
    assert json.loads(out)["meta"]["lambda"] == {"im": 0.0, "re": 2.0}
    cfg.write_text(json.dumps({"alpha": 0.5, "block": ["-1:2"], "t": 2.0}))
    rc, out, _ = run(["matrix", "--config", str(cfg)])
    assert rc == EXIT_OK
    assert [rec["t"] for rec in json.loads(out)["records"]] == [2.0]


@pytest.mark.parametrize("key,value", [("format", "xml"), ("l", 2.5)])
def test_config_value_the_flag_would_reject_is_rejected(tmp_path, key, value):
    # a choice outside --format's, and a number --l's int type refuses
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "beta": "1", "z": ["1"], key: value}))
    rc, out, err = run(["eval", "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert out == "" and key in err


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "frobnicate": 3}))
    rc, _, err = run(["eval", "--config", str(cfg), "--beta", "1", "--z", "1"])
    assert rc == EXIT_USAGE
    assert "frobnicate" in err


# -------------------------------------------------------------- exit codes

def test_exit_usage_on_malformed_flag():
    rc, _, err = run(["eval", "--alpha", "not-a-number", "--beta", "1", "--z", "1"])
    assert rc == EXIT_USAGE
    assert err != ""


def test_exit_usage_on_missing_required():
    rc, _, _ = run(["eval", "--alpha", "0.5", "--beta", "1"])   # no z, no lambda
    assert rc == EXIT_USAGE


def test_exit_usage_on_hypothesis_violation():
    # lemma2-i needs an interior argument; -1 sits on the negative axis
    rc, _, err = run(["certify", "lemma2-i", "--alpha", "0.6", "--lambda=-1"])
    assert rc == EXIT_USAGE
    assert "hypothesis violated" in err


def test_exit_eval_error_on_divergent_series():
    # e^1000 leaves the double range, so no route can return it
    rc, _, err = run(["eval", "--alpha", "1", "--beta", "1", "--z", "1000"])
    assert rc == EXIT_EVAL
    assert err != ""


def test_eval_tiny_alpha_left_argument_takes_the_contour_route():
    # the series needs ~1e15 terms here; the expansion at infinity, which
    # certifies this argument ahead of the path route, does not
    rc, out, _ = run(["eval", "--alpha", "0.05", "--beta", "1", "--z=-5"])
    assert rc == EXIT_OK
    rec = json.loads(out)["records"][0]
    assert rec["method"] == "asymptotic"
    assert rec["value"]["re"] == pytest.approx(0.16250645664935, rel=1e-12)


def test_readme_examples_run():
    # every `mlfunc ...` line of the README's sh blocks, as a user would paste it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("mlfunc ")]
    assert any("--lambda-mod" in line for line in lines)
    for line in lines:
        rc, out, _ = run(shlex.split(line)[1:])
        assert rc == EXIT_OK, line
        assert json.loads(out)["schema"] == "mlfunc/1", line


def test_exit_fail_on_shrunk_constant():
    rc, out, _ = run(["certify", "lemma2-i", "--alpha", "0.6", "--lambda", "1",
                      "--t-points", "5", "--t-max-factor", "10",
                      "--constant-scale", "1e-3"])
    assert rc == EXIT_FAIL
    assert json.loads(out)["report"]["verdict"] == "FAIL"


def test_exit_inconclusive_on_inflated_error():
    rc, out, _ = run(["certify", "lemma2-i", "--alpha", "0.6", "--lambda", "1",
                      "--t-points", "5", "--t-max-factor", "10",
                      "--err-inflate", "1e14"])
    assert rc == EXIT_INCONCLUSIVE
    assert json.loads(out)["report"]["verdict"] == "INCONCLUSIVE"


# ---------------------------------------------------------------- selftest

def test_selftest_passes():
    rc, out, err = run(["selftest"])
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["report"]["failures"] == 0
    assert "selftest" in err


def test_selftest_detects_flipped_orientation():
    rc, out, _ = run(["selftest", "--flip-orientation"])
    assert rc == EXIT_FAIL
    assert json.loads(out)["report"]["failures"] > 0


def test_selftest_tight_tolerance_fails():
    rc, _, _ = run(["selftest", "--tol", "1e-30"])
    assert rc == EXIT_FAIL
