import contextlib
import importlib
import importlib.util
import io
import json
import math
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesdirichlet import cli, verification
from cesdirichlet.cli import dump_coeffs, load_coeffs, parse_and_dispatch
from cesdirichlet.errors import InputError
from cesdirichlet.kernels import sieve_primes
from cesdirichlet.reports import emit_report, parse_json, round_sig, to_csv, to_json
from cesdirichlet.sequences import CoeffSeq


def write_coeffs(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"coeffs": rows}))
    return str(path)


UNIT = [{"n": 1, "re": 1.0, "im": 0.0}]


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

def test_load_simple(tmp_path):
    path = write_coeffs(tmp_path, "f.json", UNIT)
    assert load_coeffs(path).entries() == [(1, 1.0)]


def test_load_duplicate_index(tmp_path):
    path = write_coeffs(tmp_path, "f.json", [{"n": 2, "re": 1.0}, {"n": 2, "re": 3.0}])
    with pytest.raises(InputError, match="duplicate"):
        load_coeffs(path)


def test_load_bad_index(tmp_path):
    path = write_coeffs(tmp_path, "f.json", [{"n": 0, "re": 1.0}])
    with pytest.raises(InputError, match="positive integer"):
        load_coeffs(path)


def test_load_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"coeffs": [')
    with pytest.raises(InputError, match="line"):
        load_coeffs(str(path))
    path.write_text('{"coeffs": ' + "[" * 100000 + "]" * 100000 + "}")
    with pytest.raises(InputError, match="nested too deeply"):
        load_coeffs(str(path))


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_coeffs(str(tmp_path / "absent.json"))


@settings(max_examples=40, deadline=None)
@given(
    d=st.dictionaries(
        st.integers(min_value=1, max_value=10 ** 6),
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        max_size=12,
    )
)
def test_coeff_roundtrip(d, tmp_path_factory):
    seq = CoeffSeq.from_pairs((n, complex(re, im)) for n, (re, im) in d.items())
    path = tmp_path_factory.mktemp("rt") / "f.json"
    path.write_text(json.dumps(dump_coeffs(seq)))
    assert load_coeffs(str(path)) == seq


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_json_report_roundtrip():
    from cesdirichlet.enclosure import Enclosure

    records = [{"name": "x", "value": Enclosure(1.0 / 3.0, 2.0 / 3.0), "count": 3}]
    text = to_json(records)
    back = parse_json(text)
    assert back == [{"name": "x", "value": {"lo": round_sig(1 / 3), "hi": round_sig(2 / 3)},
                     "count": 3}]
    # emitting the reparsed records reproduces the text byte for byte
    assert to_json(back) == text


def test_csv_enclosure_columns():
    from cesdirichlet.enclosure import Enclosure

    text = to_csv([{"value": Enclosure(0.25, 0.5)}])
    lines = text.strip().split("\n")
    assert lines[0] == "value_lo,value_hi"
    assert lines[1] == "0.25,0.5"


def test_csv_multiplier_estimate_columns():
    rec = {"m": 10, "alpha": 0.45, "prime_limit": 100, "conv_limit": 300,
           "ratio": 1.5, "reference": 2.0, "flag": "desk-scale", "r_m": 11}
    text = to_csv([rec], kind="multiplier-estimate")
    assert text.splitlines()[0] == "m,alpha,prime_limit,conv_limit,ratio,reference,flag"


def test_csv_empty_header_only():
    text = to_csv([], kind="multiplier-estimate")
    assert text == "m,alpha,prime_limit,conv_limit,ratio,reference,flag\n"


def test_emit_report_format_guard():
    with pytest.raises(ValueError):
        emit_report([], "xml")


# ---------------------------------------------------------------------------
# dispatch and exit codes
# ---------------------------------------------------------------------------

def test_norm_happy_path(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json", UNIT)
    code = parse_and_dispatch(["norm", "--space", "ces", "--p", "2", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["value"]["lo"] <= math.sqrt(math.pi ** 2 / 6) <= rec["value"]["hi"]


def test_delta_norm_domain_exit(capsys):
    code = parse_and_dispatch(["delta-norm", "--p", "2", "--sigma", "0.4"])
    assert code == 2


@pytest.mark.parametrize("exact", [[], ["--exact"]])
@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "0.5"])
def test_delta_norm_sigma_outside_domain_exits_2(capsys, sigma, exact):
    # bounded point evaluation needs 1/q < sigma < inf
    assert parse_and_dispatch(["delta-norm", "--p", "2", f"--sigma={sigma}", *exact]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_delta_norm_past_kernel_exponent(capsys):
    # sigma q = 80 lies past the Hurwitz kernel's x <= 64
    assert parse_and_dispatch(["delta-norm", "--p", "2", "--sigma", "40"]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["records"][0]
    assert rec["norm"]["lo"] <= 1.0 <= rec["norm"]["hi"]


@pytest.mark.parametrize("argv", [
    ["convolve", "--input", "F", "--with", "F", "--limit", "6", "--format", "csv"],
    ["project", "--input", "F", "--r", "1", "--format", "json"],
    ["norm", "--space", "ces", "--input", "F", "--seed", "3"],
    ["delta-norm", "--p", "2", "--sigma", "1", "--seed", "3"],
    ["eval", "--input", "F", "--sigma", "1", "--seed", "3"],
    ["convolve", "--input", "F", "--with", "F", "--limit", "6", "--seed", "3"],
    ["project", "--input", "F", "--r", "1", "--seed", "3"],
    ["multiplier-estimate", "--input", "F", "--m", "2", "--alpha", "0.3", "--seed", "3"],
    ["schur-test", "--kind", "power", "--beta", "1", "--seed", "3"],
    ["report", "--input", "F", "--seed", "3"],
])
def test_unread_options_are_usage_errors(tmp_path, capsys, argv):
    # each verb takes --format and --seed only where it reads them, so a
    # flag it would ignore (convolve always prints JSON) is refused
    path = write_coeffs(tmp_path, "f.json", UNIT)
    assert parse_and_dispatch([path if a == "F" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("extra", [["--restarts", "4"], ["--seed", "3"], ["--seed", "42"],
                                   ["--restarts", "6", "--seed", "42"]])
def test_dual_norm_oracle_options_need_oracle(tmp_path, capsys, extra):
    # dual-norm reads --restarts and --seed only under --oracle
    path = write_coeffs(tmp_path, "f.json", UNIT)
    assert parse_and_dispatch(["dual-norm", "--p", "2", "--input", path, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--oracle only" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["schur-test", "--kind", "power", "--beta", "1", "--alpha", "1"], "--alpha applies"),
    (["schur-test", "--kind", "finite", "--input", "F", "--alpha", "1"], "--alpha applies"),
    (["schur-test", "--kind", "log-power", "--alpha", "1", "--beta", "1"], "--beta applies"),
    (["schur-test", "--kind", "finite", "--input", "F", "--beta", "1"], "--beta applies"),
    (["schur-test", "--kind", "power", "--beta", "1", "--input", "F"], "--input applies"),
    (["schur-test", "--kind", "log-power", "--alpha", "1", "--input", "F"], "--input applies"),
    (["norm", "--space", "ces", "--r", "0.5", "--input", "F"], "--r applies"),
    (["norm", "--space", "lp", "--r", "0.5", "--input", "F"], "--r applies"),
    (["norm", "--space", "dq", "--r", "0.5", "--input", "F"], "--r applies"),
    (["norm", "--space", "ar", "--r", "0.5", "--p", "7", "--input", "F"], "--p does not apply"),
    (["norm", "--space", "ar", "--r", "0.5", "--p", "2", "--input", "F"], "--p does not apply"),
])
def test_options_of_other_kinds_are_usage_errors(tmp_path, capsys, argv, message):
    # schur-test reads --input, --alpha and --beta for one kind each, and
    # norm reads --r for --space ar only and --p for the other spaces only
    path = write_coeffs(tmp_path, "f.json", UNIT)
    assert parse_and_dispatch([path if a == "F" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("space", ["ces", "lp", "dq"])
def test_norm_p_defaults_to_2(tmp_path, capsys, space):
    path = write_coeffs(tmp_path, "f.json", [{"n": 1, "re": 1.0}, {"n": 3, "re": -0.5}])
    outs = []
    for extra in ([], ["--p", "2"]):
        assert parse_and_dispatch(["norm", "--space", space, "--input", path, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and '"p": 2.0' in outs[0]


def test_dual_norm_oracle_defaults(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json", [{"n": 1, "re": 1.0}, {"n": 3, "re": -0.5}])
    base = ["dual-norm", "--p", "1.5", "--input", path, "--oracle"]
    outs = []
    for extra in ([], ["--restarts", "6", "--seed", "42"]):
        assert parse_and_dispatch([*base, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_unknown_verb_exit():
    assert parse_and_dispatch(["frobnicate"]) == 1


def test_missing_required_flag_exit():
    assert parse_and_dispatch(["norm", "--space", "ces"]) == 1


def test_ar_requires_r(tmp_path):
    path = write_coeffs(tmp_path, "f.json", UNIT)
    assert parse_and_dispatch(["norm", "--space", "ar", "--input", path]) == 1


def test_input_error_exit(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json", [{"n": 1, "re": 1.0}, {"n": 1, "re": 2.0}])
    assert parse_and_dispatch(["norm", "--space", "ces", "--p", "2", "--input", path]) == 2


@pytest.mark.parametrize("row", ['{"n": 2, "re": "inf"}', '{"n": 2, "re": NaN}',
                                 '{"n": 2, "re": 1.0, "im": "-Infinity"}',
                                 '{"n": 9223372036854775808, "re": 1.0}'])
def test_unrepresentable_coefficient_exit(tmp_path, capsys, row):
    path = tmp_path / "f.json"
    path.write_text('{"coeffs": [%s]}' % row)
    assert parse_and_dispatch(["norm", "--space", "ces", "--p", "2", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_norm_ces_huge_coefficients_finite(tmp_path, capsys):
    # ||a||^2 = sum_{2<=n<5} (1e308/n)^2 + (2e308)^2 zeta(2, 5) ~ (1.14e308)^2
    path = write_coeffs(tmp_path, "f.json", [{"n": 2, "re": 1e308}, {"n": 5, "re": 1e308}])
    code = parse_and_dispatch(["norm", "--space", "ces", "--p", "2", "--input", path])
    assert code == 0
    value = json.loads(capsys.readouterr().out)["records"][0]["value"]
    head = 1 / 4 + 1 / 9 + 1 / 16
    exact = 1e308 * math.sqrt(head + 4.0 * (math.pi ** 2 / 6 - 1.0 - head))
    assert math.isfinite(value["hi"])
    assert value["lo"] <= exact <= value["hi"]


def test_eval_verb(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json",
                        [{"n": 1, "re": 1.0}, {"n": 2, "re": 1.0}])
    code = parse_and_dispatch(["eval", "--input", path, "--sigma", "1.0"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["value"]["re"] == pytest.approx(1.5)


def test_convolve_verb(tmp_path, capsys):
    ones = [{"n": k, "re": 1.0} for k in range(1, 7)]
    path = write_coeffs(tmp_path, "f.json", ones)
    code = parse_and_dispatch(["convolve", "--input", path, "--with", path, "--limit", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    by_n = {row["n"]: row["re"] for row in payload["coeffs"]}
    assert by_n[6] == 4.0  # divisor count


def test_project_verb(tmp_path, capsys):
    ones = [{"n": k, "re": 1.0} for k in range(1, 7)]
    path = write_coeffs(tmp_path, "f.json", ones)
    code = parse_and_dispatch(["project", "--input", path, "--r", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in payload["coeffs"]] == [1, 2, 4]


def test_project_sieves_only_to_p_r(tmp_path, capsys, monkeypatch):
    # 2 * 10**9 = 2**10 5**9 is 3-smooth, though the sieve's memory guard
    # stops at 10**9: primes past p_r never decide r-smoothness
    path = write_coeffs(tmp_path, "f.json", [{"n": 12, "re": 1.0}, {"n": 2 * 10 ** 9, "re": 2.0},
                                             {"n": 7, "re": 1.0}, {"n": 10 ** 8, "re": 3.0}])
    limits = []
    monkeypatch.setattr(cli, "sieve_primes", lambda limit: limits.append(limit) or sieve_primes(limit))
    for r, kept in ((1, []), (3, [12, 10 ** 8, 2 * 10 ** 9]), (4, [7, 12, 10 ** 8, 2 * 10 ** 9]),
                    (10 ** 5, [7, 12, 10 ** 8, 2 * 10 ** 9])):
        assert parse_and_dispatch(["project", "--input", path, "--r", str(r)]) == 0
        assert [row["n"] for row in json.loads(capsys.readouterr().out)["coeffs"]] == kept
    # p_r <= 11 below r = 6; p_100000 = 1299709 < 1395640
    assert limits == [11, 11, 11, 1395640]
    # the sieve never passes the largest index
    small = write_coeffs(tmp_path, "g.json", [{"n": 5, "re": 1.0}])
    assert parse_and_dispatch(["project", "--input", small, "--r", "10000"]) == 0
    assert limits[-1] == 5
    assert parse_and_dispatch(["project", "--input", path, "--r", "0"]) == 2
    assert "prime count r must be >= 1" in capsys.readouterr().err


def test_dual_norm_verb_with_oracle(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json", UNIT)
    code = parse_and_dispatch(
        ["dual-norm", "--p", "2", "--input", path, "--oracle", "--restarts", "3"]
    )
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["chain"] == [1, "inf"]
    assert rec["norm"]["lo"] <= rec["oracle"] <= rec["norm"]["hi"] + 1e-6


def test_schur_verb(capsys):
    code = parse_and_dispatch(
        ["schur-test", "--kind", "log-power", "--alpha", "1.0", "--p", "2",
         "--horizon", "10000"]
    )
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["verdict"] == "schur"


def test_schur_log_power_far_horizon_exits_0(capsys):
    # log-power is O(1) in the horizon: 10**12 answers at once
    t0 = time.perf_counter()
    code = parse_and_dispatch(["schur-test", "--kind", "log-power", "--alpha", "0.4",
                               "--horizon", "1000000000000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["records"][0]
    assert rec["verdict"] == "not_schur"
    assert 0.0 < rec["value"]["lo"] <= rec["value"]["hi"] < math.inf


@pytest.mark.parametrize("beta, verdict", [("0", "not_schur"), ("0.5", "schur")])
def test_schur_power_far_horizon(capsys, beta, verdict):
    # zeta(q beta + 1) whole, or the harmonic sum to 1e12 from one segment
    t0 = time.perf_counter()
    code = parse_and_dispatch(["schur-test", "--kind", "power", "--beta", beta,
                               "--horizon", "1000000000000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["verdict"] == verdict
    want = math.pi ** 2 / 6 if verdict == "schur" else math.log(1e12) + 0.5772156649015329
    assert rec["value"]["lo"] <= want * (1 + 1e-12) and want * (1 - 1e-12) <= rec["value"]["hi"]


def test_monomial_check_verb(capsys):
    code = parse_and_dispatch(
        ["monomial-check", "--m", "2", "--p", "2", "--samples", "5",
         "--j-probe", "1000", "--seed", "7"]
    )
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["upper_ok"] is True


def test_multiplier_estimate_verb(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json", UNIT)
    code = parse_and_dispatch(
        ["multiplier-estimate", "--input", path, "--m", "5", "--alpha", "0.45",
         "--prime-limit", "10000", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,alpha,prime_limit,conv_limit,ratio,reference,flag"
    assert lines[1].startswith("5,0.45,10000,")


def test_multiplier_estimate_conv_limit_is_the_whole_table(tmp_path, capsys):
    # the product runs to every index f*g has: the prime limit times the
    # largest index of f
    path = write_coeffs(tmp_path, "f.json", [{"n": 1, "re": 1.0}, {"n": 7, "re": -0.5}])
    code = parse_and_dispatch(["multiplier-estimate", "--input", path, "--m", "3",
                               "--alpha", "0.45", "--prime-limit", "1000"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["conv_limit"] == 1000 * 7


def test_multiplier_estimate_has_no_conv_limit(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json", UNIT)
    code = parse_and_dispatch(["multiplier-estimate", "--input", path, "--m", "5",
                               "--alpha", "0.45", "--prime-limit", "10000",
                               "--conv-limit", "10"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


def test_determinism_same_seed(tmp_path, capsys):
    path = write_coeffs(tmp_path, "f.json",
                        [{"n": 1, "re": 0.3}, {"n": 4, "re": -2.0, "im": 1.0}])
    argv = ["dual-norm", "--p", "1.5", "--input", path, "--oracle", "--seed", "11"]
    parse_and_dispatch(argv)
    first = capsys.readouterr().out
    parse_and_dispatch(argv)
    second = capsys.readouterr().out
    assert first == second


def test_verify_single_suite(capsys):
    code = parse_and_dispatch(["verify", "--suite", "schur", "--seed", "42"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("PASS  schur")


def test_verify_failing_suite_exits_3(tmp_path, capsys, monkeypatch):
    # the runner prints a check's failures, exits 3 and reports it failed
    monkeypatch.setitem(verification.ALL_SUITES, "fake",
                        (lambda seed: (["first", f"second at seed {seed}"], {"n": 1}), 60.0))
    report = tmp_path / "r.json"
    code = parse_and_dispatch(["verify", "--suite", "fake", "--seed", "7", "--report", str(report)])
    assert code == 3
    assert capsys.readouterr().out == "FAIL  fake  first; second at seed 7\n"
    assert parse_json(report.read_text()) == [
        {"suite": "fake", "passed": False, "detail": "first; second at seed 7"}]


def test_verify_over_budget_only_on_stderr(capsys, monkeypatch):
    # a check past its budget is noted on stderr; stdout and the exit code
    # are those of the same check within budget
    def check(seed):
        time.sleep(0.001)
        return [], {"seed": seed}

    runs = []
    for budget in (60.0, 0.0):
        monkeypatch.setitem(verification.ALL_SUITES, "fake", (check, budget))
        code = parse_and_dispatch(["verify", "--suite", "fake", "--seed", "7"])
        runs.append((code, capsys.readouterr()))
    (code_in, within), (code_over, over) = runs
    assert code_in == code_over == 0
    assert within.out == over.out == "PASS  fake  seed=7\n"
    assert "** over budget **" not in within.err
    assert over.err.startswith("# fake: ") and over.err.endswith("(budget 0s)  ** over budget **\n")


def test_report_verb(tmp_path, capsys):
    rows = [{"m": 2, "alpha": 0.4, "prime_limit": 10, "conv_limit": 20,
             "ratio": 0.5, "reference": 1.0, "flag": ""}]
    src = tmp_path / "r.json"
    src.write_text(to_json(rows))
    code = parse_and_dispatch(["report", "--input", str(src), "--format", "csv",
                               "--kind", "multiplier-estimate"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "m,alpha,prime_limit,conv_limit,ratio,reference,flag"


@pytest.mark.parametrize("content", [None, b"\xff\xfe", "[]", '{"records": [1]}',
                                     '{"records": {}}', '{"records": [{"x": NaN}]}',
                                     '{"records": [{"v": {"lo": -Infinity, "hi": 1.0}}]}',
                                     '{"records": [{"y": 1e400}]}',
                                     pytest.param('{"records": [{"x": ' + "[" * 100000
                                                  + "]" * 100000 + "}]}", id="deeply-nested")])
def test_report_bad_file_exits_2(tmp_path, capsys, content):
    # a missing file, a file that is not UTF-8, JSON that is not an
    # object with a 'records' array of objects, numbers that strict JSON
    # cannot print back, and JSON nested too deeply to parse
    src = tmp_path / "r.json"
    if isinstance(content, bytes):
        src.write_bytes(content)
    elif content is not None:
        src.write_text(content)
    assert parse_and_dispatch(["report", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {src}: ")


def test_coefficient_file_not_utf8_exits_2(tmp_path, capsys):
    src = tmp_path / "f.json"
    src.write_bytes(b'{"coeffs": [{"n": 1, "re": "\xff"}]}')
    assert parse_and_dispatch(["norm", "--space", "ces", "--input", str(src)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {src}: ")


@pytest.mark.parametrize("argv", [
    ["convolve", "--input", "F", "--with", "F", "--limit", "4", "--output", "MISSING/x.json"],
    ["verify", "--suite", "schur", "--report", "MISSING/r.json"],
])
def test_unwritable_output_file_exits_2(tmp_path, capsys, argv):
    path = write_coeffs(tmp_path, "f.json", UNIT)
    missing = str(tmp_path / "no-such-dir")
    argv = [path if a == "F" else a.replace("MISSING", missing) for a in argv]
    assert parse_and_dispatch(argv) == 2
    assert f"error: {missing}/" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dual-norm", "--p", "2", "--input", "F", "--oracle", "--seed=-1"],
    ["monomial-check", "--m", "2", "--seed=-1"],
    ["verify", "--suite", "fake", "--seed=-1"],
])
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, argv):
    # numpy's generator takes no negative seed: refused as a domain error,
    # and verify refuses it before any suite runs
    def no_suite(seed):
        raise AssertionError("a suite ran with a negative seed")

    monkeypatch.setitem(verification.ALL_SUITES, "fake", (no_suite, 60.0))
    path = write_coeffs(tmp_path, "f.json", [{"n": 1, "re": 1.0}, {"n": 3, "re": 0.5}])
    assert parse_and_dispatch([path if a == "F" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("where", ["missing", "file", "dir"])
def test_verify_report_path_checked_before_suites(tmp_path, capsys, monkeypatch, where):
    # a report that cannot be written fails before any suite runs, and
    # nothing is created on the way
    def no_suites(*args, **kwargs):
        raise AssertionError("a suite ran before the report path was checked")

    monkeypatch.setattr(cli, "run_suites", no_suites)
    (tmp_path / "plain").write_text("x")
    path = {"missing": tmp_path / "no-such-dir" / "r.json",
            "file": tmp_path / "plain" / "r.json", "dir": tmp_path}[where]
    before = sorted(tmp_path.rglob("*"))
    assert parse_and_dispatch(["verify", "--suite", "all", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: ")
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# the exit-code contract on adversarial input
# ---------------------------------------------------------------------------

fuzz_n = st.one_of(st.integers(1, 60), st.sampled_from(
    [0, -1, 2 ** 53, 2 ** 53 + 1, 2 ** 63, 2 ** 64, 1.5, "7", True, None]))
fuzz_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 5e-324, 0.0, "abc", "inf", "-Infinity", "NaN", None, [1]]),
)
fuzz_row = st.fixed_dictionaries({"n": fuzz_n}, optional={"re": fuzz_value, "im": fuzz_value})
plain_value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e308, -1e308, 5e-324]))
plain_row = st.fixed_dictionaries({"n": st.integers(1, 2 ** 53)},
                                  optional={"re": plain_value, "im": plain_value})
# mostly well-formed files, so that the verbs run, with at most one bad row
fuzz_rows = st.tuples(st.lists(plain_row, max_size=6), st.lists(fuzz_row, max_size=1)).map(
    lambda parts: parts[0] + parts[1])
fuzz_argv = st.one_of(
    st.tuples(st.just("norm"), st.just("--space"), st.sampled_from(["ces", "lp", "dq"]),
              st.just("--p"), st.sampled_from(["1.01", "1.5", "2", "3", "0.5", "nan", "inf"])),
    st.tuples(st.just("norm"), st.just("--space"), st.just("ar"),
              st.just("--r"), st.sampled_from(["0.5", "-3", "nan", "inf", "-inf"])),
    st.tuples(st.just("dual-norm"), st.just("--p"),
              st.sampled_from(["1.01", "1.5", "2", "3", "70", "1", "nan"])),
    st.tuples(st.just("eval"), st.just("--sigma"),
              st.sampled_from(["0.5", "2", "-1e308", "nan", "inf", "-inf"]),
              st.just("--t"), st.sampled_from(["0", "1e300", "-3.5", "inf", "nan", "-inf"])),
    st.tuples(st.just("schur-test"), st.just("--kind"), st.just("power"),
              st.just("--beta"), st.sampled_from(["0.5", "0", "-1", "-300", "-1000", "nan"]),
              st.just("--horizon"), st.sampled_from(["1", "2", "100000", str(2 ** 53)])),
    st.tuples(st.just("schur-test"), st.just("--kind"), st.just("finite"),
              st.just("--p"), st.sampled_from(["1.01", "1.5", "2", "3"])),
)
# files small enough for an estimate to run at prime limits <= 1e4
small_rows = st.lists(st.fixed_dictionaries({"n": st.integers(1, 30), "re": plain_value},
                                            optional={"im": plain_value}),
                      min_size=1, max_size=4, unique_by=lambda row: row["n"])


def either(valid, invalid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


# each option is valid or invalid about equally often, so that some
# requests get through; alpha lies inside (1/(2q), 1/q) for 0.3 and 0.45
# at p = 2 and for 0.3 at p = 1.5
fuzz_estimate_argv = st.tuples(
    st.tuples(st.just("multiplier-estimate"),
              st.just("--prime-limit"), st.sampled_from(["10", "100", "1000", "10000"]),
              st.just("--m"), either(["2", "3"], ["0", "1", str(10 ** 23)]),
              st.just("--alpha"),
              either(["0.3", "0.45"], ["0.2", "0.6", "1e308", "nan", "inf", "-inf"]),
              st.just("--p"), either(["2", "1.5"], ["1", "0.5", "1e308", "nan", "inf", "-inf"])),
    st.one_of(st.just(()), st.tuples(st.just("--r-m"), st.sampled_from(
        ["0", "-1", "3", str(10 ** 30)]))),
).map(lambda parts: sum(parts, ()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rows=fuzz_rows, argv=fuzz_argv)
def test_exit_code_contract_fuzz(rows, argv, tmp_path_factory):
    check_exit_contract(rows, argv, tmp_path_factory)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rows=st.one_of(fuzz_rows, small_rows), argv=fuzz_estimate_argv)
def test_exit_code_contract_fuzz_multiplier_estimate(rows, argv, tmp_path_factory):
    check_exit_contract(rows, argv, tmp_path_factory)


def check_exit_contract(rows, argv, tmp_path_factory):
    # NaN and Infinity are written as the bare tokens json.load accepts
    path = tmp_path_factory.mktemp("fuzz") / "f.json"
    path.write_text(json.dumps({"coeffs": rows}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = parse_and_dispatch([*argv, *input_args(argv, path)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        # strict JSON: NaN, Infinity and -Infinity are not JSON numbers
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def input_args(argv, path):
    """``--input path`` for every verb but the schur-test kinds that read no file."""
    return ["--input", str(path)] if argv[0] != "schur-test" or argv[2] == "finite" else []


def _reject_constant(token):
    raise AssertionError(f"non-JSON number {token} in the report")


BIG = [{"n": 1, "re": 1e308}, {"n": 2, "re": 1e308}]


@pytest.mark.parametrize("argv", [
    ["norm", "--space", "lp", "--p", "2"],
    ["norm", "--space", "dq", "--p", "2"],
    ["norm", "--space", "ar", "--r", "0.5"],
])
def test_norms_huge_coefficients_finite(tmp_path, capsys, argv):
    path = write_coeffs(tmp_path, "big.json", BIG)
    assert parse_and_dispatch([*argv, "--input", path]) == 0
    value = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert value["records"][0]["value"] > 1e308


@pytest.mark.parametrize("argv, rows", [
    (["eval", "--sigma", "2", "--t", "inf"], UNIT),
    (["eval", "--sigma", "nan"], UNIT),
    (["eval", "--sigma=-1e308"], BIG),
    (["norm", "--space", "ar", "--r", "nan"], UNIT),
    (["norm", "--space", "ar", "--r", "-3"], BIG),
    (["norm", "--space", "lp", "--p", "inf"], UNIT),
    # the largest scaled term |a|^p or |b|^q falls below the normal range
    (["norm", "--space", "lp", "--p", "1100"], UNIT),
    (["norm", "--space", "dq", "--p", "1.0009"], UNIT),
    (["schur-test", "--kind", "power", "--beta", "nan"], UNIT),
    (["schur-test", "--kind", "power", "--beta", "inf"], UNIT),
    (["schur-test", "--kind", "log-power", "--alpha", "nan"], UNIT),
    (["schur-test", "--kind", "log-power", "--alpha", "inf"], UNIT),
    (["schur-test", "--kind", "log-power", "--alpha", "1e300"], UNIT),
    (["schur-test", "--kind", "log-power", "--alpha", "1", "--p", "1.0000000001"], UNIT),
    (["schur-test", "--kind", "power", "--beta=-1000"], UNIT),
    (["schur-test", "--kind", "power", "--beta=-300", "--horizon", "100000"], UNIT),
    (["schur-test", "--kind", "power", "--beta=-154.5", "--horizon", "10"], UNIT),
    (["schur-test", "--kind", "power", "--beta=-1e308", "--horizon", "10"], UNIT),
    # the finite sup-sum sum_n sup_{k>=n} |b_k|^q / k leaves float64
    (["schur-test", "--kind", "finite", "--p", "2"], BIG),
    (["schur-test", "--kind", "finite", "--p", "1.01"], [{"n": 1, "re": 1e4}]),
    (["schur-test", "--kind", "finite", "--p", "2"], [{"n": 1, "re": 1.3407807929942596e154}]),
])
def test_non_finite_values_exit_2(tmp_path, capsys, argv, rows):
    path = write_coeffs(tmp_path, "f.json", rows)
    assert parse_and_dispatch([*argv, *input_args(argv, path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["schur-test", "--kind", "finite", "--p", "2", "--input", "F"],
    ["eval", "--sigma=-2", "--input", "F"],
    ["convolve", "--input", "F", "--with", "F", "--limit", "10"],
])
def test_overflow_exits_2_without_warnings(tmp_path, capsys, argv):
    # an overflow inside numpy ends in one error line, with no RuntimeWarning
    path = write_coeffs(tmp_path, "big.json", BIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_and_dispatch([path if a == "F" else a for a in argv]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, rows, out", [
    # 3689348814741910324 * 5 = 2**64 + 4 lies below the limit 2**70
    (["convolve", "--with", "G", "--limit", str(2 ** 70)],
     [{"n": 3689348814741910324, "re": 1.0}], ""),
    # the same product past --limit 100 is dropped, not refused
    (["convolve", "--with", "G", "--limit", "100"],
     [{"n": 3689348814741910324, "re": 1.0}], '{\n  "coeffs": []\n}\n'),
    # 184484044301083 * 99991 passes 2**63 - 1 below the default limit
    (["multiplier-estimate", "--m", "3", "--alpha", "0.45", "--prime-limit", "100000",
      "--r-m", "9592"], [{"n": 1, "re": 1.0}, {"n": 184484044301083, "re": 1.0}], ""),
])
def test_product_index_past_int64_exits_2(tmp_path, capsys, argv, rows, out):
    # a product index at or below the limit that int64 cannot hold is an
    # input error, where it used to wrap silently
    f = write_coeffs(tmp_path, "f.json", rows)
    g = write_coeffs(tmp_path, "g.json", [{"n": 5, "re": 1.0}])
    code = parse_and_dispatch([argv[0], "--input", f, *(g if a == "G" else a for a in argv[1:])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (0 if out else 2, out)
    if not out:
        assert captured.err == "error: a product index up to the convolution limit exceeds int64\n"


def test_failed_self_check_exits_3(tmp_path, capsys, monkeypatch):
    # a reference of 0 makes every certified quotient exceed it
    from cesdirichlet import multipliers

    monkeypatch.setattr(multipliers, "ar_norm", lambda *args: 0.0)
    path = write_coeffs(tmp_path, "f.json", UNIT)
    code = parse_and_dispatch(["multiplier-estimate", "--input", path, "--m", "5",
                               "--alpha", "0.45", "--prime-limit", "10000"])
    assert code == 3
    assert "self-check failed" in capsys.readouterr().err


def test_convergence_error_exits_2(tmp_path, capsys, monkeypatch):
    from cesdirichlet import multipliers
    from cesdirichlet.errors import ConvergenceError

    def no_convergence(beta):
        raise ConvergenceError(f"decrease onset for beta={beta} failed to converge")

    monkeypatch.setattr(multipliers, "decrease_onset", no_convergence)
    path = write_coeffs(tmp_path, "f.json", UNIT)
    code = parse_and_dispatch(["multiplier-estimate", "--input", path, "--m", "5",
                               "--alpha", "0.45", "--prime-limit", "10000"])
    assert code == 2
    assert "failed to converge" in capsys.readouterr().err


def test_estimate_m_past_table_names_m(tmp_path, capsys):
    # 25 primes below 100: the fallback anchor r_m = m + 1 = 31 lies past them,
    # and the message names the m the caller gave, not that anchor
    path = write_coeffs(tmp_path, "f.json", UNIT)
    code = parse_and_dispatch(["multiplier-estimate", "--input", path, "--m", "30",
                               "--alpha", "0.45", "--prime-limit", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert "m=30" in err and "prime limit 100" in err and "25 primes" in err
    assert "r_m" not in err


def test_trace_targets_resolve(monkeypatch):
    # the benchmark's --trace 1 wraps these bindings by name; loaded by
    # file path, as the benchmark directory is not a package
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclass
    spec.loader.exec_module(tracing)
    for mod, fname, _ in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        assert callable(getattr(module, fname, None)), f"{mod}.{fname}"
