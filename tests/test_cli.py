import csv
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hgtrace import cli
from hgtrace.character_sums import SnapError
from hgtrace.cli import _json_text, main
from hgtrace.field_core import cached_ctx
from hgtrace.hgm_data import OO, row_by_signature
from hgtrace.modform_oracle import fixture_path, load_fixture_by_label
from hgtrace.trace_engine import TraceReport, hecke_trace

REPO_ROOT = Path(__file__).resolve().parents[1]


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=lambda o: o.to_json() if isinstance(o, TraceReport) else str(o))


@pytest.fixture()
def runner():
    return CliRunner()


def test_trace_246_weight8_p13(runner):
    fx = load_fixture_by_label("6.8.a.a")
    res = runner.invoke(main, ["trace", "--group", "2,4,6", "--weight", "8",
                               "--prime", "13"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    rep = payload["reports"][0]
    assert rep["total"] == -fx.coefficient(13)
    assert rep["partial"] is False


def test_trace_23oo_weight12_partial(runner):
    res = runner.invoke(main, ["trace", "--group", "2,3,oo", "--weight", "12",
                               "--prime", "13"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)["reports"][0]
    assert rep["partial"] is True
    assert "elliptic terms unavailable" in rep["flags"]
    assert rep["total"] is None
    assert rep["residual"] is not None


def test_trace_invalid_group_usage_error(runner):
    res = runner.invoke(main, ["trace", "--group", "9,9", "--weight", "8",
                               "--prime", "13"])
    assert res.exit_code == 2


def test_trace_csv_format(runner):
    res = runner.invoke(main, ["trace", "--group", "2,4,6", "--weight", "8",
                               "--prime", "13", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("signature,p,weight")
    assert len(lines) == 2


def test_trace_deterministic_config_echo(runner):
    args = ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "13"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    # schema 1 readers and recorded output digests expect this exact echo
    assert json.loads(out1)["config"] == {
        "command": "trace", "group": "(2,4,6)", "weight": 8, "primes": [13],
        "parallelism": 1, "schema_version": 1}


@pytest.mark.parametrize("args", [
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "25"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "9"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "100057"],
    ["verify", "clausen", "--prime", "25"],
    ["verify", "clausen", "--prime", "100057"],
    ["calibrate", "bg-lambda", "--prime", "25"],
    ["calibrate", "bg-lambda", "--prime", "100057"],
    ["count", "legendre", "--prime", "25", "--lambda", "2"],
    ["count", "legendre", "--prime", "100057", "--lambda", "2"],
    ["sum", "hp", "--group", "2,4,6", "--prime", "25", "--t", "5"],
    ["sum", "hp", "--group", "2,4,6", "--prime", "100057", "--t", "5"],
    ["verify", "genlegendre", "--prime", "11"],
    ["sum", "hp", "--group", "2,4,6", "--prime", "7", "--t", "5"],
    ["verify", "qm", "--prime", "5"],
    ["count", "baba-granath", "--prime", "5", "--j", "1"],
], ids=["trace-composite", "trace-composite-inadmissible", "trace-over-cap",
        "verify-composite", "verify-over-cap", "bg-lambda-composite",
        "bg-lambda-over-cap", "count-composite", "count-over-cap",
        "sum-hp-composite", "sum-hp-over-cap", "verify-genlegendre-not-1-mod-6",
        "sum-hp-not-1-mod-level", "verify-qm-p5", "count-baba-granath-p5"])
def test_bad_prime_is_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output.strip().splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize("args", [
    ["count", "genlegendre", "--prime", "13", "--n", "6", "--exps", "4,3",
     "--lambda", "2"],
    ["count", "genlegendre", "--prime", "13", "--n", "6", "--exps", "4,x,1",
     "--lambda", "2"],
    ["count", "genlegendre", "--prime", "13", "--n", "0", "--exps", "4,3,1",
     "--lambda", "2"],
    ["count", "genlegendre", "--prime", "13", "--n", "1", "--exps", "4,3,1",
     "--lambda", "2"],
    ["sum", "np", "--alpha", "1/0,1/2", "--beta", "1,1", "--prime", "13",
     "--lambda", "3"],
    ["count", "hesse", "--prime", "7", "--mu", "2", "--fp2"],
    ["verify", "weil", "--max-prime", "5"],
    ["verify", "legendre", "--max-prime", "3"],
    ["verify", "all", "--max-prime", "6"],
    ["verify", "weil", "--max-prime", "11"],
    ["verify", "all", "--max-prime", "12"],
    ["verify", "weil", "--max-prime", "100003"],
    ["verify", "legendre", "--max-prime", "100003"],
    ["verify", "all", "--max-prime", "200000"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime-range", "99000:100100"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime-range", "600:7"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime-range", "24:28"],
    ["verify", "fm", "--max-prime", "1"],
    ["verify", "clausen", "--prime", "7", "--max-prime", "200000"],
    ["verify", "weil", "--prime", "13"],
    ["verify", "legendre", "--seed", "1"],
    ["verify", "qm", "--max-prime", "61"],
    ["verify", "fm", "--prime", "13"],
    ["verify", "analytic", "--seed", "0"],
    ["count", "hesse", "--prime", "7", "--mu", "2", "--j", "5"],
    ["count", "conic", "--prime", "7", "--lambda", "3"],
    ["count", "legendre", "--prime", "7", "--lambda", "2", "--branch", "1"],
    ["count", "legendre", "--prime", "7"],
    ["count", "genlegendre", "--prime", "13", "--n", "6", "--lambda", "2"],
    ["table", "--format", "json"],
    ["count", "baba-granath", "--prime", "29", "--j", "5", "--branch", "0"],
    ["count", "baba-granath", "--prime", "29", "--j", "5", "--branch", "2"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "13", "--prime-range", "7:20"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime-range", "5"],
    ["trace", "--group", "2,4,6", "--weight", "8"],
    ["trace", "--group", "2,4,6", "--weight", "7", "--prime", "13"],
    ["count", "legendre", "--prime", "13", "--lambda", "x"],
    ["calibrate", "bg-lambda", "--prime", "7"],
], ids=["exps-two-entries", "exps-not-integer", "n-zero", "n-one",
        "alpha-zero-denominator", "fp2-without-counter", "verify-weil-vacuous",
        "verify-legendre-vacuous", "verify-all-vacuous", "verify-weil-skips-246",
        "verify-all-skips-246", "verify-weil-over-cap", "verify-legendre-over-cap",
        "verify-all-over-cap", "trace-range-over-cap", "trace-range-reversed",
        "trace-range-no-prime", "verify-fm-unread-max-prime",
        "verify-clausen-unread-max-prime", "verify-weil-unread-prime",
        "verify-legendre-unread-seed", "verify-qm-unread-max-prime",
        "verify-fm-unread-prime", "verify-analytic-unread-default-seed",
        "count-hesse-unread-j", "count-conic-unread-lambda",
        "count-legendre-unread-default-branch", "count-legendre-missing-lambda",
        "count-genlegendre-missing-exps", "table-no-format-option",
        "count-baba-granath-branch-0", "count-baba-granath-branch-2",
        "trace-prime-and-range", "trace-range-not-lo-hi", "trace-no-prime",
        "trace-odd-weight", "count-lambda-not-integer", "calibrate-bg-lambda-not-1-mod-12"])
def test_bad_option_is_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output.strip().splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize("args", [
    ["verify", "weil", "--max-prime", "100003"],
    ["verify", "legendre", "--max-prime", "100003"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime-range", "99000:100100"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime-range", "7:3000000"],
], ids=lambda args: " ".join(args[:2] + args[-1:]))
def test_p_cap_is_checked_before_any_prime_runs(runner, monkeypatch, args):
    def no_work(p):
        raise AssertionError(f"context built for p = {p}")
    monkeypatch.setattr(cli, "cached_ctx", no_work)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "exceeds the configured bound 100000" in res.output


def test_trace_range_of_skipped_primes_is_not_an_error(runner):
    res = runner.invoke(main, ["trace", "--group", "2,4,6", "--weight", "8",
                               "--prime-range", "7:12"])
    assert res.exit_code == 0, res.output
    assert "skipping p = 11" in res.stderr
    assert json.loads(res.stdout)["reports"] == []


def test_sum_np(runner):
    res = runner.invoke(main, ["sum", "np", "--alpha", "1/2,1/2", "--beta", "1,1",
                               "--prime", "13", "--lambda", "3"])
    assert res.exit_code == 0, res.output
    val = json.loads(res.output)["value"]
    assert val["snapped"] is not None


def test_sum_hp(runner):
    res = runner.invoke(main, ["sum", "hp", "--group", "2,4,6", "--prime", "13",
                               "--t", "5"])
    assert res.exit_code == 0, res.output


def test_count_legendre(runner):
    res = runner.invoke(main, ["count", "legendre", "--prime", "7",
                               "--lambda", "2"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[1].split(",")[4] == "8"   # n_points
    assert lines[1].split(",")[5] == "0"   # trace


def test_count_genlegendre_places_at_branch(runner):
    # gcd(3, 10) = 1, so y -> y^3 is a bijection of F_11: p + 1 = 12 points
    res = runner.invoke(main, ["count", "genlegendre", "--prime", "11", "--n", "3",
                               "--exps", "1,1,1", "--lambda", "2"])
    assert res.exit_code == 0, res.output
    row = next(csv.reader(res.output.strip().splitlines()[1:]))
    assert (row[4], row[5]) == ("12", "0")


def test_count_legendre_fp2_flags_singular_fibers(runner):
    res = runner.invoke(main, ["count", "legendre", "--prime", "13",
                               "--lambda", "0,1,2", "--fp2"])
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(res.output.strip().splitlines()[1:]))
    for row in rows[:2]:
        assert (row[3], row[4], row[5]) == ("169", "0", "")
        assert row[6] == "bad reduction: lambda(1-lambda) = 0"
    assert rows[2][6] == ""


def test_count_requires_params(runner):
    res = runner.invoke(main, ["count", "legendre", "--prime", "7"])
    assert res.exit_code == 2


def test_count_lambda_all_and_list(runner):
    res = runner.invoke(main, ["count", "legendre", "--prime", "7",
                               "--lambda", "all"])
    assert res.exit_code == 0
    assert len(res.output.strip().splitlines()) == 1 + 7
    res2 = runner.invoke(main, ["count", "legendre", "--prime", "7",
                                "--lambda", "2,3"])
    assert len(res2.output.strip().splitlines()) == 3


def test_trace_prime_range(runner):
    res = runner.invoke(main, ["trace", "--group", "2,4,6", "--weight", "8",
                               "--prime-range", "13:37"])
    assert res.exit_code == 0, res.output
    # skipped-prime notes go to stderr; parse the stdout JSON payload
    body = res.stdout if hasattr(res, "stdout") else res.output
    start = body.index("{")
    reports = json.loads(body[start:])["reports"]
    assert [r["p"] for r in reports] == [13, 37]


def test_analytic_command(runner):
    res = runner.invoke(main, ["analytic"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("check,")
    assert all(line.rsplit(",", 1)[1] == "True" for line in lines[1:])


def test_count_conic(runner):
    res = runner.invoke(main, ["count", "conic", "--prime", "13"])
    assert res.exit_code == 0
    assert ",14," in res.output.splitlines()[1] + ","


def test_fixture_validate_ok(runner):
    res = runner.invoke(main, ["fixture", "validate", str(fixture_path("6.8.a.a"))])
    assert res.exit_code == 0
    assert res.output.startswith("OK")


def test_fixture_validate_bad(tmp_path, runner):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x", "level": 1}')
    res = runner.invoke(main, ["fixture", "validate", str(bad)])
    assert res.exit_code == 1


@pytest.mark.parametrize("text", [
    '{"label": "x", "level": 6, "weight": 8, "ap": {"abc": 1}}',
    '5',
    '{"label": "x", "level": true, "weight": 8, "ap": {"5": 1}}',
    '{"label": "x", "level": 6, "weight": 8, "ap": {"5": true}}',
    '{"label": "x",',
])
def test_fixture_validate_malformed(tmp_path, runner, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    res = runner.invoke(main, ["fixture", "validate", str(bad)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("INVALID") and "OK" not in res.output


def test_trace_with_malformed_fixture_fails(tmp_path, runner, monkeypatch):
    fixture = {"label": "6.8.a.a", "level": 6, "weight": 8, "ap": {"5": -114}}
    (tmp_path / "6.8.a.a.json").write_text(json.dumps(fixture))
    monkeypatch.setenv("HGTRACE_FIXTURE_DIR", str(tmp_path))
    args = ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "13"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert json.loads(res.output)["reports"][0]["oracle"] is None  # a_13 missing
    (tmp_path / "6.8.a.a.json").write_text(
        json.dumps({**fixture, "ap": {"abc": 1}}))
    res = runner.invoke(main, args)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output.count("\n") == 1
    assert res.output.startswith("computation failure at p = 13:")
    assert "6.8.a.a.json" in res.output and "oracle" not in res.output


def test_table_command(runner):
    res = runner.invoke(main, ["table"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data) == 5


def test_verify_fm(runner):
    res = runner.invoke(main, ["verify", "fm", "--seed", "1"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["results"][0]["passed"] is True
    # options the suite does not read are not given, and their defaults are echoed
    assert (out["config"]["prime"], out["config"]["max_prime"]) == (None, 61)


def _no_suite(*args):
    raise AssertionError(f"suite ran: {args}")


@pytest.mark.parametrize("args, error", [
    (["verify", "clausen", "--prime", "7", "--seed", "0"], "verify clausen does not read --seed"),
    (["verify", "all", "--prime", "47"], "genlegendre needs p = 1 mod 6, got 47"),
], ids=["unread-option", "all-genlegendre-not-1-mod-6"])
def test_verify_usage_error_comes_before_any_suite_runs(runner, monkeypatch, args, error):
    monkeypatch.setattr(cli, "_run_suite", _no_suite)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert f"Error: {error}" in res.output


def test_verify_all_reads_every_option(runner, monkeypatch):
    monkeypatch.setattr(cli, "_run_suite", _no_suite)
    res = runner.invoke(main, ["verify", "all", "--prime", "13", "--max-prime", "61",
                               "--seed", "0"])
    assert "suite ran: ('clausen', 13, 61, 0)" in str(res.exception)


@pytest.mark.slow
def test_verify_clausen_at_101(runner):
    res = runner.invoke(main, ["verify", "clausen", "--prime", "101"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["results"][0]["detail"] == \
        "475400 admissible checks, 0 failures over [101]"


def _readme_commands():
    """The hgtrace lines of README's "Command line" block, comments dropped."""
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("hgtrace ")]
    assert commands, "README's Command line block lists no hgtrace command"
    return commands


@pytest.mark.parametrize("args", _readme_commands(), ids=" ".join)
def test_readme_command_line_runs(runner, monkeypatch, args):
    monkeypatch.chdir(REPO_ROOT)
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output


def test_verify_weil_states_what_it_checked(runner):
    # 13 is the first prime at which all five rows, (2,4,6) included, are checked
    res = runner.invoke(main, ["verify", "weil", "--max-prime", "13"])
    assert res.exit_code == 0, res.output
    detail = json.loads(res.output)["results"][0]["detail"]
    assert detail == "79 values over 9 (row, p) pairs, 0 violations"


def test_verify_weil_reports_a_failed_sweep(runner, monkeypatch):
    real = cli.a_gamma_sweep

    def sweep(row, ctx):
        if row.a_rule == "row_246":
            raise SnapError(f"a_Gamma(2, {ctx.p}) snapped to 5, but a + p is not d*t^2")
        return real(row, ctx)

    monkeypatch.setattr(cli, "a_gamma_sweep", sweep)
    res = runner.invoke(main, ["verify", "weil", "--max-prime", "13"])
    assert res.exit_code == 1, res.output
    detail = json.loads(res.output)["results"][0]["detail"]
    assert detail.startswith("68 values over 9 (row, p) pairs, 1 violations, "
                             "first [('(2,4,6)', 13, 'a_Gamma(2, 13) snapped to 5")


def test_verify_legendre_reaches_the_thousands(runner):
    res = runner.invoke(main, ["verify", "legendre", "--max-prime", "1000"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["results"] == [
        {"detail": "map -4*lam/(lam-1)^2, all odd p <= 1000", "passed": True,
         "suite": "legendre"}]


@pytest.mark.usefixtures("skewed_legendre_correlation")
@pytest.mark.parametrize("args", [
    ["count", "legendre", "--prime", "13", "--lambda", "all"],
    ["count", "legendre", "--prime", "13", "--lambda", "2"],
    ["verify", "legendre", "--max-prime", "13"],
    ["calibrate", "legendre"],
], ids=["count-all", "count-one", "verify", "calibrate"])
def test_legendre_guard_failure_prints_no_count(runner, args):
    """A correlation value off by 1 or by 0.4 at lambda = 5 fails the command
    (exit 1); it never prints a count, a map or a passed check."""
    res = runner.invoke(main, args)
    assert res.exit_code == 1, res.output
    if args[0] == "verify":
        [result] = json.loads(res.stdout)["results"]
        assert result["passed"] is False and result["detail"].startswith("Legendre")
    else:
        assert res.stdout == "" and "failure: Legendre" in res.stderr


def test_verify_seed_determinism(runner):
    a = runner.invoke(main, ["verify", "fm", "--seed", "5"]).output
    b = runner.invoke(main, ["verify", "fm", "--seed", "5"]).output
    assert a == b


def test_calibrate_hp(runner):
    res = runner.invoke(main, ["calibrate", "hp", "--group", "2,oo,oo"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["sign"] == -1 and out["weight"] == 0 and out["matches_table"]


def test_calibrate_bg_lambda_research(runner):
    res = runner.invoke(main, ["calibrate", "bg-lambda", "--prime", "13"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert "best_linear_map" in out
    assert out["note"].startswith("research")


@pytest.mark.parametrize("obj", [
    {"f": np.float64(1.5), "i": np.int64(7), "b": [True, False, None, 0, -1]},
    [math.nan, math.inf, -math.inf, 0.1, -0.0, 1e300, 10 ** 30],
    {"frac": Fraction(-3, 7), "oo": OO, "set": {3}},
    {"text": "\u00e9\u03bb\U0001d11e", "ctl": "a\tb\nc\x00\x1f\"\\/"},
    {}, [], {"e": {}, "l": [], "t": ()}, (1, ("a", 2), []), "top", 5, None,
    {"b": 1, "a": {"d": [1], "c": ["x", "y", None]}},
    {"k": [["3", "generic", 12], ["oo", "cusp", 1], ["-3", "elliptic(2)", None]]},
    [["3", "generic", 1.5], ["4", "generic", 2]],
    [["3", "generic", 1], ["4", "generic", [2]]],
    [["3", "generic"], ["4", "generic"]],
    [["3", "generic", True]],
    [["3", "generic", np.int64(4)]],
    [("3", "generic", 4)],
    {"s": {1: "int key", 3: [{3.5: None, -1.5: 0}, {True: 1, False: 0}, {None: 2}]}},
], ids=["numpy-and-bool", "floats", "default-str", "non-ascii-and-control",
        "empty-dict", "empty-list", "empty-nested", "tuples", "top-str", "top-int",
        "top-none", "nested-sorted", "term-rows", "row-float", "row-nested-list",
        "row-length-2", "row-bool", "row-numpy-int", "row-tuple", "non-str-keys"])
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == _dumps(obj)


def test_json_writer_places_reports_at_any_depth():
    rep, rep2 = (hecke_trace(row_by_signature(sig), cached_ctx(13), 6)
                 for sig in ((2, 4, 6), (2, 3, OO)))
    placeholder_text = "\\u0000terms\\u0000"  # json's escape of the placeholder, as text
    for obj in (rep, [rep, rep2], {"a": [1, {"b": {"report": rep}}], "z": rep2},
                {"note": placeholder_text, placeholder_text: [rep], "terms": "\0terms"}):
        assert _json_text(obj) == _dumps(obj)
    with pytest.raises(ValueError):  # the placeholder itself cannot be written
        _json_text({"terms": "\0terms\0"})


def test_json_writer_mixed_keys_fail_like_json_dumps():
    with pytest.raises(TypeError):
        _dumps({1: "a", "b": 2})
    with pytest.raises(TypeError):
        _json_text({1: "a", "b": 2})


@pytest.mark.parametrize("args", [
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime-range", "7:100"],
    ["trace", "--group", "2,3,oo", "--weight", "12", "--prime-range", "7:40"],
    ["trace", "--group", "2,oo,oo", "--weight", "6", "--prime", "11"],
    ["sum", "np", "--alpha", "1/2,1/2", "--beta", "1,1", "--prime", "13",
     "--lambda", "3"],
    ["sum", "np", "--alpha", "1/2,1/3,1/3", "--beta", "1,1,1", "--prime", "13",
     "--lambda", "3"],
    ["sum", "hp", "--group", "2,4,6", "--prime", "13", "--t", "5"],
    ["verify", "weil", "--max-prime", "13"],
    ["calibrate", "hp", "--group", "2,4,6"],
    ["calibrate", "legendre"],
    ["calibrate", "bg-lambda", "--prime", "13"],
], ids=lambda args: " ".join(args[:2]))
def test_json_writer_on_every_emitted_payload(runner, monkeypatch, args):
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", payloads.append)
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert len(payloads) == 1
    assert _json_text(payloads[0]) == _dumps(payloads[0])


# every row at its first two admissible primes, and a partial (2,3,oo) report
# at weight 12 whose elliptic terms have no value
@pytest.mark.parametrize("sig, p, k", [
    ((2, OO, OO), 7, 6), ((2, OO, OO), 11, 6), ((2, 3, OO), 7, 6), ((2, 3, OO), 13, 6),
    ((2, 4, OO), 13, 6), ((2, 4, OO), 17, 6), ((2, 6, OO), 7, 6), ((2, 6, OO), 13, 6),
    ((2, 4, 6), 13, 6), ((2, 4, 6), 37, 6), ((2, 3, OO), 13, 10),
], ids=lambda v: str(v))
def test_json_writer_on_trace_reports(sig, p, k):
    rep = hecke_trace(row_by_signature(sig), cached_ctx(p), k)
    assert _json_text({"reports": [rep]}) == json.dumps({"reports": [rep.to_json()]},
                                                        indent=2, sort_keys=True)
    terms = rep.to_json()["terms"]
    assert rep.generic_sum == sum(value for _lam, kind, value in terms if kind == "generic")
    elliptic = [value for _lam, kind, value in terms if kind.startswith("elliptic")]
    assert elliptic and (rep.partial == all(v is None for v in elliptic))


def test_json_writer_at_the_reference_prime(runner, monkeypatch):
    """The headline command at p = 99961, past the primes of the recorded
    output digests: an 8.8 MB report."""
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", payloads.append)
    res = runner.invoke(main, ["trace", "--group", "2,4,6", "--weight", "8",
                               "--prime", "99961"])
    assert res.exit_code == 0, res.output
    payload, = payloads
    rep, = payload["reports"]
    text = _json_text(payload)
    expected = json.dumps({**payload, "reports": [rep.to_json()]}, indent=2, sort_keys=True)
    if text != expected:  # name the first difference; pytest's diff of 8.8 MB would not end
        i = next(i for i, (a, b) in enumerate(zip(text + "\0", expected + "\1")) if a != b)
        lo = max(0, i - 40)
        pytest.fail(f"first difference at {i}: {text[lo:i + 40]!r} != {expected[lo:i + 40]!r}")
