import csv
import json

import pytest
from click.testing import CliRunner

from hgtrace.cli import main
from hgtrace.modform_oracle import fixture_path, load_fixture_by_label


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
], ids=["exps-two-entries", "exps-not-integer", "n-zero", "n-one",
        "alpha-zero-denominator", "fp2-without-counter", "verify-weil-vacuous",
        "verify-legendre-vacuous", "verify-all-vacuous", "verify-weil-skips-246",
        "verify-all-skips-246"])
def test_bad_option_is_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output.strip().splitlines()[-1].startswith("Error: ")


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


def test_verify_weil_states_what_it_checked(runner):
    # 13 is the first prime at which all five rows, (2,4,6) included, are checked
    res = runner.invoke(main, ["verify", "weil", "--max-prime", "13"])
    assert res.exit_code == 0, res.output
    detail = json.loads(res.output)["results"][0]["detail"]
    assert detail == "79 values over 9 (row, p) pairs, 0 violations"


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
