import csv
import dataclasses
import hashlib
import inspect
import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hgtrace import cli, curve_lab, field_core, modform_oracle
from hgtrace.character_sums import SnapError, clausen_sweep, snap_tolerance
from hgtrace.cli import _json_chunks, main
from hgtrace.field_core import DEFAULT_P_BOUND, cached_ctx, is_prime
from hgtrace.hgm_data import OO, row_by_signature
from hgtrace.modform_oracle import (FixtureError, fixture_path, load_fixture,
                                    load_fixture_by_label)
from hgtrace.trace_engine import TraceReport, hecke_trace

REPO_ROOT = Path(__file__).resolve().parents[1]


def _json_text(obj):
    return "".join(_json_chunks(obj))


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
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "7"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime", "2"],
], ids=["trace-composite", "trace-composite-inadmissible", "trace-over-cap",
        "verify-composite", "verify-over-cap", "bg-lambda-composite",
        "bg-lambda-over-cap", "count-composite", "count-over-cap",
        "sum-hp-composite", "sum-hp-over-cap", "verify-genlegendre-not-1-mod-6",
        "sum-hp-not-1-mod-level", "verify-qm-p5", "count-baba-granath-p5",
        "trace-not-1-mod-level", "trace-p2"])
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
    ["count", "universal-j", "--prime", "7", "--j", "2", "--fp2"],
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
    ["count", "universal-j", "--prime", "7", "--j", "2", "--lambda", "5"],
    ["count", "baba-granath", "--prime", "7", "--j", "2", "--lambda", "3"],
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
        "count-universal-j-unread-lambda", "count-baba-granath-unread-lambda",
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
    monkeypatch.setattr(cli, "build_ctx", no_work)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "exceeds the configured bound 100000" in res.output


@pytest.fixture()
def no_primality_above_the_cap(monkeypatch):
    """is_prime, wherever the package calls it, raises above the p cap."""
    def guarded(n):
        if n > DEFAULT_P_BOUND:
            raise AssertionError(f"is_prime({n}) called above the p cap")
        return is_prime(n)
    for module in (field_core, cli, modform_oracle):
        monkeypatch.setattr(module, "is_prime", guarded)


BIG = "1000000000000000009"  # prime, 1 mod 12, far above the p cap


@pytest.mark.parametrize("args", [
    ["count", "legendre", "--prime", "1000000000000000003", "--lambda", "2"],
    ["trace", "--group", "2,4,6", "--weight", "8", "--prime", BIG],
    ["trace", "--group", "2,4,6", "--weight", "8",
     "--prime-range", "100000000000000000:100000000000000100"],
    ["sum", "np", "--alpha", "1/2,1/2", "--beta", "1,1", "--prime", BIG, "--lambda", "3"],
    ["sum", "hp", "--group", "2,4,6", "--prime", BIG, "--t", "5"],
    ["verify", "clausen", "--prime", BIG],
    ["calibrate", "bg-lambda", "--prime", BIG],
], ids=["count", "trace-prime", "trace-range", "sum-np", "sum-hp", "verify", "calibrate"])
@pytest.mark.usefixtures("no_primality_above_the_cap")
def test_p_cap_is_checked_before_primality(runner, args):
    """Trial division of a number far above the p cap would not finish, so the
    cap is checked first and is_prime never sees such a number."""
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "exceeds the configured bound 100000" in res.output


@pytest.mark.usefixtures("no_primality_above_the_cap")
def test_fixture_key_above_the_p_cap_is_invalid(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"label": "big", "level": 6, "weight": 8,
                                "ap": {"5": 0, "1000000000000000003": 0}}))
    with pytest.raises(FixtureError, match="'1000000000000000003' exceeds the configured bound"):
        load_fixture(path)


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


@pytest.mark.parametrize("options", [
    "--prime 13 --n 6 --exps 4,3,1 --lambda all",
    "--prime 13 --n 6 --exps 4,3,1 --lambda 0,1,5,5,3",
    "--prime 13 --n 13 --exps 4,3,1 --lambda 0,1,5,5,3",
], ids=["all", "list-with-duplicates", "N-equals-p"])
def test_count_genlegendre_list_matches_the_rows_one_lambda_at_a_time(runner, options):
    """A --lambda list counts every lambda outside {0, 1} in one call; its CSV
    is the header and the rows of one command per lambda, in the order given,
    duplicates and bad-reduction rows included. A lambda in {0, 1} is flagged
    before p | N, and every other row holds its single-lambda count."""
    argv = ["count", "genlegendre", *options.split()]
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.output
    header, *rows = res.stdout.splitlines()
    lams = cli._lambda_selection(argv[-1], 13)
    assert len(rows) == len(lams)
    N = int(argv[argv.index("--n") + 1])
    for lam, row in zip(lams, rows):
        one = runner.invoke(main, [*argv[:-1], str(lam)])
        assert one.exit_code == 0, one.output
        assert one.stdout.splitlines() == [header, row]
        _family, _params, _p, _q, n_points, trace, flags = next(csv.reader([row]))
        if lam < 2 or N % 13 == 0:
            assert (n_points, trace) == ("0", "")
            assert flags == ("bad reduction: lambda in {0, 1}" if lam < 2 else "p divides N")
        else:
            cnt = int(curve_lab.gen_legendre_counts(cached_ctx(13), N, 4, 3, 1, [lam])[0])
            assert (n_points, trace, flags) == (str(cnt), str(14 - cnt), "")


@pytest.mark.parametrize("route", ["gen_legendre_counts", "count_via_characters"])
def test_verify_genlegendre_names_the_first_mismatch(runner, monkeypatch, route):
    """With one route's count off by 1 at lam = 5 and lam = 9, verify
    genlegendre --prime 13 exits 1 and names lam = 5."""
    real = getattr(cli, route)

    def skewed(ctx, N, a, b, c, lams):
        out = real(ctx, N, a, b, c, lams)
        (out[0] if isinstance(out, tuple) else out)[np.isin(lams, (5, 9))] += 1
        return out

    monkeypatch.setattr(cli, route, skewed)
    res = runner.invoke(main, ["verify", "genlegendre", "--prime", "13"])
    assert res.exit_code == 1, res.output
    assert json.loads(res.output)["results"] == [
        {"suite": "genlegendre", "passed": False, "detail": "count mismatch p=13 lam=5"}]


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


@pytest.mark.parametrize("family, options", [
    ("genlegendre", "--n 6 --exps 4,3,1 --lambda 3"),
    ("universal-j", "--j 2"),
])
def test_count_fp2_error_names_the_family(runner, family, options):
    res = runner.invoke(main, ["count", family, "--prime", "13", "--fp2", *options.split()])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.output.strip().splitlines()[-1] == f"Error: {family} has no F_p2 counter"


@pytest.mark.parametrize("command, digest", [
    ("count legendre --prime 101 --lambda all",
     "8c2e96f00ac0634c030e823ed962dd283e7226cf4d1474e3725a8c0c7dd2ea96"),
    ("count legendre --prime 101 --lambda all --fp2",
     "4eb6d2e3ffa9e1ab4cd894bab385365c989b55ed758db7f47256c46fd8a0a5c5"),
    ("count universal-j --prime 101 --j 5",
     "12824ed704700bb537c1dd420781f92703636b6dc7e2c10c38e850f263c183b2"),
    ("count universal-j --prime 101 --j 0",
     "c7f7c94a84150ff36e7754278221239379d3d71dc787c2935ba2fa330b0c24ca"),
    ("count genlegendre --prime 103 --n 6 --exps 4,3,1 --lambda all",
     "adc8107d815b25782b284937fa4fa50f5e706b41665db2a94c35b08d44f1b01a"),
    ("count baba-granath --prime 101 --j 1",
     "cbf157e5efd3738aa4fcdf453bd4acade17f602a00544444e8bb14091b5c3bf2"),
    ("count baba-granath --prime 101 --j 1 --branch -1",
     "ebcd60996111028b34058dea733b20a9b3a27ccd73e48107d7b360a19b16d4c6"),
    ("count baba-granath --prime 101 --j 1 --fp2",
     "d2c87f6d3122471a0306adfd9272d7226736961f29eeca92754316e1d0db90f8"),
    ("count baba-granath --prime 101 --j 1 --branch -1 --fp2",
     "689bf88fdbb5f08685e82c133146ab656965e41c6bffd6a22dd0bf91eb532d02"),
    ("count baba-granath --prime 101 --j 2",
     "caac13ad7329c5bed833cb785ca1893c38476913918738cf23318efe5d441d20"),
    ("count baba-granath --prime 101 --j 2 --fp2",
     "93506b2ddd380ec1e12385c06eba407e2182c6a9ab184b902a74b5520d51767c"),
    ("count baba-granath --prime 101 --j 0",
     "169ef77009a269165de16d5759753273e50e404b3baf7e9314b82b80806561c9"),
    ("count baba-granath --prime 101 --j 0 --fp2",
     "a08bdee7a7487bd9f0045f23d6122e1e99357418f0e79e61006cefdd0fdc5549"),
])
def test_count_stdout_matches_recorded_digest(runner, command, digest):
    """Every family's CSV, over F_p2 where it has a counter, on both branches
    and at degenerate parameters; recorded when each family was a spec class
    dispatched by isinstance."""
    res = runner.invoke(main, command.split())
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_count_has_only_the_row_families(runner):
    """count knows legendre, universal-j, genlegendre and baba-granath; the
    families and options that checked no row are usage errors."""
    for args in ("hesse", "jacobi-quartic", "picard", "conic",
                 "legendre --lambda 2 --sigma 3", "legendre --lambda 2 --mu 2"):
        res = runner.invoke(main, ["count", "--prime", "13", *args.split()])
        assert res.exit_code == 2, (args, res.output)
        assert res.stdout == "", args
        assert re.search(r"is not one of 'baba-granath', 'genlegendre', 'legendre', "
                         r"'universal-j'\.$|No such option '--(sigma|mu)'\.$", res.output.strip()), args


def test_count_families_match_the_counters(runner):
    """cli._FAMILIES and curve_lab.FAMILIES name the same families, and each
    counter takes exactly the keywords that count builds for it (the params
    column): every option the family reads, given."""
    assert set(cli._FAMILIES) == set(curve_lab.FAMILIES)
    given = {"lam": "2", "j": "2", "n_": "6", "exps": "4,3,1", "branch": "-1"}
    opts = {param.name: param.opts[0] for param in cli.count.params}
    for family, read in cli._FAMILIES.items():
        args = [arg for name in read for arg in (opts[name], given[name])]
        for fp2, counter in zip(("", "--fp2"), curve_lab.FAMILIES[family]):
            if counter is None:
                continue
            res = runner.invoke(main, ["count", family, "--prime", "13", *args, *fp2.split()])
            assert res.exit_code == 0, res.output
            row = next(csv.reader(res.stdout.splitlines()[1:]))
            params = list(inspect.signature(counter).parameters)[1:]
            assert sorted(json.loads(row[1])) == sorted(params), (family, fp2)


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
    """Every Clausen check at p = 101 passes, and the worst |lhs - rhs| of the
    sweep is at least 10^8 below the tolerance passed is read against, the
    margin the tier-1 test asks at 23 and 37."""
    res = runner.invoke(main, ["verify", "clausen", "--prime", "101"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["results"][0]["detail"] == \
        "475400 admissible checks, 0 failures over [101]"
    worst = max(float(np.abs(lhs - rhs).max(initial=0.0))
                for _pair, (_ts, lhs, rhs, _passed) in clausen_sweep(cached_ctx(101)))
    assert 0 < worst <= snap_tolerance(101, 3) * 101 * 1e-8


@pytest.mark.slow
@pytest.mark.parametrize("command, exit_code, digest", [
    ("verify qm --prime 397", 1,
     "3a849c7e4daa0964c1332651de4546d8117427d210e322fe9517eb62c26d5966"),
    ("calibrate bg-lambda --prime 397", 0,
     "566356f585878ac473b52bbbd1fc08735de41386b2731a522ee69c9a88ed4309"),
])
def test_genus2_sweeps_at_397_match_recorded_digest(runner, command, exit_code, digest):
    """The genus-2 F_p and F_p2 counts at p = 397, past the benchmark's p = 197:
    the verify qm digest was recorded before the counts went through float64
    matmuls, the bg-lambda one (395 of 395 j matching lam = 81*j/16) when that
    command began checking only the fixed map. bg-lambda counts the sextics
    with coefficients outside F_p too."""
    res = runner.invoke(main, command.split())
    assert res.exit_code == exit_code, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.slow
def test_trace_at_99961_matches_recorded_digest(runner):
    """The (2,4,6) weight-8 report at p = 99961, past every benchmark digest
    (p <= 10093): the dlog table, the square test of the local traces and the
    report writer all run at full size here. Recorded before the dlog table
    went to baby and giant steps."""
    res = runner.invoke(main, "trace --group 2,4,6 --weight 8 --prime 99961".split())
    assert res.exit_code == 0, res.output
    assert len(res.stdout_bytes) == 8758540
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == \
        "dccdd88a1aac5319de81d32bd56eb7b1fa56ec6b40bb1f59af825b6d49942073"


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


def test_legendre_cover_mismatch_fails_the_command(runner, monkeypatch):
    """Every a_Gamma negated at p = 11 breaks the cover relation there."""
    real = cli.a_gamma_sweep

    def sweep(row, ctx):
        lams, a = real(row, ctx)
        return (lams, -a) if ctx.p == 11 else (lams, a)

    monkeypatch.setattr(cli, "a_gamma_sweep", sweep)
    res = runner.invoke(main, ["verify", "legendre", "--max-prime", "13"])
    assert res.exit_code == 1, res.output
    [result] = json.loads(res.stdout)["results"]
    assert result["passed"] is False
    assert re.fullmatch(r"mismatch p=11 lam'=\d+", result["detail"]), result["detail"]
    res = runner.invoke(main, ["calibrate", "legendre"])
    assert res.exit_code == 1, res.output
    assert res.stdout == "" and "failure: mismatch p=11" in res.stderr


def test_verify_seed_determinism(runner):
    a = runner.invoke(main, ["verify", "fm", "--seed", "5"]).output
    b = runner.invoke(main, ["verify", "fm", "--seed", "5"]).output
    assert a == b


def test_calibrate_hp(runner):
    res = runner.invoke(main, ["calibrate", "hp", "--group", "2,oo,oo"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["sign"] == -1 and out["weight"] == 0 and out["matches_table"]


# sha256 of the stdout of `calibrate hp --group G`, as the six-candidate
# (sign, weight) search printed it before the check of each row's persisted
# normalization replaced it
_CALIBRATE_HP_SHA256 = {
    "2,oo,oo": "07b410076916c32051bbc45cfd19a52280658caf3f82518653991ee078a90a23",
    "2,3,oo": "8c7862c5af6d2ab709600b4ef01959eed3c9aa39bae7b2fa6c677c2d50bf5dce",
    "2,4,oo": "b1222f984d836f8964a84e8bab40881f48f1affd3b2ab84be109c39d59cadcc3",
    "2,6,oo": "810658f32fc152878e2f9047dd2ccf8fc646300f6dcb3dad85a2c99777055f22",
    "2,4,6": "d9848c9f4354e8e2acd4a1171f72ec2787ef50b2a62ae301986713299208c6c5",
}


@pytest.mark.parametrize("group", list(_CALIBRATE_HP_SHA256))
def test_calibrate_hp_stdout_digest(runner, group):
    res = runner.invoke(main, ["calibrate", "hp", "--group", group])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _CALIBRATE_HP_SHA256[group]


def test_trace_oracle_guard_failure_is_a_computation_failure(runner, monkeypatch):
    """A level-one trace-formula sum that is not divisible by 24 fails the
    (2,3,oo) report at p = 13 (exit 1) with a one-line message, no traceback
    and nothing on stdout."""
    monkeypatch.setattr(modform_oracle, "_traces_24",
                        lambda k, n, N: {L: 1 for L in (1, 2, 3, 6) if N % L == 0})
    res = runner.invoke(main, ["trace", "--group", "2,3,oo", "--weight", "12",
                               "--prime", "13"])
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("computation failure at p = 13: trace-formula sum 1 "), \
        res.stderr


@pytest.mark.parametrize("p", [13, 37])
def test_calibrate_bg_lambda_fixed_map(runner, p):
    res = runner.invoke(main, ["calibrate", "bg-lambda", "--prime", str(p)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["map"] == "lam = 81*j/16"
    assert out["matches"] == out["out_of"] == p - 2


def test_calibrate_bg_lambda_fails_on_a_skewed_count(runner, monkeypatch):
    """One F_p2 count off by 2 moves its |T| by 1, so its j no longer matches."""
    real = cli.count_genus2_fp2

    def skewed(ctx, sextics):
        n2s = list(real(ctx, sextics))
        n2s[3] += 2
        return n2s

    monkeypatch.setattr(cli, "count_genus2_fp2", skewed)
    res = runner.invoke(main, ["calibrate", "bg-lambda", "--prime", "13"])
    assert res.exit_code == 1, res.output
    out = json.loads(res.output)
    assert (out["matches"], out["out_of"]) == (10, 11)


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


@pytest.fixture(scope="module")
def reports_13():
    """The complete (2,4,6) and the partial (2,3,oo) weight-8 reports at p = 13."""
    return [hecke_trace(row_by_signature(sig), cached_ctx(13), 6)
            for sig in ((2, 4, 6), (2, 3, OO))]


@pytest.mark.parametrize("fields", [
    {"flags": ('a "quoted" flag',)}, {"flags": ("back\\slash", "tab\there")},
    {"flags": ("\u03bb-flag \U0001d11e",)}, {"flags": ()},
    {"oracle": 0, "residual": -7}, {"partial": False, "total": None},
    {"elliptic_sum": None, "dim_cusp_forms": None, "oracle": None, "residual": 0},
], ids=["quote", "backslash-and-tab", "non-ascii", "no-flags", "oracle-0-negative-residual",
        "not-partial-no-total", "nulls"])
def test_json_writer_writes_report_fields_like_json_dumps(reports_13, fields):
    """The hand-written summary fields of a report equal json.dumps over
    to_json() at the top level, inside a list and inside a nested dict."""
    for base in reports_13:
        rep = dataclasses.replace(base, **fields)
        for wrap in (lambda r: r, lambda r: [r], lambda r: {"a": {"b": r}, "z": [1]}):
            assert _json_text(wrap(rep)) == json.dumps(wrap(rep.to_json()), indent=2,
                                                       sort_keys=True)


@pytest.mark.parametrize("fields", [
    {"oracle": np.int64(-3)}, {"residual": 0.5}, {"flags": ("ok", None)},
    {"total": Fraction(1, 2)},
], ids=["numpy-int", "float", "non-str-flag", "fraction"])
def test_json_writer_bad_report_field_writes_nothing(reports_13, capsys, fields):
    """A summary field of a type the report writer does not write raises
    TypeError before any chunk is yielded, even after a good report."""
    rep = dataclasses.replace(reports_13[1], **fields)
    chunks = _json_chunks({"reports": [reports_13[0], rep]})
    with pytest.raises(TypeError):
        next(chunks)
    with pytest.raises(TypeError):
        cli._emit_json({"reports": [reports_13[0], rep]})
    assert capsys.readouterr().out == ""


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


@pytest.fixture(scope="module")
def report_10009():
    return hecke_trace(row_by_signature((2, 4, 6)), cached_ctx(10009), 6)


@pytest.mark.parametrize("special", [True, False], ids=["special", "no-special"])
@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1024, None],
                         ids=lambda n: "all" if n is None else str(n))
def test_json_writer_chunk_boundaries(report_10009, n, special):
    """The (2,4,6) report at p = 10009 cut to n generic rows, on each side of
    a chunk boundary, with and without its cusp and elliptic rows: the chunks
    join to json.dumps over to_json(), and none is longer than 64 KiB."""
    rep = dataclasses.replace(report_10009, generic_lams=report_10009.generic_lams[:n],
                              generic_index=report_10009.generic_index[:n],
                              special_terms=report_10009.special_terms if special else ())
    assert len(rep.generic_lams) == (len(report_10009.generic_lams) if n is None else n)
    chunks = list(_json_chunks({"reports": [rep]}))
    assert "".join(chunks) == json.dumps({"reports": [rep.to_json()]}, indent=2, sort_keys=True)
    assert max(map(len, chunks)) <= 64 * 1024


def test_json_writer_failure_writes_nothing(capsys):
    with pytest.raises(ValueError):
        cli._emit_json({"terms": "\0terms\0"})
    assert capsys.readouterr().out == ""


def test_trace_failure_at_a_later_prime_writes_nothing(runner, monkeypatch):
    """Every report is computed before any is written: a failure at the second
    prime of a range leaves stdout empty, although the first report was made."""
    real, primes = cli.hecke_trace, []

    def hecke_trace_failing_second(row, ctx, k):
        primes.append(ctx.p)
        if len(primes) == 2:
            raise SnapError("no snap")
        return real(row, ctx, k)

    monkeypatch.setattr(cli, "hecke_trace", hecke_trace_failing_second)
    res = runner.invoke(main, ["trace", "--group", "2,oo,oo", "--weight", "8",
                               "--prime-range", "7:20"])
    assert res.exit_code == 1, res.output
    assert primes == [7, 11]
    assert res.stdout == ""
    assert res.stderr == "computation failure at p = 11: no snap\n"


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
