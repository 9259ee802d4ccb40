"""Command-line surface: reproducible, machine-readable batch commands.

Exit codes: 0 ok, 1 computation failure (snap/calibration/verification), 2
usage error, including a prime that is composite, above the p cap, or one the
command cannot take (p <= 5, or outside the row's congruence class). Identical
config and seed produce byte-identical output; JSON is emitted with sorted keys
and CSV rows in ascending parameter order.

JSON output is one json.dumps(payload, indent=2, sort_keys=True, default=...)
call in _json_chunks, whose default writes any object json cannot write as its
str(), except a TraceReport: json writes a placeholder string for the whole
report, and the report is written by hand in its place, at its indent
(_report_chunks: the summary fields, then the "terms" rows of _terms_chunks).
The writer yields the text in chunks, a report's generic rows _ROWS_PER_CHUNK
to a chunk, and _emit_json writes each as it comes, so no whole report is held
as one string.
The recorded output digests of the benchmark depend on these bytes; the tests
compare the joined chunks with json.dumps over to_json() on every emitted
payload.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from fractions import Fraction

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .analytic_hgm import clausen_complex_check, euler_period_check, ode_residual
from .character_sums import (AlgebraicValue, SnapError, calibration_primes, clausen_sweep,
                             datum_table, hp_sum, snap_tolerance)
from .curve_lab import (baba_granath_curve, baba_granath_qm_sweep, count_genus2_fp2,
                        count_points, count_via_characters, gen_legendre_counts,
                        gen_legendre_rows, legendre_trace_sweep)
from .field_core import DEFAULT_P_BOUND, FieldError, build_ctx, is_prime
from .hgm_data import OO, HGDatum, level, row_by_signature, table_json, triangle_table
from .modform_oracle import FixtureError, QExpansionError, load_fixture
from .trace_engine import (LEGENDRE_COVER_MAP, SCHEMA_VERSION, TraceReport, a_gamma_sweep,
                           fm_identity_holds, hecke_trace, legendre_relation)


# A TraceReport stands in json's output as this string until the report is
# written in its place; the NUL byte cannot arrive through argv.
_REPORT = "\0terms\0"
_REPORT_JSON = json.dumps(_REPORT)

# What json.dumps runs on a str: the quoted string with every non-ASCII or
# control character escaped.
_str_json = json.encoder.encode_basestring_ascii


# The generic rows of a report go out this many to a chunk, each chunk one
# %-format: large enough that a chunk's fixed cost (a format string, a write)
# is spread over many rows, small enough that a chunk stays a few tens of KB
# whatever the size of the report.
_ROWS_PER_CHUNK = 512


def _emit(text: str, nl: bool = True):
    """Write CSV text, or a chunk of JSON from _emit_json, to stdout: JSON
    goes out chunk by chunk as the writer yields it, so no whole report is held
    as one string. It holds no ANSI escape (json writes ESC as \\u001b), so
    click's strip pass, a regex over the whole text whenever stdout is not a
    terminal, is skipped."""
    click.echo(text, nl=nl, color=True)


def _emit_json(payload: dict):
    """Write payload as JSON to stdout, one chunk of _json_chunks at a time,
    then a newline. A payload that cannot be written writes nothing."""
    for chunk in _json_chunks(payload):
        _emit(chunk, nl=False)
    _emit("")


def _json_chunks(payload):
    """json.dumps(payload, indent=2, sort_keys=True), with a TraceReport written
    as its to_json() and any other object json cannot write as its str(), as
    a sequence of chunks. json writes each report as a placeholder string, and
    _report_chunks writes the whole report in its place, at its indent.
    Everything that can fail (json.dumps, the placeholder count and every
    report's summary fields) runs before the first chunk is yielded."""
    reports = []

    def default(obj):
        if isinstance(obj, TraceReport):
            reports.append(obj)
            return _REPORT
        return str(obj)

    chunks = json.dumps(payload, indent=2, sort_keys=True, default=default).split(_REPORT_JSON)
    if len(chunks) != len(reports) + 1:
        raise ValueError(f"{len(chunks) - 1} report placeholders for {len(reports)} reports")
    written = []
    for rep, before in zip(reports, chunks):
        line = before[before.rfind("\n") + 1:]  # '<indent>' or '<indent>"key": '; '' at top level
        written.append(_report_chunks(rep, "\n" + " " * (len(line) - len(line.lstrip(" ")))))
    # the text between two reports goes out in one chunk with the end of the
    # first and the start of the second
    text = chunks[0]
    for (head, terms, tail), after in zip(written, chunks[1:]):
        yield text + head
        yield from terms
        text = tail + after
    yield text


def _report_chunks(rep: TraceReport, nl: str):
    """rep.to_json() written at the indent of nl (a newline and the indent of
    the line where the report opens) as (head, terms, tail): the text from "{"
    to the "terms" key, the chunks of the terms list (_terms_chunks), and the
    text from after the list to "}". The keys are summary_json()'s and
    "terms", sorted.

    head and tail are built by this call, each field as json.dumps(...,
    indent=2) writes it: None, a bool, an int, or a list of str one item to a
    line, every str through json's own str encoder. A field of any other type
    raises TypeError here, before a chunk is taken.
    """
    field = nl + "  "
    item = field + "  "
    summary = rep.summary_json()
    keys = sorted([*summary, "terms"])
    lines = []
    for key in keys:
        if key == "terms":
            continue
        value = summary[key]
        if value is None:
            text = "null"
        elif type(value) is bool:
            text = "true" if value else "false"
        elif type(value) is int:
            text = str(value)
        elif type(value) is list and all(type(s) is str for s in value):
            text = ("[" + item + ("," + item).join(map(_str_json, value)) + field + "]"
                    if value else "[]")
        else:
            raise TypeError(f"report field {key!r} cannot hold {value!r}")
        lines.append(f"{field}{_str_json(key)}: {text}")
    i = keys.index("terms")
    head = "{" + "".join(line + "," for line in lines[:i]) + field + '"terms": '
    tail = "".join("," + line for line in lines[i:]) + nl + "}"
    return head, _terms_chunks(rep, field), tail


def _terms_chunks(rep: TraceReport, nl: str):
    """The "terms" list of rep.to_json(), written at the indent of nl (a
    newline and the indent of the line that opens the list), in chunks.

    The generic rows go out _ROWS_PER_CHUNK to a chunk, each chunk one
    %-format of the rows' lambdas alternating with their tails: the text from
    after a lambda to the next lambda, one string per distinct value. The last
    tail closes its row without opening the next. The few cusp and elliptic
    rows follow in one chunk, written directly, since their lambda and kind
    need no JSON escape and their value is an int or None.
    """
    item, field = nl + "  ", nl + "    "
    special = [f'[{field}"{lam}",{field}"{kind}",{field}{"null" if value is None else value}'
               f'{item}]' for lam, kind, value in rep.special_terms]
    n = len(rep.generic_lams)
    if not n:
        yield "[" + item + ("," + item).join(special) + nl + "]" if special else "[]"
        return
    opener = f",{item}[{field}\""  # from the end of one row to the next lambda
    tails = [f'",{field}"generic",{field}{value}{item}]{opener}' for value in rep.generic_values]
    index = rep.generic_index.tolist()
    for i in range(0, n, _ROWS_PER_CHUNK):
        j = min(i + _ROWS_PER_CHUNK, n)
        block = [None] * (2 * (j - i))
        block[::2] = rep.generic_lams[i:j].tolist()
        block[1::2] = map(tails.__getitem__, index[i:j])
        if j == n:
            block[-1] = block[-1][:-len(opener)]
        fmt = "%d%s" * (j - i)  # neither item nor field holds a %
        yield (fmt if i else "[" + opener[1:] + fmt) % tuple(block)
    yield "".join("," + item + row for row in special) + nl + "]"


def _parse_group(text: str):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise click.UsageError(f"group must have three entries, got {text!r}")
    try:
        return row_by_signature(parts)
    except KeyError as exc:
        raise click.UsageError(str(exc))


def _parse_primes(prime, prime_range):
    """The primes of --prime or of --prime-range, ascending. A --prime above
    the p cap, or a range that reaches above it, is a usage error raised before
    any number is tested for primality: trial division of a number far above
    the cap would not finish."""
    if prime is not None and prime_range:
        raise click.UsageError("give either --prime or --prime-range")
    if prime is not None:
        if prime > DEFAULT_P_BOUND:
            raise _over_p_cap(prime)
        if not is_prime(prime):
            raise click.UsageError(f"{prime} is not prime")
        return [prime]
    if prime_range:
        try:
            lo, hi = (int(x) for x in prime_range.split(":"))
        except ValueError:
            raise click.UsageError("--prime-range expects LO:HI")
        if lo > hi:
            raise click.UsageError(f"--prime-range {prime_range} is empty: LO > HI")
        if hi > DEFAULT_P_BOUND:
            raise click.UsageError(f"--prime-range {prime_range} exceeds the configured "
                                   f"bound {DEFAULT_P_BOUND}")
        primes = list(filter(is_prime, range(lo, hi + 1)))
        if not primes:
            raise click.UsageError(f"--prime-range {prime_range} holds no prime")
        return primes
    raise click.UsageError("a prime or prime range is required")


def _field_ctx(p: int):
    """build_ctx(p), with a bad prime reported as a usage error."""
    try:
        return build_ctx(p)
    except FieldError as exc:
        raise click.UsageError(str(exc))


def _over_p_cap(p: int) -> click.UsageError:
    """The usage error for a prime p above the p cap, raised before any work."""
    return click.UsageError(f"p = {p} exceeds the configured bound {DEFAULT_P_BOUND}")


def _reject_unread(click_ctx, read, command: str):
    """A usage error for any option given explicitly that command does not read."""
    for param in click_ctx.command.params:
        if (isinstance(param, click.Option) and param.name not in read
                and click_ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT):
            raise click.UsageError(f"{command} does not read {param.opts[0]}")


def _parse_fraction_list(text: str):
    try:
        return tuple(Fraction(s.strip()) for s in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad rational list {text!r}")


@click.group()
@click.version_option(version=__version__, prog_name="hgtrace")
def main():
    """Finite-field hypergeometric character sums and Hecke trace reports."""


# ---------------------------------------------------------------------------
# trace


@main.command()
@click.option("--group", required=True, help="triangle-group signature, e.g. 2,4,6 or 2,3,oo")
@click.option("--weight", required=True, type=int, help="modular-form weight k+2 (even)")
@click.option("--prime", type=int, default=None)
@click.option("--prime-range", default=None, help="LO:HI inclusive")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def trace(group, weight, prime, prime_range, fmt):
    """Hecke trace reports -Tr(T_p | S_weight) for a table row."""
    row = _parse_group(group)
    M = level(row.hd)

    def runs(p):
        return p > 5 and (p - 1) % M == 0

    primes = _parse_primes(prime, prime_range)
    if prime is not None and not runs(prime):
        raise click.UsageError(f"p = {prime} is outside the {row.name} row's class: "
                               f"needs p > 5 with p = 1 mod {M}")
    if weight % 2 or weight < 4:
        raise click.UsageError("--weight must be even and >= 4")
    k = weight - 2
    config = {"command": "trace", "group": row.name, "weight": weight,
              "primes": primes, "parallelism": 1,
              "schema_version": SCHEMA_VERSION}
    reports = []
    for p in primes:
        if not runs(p):
            click.echo(f"skipping p = {p}: needs p > 5 with p = 1 mod {M}", err=True)
            continue
        ctx = _field_ctx(p)
        try:
            rep = hecke_trace(row, ctx, k)
        except (SnapError, QExpansionError, FixtureError) as exc:
            click.echo(f"computation failure at p = {p}: {exc}", err=True)
            sys.exit(1)
        reports.append(rep)
    if fmt == "json":
        _emit_json({"config": config, "reports": reports})
    else:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["signature", "p", "weight", "generic_sum", "cusp_sum",
                    "elliptic_sum", "total", "partial", "oracle", "residual", "flags"])
        for r in reports:
            w.writerow([r.signature, r.p, r.weight, r.generic_sum, r.cusp_sum,
                        r.elliptic_sum, r.total, r.partial, r.oracle, r.residual,
                        ";".join(r.flags)])
        _emit(out.getvalue().rstrip("\n"))


# ---------------------------------------------------------------------------
# sum


@main.group("sum")
def sum_group():
    """Raw character sums."""


@sum_group.command("np")
@click.option("--alpha", required=True, help="comma list of rationals, e.g. 1/2,1/2")
@click.option("--beta", required=True, help="comma list of rationals starting with 1")
@click.option("--prime", required=True, type=int)
@click.option("--lambda", "lam", required=True, type=int)
def sum_np(alpha, beta, prime, lam):
    """The period sum of the datum at lambda."""
    try:
        hd = HGDatum(_parse_fraction_list(alpha), _parse_fraction_list(beta))
        ctx = build_ctx(prime)
        table = datum_table(hd, ctx)
    except (ValueError, FieldError) as exc:
        raise click.UsageError(str(exc))
    val = AlgebraicValue.from_complex(table.raw_value(lam), snap_tolerance(prime, hd.n))
    _emit_json({"config": {"command": "sum np", "alpha": alpha, "beta": beta,
                           "prime": prime, "lambda": lam,
                           "schema_version": SCHEMA_VERSION},
                "value": {"re": val.z.real, "im": val.z.imag,
                          "snapped": val.snapped}})


@sum_group.command("hp")
@click.option("--group", required=True)
@click.option("--prime", required=True, type=int)
@click.option("--t", required=True, type=int)
def sum_hp(group, prime, t):
    """Calibrated H_p of a table row's datum at t."""
    row = _parse_group(group)
    ctx = _field_ctx(prime)
    try:
        val = hp_sum(row.hd, ctx, t, row.hp_sign, row.hp_weight)
    except FieldError as exc:
        raise click.UsageError(str(exc))
    except ValueError as exc:
        click.echo(f"computation failure: {exc}", err=True)
        sys.exit(1)
    _emit_json({"config": {"command": "sum hp", "group": row.name, "prime": prime,
                           "t": t, "schema_version": SCHEMA_VERSION},
                "value": {"re": val.z.real, "im": val.z.imag,
                          "snapped": str(val.snapped)}})


# ---------------------------------------------------------------------------
# count


# The options each family of curve_lab.FAMILIES reads besides --prime and
# --fp2 (count_points takes or refuses F_{p^2} per family). An option read here
# is required unless it has a default (--branch).
_FAMILIES = {
    "legendre": ("lam",),
    "universal-j": ("j",),
    "genlegendre": ("n_", "exps", "lam"),
    "baba-granath": ("j", "branch"),
}

# The params cell of a count row: json.dumps(kwargs, sort_keys=True) from one
# encoder, not a new one per row.
_params_json = json.JSONEncoder(sort_keys=True).encode


def _lambda_selection(text: str, p: int) -> list[int]:
    """Lambda range notation: 'all', a single value, or a comma list."""
    if text.strip().lower() == "all":
        return list(range(p))
    try:
        return [int(s) % p for s in text.split(",")]
    except ValueError:
        raise click.UsageError(f"bad lambda selection {text!r}")


@main.command()
@click.argument("family", type=click.Choice(sorted(_FAMILIES)))
@click.option("--prime", required=True, type=int)
@click.option("--lambda", "lam", default=None,
              help="'all', a value, or a comma list")
@click.option("--j", type=int, default=None)
@click.option("--n", "n_", type=int, default=None, help="superelliptic exponent N")
@click.option("--exps", default=None, help="a,b,c for genlegendre")
@click.option("--branch", type=click.Choice(["1", "-1"]), default="1",
              callback=lambda _ctx, _param, value: int(value),
              help="sign of s = sqrt(-6j) for baba-granath")
@click.option("--fp2", is_flag=True, help="count over F_{p^2} instead")
@click.pass_context
def count(click_ctx, family, prime, lam, j, n_, exps, branch, fp2):
    """Brute-force point counts; CSV: family, params, p, q, n_points, trace, flags."""
    read = _FAMILIES[family]
    _reject_unread(click_ctx, {"prime", "fp2", *read}, f"count {family}")
    opts = {param.name: param.opts[0] for param in click_ctx.command.params}
    missing = [opts[name] for name in read if click_ctx.params[name] is None]
    if missing:
        raise click.UsageError(f"count {family} requires {' and '.join(missing)}")
    ctx = _field_ctx(prime)
    base = {}
    lam_values = [None]
    for name in read:
        if name == "lam":
            lam_values = _lambda_selection(lam, prime)
        elif name == "n_":
            if n_ < 2:
                raise click.UsageError("--n must be >= 2")
            base["N"] = n_
        elif name == "exps":
            try:
                a, b, c = (int(x) for x in exps.split(","))
            except ValueError:
                raise click.UsageError(f"--exps expects three integers a,b,c, got {exps!r}")
            base.update(a=a, b=b, c=c)
        else:
            base[name] = click_ctx.params[name]
    params = [base if lv is None else {**base, "lam": lv} for lv in lam_values]
    try:
        if family == "genlegendre" and not fp2:  # every lambda in one blocked grid
            counts = gen_legendre_rows(ctx, lams=lam_values, **base)
        else:
            fieldctx = ctx.ext if fp2 else ctx
            counts = [count_points(family, fieldctx, **kwargs) for kwargs in params]
    except FieldError as exc:
        # p <= 5 for a family that needs p > 5, --fp2 with no F_{p^2} counter,
        # or an F_{p^2} count past its exactness bounds
        raise click.UsageError(str(exc))
    except SnapError as exc:
        click.echo(f"computation failure: {exc}", err=True)
        sys.exit(1)
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["family", "params", "p", "q", "n_points", "trace", "flags"])
    for kwargs, cc in zip(params, counts):
        w.writerow([family, _params_json(kwargs), prime, cc.q,
                    cc.n_points, cc.trace, ";".join(cc.flags)])
    _emit(out.getvalue().rstrip("\n"))


# ---------------------------------------------------------------------------
# verify


# The options each verify suite reads; "all" runs every suite and reads them all.
_VERIFY_SUITES = {"clausen": ("prime",), "weil": ("max_prime",), "fm": ("seed",),
                  "legendre": ("max_prime",), "genlegendre": ("prime",), "qm": ("prime",),
                  "analytic": ()}


@main.command()
@click.argument("suite", type=click.Choice([*_VERIFY_SUITES, "all"]))
@click.option("--prime", type=int, default=None)
@click.option("--max-prime", type=int, default=61)
@click.option("--seed", type=int, default=0)
@click.pass_context
def verify(ctx, suite, prime, max_prime, seed):
    """Run an invariant suite; deterministic given the seed."""
    suites = list(_VERIFY_SUITES) if suite == "all" else [suite]
    _reject_unread(ctx, {opt for name in suites for opt in _VERIFY_SUITES[name]},
                   f"verify {suite}")
    if prime is not None:
        _field_ctx(prime)
    if "genlegendre" in suites and prime and (prime - 1) % 6:
        raise click.UsageError(f"genlegendre needs p = 1 mod 6, got {prime}")
    if suite == "legendre" and max_prime < 7:
        raise click.UsageError(f"--max-prime {max_prime} checks no prime: "
                               f"the {suite} suite starts at 7")
    if suite in ("weil", "all") and max_prime < 13:
        raise click.UsageError(f"--max-prime {max_prime} skips the (2,4,6) row of verify "
                               f"{suite}: its first admissible prime is 13")
    if suite in ("weil", "legendre", "all"):  # each runs every prime 7 <= p <= max_prime
        over = next(filter(is_prime, range(DEFAULT_P_BOUND + 1, max_prime + 1)), None)
        if over is not None:
            raise _over_p_cap(over)
    results = []
    ok = True
    for name in suites:
        passed, detail = _run_suite(name, prime, max_prime, seed)
        results.append({"suite": name, "passed": passed, "detail": detail})
        ok = ok and passed
    _emit_json({"config": {"command": "verify", "suite": suite, "prime": prime,
                           "max_prime": max_prime, "seed": seed,
                           "schema_version": SCHEMA_VERSION},
                "results": results})
    sys.exit(0 if ok else 1)


def _run_suite(name, prime, max_prime, seed):
    rng = random.Random(seed)
    if name == "clausen":
        primes = [prime] if prime else [11, 13]
        bad = total = 0
        for p in primes:
            for _pair, (ts, _lhs, _rhs, passed) in clausen_sweep(build_ctx(p)):
                total += ts.size
                bad += ts.size - int(passed.sum())
        return bad == 0, f"{total} admissible checks, {bad} failures over {primes}"
    if name == "fm":
        for m in range(1, 11):
            for _ in range(100):
                u, v = rng.randint(-50, 50), rng.randint(-50, 50)
                if not fm_identity_holds(m, u, v):
                    return False, f"identity fails at m={m}, ({u},{v})"
        return True, "m <= 10, 100 random pairs each"
    if name == "weil":
        bad = []
        pairs = values = 0
        for row in triangle_table():
            M = level(row.hd)
            for p in [q for q in range(7, max_prime + 1) if is_prime(q) and (q - 1) % M == 0]:
                pairs += 1
                try:  # the sweep checks a + p = d*t^2 <= 4p on every value
                    values += len(a_gamma_sweep(row, build_ctx(p))[0])
                except SnapError as exc:
                    bad.append((row.name, p, str(exc)))
        return not bad, (f"{values} values over {pairs} (row, p) pairs, {len(bad)} violations"
                         + (f", first {bad[:3]}" if bad else ""))
    if name == "legendre":
        failure = _legendre_failure([q for q in range(7, max_prime + 1) if is_prime(q)])
        return failure is None, failure or f"map {LEGENDRE_COVER_MAP}, all odd p <= {max_prime}"
    if name == "genlegendre":
        primes = [prime] if prime else [7, 13, 19]
        for p in primes:
            ctx, lams = build_ctx(p), np.arange(2, p)
            direct = gen_legendre_counts(ctx, 6, 4, 3, 1, lams)
            chars, _sums, _new = count_via_characters(ctx, 6, 4, 3, 1, lams)
            bad = np.flatnonzero(direct != chars)
            if bad.size:
                return False, f"count mismatch p={p} lam={lams[bad[0]]}"
        return True, f"both methods agree over {primes}"
    if name == "qm":
        primes = [prime] if prime else [29]
        found = 0
        for p in primes:
            ctx = build_ctx(p)
            try:
                scans = baba_granath_qm_sweep(ctx, range(1, p))
            except FieldError as exc:  # p <= 5, or F_{p^2} counts past their bounds
                raise click.UsageError(str(exc))
            for scan in scans:
                for branch, res in scan:
                    if res.passed:
                        found += 1
        return found > 0, f"{found} passing (j, branch) pairs over {primes}"
    if name == "analytic":
        rows = _analytic_rows()
        bad = [r for r in rows if not r[-1]]
        return not bad, f"{len(rows)} checks, {len(bad)} failures"
    raise click.UsageError(f"unknown suite {name}")


def _legendre_failure(primes) -> str | None:
    """Why the Legendre cover relation fails at the first of primes where it
    does, or None if it holds at each."""
    row = row_by_signature((2, OO, OO))
    for p in primes:
        ctx = build_ctx(p)
        try:  # a SnapError is a guard of legendre_trace_sweep or of the a_Gamma snap
            bad = legendre_relation(ctx, a_gamma_sweep(row, ctx), legendre_trace_sweep(ctx))
        except SnapError as exc:
            return str(exc)
        if bad is not None:
            return f"mismatch p={p} lam'={bad}"
    return None


def _analytic_rows():
    rows = []
    for row in triangle_table():
        r = ode_residual(row.hd, 0.3, 80)
        rows.append(("ode", row.name, 0.3, r, r < 1e-10))
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        rep = euler_period_check(lam)
        tol = 1e-8 if lam <= 0.8 else 1e-6
        rows.append(("euler", "", lam, rep.difference, rep.difference < tol))
    rng = random.Random(0)
    for _ in range(20):
        a = Fraction(rng.randint(1, 5), rng.randint(6, 9))
        b = Fraction(rng.randint(1, 5), rng.randint(6, 11))
        t = rng.uniform(0.05, 0.45)
        rep = clausen_complex_check(a, b, t)
        rows.append(("clausen", f"{a},{b}", t, rep.difference, rep.difference < 1e-10))
    return rows


@main.command()
def analytic():
    """Analytic suite results as CSV."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["check", "params", "t", "residual", "pass"])
    ok = True
    for row in _analytic_rows():
        w.writerow(row)
        ok = ok and row[-1]
    _emit(out.getvalue().rstrip("\n"))
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# fixture / table / calibrate


@main.group()
def fixture():
    """Newform coefficient fixtures."""


@fixture.command("validate")
@click.argument("path")
def fixture_validate(path):
    try:
        fx = load_fixture(path)
    except (FixtureError, OSError) as exc:
        click.echo(f"INVALID: {exc}", err=True)
        sys.exit(1)
    click.echo(f"OK: {fx.label} (level {fx.level}, weight {fx.weight}, "
               f"{len(fx.ap)} coefficients)")


@main.command()
def table():
    """The five triangle-group rows with data and lambda charts."""
    _emit(table_json())


@main.group()
def calibrate():
    """Checks of the fixed H_p normalization and of the two fixed curve maps."""


@calibrate.command("hp")
@click.option("--group", required=True)
def calibrate_hp(group):
    """Check the row's H_p normalization (hp_sign, hp_weight): a_gamma_sweep,
    the route `trace` runs, snaps every lambda to an a with a + p = d*t^2 for a
    d of the row's al_divisors at each calibration prime. Exits 1 if one fails.
    """
    row = _parse_group(group)
    primes = calibration_primes(row.hd)
    for p in primes:
        try:
            a_gamma_sweep(row, build_ctx(p))
        except SnapError as exc:
            click.echo(f"calibration failure: {exc}", err=True)
            sys.exit(1)
    _emit_json({"config": {"command": "calibrate hp", "group": row.name,
                           "schema_version": SCHEMA_VERSION},
                "sign": row.hp_sign, "weight": row.hp_weight,
                "primes": list(primes), "matches_table": True})


@calibrate.command("legendre")
def calibrate_legendre():
    """Check the Legendre cover map of the (2,oo,oo) row at p = 7, 11, 13."""
    primes = [7, 11, 13]
    failure = _legendre_failure(primes)
    if failure is not None:
        click.echo(f"calibration failure: {failure}", err=True)
        sys.exit(1)
    _emit_json({"config": {"command": "calibrate legendre",
                           "schema_version": SCHEMA_VERSION},
                "map": LEGENDRE_COVER_MAP, "primes": primes})


@calibrate.command("bg-lambda")
@click.option("--prime", required=True, type=int)
def calibrate_bg_lambda(prime):
    """Check the map lambda = 81 j / 16 from the Baba-Granath parameter j to the
    compact-row coordinate: |a_Gamma(81 j / 16) - p| = |p^2 + 1 - #C_j(F_p2)| / 2
    at every j whose sextic C_j is a genus-2 curve. Exits 1 if some j fails.
    """
    p = prime
    ctx = _field_ctx(p)
    row = row_by_signature((2, 4, 6))
    if (p - 1) % 12:
        raise click.UsageError("prime must be 1 mod 12")
    lams, a = a_gamma_sweep(row, ctx)
    # a = T + p or a = p - T exactly when |a - p| = |T|; -1 marks a special lambda
    dist = np.full(p, -1, dtype=np.int64)
    dist[lams] = np.abs(a - p)
    # p^2 + 1 - n2 over F_p2 is the sum of the squared Frobenius eigenvalues
    js, sextics = [], []
    for j in range(1, p):
        coeffs, _tag, _flags = baba_granath_curve(ctx, j)
        if coeffs is not None:
            js.append(j)
            sextics.append(coeffs)
    n2s = count_genus2_fp2(ctx, sextics)
    absT = [abs((p * p + 1 - n2) // 2) for n2 in n2s]  # u^2 + ubar^2 up to sign
    js, absT = np.array(js, dtype=np.int64), np.array(absT, dtype=np.int64)
    c = 81 * pow(16, -1, p) % p
    matches = int(np.count_nonzero(dist[c * js % p] == absT))
    _emit_json({"config": {"command": "calibrate bg-lambda", "prime": p,
                           "schema_version": SCHEMA_VERSION},
                "map": "lam = 81*j/16", "matches": matches, "out_of": len(js)})
    if matches < len(js):
        sys.exit(1)


if __name__ == "__main__":
    main()
