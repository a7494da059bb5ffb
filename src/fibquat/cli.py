"""Command-line surface.

Subcommands: seq, quat, norm, audit, threshold, cows, gf, binet.
Output goes to stdout as text (default), a single JSON document, or CSV with
a header row; diagnostics go to stderr.  Exit codes: 0 success / all-pass,
1 counterexample or non-invertible/degenerate result, 2 usage error.
Output cut short by a reader that closes the pipe exits 1, with nothing on
stderr.  Once the output is flushed, main() freezes the garbage collector
before it exits: every object left dies with the process, and frozen ones are
skipped by the full collections CPython runs at shutdown.  run() leaves the
collector alone.

Each subcommand handler returns one _Result holding its output in all three
formats and its exit code; _render alone reads --format and prints.

Identical invocations print byte-identical json/csv (pass --no-timing to
drop the elapsed_ms field, the only run-dependent output).
"""

import argparse
import gc
import io
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple

from ._kernel import Rational
from .algebra import AlgebraParams
from .analytic import binet_fib, binet_narayana, binet_narayana_quat, gf_check
from .audit import (
    AS_STATED,
    CORRECTED,
    DEFAULT_SEED,
    adjudicate,
    aggregate_ok,
    audit,
    audit_all,
    expected_failure_ids,
    list_identities,
)
from .errors import (
    DomainError,
    FibquatError,
    IndicatorDegenerateError,
    NotInvertibleError,
    PrecisionGuardError,
    ScanExhaustedError,
    SeriesMismatchError,
    UnknownIdentityError,
)
from .normforms import (
    invertibility_threshold,
    norm_fib_formula,
    norm_genfib_formula,
    verify_threshold_report,
)
from .quatseq import fib_quat, gen_fib_quat, narayana_quat
from .sequences import (
    GenFibParams, fib, fib_values, gen_fib_values, herd_total, narayana, narayana_values,
)


def _rational_flag(text):
    try:
        return Rational.from_str(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational literal {text!r}: {exc}")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fibquat",
        description="Exact Fibonacci / Fibonacci-Narayana quaternion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default: text)",
        )

    def add_algebra(p):
        p.add_argument("--beta1", type=_rational_flag, default=Rational(1),
                       help="algebra parameter beta1 (rational, default 1)")
        p.add_argument("--beta2", type=_rational_flag, default=Rational(1),
                       help="algebra parameter beta2 (rational, default 1)")

    p = sub.add_parser("seq", help="print a scalar sequence over an index range")
    p.add_argument("--kind", choices=("fib", "genfib", "narayana"), required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--p", type=int, help="seed h0 (genfib only)")
    p.add_argument("--q", type=int, help="seed h1 (genfib only)")
    add_format(p)

    p = sub.add_parser("quat", help="print one quaternion of a sequence")
    p.add_argument("--kind", choices=("fib", "genfib", "narayana"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    add_algebra(p)
    add_format(p)

    p = sub.add_parser("norm", help="norm of F_n or H_n, direct or by closed form")
    p.add_argument("--kind", choices=("fib", "genfib"), default="fib")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--method", choices=("direct", "formula"), default="direct")
    p.add_argument("--check", action="store_true",
                   help="compute both routes and compare; exit 1 on mismatch")
    add_algebra(p)
    add_format(p)

    p = sub.add_parser("audit", help="run identity audits")
    p.add_argument("--id", help="one identity id")
    p.add_argument("--all", action="store_true", help="run the whole registry")
    p.add_argument("--list", action="store_true", help="list registered identities")
    p.add_argument("--provenance", choices=(AS_STATED, CORRECTED),
                   help="restrict --all to one provenance")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--no-timing", action="store_true",
                   help="omit elapsed_ms for byte-stable output")
    add_format(p)

    p = sub.add_parser("threshold", help="empirical invertibility threshold scan")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--n-max", dest="n_max", type=_positive_int, default=50)
    add_algebra(p)
    add_format(p)

    p = sub.add_parser("cows", help="herd size after the given number of years")
    p.add_argument("--years", type=_positive_int, required=True)
    add_format(p)

    p = sub.add_parser("gf", help="generating-function coefficient check")
    p.add_argument("--degree", type=int, default=300)
    add_format(p)

    p = sub.add_parser("binet", help="closed-form numeric evaluation vs exact value")
    p.add_argument("--kind", choices=("fib", "narayana"), default="narayana")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quat", action="store_true",
                   help="evaluate the quaternion form (narayana only)")
    add_algebra(p)
    add_format(p)

    return parser


# -- rendering ----------------------------------------------------------------
# Every int or Rational the CLI prints goes through _text.  CPython's int-to-str
# takes quadratic time, so ints above _DECIMAL_MIN_BITS are converted by binary
# splitting into the C decimal module, whose multiplication is subquadratic.

_DECIMAL_MIN_BITS = 1 << 16  # ~19,700 digits; below this str() is faster
_SPLIT_BASE_BITS = 128       # pieces this small convert directly


def _text(value):
    """Decimal text of an int or a Rational, exactly as str() renders it."""
    if isinstance(value, int):
        return _int_text(value)
    top = _int_text(value.numerator)
    if value.denominator == 1:
        return top
    return f"{top}/{_int_text(value.denominator)}"


def _int_text(x):
    if x.bit_length() < _DECIMAL_MIN_BITS or isinstance(x, bool):
        return str(x)
    try:
        import _decimal
    except ImportError:  # the pure-Python decimal is no faster than str()
        return str(x)
    context = _decimal.Context(
        prec=_decimal.MAX_PREC, Emax=_decimal.MAX_EMAX, Emin=_decimal.MIN_EMIN,
        traps=[_decimal.Inexact],
    )
    m = abs(x)
    powers = [_decimal.Decimal(1 << _SPLIT_BASE_BITS)]  # 2**(128 * 2**k) at index k
    while m.bit_length() > _SPLIT_BASE_BITS << len(powers):
        powers.append(context.multiply(powers[-1], powers[-1]))

    def convert(m, k):
        # Decimal of 0 <= m < 2**(128 * 2**k): the halves, joined by one product
        if k == 0:
            return _decimal.Decimal(m)
        half = _SPLIT_BASE_BITS << (k - 1)
        hi = m >> half
        lo = convert(m - (hi << half), k - 1)
        if not hi:
            return lo
        return context.add(lo, context.multiply(convert(hi, k - 1), powers[k - 1]))

    digits = str(convert(m, len(powers)))
    return "-" + digits if x < 0 else digits


def _json_text(value):
    """json.dumps(value) for a document with string keys, ints rendered by _int_text."""
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    if isinstance(value, int) and not isinstance(value, bool):
        return _int_text(value)
    return json.dumps(value)


class _Result(NamedTuple):
    """One subcommand's output in every format; _render prints the requested one.

    Only the printed format turns big integers into decimal text: ints stay
    raw in the document and the rows, and the text lines come from a callable.
    A value that every format shows as a string is rendered once and shared.
    """

    document: dict   # the JSON document
    header: list     # the CSV header row
    rows: Iterable   # the CSV rows
    text: Callable   # () -> the text lines
    code: int = 0    # the exit code


def _render(result, fmt):
    if fmt == "json":
        body = _json_text(result.document)
    elif fmt == "csv":
        import csv  # only this format needs it; every other command starts without

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result.header)
        writer.writerows(
            [_int_text(v) if isinstance(v, int) else v for v in row] for row in result.rows
        )
        body = out.getvalue()[:-1]
    else:
        body = "\n".join(result.text())
    # The last newline is a write of its own: a large write that a closed pipe
    # cuts short can return without an error, and the write after it raises
    # BrokenPipeError, so truncated output never passes for complete.
    print(body)


def _seeds(args, parser):
    """The (p, q) seeds of --kind genfib, None for the other kinds."""
    if args.kind != "genfib":
        if args.p is not None or args.q is not None:
            parser.error(f"--p and --q apply to --kind genfib only, not {args.kind}")
        return None
    if args.p is None or args.q is None:
        parser.error("--kind genfib requires --p and --q")
    return GenFibParams(args.p, args.q)


def _seed_fields(pq):
    return {} if pq is None else {"p": pq.p, "q": pq.q}


def _algebra_fields(params, pq):
    return {"beta1": _text(params.beta1), "beta2": _text(params.beta2), **_seed_fields(pq)}


# -- subcommand handlers -----------------------------------------------------

def _cmd_seq(args, parser):
    if args.stop < args.start:
        parser.error("--to must be >= --from")
    pq = _seeds(args, parser)
    stop = args.stop + 1
    if pq is not None:
        values = gen_fib_values(pq, args.start, stop)
    else:
        values = {"fib": fib_values, "narayana": narayana_values}[args.kind](args.start, stop)
    document = {"kind": args.kind, "from": args.start, "to": args.stop,
                **_seed_fields(pq), "values": values}
    return _Result(document, ["n", "value"], zip(range(args.start, stop), values),
                   lambda: [" ".join(map(_text, values))])


def _cmd_quat(args, parser):
    params = AlgebraParams(args.beta1, args.beta2)
    pq = _seeds(args, parser)
    if pq is not None:
        value = gen_fib_quat(params, pq, args.n)
    else:
        value = {"fib": fib_quat, "narayana": narayana_quat}[args.kind](params, args.n)
    a1, a2, a3, a4 = coefficients = [_text(c) for c in value.coefficients]
    document = {"kind": args.kind, "n": args.n, **_algebra_fields(params, pq),
                "coefficients": coefficients}
    return _Result(document, ["coefficient", "value"],
                   zip(("a1", "a2", "a3", "a4"), coefficients),
                   lambda: [f"{a1} + {a2}*e2 + {a3}*e3 + {a4}*e4  [{params}]"])


def _cmd_norm(args, parser):
    params = AlgebraParams(args.beta1, args.beta2)
    pq = _seeds(args, parser)
    if pq is not None:
        routes = {"direct": lambda: gen_fib_quat(params, pq, args.n).norm(),
                  "formula": lambda: norm_genfib_formula(params, pq, args.n)}
    else:
        routes = {"direct": lambda: fib_quat(params, args.n).norm(),
                  "formula": lambda: norm_fib_formula(params, args.n)}
    document = {"kind": args.kind, "n": args.n, **_algebra_fields(params, pq)}
    if args.check:
        direct, formula = routes["direct"](), routes["formula"]()
        match = direct == formula
        shown = (_text(direct), _text(formula), str(match).lower())
        document.update(direct=shown[0], formula=shown[1], match=match)
        return _Result(document, ["direct", "formula", "match"], [shown],
                       lambda: ["direct={} formula={} match={}".format(*shown)],
                       0 if match else 1)
    value = _text(routes[args.method]())
    document.update(method=args.method, value=value)
    return _Result(document, ["method", "value"], [(args.method, value)], lambda: [value])


_REPORT_HEADER = [
    "id", "paper_ref", "mode", "provenance", "seed",
    "instances_run", "passes", "failures", "first_counterexample",
]


def _report_document(report, with_timing):
    document = {key: getattr(report, key) for key in _REPORT_HEADER[:-1]}
    if report.first_counterexample is not None:
        document["first_counterexample"] = report.first_counterexample._asdict()
    if with_timing:
        document["elapsed_ms"] = round(report.elapsed * 1000.0, 3)
    return document


def _report_row(document, header):
    """A report document as a CSV row: the counterexample as JSON text, "" if none."""
    cex = document.get("first_counterexample")
    fields = dict(document, first_counterexample=json.dumps(cex) if cex else "")
    return [fields[key] for key in header]


_LIST_HEADER = ["id", "paper_ref", "mode", "provenance"]


def _report_lines(report, verdict=None):
    status = "pass" if report.failures == 0 else "FAIL"
    if verdict and verdict != "pass":
        status = f"FAIL ({verdict})"
    yield (f"{report.id:<28} {report.provenance:<17} {report.mode:<14} "
           f"{report.passes}/{report.instances_run} {status}")
    if report.first_counterexample is not None:
        cex = report.first_counterexample
        inputs = ", ".join(f"{k}={v}" for k, v in cex.inputs.items())
        yield f"    first counterexample: {inputs}"
        yield f"        lhs = {cex.lhs}"
        yield f"        rhs = {cex.rhs}"


def _audit_all_lines(reports, verdicts, ok):
    for report in reports:
        yield from _report_lines(report, verdicts.get(report.id))
    expected = set(expected_failure_ids())
    unexpected = [r.id for r in reports if r.failures and r.id not in expected]
    vanished = [i for i, v in verdicts.items() if v == "anomaly-vanished"]
    yield (f"aggregate: {'pass' if ok else 'FAIL'}"
           + (f" (unexpected failures: {', '.join(unexpected)})" if unexpected else "")
           + (f" (vanished anomalies: {', '.join(vanished)})" if vanished else ""))


def _cmd_audit(args, parser):
    if args.list:
        entries = list_identities()
        return _Result(
            {"identities": [dict(zip(_LIST_HEADER, entry)) for entry in entries]},
            _LIST_HEADER, entries,
            lambda: (f"{i:<28} {prov:<17} {mode:<14} {ref}" for i, ref, mode, prov in entries),
        )
    with_timing = not args.no_timing
    header = _REPORT_HEADER + (["elapsed_ms"] if with_timing else [])
    if args.id:
        report = audit(args.id, seed=args.seed, n_max=args.n_max)
        document = _report_document(report, with_timing)
        return _Result(document, header, [_report_row(document, header)],
                       lambda: _report_lines(report), 0 if report.failures == 0 else 1)
    if not getattr(args, "all", False):
        parser.error("audit needs one of --id, --all or --list")
    # adjudicate over every entry, so an as-stated entry is judged against its
    # corrected variant even when --provenance hides that variant
    reports = audit_all(seed=args.seed, n_max=args.n_max)
    verdicts = adjudicate(reports)
    if args.provenance is not None:
        reports = [r for r in reports if r.provenance == args.provenance]
        verdicts = {r.id: verdicts[r.id] for r in reports}
    ok = aggregate_ok(reports)
    documents = [_report_document(r, with_timing) for r in reports]
    return _Result(
        {"seed": args.seed, "ok": ok, "reports": documents, "verdicts": verdicts},
        header, (_report_row(d, header) for d in documents),
        lambda: _audit_all_lines(reports, verdicts, ok), 0 if ok else 1,
    )


def _cmd_threshold(args, parser):
    params = AlgebraParams(args.beta1, args.beta2)
    pq = None
    if args.p is not None or args.q is not None:
        if args.p is None or args.q is None:
            parser.error("--p and --q must be given together")
        pq = GenFibParams(args.p, args.q)
    report = invertibility_threshold(params, pq, args.n_max)
    verify_threshold_report(report)
    document = {
        **_algebra_fields(params, pq),
        "sign_of_E": report.sign_of_E,
        "empirical_n0": report.empirical_n0,
        "scanned_up_to": report.scanned_up_to,
        "zero_norm_indices": list(report.zero_norm_indices),
    }
    zeros = report.zero_norm_indices
    row = dict(document, zero_norm_indices=" ".join(map(str, zeros)))
    return _Result(document, list(row), [list(row.values())], lambda: [
        f"algebra {params}" + (f", seeds (p, q) = ({pq.p}, {pq.q})" if pq else ""),
        f"sign of growth indicator: {report.sign_of_E:+d}",
        f"empirical n0 = {report.empirical_n0} (scanned n in [0, {report.scanned_up_to}]; "
        f"zero norms: {', '.join(map(str, zeros)) or 'none'})",
    ])


def _cmd_cows(args, parser):
    total = herd_total(args.years)
    return _Result({"years": args.years, "herd": total}, ["years", "herd"],
                   [(args.years, total)], lambda: [_text(total)])


def _cmd_gf(args, parser):
    # a nonzero residual raises SeriesMismatchError (exit 1), so a return is ok
    check = gf_check(args.degree)
    residual = list(check.max_abs_residual_coefficient)
    return _Result(
        {"degree_checked": check.degree_checked,
         "max_abs_residual_coefficient": residual, "ok": True},
        ["degree_checked", "max_abs_residual_coefficient", "ok"],
        [(check.degree_checked, " ".join(map(str, residual)), "true")],
        lambda: [f"degrees 0..{check.degree_checked}: all residual coefficients zero"],
    )


def _cmd_binet(args, parser):
    if args.quat:
        if args.kind != "narayana":
            parser.error("--quat applies to --kind narayana only")
        approx = list(binet_narayana_quat(AlgebraParams(args.beta1, args.beta2), args.n))
        exact = narayana_values(args.n, args.n + 4)
        labels, header = ("a1", "a2", "a3", "a4"), ["component", "value", "exact"]
        document = {"value": approx, "exact": exact}
    else:
        binet, value = (binet_fib, fib) if args.kind == "fib" else (binet_narayana, narayana)
        approx, exact = [binet(args.n)], [value(args.n)]
        labels, header = (args.n,), ["n", "value", "exact"]
        document = {"value": approx[0], "exact": exact[0]}
    document = {"kind": args.kind, "quat": args.quat, "n": args.n, **document}
    shown = " ".join(map(repr, approx))
    return _Result(document, header, zip(labels, map(repr, approx), exact),
                   lambda: [f"{shown}  (exact: {' '.join(map(_text, exact))})"])


_HANDLERS = {
    "seq": _cmd_seq,
    "quat": _cmd_quat,
    "norm": _cmd_norm,
    "audit": _cmd_audit,
    "threshold": _cmd_threshold,
    "cows": _cmd_cows,
    "gf": _cmd_gf,
    "binet": _cmd_binet,
}


def run(argv):
    """Dispatch a CLI invocation; returns the process exit code.

    Exact values can have any number of digits, so CPython's int-to-str
    digit limit is lifted for the call and restored afterwards, leaving
    in-process callers unaffected.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreter without the limit
        return _dispatch(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result = _HANDLERS[args.command](args, parser)
    except SystemExit as exc:  # argparse or parser.error already printed the diagnostic
        return exc.code if exc.code is not None else 0
    except (DomainError, PrecisionGuardError, UnknownIdentityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotInvertibleError, ScanExhaustedError, IndicatorDegenerateError,
            SeriesMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FibquatError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    _render(result, args.format)
    return result.code


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so the
        # interpreter's own flush at exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    gc.freeze()  # the shutdown collections skip what is left (module docstring)
    sys.exit(code)


if __name__ == "__main__":
    main()
