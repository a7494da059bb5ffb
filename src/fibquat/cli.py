"""Command-line surface.

Subcommands: seq, quat, norm, audit, threshold, cows, gf, binet.
Output goes to stdout as text (default), a single JSON document, or CSV with
a header row; diagnostics go to stderr.  Exit codes: 0 success / all-pass,
1 counterexample or non-invertible/degenerate result, 2 usage error.

Identical invocations print byte-identical json/csv (pass --no-timing to
drop the elapsed_ms field, the only run-dependent output).
"""

import argparse
import csv
import io
import json
import sys

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
from .sequences import GenFibParams, fib, gen_fib, herd_total, narayana


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


def _emit_json(document):
    print(_json_text(document))


def _emit_csv(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [_int_text(v) if isinstance(v, int) else v for v in row] for row in rows
    )
    sys.stdout.write(out.getvalue())


def _need_pq(args, parser):
    if args.p is None or args.q is None:
        parser.error(f"--kind {args.kind} requires --p and --q")
    return GenFibParams(args.p, args.q)


# -- subcommand handlers -----------------------------------------------------

def _cmd_seq(args, parser):
    if args.stop < args.start:
        parser.error("--to must be >= --from")
    if args.kind == "genfib":
        pq = _need_pq(args, parser)
        values = [gen_fib(pq, n) for n in range(args.start, args.stop + 1)]
    elif args.kind == "fib":
        values = [fib(n) for n in range(args.start, args.stop + 1)]
    else:
        values = [narayana(n) for n in range(args.start, args.stop + 1)]
    if args.format == "json":
        document = {"kind": args.kind, "from": args.start, "to": args.stop}
        if args.kind == "genfib":
            document["p"] = args.p
            document["q"] = args.q
        document["values"] = values
        _emit_json(document)
    elif args.format == "csv":
        _emit_csv(["n", "value"],
                  [(n, v) for n, v in zip(range(args.start, args.stop + 1), values)])
    else:
        print(" ".join(_text(v) for v in values))
    return 0


def _build_quat(args, parser):
    params = AlgebraParams(args.beta1, args.beta2)
    if args.kind == "genfib":
        return params, gen_fib_quat(params, _need_pq(args, parser), args.n)
    if args.kind == "fib":
        return params, fib_quat(params, args.n)
    return params, narayana_quat(params, args.n)


def _cmd_quat(args, parser):
    params, value = _build_quat(args, parser)
    if args.format == "json":
        document = {
            "kind": args.kind,
            "n": args.n,
            "beta1": _text(params.beta1),
            "beta2": _text(params.beta2),
        }
        if args.kind == "genfib":
            document["p"] = args.p
            document["q"] = args.q
        document["coefficients"] = [_text(c) for c in value.coefficients]
        _emit_json(document)
    elif args.format == "csv":
        _emit_csv(["coefficient", "value"],
                  zip(("a1", "a2", "a3", "a4"), (_text(c) for c in value.coefficients)))
    else:
        a1, a2, a3, a4 = (_text(c) for c in value.coefficients)
        print(f"{a1} + {a2}*e2 + {a3}*e3 + {a4}*e4  [{params}]")
    return 0


def _cmd_norm(args, parser):
    params = AlgebraParams(args.beta1, args.beta2)
    if args.kind == "genfib":
        pq = _need_pq(args, parser)
        if args.n < 1:
            parser.error("the genfib closed form needs --n >= 1")
        direct = gen_fib_quat(params, pq, args.n).norm()
        formula = norm_genfib_formula(params, pq, args.n)
    else:
        pq = None
        direct = fib_quat(params, args.n).norm()
        formula = norm_fib_formula(params, args.n)
    if args.check:
        match = direct == formula
        if args.format == "json":
            document = {
                "kind": args.kind, "n": args.n,
                "beta1": _text(params.beta1), "beta2": _text(params.beta2),
            }
            if pq is not None:
                document["p"] = pq.p
                document["q"] = pq.q
            document.update({
                "direct": _text(direct), "formula": _text(formula), "match": match,
            })
            _emit_json(document)
        elif args.format == "csv":
            _emit_csv(["direct", "formula", "match"],
                      [(_text(direct), _text(formula), str(match).lower())])
        else:
            print(f"direct={_text(direct)} formula={_text(formula)} "
                  f"match={str(match).lower()}")
        return 0 if match else 1
    value = formula if args.method == "formula" else direct
    if args.format == "json":
        document = {
            "kind": args.kind, "n": args.n,
            "beta1": _text(params.beta1), "beta2": _text(params.beta2),
        }
        if pq is not None:
            document["p"] = pq.p
            document["q"] = pq.q
        document.update({"method": args.method, "value": _text(value)})
        _emit_json(document)
    elif args.format == "csv":
        _emit_csv(["method", "value"], [(args.method, _text(value))])
    else:
        print(_text(value))
    return 0


def _report_document(report, with_timing):
    document = {
        "id": report.id,
        "paper_ref": report.paper_ref,
        "mode": report.mode,
        "provenance": report.provenance,
        "seed": report.seed,
        "instances_run": report.instances_run,
        "passes": report.passes,
        "failures": report.failures,
    }
    if report.first_counterexample is not None:
        document["first_counterexample"] = {
            "inputs": report.first_counterexample.inputs,
            "lhs": report.first_counterexample.lhs,
            "rhs": report.first_counterexample.rhs,
        }
    if with_timing:
        document["elapsed_ms"] = round(report.elapsed * 1000.0, 3)
    return document


def _report_row(report, with_timing):
    cex = ""
    if report.first_counterexample is not None:
        cex = json.dumps({
            "inputs": report.first_counterexample.inputs,
            "lhs": report.first_counterexample.lhs,
            "rhs": report.first_counterexample.rhs,
        })
    row = [
        report.id, report.paper_ref, report.mode, report.provenance,
        report.seed, report.instances_run, report.passes, report.failures, cex,
    ]
    if with_timing:
        row.append(round(report.elapsed * 1000.0, 3))
    return row


_REPORT_HEADER = [
    "id", "paper_ref", "mode", "provenance", "seed",
    "instances_run", "passes", "failures", "first_counterexample",
]


def _print_report_text(report, verdict=None):
    status = "pass" if report.failures == 0 else "FAIL"
    if verdict and verdict != "pass":
        status = f"FAIL ({verdict})"
    print(
        f"{report.id:<28} {report.provenance:<17} {report.mode:<14} "
        f"{report.passes}/{report.instances_run} {status}"
    )
    if report.first_counterexample is not None:
        cex = report.first_counterexample
        inputs = ", ".join(f"{k}={v}" for k, v in cex.inputs.items())
        print(f"    first counterexample: {inputs}")
        print(f"        lhs = {cex.lhs}")
        print(f"        rhs = {cex.rhs}")


def _cmd_audit(args, parser):
    with_timing = not args.no_timing
    if args.list:
        entries = list_identities()
        if args.format == "json":
            _emit_json({
                "identities": [
                    {"id": i, "paper_ref": ref, "mode": mode, "provenance": prov}
                    for i, ref, mode, prov in entries
                ]
            })
        elif args.format == "csv":
            _emit_csv(["id", "paper_ref", "mode", "provenance"], entries)
        else:
            for i, ref, mode, prov in entries:
                print(f"{i:<28} {prov:<17} {mode:<14} {ref}")
        return 0
    if args.id:
        report = audit(args.id, seed=args.seed, n_max=args.n_max)
        if args.format == "json":
            _emit_json(_report_document(report, with_timing))
        elif args.format == "csv":
            header = _REPORT_HEADER + (["elapsed_ms"] if with_timing else [])
            _emit_csv(header, [_report_row(report, with_timing)])
        else:
            _print_report_text(report)
        return 0 if report.failures == 0 else 1
    if not getattr(args, "all", False):
        parser.error("audit needs one of --id, --all or --list")
    reports = audit_all(args.provenance, seed=args.seed, n_max=args.n_max)
    ok = aggregate_ok(reports)
    verdicts = adjudicate(reports)
    if args.format == "json":
        _emit_json({
            "seed": args.seed,
            "ok": ok,
            "reports": [_report_document(r, with_timing) for r in reports],
            "verdicts": verdicts,
        })
    elif args.format == "csv":
        header = _REPORT_HEADER + (["elapsed_ms"] if with_timing else [])
        _emit_csv(header, [_report_row(r, with_timing) for r in reports])
    else:
        for report in reports:
            _print_report_text(report, verdicts.get(report.id))
        expected = set(expected_failure_ids())
        unexpected = [
            r.id for r in reports if r.failures and r.id not in expected
        ]
        vanished = [i for i, v in verdicts.items() if v == "anomaly-vanished"]
        print(f"aggregate: {'pass' if ok else 'FAIL'}"
              + (f" (unexpected failures: {', '.join(unexpected)})" if unexpected else "")
              + (f" (vanished anomalies: {', '.join(vanished)})" if vanished else ""))
    return 0 if ok else 1


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
        "beta1": _text(params.beta1),
        "beta2": _text(params.beta2),
    }
    if pq is not None:
        document["p"] = pq.p
        document["q"] = pq.q
    document.update({
        "sign_of_E": report.sign_of_E,
        "empirical_n0": report.empirical_n0,
        "scanned_up_to": report.scanned_up_to,
        "zero_norm_indices": list(report.zero_norm_indices),
    })
    if args.format == "json":
        _emit_json(document)
    elif args.format == "csv":
        _emit_csv(list(document.keys()),
                  [[document[k] if k != "zero_norm_indices"
                    else " ".join(map(str, document[k])) for k in document]])
    else:
        zeros = ", ".join(map(str, report.zero_norm_indices)) or "none"
        print(f"algebra {params}" + (f", seeds (p, q) = ({pq.p}, {pq.q})" if pq else ""))
        print(f"sign of growth indicator: {report.sign_of_E:+d}")
        print(f"empirical n0 = {report.empirical_n0} "
              f"(scanned n in [0, {report.scanned_up_to}]; zero norms: {zeros})")
    return 0


def _cmd_cows(args, parser):
    total = herd_total(args.years)
    if args.format == "json":
        _emit_json({"years": args.years, "herd": total})
    elif args.format == "csv":
        _emit_csv(["years", "herd"], [(args.years, total)])
    else:
        print(_text(total))
    return 0


def _cmd_gf(args, parser):
    check = gf_check(args.degree)
    ok = check.max_abs_residual_coefficient == (0, 0, 0, 0)
    if args.format == "json":
        _emit_json({
            "degree_checked": check.degree_checked,
            "max_abs_residual_coefficient": list(check.max_abs_residual_coefficient),
            "ok": ok,
        })
    elif args.format == "csv":
        _emit_csv(["degree_checked", "max_abs_residual_coefficient", "ok"],
                  [(check.degree_checked,
                    " ".join(map(str, check.max_abs_residual_coefficient)),
                    str(ok).lower())])
    else:
        print(f"degrees 0..{check.degree_checked}: all residual coefficients zero")
    return 0 if ok else 1


def _cmd_binet(args, parser):
    if args.quat:
        if args.kind != "narayana":
            parser.error("--quat applies to --kind narayana only")
        params = AlgebraParams(args.beta1, args.beta2)
        approx = binet_narayana_quat(params, args.n)
        exact_values = [narayana(args.n + k) for k in range(4)]
        if args.format == "json":
            _emit_json({
                "kind": "narayana", "quat": True, "n": args.n,
                "value": list(approx), "exact": exact_values,
            })
        elif args.format == "csv":
            _emit_csv(["component", "value", "exact"],
                      [(f"a{k + 1}", repr(approx[k]), exact_values[k]) for k in range(4)])
        else:
            rendered = " ".join(repr(v) for v in approx)
            print(f"{rendered}  (exact: {' '.join(map(_text, exact_values))})")
        return 0
    if args.kind == "fib":
        approx = binet_fib(args.n)
        exact_value = fib(args.n)
    else:
        approx = binet_narayana(args.n)
        exact_value = narayana(args.n)
    if args.format == "json":
        _emit_json({
            "kind": args.kind, "quat": False, "n": args.n,
            "value": approx, "exact": exact_value,
        })
    elif args.format == "csv":
        _emit_csv(["n", "value", "exact"], [(args.n, repr(approx), exact_value)])
    else:
        print(f"{approx!r}  (exact: {_text(exact_value)})")
    return 0


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
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a handler
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


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
