"""Command-line front end.

Subcommands:

    run        verify identity suites and print a report
    list       print the identity catalogue
    normalize  print the canonical form of an expression
    bracket    print the normalized bracket of two expressions

Exit codes: 0 all checks passed, 1 at least one identity failed, 2 usage or
parse or configuration error, 3 engine error (rewrite budget exhausted,
recursion too deep, division by a non-invertible coefficient, or a failed
self-check), 141 the reader closed standard output early (as in `confalg
list | head -1`), the code a shell gives a command killed by SIGPIPE; no
traceback is printed.

The rewrite budget bounds the nc.operation_cost of each product an
expression names and of the bracket command's bracket; engine methods take
no budget. It defaults to 10^6 and can be set with --budget or the
CONFALG_REWRITE_BUDGET environment variable; the flag wins when both are
given. Budgets below 10^3 are rejected.
"""

import argparse
import os
import re
import sys

from . import dsl, suites
from .errors import (
    ArityError,
    ConfalgError,
    DslSyntaxError,
    IndexRangeError,
    NonCoefficientDivisor,
    UnboundIndex,
    UnknownIdentity,
    UnknownSymbol,
)
from .nc import DEFAULT_BUDGET, MIN_BUDGET, check_budget

BUDGET_ENV = "CONFALG_REWRITE_BUDGET"
EXIT_BROKEN_PIPE = 141

_PARSE_ERRORS = (
    DslSyntaxError,
    UnknownSymbol,
    ArityError,
    UnboundIndex,
    IndexRangeError,
    NonCoefficientDivisor,
)


class _UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="confalg",
        description="Exact verifier for a conformal operator algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="verify identity suites")
    run.add_argument(
        "--suite",
        default=None,
        help="suite tag (%s) or 'all'" % ", ".join(suites.SUITE_TAGS),
    )
    run.add_argument("--identity", default=None, help="check one identity by id")
    run.add_argument(
        "--assignment",
        default=None,
        help="restrict --identity to one index assignment, e.g. mu=1,nu=2",
    )
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--budget", type=int, default=None)

    lst = sub.add_parser("list", help="print the identity catalogue")
    lst.add_argument("--suite", default=None, help="limit to one suite tag")

    norm = sub.add_parser("normalize", help="print the canonical form")
    norm.add_argument("expr")
    norm.add_argument("--budget", type=int, default=None)

    br = sub.add_parser("bracket", help="print the normalized bracket")
    br.add_argument("left")
    br.add_argument("right")
    br.add_argument("--budget", type=int, default=None)

    return parser


def _resolve_budget(flag_value):
    if flag_value is not None:
        budget = flag_value
    else:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            budget = DEFAULT_BUDGET
        else:
            try:
                budget = int(raw)
            except ValueError:
                raise _UsageError(
                    f"{BUDGET_ENV} must be an integer, got {raw!r}"
                ) from None
    if budget < MIN_BUDGET:
        raise _UsageError(f"rewrite budget must be at least {MIN_BUDGET}")
    return budget


def _parse_assignment(text):
    """name=value pieces, split at the commas outside [...] as in J[0,1]."""
    out = {}
    for piece in re.split(r",(?![^\[\]]*\])", text):
        name, sep, value = piece.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or not value:
            raise _UsageError(f"bad assignment piece {piece!r}; expected name=value")
        if name in out:
            raise _UsageError(f"assignment names {name!r} twice")
        try:
            out[name] = int(value)
        except ValueError:
            out[name] = value
    return out


def _elaborate_closed(src, ctx):
    return dsl.elaborate(dsl.parse(src), {}, ctx.obs, ctx.budget)


def _shift_lines(ctx):
    lines = ["informational: acceleration position shifts (no closed form expected)"]
    for mu in range(4):
        for nu in range(4):
            expr = ctx.obs.shift(("C", mu), nu)
            lines.append(f"  br(C[{mu}], X[{nu}]) = {expr.pretty()}")
    return lines


def _cmd_run(args):
    ctx = suites.get_context(_resolve_budget(args.budget))

    if args.identity is not None and args.suite is not None:
        raise _UsageError("--suite and --identity are mutually exclusive")
    if args.assignment is not None and args.identity is None:
        raise _UsageError("--assignment needs --identity")

    if args.identity is not None:
        try:
            ident = suites.find_identity(args.identity)
        except UnknownIdentity as exc:
            raise _UsageError(str(exc)) from None
        assignment = None
        if args.assignment is not None:
            assignment = _parse_assignment(args.assignment)
            if assignment not in suites.identity_assignments(ident):
                raise _UsageError(
                    f"{ident.id} has no assignment {args.assignment!r}"
                )
        result = suites.run_identity(ident, ctx, assignment=assignment)
        report = suites.SuiteReport(suite=ident.tag, results=[result])
        reports = [report]
    else:
        tag = args.suite if args.suite is not None else "all"
        if tag != "all" and tag not in suites.SUITE_TAGS:
            raise _UsageError(
                f"unknown suite {tag!r}; choose from "
                f"{', '.join(suites.SUITE_TAGS)} or all"
            )
        if tag == "all":
            reports = suites.run_all(ctx)
        else:
            reports = [suites.run_suite(tag, ctx)]

    ok = all(rep.passed for rep in reports)
    if args.format == "json":
        payload = reports[0] if len(reports) == 1 and args.suite != "all" else reports
        print(suites.report_json(payload))
    else:
        blocks = [suites.report_text(rep) for rep in reports]
        if any(rep.suite == "conformal-factor" for rep in reports):
            blocks.append("\n".join(_shift_lines(ctx)))
        print("\n\n".join(blocks))
        print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_list(args):
    if args.suite is not None and args.suite not in suites.SUITE_TAGS:
        raise _UsageError(f"unknown suite {args.suite!r}")
    tags = (args.suite,) if args.suite else suites.SUITE_TAGS
    for tag in tags:
        print(f"suite {tag}")
        for ident in sorted(suites.catalog_by_suite(tag), key=lambda i: i.id):
            count = len(suites.identity_assignments(ident))
            print(f"  {ident.id}  [{count} assignment{'s' if count != 1 else ''}]")
            print(f"      {ident.describe}")
            print(f"      {ident.statement}")
    return 0


def _cmd_normalize(args):
    ctx = suites.get_context(_resolve_budget(args.budget))
    print(_elaborate_closed(args.expr, ctx).pretty())
    return 0


def _cmd_bracket(args):
    ctx = suites.get_context(_resolve_budget(args.budget))
    left = _elaborate_closed(args.left, ctx)
    right = _elaborate_closed(args.right, ctx)
    check_budget(ctx.budget, left, right)
    print(ctx.alg.bracket(left, right).pretty())
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "list": _cmd_list,
    "normalize": _cmd_normalize,
    "bracket": _cmd_bracket,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # a closed pipe shows on the write of buffered output, so flush here
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null
        # device, so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"confalg: {exc}", file=sys.stderr)
        return 2
    except _PARSE_ERRORS as exc:
        print(f"confalg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ConfalgError, RecursionError) as exc:
        print(f"confalg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
