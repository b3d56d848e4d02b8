"""Command-line entry point: parse a script, run its checks, emit a report.

Exit codes: 0 all checks pass, 1 a paper inequality or metatheorem was
violated (an engine bug by construction), 2 input or usage error.
"""

import argparse
import sys
from contextlib import contextmanager
from functools import cache

from . import report as report_mod
from .dsl import (
    AlgebraDecl,
    CheckCmd,
    ExampleCmd,
    ModuleDecl,
    ParamsDecl,
    parse_input,
)
from .errors import DegreeCapError, DslError, EngineBugError, HomdegError
from .fields import QQ, PrimeField
from .invariants import invariant_report
from .verify import (
    ProblemInstance,
    audit_inequalities,
    check_thm1,
    check_thm2,
    gen_example_39,
    gen_example_46,
)


def _parse_field(text):
    if text == "qq":
        return QQ
    if text.startswith("fp:"):
        try:
            return PrimeField(int(text[3:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    raise argparse.ArgumentTypeError("field must be 'qq' or 'fp:P' with P prime")


def _parse_degree_cap(text):
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return cap


@cache  # parse_args leaves the parser as it is, so one serves every call
def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="homdeg",
        description="Exact invariants of graded modules: Hilbert-Samuel "
        "coefficients, homological degrees and torsions, and the "
        "structure-theorem checkers.",
    )
    ap.add_argument("--input", required=True, help="script file to run")
    ap.add_argument(
        "--field",
        type=_parse_field,
        default=QQ,
        help="coefficient field for built-in examples: qq (default) or fp:P",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--degree-cap", type=_parse_degree_cap, default=64)
    return ap


@contextmanager
def _positioned(stmt):
    """Report a ValueError raised while stmt runs, the library rejecting
    its input, or a DegreeCapError, a bound stopping it, as a DslError at
    stmt."""
    try:
        yield
    except (ValueError, DegreeCapError) as exc:
        raise DslError(str(exc), stmt.line, stmt.col) from exc


def run_script(script, args):
    """Execute a parsed script under the parsed command-line args; the
    parser has put a module and a parameter ideal of the current ring in
    scope of every check.  Returns (report dict, failure flag)."""
    report = report_mod.empty_report()
    current_pres = current_params = None
    current_meta = {}
    failed = False
    for stmt in script.statements:
        if isinstance(stmt, AlgebraDecl):
            current_pres = stmt.algebra.as_module()
            current_meta = {"family": "script", "params": {"name": stmt.name}}
        elif isinstance(stmt, ModuleDecl):
            current_pres = stmt.pres
            current_meta = {"family": "script", "params": {"name": stmt.name}}
        elif isinstance(stmt, ParamsDecl):
            current_params = list(stmt.gens)
        elif isinstance(stmt, ExampleCmd):
            given = dict(stmt.args)
            ring_args = {"field": args.field, "degree_cap": args.degree_cap}
            with _positioned(stmt):
                if stmt.family == "ex39":
                    inst = gen_example_39(given["l"], given["m"], **ring_args)
                else:
                    inst = gen_example_46(given["l"], **ring_args)
            current_pres = inst.pres
            current_params = inst.q_gens
            current_meta = inst.metadata
        elif isinstance(stmt, CheckCmd):
            inst = ProblemInstance(current_pres, current_params, current_meta)
            with _positioned(stmt):
                if stmt.kind == "invariants":
                    inv = invariant_report(current_pres, current_params)
                    report_mod.fill_invariants(report, inv)
                elif stmt.kind == "thm1":
                    v = check_thm1(inst, seed=args.seed)
                    report_mod.fill_thm1(report, v)
                    failed = failed or not v.equivalence_consistent
                elif stmt.kind == "thm2":
                    v = check_thm2(inst, seed=args.seed)
                    report_mod.fill_thm2(report, v)
                    failed = failed or not v.equivalence_consistent
                elif stmt.kind == "audit":
                    audit = audit_inequalities(inst)
                    report_mod.fill_audit(report, audit)
    return report, failed


def main(argv=None):
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        script = parse_input(text, degree_cap=args.degree_cap)
    except DslError as exc:
        print(f"{args.input}:{exc.line}:{exc.col}: error: {exc.msg}", file=sys.stderr)
        return 2
    try:
        report, failed = run_script(script, args)
    except DslError as exc:
        print(f"{args.input}:{exc.line}:{exc.col}: error: {exc.msg}", file=sys.stderr)
        return 2
    except EngineBugError as exc:
        print(f"engine-bug: {exc}", file=sys.stderr)
        return 1
    except HomdegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(report_mod.to_json(report))
    else:
        sys.stdout.write(report_mod.to_text(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
