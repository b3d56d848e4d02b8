"""Command-line entry point: parse a script, run its checks, emit a report.

Exit codes: 0 all checks pass, 1 a paper inequality or metatheorem was
violated (an engine bug by construction), 2 input or usage error.
"""

import argparse
import sys
from dataclasses import dataclass

from . import report as report_mod
from .dsl import (
    AlgebraDecl,
    CheckCmd,
    ExampleCmd,
    ModuleDecl,
    ParamsDecl,
    parse_input,
)
from .errors import DslError, EngineBugError, HomdegError
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


@dataclass
class SessionConfig:
    field: object = QQ
    fmt: str = "text"
    seed: int = 0
    degree_cap: int = 64


def _parse_field(text):
    if text == "qq":
        return QQ
    if text.startswith("fp:"):
        try:
            return PrimeField(int(text[3:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    raise argparse.ArgumentTypeError("field must be 'qq' or 'fp:P' with P prime")


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
    ap.add_argument("--degree-cap", type=int, default=64)
    return ap


def _check_parameters(pres, q_gens, stmt):
    """Raise a DslError at stmt unless Q is a parameter ideal of M: a
    proper ideal, exactly dim M generators and l(M/QM) finite.  A module
    of dimension <= 0 takes any proper Q: its invariants do not depend on
    Q, and a script cannot write the empty parameter list."""
    if any(g and g.degree() == 0 for g in q_gens):
        raise DslError(
            "not a parameter ideal of the module: Q contains a unit",
            stmt.line,
            stmt.col,
        )
    d = pres.dim()
    if d <= 0:
        return
    if len(q_gens) != d:
        raise DslError(
            f"not a parameter ideal of the module: {len(q_gens)} generators, "
            f"but dim M = {d}",
            stmt.line,
            stmt.col,
        )
    if pres.quotient_by_ideal(q_gens).length() is None:
        raise DslError(
            "not a parameter ideal of the module: M/QM has infinite length",
            stmt.line,
            stmt.col,
        )


def run_script(script, cfg):
    """Execute a parsed script; returns (report dict, failure flag)."""
    report = report_mod.empty_report()
    current_pres = None
    current_params = None
    current_meta = {}
    checked = (None, None)  # the (module, Q) pair _check_parameters last passed
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
            args = dict(stmt.args)
            ring_args = {"field": cfg.field, "degree_cap": cfg.degree_cap}
            if stmt.family == "ex39":
                inst = gen_example_39(args["l"], args["m"], **ring_args)
            else:
                inst = gen_example_46(args["l"], **ring_args)
            current_pres = inst.pres
            current_params = inst.q_gens
            current_meta = inst.metadata
        elif isinstance(stmt, CheckCmd):
            if current_pres is None:
                raise DslError(
                    "no module or algebra in scope for check", stmt.line, stmt.col
                )
            if current_params is None:
                raise DslError(
                    "no parameter ideal in scope for check", stmt.line, stmt.col
                )
            if checked[0] is not current_pres or checked[1] is not current_params:
                _check_parameters(current_pres, current_params, stmt)
                checked = (current_pres, current_params)
            inst = ProblemInstance(current_pres, current_params, current_meta)
            if stmt.kind == "invariants":
                inv = invariant_report(current_pres, current_params)
                report_mod.fill_invariants(report, inv)
            elif stmt.kind == "thm1":
                v = check_thm1(inst, seed=cfg.seed)
                report_mod.fill_thm1(report, v)
                failed = failed or not v.equivalence_consistent
            elif stmt.kind == "thm2":
                v = check_thm2(inst, seed=cfg.seed)
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
    cfg = SessionConfig(
        field=args.field,
        fmt=args.format,
        seed=args.seed,
        degree_cap=args.degree_cap,
    )
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        script = parse_input(text, degree_cap=cfg.degree_cap)
    except DslError as exc:
        print(f"{args.input}:{exc.line}:{exc.col}: error: {exc.msg}", file=sys.stderr)
        return 2
    try:
        report, failed = run_script(script, cfg)
    except DslError as exc:
        print(f"{args.input}:{exc.line}:{exc.col}: error: {exc.msg}", file=sys.stderr)
        return 2
    except EngineBugError as exc:
        print(f"engine-bug: {exc}", file=sys.stderr)
        return 1
    except HomdegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.fmt == "json":
        sys.stdout.write(report_mod.to_json(report))
    else:
        sys.stdout.write(report_mod.to_text(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
