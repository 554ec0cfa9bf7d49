"""Batch command-line front end.

Loads an algebra spec from a JSON config ({"n": int, "kind": str,
"custom": {...}?}), runs one command against it, and emits a report either
as JSON ({"spec", "checks", "values", "elapsed_ms"}) or as a stable text
table.  The checks are the verifiers' own records (reporting.check), sorted
by name.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import time
from dataclasses import dataclass

from . import dimension, pbw, torus
from .presentation import ConfigError, spec_from_config, spec_to_config
from .reporting import check


class UsageError(ValueError):
    pass


@dataclass
class Report:
    spec: dict
    checks: list
    values: dict
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "spec": self.spec,
            "checks": self.checks,
            "values": self.values,
            "elapsed_ms": self.elapsed_ms,
        }

    def render_text(self) -> str:
        lines = [f"spec: {json.dumps(self.spec, sort_keys=True)}"]
        if self.checks:
            width = max(len(c["name"]) for c in self.checks)
            for c in self.checks:
                lines.append(f"  {c['name']:<{width}}  {c['status']:<7} {c['detail']}")
        for key in sorted(self.values):
            lines.append(f"{key}: {json.dumps(self.values[key])}")
        status = "ok" if self.ok else "FAILED"
        lines.append(f"status: {status} ({len(self.checks)} checks, {self.elapsed_ms} ms)")
        return "\n".join(lines)


# -- command implementations ---------------------------------------------------

def _normal_form(spec, text: str):
    try:
        word = pbw.parse_word(spec, text)
    except ConfigError as exc:  # a bad generator name: no config field is wrong
        raise UsageError(exc.message) from exc
    return pbw.normal_form(spec, word)


def _cmd_nf(spec, args, over_budget):
    if len(args) != 1:
        raise UsageError("nf takes one word argument, e.g. --args 'x2 y1 x1'")
    element = _normal_form(spec, args[0])
    return [], {"input": args[0], "normal_form": pbw.render_element(spec, element)}


def _cmd_mul(spec, args, over_budget):
    if len(args) != 2:
        raise UsageError("mul takes two word arguments")
    f = _normal_form(spec, args[0])
    g = _normal_form(spec, args[1])
    prod = pbw.multiply(spec, f, g)
    return [], {"factors": list(args), "product": pbw.render_element(spec, prod)}


def _cmd_verify(spec, args, over_budget):
    checks = pbw.verify_relations(spec)
    for i in range(1, spec.n + 1):
        if over_budget():
            checks.append(check("normality", None,
                                f"budget exhausted after {i - 1} of {spec.n} indices"))
            break
        checks.extend(pbw.verify_normality(spec, i))
    for m in range(1, spec.n):
        checks.extend(pbw.verify_ambiskew(spec, m))
    # the checks of torus.check_torus_isomorphism for every choice, in name
    # order, each distinct verdict computed once
    choices = 2**spec.n
    theta = torus.theta_sweep(spec)
    for done in range(choices):
        if over_budget():
            checks.append(check("torus-isomorphism", None,
                                f"budget exhausted after {done} of {choices} choices"))
            break
        checks.extend(next(theta))
    return checks, {}


def _skew_suite(spec, max_k: int) -> list[dict]:
    skew = lambda i, k, form: pbw.skew_power_identity(spec, i, k, form)
    checks = []
    for k in range(1, max_k + 1):
        checks.append(skew(1, k, "k1_base"))
        for i in range(2, spec.n + 1):
            checks.append(skew(i, k, "xk_y"))
            checks.append(skew(i, k, "x_yk"))
    return checks


def _cmd_skew(spec, args, over_budget):
    if not args:
        return _skew_suite(spec, max_k=4), {}
    if len(args) not in (2, 3):
        raise UsageError("skew takes --args I K [FORM]")
    try:
        i, k = int(args[0]), int(args[1])
    except ValueError as exc:
        raise UsageError(f"skew indices must be integers: {args[:2]}") from exc
    forms = [args[2]] if len(args) == 3 else (
        ["k1_base"] if i == 1 else ["xk_y", "x_yk"]
    )
    try:
        return [pbw.skew_power_identity(spec, i, k, f) for f in forms], {}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _growth_values(spec, n_steps: int) -> dict:
    rep = pbw.growth_count(spec, n_steps)
    return {
        "growth_counts": rep.counts,
        "growth_exponent": rep.exponent,
        "growth_window": list(rep.window),
    }


def _cmd_growth(spec, args, over_budget):
    if len(args) != 1:
        raise UsageError("growth takes one argument N")
    try:
        n_steps = int(args[0])
    except ValueError as exc:
        raise UsageError(f"growth argument must be an integer: {args[0]!r}") from exc
    try:
        return [], _growth_values(spec, n_steps)
    except ValueError as exc:  # N < 1, or a BudgetError past GROWTH_MAX_N
        raise UsageError(str(exc)) from exc


def _cmd_dim(spec, args, over_budget):
    rep = dimension.torus_dimension(spec)
    # torus_dimension returns only witnesses that it verified
    checks = [check("dimension-witness", True, "witness is independent and commuting")]
    return checks, dict(rep.to_json())


def _cmd_bound(spec, args, over_budget):
    dim_rep = dimension.torus_dimension(spec)
    values = {"dim": dim_rep.to_json()}
    rep = dimension.bernstein_report(spec, dim_rep)
    values.update(rep.to_json())
    return [check("bound-determinate", True, f"module growth bound {rep.bound}")], values


def _cmd_report(spec, args, over_budget):
    checks, values = _cmd_verify(spec, [], over_budget)
    if over_budget():
        checks.append(check("skew-suite", None, "budget exhausted"))
    else:
        checks.extend(_skew_suite(spec, max_k=3))
    if over_budget():
        checks.append(check("growth", None, "budget exhausted"))
    else:
        values.update(_growth_values(spec, 4))
    if over_budget():
        checks.append(check("bound", None, "budget exhausted"))
    else:
        dim_checks, dim_values = _cmd_bound(spec, [], over_budget)
        checks.extend(dim_checks)
        values.update(dim_values)
    return checks, values


_HANDLERS = {
    "nf": _cmd_nf,
    "mul": _cmd_mul,
    "verify": _cmd_verify,
    "skew": _cmd_skew,
    "growth": _cmd_growth,
    "dim": _cmd_dim,
    "bound": _cmd_bound,
    "report": _cmd_report,
}
COMMANDS = tuple(_HANDLERS)


# -- driver ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="exact computations in multiparameter quantized Weyl-type algebras",
    )
    parser.add_argument("--config", required=True, help="path to the spec JSON file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--args", nargs="*", default=[], help="command arguments")
    parser.add_argument("--budget", type=float, default=None, help="soft time budget (s)")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", help="JSON output")
    fmt.add_argument("--text", dest="as_json", action="store_false", help="text output")
    parser.set_defaults(as_json=False)
    return parser


def run(config: dict, command: str, args=(), budget=None) -> Report:
    """Execute one command against a parsed config; raises ConfigError/UsageError."""
    if budget is not None and not budget >= 0:  # NaN compares false
        raise UsageError(f"budget must be a number of seconds >= 0, got {budget!r}")
    spec = spec_from_config(config)
    started = time.perf_counter()

    def over_budget() -> bool:
        return budget is not None and (time.perf_counter() - started) > budget

    if command not in _HANDLERS:
        raise UsageError(f"unknown command {command!r}")
    if args and command in ("verify", "dim", "bound", "report"):
        raise UsageError(f"{command} takes no arguments, got --args {' '.join(args)}")
    checks, values = _HANDLERS[command](spec, list(args), over_budget)
    checks.sort(key=operator.itemgetter("name"))
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return Report(spec=spec_to_config(spec), checks=checks, values=values,
                  elapsed_ms=elapsed_ms)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with open(opts.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {opts.config}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError (a file that is not UTF-8) and an
        # integer past int's digit limit are ValueErrors; RecursionError is
        # nesting past the decoder's recursion limit
        print(f"config error: {opts.config} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config, opts.command, opts.args, budget=opts.budget)
    except ConfigError as exc:
        print(f"config error in field '{exc.field}': {exc.message}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.to_json(), indent=2) if opts.as_json else report.render_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
