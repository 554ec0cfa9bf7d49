"""Batch command-line front end.

Loads an algebra spec from a JSON config ({"n": int, "kind": str,
"q": str?, "custom": {...}?}), runs one command against it, and emits a
report either as JSON ({"spec", "checks", "values", "elapsed_ms"}) or as a
stable text table.  Exit codes: 0 all checks pass, 1 a check failed or the
growth bound is indeterminate, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import dimension, pbw, torus
from .presentation import ConfigError, ambiskew_step, casimir, spec_from_config, spec_to_config
from .reporting import Check

COMMANDS = ("nf", "mul", "verify", "skew", "growth", "dim", "bound", "report")


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

    @classmethod
    def from_json(cls, data: dict) -> "Report":
        return cls(
            spec=data["spec"],
            checks=data["checks"],
            values=data["values"],
            elapsed_ms=data["elapsed_ms"],
        )

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


def _skip(name: str, reason: str) -> Check:
    return Check(name, None, reason)


# -- command implementations ---------------------------------------------------

def _cmd_nf(spec, args, height):
    if len(args) != 1:
        raise UsageError("nf takes one word argument, e.g. --args 'x2 y1 x1'")
    element = pbw.normal_form(spec, args[0])
    return [], {"input": args[0], "normal_form": pbw.render_element(spec, element)}


def _cmd_mul(spec, args, height):
    if len(args) != 2:
        raise UsageError("mul takes two word arguments")
    f = pbw.normal_form(spec, args[0])
    g = pbw.normal_form(spec, args[1])
    prod = pbw.multiply(spec, f, g)
    return [], {"factors": list(args), "product": pbw.render_element(spec, prod)}


def verify_ambiskew(spec, m: int, *, products=None) -> list[Check]:
    """Engine checks of the extension-step data at step m.

    u = z_m / c with c = p_{m+1} - q_{m+1} is not in the coefficient ring, so
    each identity in u is checked multiplied through by c.  The ring is a
    domain and c != 0, so each check is as strong as the identity its detail
    states.  `products` is passed on to every pbw.multiply.
    """
    step = ambiskew_step(spec, m)
    mul = lambda f, g: pbw.multiply(spec, f, g, products=products)
    q, p, gamma = spec.q, spec.p, spec.gamma
    checks = []
    # the twist alpha scales u by p_{m+1}
    az = _apply_diagonal(spec, step.alpha, step.z)
    checks.append(
        Check(f"ambiskew-alpha-u({m})", (az - step.z.scale(p[m])).is_zero(),
              "alpha(u) = p_{m+1} u")
    )
    # u - rho*alpha(u) is -q_{m+1}^{-1} z_m, and matches the engine commutator
    delta = step.z - az.scale(step.rho)
    zm = casimir(spec, m)
    ok = (delta - zm.scale(-q[m].inverse() * step.c)).is_zero()
    y_new = pbw.generator(spec, spec.y_index(m + 1))
    x_new = pbw.generator(spec, spec.x_index(m + 1))
    comm = mul(y_new, x_new) - mul(x_new, y_new).scale(step.rho)
    ok = ok and (comm.scale(step.c) - delta).is_zero()
    checks.append(Check(f"ambiskew-delta({m})", ok, "u - rho*alpha(u) = -q_{m+1}^{-1} z_m"))
    # the next Casimir element; q_{m+1} - p_{m+1} = -c
    lhs = step.z - mul(y_new, x_new).scale(step.c)
    checks.append(
        Check(f"ambiskew-casimir({m})", (lhs - casimir(spec, m + 1)).is_zero(),
              "z_{m+1} = (q_{m+1} - p_{m+1})(y_{m+1} x_{m+1} - u)")
    )
    # beta = (conjugation by u) * alpha^{-1} matches the closed multipliers
    ok = all(
        step.beta_on_x(i) == p[m].inverse() * gamma[i - 1][m]
        and step.beta_on_y(i) == gamma[m][i - 1]
        for i in range(1, m + 1)
    )
    checks.append(Check(f"ambiskew-beta({m})", ok, "beta multipliers match gamma*alpha^-1"))
    return checks


def _apply_diagonal(spec, multipliers, f):
    out = {}
    for mono, coeff in f.terms.items():
        c = coeff
        for g, e in enumerate(mono):
            if e:
                c = c * multipliers[g] ** e
        out[mono] = c
    return pbw.PBWElement(spec.n, out)


def _cmd_verify(spec, args, height, over_budget):
    # one product memo for every relation, normality and extension-step check
    products = pbw._Products(spec)
    checks = pbw.verify_relations(spec, products=products)
    for i in range(1, spec.n + 1):
        if over_budget():
            checks.append(_skip("normality",
                                f"budget exhausted after {i - 1} of {spec.n} indices"))
            break
        checks.extend(pbw.verify_normality(spec, i, products=products))
    for m in range(1, spec.n):
        checks.extend(verify_ambiskew(spec, m, products=products))
    choices = 2**spec.n
    for bits in range(choices):
        if over_budget():
            checks.append(_skip("torus-isomorphism",
                                f"budget exhausted after {bits} of {choices} choices"))
            break
        choice = tuple("x" if bits >> i & 1 else "y" for i in range(spec.n))
        checks.extend(torus.check_torus_isomorphism(spec, choice))
    return checks, {}


def _skew_suite(spec, max_k: int) -> list[Check]:
    checks = []
    for k in range(1, max_k + 1):
        checks.append(pbw.skew_power_identity(spec, 1, k, "k1_base"))
        for i in range(2, spec.n + 1):
            checks.append(pbw.skew_power_identity(spec, i, k, "xk_y"))
            checks.append(pbw.skew_power_identity(spec, i, k, "x_yk"))
    return checks


def _cmd_skew(spec, args, height):
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


def _cmd_growth(spec, args, height):
    if len(args) != 1:
        raise UsageError("growth takes one argument N")
    try:
        n_steps = int(args[0])
    except ValueError as exc:
        raise UsageError(f"growth argument must be an integer: {args[0]!r}") from exc
    try:
        rep = pbw.growth_count(spec, n_steps)
    except ValueError as exc:  # N < 1, or a BudgetError past the size gate
        raise UsageError(str(exc)) from exc
    values = {
        "growth_counts": rep.counts,
        "growth_exponent": rep.exponent,
        "growth_window": list(rep.window),
    }
    return [], values


def _cmd_dim(spec, args, height):
    rep = dimension.torus_dimension(spec, height=height)
    values = dict(rep.to_json())
    ok = dimension.verify_witness(torus.standard_torus(spec), rep.witness)
    checks = [Check("dimension-witness", ok, "witness is independent and commuting")]
    return checks, values


def _cmd_bound(spec, args, height):
    dim_rep = dimension.torus_dimension(spec, height=height)
    values = {"dim": dim_rep.to_json()}
    if not dim_rep.is_point:
        checks = [
            Check(
                "bound-determinate",
                False,
                f"dimension bracketed in [{dim_rep.lo}, {dim_rep.hi}]; raise --height",
            )
        ]
        return checks, values
    rep = dimension.bernstein_report(spec, dim_rep)
    values.update(rep.to_json())
    checks = [Check("bound-determinate", True, f"module growth bound {rep.bound}")]
    return checks, values


def _cmd_report(spec, args, height, over_budget):
    checks, values = _cmd_verify(spec, [], height, over_budget)
    if over_budget():
        checks.append(_skip("skew-suite", "budget exhausted"))
    else:
        checks.extend(_skew_suite(spec, max_k=3))
    if over_budget():
        checks.append(_skip("growth", "budget exhausted"))
    else:
        try:
            rep = pbw.growth_count(spec, 4)
        except pbw.BudgetError as exc:
            checks.append(_skip("growth", str(exc)))
        else:
            values["growth_counts"] = rep.counts
            values["growth_exponent"] = rep.exponent
            values["growth_window"] = list(rep.window)
    if over_budget():
        checks.append(_skip("bound", "budget exhausted"))
    else:
        dim_checks, dim_values = _cmd_bound(spec, [], height)
        checks.extend(dim_checks)
        values.update(dim_values)
    return checks, values


# -- driver ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="exact computations in multiparameter quantized Weyl-type algebras",
    )
    parser.add_argument("--config", required=True, help="path to the spec JSON file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--args", nargs="*", default=[], help="command arguments")
    parser.add_argument("--height", type=int, default=3, help="witness search bound")
    parser.add_argument("--budget", type=float, default=None, help="soft time budget (s)")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", help="JSON output")
    fmt.add_argument("--text", dest="as_json", action="store_false", help="text output")
    parser.set_defaults(as_json=False)
    return parser


def run(config: dict, command: str, args=(), height: int = 3, budget=None) -> Report:
    """Execute one command against a parsed config; raises ConfigError/UsageError."""
    if height < 1:
        raise UsageError(f"--height must be at least 1, got {height}")
    spec = spec_from_config(config)
    started = time.perf_counter()

    def over_budget() -> bool:
        return budget is not None and (time.perf_counter() - started) > budget

    handlers = {
        "nf": _cmd_nf,
        "mul": _cmd_mul,
        "skew": _cmd_skew,
        "growth": _cmd_growth,
        "dim": _cmd_dim,
        "bound": _cmd_bound,
    }
    budgeted = {"verify": _cmd_verify, "report": _cmd_report}
    if command in budgeted:
        checks, values = budgeted[command](spec, list(args), height, over_budget)
    elif command in handlers:
        checks, values = handlers[command](spec, list(args), height)
    else:
        raise UsageError(f"unknown command {command!r}")
    normalized = [c.to_json() for c in checks]
    normalized.sort(key=lambda c: c["name"])
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return Report(spec=spec_to_config(spec), checks=normalized, values=values,
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
    except json.JSONDecodeError as exc:
        print(f"config error: {opts.config} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config, opts.command, opts.args, height=opts.height,
                     budget=opts.budget)
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
