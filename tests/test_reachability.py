"""The reachability gate: every function of src/qweyl is reached by a command.

The command matrix runs every preset at n = 1..4 and the README custom spec
through each command form of `qweyl.cli.main`, with a zero budget and the
error paths of `main` besides, under a trace of call events.  A function
that no command reaches fails the gate unless ALLOWED names it with the
reason it stays.
"""

import contextlib
import copy
import importlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

import qweyl
from qweyl import cli, pbw, scalars
from qweyl.presentation import KINDS

MODULES = [importlib.import_module(f"qweyl.{path.stem}")
           for path in sorted(Path(qweyl.__file__).parent.glob("*.py"))
           if path.stem != "__init__"]

README_CUSTOM = {"n": 2, "kind": "custom", "custom": {
    "symbols": ["q", "r"], "q": ["q^2", "q^2"], "p": ["1", "r"],
    "gamma": [["1", "r^-1"], ["r", "1"]]}}

_BENCHMARK = "benchmark: read by perfbench/"
_ORACLE = "oracle: a reference that tests compare against"
_REPR = "repr"

# The functions that no command reaches, each with the reason it stays.
ALLOWED = {
    "dimension.Witness.__eq__": _ORACLE + " (a witness against the search oracle's)",
    "dimension.Witness.__init__": _ORACLE + " (Witness(vectors), explicit rows)",
    "dimension.Witness.__repr__": _REPR,
    "dimension.Witness.rank": _ORACLE + " (the rank of an oracle's witness)",
    "dimension.Witness.vectors": _ORACLE + " (the dense rows of a witness)",
    "dimension.bernstein_bound": "README API: the library quick start",
    "dimension.pairing_from_matrix": _BENCHMARK + "session.py, the witness oracle",
    "pbw.PBWElement.__add__": _ORACLE + " (PBWElement arithmetic)",
    "pbw.PBWElement.__eq__": _BENCHMARK + "session.py, the nf and mul oracles",
    "pbw.PBWElement.__init__": _ORACLE + " (the PBWElement tuple constructor)",
    "pbw.PBWElement.__neg__": _ORACLE + " (PBWElement arithmetic)",
    "pbw.PBWElement.__repr__": _REPR,
    "pbw.PBWElement.__sub__": _ORACLE + " (PBWElement arithmetic)",
    "pbw.PBWElement.degree": _ORACLE + " (the total degree against MAX_DEGREE)",
    "pbw.PBWElement.scale": _BENCHMARK + "test_smoke.py, the corrupted multiply",
    "pbw.PBWElement.terms": _ORACLE + " (an element as exponent tuples)",
    "pbw._Layout.pack": _ORACLE + " (packs for the PBWElement tuple constructor)",
    "pbw.generator": _BENCHMARK + "session.py, the multiply fold of the nf oracle",
    "pbw.word_monomial": _ORACLE + " (the monomial of an ordered word)",
    "presentation.AlgebraSpec.__repr__": _REPR,
    "presentation._field": "error path: the field name of a bad custom entry",
    "presentation.casimir": _ORACLE + " (z_i, summed from the parameters)",
    "reporting.all_ok": _ORACLE + " (the acceptance criteria's verdict of a check list)",
    "scalars.ParameterLattice.__eq__": "error path: Scalar._check compares two lattice objects",
    "scalars.ParameterLattice.__hash__": _ORACLE + " (a lazy lattice hashes like an eager one)",
    "scalars.ParameterLattice.__repr__": _REPR,
    "scalars.ParameterLattice._position": _ORACLE + " (lat.monomial, by symbol name)",
    "scalars.ParameterLattice.index": _ORACLE + " (lat.monomial, by symbol name)",
    "scalars.ParameterLattice.monomial": _ORACLE + " (a Scalar by symbol name)",
    "scalars.ParameterLattice.pack": _ORACLE + " (packs for the Scalar tuple constructor)",
    "scalars.ParameterLattice.rational": _BENCHMARK + "test_smoke.py, the corrupted multiply",
    "scalars.ParameterLattice.symbol": _ORACLE + " (a Scalar by symbol name)",
    "scalars.Scalar.__init__": _ORACLE + " (the Scalar tuple constructor)",
    "scalars.Scalar.__neg__": _ORACLE + " (Scalar arithmetic)",
    "scalars.Scalar.__repr__": _REPR,
    "scalars.Scalar._mul_tuples": "error path: a product past the exponent field",
    "scalars.Scalar.as_monomial": _ORACLE + " (a monomial's dense exponents)",
    "scalars.Scalar.substitute": _ORACLE + " (evaluation at rational values)",
    "scalars.Scalar.terms": _ORACLE + " (a Scalar as exponent tuples)",
    "scalars.parse_monomial": _ORACLE + " (a Scalar from its string)",
    "torus.ExponentPairing.__eq__": _ORACLE + " (a torus against its dense build)",
    "torus.ExponentPairing.__init__": _ORACLE + " (the dense ExponentPairing constructor)",
    "torus.ExponentPairing.entries": _BENCHMARK + "session.py, the witness oracle",
    "torus.ExponentPairing.pair": _ORACLE + " (the dense pairing of two vectors)",
    "torus.check_torus_isomorphism": _ORACLE + " (the theta checks of one choice)",
    "torus.check_torus_isomorphism.image": _ORACLE + " (the theta checks of one choice)",
}


def functions() -> dict[tuple, str]:
    """Every def of src/qweyl, keyed like a traced frame's code object by
    (file, first line, name), with its dotted name in the package."""
    out = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                named = not const.co_name.startswith("<")  # no lambda or comprehension
                if named and const.co_flags & inspect.CO_OPTIMIZED:  # no class body
                    key = (const.co_filename, const.co_firstlineno, const.co_name)
                    out[key] = prefix + const.co_name
                walk(const, prefix + const.co_name + "." if named else prefix)

    for module in MODULES:
        path = module.__file__
        code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
        walk(code, module.__name__.removeprefix("qweyl.") + ".")
    return out


def command_matrix(tmp_path) -> list[list[str]]:
    """The argument lists of main: every command form on each spec, the
    output format alternating by spec, then a zero budget and main's paths
    to a config error, a missing file, a usage error and the help text."""
    configs = [{"n": n, "kind": kind} for kind in KINDS if kind != "custom" for n in range(1, 5)]
    # the README custom spec, once as printed and once with q_1 spelled
    # otherwise, which the report writes back canonically
    spelled = copy.deepcopy(README_CUSTOM)
    spelled["custom"]["q"][0] = "q*q"
    configs += [README_CUSTOM, spelled]
    runs = []
    for i, cfg in enumerate(configs):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(cfg))
        n = cfg["n"]
        forms = [("verify",), ("report",), ("dim",), ("bound",), ("growth", "5"), ("skew",),
                 ("skew", "1", "3"), ("nf", f"x{n} x{n} y{n} y1 x1 x1 y1"),
                 ("mul", f"x{n} x1", f"y{n} y1")]
        for command, *args in forms:
            argv = ["--config", str(path), "--command", command, ("--json", "--text")[i % 2]]
            runs.append(argv + (["--args", *args] if args else []))
    n4 = str(tmp_path / "spec3.json")  # generic, n = 4
    big = tmp_path / "n112.json"
    big.write_text(json.dumps({"n": 112, "kind": "generic"}))
    runs += [["--config", n4, "--command", command, "--budget", "0"]
             for command in ("verify", "report")]
    runs += [["--config", str(big), "--command", "bound"],
             ["--config", str(tmp_path / "absent.json"), "--command", "dim"],
             ["--config", n4, "--command", "nf", "--args", "x9"],
             ["--help"]]
    return runs


def reached_by(runs) -> tuple[set, list[int]]:
    """The (file, first line, name) of every code object that runs of main
    call, and their exit codes."""
    # a functools.cache hit calls no Python frame: start from empty caches
    for cached in (pbw._layout, scalars._layout):
        cached.cache_clear()
    seen = set()

    def trace(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno, code.co_name))
        # returning None traces no line of the frame, only its call

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
    finally:
        sys.settrace(previous)
    return seen, codes


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    runs = command_matrix(tmp_path)
    seen, codes = reached_by(runs)
    # every command form ran to its end: 0, and 2 for the four error paths
    assert codes == [0] * (len(runs) - 4) + [2, 2, 2, 0]
    every = functions()
    unreached = {name for key, name in every.items() if key not in seen}
    assert sorted(unreached - set(ALLOWED)) == []
    # the list stays exact: no entry that a command reaches or that names
    # no function
    assert sorted(set(ALLOWED) - unreached) == []


def test_the_gate_sees_every_kind_of_def():
    names = set(functions().values())
    # a function, a method, a property, a cached property, a classmethod,
    # a nested function and a function under functools.cache
    assert {"cli.run", "scalars.Scalar.__mul__", "scalars.ParameterLattice.symbols",
            "presentation.AlgebraSpec.q", "dimension.Witness.units",
            "torus.check_torus_isomorphism.image", "pbw._layout"} <= names
    # no lambda, comprehension or class body
    assert not [name for name in names if "<" in name]
    assert "scalars.Scalar" not in names and "presentation.AlgebraSpec" not in names
