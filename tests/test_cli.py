"""Command-line driver: commands, exit codes, report schema round-trip."""

import dataclasses
import itertools
import json
import math
import random
import sys

import pytest

from qweyl import cli, pbw, presentation, scalars, torus
from qweyl.cli import main, run
from qweyl.pbw import verify_ambiskew
from qweyl.presentation import KINDS, build_spec, casimir, spec_from_config
from qweyl.reporting import all_ok, check
from qweyl.scalars import ExponentOverflowError


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_bound_command_generic_p1():
    rep = run({"n": 3, "kind": "generic-p1"}, "bound")
    assert rep.ok
    assert rep.values["d"] == 3 and rep.values["bound"] == 3
    assert rep.values["gkdim_algebra"] == 6


def test_dim_command_symplectic_rational():
    rep = run({"n": 2, "kind": "symplectic"}, "dim")
    assert rep.ok and rep.values["d"] == 2
    assert rep.spec == {"n": 2, "kind": "symplectic"}


def test_nf_and_mul_commands():
    rep = run({"n": 2, "kind": "generic"}, "nf", ["x1 y1"])
    assert rep.values["normal_form"] == "(q1)/(1)·y1 x1"
    rep = run({"n": 2, "kind": "generic"}, "mul", ["x1", "y1"])
    assert rep.values["product"] == "(q1)/(1)·y1 x1"


def test_growth_command():
    rep = run({"n": 1, "kind": "generic"}, "growth", ["4"])
    assert rep.values["growth_counts"] == [1, 3, 6, 10, 15]
    assert rep.values["growth_exponent"] == pytest.approx(2.0)


def test_skew_command_forms():
    rep = run({"n": 2, "kind": "generic"}, "skew", ["2", "3"])
    assert rep.ok and len(rep.checks) == 2
    rep = run({"n": 2, "kind": "generic"}, "skew", ["1", "4", "k1_base"])
    assert rep.ok and len(rep.checks) == 1


def test_verify_command_all_pass():
    rep = run({"n": 2, "kind": "symplectic"}, "verify")
    assert rep.ok
    names = {c["name"] for c in rep.checks}
    assert any(n.startswith("theta[") for n in names)
    assert any(n.startswith("ambiskew-") for n in names)
    assert rep.checks == sorted(rep.checks, key=lambda c: c["name"])


def test_verify_ambiskew_presets():
    for kind in ("generic", "euclidean"):
        spec = build_spec(3, kind)
        for m in (1, 2):
            assert all_ok(verify_ambiskew(spec, m))


@pytest.mark.parametrize(
    "field, failing",
    [
        ("alpha", {"ambiskew-alpha-u", "ambiskew-delta"}),
        ("c", {"ambiskew-delta", "ambiskew-casimir"}),
        ("rho", {"ambiskew-delta"}),
        ("beta", {"ambiskew-beta"}),
    ],
)
def test_ambiskew_checks_fail_on_corrupted_step(monkeypatch, field, failing):
    # scale one entry of the step data by a parameter symbol; the checks that
    # use it must fail and the others still pass
    spec = build_spec(3, "generic")
    original = pbw.ambiskew_step

    def corrupted(spec, m):
        step = original(spec, m)
        g = spec.lattice.symbol("g12")
        value = getattr(step, field)
        if isinstance(value, tuple):
            value = (value[0] * g,) + value[1:]
        else:
            value = value * g
        return dataclasses.replace(step, **{field: value})

    monkeypatch.setattr(pbw, "ambiskew_step", corrupted)
    for m in (1, 2):
        checks = verify_ambiskew(spec, m)
        failed = {c["name"] for c in checks if c["status"] != "pass"}
        assert failed == {f"{name}({m})" for name in failing}


def test_report_budget_cuts_the_torus_loop():
    # with no time left, report skips all 2^n torus choices in one entry,
    # and likewise the n normality indices and the bound section
    rep = run({"n": 8, "kind": "generic"}, "report", budget=0)
    skipped = {c["name"]: c["detail"] for c in rep.checks if c["status"] == "skipped"}
    assert skipped["torus-isomorphism"] == "budget exhausted after 0 of 256 choices"
    assert skipped["normality"] == "budget exhausted after 0 of 8 indices"
    assert skipped["bound"] == "budget exhausted"
    names = {c["name"] for c in rep.checks}
    assert not [name for name in names if name.startswith("theta[")]
    assert "z1*y1" not in names and "bound-determinate" not in names
    assert "dim" not in rep.values and "bound" not in rep.values
    assert rep.ok
    # a budget that is never reached changes nothing
    a = run({"n": 2, "kind": "generic"}, "report", budget=1e9).to_json()
    b = run({"n": 2, "kind": "generic"}, "report").to_json()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_verify_budget_cuts_normality_and_the_torus_loop():
    rep = run({"n": 8, "kind": "generic"}, "verify", budget=0)
    skipped = {c["name"]: c["detail"] for c in rep.checks if c["status"] == "skipped"}
    assert skipped == {
        "normality": "budget exhausted after 0 of 8 indices",
        "torus-isomorphism": "budget exhausted after 0 of 256 choices",
    }
    names = {c["name"] for c in rep.checks}
    assert "z1*y1" not in names and not [n for n in names if n.startswith("theta[")]
    assert "xx(1,2)" in names and "ambiskew-beta(7)" in names
    assert rep.ok
    # a budget that is never reached changes nothing
    a = run({"n": 3, "kind": "generic"}, "verify", budget=1e9).to_json()
    b = run({"n": 3, "kind": "generic"}, "verify").to_json()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_report_round_trip():
    rep = run({"n": 1, "kind": "heisenberg"}, "report")
    assert rep.ok
    assert json.loads(json.dumps(rep.to_json())) == rep.to_json()


def test_report_includes_growth_past_n2():
    # growth is in closed form, so n = 10 carries it too
    for n in (3, 4, 10):
        rep = run({"n": n, "kind": "generic"}, "report")
        assert rep.ok
        assert not [c for c in rep.checks if c["status"] == "skipped"]
        assert rep.values["growth_counts"] == [math.comb(m + 2 * n, 2 * n) for m in range(5)]
        assert rep.values["growth_window"] == [2, 4]


def test_main_exit_codes(tmp_path, capsys):
    ok_cfg = _write(tmp_path, {"n": 3, "kind": "generic-p1"})
    assert main(["--config", ok_cfg, "--command", "bound"]) == 0
    out = capsys.readouterr().out
    assert "bound: 3" in out and "status: ok" in out

    assert main(["--config", ok_cfg, "--command", "report", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"spec", "checks", "values", "elapsed_ms"} <= set(data)

    bad_n = _write(tmp_path, {"n": 0, "kind": "generic"}, "bad_n.json")
    assert main(["--config", bad_n, "--command", "dim"]) == 2
    assert "field 'n'" in capsys.readouterr().err

    missing_kind = _write(tmp_path, {"n": 2}, "nokind.json")
    assert main(["--config", missing_kind, "--command", "dim"]) == 2
    assert "field 'kind'" in capsys.readouterr().err

    broken = _write(tmp_path, '{"n": 2,', "broken.json")
    assert main(["--config", broken, "--command", "dim"]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    assert main(["--config", str(tmp_path / "absent.json"), "--command", "dim"]) == 2
    capsys.readouterr()

    assert main(["--config", ok_cfg, "--command", "nf"]) == 2  # missing word arg
    assert "usage error" in capsys.readouterr().err

    # growth is bounded by N alone, at every n
    assert main(["--config", ok_cfg, "--command", "growth", "--args", "99", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["growth_counts"][99] == math.comb(105, 6)
    n4_cfg = _write(tmp_path, {"n": 4, "kind": "generic-p1"}, "n4.json")
    assert main(["--config", n4_cfg, "--command", "growth", "--args", "9"]) == 0
    capsys.readouterr()
    too_far = str(pbw.GROWTH_MAX_N + 1)
    assert main(["--config", n4_cfg, "--command", "growth", "--args", too_far]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "over the limit" in err
    assert main(["--config", ok_cfg, "--command", "growth", "--args", "0"]) == 2
    assert "N must be positive" in capsys.readouterr().err

    # --height is not a flag: the dimension takes no search height
    for command in ("dim", "bound", "report"):
        assert main(["--config", ok_cfg, "--command", command, "--height", "1"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--height" in err

    # commands that take no arguments refuse stray ones, such as --args 5,
    # as usage errors
    for command in ("verify", "dim", "bound", "report"):
        assert main(["--config", ok_cfg, "--command", command, "--args", "5"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and f"{command} takes no arguments" in err


@pytest.mark.parametrize("payload", [
    pytest.param(b'{"n": 2, "kind": "gen\xff"}', id="not-utf8"),
    pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit"),
    pytest.param(b'{"n": 1' + b"0" * 5000 + b', "kind": "generic"}',
                 id="integer-past-the-digit-limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="Python before 3.10.7 reads any integer")),
])
def test_main_reports_undecodable_config_files_as_config_errors(tmp_path, capsys, payload):
    path = tmp_path / "cfg.json"
    path.write_bytes(payload)
    assert main(["--config", str(path), "--command", "bound"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {path} is not valid JSON: ")
    assert "Traceback" not in captured.err


def test_main_rejects_unknown_command(tmp_path, capsys):
    cfg = _write(tmp_path, {"n": 1, "kind": "generic"})
    assert main(["--config", cfg, "--command", "bogus"]) == 2
    capsys.readouterr()


def test_custom_spec_through_cli(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        {
            "n": 2,
            "kind": "custom",
            "custom": {
                "symbols": ["q", "r"],
                "q": ["q^2", "q^2"],
                "p": ["1", "r"],
                "gamma": [["1", "r^-1"], ["r", "1"]],
            },
        },
    )
    assert main(["--config", cfg, "--command", "verify"]) == 0
    capsys.readouterr()
    bad = _write(
        tmp_path,
        {
            "n": 2,
            "kind": "custom",
            "custom": {
                "symbols": ["q"],
                "q": ["q", "q"],
                "p": ["q", "1"],
                "gamma": [["1", "1"], ["1", "1"]],
            },
        },
        "bad_custom.json",
    )
    assert main(["--config", bad, "--command", "verify"]) == 2
    assert "field 'p[0]'" in capsys.readouterr().err
    strings = _write(
        tmp_path,
        {
            "n": 2,
            "kind": "custom",
            "custom": {"symbols": "ab", "q": "ab", "p": ["1", "1"], "gamma": ["11", "11"]},
        },
        "string_custom.json",
    )
    assert main(["--config", strings, "--command", "dim"]) == 2
    assert "field 'custom.symbols'" in capsys.readouterr().err


def test_a_bad_custom_gamma_is_a_config_error_for_every_command(tmp_path, capsys):
    # a custom spec checks gamma at load, so even bound and dim, which read
    # q and p only, refuse a bad entry
    custom = {"symbols": ["a", "b"], "q": ["a", "a", "b"], "p": ["b", "1", "a"],
              "gamma": [["1", "a", "b"], ["a^-1", "1", "a*b"], ["b^-1", "a^-1*b^-1", "1"]]}
    unknown = dict(custom, gamma=[["1", "a", "b"], ["a^-1", "1", "c"], ["b^-1", "1", "1"]])
    skewed = dict(custom, gamma=[["1", "a", "b"], ["a^-1", "1", "a*b"], ["b^-1", "a", "1"]])
    for bad, field in ((unknown, "custom.gamma[1][2]"), (skewed, "gamma[1][2]")):
        cfg = _write(tmp_path, {"n": 3, "kind": "custom", "custom": bad})
        for command in cli.COMMANDS:
            assert main(["--config", cfg, "--command", command]) == 2, (field, command)
            assert f"config error in field '{field}'" in capsys.readouterr().err


def test_colliding_preset_symbols_exit_2(tmp_path, capsys):
    # generic n = 112 names g_{1,112} and g_{11,12} both g1112
    cfg = _write(tmp_path, {"n": 112, "kind": "generic"})
    assert main(["--config", cfg, "--command", "bound"]) == 2
    err = capsys.readouterr().err
    assert "config error in field 'n'" in err and "g1112" in err
    assert len(err.encode()) < 1000


def test_q_config_field_exits_2(tmp_path, capsys):
    # a top-level q once named a rational value that changed no output
    cfg = _write(tmp_path, {"n": 2, "kind": "symplectic", "q": "2"})
    assert main(["--config", cfg, "--command", "dim"]) == 2
    assert "field 'q': unknown config field" in capsys.readouterr().err


def test_non_identifier_symbol_exits_2(tmp_path, capsys):
    # the symbol "1" renders like the unit, so the config would not round-trip
    cfg = _write(
        tmp_path,
        {
            "n": 1,
            "kind": "custom",
            "custom": {"symbols": ["1", "b"], "q": ["b"], "p": ["1^1"], "gamma": [["1"]]},
        },
    )
    assert main(["--config", cfg, "--command", "verify"]) == 2
    assert "field 'custom.symbols'" in capsys.readouterr().err


def test_exponent_past_the_field_exits_2(tmp_path, capsys):
    custom = {"symbols": ["a", "b"], "q": ["a"], "p": ["b"], "gamma": [["1"]]}
    cfg = _write(tmp_path, {"n": 1, "kind": "custom", "custom": custom})
    assert main(["--config", cfg, "--command", "verify"]) == 0
    capsys.readouterr()
    cfg = _write(tmp_path, {"n": 1, "kind": "custom",
                            "custom": dict(custom, p=[f"b^{2**31}"])})
    assert main(["--config", cfg, "--command", "verify"]) == 2
    assert "field 'custom.p[0]'" in capsys.readouterr().err


def test_swap_coefficient_overflows_only_when_its_exponent_does(tmp_path, capsys):
    # each swap coefficient is packed from its exponent sum: in spec A the
    # x2*x1 swap q_1^-1 p_2 gamma_21 = a^M stays in the field though the
    # partial product q_1^-1 p_2 = a^2M does not, so A rewrites every word;
    # spec B, A with gamma flipped, swaps x2*x1 by a^3M and refuses every word
    m = 2**31 - 1
    gamma = [["1", f"a^{m}"], [f"a^-{m}", "1"]]
    custom = {"symbols": ["a", "b"], "q": [f"a^-{m}", "b"], "p": ["b", f"a^{m}"],
              "gamma": gamma}
    a = {"n": 2, "kind": "custom", "custom": custom}
    b = {"n": 2, "kind": "custom", "custom": dict(custom, gamma=[row[::-1] for row in gamma[::-1]])}
    assert run(a, "nf", ["x2 x1"]).values["normal_form"] == f"(a^{m})/(1)·x1 x2"
    assert run(a, "nf", ["x1 y1"]).values["normal_form"] == f"(a^-{m})/(1)·y1 x1"
    cfg = _write(tmp_path, a)
    assert main(["--config", cfg, "--command", "nf", "--args", "x2 x1"]) == 0
    capsys.readouterr()
    # the relation checks still multiply Scalars, through a^2M
    assert main(["--config", cfg, "--command", "verify"]) == 1
    assert f"leaves ±{m}" in capsys.readouterr().err
    for word in ("x2 x1", "y1", "x1 y1", "y2 y1"):
        with pytest.raises(ExponentOverflowError):
            run(b, "nf", [word])
    cfg = _write(tmp_path, b)
    assert main(["--config", cfg, "--command", "nf", "--args", "x2 x1"]) == 1
    assert f"leaves ±{m}" in capsys.readouterr().err


def test_bad_generator_in_args_is_a_usage_error(tmp_path, capsys):
    # no config field is wrong, so nf and mul report a usage error (exit 2)
    cfg = _write(tmp_path, {"n": 2, "kind": "generic"})
    for command, args, bad in (("nf", ["x9 y1"], "x9"), ("mul", ["x1", "z1"], "z1"),
                               ("mul", ["y0 x1", "y1"], "y0")):
        assert main(["--config", cfg, "--command", command, "--args", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and repr(bad) in err, err
    # library callers still get a ConfigError
    with pytest.raises(presentation.ConfigError):
        pbw.normal_form(build_spec(2, "generic"), "x9 y1")


@pytest.mark.parametrize("bad", ["x\u00b2", "x\u0663"], ids=["superscript-two", "arabic-three"])
def test_a_non_ascii_digit_is_a_usage_error(tmp_path, capsys, bad):
    # str.isdigit takes both: int() refused x², and x٣ read as x3
    cfg = _write(tmp_path, {"n": 3, "kind": "generic"})
    assert main(["--config", cfg, "--command", "nf", "--args", f"{bad} y1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and repr(bad) in err, err


def test_skew_usage_errors_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, {"n": 2, "kind": "generic"})
    assert main(["--config", cfg, "--command", "skew", "--args", "1", "2", "xk_y"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert main(["--config", cfg, "--command", "skew", "--args", "one", "2"]) == 2
    capsys.readouterr()
    assert main(["--config", cfg, "--command", "skew", "--args", "2", "129"]) == 2
    assert "limit of 128" in capsys.readouterr().err


def test_report_is_deterministic():
    a = run({"n": 2, "kind": "euclidean"}, "report")
    b = run({"n": 2, "kind": "euclidean"}, "report")
    assert a.checks == b.checks
    assert a.values == b.values


def test_report_passes_on_every_builtin_kind():
    kinds = ("generic", "generic-p1", "generic-q1", "symplectic", "euclidean",
             "heisenberg", "graded-weyl")
    for kind in kinds:
        for n in (1, 2, 3):
            rep = run({"n": n, "kind": kind}, "report")
            assert rep.ok, (kind, n, [c for c in rep.checks if c["status"] == "fail"])


def test_report_text_rendering():
    rep = run({"n": 1, "kind": "generic"}, "dim")
    text = rep.render_text()
    assert "status: ok" in text
    assert "dimension-witness" in text


# -- one product memo and one standard torus per verify -------------------------

def _never():
    return False


def _fresh(spec):
    """spec with its memo of the identity checks dropped."""
    spec._products = None
    return spec


def _fresh_memo_checks(spec):
    """verify's checks from the library functions, each on a memo of its own."""
    checks = pbw.verify_relations(_fresh(spec))
    for i in range(1, spec.n + 1):
        checks += pbw.verify_normality(_fresh(spec), i)
    for m in range(1, spec.n):
        checks += verify_ambiskew(_fresh(spec), m)
    for choice in itertools.product("xy", repeat=spec.n):
        checks += sorted(torus.check_torus_isomorphism(spec, choice), key=lambda c: c["name"])
    return checks


def test_run_sorts_the_verifiers_own_records(monkeypatch):
    # verify's checks are the records the library verifiers return, sorted by
    # name and otherwise untouched; pass, fail and skipped map as reporting.check
    assert [check("c", ok)["status"] for ok in (True, 1, False, 0, None)] == [
        "pass", "pass", "fail", "fail", "skipped"]
    assert check("c", True) == {"name": "c", "status": "pass", "detail": ""}
    cfg = {"n": 3, "kind": "generic"}
    rep = run(cfg, "verify")
    own = _fresh_memo_checks(build_spec(3, "generic"))
    assert rep.checks == sorted(own, key=lambda c: c["name"])
    assert {"name": "xx(1,2)", "status": "pass", "detail": "x_i x_j relation"} in rep.checks

    original = pbw.ambiskew_step

    def corrupted(spec, m):
        step = original(spec, m)
        g12 = spec.lattice.symbol("g12")
        return dataclasses.replace(step, beta=(step.beta[0] * g12,) + step.beta[1:])

    monkeypatch.setattr(pbw, "ambiskew_step", corrupted)
    rep = run(cfg, "verify")
    assert not rep.ok
    assert [c for c in rep.checks if c["status"] == "fail"] == [
        {"name": f"ambiskew-beta({m})", "status": "fail",
         "detail": "beta multipliers match gamma*alpha^-1"} for m in (1, 2)]
    monkeypatch.undo()

    rep = run(cfg, "verify", budget=0)
    assert rep.ok
    assert [c for c in rep.checks if c["status"] == "skipped"] == [
        {"name": "normality", "status": "skipped",
         "detail": "budget exhausted after 0 of 3 indices"},
        {"name": "torus-isomorphism", "status": "skipped",
         "detail": "budget exhausted after 0 of 8 choices"},
    ]


def _theta(checks):
    return [c for c in checks if c["name"].startswith("theta[")]


def test_verify_emits_the_theta_records_in_name_order():
    # one sorted run for the final sort: choices by tag, pairs by label text,
    # also past n = 9, where (y1,y10) sorts before (y1,y2)
    specs = [build_spec(n, kind) for kind in KINDS if kind != "custom" for n in (1, 2, 3, 4, 5)]
    for spec in specs + [build_spec(10, "generic")]:
        theta = _theta(cli._cmd_verify(spec, [], _never)[0])
        assert len(theta) == 2**spec.n * math.comb(2 * spec.n, 2)
        assert theta == sorted(theta, key=lambda c: c["name"]), spec
    assert [c["name"] for c in theta[:2]] == [  # generic n = 10
        "theta[xxxxxxxxxx](y1,y10)", "theta[xxxxxxxxxx](y1,y2)"]


def test_a_budget_cut_keeps_the_first_choices_in_name_order():
    spec = build_spec(3, "generic")
    n = spec.n
    choices = list(itertools.product("xy", repeat=n))
    for k in range(2**n + 1):
        calls = []

        def over_budget():
            # false at each of the n normality indices and the first k choices
            calls.append(None)
            return len(calls) > n + k

        checks, _ = cli._cmd_verify(spec, [], over_budget)
        kept = [c for ch in choices[:k]
                for c in sorted(torus.check_torus_isomorphism(spec, ch), key=lambda c: c["name"])]
        assert _theta(checks) == kept, k
        skipped = [c for c in checks if c["status"] == "skipped"]
        if k == 2**n:
            assert skipped == []
        else:
            assert skipped == [{"name": "torus-isomorphism", "status": "skipped",
                                "detail": f"budget exhausted after {k} of {2**n} choices"}]


def test_verify_shares_one_memo_and_one_standard_torus(monkeypatch):
    memos, loc_builds = [], []
    original_products = pbw._Products
    original_localized = torus.localized_torus

    class Counted(original_products):
        def __init__(self, spec):
            memos.append(spec)
            super().__init__(spec)

    def counted_localized(spec, choice):
        loc_builds.append(tuple(choice))
        return original_localized(spec, choice)

    monkeypatch.setattr(pbw, "_Products", Counted)
    monkeypatch.setattr(torus, "localized_torus", counted_localized)
    for n in (1, 3):
        for command in ("verify", "report"):
            memos.clear(), loc_builds.clear()
            cli.run({"n": n, "kind": "generic"}, command)
            assert loc_builds == [("y",) * n]  # the standard torus, once
            assert len(memos) == 1  # growth folds nothing
    loc_builds.clear()
    cli.run({"n": 3, "kind": "generic"}, "dim")
    assert loc_builds == []  # dim reads its entries from the exponents
    spec = build_spec(2, "generic")
    assert torus.standard_torus(spec) is torus.standard_torus(spec)
    # library calls and the identity checks of a spec share one memo
    memos.clear()
    x1, y1 = pbw.generator(spec, "x1"), pbw.generator(spec, "y1")
    pbw.multiply(spec, x1, y1), pbw.multiply(spec, x1, y1), pbw.normal_form(spec, "x1 y1")
    assert memos == [spec]
    pbw.verify_relations(spec), pbw.verify_normality(spec, 2), verify_ambiskew(spec, 1)
    pbw.skew_power_identity(spec, 2, 3, "xk_y")
    assert memos == [spec]


def _count_casimir_misses(monkeypatch):
    """Patch pbw._Products so that each memo logs itself in `memos` and the
    index i of each casimir(i) call that misses its z_i memo in `misses`;
    the memo builds z_i and every prefix below it that it lacks, each with
    one subtraction q_l - p_l.  Returns (memos, misses)."""
    memos, misses = [], []

    class Counted(pbw._Products):
        def __init__(self, spec):
            memos.append(self)
            super().__init__(spec)

        def casimir(self, i):
            if i not in self.casimirs:
                misses.append(i)
            return super().casimir(i)

    monkeypatch.setattr(pbw, "_Products", Counted)
    return memos, misses


def test_report_shares_one_memo_across_its_identity_checks(monkeypatch):
    # verify and the skew suite of one report read the memo cached on the
    # spec, and growth folds nothing: one _Products, and each z_i built once
    memos, calls = _count_casimir_misses(monkeypatch)
    for n in (2, 3, 4):
        memos.clear(), calls.clear()
        rep = run({"n": n, "kind": "generic"}, "report")
        assert rep.ok and len(memos) == 1
        assert rep.values["growth_counts"] == [math.comb(m + 2 * n, 2 * n) for m in range(5)]
        assert sorted(calls) == list(range(1, n + 1))
        assert sorted(memos[0].casimirs) == list(range(n + 1))


def test_verify_allocates_few_scalars_and_negates_none_of_its_sides(monkeypatch):
    # every identity subtracts its other side term by term (pbw._Products.sub),
    # and a cancellation builds no Scalar; the code that negated lambda, c
    # and each subtracted term made 648 Scalars at n=4 and 2,712 at n=8
    made, negated = [], []
    make, negate = scalars._scalar, scalars.Scalar.__neg__
    monkeypatch.setattr(scalars, "_scalar", lambda *a: made.append(1) or make(*a))
    monkeypatch.setattr(scalars.Scalar, "__neg__",
                        lambda self: negated.append(1) or negate(self))
    for n, most in ((4, 450), (8, 1900)):
        made.clear(), negated.clear()
        assert run({"n": n, "kind": "generic"}, "verify").ok
        assert len(made) <= most and len(negated) <= n


def test_shared_memo_checks_match_fresh_memo_checks(custom_config):
    specs = [build_spec(n, kind) for kind in KINDS if kind != "custom" for n in (1, 2, 3, 4)]
    rng = random.Random(7)
    specs += [spec_from_config(custom_config(rng, n, k)) for n in (2, 3, 4) for k in (2, 3)]
    for spec in specs:
        shared, _ = cli._cmd_verify(spec, [], _never)
        assert shared == _fresh_memo_checks(spec), spec
        assert all_ok(shared)


def test_shared_memo_fails_where_fresh_memos_fail():
    # scale the x3*x1 swap by g12 in a copy of the rewrite rules: the same
    # relation and normality checks must fail with and without the shared memo
    spec = build_spec(3, "generic")
    rules = [list(row) for row in pbw._packed_rules(spec)]
    h, g = spec.x_index(3), spec.x_index(1)
    (c, a, b), = rules[h][g]
    rules[h][g] = ((c * spec.lattice.symbol("g12"), a, b),)
    spec._packed_rules = rules
    shared, _ = cli._cmd_verify(spec, [], _never)
    failed = {c["name"] for c in shared if c["status"] != "pass"}
    assert "xx(1,3)" in failed
    assert failed == {c["name"] for c in _fresh_memo_checks(spec) if c["status"] != "pass"}


def test_verify_folds_each_monomial_pair_once_and_sums_no_casimir_commutator(monkeypatch):
    # the checks of one verify read every product of two monomials from the
    # shared pair memo, folded on its first miss only, form no sum with a
    # product z_a*z_b (those verdicts are derived from the normality laws),
    # and never build an element through multiply or normal_form; nor does
    # the skew suite.  The normality laws are prefix sums that call combine
    # directly, so combine is hooked as well as vanishes.
    n = 3
    spec = build_spec(n, "generic")
    zs = [pbw._terms(casimir(spec, j)) for j in range(1, n + 1)]
    unit = pbw._layout(n).unit
    memos, calls, misses, commutators, with_z = [], [], [], [], []

    class Counted(pbw._Products):
        def __init__(self, spec_):
            memos.append(self)
            super().__init__(spec_)

        def pair(self, mf, mg):
            calls.append((mf, mg))
            if (mf, mg) not in self.pairs:
                misses.append((mf, mg))
            return super().pair(mf, mg)

        def vanishes(self, terms, h=None):
            terms = list(terms)
            commutators.extend((zs.index(f), zs.index(g)) for _, f, g, _ in terms
                               if f in zs and g in zs)
            return super().vanishes(terms, h)

        def combine(self, terms):
            terms = list(terms)
            commutators.extend((zs.index(f), zs.index(g)) for _, f, g, _ in terms
                               if f in zs and g in zs)
            with_z.extend(f for _, f, _, _ in terms if f in zs)
            return super().combine(terms)

    def refuse(*args, **kwargs):
        raise AssertionError("an identity check called multiply or normal_form")

    monkeypatch.setattr(pbw, "multiply", refuse)
    monkeypatch.setattr(pbw, "normal_form", refuse)
    # each extension step reads x_{m+1} y_{m+1} once, its only pair product
    new_pairs = [(unit[spec.x_index(m + 1)], unit[spec.y_index(m + 1)]) for m in range(1, n)]
    for m, key in enumerate(new_pairs, 1):
        spec._products = Counted(spec)
        assert all_ok(verify_ambiskew(spec, m))
        assert calls == misses == [key]
        for log in (calls, misses, memos):
            log.clear()
    monkeypatch.setattr(pbw, "_Products", Counted)
    rep = run({"n": n, "kind": "generic"}, "verify")
    assert rep.ok and len(memos) == 1
    # each pair is folded on its first miss only; a product m*g by one
    # generator may already be in the memo, stored by a fold under (m, unit[g])
    stored = set(memos[0].pairs)
    assert len(calls) > len(misses) == len(set(misses))
    assert set(misses) <= set(calls) <= stored
    assert all(mg in unit for _, mg in stored - set(misses))
    assert commutators == []
    assert all(z in with_z for z in zs)  # the hook sees every normality sum's z_i
    assert {c["name"] for c in rep.checks} >= {f"z{a}*z{b}" for a in range(1, n + 1)
                                               for b in range(1, n + 1)}
    assert all(misses.count(key) == 1 for key in new_pairs)
    assert run({"n": n, "kind": "generic"}, "skew").ok
    assert run({"n": n, "kind": "generic"}, "skew", ["3", "5"]).ok


def test_verify_builds_each_casimir_once(monkeypatch):
    # every z_i of one verify comes from the shared memo: n builds, where the
    # relation and extension-step checks once built their own, and none
    # through presentation.casimir, the oracle of the memo's z_i
    memos, calls = _count_casimir_misses(monkeypatch)
    oracle = []
    monkeypatch.setattr(presentation, "casimir", lambda spec, i: oracle.append(i))
    for n in (3, 5, 7):
        memos.clear(), calls.clear()
        rep = run({"n": n, "kind": "generic"}, "verify")
        assert rep.ok
        assert sorted(calls) == list(range(1, n + 1))
        assert sorted(memos[0].casimirs) == list(range(n + 1))
    assert oracle == []


def test_skew_builds_each_casimir_once(monkeypatch):
    # the skew suite and a single skew command each share one memo, so every
    # z_{i-1} is built once: n - 1 builds, where each identity built its own
    memos, calls = _count_casimir_misses(monkeypatch)
    for n in (3, 5):
        memos.clear(), calls.clear()
        rep = run({"n": n, "kind": "generic"}, "skew")
        assert rep.ok
        assert sorted(calls) == list(range(1, n))
    memos.clear(), calls.clear()
    rep = run({"n": 3, "kind": "generic"}, "skew", ["3", "2"])
    assert rep.ok and [c["name"] for c in rep.checks] == ["skew-x_yk(i=3,k=2)",
                                                          "skew-xk_y(i=3,k=2)"]
    assert calls == [2]
    # the one miss of z_2 stores its prefix z_1 on the way
    assert sorted(memos[0].casimirs) == [0, 1, 2]
