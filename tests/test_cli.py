"""Command-line driver: commands, exit codes, report schema round-trip."""

import dataclasses
import itertools
import json
import math
import random

import pytest

from qweyl import cli, pbw, torus
from qweyl.cli import Report, main, run, verify_ambiskew
from qweyl.presentation import KINDS, build_spec, casimir, rule_table, spec_from_config
from qweyl.reporting import all_ok


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
    rep = run({"n": 2, "kind": "symplectic", "q": "2"}, "dim")
    assert rep.ok and rep.values["d"] == 2
    assert rep.spec == {"n": 2, "kind": "symplectic", "q": "2"}


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
    original = cli.ambiskew_step

    def corrupted(spec, m):
        step = original(spec, m)
        g = spec.lattice.symbol("g12")
        value = getattr(step, field)
        if isinstance(value, tuple):
            value = (value[0] * g,) + value[1:]
        else:
            value = value * g
        return dataclasses.replace(step, **{field: value})

    monkeypatch.setattr(cli, "ambiskew_step", corrupted)
    for m in (1, 2):
        checks = verify_ambiskew(spec, m)
        assert {c.name for c in checks if not c.ok} == {f"{name}({m})" for name in failing}


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
    recovered = Report.from_json(json.loads(json.dumps(rep.to_json())))
    assert recovered == rep


def test_report_skips_growth_for_large_n(monkeypatch):
    # n is large when binom(4 + 2n, 2n) passes the growth gate; lower the
    # gate below binom(10, 6) = 210 so that n = 3 counts as large
    monkeypatch.setattr(pbw, "GROWTH_MAX_MONOMIALS", 209)
    rep = run({"n": 3, "kind": "generic"}, "report")
    assert rep.ok
    skipped = [c for c in rep.checks if c["status"] == "skipped"]
    assert [c["name"] for c in skipped] == ["growth"]
    assert "210 monomials" in skipped[0]["detail"]
    assert "growth_counts" not in rep.values


def test_report_includes_growth_past_n2():
    for n in (3, 4):
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

    assert main(["--config", ok_cfg, "--command", "growth", "--args", "99"]) == 2
    assert "usage error" in capsys.readouterr().err
    n4_cfg = _write(tmp_path, {"n": 4, "kind": "generic-p1"}, "n4.json")
    assert main(["--config", n4_cfg, "--command", "growth", "--args", "9"]) == 2
    assert "over the limit" in capsys.readouterr().err
    assert main(["--config", ok_cfg, "--command", "growth", "--args", "0"]) == 2
    assert "N must be positive" in capsys.readouterr().err

    for command in ("dim", "bound", "report"):
        assert main(["--config", ok_cfg, "--command", command, "--height", "0"]) == 2
        assert "--height" in capsys.readouterr().err


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


def test_skew_usage_errors_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, {"n": 2, "kind": "generic"})
    assert main(["--config", cfg, "--command", "skew", "--args", "1", "2", "xk_y"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert main(["--config", cfg, "--command", "skew", "--args", "one", "2"]) == 2
    capsys.readouterr()


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


def _fresh_memo_checks(spec):
    """verify's checks from the library functions, each with its own memo."""
    checks = pbw.verify_relations(spec)
    for i in range(1, spec.n + 1):
        checks += pbw.verify_normality(spec, i)
    for m in range(1, spec.n):
        checks += verify_ambiskew(spec, m)
    for choice in itertools.product("yx", repeat=spec.n):
        checks += torus.check_torus_isomorphism(spec, choice[::-1])
    return checks


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
            if command == "verify":
                assert len(memos) == 1
    loc_builds.clear()
    cli.run({"n": 3, "kind": "generic"}, "dim")
    assert loc_builds == [("y",) * 3]
    spec = build_spec(2, "generic")
    assert torus.standard_torus(spec) is torus.standard_torus(spec)
    # library calls keep a memo per call
    memos.clear()
    x1, y1 = pbw.generator(spec, "x1"), pbw.generator(spec, "y1")
    pbw.multiply(spec, x1, y1), pbw.multiply(spec, x1, y1), pbw.normal_form(spec, "x1 y1")
    assert len(memos) == 3


def test_shared_memo_checks_match_fresh_memo_checks(custom_config):
    specs = [build_spec(n, kind) for kind in KINDS if kind != "custom" for n in (1, 2, 3, 4)]
    rng = random.Random(7)
    specs += [spec_from_config(custom_config(rng, n, k)) for n in (2, 3, 4) for k in (2, 3)]
    for spec in specs:
        shared, _ = cli._cmd_verify(spec, [], 3, _never)
        assert shared == _fresh_memo_checks(spec), spec
        assert all_ok(shared)


def test_shared_memo_fails_where_fresh_memos_fail():
    # scale the x3*x1 swap by g12 in a copy of the rule table: the same
    # relation and normality checks must fail with and without the shared memo
    spec = build_spec(3, "generic")
    table = dict(rule_table(spec))
    key = (spec.x_index(3), spec.x_index(1))
    (c, word), = table[key]
    table[key] = [(c * spec.lattice.symbol("g12"), word)]
    spec._rule_table = table
    shared, _ = cli._cmd_verify(spec, [], 3, _never)
    failed = {c.name for c in shared if not c.ok}
    assert "xx(1,3)" in failed
    assert failed == {c.name for c in _fresh_memo_checks(spec) if not c.ok}


def test_verify_multiplies_each_casimir_pair_once(monkeypatch):
    # the normality checks of one verify take z_a*z_b from the shared memo:
    # n^2 Casimir-by-Casimir products, one per ordered pair, instead of 2n^2
    n = 3
    spec = build_spec(n, "generic")
    zs = [casimir(spec, j) for j in range(1, n + 1)]
    pairs = []
    original = pbw.multiply

    def counted(spec_, f, g, **kwargs):
        if f in zs and g in zs:
            pairs.append((zs.index(f), zs.index(g)))
        return original(spec_, f, g, **kwargs)

    monkeypatch.setattr(pbw, "multiply", counted)
    checks, _ = cli._cmd_verify(spec, [], 3, _never)
    assert all_ok(checks)
    assert sorted(pairs) == list(itertools.product(range(n), repeat=2))

