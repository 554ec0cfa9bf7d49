"""Spec construction, presets, rewrite rules, Casimir elements, extension steps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl.pbw import PBWElement, multiply, normal_form
from qweyl.presentation import (
    ConfigError,
    ambiskew_step,
    build_spec,
    casimir,
    rewrite_rules,
    rule_table,
    spec_from_config,
    spec_to_config,
)


def test_symplectic_preset_values():
    spec = build_spec(2, "symplectic")
    lat = spec.lattice
    one = lat.one()
    assert spec.p == (one, one)
    assert spec.q == (lat.monomial({"q": -2}),) * 2
    assert spec.gamma[0][1] == lat.symbol("q")
    assert spec.gamma[1][0] == lat.monomial({"q": -1})


def test_euclidean_preset_values():
    spec = build_spec(2, "euclidean")
    lat = spec.lattice
    assert spec.q == (lat.one(), lat.one())
    assert spec.p == (lat.monomial({"q": -2}),) * 2
    assert spec.gamma[0][1] == lat.monomial({"q": -1})


def test_heisenberg_preset_values():
    spec = build_spec(3, "heisenberg")
    lat = spec.lattice
    assert all(qi == lat.one() for qi in spec.q)
    assert all(pi == lat.monomial({"q": 2}) for pi in spec.p)
    assert spec.gamma[0][2] == lat.symbol("q")


def test_generic_n1_lattice():
    spec = build_spec(1, "generic")
    assert spec.lattice.symbols == ("q1", "p1")
    assert spec.gamma == ((spec.lattice.one(),),)


def test_graded_weyl_matches_generic_p1():
    a = build_spec(3, "graded-weyl")
    b = build_spec(3, "generic-p1")
    assert a.lattice == b.lattice
    assert a.q == b.q and a.p == b.p and a.gamma == b.gamma


def test_gamma_antisymmetric_on_all_presets():
    for kind in ("generic", "generic-p1", "generic-q1", "symplectic", "euclidean",
                 "heisenberg", "graded-weyl"):
        spec = build_spec(3, kind)
        one = spec.lattice.one()
        for i in range(3):
            assert spec.gamma[i][i] == one
            for j in range(3):
                assert spec.gamma[i][j] * spec.gamma[j][i] == one


def test_build_errors():
    # n and kind are validated once, in build_spec, before any custom data
    for n, kind, field in ((0, "generic", "n"), (2, "nonsense", "kind"), (0, "custom", "n")):
        with pytest.raises(ConfigError) as err:
            build_spec(n, kind)
        assert err.value.field == field
    assert err.value.message == "must be a positive integer, got 0"
    with pytest.raises(ConfigError):
        build_spec(2, "generic", q="2")  # no single parameter to specialize
    for bad in ("1", "-1", "0"):
        with pytest.raises(ConfigError) as err:
            build_spec(2, "symplectic", q=bad)
        assert err.value.field == "q"
    assert build_spec(2, "symplectic", q="2").q_value == Fraction(2)
    assert build_spec(2, "symplectic", q="-2/3").q_value == Fraction(-2, 3)


def test_rule_count_and_examples():
    spec = build_spec(2, "generic")
    rules = rewrite_rules(spec)
    # one rule per unordered generator pair
    assert len(rules) == 2 * 2 * (2 * 2 - 1) // 2 == 6
    lat = spec.lattice
    by_left = {r.left: r.result for r in rules}
    q1 = lat.symbol("q1")
    assert by_left[("x1", "y1")] == PBWElement(2, {(1, 1, 0, 0): q1})
    expected = PBWElement(
        2,
        {
            (0, 0, 1, 1): lat.symbol("q2"),
            (1, 1, 0, 0): q1 - lat.symbol("p1"),
        },
    )
    assert by_left[("x2", "y2")] == expected
    coeff = lat.monomial({"q1": -1, "p2": 1, "g12": -1})
    assert by_left[("x2", "x1")] == PBWElement(2, {(0, 1, 0, 1): coeff})
    # every non-inhomogeneous rule is a single scaled monomial
    for r in rules:
        if r.left not in (("x1", "y1"), ("x2", "y2")):
            assert len(r.result.terms) == 1


def test_rule_table_is_cached():
    spec = build_spec(2, "generic")
    assert rule_table(spec) is rule_table(spec)


def test_casimir_values():
    spec1 = build_spec(1, "generic")
    lat = spec1.lattice
    assert casimir(spec1, 1) == PBWElement(
        1, {(1, 1): lat.symbol("q1") - lat.symbol("p1")}
    )
    spec2 = build_spec(2, "generic")
    lat = spec2.lattice
    assert casimir(spec2, 2) == PBWElement(
        2,
        {
            (0, 0, 1, 1): lat.symbol("q2") - lat.symbol("p2"),
            (1, 1, 0, 0): lat.symbol("q1") - lat.symbol("p1"),
        },
    )
    with pytest.raises(ValueError):
        casimir(spec2, 0)
    with pytest.raises(ValueError):
        casimir(spec2, 3)


def test_casimir_symplectic_substitution():
    spec = build_spec(1, "symplectic")
    lat = spec.lattice
    expected = lat.monomial({"q": -2}) - lat.one()
    assert casimir(spec, 1) == PBWElement(1, {(1, 1): expected})


def test_casimir_ladder():
    spec = build_spec(3, "generic")
    for i in range(2, 4):
        diff = casimir(spec, i) - casimir(spec, i - 1)
        step = PBWElement(
            3,
            {
                tuple(
                    1 if g in (spec.y_index(i), spec.x_index(i)) else 0
                    for g in range(6)
                ): spec.q[i - 1] - spec.p[i - 1]
            },
        )
        assert diff == step


def test_ambiskew_step_data():
    spec = build_spec(2, "generic")
    lat = spec.lattice
    step = ambiskew_step(spec, 1)
    assert step.rho == lat.monomial({"q2": -1})
    assert step.alpha_on_x(1) == lat.monomial({"q1": -1, "p2": 1, "g12": -1})
    assert step.alpha_on_y(1) == lat.monomial({"q1": 1, "g12": 1})
    # u = z_1 / c is carried as z_1 = (q_1 - p_1) y_1 x_1 and c = p_2 - q_2
    assert step.z == PBWElement(2, {(1, 1, 0, 0): lat.symbol("q1") - lat.symbol("p1")})
    assert step.c == lat.symbol("p2") - lat.symbol("q2")
    with pytest.raises(ValueError):
        ambiskew_step(spec, 2)


def test_ambiskew_beta_matches_closed_form():
    # beta = (conjugation by u) * alpha^{-1}, compared with the direct multipliers
    spec = build_spec(3, "generic")
    step = ambiskew_step(spec, 2)
    for i in (1, 2):
        assert step.beta_on_x(i) == spec.p[2].inverse() * spec.gamma[i - 1][2]
        assert step.beta_on_y(i) == spec.gamma[2][i - 1]


def test_ambiskew_alpha_scales_casimir():
    spec = build_spec(3, "generic")
    for m in (1, 2):
        step = ambiskew_step(spec, m)
        z = casimir(spec, m)
        scaled = {}
        for mono, coeff in z.terms.items():
            c = coeff
            for g, e in enumerate(mono):
                if e:
                    c = c * step.alpha[g] ** e
            scaled[mono] = c
        assert PBWElement(3, scaled) == z.scale(spec.p[m])


def test_delta_is_scaled_casimir():
    # c*(u - rho*alpha(u)) = z_m - rho*alpha(z_m), computed from step data,
    # equals -q_{m+1}^{-1} c z_m and c times the engine commutator of the new
    # generators
    spec = build_spec(2, "generic")
    step = ambiskew_step(spec, 1)
    alpha_z = step.z.scale(spec.p[1])
    delta = step.z - alpha_z.scale(step.rho)
    assert delta == casimir(spec, 1).scale(-spec.q[1].inverse() * step.c)
    y2 = normal_form(spec, "y2")
    x2 = normal_form(spec, "x2")
    comm = multiply(spec, y2, x2) - multiply(spec, x2, y2).scale(step.rho)
    assert comm.scale(step.c) == delta


def test_rational_specialization_evaluates_exactly():
    spec = build_spec(1, "symplectic", q="2")
    values = {"q": Fraction(2)}
    (coeff,) = casimir(spec, 1).terms.values()
    assert coeff.substitute(values) == Fraction(1, 4) - 1
    # the q-integer coefficient of the power formula as a geometric sum,
    # evaluated at q = 2 against the rational quotient
    qi, pi = spec.q[0], spec.p[0]
    geometric = qi**2 + qi * pi + pi**2
    assert geometric * (qi - pi) == qi**3 - pi**3
    assert geometric.substitute(values) == (Fraction(1, 64) - 1) / (Fraction(1, 4) - 1)


def test_custom_spec_and_validation():
    custom = {
        "symbols": ["q", "r"],
        "q": ["q^2", "q^2"],
        "p": ["1", "r"],
        "gamma": [["1", "r^-1"], ["r", "1"]],
    }
    spec = build_spec(2, "custom", custom=custom)
    assert spec.kind == "custom"
    assert spec.p[1] == spec.lattice.symbol("r")

    bad = dict(custom, p=["q^2", "r"])  # p_1 = q_1 is forbidden
    with pytest.raises(ConfigError):
        build_spec(2, "custom", custom=bad)
    bad = dict(custom, gamma=[["1", "r"], ["r", "1"]])  # not antisymmetric
    with pytest.raises(ConfigError):
        build_spec(2, "custom", custom=bad)
    bad = dict(custom, gamma=[["r", "r^-1"], ["r", "1"]])  # diagonal != 1
    with pytest.raises(ConfigError):
        build_spec(2, "custom", custom=bad)


def test_custom_fields_must_be_lists():
    # a string has a length and can be indexed, so it used to be read one
    # character at a time: "ab" as ["a", "b"] and "11" as ["1", "1"]
    custom = {
        "symbols": ["a", "b"],
        "q": ["a", "b"],
        "p": ["1", "1"],
        "gamma": [["1", "1"], ["1", "1"]],
    }
    assert build_spec(2, "custom", custom=custom).lattice.symbols == ("a", "b")
    for key, value, field in (
        ("symbols", "ab", "custom.symbols"),
        ("q", "ab", "custom.q"),
        ("p", "11", "custom.p"),
        ("gamma", "1111", "custom.gamma"),
        ("gamma", ["11", "11"], "custom.gamma[0]"),
        ("gamma", [["1", "1"], "11"], "custom.gamma[1]"),
        ("q", {"0": "a", "1": "b"}, "custom.q"),
        ("symbols", None, "custom.symbols"),
    ):
        with pytest.raises(ConfigError) as err:
            build_spec(2, "custom", custom=dict(custom, **{key: value}))
        assert err.value.field == field, (key, value)
    with pytest.raises(ConfigError) as err:
        build_spec(2, "custom", custom="symbols q p gamma")
    assert err.value.field == "custom"


@pytest.mark.parametrize("symbol", ["1", "a*b", "q^2"])
def test_custom_symbols_must_be_identifiers(symbol):
    # "1" used to be accepted: its monomial renders as "1", which the config
    # round trip reads back as the unit
    custom = {
        "symbols": [symbol, "b"],
        "q": ["b", "b"],
        "p": ["b^2", "b^3"],
        "gamma": [["1", "1"], ["1", "1"]],
    }
    with pytest.raises(ConfigError) as err:
        build_spec(2, "custom", custom=custom)
    assert err.value.field == "custom.symbols"
    assert build_spec(2, "custom", custom=dict(custom, symbols=["a_1", "b"])).lattice.k == 2


def test_config_round_trip():
    for cfg in (
        {"n": 2, "kind": "generic"},
        {"n": 3, "kind": "symplectic", "q": "2"},
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
    ):
        spec = spec_from_config(cfg)
        again = spec_from_config(spec_to_config(spec))
        assert spec_to_config(again) == spec_to_config(spec)
        assert again.q == spec.q and again.p == spec.p and again.gamma == spec.gamma


@st.composite
def _custom_configs(draw):
    """A valid random `custom` config, its monomials spelled in random ways:
    factors in any order, a symbol split over several factors, explicit ^1."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    names = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)
    symbols = draw(st.lists(names, min_size=k, max_size=k, unique=True))
    exps = st.lists(st.integers(-3, 3), min_size=k, max_size=k)

    def spell(e):
        factors = []
        for s, v in zip(symbols, e):
            if v and draw(st.booleans()):
                factors += [f"{s}^{v - 1}", s]  # s^(v-1) * s, with an explicit ^0 or ^1
            elif v:
                factors.append(f"{s}^{v}")
        return "*".join(draw(st.permutations(factors))) or "1"

    q = [draw(exps) for _ in range(n)]
    delta = [draw(exps.filter(any)) for _ in range(n)]
    gamma = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = draw(exps)
            gamma[i][j], gamma[j][i] = spell(g), spell([-v for v in g])
    custom = {
        "symbols": symbols,
        "q": [spell(e) for e in q],
        "p": [spell([a + b for a, b in zip(e, d)]) for e, d in zip(q, delta)],
        "gamma": gamma,
    }
    return {"n": n, "kind": "custom", "custom": custom}


@settings(max_examples=60, deadline=None)
@given(_custom_configs())
def test_config_round_trip_on_random_custom_specs(cfg):
    spec = spec_from_config(cfg)
    canonical = spec_to_config(spec)
    again = spec_from_config(canonical)
    assert spec_to_config(again) == canonical
    assert again.lattice == spec.lattice
    assert again.q == spec.q and again.p == spec.p and again.gamma == spec.gamma
    assert canonical["custom"]["symbols"] == cfg["custom"]["symbols"]


def test_config_field_errors():
    with pytest.raises(ConfigError) as err:
        spec_from_config({"kind": "generic"})
    assert err.value.field == "n"
    with pytest.raises(ConfigError) as err:
        spec_from_config({"n": 2, "kind": "generic", "bogus": 1})
    assert err.value.field == "bogus"
    with pytest.raises(ConfigError) as err:
        spec_from_config({"n": "2", "kind": "generic"})
    assert err.value.field == "n"


def test_generator_names_round_trip():
    spec = build_spec(2, "generic")
    for g in range(4):
        assert spec.gen_index(spec.gen_name(g)) == g
    with pytest.raises(ConfigError):
        spec.gen_index("x3")
    with pytest.raises(ConfigError):
        spec.gen_index("z1")
