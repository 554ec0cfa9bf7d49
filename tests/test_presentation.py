"""Spec construction, presets, rewrite rules, Casimir elements, extension steps."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import cli, presentation
from qweyl.dimension import torus_dimension
from qweyl.pbw import PBWElement, _packed_rules, multiply, normal_form, word_monomial
from qweyl.presentation import (
    KINDS,
    SINGLE_PARAMETER_KINDS,
    AlgebraSpec,
    ConfigError,
    ambiskew_step,
    build_spec,
    casimir,
    spec_from_config,
    spec_to_config,
)
from qweyl.scalars import MAX_EXPONENT, ParameterLattice, render_exponents


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
    # a top-level q is no config field, for any kind or value
    for kind in ("generic", "symplectic"):
        for q in ("2", "-2/3", "1", "0"):
            with pytest.raises(ConfigError) as err:
                spec_from_config({"n": 2, "kind": kind, "q": q})
            assert err.value.field == "q"
            assert err.value.message == "unknown config field"
    with pytest.raises(TypeError):
        build_spec(2, "symplectic", q="2")


@pytest.mark.parametrize("kind", ["generic", "generic-p1", "generic-q1", "graded-weyl"])
def test_preset_symbols_collide_from_n112_on(kind):
    # the multi-parameter presets name g_ij g{i}{j}, so g1112 is both
    # g_{1,112} and g_{11,12}: a config error on n, naming the two pairs
    assert build_spec(111, kind).n == 111
    with pytest.raises(ConfigError) as err:
        build_spec(112, kind)
    assert err.value.field == "n"
    assert err.value.message == "preset symbol 'g1112' names both g_{1,112} and g_{11,12}"
    assert len(str(err.value)) < 200


def test_duplicate_custom_symbols_are_named_once():
    custom = {"symbols": ["a", "b", "a"], "q": ["a"], "p": ["b"], "gamma": [["1"]]}
    with pytest.raises(ConfigError) as err:
        build_spec(1, "custom", custom)
    assert err.value.field == "custom.symbols"
    assert err.value.message == "duplicate parameter symbols: ['a']"


def test_rule_count_and_examples():
    spec = build_spec(2, "generic")
    rules = _packed_rules(spec)
    lat = spec.lattice
    by_left = {
        (spec.gen_name(g), spec.gen_name(h)):
            PBWElement(2, {word_monomial(spec, (a, b)): lat.one() if c is None else c
                           for c, a, b in rhs})
        for g, row in enumerate(rules) for h, rhs in enumerate(row) if rhs
    }
    # one rule per unordered generator pair, at rules[h][g] with h > g
    assert len(by_left) == 2 * 2 * (2 * 2 - 1) // 2 == 6
    assert all(bool(rhs) == (h > g) for h, row in enumerate(rules) for g, rhs in enumerate(row))
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
    for left, result in by_left.items():
        if left not in (("x1", "y1"), ("x2", "y2")):
            assert len(result.terms) == 1


def test_rule_table_is_cached():
    spec = build_spec(2, "generic")
    assert _packed_rules(spec) is _packed_rules(spec)


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
    # u = z_1 / c: the step carries c = p_2 - q_2, and z_1 = (q_1 - p_1) y_1 x_1
    assert casimir(spec, 1) == PBWElement(2, {(1, 1, 0, 0): lat.symbol("q1") - lat.symbol("p1")})
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
    alpha_z = casimir(spec, 1).scale(spec.p[1])
    delta = casimir(spec, 1) - alpha_z.scale(step.rho)
    assert delta == casimir(spec, 1).scale(-spec.q[1].inverse() * step.c)
    y2 = normal_form(spec, "y2")
    x2 = normal_form(spec, "x2")
    comm = multiply(spec, y2, x2) - multiply(spec, x2, y2).scale(step.rho)
    assert comm.scale(step.c) == delta


def test_rational_specialization_evaluates_exactly():
    spec = build_spec(1, "symplectic")
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


_AB = ParameterLattice(["a", "b"])


def _refusal(q, p, gamma, n=3):
    """(field, message, str) of the ConfigError of AlgebraSpec(n, ...)."""
    with pytest.raises(ConfigError) as err:
        AlgebraSpec(n, "custom", _AB, q, p, gamma)
    return err.value.field, err.value.message, str(err.value)


def _valid_parameters():
    one, a, b = _AB.one(), _AB.symbol("a"), _AB.symbol("b")
    gamma = [[one] * 3 for _ in range(3)]
    for (i, j), g in {(0, 1): a, (0, 2): b, (1, 2): a * b}.items():
        gamma[i][j], gamma[j][i] = g, g.inverse()
    return [a, a, b], [b, one, a], gamma


def _with(rows, *cells):
    """A copy of the gamma rows with each (i, j, value) of cells written in."""
    rows = [list(row) for row in rows]
    for i, j, value in cells:
        rows[i][j] = value
    return rows


def test_validation_refusals_are_pinned():
    # each refusal of presentation._validate, constructed directly, with the
    # exact field and message; where several entries are wrong, the first one
    # in the scan over i of (q_i, p_i, gamma_ii, gamma_ij for every j, p_i/q_i)
    one, a, b = _AB.one(), _AB.symbol("a"), _AB.symbol("b")
    q, p, g = _valid_parameters()
    AlgebraSpec(3, "custom", _AB, q, p, g)
    mono = "parameter must be a monomial"
    entry = "entry must be a monomial"
    anti = "matrix must be multiplicatively antisymmetric"
    diagonal = "diagonal must be 1"
    torsion = "p_i must differ from q_i by a non-torsion monomial"
    lattice = "parameter must lie in the spec's lattice"
    C = ParameterLattice(["c"])
    c = C.symbol("c")
    cases = [
        ((q[:2], p, g), ("q/p", "need exactly n entries")),
        ((q, p + [a], g), ("q/p", "need exactly n entries")),
        ((q, p, g[:2]), ("gamma", "need a full n x n matrix")),
        ((q, p, [g[0], g[1][:2], g[2]]), ("gamma", "need a full n x n matrix")),
        (([a, a + b, b], p, g), ("q[1]", mono)),
        (([a + a, a, b], p, g), ("q[0]", mono)),
        (([a, a, -b], p, g), ("q[2]", mono)),
        ((q, [_AB.zero(), one, a], g), ("p[0]", mono)),
        ((q, [b, one + one, a], g), ("p[1]", mono)),
        ((q, p, _with(g, (1, 1, a))), ("gamma[1][1]", diagonal)),
        ((q, p, _with(g, (0, 0, a + one))), ("gamma[0][0]", diagonal)),
        ((q, p, _with(g, (0, 2, a + b))), ("gamma[0][2]", entry)),
        ((q, p, _with(g, (1, 2, -(a * b)))), ("gamma[1][2]", entry)),
        ((q, p, _with(g, (2, 1, a * b))), ("gamma[1][2]", anti)),
        ((q, p, _with(g, (2, 0, b.inverse() + a))), ("gamma[0][2]", anti)),
        ((q, p, _with(g, (2, 1, a + b))), ("gamma[1][2]", anti)),
        ((q, p, _with(g, (1, 0, -a.inverse()))), ("gamma[0][1]", anti)),
        ((q, p, _with(g, (2, 1, _AB.zero()))), ("gamma[1][2]", anti)),
        ((q, [b, a, a], g), ("p[1]", torsion)),
        ((q, [b, one, b], g), ("p[2]", torsion)),
        # the first fault of the scan wins
        (([a, a + b, b], p, _with(g, (0, 2, a + b))), ("gamma[0][2]", entry)),
        ((q, [a, one, a], _with(g, (0, 1, a + b))), ("gamma[0][1]", entry)),
        ((q, [a, one, a], _with(g, (2, 0, a + b))), ("gamma[0][2]", anti)),
        ((q, p, _with(g, (1, 0, a + b), (0, 2, a + b))), ("gamma[0][1]", anti)),
        ((q, [a, one, a], _with(g, (1, 1, a))), ("p[0]", torsion)),
        # a parameter on another lattice, refused before the scan, in the
        # order q, p, gamma row by row: its exponents would be read under
        # this spec's symbol indices (c as a)
        (([a, c, b], p, g), ("q[1]", lattice)),
        (([a, a, c], [b, one, c * c], g), ("q[2]", lattice)),
        ((q, [b, one, c], g), ("p[2]", lattice)),
        ((q, p, _with(g, (1, 2, c))), ("gamma[1][2]", lattice)),
        ((q, p, _with(g, (2, 2, C.one()))), ("gamma[2][2]", lattice)),
        (([a, a, c], [c, one, a], g), ("q[2]", lattice)),
        ((q, [b, one, c], _with(g, (0, 1, c))), ("p[2]", lattice)),
        ((q, p, _with(g, (1, 0, c), (0, 2, c))), ("gamma[0][2]", lattice)),
        (([a + b, a, b], [b, one, c], g), ("p[2]", lattice)),
    ]
    for (qs, ps, gamma), (field, message) in cases:
        assert _refusal(qs, ps, gamma) == (field, message, f"{field}: {message}")
    # an equal lattice need not be the same object
    AlgebraSpec(3, "custom", ParameterLattice(["a", "b"]), q, p, g)


def test_validation_takes_no_product_of_parameters():
    # an antisymmetry or p_i != q_i test by product would leave the exponent
    # field of wide parameters (ExponentOverflowError); the comparisons do not
    big = _AB.monomial({"a": MAX_EXPONENT})
    one = _AB.one()
    assert _refusal([big], [big], [[one]], n=1) == (
        "p[0]", "p_i must differ from q_i by a non-torsion monomial",
        "p[0]: p_i must differ from q_i by a non-torsion monomial",
    )
    AlgebraSpec(1, "custom", _AB, [big.inverse()], [big], [[one]])
    assert _refusal([one, one], [big, big.inverse()], [[one, big], [big, one]], n=2)[:2] == (
        "gamma[0][1]", "matrix must be multiplicatively antisymmetric"
    )
    AlgebraSpec(2, "custom", _AB, [one, one], [big, big.inverse()],
                [[one, big], [big.inverse(), one]])


def test_spec_keeps_the_sparse_exponents_it_validated(custom_config):
    specs = [build_spec(n, kind) for n in range(1, 11) for kind in KINDS if kind != "custom"]
    rng = random.Random(20)
    specs += [spec_from_config(custom_config(rng, rng.randint(1, 5), rng.randint(1, 4)))
              for _ in range(200)]
    for spec in specs:
        assert spec.exponents == (
            tuple(s.as_sparse_monomial() for s in spec.q),
            tuple(s.as_sparse_monomial() for s in spec.p),
            tuple(tuple(s.as_sparse_monomial() for s in row) for row in spec.gamma),
        ), spec


def test_specs_and_their_dimension_use_no_dense_exponents(custom_config, monkeypatch):
    # every parameter is packed from its powers and read once as a sparse
    # vector, so neither building a spec nor its torus dimension packs or
    # unpacks a dense exponent vector
    def dense(*args):
        raise AssertionError("dense exponent vector")

    rng = random.Random(12)
    args = [(n, kind, None) for n in range(1, 13) for kind in KINDS if kind != "custom"]
    args += [(cfg["n"], "custom", cfg["custom"])
             for cfg in (custom_config(rng, rng.randint(1, 5), rng.randint(1, 4))
                         for _ in range(40))]

    def dimensions():
        return [(r.lo, r.hi, r.method)
                for r in (torus_dimension(build_spec(*a)) for a in args)]

    expected = dimensions()
    monkeypatch.setattr(ParameterLattice, "pack", dense)
    monkeypatch.setattr(ParameterLattice, "unpack", dense)
    assert dimensions() == expected


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
        {"n": 3, "kind": "symplectic"},
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


# -- the exponent vectors against the Scalar build they replaced --------------

def _scalar_preset(n, kind):
    """(lattice, q, p, gamma) of a preset as Scalars, made by lat.symbol,
    lat.monomial and inverse from the symbols: the oracle of the exponent
    vectors that build_spec writes."""
    if kind in SINGLE_PARAMETER_KINDS:
        lat = ParameterLattice(["q"])
        powers = {"symplectic": (0, -2, 1), "euclidean": (-2, 0, -1), "heisenberg": (2, 0, 1)}
        p_pow, q_pow, g_pow = powers[kind]
        qs = [lat.monomial({"q": q_pow}) for _ in range(n)]
        ps = [lat.monomial({"q": p_pow}) for _ in range(n)]
        upper = lambda i, j: lat.monomial({"q": g_pow})
    else:
        symbols = []
        if kind in ("generic", "generic-p1", "graded-weyl"):
            symbols += [f"q{i}" for i in range(1, n + 1)]
        if kind in ("generic", "generic-q1"):
            symbols += [f"p{i}" for i in range(1, n + 1)]
        symbols += [f"g{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        lat = ParameterLattice(symbols)
        one = lat.one()
        qs = ([lat.symbol(f"q{i}") for i in range(1, n + 1)]
              if kind in ("generic", "generic-p1", "graded-weyl") else [one] * n)
        ps = ([lat.symbol(f"p{i}") for i in range(1, n + 1)]
              if kind in ("generic", "generic-q1") else [one] * n)
        upper = lambda i, j: lat.symbol(f"g{i}{j}")
    gamma = [[lat.one()] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = upper(i, j)
            gamma[i - 1][j - 1], gamma[j - 1][i - 1] = v, v.inverse()
    return lat, qs, ps, gamma


def _scalar_parse(lat, text):
    """A monomial string as a Scalar, by lat.monomial of the summed powers
    of its symbols: the oracle of scalars.parse_exponents."""
    text = text.strip()
    if text == "1":
        return lat.one()
    powers = {}
    for part in text.split("*"):
        part = part.strip()
        if "^" in part:
            name, _, exp = part.partition("^")
            e = int(exp)
        else:
            name, e = part, 1
        if name not in lat.index:
            raise KeyError(f"unknown parameter symbol {name!r} in monomial {text!r}")
        powers[name] = powers.get(name, 0) + e
    return lat.monomial(powers)


def _scalar_custom(n, custom):
    """(lattice, q, p, gamma) of a custom config parsed to Scalars by
    _scalar_parse, raising the ConfigError of the config reader for each
    fault it finds before the parameters reach a spec."""
    for key in ("symbols", "q", "p", "gamma"):
        if key not in custom:
            raise ConfigError(f"custom.{key}", "missing")
        if not isinstance(custom[key], list):
            raise ConfigError(f"custom.{key}", f"expected a list, got {custom[key]!r}")
    lat = ParameterLattice(custom["symbols"])

    def mono(field, text):
        if not isinstance(text, str):
            raise ConfigError(field, f"expected a monomial string, got {text!r}")
        try:
            return _scalar_parse(lat, text)
        except (KeyError, ValueError) as exc:
            raise ConfigError(field, str(exc)) from exc

    if len(custom["q"]) != n or len(custom["p"]) != n:
        raise ConfigError("custom.q", "need exactly n entries in custom.q and custom.p")
    qs = [mono(f"custom.q[{i}]", custom["q"][i]) for i in range(n)]
    ps = [mono(f"custom.p[{i}]", custom["p"][i]) for i in range(n)]
    g = custom["gamma"]
    for i, row in enumerate(g):
        if not isinstance(row, list):
            raise ConfigError(f"custom.gamma[{i}]", f"expected a list, got {row!r}")
    if len(g) != n or any(len(row) != n for row in g):
        raise ConfigError("custom.gamma", "need a full n x n matrix of monomial strings")
    gamma = [[mono(f"custom.gamma[{i}][{j}]", g[i][j]) for j in range(n)] for i in range(n)]
    return lat, qs, ps, gamma


def _sparse(row):
    return tuple(s.as_sparse_monomial() for s in row)


def _assert_views_are(spec, lat, qs, ps, gamma):
    """spec.q, spec.p and spec.gamma equal the Scalars, degree bound included,
    and are built once."""
    key = lambda s: (s.lattice, s.packed, s.degree)
    assert list(map(key, spec.q)) == list(map(key, qs))
    assert list(map(key, spec.p)) == list(map(key, ps))
    assert [list(map(key, row)) for row in spec.gamma] == [list(map(key, row)) for row in gamma]
    assert spec.q is spec.q and spec.p is spec.p and spec.gamma is spec.gamma


def test_preset_exponents_and_views_match_the_scalar_build():
    for kind in KINDS:
        if kind == "custom":
            continue
        for n in range(1, 9):
            spec = build_spec(n, kind)
            lat, qs, ps, gamma = _scalar_preset(n, kind)
            assert spec.lattice == lat, (kind, n)
            assert spec.exponents == (_sparse(qs), _sparse(ps), tuple(map(_sparse, gamma)))
            assert spec.exponents == AlgebraSpec(n, kind, lat, qs, ps, gamma).exponents
            _assert_views_are(spec, lat, qs, ps, gamma)


def _count_gamma_writes(monkeypatch) -> list:
    """A list that gains one entry each time a preset writes its gamma rows."""
    written = []
    real = presentation._antisymmetric
    monkeypatch.setattr(presentation, "_antisymmetric",
                        lambda *a: written.append(a) or real(*a))
    return written


def test_bound_and_dim_write_no_preset_gamma_and_verify_writes_it_once(monkeypatch):
    written = _count_gamma_writes(monkeypatch)
    for kind in KINDS:
        if kind != "custom":
            for n in (*range(1, 10), 64):
                for command in ("bound", "dim"):
                    assert cli.run({"n": n, "kind": kind}, command).ok, (kind, n, command)
    assert written == []
    # verify reads gamma through the rules, the tori, theta and ambiskew_step
    assert cli.run({"n": 4, "kind": "generic"}, "verify").ok
    assert len(written) == 1


def test_lazy_preset_gamma_matches_the_eager_rows():
    for kind in KINDS:
        if kind == "custom":
            continue
        for n in range(1, 13):
            spec = build_spec(n, kind)
            assert "exponents" not in vars(spec), (kind, n)
            # the same rows passed eagerly, as a custom spec passes its own
            eager = AlgebraSpec.from_exponents(n, kind, spec.lattice, *spec.qp,
                                               spec._write_gamma())
            assert "exponents" in vars(eager)
            lat, qs, ps, gamma = _scalar_preset(n, kind)
            assert spec.exponents == eager.exponents, (kind, n)
            assert spec.exponents == AlgebraSpec(n, kind, lat, qs, ps, gamma).exponents
            assert spec.exponents[:2] == spec.qp and spec.exponents is spec.exponents


def test_a_preset_gamma_is_validated_when_first_written():
    # the writer of the presets never errs, so feed one that does: the spec
    # is made, and the first read of its exponents raises _validate's error
    lat = ParameterLattice(["q"])
    q, p = (((0, 1),),) * 2, ((),) * 2
    cases = [
        ([[(), ((0, 1),)], [((0, 1),), ()]], "gamma[0][1]",
         "matrix must be multiplicatively antisymmetric"),
        ([[(), ()], [(), ((0, 1),)]], "gamma[1][1]", "diagonal must be 1"),
        ([[()]], "gamma", "need a full n x n matrix"),
    ]
    for rows, field, message in cases:
        spec = AlgebraSpec.from_exponents(2, "symplectic", lat, q, p, lambda: rows)
        assert torus_dimension(spec).d == 2
        with pytest.raises(ConfigError) as err:
            spec.exponents
        assert (err.value.field, err.value.message) == (field, message)


@settings(max_examples=60, deadline=None)
@given(_custom_configs())
def test_custom_exponents_match_the_scalar_constructor(cfg):
    n, custom = cfg["n"], cfg["custom"]
    spec = spec_from_config(cfg)
    lat, qs, ps, gamma = _scalar_custom(n, custom)
    old = AlgebraSpec(n, "custom", lat, qs, ps, gamma)
    assert spec.exponents == old.exponents
    assert spec.exponents == (_sparse(qs), _sparse(ps), tuple(map(_sparse, gamma)))
    _assert_views_are(spec, lat, qs, ps, gamma)
    _assert_views_are(old, lat, qs, ps, gamma)
    # the rendering of the Scalar build: each monomial's dense exponents
    render = lambda row: [render_exponents(lat, s.as_monomial()) for s in row]
    expected = {"n": n, "kind": "custom", "custom": {
        "symbols": list(lat.symbols), "q": render(qs), "p": render(ps),
        "gamma": [render(row) for row in gamma]}}
    assert spec_to_config(spec) == spec_to_config(old) == expected


def test_bad_custom_configs_fail_like_the_scalar_build():
    base = {
        "symbols": ["a", "b"],
        "q": ["a", "a", "b"],
        "p": ["b", "1", "a"],
        "gamma": [["1", "a", "b"], ["a^-1", "1", "a*b"], ["b^-1", "a^-1*b^-1", "1"]],
    }

    def edit(**cells):
        # cells like q0="c" or gamma12="a" write entry [0] of q or entry
        # [1][2] of gamma; q=[...] replaces the whole field
        custom = copy.deepcopy(base)
        for name, value in cells.items():
            key = name.rstrip("0123456789")
            idx = [int(c) for c in name[len(key):]]
            if not idx:
                custom[key] = value
            elif key == "gamma":
                custom[key][idx[0]][idx[1]] = value
            else:
                custom[key][idx[0]] = value
        return custom

    def unknown(name, text):
        return str(KeyError(f"unknown parameter symbol {name!r} in monomial {text!r}"))

    wide = f"exponent 2147483648 of 'a' leaves ±{MAX_EXPONENT}"
    anti = "matrix must be multiplicatively antisymmetric"
    cases = [
        (edit(q0="a^2147483648"), "custom.q[0]", wide),
        (edit(q0="a^2147483647*a"), "custom.q[0]", wide),
        (edit(p1="b^-2147483648*a^4000000000"), "custom.p[1]",
         f"exponent -2147483648 of 'b' leaves ±{MAX_EXPONENT}"),
        (edit(q1="c"), "custom.q[1]", unknown("c", "c")),
        (edit(q2=""), "custom.q[2]", unknown("", "")),
        (edit(gamma01="a**b"), "custom.gamma[0][1]", unknown("", "a**b")),
        (edit(p2="a^x"), "custom.p[2]", "invalid literal for int() with base 10: 'x'"),
        (edit(p0=3), "custom.p[0]", "expected a monomial string, got 3"),
        (edit(q=["a", "a"]), "custom.q", "need exactly n entries in custom.q and custom.p"),
        (edit(gamma=[["1", "a", "b"], "1", ["1", "1", "1"]]), "custom.gamma[1]",
         "expected a list, got '1'"),
        (edit(gamma=[["1", "a", "b"], ["a^-1", "1"], ["1", "1", "1"]]), "custom.gamma",
         "need a full n x n matrix of monomial strings"),
        (edit(gamma11="a"), "gamma[1][1]", "diagonal must be 1"),
        (edit(gamma21="a*b"), "gamma[1][2]", anti),
        (edit(gamma20="a^-1"), "gamma[0][2]", anti),
        (edit(p1="a"), "p[1]", "p_i must differ from q_i by a non-torsion monomial"),
        (edit(p1="b*a*b^-1"), "p[1]", "p_i must differ from q_i by a non-torsion monomial"),
        # the first fault wins: parse errors in the order q, p, gamma, then the scan
        (edit(q1="c", p0="a^x"), "custom.q[1]", unknown("c", "c")),
        (edit(p0="zz", gamma11="a", q2="a^2147483648"), "custom.q[2]", wide),
        (edit(gamma00="a", p0="a"), "gamma[0][0]", "diagonal must be 1"),
        (edit(gamma20="b^2", p1="a"), "gamma[0][2]", anti),
        (edit(p0="a", gamma12="b"), "p[0]", "p_i must differ from q_i by a non-torsion monomial"),
        (edit(gamma21="1", gamma22="a"), "gamma[1][2]", anti),
    ]
    for custom, field, message in cases:
        errors = []
        for build in (lambda: build_spec(3, "custom", custom=custom),
                      lambda: AlgebraSpec(3, "custom", *_scalar_custom(3, custom))):
            with pytest.raises(ConfigError) as err:
                build()
            errors.append((err.value.field, err.value.message))
        assert errors == [(field, message)] * 2, custom
    # exponents that add back into the field are no fault
    spec = build_spec(3, "custom", custom=edit(q0="a^2147483648*a^-1"))
    assert spec.exponents[0][0] == ((0, MAX_EXPONENT),)
    assert spec.q[0] == _scalar_parse(spec.lattice, "a^2147483648*a^-1")


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
