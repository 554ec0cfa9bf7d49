"""Ring arithmetic in Z[s^±1]: worked examples, a sympy oracle, randomized axioms,
a tuple-keyed oracle for the packed exponent vectors, and the overflow guard."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qweyl import cli, scalars
from qweyl.presentation import spec_from_config, spec_to_config
from qweyl.scalars import (
    MAX_EXPONENT,
    ExponentOverflowError,
    LatticeMismatchError,
    ParameterLattice,
    Scalar,
    SpecializationError,
    parse_monomial,
    power_sum,
    render_exponents,
    render_poly,
    render_scalar,
    render_sparse,
)

QP = ParameterLattice(["q", "p"])
Q = QP.symbol("q")
P = QP.symbol("p")


def test_lattice_rejects_duplicates():
    with pytest.raises(ValueError):
        ParameterLattice(["q", "q"])
    # the message names each repeated symbol once, and no other
    with pytest.raises(ValueError) as err:
        ParameterLattice(["a", "b", "a"])
    assert str(err.value) == "duplicate parameter symbols: ['a']"


def test_self_quotient_is_one():
    for u in (Q, -P, QP.monomial({"q": 2, "p": -3})):
        assert u / u == QP.one()


def test_monomial_inverse_cancels():
    assert Q * QP.monomial({"q": -1}) == QP.one()


def test_difference_of_squares_quotient():
    # oracle: expand (q + p)(q - p) and compare raw term dicts with q^2 - p^2
    assert ((Q + P) * (Q - P)).terms == {(2, 0): 1, (0, 2): -1}
    assert (Q + P) * (Q - P) == Q * Q - P * P
    # q - p is not a unit, so the quotient is refused rather than computed
    with pytest.raises(ZeroDivisionError):
        (Q * Q - P * P) / (Q - P)


def test_equality_by_substitution_oracle():
    # same polynomial evaluated at exact sample points
    a = (Q + P) * (Q - P)
    b = Q * Q - P * P
    for qv, pv in [(Fraction(7, 3), Fraction(2, 5)), (Fraction(-4), Fraction(3, 2))]:
        vals = {"q": qv, "p": pv}
        assert a.substitute(vals) == b.substitute(vals) == qv**2 - pv**2
    assert a == b


def test_distinct_symbols_differ():
    assert Q != P


def test_zero_representations_agree():
    assert QP.zero() == Scalar(QP, {(1, 0): 0}) == Q - Q == QP.rational(0)
    assert (Q - Q).terms == {}


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Q / QP.zero()
    with pytest.raises(ZeroDivisionError):
        QP.zero().inverse()


def test_unit_inverses():
    for u in (QP.one(), -QP.one(), Q, -Q, QP.monomial({"q": -2, "p": 5})):
        inv = u.inverse()
        assert u * inv == QP.one()
        assert (Q + P) / u * u == Q + P
        assert inv.inverse() == u


@pytest.mark.parametrize(
    "non_unit",
    [QP.rational(2), QP.rational(-3), Q + P, Q - P, Q + Q, QP.one() + Q * P],
    ids=["2", "-3", "q+p", "q-p", "2q", "1+qp"],
)
def test_non_unit_inverse_raises(non_unit):
    with pytest.raises(ZeroDivisionError):
        non_unit.inverse()
    with pytest.raises(ZeroDivisionError):
        Q / non_unit
    with pytest.raises(ZeroDivisionError):
        non_unit**-1


def test_rational_accepts_integers_only():
    assert QP.rational(3) == QP.one() + QP.one() + QP.one()
    assert QP.rational(-1) == -QP.one()
    for bad in (Fraction(1, 2), Fraction(2), 0.5, "2"):
        with pytest.raises(TypeError):
            QP.rational(bad)


def test_lattice_mismatch_raises():
    other = ParameterLattice(["q"])
    with pytest.raises(LatticeMismatchError):
        Q == other.symbol("q")


def test_as_monomial():
    lat = ParameterLattice(["q1", "g12"])
    m = lat.monomial({"q1": 1, "g12": -1})
    assert m.as_monomial() == (1, -1)
    assert (Q + P).as_monomial() is None
    assert QP.one().as_monomial() == (0, 0)
    # coefficient must be exactly one
    assert (Q + Q).as_monomial() is None
    assert (-Q).as_monomial() is None
    assert ((Q + Q) - Q).as_monomial() == (1, 0)


def test_monomial_product_adds_exponents():
    lat = ParameterLattice(["a", "b", "c"])
    m1 = lat.monomial({"a": 2, "c": -1})
    m2 = lat.monomial({"b": 1, "c": 3})
    assert (m1 * m2).as_monomial() == (2, 1, 2)


def test_powers():
    assert Q**0 == QP.one()
    assert Q**3 == Q * Q * Q
    assert Q**-2 == QP.monomial({"q": -2})
    assert ((Q - P) ** 2) == (Q - P) * (Q - P)


def _random_scalar(rng, lat, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[tuple(rng.randint(-2, 2) for _ in range(lat.k))] = rng.randint(-3, 3)
    return Scalar(lat, terms)


def test_ring_axioms_randomized():
    rng = random.Random(20240901)
    one, zero = QP.one(), QP.zero()
    for _ in range(100):
        a = _random_scalar(rng, QP)
        b = _random_scalar(rng, QP)
        c = _random_scalar(rng, QP)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and (a * zero).is_zero()
        assert (a - a).is_zero() and a - b == -(b - a)
        # a domain: nonzero times nonzero is nonzero
        assert (a * b).is_zero() == (a.is_zero() or b.is_zero())
        assert all(v for v in (a * b).terms.values())


_SYMPY = sympy.symbols("q p")


def _to_sympy(s: Scalar):
    return sum(
        (c * sympy.Mul(*(x**e for x, e in zip(_SYMPY, exps))) for exps, c in s.terms.items()),
        sympy.Integer(0),
    )


def _from_sympy(expr) -> Scalar:
    # multiply by a monomial to clear negative powers, read the polynomial, shift back
    shift = 4
    poly = sympy.Poly(sympy.expand(expr * sympy.Mul(*(x**shift for x in _SYMPY))), *_SYMPY)
    return Scalar(QP, {tuple(e - shift for e in m): int(c) for m, c in poly.terms()})


def test_arithmetic_matches_sympy_oracle():
    rng = random.Random(7)
    for _ in range(60):
        a = _random_scalar(rng, QP, max_terms=3)
        b = _random_scalar(rng, QP, max_terms=3)
        assert a + b == _from_sympy(_to_sympy(a) + _to_sympy(b))
        assert a * b == _from_sympy(_to_sympy(a) * _to_sympy(b))
        assert a - b == _from_sympy(_to_sympy(a) - _to_sympy(b))
        vals = {
            "q": Fraction(rng.choice([-5, -2, 1, 3, 7]), rng.randint(1, 4)),
            "p": Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)),
        }
        subs = {x: sympy.Rational(vals[str(x)].numerator, vals[str(x)].denominator)
                for x in _SYMPY}
        expect = sympy.Rational(_to_sympy(a * b).subs(subs))
        assert (a * b).substitute(vals) == Fraction(int(expect.p), int(expect.q))


def test_substitution_checks_denominator():
    # a negative power is a denominator: q^-1 (q - p)
    s = Q**-1 * (Q - P)
    assert s.substitute({"q": Fraction(2), "p": Fraction(3)}) == Fraction(-1, 2)
    with pytest.raises(SpecializationError):
        s.substitute({"q": Fraction(0), "p": Fraction(1)})
    with pytest.raises(SpecializationError):
        s.substitute({"q": Fraction(2)})


def test_monomial_string_round_trip():
    lat = ParameterLattice(["q1", "q2", "g12"])
    for text in ("1", "q1", "q1^2*g12^-1", "q2^-3"):
        s = parse_monomial(lat, text)
        assert render_exponents(lat, s.as_monomial()) == text
    with pytest.raises(KeyError):
        parse_monomial(lat, "bogus^2")


def test_render_exponents_past_the_kept_powers():
    lat = ParameterLattice(["q1", "g12"])
    for e in list(range(-400, 400)) + [MAX_EXPONENT, -MAX_EXPONENT]:
        expect = "*".join(t for t in ("" if e == 0 else "q1" if e == 1 else f"q1^{e}",
                                      "g12^-1") if t)
        assert render_exponents(lat, (e, -1)) == expect
    assert render_exponents(lat, (0, 0)) == "1"


def test_render_tables_are_made_on_the_first_render(monkeypatch, custom_config):
    made = []
    real = scalars._Powers
    monkeypatch.setattr(scalars, "_Powers", lambda d: made.append(d) or real(d))
    # bound renders no parameter, so its 2,144 symbols get no table
    assert cli.run({"n": 64, "kind": "generic"}, "bound").ok
    lat = ParameterLattice(["q", "p", "r"])
    assert made == []

    def texts(lat):
        s = (lat.monomial({"q": 2, "r": -300}) - lat.rational(3) * lat.monomial({"p": -1})
             + lat.one())
        return [render_poly(s), render_scalar(s), render_sparse(lat, ((0, 2), (2, -1))),
                render_exponents(lat, (0, 1, 5))]

    expected = ["q^2*r^-300 + 1 - 3*p^-1", "(q^2*r^-300 + 1 - 3*p^-1)/(1)", "q^2*r^-1", "p*r^5"]
    assert texts(lat) == expected  # made by this first render
    assert [d[1] for d in made] == ["q", "p", "r"]
    assert texts(lat) == expected and len(made) == 3
    # a custom spec renders its config alike with and without the tables; a
    # canonical config (the generator's spelling) writes back what it read
    # and renders nothing, so reversing its factors makes it render
    rng = random.Random(31)
    rendered = 0
    for _ in range(20):
        cfg = custom_config(rng, rng.randint(1, 4), rng.randint(1, 4))
        spec = spec_from_config(cfg)
        assert spec_to_config(spec) == cfg
        assert spec.lattice._powers is None
        custom = cfg["custom"]
        texts = [*custom["q"], *custom["p"], *(t for row in custom["gamma"] for t in row)]
        reverse = lambda row: ["*".join(reversed(t.split("*"))) for t in row]
        spec = spec_from_config(dict(cfg, custom=dict(
            custom, q=reverse(custom["q"]), p=reverse(custom["p"]),
            gamma=[reverse(row) for row in custom["gamma"]])))
        assert spec.lattice._powers is None
        first = repr(spec_to_config(spec))
        assert first == repr(cfg)
        # a monomial of two factors or more is spelled out of order
        assert (spec.lattice._powers is not None) == any("*" in t for t in texts)
        rendered += spec.lattice._powers is not None
        assert repr(spec_to_config(spec)) == first
        assert repr(spec_to_config(spec_from_config(spec_to_config(spec)))) == first
    assert rendered >= 10


def test_render_scalar_shape():
    # the report format keeps the "(numerator)/(1)" shape
    assert render_scalar((Q - P) / QP.one()) == "(q - p)/(1)"
    assert render_scalar(QP.zero()) == "(0)/(1)"
    assert render_scalar(QP.rational(-2) * Q * Q + QP.rational(3)) == "(-2*q^2 + 3)/(1)"


def test_constructor_rejects_wrong_length_exponents():
    # a short vector once lost the exponents past its end in every product
    for bad in ((1,), (1, 0, 0), ()):
        with pytest.raises(LatticeMismatchError):
            Scalar(QP, {bad: 1})
    with pytest.raises(LatticeMismatchError):
        Scalar(QP, {(0, 0): 1, (1,): 2})
    assert Scalar(QP, {(1,): 0}).is_zero()  # zero terms are dropped unread


# -- the packed ring against the tuple-keyed product it replaced ---------------

def _oracle_canon(terms):
    return {e: c for e, c in terms.items() if c}


def _oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _oracle_canon(out)


def _oracle_neg(a):
    return {e: -c for e, c in a.items()}


def _oracle_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _oracle_canon(out)


def _oracle_render(lat, terms):
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mono = render_exponents(lat, e)
        body = str(abs(c)) if mono == "1" else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return f"({' '.join(parts) or '0'})/(1)"


def _in_range(terms):
    return all(abs(x) <= MAX_EXPONENT for e in terms for x in e)


_HALF = MAX_EXPONENT // 2
# small exponents, and exponents whose sums land on either side of the bound
_EXPONENT = st.one_of(
    st.integers(-3, 3),
    st.integers(_HALF - 2, _HALF + 2),
    st.integers(-_HALF - 2, -_HALF + 2),
    st.integers(MAX_EXPONENT - 2, MAX_EXPONENT),
    st.integers(-MAX_EXPONENT, -MAX_EXPONENT + 2),
)


def _terms(k):
    return st.dictionaries(
        st.tuples(*[_EXPONENT] * k), st.integers(-3, 3), max_size=4
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_ring_matches_tuple_oracle(data):
    k = data.draw(st.integers(1, 9), label="k")
    lat = ParameterLattice([f"s{i}" for i in range(k)])
    ta = data.draw(_terms(k), label="a")
    tb = data.draw(st.one_of(_terms(k), st.just(ta)), label="b")
    a, b = Scalar(lat, ta), Scalar(lat, tb)
    oa, ob = _oracle_canon(ta), _oracle_canon(tb)
    assert a.terms == oa and b.terms == ob
    assert (a + b).terms == _oracle_add(oa, ob)
    assert (a - b).terms == _oracle_add(oa, _oracle_neg(ob))
    assert (-a).terms == _oracle_neg(oa)
    assert (a == b) == (oa == ob)
    assert render_scalar(a) == _oracle_render(lat, oa)
    assert render_scalar(a + b) == _oracle_render(lat, _oracle_add(oa, ob))
    product = _oracle_mul(oa, ob)
    if _in_range(product):
        assert (a * b).terms == product
        assert render_scalar(a * b) == _oracle_render(lat, product)
    else:
        with pytest.raises(ArithmeticError):
            a * b
    units = {e: c for e, c in oa.items() if c in (1, -1)}
    if len(oa) == 1 and units:
        ((e, c),) = units.items()
        assert a.inverse().terms == {tuple(-x for x in e): c}
        assert (a * a.inverse()).is_one()
        assert a.as_monomial() == (e if c == 1 else None)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        assert a.as_monomial() is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_difference_is_the_sum_with_the_negation(data):
    # a - b is formed directly, with no -b; its oracle is a + (-b)
    k = data.draw(st.integers(1, 9), label="k")
    names = [f"s{i}" for i in range(k)]
    lat = ParameterLattice(names)
    ta = data.draw(_terms(k), label="a")
    tb = data.draw(st.one_of(_terms(k), st.just(ta)), label="b")
    a, b = Scalar(lat, ta), Scalar(lat, tb)
    twin = Scalar(ParameterLattice(names), tb)  # an equal lattice, another object
    for x, y in ((a, b), (b, a), (a, twin)):
        diff, oracle = x - y, x + (-y)
        assert (diff.packed, diff.degree) == (oracle.packed, oracle.degree)
    assert (a - a).is_zero() and (a - a).degree == a.degree
    foreign = Scalar(ParameterLattice([f"t{i}" for i in range(k)]), tb)
    for x, y in ((a, foreign), (foreign, a)):
        with pytest.raises(LatticeMismatchError) as got:
            x - y
        with pytest.raises(LatticeMismatchError) as want:
            x + (-y)
        assert str(got.value) == str(want.value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monomial_packs_like_the_dense_constructor(data):
    # monomial packs its key from the powers it names; the oracle is the
    # dense exponent tuple through the Scalar constructor
    k = data.draw(st.integers(1, 9), label="k")
    lat = ParameterLattice([f"s{i}" for i in range(k)])
    powers = data.draw(
        st.dictionaries(st.sampled_from(lat.symbols), st.one_of(st.just(0), _EXPONENT)),
        label="powers",
    )
    dense = tuple(powers.get(s, 0) for s in lat.symbols)
    m, oracle = lat.monomial(powers), Scalar(lat, {dense: 1})
    assert (m.packed, m.degree) == (oracle.packed, oracle.degree)
    assert m.as_monomial() == dense


# -- the overflow guard ------------------------------------------------------------

QPR = ParameterLattice(["q", "p", "r"])


def test_product_past_the_field_raises():
    top = QPR.monomial({"p": MAX_EXPONENT})
    for factor in (QPR.symbol("p"), QPR.symbol("p") + QPR.symbol("r"), top):
        with pytest.raises(ArithmeticError):
            top * factor
        with pytest.raises(ArithmeticError):
            factor * top
    bottom = QPR.monomial({"q": 1, "p": -MAX_EXPONENT})
    with pytest.raises(ExponentOverflowError):
        bottom * QPR.monomial({"p": -1, "r": 5})
    with pytest.raises(ArithmeticError):
        bottom / QPR.symbol("p")


def test_power_past_the_field_raises():
    with pytest.raises(ArithmeticError):
        QPR.monomial({"r": 2**30}) ** 2
    with pytest.raises(ArithmeticError):
        (QPR.monomial({"q": -(2**30)}) + QPR.one()) ** 2
    with pytest.raises(ArithmeticError):
        QPR.monomial({"p": 2**30}) ** -2


def _repeated_power(u, e):
    """u^e as |e| products of u or of its inverse."""
    base = u if e > 0 else u.inverse()
    out = u.lattice.one()
    for _ in range(abs(e)):
        out = out * base
    return out


@settings(max_examples=300, deadline=None)
@given(e=st.integers(-5, 5), offsets=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       edges=st.lists(st.sampled_from((-1, 0, 1)), min_size=3, max_size=3),
       sign=st.sampled_from((1, -1)))
def test_unit_power_matches_repeated_products(e, offsets, edges, sign):
    # edges put exponents near ±MAX_EXPONENT/|e|, so that e times them lands
    # just inside or just past the field
    scale = MAX_EXPONENT // max(abs(e), 1)
    exps = tuple(d * scale + o for d, o in zip(edges, offsets))
    assume(all(abs(v) <= MAX_EXPONENT for v in exps))
    u = Scalar(QPR, {exps: sign})
    try:
        oracle = _repeated_power(u, e)
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            u**e
        return
    power = u**e
    assert (power.packed, power.degree) == (oracle.packed, oracle.degree)


def test_unit_power_at_the_edge_of_the_field():
    for sign in (1, -1):
        top = QPR.monomial({"q": sign * MAX_EXPONENT, "r": 1})
        assert (top**1).packed == top.packed
        assert (top**-1).as_monomial() == (-sign * MAX_EXPONENT, 0, -1)
        for e in (2, -2):
            with pytest.raises(ExponentOverflowError):
                top**e
    # a degree bound past the field with exponents inside takes the product
    # path, which raises nothing
    loose = QPR.monomial({"q": 2**30 - 1, "r": 1}) * QPR.monomial({"r": -1})
    assert loose.degree == 2**30
    assert (loose**2).as_monomial() == (MAX_EXPONENT - 1, 0, 0)
    assert (-QPR.symbol("p")) ** 3 == -QPR.monomial({"p": 3})
    assert (-QPR.symbol("p")) ** -2 == QPR.monomial({"p": -2})


def test_power_sum_is_the_geometric_sum():
    c, s = QPR.monomial({"q": 2, "r": -1}), QPR.symbol("p")
    for e in (1, 2, 7):
        oracle = QPR.zero()
        for j in range(e):
            oracle = oracle + c**j * s ** (e - 1 - j)
        for a, b in ((c, s), (s, c), (c, c)):
            got = power_sum(a, b, e)
            assert got == (oracle if a is not b else QPR.rational(e) * c ** (e - 1))
            assert got.degree >= max(map(abs, (v for k in got.terms for v in k)))
    with pytest.raises(ValueError):
        power_sum(c + s, s, 3)
    with pytest.raises(ExponentOverflowError):
        power_sum(QPR.monomial({"q": 2**30}), s, 3)


def test_constructor_input_past_the_field_raises():
    for bad in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 2**40):
        with pytest.raises(ArithmeticError):
            Scalar(QPR, {(0, bad, 0): 1})
        with pytest.raises(ArithmeticError):
            QPR.monomial({"r": bad})
    # a config reports it as a bad value, not a crash
    with pytest.raises(ValueError):
        parse_monomial(QPR, f"q^{MAX_EXPONENT + 1}")


def test_monomial_edge_powers_and_refusals():
    for powers in ({}, {"q": 0}, {"q": 0, "r": 0}, {"p": MAX_EXPONENT},
                   {"q": -MAX_EXPONENT, "r": MAX_EXPONENT}, {"r": -MAX_EXPONENT, "p": 1}):
        dense = tuple(powers.get(s, 0) for s in QPR.symbols)
        m, oracle = QPR.monomial(powers), Scalar(QPR, {dense: 1})
        assert (m.packed, m.degree) == (oracle.packed, oracle.degree)
    cancelled = parse_monomial(QPR, "q^2*q^-2")
    assert (cancelled.packed, cancelled.degree) == (QPR.one().packed, 0)
    with pytest.raises(KeyError):
        QPR.monomial({"q": 1, "s": 1})
    with pytest.raises(TypeError):
        QPR.monomial({"p": 1.5})
    for bad in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1):
        with pytest.raises(ExponentOverflowError):
            QPR.monomial({"q": 1, "r": bad})


def test_product_just_inside_the_field_unpacks_exactly():
    lo, hi = 2**30 - 1, 2**30
    for sign in (1, -1):
        a = QPR.monomial({"q": sign * hi, "p": -sign * lo, "r": 1})
        b = QPR.monomial({"q": sign * lo, "p": -sign * hi, "r": -1})
        assert (a * b).as_monomial() == (sign * MAX_EXPONENT, -sign * MAX_EXPONENT, 0)
        assert (a * b).inverse().as_monomial() == (-sign * MAX_EXPONENT, sign * MAX_EXPONENT, 0)
    # bounds that add past the field, exponents that do not: no false alarm
    top = QPR.monomial({"q": MAX_EXPONENT, "r": -3})
    assert top * top.inverse() == QPR.one()
    s = (top + QPR.symbol("p")) * top.inverse()
    assert s.terms == {(0, 0, 0): 1, (-MAX_EXPONENT, 1, 3): 1}
    assert render_scalar(s) == f"(1 + q^{-MAX_EXPONENT}*p*r^3)/(1)"
