"""Ring arithmetic in Z[s^±1]: worked examples, a sympy oracle, and randomized axioms."""

import random
from fractions import Fraction

import pytest
import sympy

from qweyl.scalars import (
    LatticeMismatchError,
    ParameterLattice,
    Scalar,
    SpecializationError,
    parse_monomial,
    render_exponents,
    render_scalar,
)

QP = ParameterLattice(["q", "p"])
Q = QP.symbol("q")
P = QP.symbol("p")


def test_lattice_rejects_duplicates():
    with pytest.raises(ValueError):
        ParameterLattice(["q", "q"])


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


def test_render_scalar_shape():
    # the report format keeps the "(numerator)/(1)" shape
    assert render_scalar((Q - P) / QP.one()) == "(q - p)/(1)"
    assert render_scalar(QP.zero()) == "(0)/(1)"
    assert render_scalar(QP.rational(-2) * Q * Q + QP.rational(3)) == "(-2*q^2 + 3)/(1)"
