"""Normal-form engine: rewriting, products, identity suites, growth counts."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl.pbw import (
    GROWTH_MAX_MONOMIALS,
    MAX_DEGREE,
    BudgetError,
    PBWElement,
    generator,
    growth_count,
    multiply,
    normal_form,
    parse_word,
    render_element,
    skew_power_identity,
    unit,
    verify_normality,
    verify_relations,
    word_monomial,
    _layout,
)
from qweyl.presentation import build_spec, casimir, rule_table
from qweyl.reporting import all_ok

GEN2 = build_spec(2, "generic")
PRESET_KINDS = ("generic", "generic-p1", "generic-q1", "symplectic", "euclidean",
                "heisenberg", "graded-weyl")


def _rewrite_word(spec, word):
    """Oracle: rewrite the leftmost out-of-order pair, one stack entry per path.

    Slow (exponential in the x_i..y_i pairs) but independent of the fold,
    the product memo and the unit short-cut.
    """
    table = rule_table(spec)
    out = {}
    stack = [(spec.lattice.one(), tuple(word))]
    while stack:
        coeff, w = stack.pop()
        for idx in range(len(w) - 1):
            if w[idx] > w[idx + 1]:
                head, tail = w[:idx], w[idx + 2:]
                for c, repl in table[(w[idx], w[idx + 1])]:
                    stack.append((coeff * c, head + repl + tail))
                break
        else:
            mono = word_monomial(spec, w)
            acc = out.get(mono)
            out[mono] = coeff if acc is None else acc + coeff
    return PBWElement(spec.n, out)


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_normal_form_matches_rewriter_on_all_short_words(kind):
    for n, max_length in ((2, 5), (3, 4)):
        spec = build_spec(n, kind)
        for length in range(max_length + 1):
            for word in itertools.product(range(2 * n), repeat=length):
                assert normal_form(spec, word) == _rewrite_word(spec, word), (n, word)


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_normal_form_matches_rewriter_on_powers(kind):
    spec = build_spec(3, kind)
    for i in range(1, 4):
        for a in range(4):
            for b in range(4):
                word = (spec.x_index(i),) * a + (spec.y_index(i),) * b
                assert normal_form(spec, word) == _rewrite_word(spec, word), (i, a, b)


def test_long_words_keep_a_shallow_stack():
    # the fold's call depth must not grow with the word: 1500 letters is
    # past the interpreter's default recursion limit
    x2, y1 = GEN2.x_index(2), GEN2.y_index(1)
    (c, _), = rule_table(GEN2)[(x2, y1)]
    f = normal_form(GEN2, (x2,) * 1500 + (y1,))
    assert f == PBWElement(2, {(1, 0, 0, 1500): c**1500})


@st.composite
def _custom_spec_and_words(draw):
    """A random valid custom spec and two words whose concatenation has length <= 6."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    exps = st.lists(st.integers(-2, 2), min_size=k, max_size=k)

    def mono(e):
        return "*".join(f"s{c}^{v}" for c, v in enumerate(e) if v) or "1"

    q = [draw(exps) for _ in range(n)]
    # p_i / q_i must be a nontrivial monomial
    delta = [draw(exps) for _ in range(n)]
    for d in delta:
        if not any(d):
            d[0] = 1
    gamma = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = draw(exps)
            gamma[i][j], gamma[j][i] = mono(g), mono([-v for v in g])
    custom = {
        "symbols": [f"s{c}" for c in range(k)],
        "q": [mono(e) for e in q],
        "p": [mono([a + b for a, b in zip(e, d)]) for e, d in zip(q, delta)],
        "gamma": gamma,
    }
    word = draw(st.lists(st.integers(0, 2 * n - 1), max_size=6))
    cut = draw(st.integers(0, len(word)))
    return build_spec(n, "custom", custom=custom), tuple(word), cut


@settings(max_examples=60, deadline=None)
@given(_custom_spec_and_words())
def test_fold_matches_rewriter_on_random_custom_specs(case):
    spec, word, cut = case
    expected = _rewrite_word(spec, word)
    assert normal_form(spec, word) == expected
    left, right = normal_form(spec, word[:cut]), normal_form(spec, word[cut:])
    assert multiply(spec, left, right) == expected


def test_normal_form_examples():
    lat = GEN2.lattice
    assert normal_form(GEN2, "x1 y1") == PBWElement(2, {(1, 1, 0, 0): lat.symbol("q1")})
    expected = PBWElement(
        2,
        {
            (0, 0, 1, 1): lat.symbol("q2"),
            (1, 1, 0, 0): lat.symbol("q1") - lat.symbol("p1"),
        },
    )
    assert normal_form(GEN2, "x2 y2") == expected


def test_ordered_words_are_fixed():
    for text in ("y1 x1", "y1 y1 x2", "y1 x1 y2 x2"):
        word = parse_word(GEN2, text)
        f = normal_form(GEN2, word)
        assert len(f.terms) == 1
        (mono, coeff), = f.terms.items()
        assert coeff == GEN2.lattice.one()
        assert sum(mono) == len(word)


def test_multiply_unit_and_monomials():
    f = normal_form(GEN2, "x2 y1 x1")
    assert multiply(GEN2, f, unit(GEN2)) == f
    assert multiply(GEN2, unit(GEN2), f) == f
    x1, y1 = generator(GEN2, "x1"), generator(GEN2, "y1")
    assert multiply(GEN2, x1, y1) == normal_form(GEN2, "x1 y1")


def test_casimir_elements_commute():
    spec = build_spec(3, "generic")
    for i in range(1, 4):
        for j in range(1, 4):
            zi, zj = casimir(spec, i), casimir(spec, j)
            assert (multiply(spec, zi, zj) - multiply(spec, zj, zi)).is_zero()


def test_verify_relations_counts():
    # oracle: one check per relation instance plus one per unordered gamma pair
    for n in (1, 2, 3):
        spec = build_spec(n, "generic")
        pairs = n * (n - 1) // 2
        expected = 5 * pairs + n
        checks = verify_relations(spec)
        assert len(checks) == expected
        assert all_ok(checks)
    assert len(verify_relations(build_spec(1, "generic"))) == 1
    assert len(verify_relations(GEN2)) == 7


def test_verify_relations_presets():
    for kind in ("symplectic", "euclidean", "heisenberg"):
        assert all_ok(verify_relations(build_spec(2, kind)))


def test_normality_examples():
    spec = build_spec(2, "generic")
    q, p = spec.q, spec.p
    z2 = casimir(spec, 2)
    y1 = generator(spec, "y1")
    # z_2 y_1 = q_1 y_1 z_2
    lhs = multiply(spec, z2, y1)
    rhs = multiply(spec, y1, z2).scale(q[0])
    assert (lhs - rhs).is_zero()
    # z_1 x_2 = p_2^{-1} x_2 z_1
    z1 = casimir(spec, 1)
    x2 = generator(spec, "x2")
    lhs = multiply(spec, z1, x2)
    rhs = multiply(spec, x2, z1).scale(p[1].inverse())
    assert (lhs - rhs).is_zero()
    # x_1 y_1 - p_1 y_1 x_1 = z_1
    spec1 = build_spec(1, "generic")
    lhs = normal_form(spec1, "x1 y1") - normal_form(spec1, "y1 x1").scale(spec1.p[0])
    assert lhs == casimir(spec1, 1)


def test_verify_normality_suite():
    for n in (1, 2, 3):
        spec = build_spec(n, "generic")
        for i in range(1, n + 1):
            assert all_ok(verify_normality(spec, i))
    with pytest.raises(ValueError):
        verify_normality(GEN2, 3)


def test_degree_bound():
    rng = random.Random(7)
    for _ in range(50):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
        f = normal_form(GEN2, word)
        assert all(sum(m) <= len(word) for m in f.terms)
        ordered = tuple(sorted(word))
        g = normal_form(GEN2, ordered)
        assert list(g.terms) == [tuple(word.count(i) for i in range(4))]
        assert max((sum(m) for m in g.terms), default=0) == len(word)


def test_skew_base_case():
    spec = build_spec(1, "generic")
    check = skew_power_identity(spec, 1, 3, "k1_base")
    assert check.ok


def test_skew_coefficient_is_polynomial_quotient():
    # oracle: the geometric sum times (q - p) is q^k - p^k, and it evaluates
    # to the rational quotient (q^k - p^k)/(q - p)
    lat = GEN2.lattice
    q2, p2 = lat.symbol("q2"), lat.symbol("p2")
    values = {s: Fraction(2 + i, 3) for i, s in enumerate(lat.symbols)}
    qv, pv = values["q2"], values["p2"]
    for k in range(1, 5):
        coeff = sum((q2**j * p2 ** (k - 1 - j) for j in range(k)), lat.zero())
        assert coeff * (q2 - p2) == q2**k - p2**k
        assert coeff.substitute(values) == (qv**k - pv**k) / (qv - pv)
        assert skew_power_identity(GEN2, 2, k, "xk_y").ok
        assert skew_power_identity(GEN2, 2, k, "x_yk").ok


def test_skew_k1_reduces_to_defining_relation():
    assert skew_power_identity(GEN2, 2, 1, "xk_y").ok


def test_skew_argument_validation():
    with pytest.raises(ValueError):
        skew_power_identity(GEN2, 2, 2, "bogus")
    with pytest.raises(ValueError):
        skew_power_identity(GEN2, 2, 3, "k1_base")
    with pytest.raises(ValueError):
        skew_power_identity(GEN2, 1, 3, "xk_y")
    with pytest.raises(ValueError):
        skew_power_identity(GEN2, 0, 1, "k1_base")


def _ordered_monomial_count(n, degree_bound):
    # brute-force oracle: tuples in N^{2n} of total degree <= m
    count = 0
    for exps in itertools.product(range(degree_bound + 1), repeat=2 * n):
        if sum(exps) <= degree_bound:
            count += 1
    return count


def test_growth_counts_against_enumeration_oracle():
    spec = build_spec(1, "generic")
    rep = growth_count(spec, 4)
    for m in range(5):
        assert rep.counts[m] == _ordered_monomial_count(1, m) == math.comb(m + 2, 2)
    assert rep.counts[0] == 1


def test_growth_n2_snapshot():
    rep = growth_count(GEN2, 3)
    assert rep.counts == [1, 5, 15, 35]
    assert rep.counts[3] == math.comb(7, 4) == 35


def test_growth_budget_errors():
    # the gate bounds the span binom(N + 2n, 2n), not n or N on their own
    rep = growth_count(build_spec(3, "generic"), 6)
    assert rep.counts == [math.comb(m + 6, 6) for m in range(7)]
    assert growth_count(GEN2, 9).counts[9] == math.comb(13, 4)
    assert math.comb(9 + 8, 8) > GROWTH_MAX_MONOMIALS
    with pytest.raises(BudgetError):
        growth_count(build_spec(4, "generic"), 9)
    with pytest.raises(ValueError):
        growth_count(GEN2, 0)


def test_associativity_smoke():
    rng = random.Random(99)
    for _ in range(40):
        words = [tuple(rng.randrange(4) for _ in range(rng.randint(0, 4))) for _ in range(3)]
        f, g, h = (normal_form(GEN2, w) for w in words)
        lhs = multiply(GEN2, multiply(GEN2, f, g), h)
        rhs = multiply(GEN2, f, multiply(GEN2, g, h))
        assert (lhs - rhs).is_zero()


def test_render_element_canonical():
    spec = build_spec(1, "generic")
    z = casimir(spec, 1)
    assert render_element(spec, z) == "(q1 - p1)/(1)·y1 x1"
    assert render_element(spec, PBWElement(1, {})) == "0"
    assert render_element(spec, unit(spec)) == "(1)/(1)·1"


# -- packed monomials: the constructor boundary and the degree guard ------------

def test_constructor_refuses_a_vector_of_the_wrong_length():
    # a 3-tuple at n=2 was read as y1 (so y1 times it gave y1^2), and a
    # 5-tuple raised a bare IndexError deep inside multiply
    one = GEN2.lattice.one()
    for mono in ((1, 0, 0), (1, 0, 0, 0, 0), ()):
        with pytest.raises(ValueError, match="not 4 integers"):
            PBWElement(2, {mono: one})


def test_constructor_refuses_a_negative_exponent():
    # (0, -1, 0, 0) was read as y1, with degree() -1
    with pytest.raises(ValueError, match="not 4 integers"):
        PBWElement(2, {(0, -1, 0, 0): GEN2.lattice.one()})


def test_constructor_refuses_an_exponent_past_the_field():
    one = GEN2.lattice.one()
    with pytest.raises(ValueError, match="4294967295"):
        PBWElement(2, {(0, 0, MAX_DEGREE + 1, 0): one})
    top = PBWElement(2, {(0, 0, MAX_DEGREE, 0): one})
    assert list(top.terms) == [(0, 0, MAX_DEGREE, 0)]
    assert top.degree() == MAX_DEGREE


def test_multiply_past_the_degree_bound_raises():
    # one append past the field would carry into the slot before it
    one = GEN2.lattice.one()
    y1 = generator(GEN2, "y1")
    top = PBWElement(2, {(MAX_DEGREE, 0, 0, 0): one})
    with pytest.raises(OverflowError):
        multiply(GEN2, top, y1)
    with pytest.raises(OverflowError):
        multiply(GEN2, y1, top)
    below = PBWElement(2, {(MAX_DEGREE - 1, 0, 0, 0): one})
    product = multiply(GEN2, below, y1)
    assert product == top
    assert render_element(GEN2, product) == f"(1)/(1)·y1^{MAX_DEGREE}"


def test_elements_of_different_n_do_not_mix():
    # x1 at n=1 and x2 at n=2 have the same packed key and, for a single
    # parameter kind, the same lattice, so mixing them would be silent
    spec1, spec2 = build_spec(1, "symplectic"), build_spec(2, "symplectic")
    x1, x2 = generator(spec1, "x1"), generator(spec2, "x2")
    assert x1.packed == x2.packed
    assert x1 != x2
    with pytest.raises(ValueError, match="do not add"):
        x1 + x2
    with pytest.raises(ValueError, match="factors of n=1"):
        multiply(spec2, x1, x2)
    with pytest.raises(ValueError, match="factors of n=2 and n=1"):
        multiply(spec2, x2, x1)


_FIELD = st.one_of(st.sampled_from([0, 1, MAX_DEGREE]), st.integers(0, MAX_DEGREE))


@st.composite
def _elements(draw):
    """A random element of generic n in 1..3, exponents up to the field edges."""
    n = draw(st.integers(1, 3))
    spec = build_spec(n, "generic")
    monos = draw(st.lists(st.tuples(*[_FIELD] * (2 * n)), max_size=6, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(monos),
                           max_size=len(monos)))
    terms = {m: spec.lattice.rational(c) for m, c in zip(monos, coeffs)}
    return spec, terms


@settings(max_examples=80, deadline=None)
@given(_elements())
def test_packed_monomials_round_trip_and_sort_like_tuples(case):
    spec, terms = case
    f = PBWElement(spec.n, terms)
    assert f.terms == terms
    assert PBWElement(spec.n, f.terms).packed == f.packed
    unpack = _layout(spec.n).unpack
    assert [unpack(m) for m in sorted(f.packed)] == sorted(terms)
    assert render_element(spec, f) == render_element(spec, PBWElement(spec.n, f.terms))
    assert f.degree() == max((sum(m) for m in terms), default=-1)
