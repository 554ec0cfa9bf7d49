"""Normal-form engine: rewriting, products, identity suites, growth counts."""

import gc
import itertools
import math
import random
import re
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import cli, pbw, scalars
from qweyl.dimension import torus_dimension
from qweyl.pbw import (
    GROWTH_MAX_N,
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
    verify_ambiskew,
    verify_normality,
    verify_relations,
    word_monomial,
    _layout,
    _Products,
)
from qweyl.presentation import (
    ConfigError,
    ambiskew_step,
    build_spec,
    casimir,
    spec_from_config,
    spec_to_config,
)
from qweyl.reporting import all_ok
from qweyl.scalars import ExponentOverflowError

GEN2 = build_spec(2, "generic")
PRESET_KINDS = ("generic", "generic-p1", "generic-q1", "symplectic", "euclidean",
                "heisenberg", "graded-weyl")


def _twin(spec):
    """A spec equal to spec, built again, so that it shares no memo with it."""
    return spec_from_config(spec_to_config(spec))


def _rewrite_word(spec, word):
    """Oracle: rewrite the leftmost out-of-order pair, one stack entry per path.

    Slow (exponential in the x_i..y_i pairs) but independent of the fold,
    the product memo and the unit short-cut.
    """
    rules = pbw._packed_rules(spec)
    out = {}
    stack = [(spec.lattice.one(), tuple(word))]
    while stack:
        coeff, w = stack.pop()
        for idx in range(len(w) - 1):
            if w[idx] > w[idx + 1]:
                head, tail = w[:idx], w[idx + 2:]
                for c, a, b in rules[w[idx]][w[idx + 1]]:
                    stack.append((coeff if c is None else coeff * c, head + (a, b) + tail))
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
    (c, _, _), = pbw._packed_rules(GEN2)[x2][y1]
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
    one = normal_form(GEN2, "")
    assert multiply(GEN2, f, one) == f
    assert multiply(GEN2, one, f) == f
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


# -- fused skew-commutator checks against the multiply formula ----------------

def _product(spec, f, g):
    """f*g without the kernel: the sum over monomial pairs of cf*cg times the
    normal form of the concatenated ordered words, one normal_form per pair."""
    word = lambda mono: tuple(slot for slot, e in enumerate(mono) for _ in range(e))
    out = PBWElement(spec.n, {})
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            out = out + normal_form(spec, word(mf) + word(mg)).scale(cf * cg)
    return out


def _oracle_zero(spec, f, g, lam, h=None):
    """(f*g - lam*g*f - h).is_zero() from two products, each without the kernel."""
    out = _product(spec, f, g) - _product(spec, g, f).scale(lam)
    return (out if h is None else out - h).is_zero()


def _oracle_verdicts(spec):
    """The relation and normality verdicts of verify by check name, on a spec
    that shares no memo with the engine side (_twin)."""
    n, q, p, gamma = spec.n, spec.q, spec.p, spec.gamma
    x = lambda i: generator(spec, spec.x_index(i))
    y = lambda i: generator(spec, spec.y_index(i))
    z = lambda i: casimir(spec, i)
    zero = lambda f, g, lam, h=None: _oracle_zero(spec, f, g, lam, h)
    out = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        gij, gji = gamma[i - 1][j - 1], gamma[j - 1][i - 1]
        out[f"xx({i},{j})"] = zero(x(i), x(j), q[i - 1] * p[j - 1].inverse() * gij)
        out[f"yy({i},{j})"] = zero(y(i), y(j), gij)
        out[f"xy({i},{j})"] = zero(x(i), y(j), p[j - 1] * gij.inverse())
        out[f"xy({j},{i})"] = zero(x(j), y(i), q[i - 1] * gji.inverse())
    for i in range(1, n + 1):
        out[f"weyl({i})"] = zero(x(i), y(i), q[i - 1], z(i - 1) if i > 1 else None)
        out[f"casimir-p({i})"] = zero(x(i), y(i), p[i - 1], z(i))
        for j in range(1, n + 1):
            lam = p[j - 1] if i < j else q[j - 1]
            out[f"z{i}*y{j}"] = zero(z(i), y(j), lam)
            out[f"z{i}*x{j}"] = zero(z(i), x(j), lam.inverse())
            out[f"z{i}*z{j}"] = zero(z(i), z(j), spec.lattice.one())
    return out


def _engine_verdicts(spec):
    """The same verdicts from the verifiers, sharing one memo as verify does."""
    spec._products = None
    checks = verify_relations(spec)
    for i in range(1, spec.n + 1):
        checks += verify_normality(spec, i)
    return {c["name"]: c["status"] == "pass" for c in checks
            if not c["name"].startswith("gamma(")}


def test_fused_checks_match_the_multiply_formula(custom_config):
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in range(1, 6)]
    rng = random.Random(11)
    specs += [spec_from_config(custom_config(rng, n, k)) for n in (2, 3, 4) for k in (2, 3)
              for _ in range(2)]
    for spec in specs:
        engine = _engine_verdicts(spec)
        assert engine == _oracle_verdicts(_twin(spec)), (spec.kind, spec.n)
        assert all(engine.values())


def _corrupted(key_of, scale_term):
    """A generic n=3 spec whose rewrite rules have the term scale_term of the
    rule at key_of(spec) multiplied by g12."""
    spec = build_spec(3, "generic")
    rules = [list(row) for row in pbw._packed_rules(spec)]
    h, g = key_of(spec)
    rhs = list(rules[h][g])
    c, a, b = rhs[scale_term]
    rhs[scale_term] = (c * spec.lattice.symbol("g12"), a, b)
    rules[h][g] = tuple(rhs)
    spec._packed_rules = rules
    return spec


@pytest.mark.parametrize("key_of, scale_term, must_fail", [
    (lambda s: (s.x_index(3), s.x_index(1)), 0, "xx(1,3)"),
    (lambda s: (s.x_index(3), s.y_index(3)), 1, "weyl(3)"),
], ids=["x3*x1-swap", "x3*y3-rule-z1-term"])
def test_fused_checks_fail_where_the_multiply_formula_fails(key_of, scale_term, must_fail):
    failed = {name for name, ok in _engine_verdicts(_corrupted(key_of, scale_term)).items()
              if not ok}
    assert must_fail in failed
    oracle = _oracle_verdicts(_corrupted(key_of, scale_term))
    assert failed == {name for name, ok in oracle.items() if not ok}


# -- the relation checks' generator products, read from the rule table ----------

def test_stored_generator_pairs_match_pair_on_a_fresh_memo(custom_config):
    """verify_relations stores every product of two generators but x_i*y_i
    (slot 2i-1 times slot 2i-2), and each product it stores equals pair on a
    fresh memo of the same spec, which folds it from the same rules."""
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in range(1, 6)]
    rng = random.Random(17)
    specs += [spec_from_config(custom_config(rng, n, k)) for n in range(1, 6) for k in (1, 2, 3)]
    specs.append(_corrupted(lambda s: (s.x_index(3), s.x_index(1)), 0))
    specs.append(_corrupted(lambda s: (s.x_index(3), s.y_index(3)), 1))
    spec = _two_symbol_spec(["a", "b"], ["b", "a"])
    _replace_swap(spec, spec.y_index(2), spec.x_index(1), "a")
    specs.append(spec)
    for spec in specs:
        spec._products = None
        verify_relations(spec)
        stored = spec._products.pairs
        unit, size = _layout(spec.n).unit, 2 * spec.n
        assert {(unit[v], unit[w]) for v in range(size) for w in range(size)
                if v != w and not (v % 2 and w == v - 1)} <= set(stored)
        fresh = _Products(spec)
        for (mf, mg), terms in stored.items():
            assert terms == fresh.pair(mf, mg), (spec.kind, spec.n, mf, mg)


# -- the specialization lemma's premise: a rule table is Phi of the generic one --

def _specialization(spec, generic):
    """Phi for spec: a function from the scalars of the generic spec of
    size spec.n (None for 1) to spec's scalars, the ring map that sends
    each generic symbol q_i, p_i and g_ij (i < j) to spec's monomial."""
    n, lattice = spec.n, spec.lattice
    image = {f"q{i}": spec.q[i - 1] for i in range(1, n + 1)}
    image.update({f"p{i}": spec.p[i - 1] for i in range(1, n + 1)})
    image.update({f"g{i}{j}": spec.gamma[i - 1][j - 1]
                  for i, j in itertools.combinations(range(1, n + 1), 2)})
    images = [image[name] for name in generic.lattice.symbols]

    def phi(c):
        if c is None:
            return lattice.one()
        out = lattice.zero()
        for exps, coeff in c.terms.items():
            term = lattice.rational(coeff)
            for v, e in zip(images, exps):
                if e:
                    term = term * v**e
            out = out + term
        return out

    return phi


def test_rule_table_is_the_specialization_of_the_generic_table(custom_config):
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in range(1, 6)]
    rng = random.Random(19)
    specs += [spec_from_config(custom_config(rng, n, k)) for n in range(1, 6) for k in (1, 2, 3)
              for _ in range(2)]
    for spec in specs:
        generic = build_spec(spec.n, "generic")
        phi, one = _specialization(spec, generic), spec.lattice.one()
        rules, generic_rules = pbw._packed_rules(spec), pbw._packed_rules(generic)
        for h, g in itertools.product(range(2 * spec.n), repeat=2):
            assert len(rules[h][g]) == len(generic_rules[h][g]), (spec.kind, spec.n, h, g)
            for (c, a, b), (gc, ga, gb) in zip(rules[h][g], generic_rules[h][g]):
                assert (a, b) == (ga, gb)
                assert phi(gc) == (one if c is None else c), (spec.kind, spec.n, h, g)


# -- normality laws as prefix sums ---------------------------------------------

def _normality_by_index(spec, order):
    """verify_normality(spec, i) for i in order on the one memo of spec, by i;
    a repeated i must return what its first call returned."""
    out = {}
    for i in order:
        checks = verify_normality(spec, i)
        assert out.setdefault(i, checks) == checks, i
    return out


def _fresh_normality(spec):
    """verify_normality(spec, i) for every i, each on a memo of its own."""
    out = {}
    for i in range(1, spec.n + 1):
        spec._products = None
        out[i] = verify_normality(spec, i)
    spec._products = None
    return out


def _orders(n, rng):
    shuffled = list(range(1, n + 1))
    rng.shuffle(shuffled)
    return [shuffled, list(range(n, 0, -1)), shuffled + list(range(1, n + 1)) + shuffled]


def test_normality_prefixes_answer_like_fresh_memos_in_every_order(custom_config):
    rng = random.Random(41)
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in range(1, 6)]
    specs += [spec_from_config(custom_config(rng, n, k)) for n in (2, 3, 4, 5) for k in (2, 3)]
    corruptions = [((lambda s: (s.x_index(3), s.x_index(1))), 0),
                   ((lambda s: (s.x_index(3), s.y_index(3))), 1),
                   ((lambda s: (s.x_index(2), s.x_index(1))), 0)]
    corrupted = [_corrupted(*c) for c in corruptions]
    for spec in specs + corrupted:
        expect = _fresh_normality(spec)
        for order in _orders(spec.n, rng):
            spec._products = None
            assert _normality_by_index(spec, order) == expect, (spec_to_config(spec), order)
    # a corrupted table fails some laws, so failing prefixes are kept; the
    # x2*x1 swap fails the law of z_2 and x_1, and the law of z_3 extends
    # that prefix.  The law verdicts match the multiply formula there.
    for spec, corruption in zip(corrupted, corruptions):
        engine = {c["name"]: c["status"] == "pass"
                  for checks in _fresh_normality(spec).values() for c in checks
                  if c["name"][3] in "xy"}
        oracle = _oracle_verdicts(_corrupted(*corruption))
        assert engine == {name: oracle[name] for name in engine}
        assert not all(engine.values())
    # engine is the x2*x1 swap's
    assert {"z2*x1", "z3*x1"} <= {name for name, ok in engine.items() if not ok}


def test_threads_share_the_normality_prefixes(custom_config):
    specs = [build_spec(5, "generic"), build_spec(4, "heisenberg"),
             spec_from_config(custom_config(random.Random(43), 4, 3)),
             _corrupted(lambda s: (s.x_index(3), s.y_index(3)), 1)]
    rng = random.Random(47)
    for spec in specs:
        expect = _fresh_normality(spec)
        orders = _orders(spec.n, rng) + [list(range(1, spec.n + 1))]
        results = [None] * 4
        start = threading.Barrier(4)

        def work(t):
            start.wait()
            results[t] = _normality_by_index(spec, orders[t])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expect] * 4, spec_to_config(spec)


def test_memo_casimirs_are_the_presentation_casimirs(custom_config):
    # the memo extends z_{i-1} by (q_i - p_i) y_i x_i; presentation.casimir
    # sums z_i in one piece, and both keep the terms in the order of l
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in (1, 2, 5)]
    rng = random.Random(35)
    specs += [spec_from_config(custom_config(rng, n, 3)) for n in (2, 3, 4, 6)]
    for spec in specs:
        products = _Products(spec)
        order = list(range(spec.n, 0, -1)) if spec.n % 2 else list(range(1, spec.n + 1))
        for i in order:  # from the top down and from the bottom up
            z = products.casimir(i)
            assert list(z.items()) == list(pbw._terms(casimir(spec, i)).items())
        assert products.casimir(0) == {}
        assert sorted(products.casimirs) == list(range(spec.n + 1))


@pytest.mark.parametrize("n", [4, 8])
def test_normality_laws_sum_3n2_minus_n_term_groups(n):
    # each term group c_l*(y_l x_l*v - lam*v*y_l x_l) is summed once per
    # (v, lam): j - 1 groups under p_j and n under q_j for each v of index j,
    # where a law per (i, v) from scratch would sum n^2(n+1)
    spec = build_spec(n, "generic")
    unit = _layout(n).unit
    zmonos = {unit[2 * l] + unit[2 * l + 1] for l in range(n)}
    groups = []

    class Counted(_Products):
        def combine(self, terms):
            terms = list(terms)
            groups.extend(len(f) for _, f, g, _ in terms
                          if len(g) == 1 and next(iter(g)) in unit and f and set(f) <= zmonos)
            return super().combine(terms)

    spec._products = Counted(spec)
    for i in range(1, n + 1):
        assert all_ok(verify_normality(spec, i))
    assert sum(groups) == 3 * n * n - n
    assert len(spec._products.laws) == 2 * n * n  # n prefixes per generator


# -- extension steps and skew powers against the multiply formulas ------------

def _oracle_step_verdicts(spec, max_k=4):
    """The engine verdicts of every extension step and of the skew suite to
    max_k, from the element formulas: products without the kernel and
    normal_form, then scale and -, on a spec that shares no memo with the
    engine side (_twin)."""
    n, q, p = spec.n, spec.q, spec.p
    one = spec.lattice.one()
    mul = lambda f, g: _product(spec, f, g)
    out = {}
    for m in range(1, n):
        step = ambiskew_step(spec, m)
        z = casimir(spec, m)
        az = PBWElement(n, {
            mono: c * math.prod((step.alpha[g] ** e for g, e in enumerate(mono) if e), start=one)
            for mono, c in z.terms.items()
        })
        out[f"ambiskew-alpha-u({m})"] = (az - z.scale(p[m])).is_zero()
        delta = z - az.scale(step.rho)
        y_new = generator(spec, spec.y_index(m + 1))
        x_new = generator(spec, spec.x_index(m + 1))
        comm = mul(y_new, x_new) - mul(x_new, y_new).scale(step.rho)
        out[f"ambiskew-delta({m})"] = ((delta - z.scale(-q[m].inverse() * step.c)).is_zero()
                                       and (comm.scale(step.c) - delta).is_zero())
        lhs = z - mul(y_new, x_new).scale(step.c) - casimir(spec, m + 1)
        out[f"ambiskew-casimir({m})"] = lhs.is_zero()

    def mono(**powers):
        exps = [0] * (2 * n)
        for slot, e in powers.items():
            exps[int(slot)] = e
        return PBWElement(n, {tuple(exps): one})

    for k in range(1, max_k + 1):
        x, y = spec.x_index(1), spec.y_index(1)
        qk = q[0] ** k
        out[f"skew-base(k={k})"] = (
            (normal_form(spec, (x,) + (y,) * k) - mono(**{str(y): k, str(x): 1}).scale(qk))
            .is_zero()
            and (normal_form(spec, (x,) * k + (y,)) - mono(**{str(y): 1, str(x): k}).scale(qk))
            .is_zero()
        )
        for i in range(2, n + 1):
            x, y = spec.x_index(i), spec.y_index(i)
            qi, pi = q[i - 1], p[i - 1]
            qk = qi**k
            coeff = sum((qi**j * pi ** (k - 1 - j) for j in range(k)), spec.lattice.zero())
            zprev = casimir(spec, i - 1)
            rhs = (mono(**{str(y): 1, str(x): k}).scale(qk)
                   + mul(zprev, mono(**{str(x): k - 1})).scale(coeff))
            lhs = normal_form(spec, (x,) * k + (y,))
            out[f"skew-xk_y(i={i},k={k})"] = (lhs - rhs).is_zero()
            rhs = (mono(**{str(y): k, str(x): 1}).scale(qk)
                   + mul(mono(**{str(y): k - 1}), zprev).scale(coeff))
            lhs = normal_form(spec, (x,) + (y,) * k)
            out[f"skew-x_yk(i={i},k={k})"] = (lhs - rhs).is_zero()
    return out


def _engine_step_verdicts(spec, max_k=4):
    """The same verdicts from the engine, one memo for the extension steps
    and the skew identities as in report."""
    spec._products = None
    checks = [c for m in range(1, spec.n) for c in verify_ambiskew(spec, m)
              if not c["name"].startswith("ambiskew-beta")]
    for k in range(1, max_k + 1):
        checks.append(skew_power_identity(spec, 1, k, "k1_base"))
        for i in range(2, spec.n + 1):
            for form in ("xk_y", "x_yk"):
                checks.append(skew_power_identity(spec, i, k, form))
    return {c["name"]: c["status"] == "pass" for c in checks}


def test_step_and_skew_sums_match_the_multiply_formulas(custom_config):
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in range(1, 6)]
    rng = random.Random(13)
    specs += [spec_from_config(custom_config(rng, n, k)) for n in (2, 3, 4) for k in (2, 3)
              for _ in range(2)]
    for spec in specs:
        engine = _engine_step_verdicts(spec)
        assert engine == _oracle_step_verdicts(_twin(spec)), (spec.kind, spec.n)
        assert all(engine.values())


@pytest.mark.parametrize("key_of, scale_term, must_fail", [
    (lambda s: (s.x_index(3), s.x_index(1)), 0,
     {"skew-xk_y(i=3,k=2)", "skew-xk_y(i=3,k=3)"}),
    (lambda s: (s.x_index(3), s.y_index(3)), 1,
     {"ambiskew-delta(2)"} | {f"skew-{form}(i=3,k={k})" for form in ("xk_y", "x_yk")
                              for k in (1, 2, 3)}),
], ids=["x3*x1-swap", "x3*y3-rule-z1-term"])
def test_step_and_skew_sums_fail_where_the_multiply_formulas_fail(key_of, scale_term,
                                                                  must_fail):
    # k = 1..3, the skew suite of report
    engine = _engine_step_verdicts(_corrupted(key_of, scale_term), max_k=3)
    failed = {name for name, ok in engine.items() if not ok}
    assert failed == must_fail
    oracle = _oracle_step_verdicts(_corrupted(key_of, scale_term), max_k=3)
    assert failed == {name for name, ok in oracle.items() if not ok}


# -- power blocks against the rewriter ------------------------------------------

def _block_words(spec):
    """Words with a long block: x_i^a y_i and h^a g for every swap rule h*g
    -> c*g*h of the spec's table, a <= 40, and x_j x_i^a y_i y_j for j != i,
    a <= 7 past n = 2, where the rewriter's paths multiply."""
    n, rules = spec.n, pbw._packed_rules(spec)
    swaps = [(h, g) for h in range(2 * n) for g in range(h) if len(rules[h][g]) == 1]
    for a in (2, 3, 7, 40):
        for i in range(1, n + 1):
            x, y = spec.x_index(i), spec.y_index(i)
            yield (x,) * a + (y,)
            for j in range(1, n + 1):
                if j != i and (a <= 7 or n == 2):
                    yield (spec.x_index(j),) + (x,) * a + (y, spec.y_index(j))
        for h, g in swaps:
            yield (h,) * a + (g,)


def test_power_blocks_match_the_rewriter(custom_config):
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in (2, 3, 4)]
    rng = random.Random(17)
    specs += [spec_from_config(custom_config(rng, n, k)) for n in (2, 3, 4) for k in (2, 3)]
    for spec in specs:
        for word in _block_words(spec):
            assert normal_form(spec, word) == _rewrite_word(spec, word), (spec.kind, word)


@pytest.mark.parametrize("key_of, scale_term", [
    (lambda s: (s.x_index(3), s.x_index(1)), 0),
    (lambda s: (s.x_index(3), s.y_index(3)), 1),
], ids=["x3*x1-swap", "x3*y3-rule-z1-term"])
def test_power_blocks_follow_a_corrupted_table(key_of, scale_term):
    # the block rules read c_0 and s_l from the table, not from q and p, so
    # the fold keeps matching the rewriter on a table that is not the algebra's
    spec = _corrupted(key_of, scale_term)
    for word in _block_words(spec):
        assert normal_form(spec, word) == _rewrite_word(spec, word), word


def test_a_power_block_costs_the_same_at_every_power(monkeypatch):
    # nf x2^a y2 passes the block x2^a in one step: as many times calls at
    # a = 50 as at a = 5000, each on a spec of its own, whose memo is cold
    calls = []
    times = _Products.times
    monkeypatch.setattr(_Products, "times", lambda self, m, g: (calls.append(g),
                                                                times(self, m, g))[1])
    x2, y2 = GEN2.x_index(2), GEN2.y_index(2)
    counts = []
    for a in (50, 5000):
        calls.clear()
        f = normal_form(build_spec(2, "generic"), (x2,) * a + (y2,))
        assert sorted(f.terms) == [(0, 0, 1, a), (1, 1, 0, a - 1)]
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_pair_guards_the_degree_once_per_miss(monkeypatch):
    layout = _layout(2)
    products = _Products(GEN2)
    top = layout.pack((MAX_DEGREE, 0, 0, 0))
    with pytest.raises(OverflowError):
        products.pair(top, layout.unit[0])
    assert not products.pairs
    guarded = []
    original = pbw._check_degree
    monkeypatch.setattr(pbw, "_check_degree", lambda d: (guarded.append(d), original(d)))
    x1, y2 = layout.unit[1], layout.unit[2]
    first = products.pair(x1 + y2, layout.unit[0])
    assert products.pair(x1 + y2, layout.unit[0]) is first
    assert guarded == [3]
    assert products.element(first) == normal_form(GEN2, "x1 y2 y1")


def test_products_by_one_generator_share_the_pair_memo():
    # times(m, g) stores m*g under (m, unit[g]), where pair reads it
    layout = _layout(2)
    products = _Products(GEN2)
    x2y1 = layout.pack((1, 0, 0, 1))  # y1 x2
    below = products.times(x2y1, 0)
    assert set(products.pairs) >= {(x2y1, layout.unit[0])}
    assert products.pair(x2y1, layout.unit[0]) is below
    assert products.element(below) == normal_form(GEN2, "y1 x2 y1")
    # pair first: a one-letter miss keeps the dict that times stored, no copy
    products = _Products(GEN2)
    y2x1 = layout.pack((0, 1, 1, 0))  # y2 x1
    first = products.pair(y2x1, layout.unit[0])
    assert first is products.pairs[(y2x1, layout.unit[0])]
    assert products.times(y2x1, 0) is first
    assert products.element(first) == normal_form(GEN2, "x1 y2 y1")


def test_library_calls_and_checks_share_one_spec_memo(monkeypatch):
    # normal_form, multiply and the identity checks read the one memo
    # cached on the spec; growth_count folds nothing and builds none
    built = []

    class Counted(_Products):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(pbw, "_Products", Counted)
    spec = build_spec(3, "generic")
    growth_count(spec, 2)
    assert built == [] and spec._products is None
    f = normal_form(spec, "x3 y2 x1 y3")
    memo = spec._products
    multiply(spec, f, normal_form(spec, "y3 x2"))
    verify_relations(spec)
    growth_count(spec, 2)
    assert built == [spec] and spec._products is memo


def test_spec_memo_forms_no_cycle():
    # the memo holds its spec weakly, so dropping the last reference frees
    # the spec and its memo at once, without the cycle collector
    spec = build_spec(3, "generic")
    normal_form(spec, "x3 y2 x1 y3")
    verify_normality(spec, 2)
    freed = weakref.ref(spec._products)
    gc.disable()
    try:
        del spec
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_degree_is_the_sum_of_the_fields(n, monkeypatch):
    values = (0, 1, 2**16 - 1, 2**16, 2**31, 2**32 - 1)
    rng = random.Random(n)
    monos = [(v,) * (2 * n) for v in values]
    monos += [tuple(v if g == s else 0 for g in range(2 * n)) for v in values
              for s in range(2 * n)]
    monos += [tuple(rng.choice(values) for _ in range(2 * n)) for _ in range(200)]
    monos += [tuple(rng.choice(values[:3]) for _ in range(2 * n)) for _ in range(200)]
    fast = _layout(n)
    monkeypatch.setattr(pbw, "_FAST_DEGREE_SLOTS", 2 * n)  # the fast path off
    slow = pbw._Layout(n)
    for layout in (fast, slow):
        for mono in monos:
            m = layout.pack(mono)
            assert layout.degree(m) == sum(layout.unpack(m)) == sum(mono), (n, mono)
    assert slow.high == (1 << 64 * n) - 1 and fast.high != slow.high


def test_element_degree_reads_the_layout_helper(monkeypatch):
    seen = []
    original = pbw._Layout.degree

    def counted(layout, m):
        seen.append(m)
        return original(layout, m)

    monkeypatch.setattr(pbw._Layout, "degree", counted)
    one = GEN2.lattice.one()
    f = PBWElement(2, {(2**16, 0, 3, 0): one, (1, 1, 0, 0): one})
    assert f.degree() == 2**16 + 3 and len(seen) == 2
    assert PBWElement(2, {}).degree() == -1


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
    assert check["status"] == "pass"


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
        assert skew_power_identity(GEN2, 2, k, "xk_y")["status"] == "pass"
        assert skew_power_identity(GEN2, 2, k, "x_yk")["status"] == "pass"


def test_skew_k1_reduces_to_defining_relation():
    assert skew_power_identity(GEN2, 2, 1, "xk_y")["status"] == "pass"


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
    # the bound is on N, the length of the answer, at every n
    for spec in (build_spec(1, "generic"), GEN2, build_spec(9, "generic")):
        size = 2 * spec.n
        rep = growth_count(spec, GROWTH_MAX_N)
        assert len(rep.counts) == GROWTH_MAX_N + 1
        assert rep.counts[-1] == math.comb(GROWTH_MAX_N + size, size)
        with pytest.raises(BudgetError, match=f"N={GROWTH_MAX_N + 1} over the limit"):
            growth_count(spec, GROWTH_MAX_N + 1)
    with pytest.raises(ValueError):
        growth_count(GEN2, 0)


def test_growth_counts_past_the_old_span_gate():
    # binom(4 + 32, 32) = 58,905 monomials at n = 16, far past any span a
    # fold could build in a report
    rep = growth_count(build_spec(16, "generic"), 4)
    assert rep.counts == [math.comb(m + 32, 32) for m in range(5)]
    assert rep.window == (2, 4)


def _fitted_exponent(counts, N):
    """The exponent as a fit: the discrete log-derivative
    m*(c_m - c_{m-1})/c_{m-1} averaged over the window [max(1, N - 2), N]."""
    lo = max(1, N - 2)
    estimates = [Fraction(m * (counts[m] - counts[m - 1]), counts[m - 1])
                 for m in range(lo, N + 1)]
    return float(sum(estimates) / len(estimates))


def test_growth_exponent_is_2n():
    for n in range(1, 17):
        spec = build_spec(n, "generic")
        for N in (1, 2, 3, 4, 5, 10, 50, 1000):
            rep = growth_count(spec, N)
            assert rep.exponent == _fitted_exponent(rep.counts, N) == 2 * n
            assert rep.window == (max(1, N - 2), N)


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
    assert render_element(spec, normal_form(spec, "")) == "(1)/(1)·1"


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


def test_multiply_appends_a_power_without_folding(monkeypatch):
    # the product is one append, however high the power on the right
    folds, times = [], []
    fold, times_ = _Products.fold, _Products.times
    monkeypatch.setattr(_Products, "fold", lambda self, acc, g: (folds.append(g),
                                                                 fold(self, acc, g))[1])
    monkeypatch.setattr(_Products, "times", lambda self, m, g: (times.append((m, g)),
                                                                times_(self, m, g))[1])
    # a spec of its own, whose memo is cold
    spec = build_spec(2, "generic")
    one = spec.lattice.one()
    y1 = generator(spec, "y1")
    below = PBWElement(2, {(MAX_DEGREE - 1, 0, 0, 0): one})
    assert multiply(spec, y1, below) == PBWElement(2, {(MAX_DEGREE, 0, 0, 0): one})
    assert folds == times == []
    # x1*y1 is no append: one times call of x1 by y1, and no fold
    assert multiply(spec, generator(spec, "x1"), y1) == PBWElement(2, {(1, 1, 0, 0): spec.q[0]})
    assert folds == []
    assert times == [(_layout(2).unit[1], 0)]


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


# -- slot numbers are range-checked ---------------------------------------------

def test_normal_form_refuses_a_negative_slot():
    # (-1,) was read from the end of the slot list, as x2
    with pytest.raises(ValueError, match="slot -1 outside 0..3"):
        normal_form(GEN2, (-1,))


def test_generator_refuses_a_negative_slot():
    # slot -4 was read from the end of the slot list, as y1
    with pytest.raises(ValueError, match="slot -4 outside 0..3"):
        generator(GEN2, -4)


def test_slot_2n_is_a_value_error():
    # slot 2n raised a bare IndexError
    with pytest.raises(ValueError, match="slot 4 outside 0..3"):
        normal_form(GEN2, (0, 4))
    with pytest.raises(ValueError, match="slot 4 outside 0..3"):
        generator(GEN2, 4)


# -- generator names: the name table against gen_index --------------------------

def _outcome(read, name):
    """read(name), or the field and message of the ConfigError it raises."""
    try:
        return read(name)
    except ConfigError as exc:
        return exc.field, exc.message


def test_word_readers_answer_like_gen_index(custom_config):
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in (1, 2, 3)]
    specs.append(spec_from_config(custom_config(random.Random(31), 3, 2)))
    for spec in specs:
        n = spec.n
        canonical = [spec.gen_name(g) for g in range(2 * n)]
        odd = ["x01", "y003", "x0", f"x{n + 1}", "z1", "X1", "x", "x\u00b2", "x\u0661"]
        for name in canonical + odd:
            slot = _outcome(spec.gen_index, name)
            ok = isinstance(slot, int)
            assert _outcome(lambda t: parse_word(spec, t), name) == ((slot,) if ok else slot)
            assert _outcome(lambda t: parse_word(spec, f"x1 {t} y1"), name) == (
                (1, slot, 0) if ok else slot)
            assert _outcome(lambda t: generator(spec, t), name) == (
                generator(spec, slot) if ok else slot)
        assert parse_word(spec, " ".join(canonical)) == tuple(range(2 * n))


def test_a_non_canonical_name_reads_as_its_generator():
    cfg = {"n": 2, "kind": "generic"}
    values = cli.run(cfg, "nf", ["x01 y1"]).values
    assert values["normal_form"] == cli.run(cfg, "nf", ["x1 y1"]).values["normal_form"]


def test_only_the_word_readers_build_the_name_table():
    spec = build_spec(3, "generic")
    torus_dimension(spec)
    _verify(spec)
    assert spec._slots is None
    normal_form(spec, "x2 y1")
    assert spec._slots == {"y1": 0, "x1": 1, "y2": 2, "x2": 3, "y3": 4, "x3": 5}


# -- one product memo per spec: warm against fresh ------------------------------

def _session_inputs(spec, rng):
    """The nf words and mul pairs of a library session on spec: random words
    of length 4-10, power words x_i^a y_i^b wrapped in x_j ... y_j, and
    pairs of shorter random words."""
    size = 2 * spec.n
    word = lambda lo, hi: tuple(rng.randrange(size) for _ in range(rng.randint(lo, hi)))
    words = [word(4, 10) for _ in range(10)]
    for i, j in itertools.permutations(range(1, spec.n + 1), 2):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        words.append((spec.x_index(j),) + (spec.x_index(i),) * a + (spec.y_index(i),) * b
                     + (spec.y_index(j),))
    pairs = [(word(1, 5), word(1, 5)) for _ in range(8)]
    return words, pairs


def _verify(spec):
    return cli._cmd_verify(spec, [], lambda: False)[0]


def _mul_words(spec, u, v):
    return multiply(spec, normal_form(spec, u), normal_form(spec, v))


def _warm_session(spec, words, pairs, verify_first):
    """verify, the normal forms of words and the products of pairs, all on
    the one memo of spec, with verify first or last."""
    checks = _verify(spec) if verify_first else None
    forms = [normal_form(spec, w) for w in words]
    products = [_mul_words(spec, u, v) for u, v in pairs]
    if not verify_first:
        checks = _verify(spec)
    return checks, forms, products


def test_a_warm_spec_memo_answers_like_fresh_specs(custom_config):
    rng = random.Random(23)
    specs = [build_spec(n, kind) for kind in PRESET_KINDS for n in (2, 3)]
    specs += [spec_from_config(custom_config(rng, n, k)) for n in (2, 3) for k in (2, 3)]
    for spec in specs:
        words, pairs = _session_inputs(spec, rng)
        forms = [normal_form(_twin(spec), w) for w in words]
        assert forms == [_rewrite_word(spec, w) for w in words], spec
        products = [_mul_words(_twin(spec), u, v) for u, v in pairs]
        assert products == [_rewrite_word(spec, u + v) for u, v in pairs], spec
        checks = _verify(_twin(spec))
        assert all_ok(checks)
        for verify_first in (True, False):
            warm = _warm_session(_twin(spec), words, pairs, verify_first)
            assert warm == (checks, forms, products), (spec, verify_first)


def test_a_call_that_raises_leaves_the_memo_sound():
    # pair's degree guard: the products of the low monomials of f are stored
    # before the top one passes the field
    spec = build_spec(2, "generic")
    one = spec.lattice.one()
    f = normal_form(spec, "x2 x1 y1") + PBWElement(2, {(MAX_DEGREE, 0, 0, 0): one})
    for _ in range(2):
        with pytest.raises(OverflowError):
            multiply(spec, f, normal_form(spec, "x2 y2 y1"))
        assert spec._products.pairs
    words, pairs = _session_inputs(spec, random.Random(31))
    fresh = _twin(spec)
    assert _warm_session(spec, words, pairs, False) == _warm_session(fresh, words, pairs, False)
    # a swap block whose coefficient c^e leaves the 32-bit exponent field
    cfg = {"n": 2, "kind": "custom", "custom": {
        "symbols": ["a", "b"], "q": ["1", "b"], "p": ["b", "a^2147483647"],
        "gamma": [["1", "1"], ["1", "1"]]}}
    spec = spec_from_config(cfg)
    for _ in range(2):
        with pytest.raises(ExponentOverflowError):
            normal_form(spec, "y2 x2 x2 x1")
    for text in ("x2 x1", "x2 y2 x1", "x1 y1 x2 y2", "x2 x2 y2", "y2 x2 x1"):
        assert normal_form(spec, text) == normal_form(spec_from_config(cfg), text), text
    assert _verify(spec) == _verify(spec_from_config(cfg))


def _unit_gamma_spec(q, p):
    return spec_from_config({"n": 2, "kind": "custom", "custom": {
        "symbols": ["a", "b"], "q": q, "p": p, "gamma": [["1", "1"], ["1", "1"]]}})


@pytest.mark.parametrize("q, p, vector", [
    (["1", "a"], ["a^2147483647", "1"], "(2147483648, 0)"),
    (["1", "a"], ["a^2147483647", "b"], "(2147483648, -1)"),
    (["1", "a^-2147483647"], ["a", "1"], "(-4294967294, 0)"),
])
def test_verify_refuses_a_normality_law_past_the_exponent_field(q, p, vector):
    # the first product of a normality law whose exponent passes
    # ±(2^31 - 1), and so the message, is fixed by the spec
    match = "^" + re.escape(f"exponent vector {vector} leaves ±2147483647") + "$"
    spec = _unit_gamma_spec(q, p)
    for _ in range(2):
        with pytest.raises(ExponentOverflowError, match=match):
            _verify(spec)
    with pytest.raises(ExponentOverflowError, match=match):
        verify_normality(spec, 2)


def _two_symbol_spec(q, p, g12="1", g21="1"):
    return spec_from_config({"n": 2, "kind": "custom", "custom": {
        "symbols": ["a", "b"], "q": q, "p": p, "gamma": [["1", g12], [g21, "1"]]}})


def _replace_swap(spec, h, g, symbol):
    """A copy of the rules of spec with the swap h*g -> c*g*h scaled to the
    coefficient `symbol`."""
    rules = [list(row) for row in pbw._packed_rules(spec)]
    (_, a, b), = rules[h][g]
    rules[h][g] = ((spec.lattice.symbol(symbol), a, b),)
    spec._packed_rules = rules


def _raises_exactly(vector, call):
    match = "^" + re.escape(f"exponent vector {vector} leaves ±2147483647") + "$"
    with pytest.raises(ExponentOverflowError, match=match):
        call()


def test_verify_refuses_a_relation_whose_lambda_side_passes_the_exponent_field():
    # the messages are those of the code that negated lambda: the same
    # products, in the same order, pass the field.  xx(1,2) forms
    # lambda = q_1 p_2^-1 gamma_12 = a^-M, whose partial product q_1 p_2^-1
    # = a^-2M does not fit, though every swap coefficient does
    m = 2**31 - 1
    spec = _two_symbol_spec([f"a^-{m}", "b"], ["b", f"a^{m}"], f"a^{m}", f"a^-{m}")
    for _ in range(2):
        _raises_exactly("(-4294967294, 0)", lambda: _verify(spec))
    _raises_exactly("(-4294967294, 0)", lambda: verify_relations(spec))
    # xy(1,2) sums x1 y2 - lambda y2 x1 with lambda = p_2 = a^M; a table whose
    # swap y2*x1 -> a x1 y2 makes the lambda side a^(M+1) inside the sum
    spec = _two_symbol_spec(["a", "b"], ["b", f"a^{m}"])
    _replace_swap(spec, spec.y_index(2), spec.x_index(1), "a")
    for _ in range(2):
        _raises_exactly("(2147483648, 0)", lambda: _verify(spec))


def test_verify_refuses_an_ambiskew_delta_sum_past_the_exponent_field():
    # with rho = q_2^-1 = b^M and c = p_2 - q_2 = a - b^-M, rho*c = a b^M - 1
    # fits, alpha(z_1) and the alpha-u sum fit, and the delta sum passes the
    # field at rho*c times the z_1 term (b^M - 1) y1 x1 of x2 y2; verify
    # itself stops earlier, at a normality law
    m = 2**31 - 1
    spec = _two_symbol_spec([f"b^{m}", f"b^-{m}"], ["1", "a"])
    for _ in range(2):
        _raises_exactly("(1, 4294967294)", lambda: verify_ambiskew(spec, 1))
    _raises_exactly("(0, 4294967294)", lambda: _verify(spec))


def test_products_sub_matches_scalar_arithmetic(monkeypatch):
    # out[m] -= c for absent, present, cancelling and unit (None) entries and
    # coefficients; a cancellation builds no Scalar, and nothing is negated
    spec = build_spec(2, "generic")
    products = _Products(spec)
    one, q1, p1 = spec.lattice.one(), spec.q[0], spec.p[0]
    # (entries, c, entries after out[5] -= c), the oracle a + (-b)
    cases = [
        ({}, q1, {5: -q1}),
        ({}, None, {5: -one}),
        ({5: q1}, p1, {5: q1 + -p1}),
        ({5: None}, q1, {5: one + -q1}),
        ({5: q1}, None, {5: q1 + -one}),
        ({5: q1 + p1}, q1, {5: p1}),
        ({6: q1}, q1, {6: q1, 5: -q1}),
    ]
    cancelling = [({5: q1}, q1 * one), ({5: None}, None), ({5: one}, None),
                  ({5: None}, one), ({5: q1, 6: p1}, q1)]
    made, negated = [], []
    real = scalars._scalar
    monkeypatch.setattr(scalars, "_scalar", lambda *a: made.append(a) or real(*a))
    monkeypatch.setattr(scalars.Scalar, "__neg__", lambda self: negated.append(self))
    for before, c, after in cases:
        out = dict(before)
        products.sub(out, 5, c)
        assert out == after, (before, c)
        assert out[5].degree == after[5].degree
    for before, c in cancelling:
        out = dict(before)
        made.clear()
        products.sub(out, 5, c)
        assert 5 not in out and made == []
        assert {k: v for k, v in before.items() if k != 5} == out
    assert negated == []


def test_verify_passes_a_spec_near_the_exponent_field():
    spec = _unit_gamma_spec(["1", "1"], ["a^2147483647", "b"])
    checks = _verify(spec)
    assert all_ok(checks) and len(checks) == 49


def test_a_memo_past_its_bound_is_dropped(monkeypatch):
    monkeypatch.setattr(pbw, "MEMO_MAX_PAIRS", 8)
    spec = build_spec(3, "generic")
    small = normal_form(spec, "x1 y1")
    memo = spec._products
    assert 0 < len(memo.pairs) <= 8
    word = parse_word(spec, "x3 x2 y3 y1 x1 y2 x3")
    assert normal_form(spec, word) == _rewrite_word(spec, word)
    assert len(memo.pairs) > 8 and spec._products is None
    assert normal_form(spec, "x1 y1") == small
    f, g = normal_form(spec, "x3 x2 y1"), normal_form(spec, "y3 y2 x1")
    assert multiply(spec, f, g) == _rewrite_word(spec, parse_word(spec, "x3 x2 y1 y3 y2 x1"))
    assert spec._products is None
    # the identity checks of a spec are finitely many: they keep their memo
    checks = _verify(spec)
    assert len(spec._products.pairs) > 8
    assert checks == _verify(_twin(spec))


def test_threads_share_one_spec_memo():
    spec = build_spec(3, "generic")
    rng = random.Random(37)
    words = [tuple(rng.randrange(6) for _ in range(rng.randint(4, 9))) for _ in range(60)]
    expect = [normal_form(_twin(spec), w) for w in words]
    results = [None] * 4
    start = threading.Barrier(4)

    def work(t):
        start.wait()
        order = words if t % 2 else words[::-1]
        results[t] = {w: normal_form(spec, w) for w in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for out in results:
        assert [out[w] for w in words] == expect
