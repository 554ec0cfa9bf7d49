"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is exact (no tolerances) except the stated runtime
ceilings and the growth-exponent window.
"""

import math
import random
import time
from contextlib import contextmanager

from qweyl.dimension import (
    bernstein_bound,
    integer_rank,
    isotropic_witness_search,
    max_isotropic_rank_single,
    pairing_from_matrix,
    smith_normal_form,
    torus_dimension,
    verify_witness,
)
from qweyl.pbw import (
    PBWElement,
    _packed_rules,
    generator,
    growth_count,
    multiply,
    normal_form,
    skew_power_identity,
    verify_ambiskew,
    verify_normality,
    verify_relations,
)
from qweyl.presentation import build_spec
from qweyl.reporting import all_ok
from qweyl.torus import check_torus_isomorphism, standard_torus

SINGLE_PARAMETER = ("symplectic", "euclidean", "heisenberg")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def _unit(m, i):
    e = [0] * m
    e[i] = 1
    return tuple(e)


def test_criterion_1_dimension_theorems():
    with criterion(1, "dimension theorems (p_i=1 and q_i=1 families)"):
        for n in range(1, 5):
            for kind, want in (("generic-p1", n), ("generic-q1", n + 1)):
                started = time.perf_counter()
                spec = build_spec(n, kind)
                rep = torus_dimension(spec)
                elapsed = time.perf_counter() - started
                assert elapsed < 5.0, f"{kind} n={n} took {elapsed:.1f}s"
                assert rep.is_point and rep.d == want
                expected = tuple(_unit(2 * n, i) for i in range(want))
                assert rep.witness.vectors == expected
                E = pairing_from_matrix(standard_torus(spec))
                assert verify_witness(E, rep.witness)


def test_criterion_2_single_parameter_corollaries():
    with criterion(2, "single-parameter corollaries (exact formula + SNF)"):
        for n in range(1, 5):
            for kind in SINGLE_PARAMETER:
                want = n if kind == "symplectic" else n + 1
                started = time.perf_counter()
                spec = build_spec(n, kind)
                rep = torus_dimension(spec)
                elapsed = time.perf_counter() - started
                assert elapsed < 5.0, f"{kind} n={n} took {elapsed:.1f}s"
                assert rep.method == "exact-single-parameter"
                assert rep.is_point and rep.d == want
                E = pairing_from_matrix(standard_torus(spec))
                S = E.component(0)
                rank = integer_rank(S)
                assert rank == len(smith_normal_form(S))
                assert rep.d == 2 * n - rank // 2
                assert verify_witness(E, rep.witness)


def test_criterion_3_weyl_coincidence():
    with criterion(3, "Weyl coincidence (graded-weyl torus matrix)"):
        for n in range(1, 5):
            weyl = standard_torus(build_spec(n, "graded-weyl"))
            p1 = standard_torus(build_spec(n, "generic-p1"))
            assert weyl == p1
            assert torus_dimension(build_spec(n, "graded-weyl")).d == n


def test_criterion_4_bernstein_bounds():
    with criterion(4, "growth lower bounds (2n, d, 2n-d)"):
        for n in range(1, 5):
            rep = bernstein_bound(build_spec(n, "generic-p1"))
            assert (rep.gkdim_algebra, rep.d, rep.bound) == (2 * n, n, n)
            rep = bernstein_bound(build_spec(n, "generic-q1"))
            assert (rep.gkdim_algebra, rep.d, rep.bound) == (2 * n, n + 1, n - 1)


def test_criterion_5_relation_suite():
    with criterion(5, "defining relations and normal-element laws"):
        started = time.perf_counter()
        for kind in ("generic",) + SINGLE_PARAMETER:
            for n in range(1, 4):
                spec = build_spec(n, kind)
                assert all_ok(verify_relations(spec)), (kind, n)
                for i in range(1, n + 1):
                    assert all_ok(verify_normality(spec, i)), (kind, n, i)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"relation suite took {elapsed:.1f}s"


def test_criterion_6_ambiskew_construction():
    with criterion(6, "iterated extension-step data"):
        for kind in ("generic",) + SINGLE_PARAMETER:
            for n in range(2, 4):
                spec = build_spec(n, kind)
                for m in range(1, n):
                    assert all_ok(verify_ambiskew(spec, m)), (kind, n, m)


def test_criterion_7_skew_power_formulae():
    with criterion(7, "skew power formulae, k <= 6"):
        for n in range(1, 4):
            spec = build_spec(n, "generic")
            for k in range(1, 7):
                assert skew_power_identity(spec, 1, k, "k1_base")["status"] == "pass"
                for i in range(2, n + 1):
                    assert skew_power_identity(spec, i, k, "xk_y")["status"] == "pass", (n, i, k)
                    assert skew_power_identity(spec, i, k, "x_yk")["status"] == "pass", (n, i, k)


def test_criterion_8_associativity_fuzz():
    with criterion(8, "associativity fuzz (confluence surrogate)"):
        seed = 271828
        rng = random.Random(seed)
        started = time.perf_counter()
        failures = 0
        trials = 0
        for n in (1, 2):
            spec = build_spec(n, "generic")
            for _ in range(120):
                words = [
                    tuple(rng.randrange(2 * n) for _ in range(rng.randint(0, 4)))
                    for _ in range(3)
                ]
                f, g, h = (normal_form(spec, w) for w in words)
                lhs = multiply(spec, multiply(spec, f, g), h)
                rhs = multiply(spec, f, multiply(spec, g, h))
                trials += 1
                if not (lhs - rhs).is_zero():
                    failures += 1
        elapsed = time.perf_counter() - started
        print(f"  fuzz: {trials} triples, seed {seed}, {elapsed:.1f}s")
        assert trials >= 200
        assert failures == 0
        assert elapsed < 120.0


def _frontier_counts(spec, N):
    """Oracle: |F_m| for m = 0..N, F_m the union of the supports of the
    normal forms of all words of length <= m.

    Built by frontier: F_m = F_{m-1} + supp(D_{m-1} * V) with D_{m-1} =
    F_{m-1} - F_{m-2} and V the generators, because the rest of F_{m-1} was
    multiplied by V one step earlier.
    """
    one = spec.lattice.one()
    gens = [generator(spec, g) for g in range(2 * spec.n)]
    frontier = [(0,) * (2 * spec.n)]
    supports = set(frontier)
    counts = [1]
    for _ in range(N):
        fresh = []
        for mono in frontier:
            f = PBWElement(spec.n, {mono: one})
            for g in gens:
                for r in multiply(spec, f, g).terms:
                    if r not in supports:
                        supports.add(r)
                        fresh.append(r)
        counts.append(len(supports))
        frontier = fresh
    return counts


def test_criterion_9_growth_counts():
    with criterion(9, "filtration growth matches the binomial dimension"):
        for n, N in ((1, 6), (2, 6), (3, 4)):
            spec = build_spec(n, "generic")
            rep = growth_count(spec, N)
            assert rep.counts == _frontier_counts(spec, N), n
            for m in range(N + 1):
                assert rep.counts[m] == math.comb(m + 2 * n, 2 * n), (n, m)
            assert rep.window == (N - 2, N)
            assert abs(rep.exponent - 2 * n) <= 0.5, (n, rep.exponent)
        # the count is binomial for rules that are not confluent too: scale
        # the x3*x1 swap by g12, which breaks the relation xx(1,3)
        spec = build_spec(3, "generic")
        rules = [list(row) for row in _packed_rules(spec)]
        h, g = spec.x_index(3), spec.x_index(1)
        (c, a, b), = rules[h][g]
        rules[h][g] = ((c * spec.lattice.symbol("g12"), a, b),)
        spec._packed_rules = rules
        assert not all_ok(verify_relations(spec))
        assert _frontier_counts(spec, 5) == growth_count(spec, 5).counts


def test_criterion_10_localization_isomorphism():
    with criterion(10, "torus localization isomorphism, all choices"):
        for n in range(1, 4):
            spec = build_spec(n, "generic")
            for bits in range(2**n):
                choice = tuple("x" if bits >> i & 1 else "y" for i in range(n))
                assert all_ok(check_torus_isomorphism(spec, choice)), choice


def test_criterion_11_search_soundness():
    with criterion(11, "witness-search soundness and sharpness"):
        # every returned witness verifies, across a spread of pairings
        for kind, n, target in (
            ("generic-p1", 3, 3),
            ("generic-q1", 2, 3),
            ("generic", 2, 2),
            ("euclidean", 3, 4),
        ):
            E = pairing_from_matrix(standard_torus(build_spec(n, kind)))
            w = isotropic_witness_search(E, target, height=3)
            assert w is not None and w.rank == target
            assert verify_witness(E, w)
        # single-parameter presets: height 3 attains the exact rank, never exceeds
        for kind in SINGLE_PARAMETER:
            for n in range(1, 4):
                E = pairing_from_matrix(standard_torus(build_spec(n, kind)))
                exact, _ = max_isotropic_rank_single(E.component(0))
                attained = isotropic_witness_search(E, exact, height=3)
                assert attained is not None and attained.rank == exact
                assert verify_witness(E, attained)
                assert isotropic_witness_search(E, exact + 1, height=3) is None
