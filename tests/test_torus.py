"""Torus pairings: commutator oracle, spec tori, localization map."""

import itertools
import math
import random

import pytest

from oracles import component
from qweyl import pbw, torus
from qweyl.presentation import KINDS, build_spec, spec_from_config
from qweyl.reporting import all_ok
from qweyl.scalars import render_exponents
from qweyl.torus import (
    ExponentPairing,
    check_torus_isomorphism,
    localized_torus,
    standard_torus,
    torus_generator_labels,
)


def _random_pairing(rng, m, k=2):
    entries = [[(0,) * k for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = tuple(rng.randint(-2, 2) for _ in range(k))
            entries[i][j] = v
            entries[j][i] = tuple(-x for x in v)
    return ExponentPairing(m, k, entries)


def _naive_product(E, u, v):
    """Independent oracle: expand X^u X^v into signed letters and bubble-sort.

    Returns the exponent vector of the reordering factor and of X^{u+v}.
    """
    letters = []
    for vec in (u, v):
        for i, e in enumerate(vec):
            letters.extend([(i, 1 if e > 0 else -1)] * abs(e))
    coeff = [0] * E.k
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            (i, s), (j, r) = letters[t], letters[t + 1]
            if i > j:
                # X_i^s X_j^r = lam_ij^{s r} X_j^r X_i^s
                coeff = [c + s * r * e for c, e in zip(coeff, E.entries[i][j])]
                letters[t], letters[t + 1] = letters[t + 1], letters[t]
                changed = True
    return tuple(coeff), tuple(x + y for x, y in zip(u, v))


def _rendered(spec, E):
    return [[render_exponents(spec.lattice, v) for v in row] for row in E.entries]


def _neg(v):
    return tuple(-x for x in v)


def _unit(m, i):
    e = [0] * m
    e[i] = 1
    return tuple(e)


def test_generator_swap_factor():
    E = _random_pairing(random.Random(1), 3)
    for i in range(3):
        for j in range(3):
            assert E.pair(_unit(3, i), _unit(3, j)) == E.entries[i][j]


def test_product_against_naive_oracle():
    # X^u X^v = c(u,v) X^{u+v}, so [X^u, X^v] = c(u,v)/c(v,u) must be E.pair(u, v)
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(2, 4)
        E = _random_pairing(rng, m)
        u = tuple(rng.randint(-2, 2) for _ in range(m))
        v = tuple(rng.randint(-2, 2) for _ in range(m))
        cuv, w = _naive_product(E, u, v)
        cvu, w2 = _naive_product(E, v, u)
        assert w == w2
        assert E.pair(u, v) == tuple(a - b for a, b in zip(cuv, cvu))


def test_commutator_value_is_bilinear():
    # [X^u, X^v] must be additive in each slot and alternating
    rng = random.Random(5)
    for _ in range(25):
        E = _random_pairing(rng, 4)
        u, v, w = (tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(3))
        vw = tuple(x + y for x, y in zip(v, w))
        assert E.pair(u, vw) == tuple(a + b for a, b in zip(E.pair(u, v), E.pair(u, w)))
        assert E.pair(v, u) == tuple(-x for x in E.pair(u, v))
        assert not any(E.pair(u, u))


def test_standard_torus_generic_n2():
    spec = build_spec(2, "generic")
    assert _rendered(spec, standard_torus(spec)) == [
        ["1", "1", "q1", "p2"],
        ["1", "1", "q1", "q2"],
        ["q1^-1", "q1^-1", "1", "g12"],
        ["p2^-1", "q2^-1", "g12^-1", "1"],
    ]
    assert torus_generator_labels(spec) == ["z1", "z2", "y1", "y2"]


def test_standard_torus_generic_p1_n2():
    spec = build_spec(2, "generic-p1")
    rows = _rendered(spec, standard_torus(spec))
    assert rows[0][3] == "1"  # the p_2 slot collapses to 1
    assert rows[3][0] == "1"
    assert rows[1][3] == "q2"


def test_standard_torus_symplectic_n1():
    spec = build_spec(1, "symplectic")
    assert _rendered(spec, standard_torus(spec))[0][1] == "q^-2"


def test_all_y_choice_is_standard():
    spec = build_spec(2, "generic")
    assert localized_torus(spec, ("y", "y")) == standard_torus(spec)
    assert localized_torus(spec, ("x", "y")) != standard_torus(spec)


def test_all_x_choice_n1():
    spec = build_spec(1, "generic")
    assert _rendered(spec, localized_torus(spec, ("x",)))[0][1] == "q1^-1"


def test_mixed_choice_entry():
    # v1 = x1, v2 = y2: the (v1, v2) entry comes from x1 y2 = p2 g12^-1 y2 x1
    spec = build_spec(2, "generic")
    assert _rendered(spec, localized_torus(spec, ("x", "y")))[2][3] == "p2*g12^-1"
    assert torus_generator_labels(spec, ("x", "y")) == ["z1", "z2", "x1", "y2"]


def _oracle_swap(spec, i, j, vi, vj):
    """The scalar lam of V_i V_j = lam V_j V_i (1-based i > j, V_i = x_i or
    y_i as vi says) as a product of the spec's Scalars."""
    q, p = spec.q, spec.p
    gij, gji = spec.gamma[i - 1][j - 1], spec.gamma[j - 1][i - 1]
    return {
        ("y", "y"): gij,
        ("x", "y"): q[j - 1] * gij.inverse(),
        ("y", "x"): p[i - 1].inverse() * gji,
        ("x", "x"): q[j - 1].inverse() * p[i - 1] * gij,
    }[vi, vj]


def _assert_swaps_match_rule_table(spec):
    # oracle: the defining relations written with Scalar products, against
    # every rewrite rule the normal-form engine packs from the exponent
    # vectors and against the swap entries of every localized torus
    n = spec.n
    one = spec.lattice.one()
    rules = pbw._packed_rules(spec)
    slot = {"y": spec.y_index, "x": spec.x_index}
    expected = [[() for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(1, n + 1):
        yi, xi = spec.y_index(i), spec.x_index(i)
        z = tuple((spec.q[l - 1] - spec.p[l - 1], spec.y_index(l), spec.x_index(l))
                  for l in range(1, i))
        expected[xi][yi] = ((None if spec.q[i - 1] == one else spec.q[i - 1], yi, xi),) + z
        for j in range(1, i):
            for vi, vj in itertools.product("xy", repeat=2):
                h, g = slot[vi](i), slot[vj](j)
                lam = _oracle_swap(spec, i, j, vi, vj)
                expected[h][g] = ((None if lam == one else lam, g, h),)
    assert [list(row) for row in rules] == expected, spec
    for choice in itertools.product("xy", repeat=n):
        loc = localized_torus(spec, choice)
        for i in range(1, n + 1):
            for j in range(1, i):
                lam = _oracle_swap(spec, i, j, choice[i - 1], choice[j - 1])
                assert loc.entries[n + i - 1][n + j - 1] == lam.as_monomial(), (choice, i, j)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "custom"])
def test_swap_entries_match_the_rule_table_on_presets(kind):
    for n in (1, 2, 3, 4):
        _assert_swaps_match_rule_table(build_spec(n, kind))


def test_swap_entries_match_the_rule_table_on_custom_specs(custom_config):
    rng = random.Random(11)
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            _assert_swaps_match_rule_table(spec_from_config(custom_config(rng, n, k)))


def test_matrix_validation():
    E = standard_torus(build_spec(1, "generic"))
    a = E.entries[0][1]
    zero = E.entries[0][0]
    assert a != zero
    with pytest.raises(ValueError):
        ExponentPairing(2, E.k, [[zero, a], [a, zero]])  # not alternating
    with pytest.raises(ValueError):
        ExponentPairing(1, E.k, [[a]])  # diagonal entry must vanish
    double = tuple(2 * x for x in a)
    with pytest.raises(ValueError):
        ExponentPairing(2, E.k, [[zero, double], [_neg(a), zero]])
    assert ExponentPairing(2, E.k, [[zero, a], [_neg(a), zero]]) == E


def test_choice_validation():
    spec = build_spec(2, "generic")
    with pytest.raises(ValueError):
        localized_torus(spec, ("x",))
    with pytest.raises(ValueError):
        localized_torus(spec, ("x", "z"))


def test_theta_all_y_trivial():
    spec = build_spec(2, "generic")
    assert all_ok(check_torus_isomorphism(spec, ("y", "y")))


def test_theta_all_x():
    for n in (1, 2):
        spec = build_spec(n, "generic")
        assert all_ok(check_torus_isomorphism(spec, ("x",) * n))


def test_theta_check_counts_relations():
    spec = build_spec(2, "generic")
    checks = check_torus_isomorphism(spec, ("x", "y"))
    assert len(checks) == 6  # C(4, 2) generator pairs
    assert all_ok(checks)


def test_theta_fails_on_corrupted_pairing(monkeypatch):
    # negate one nonzero pair of the localized torus; exactly the checks whose
    # theta-images meet that pair must fail
    spec = build_spec(2, "generic")
    choice = ("x", "y")
    # theta on z1, z2, y1, y2 in the basis z1, z2, x1, y2: y1 -> z1 x1^-1
    images = {
        "z1": (1, 0, 0, 0),
        "z2": (0, 1, 0, 0),
        "y1": (1, 0, -1, 0),
        "y2": (0, 0, 0, 1),
    }
    real = torus.localized_torus
    original = real(spec, choice)
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(original.m), 2)
        if any(original.entries[a][b])
    ]
    assert len(pairs) >= 4
    for a, b in pairs:
        entries = [list(row) for row in original.entries]
        entries[a][b], entries[b][a] = entries[b][a], entries[a][b]
        corrupted = ExponentPairing(original.m, original.k, entries)
        monkeypatch.setattr(
            torus,
            "localized_torus",
            lambda s, ch, bad=corrupted: bad if tuple(ch) == choice else real(s, ch),
        )
        checks = check_torus_isomorphism(spec, choice)
        failed = {c["name"] for c in checks if c["status"] != "pass"}
        monkeypatch.undo()
        expected = {
            f"theta[xy]({s},{t})"
            for s, t in itertools.combinations(images, 2)
            if images[s][a] * images[t][b] - images[s][b] * images[t][a]
        }
        assert expected
        assert failed == expected, (a, b)


# -- the locality sweep against the all-choices loop ---------------------------

def _full_loop(spec):
    """check_torus_isomorphism over every choice, in the order of verify."""
    checks = []
    for bits in range(2**spec.n):
        choice = tuple("x" if bits >> i & 1 else "y" for i in range(spec.n))
        checks += check_torus_isomorphism(spec, choice)
    return checks


def _sweep(spec):
    return [c for choice_checks in torus.theta_sweep(spec) for c in choice_checks]


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "custom"])
def test_sweep_matches_the_full_loop_on_presets(kind):
    for n in (1, 2, 3, 4, 5):
        spec = build_spec(n, kind)
        sweep = _sweep(spec)
        assert len(sweep) == 2**n * math.comb(2 * n, 2)
        assert sweep == _full_loop(spec), (kind, n)


def test_sweep_matches_the_full_loop_on_custom_specs(custom_config):
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            spec = spec_from_config(custom_config(rng, n, k))
            assert _sweep(spec) == _full_loop(spec), (n, k)


def _failed(checks):
    return {c["name"] for c in checks if c["status"] != "pass"}


@pytest.mark.parametrize("kind", ["generic", "euclidean"])
def test_sweep_fails_where_the_full_loop_fails_on_a_corrupted_standard_torus(kind):
    # swap one nonzero (a, b)/(b, a) pair of the cached standard torus
    spec = build_spec(3, kind)
    std = standard_torus(spec)
    pairs = [(a, b) for a, b in itertools.combinations(range(std.m), 2) if any(std.entries[a][b])]
    assert pairs
    for a, b in pairs:
        entries = [list(row) for row in std.entries]
        entries[a][b], entries[b][a] = entries[b][a], entries[a][b]
        spec._standard_torus = ExponentPairing(std.m, std.k, entries)
        failed = _failed(_sweep(spec))
        assert failed, (a, b)
        assert failed == _failed(_full_loop(spec)), (a, b)
    spec._standard_torus = std
    assert all_ok(_sweep(spec))


def test_sweep_fails_where_the_full_loop_fails_on_a_corrupted_entry(monkeypatch):
    # shift one localized entry, for one assignment of its two indices, in the
    # formula that the sweep and localized_torus share
    spec = build_spec(3, "generic")
    standard_torus(spec)  # cached before the corruption
    z_entries, swap = torus._z_entries, torus._swap_exponents

    def shifted(v):
        # v times the first parameter, on the sparse exponent vector
        acc = dict(v)
        acc[0] = acc.get(0, 0) + 1
        return tuple(sorted((c, e) for c, e in acc.items() if e))

    cases = []
    for j in range(3):
        # the z_i with i < j (none for j = 0), or those with i >= j
        for below in ((True,) if j == 0 else (False, True)):
            for cj in "xy":
                def bad_z(q, p, ch, j_, j=j, below=below, cj=cj):
                    lams = list(z_entries(q, p, ch, j_))
                    if (j_, ch[j_]) == (j, cj):
                        lams[below] = shifted(lams[below])
                    return tuple(lams)
                cases.append(("_z_entries", bad_z))
    for i, j in itertools.combinations(range(3), 2):
        j, i = i, j  # _swap_exponents takes i > j
        for ci, cj in itertools.product("xy", repeat=2):
            def bad_swap(q, p, gamma, i_, j_, ci_, cj_, i=i, j=j, ci=ci, cj=cj):
                v = swap(q, p, gamma, i_, j_, ci_, cj_)
                return shifted(v) if (i_, j_, ci_, cj_) == (i, j, ci, cj) else v
            cases.append(("_swap_exponents", bad_swap))
    for name, bad in cases:
        with monkeypatch.context() as m:
            m.setattr(torus, name, bad)
            failed = _failed(_sweep(spec))
            assert failed
            assert failed == _failed(_full_loop(spec))


# -- the sparse torus against the dense construction ---------------------------

def _dense_swap_exponents(q, p, gamma, ch, i, j):
    if ch[i] == "y":
        factors = (gamma[i][j],) if ch[j] == "y" else (_neg(p[i]), gamma[j][i])
    elif ch[j] == "y":
        factors = (q[j], _neg(gamma[i][j]))
    else:
        factors = (_neg(q[j]), p[i], gamma[i][j])
    return tuple(map(sum, zip(*factors)))


def _dense_z_entries(q, p, ch, j):
    if ch[j] == "x":
        return _neg(p[j]), _neg(q[j])
    return p[j], q[j]


def _dense_localized_torus(spec, choice):
    """Oracle: the construction with every entry a dense length-k exponent
    tuple, read from the dense exponent vectors of q, p and gamma."""
    ch = tuple(choice)
    n = spec.n
    zero = (0,) * spec.lattice.k
    q = [s.as_monomial() for s in spec.q]
    p = [s.as_monomial() for s in spec.p]
    gamma = [[s.as_monomial() for s in row] for row in spec.gamma]
    entries = [[zero] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        lams = _dense_z_entries(q, p, ch, j)
        negs = tuple(map(_neg, lams))
        for i in range(n):
            entries[i][n + j] = lams[i >= j]
            entries[n + j][i] = negs[i >= j]
            if i > j:
                lam = _dense_swap_exponents(q, p, gamma, ch, i, j)
                entries[n + i][n + j] = lam
                entries[n + j][n + i] = _neg(lam)
    return tuple(map(tuple, entries))


def _dense_pair(entries, k, u, v):
    out = [0] * k
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            for c in range(k):
                out[c] += ui * vj * entries[i][j][c]
    return tuple(out)


def _assert_matches_the_dense_torus(spec, rng):
    n = spec.n
    if n <= 4:
        choices = list(itertools.product("xy", repeat=n))
    else:
        choices = [("y",) * n, ("x",) * n, tuple("xy"[i % 2] for i in range(n))]
    for choice in choices:
        E = localized_torus(spec, choice)
        sparse_rows = E.sparse_rows()  # the stored rows, before any dense view
        components = [component(E, c) for c in range(E.k)]
        vectors = [tuple(rng.randint(-2, 2) for _ in range(E.m)) for _ in range(6)]
        pairs = [E.pair(u, v) for u, v in zip(vectors, vectors[1:])]
        dense = _dense_localized_torus(spec, choice)
        assert (E.m, E.k) == (2 * n, spec.lattice.k)
        assert sparse_rows == tuple(
            tuple((j, nz) for j, v in enumerate(row)
                  if (nz := tuple((c, e) for c, e in enumerate(v) if e)))
            for row in dense
        ), (spec, choice)
        assert E.entries == dense, (spec, choice)
        assert components == [[[v[c] for v in row] for row in dense] for c in range(E.k)]
        assert pairs == [_dense_pair(dense, E.k, u, v) for u, v in zip(vectors, vectors[1:])]
        assert ExponentPairing(E.m, E.k, E.entries) == E


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "custom"])
def test_sparse_torus_matches_the_dense_construction_on_presets(kind):
    rng = random.Random(17)
    for n in range(1, 13):
        _assert_matches_the_dense_torus(build_spec(n, kind), rng)


def test_sparse_torus_matches_the_dense_construction_on_custom_specs(custom_config):
    rng = random.Random(19)
    for t in range(200):
        n, k = 1 + t % 5, 1 + t // 5 % 4
        _assert_matches_the_dense_torus(spec_from_config(custom_config(rng, n, k)), rng)
