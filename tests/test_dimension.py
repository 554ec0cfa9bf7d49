"""Integer linear algebra, isotropic witnesses, dimension and bound reports."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import cli
from qweyl import dimension as dim
from qweyl.dimension import (
    PRIME,
    Witness,
    bernstein_bound,
    integer_rank,
    isotropic_witness_search,
    max_isotropic_rank_single,
    rank_mod_p,
    rank_upper_bound,
    smith_normal_form,
    torus_dimension,
    verify_witness,
)
from qweyl.presentation import (
    KINDS,
    SINGLE_PARAMETER_KINDS,
    build_spec,
    spec_from_config,
    spec_to_config,
)
from qweyl.torus import ExponentPairing, standard_torus


def _fraction_rank(A):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    M = [[Fraction(x) for x in row] for row in A]
    rank = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        M[rank] = [x / M[rank][c] for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def test_integer_rank_examples():
    assert integer_rank([[0, 1], [-1, 0]]) == 2
    assert integer_rank([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0
    # planted rank-2 factorization A = B C
    B = [[1, 0], [2, 1], [3, 2], [1, 1]]
    C = [[1, 2, 0, 1], [0, 1, 1, 2]]
    A = [[sum(B[i][t] * C[t][j] for t in range(2)) for j in range(4)] for i in range(4)]
    assert integer_rank(A) == 2


def test_integer_rank_matches_fraction_oracle():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(A) == _fraction_rank(A) == len(smith_normal_form(A))
        assert rank_mod_p(A) == integer_rank(A)
    # planted low ranks: products of random factors, where rank_mod_p must
    # see the dependencies too
    for _ in range(40):
        rows, cols, inner = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 4)
        B = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        C = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
        A = [[sum(B[i][t] * C[t][j] for t in range(inner)) for j in range(cols)]
             for i in range(rows)]
        assert rank_mod_p(A) == integer_rank(A) == _fraction_rank(A)


def test_modular_shortcuts_hand_over_to_integer_rank_on_multiples_of_p():
    # rank_mod_p is at most the rank over Q, and falls short where p divides
    assert rank_mod_p([[PRIME, 0], [0, 3 * PRIME]]) == 0
    assert rank_mod_p([[1, 1], [1, 1 + PRIME]]) == 1
    assert rank_mod_p([[0, 1.0], [Fraction(-1), 0]]) == 2  # truncated by int()
    assert rank_mod_p([]) == 0
    # a witness independent over Q but not mod p
    E = ExponentPairing(2, 1, [[(0,), (0,)], [(0,), (0,)]])
    vectors = ((1, 0), (0, PRIME))
    assert rank_mod_p(vectors) == 1
    assert verify_witness(E, Witness(vectors))
    # a form of rank 2 over Q and 0 mod p
    S = [[0, PRIME], [-PRIME, 0]]
    rank, witness = max_isotropic_rank_single(S)
    assert rank == 1 and witness.vectors == ((1, 0),)
    # the rank bound reads rank 0 there: weaker, and still a valid bound
    E = ExponentPairing(2, 1, [[(s,) for s in row] for row in S])
    assert rank_upper_bound(E) >= 2 - integer_rank(S) // 2 == 1


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    invs = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for a, b in zip(invs, invs[1:]):
        assert b % a == 0


def test_alternating_rank_is_even():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(1, 6)
        S = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                S[i][j] = rng.randint(-4, 4)
                S[j][i] = -S[i][j]
        assert integer_rank(S) % 2 == 0


def test_pairing_examples():
    E = standard_torus(build_spec(1, "generic-p1"))
    assert E.k == 1 and E.entries[0][1] == (1,)
    E = standard_torus(build_spec(1, "symplectic"))
    assert E.entries[0][1] == (-2,)
    spec = build_spec(1, "heisenberg")
    E = standard_torus(spec)
    assert E.entries[0][1] == (0,)  # q_1 = 1 kills the slot


def test_pairing_validation():
    with pytest.raises(ValueError):
        ExponentPairing(2, 1, [[(1,), (1,)], [(-1,), (0,)]])  # nonzero diagonal
    with pytest.raises(ValueError):
        ExponentPairing(2, 1, [[(0,), (1,)], [(1,), (0,)]])  # not alternating
    with pytest.raises(ValueError):
        ExponentPairing(2, 1, [[(0,), (1,)]])  # not square
    with pytest.raises(ValueError):
        ExponentPairing(2, 1, [[(0,), (1, 0)], [(-1, 0), (0,)]])  # wrong entry length
    E = ExponentPairing(2, 1, [[(0,), (1,)], [(-1,), (0,)]])
    assert E == ExponentPairing(2, 1, [[(0,), (1,)], [(-1,), (0,)]])
    assert E != ExponentPairing(2, 1, [[(0,), (-1,)], [(1,), (0,)]])
    assert E != ExponentPairing(2, 2, [[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])


def test_max_isotropic_zero_form():
    rank, witness = max_isotropic_rank_single([[0] * 4 for _ in range(4)])
    assert rank == 4
    assert sorted(witness.vectors) == [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0),
    ]


def test_max_isotropic_symplectic_plane():
    rank, witness = max_isotropic_rank_single([[0, 1], [-1, 0]])
    assert rank == 1 and witness.rank == 1


def test_max_isotropic_symplectic_preset():
    spec = build_spec(2, "symplectic")
    E = standard_torus(spec)
    S = E.component(0)
    assert len(smith_normal_form(S)) == 4  # nondegenerate pairing
    rank, witness = max_isotropic_rank_single(S)
    assert rank == 2
    assert verify_witness(E, witness)


def test_max_isotropic_rejects_non_alternating():
    with pytest.raises(ValueError):
        max_isotropic_rank_single([[0, 1]])
    with pytest.raises(ValueError):
        max_isotropic_rank_single([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        max_isotropic_rank_single([[1, 1], [-1, 0]])


@pytest.mark.parametrize("half", [0.5, Fraction(1, 2)], ids=["float", "Fraction"])
def test_max_isotropic_rejects_non_integer_entries(half):
    # an alternating form with a fraction used to end in a misleading
    # ArithmeticError about the witness size
    with pytest.raises(ValueError, match=r"entry \(0, 1\) = .* is not an integer"):
        max_isotropic_rank_single([[0, half], [-half, 0]])
    assert max_isotropic_rank_single([[0, 2 * half], [-2 * half, 0]])[0] == 1
    # integer-valued entries are read as integers, also where the reduction
    # makes a vector primitive
    S = [[0, 2 * half, 4 * half], [-2 * half, 0, 6 * half], [-4 * half, -6 * half, 0]]
    rank, witness = max_isotropic_rank_single(S)
    assert rank == 2 and witness.vectors == ((1, 0, 0), (3, -2, 1))


def test_witness_formula_on_random_alternating():
    rng = random.Random(17)
    for _ in range(25):
        m = rng.randint(1, 6)
        S = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                S[i][j] = rng.randint(-3, 3)
                S[j][i] = -S[i][j]
        rank, witness = max_isotropic_rank_single(S)
        assert rank == m - integer_rank(S) // 2
        assert witness.rank == rank


def test_search_finds_theorem_witnesses():
    E = standard_torus(build_spec(3, "generic-p1"))
    w = isotropic_witness_search(E, 3)
    assert w is not None and w.rank == 3
    assert list(w.vectors) == [
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    ]
    E = standard_torus(build_spec(2, "generic-q1"))
    w = isotropic_witness_search(E, 3)
    assert w is not None
    assert list(w.vectors) == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]


def test_search_full_basis_on_trivial_pairing():
    E = ExponentPairing(3, 1, [[(0,)] * 3 for _ in range(3)])
    w = isotropic_witness_search(E, 3)
    assert w is not None and w.rank == 3
    assert verify_witness(E, w)


def test_search_respects_certified_bound():
    # a nondegenerate symplectic pairing caps witnesses at m/2
    E = standard_torus(build_spec(2, "symplectic"))
    assert rank_upper_bound(E) == 2
    assert isotropic_witness_search(E, 3, height=3) is None


def test_search_on_synthetic_degenerate_pairing():
    # rank-2 form on Z^3 with radical (2, -1, 1); max isotropic rank is 2
    S = [[0, 1, 1], [-1, 0, 2], [-1, -2, 0]]
    E = ExponentPairing(3, 1, [[(S[i][j],) for j in range(3)] for i in range(3)])
    assert rank_upper_bound(E) == 2
    w = isotropic_witness_search(E, 2, height=2)
    assert w is not None and verify_witness(E, w)
    assert isotropic_witness_search(E, 3, height=3) is None


def test_search_monotone_in_height():
    pairings = [
        standard_torus(build_spec(n, kind))
        for n, kind in ((2, "euclidean"), (3, "heisenberg"), (2, "generic"))
    ]
    for E in pairings:
        best = 0
        for h in (1, 2, 3):
            found = 0
            for t in range(rank_upper_bound(E), 0, -1):
                w = isotropic_witness_search(E, t, height=h)
                if w is not None:
                    found = w.rank
                    break
            assert found >= best
            best = found


def test_search_argument_validation():
    E = standard_torus(build_spec(1, "generic"))
    assert isotropic_witness_search(E, 0).rank == 0
    assert isotropic_witness_search(E, 5) is None
    with pytest.raises(ValueError):
        isotropic_witness_search(E, 1, height=0)


def test_dimension_dispatch():
    cases = [
        ("generic-p1", 3, 3, "theorem-p1"),
        ("graded-weyl", 2, 2, "theorem-p1"),
        ("generic-q1", 3, 4, "theorem-q1"),
        ("symplectic", 2, 2, "exact-single-parameter"),
        ("euclidean", 2, 3, "exact-single-parameter"),
        ("heisenberg", 1, 2, "exact-single-parameter"),
        ("generic", 2, 2, "search"),
    ]
    for kind, n, want, method in cases:
        rep = torus_dimension(build_spec(n, kind))
        assert rep.is_point and rep.d == want, (kind, n, rep)
        assert rep.method == method
        E = standard_torus(build_spec(n, kind))
        assert verify_witness(E, rep.witness)


def _with_vanishing_pivot(E, j):
    """E with its entry (z_{j-1}, y_j) replaced by (z_j, y_j), 1-based j >= 2,
    so that the z-block pivot p_j - q_j reads zero."""
    n = E.m // 2
    entries = [list(row) for row in E.entries]
    col = n + j - 1
    entries[j - 2][col] = entries[j - 1][col]
    entries[col][j - 2] = entries[col][j - 1]
    return ExponentPairing(E.m, E.k, entries)


@pytest.mark.parametrize("kind, d", [("generic-p1", 2), ("graded-weyl", 2), ("generic-q1", 3)])
def test_theorem_kinds_certify_their_dimension_by_the_z_block(monkeypatch, kind, d):
    # the theorem kinds take the closed form like any multi-parameter spec and
    # return the canonical witness; a z-block pivot that vanishes leaves the
    # upper bound unproved, and raises instead of being overruled
    spec = build_spec(2, kind)
    rep = torus_dimension(spec)
    assert (rep.lo, rep.hi) == (d, d)
    assert list(rep.witness.vectors) == [tuple(int(i == j) for j in range(4)) for i in range(d)]
    monkeypatch.setattr(spec, "_standard_torus", _with_vanishing_pivot(standard_torus(spec), 2))
    with pytest.raises(ArithmeticError, match=r"z-block pivot \(z1, y2\) - \(z2, y2\)"):
        torus_dimension(spec)


def test_heisenberg_n1_by_direct_formula():
    # independent recomputation: full pairing matrix, then m - rank/2
    spec = build_spec(1, "heisenberg")
    E = standard_torus(spec)
    S = E.component(0)
    assert S == [[0, 0], [0, 0]]
    assert torus_dimension(spec).d == 2 - integer_rank(S) // 2 == 2


def test_euclidean_n2_rank_via_snf():
    E = standard_torus(build_spec(2, "euclidean"))
    S = E.component(0)
    rank = len(smith_normal_form(S))
    assert rank == 2
    assert torus_dimension(build_spec(2, "euclidean")).d == E.m - rank // 2 == 3


def test_search_height_bounded_by_invariant_factor():
    # at target = exact rank, the search succeeds within the largest SNF invariant
    for kind in ("symplectic", "euclidean", "heisenberg"):
        for n in (1, 2, 3):
            spec = build_spec(n, kind)
            E = standard_torus(spec)
            S = E.component(0)
            exact = E.m - integer_rank(S) // 2
            invariants = smith_normal_form(S)
            h = max(invariants) if invariants else 1
            w = isotropic_witness_search(E, exact, height=h)
            assert w is not None and w.rank == exact


def test_isotropic_rank_is_unimodular_invariant():
    # oracle: the maximal rank is a lattice invariant, so conjugating the
    # form by random unimodular matrices must not change it
    rng = random.Random(23)

    def random_unimodular(m):
        U = [[int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(3 * m):
            i, j = rng.sample(range(m), 2)
            f = rng.randint(-2, 2)
            U[i] = [a + f * b for a, b in zip(U[i], U[j])]
        return U

    for _ in range(15):
        m = rng.randint(2, 6)
        S = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                S[i][j] = rng.randint(-3, 3)
                S[j][i] = -S[i][j]
        U = random_unimodular(m)
        conj = [
            [
                sum(U[a][i] * S[i][j] * U[b][j] for i in range(m) for j in range(m))
                for b in range(m)
            ]
            for a in range(m)
        ]
        assert max_isotropic_rank_single(conj)[0] == max_isotropic_rank_single(S)[0]


def test_bernstein_reports():
    assert bernstein_bound(build_spec(3, "generic-p1")).to_json() == {
        "gkdim_algebra": 6, "d": 3, "bound": 3,
    }
    assert bernstein_bound(build_spec(3, "generic-q1")).to_json() == {
        "gkdim_algebra": 6, "d": 4, "bound": 2,
    }
    assert bernstein_bound(build_spec(1, "generic-p1")).to_json() == {
        "gkdim_algebra": 2, "d": 1, "bound": 1,
    }


def test_bernstein_rejects_interval(monkeypatch):
    spec = build_spec(2, "generic")
    fake = dim.DimensionReport(lo=1, hi=2, witness=Witness(((1, 0, 0, 0),)), method="search")
    monkeypatch.setattr(dim, "torus_dimension", lambda s, height=3: fake)
    with pytest.raises(ValueError, match="height"):
        bernstein_bound(spec)


def test_report_serialization():
    rep = torus_dimension(build_spec(2, "generic-p1"))
    data = rep.to_json()
    assert data["d"] == 2 and data["method"] == "theorem-p1"
    assert data["witness"] == [[1, 0, 0, 0], [0, 1, 0, 0]]
    fake = dim.DimensionReport(lo=1, hi=2, witness=Witness(()), method="search")
    assert fake.to_json()["d"] == [1, 2]
    assert fake.d is None and not fake.is_point


def test_dim_verifies_its_witness_once(monkeypatch):
    # torus_dimension returns only witnesses verify_witness accepted, so the
    # dimension-witness check takes that verdict and verifies nothing again
    calls = []
    real = dim.verify_witness
    monkeypatch.setattr(dim, "verify_witness", lambda E, w: calls.append(w) or real(E, w))
    for kind, method in (("symplectic", "exact-single-parameter"), ("generic", "search")):
        calls.clear()
        rep = cli.run({"n": 3, "kind": kind}, "dim")
        assert rep.ok and rep.values["method"] == method
        assert [w.to_json() for w in calls] == [rep.values["witness"]]


def test_torus_dimension_raises_on_a_rejected_witness(monkeypatch):
    # the reduction path and the search path both refuse a witness that
    # verify_witness rejects
    monkeypatch.setattr(dim, "verify_witness", lambda E, w: False)
    for kind in ("symplectic", "generic"):
        with pytest.raises(ArithmeticError, match="invalid witness"):
            torus_dimension(build_spec(3, kind))


# -- differential tests against the straightforward kernels -------------------

def _reduction_oracle(S):
    """The symplectic reduction written directly over Fraction, with the
    rational update: B(u, w) = u^T S w is recomputed in full for every
    coordinate of every update."""
    m = len(S)

    def B(u, v):
        total = Fraction(0)
        for i, ui in enumerate(u):
            if ui:
                row = S[i]
                total += ui * sum(row[j] * v[j] for j in range(m) if v[j])
        return total

    remaining = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    picked = []
    while remaining:
        u = remaining.pop(0)
        vidx = next((t for t, w in enumerate(remaining) if B(u, w) != 0), None)
        picked.append(u)
        if vidx is None:
            continue
        v = remaining.pop(vidx)
        c = B(u, v)
        v = [x / c for x in v]
        remaining = [
            [w[t] + B(v, w) * u[t] - B(u, w) * v[t] for t in range(m)] for w in remaining
        ]

    def canonical(v):
        """Primitive integer multiple, first nonzero entry positive."""
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        return tuple(sign * x // g for x in ints)

    return len(picked), [canonical(u) for u in picked]


def _dense_rank_upper_bound(E):
    """The rank bound over k + 4 exact integer weights: the unit weights and
    four combined ones, every weighted matrix built entry by entry and ranked
    over Q by integer_rank, the maximum rank taken with no early exit."""
    if E.k == 0:
        return E.m
    weights = [tuple(int(c == t) for t in range(E.k)) for c in range(E.k)]
    if E.k > 1:
        weights += [
            (1,) * E.k,
            tuple(3**i for i in range(E.k)),
            tuple((i + 1) ** 2 for i in range(E.k)),
            tuple((-2) ** i for i in range(E.k)),
        ]
    best = 0
    for ws in weights:
        S = [
            [sum(w * e for w, e in zip(ws, E.entries[i][j])) for j in range(E.m)]
            for i in range(E.m)
        ]
        best = max(best, integer_rank(S))
    return E.m - best // 2


def _assert_kernels_match(E):
    assert rank_upper_bound(E) == _dense_rank_upper_bound(E)
    for c in range(E.k):
        S = E.component(c)
        rank, witness = max_isotropic_rank_single(S)
        assert (rank, list(witness.vectors)) == _reduction_oracle(S)


WIDE = 2**40


@st.composite
def _pairings(draw, max_m=10, max_k=3, wide=False):
    """Random pairings with small exponents.  With `wide` they reach +-2^40:
    per component, a wide scale times the small factor, or a wide value of
    its own, so some vectors still pair to 0."""
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    scales = [draw(st.integers(1, WIDE // 3)) if wide else 1 for _ in range(k)]
    factors = st.sampled_from((0, 0, 0, 1, -1, 2, -3) + (("wide",) if wide else ()))
    entries = [[(0,) * k] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = []
            for scale in scales:
                x = draw(factors)
                v.append(draw(st.integers(-WIDE, WIDE)) if x == "wide" else x * scale)
            entries[i][j], entries[j][i] = tuple(v), tuple(-x for x in v)
    return ExponentPairing(m, k, entries)


@settings(max_examples=40, deadline=None)
@given(_pairings(max_k=1))
def test_kernels_match_oracles_on_alternating_matrices(E):
    _assert_kernels_match(E)


@settings(max_examples=40, deadline=None)
@given(_pairings(max_m=8))
def test_rank_bound_matches_dense_oracle_on_multiparameter_pairings(E):
    _assert_kernels_match(E)


@st.composite
def _custom_specs(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    exps = st.lists(st.integers(-2, 2), min_size=k, max_size=k)

    def mono(e):
        return "*".join(f"s{c}^{v}" for c, v in enumerate(e) if v) or "1"

    q = [draw(exps) for _ in range(n)]
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
    return build_spec(n, "custom", custom=custom)


@settings(max_examples=40, deadline=None)
@given(_custom_specs())
def test_kernels_match_oracles_on_custom_specs(spec):
    _assert_kernels_match(standard_torus(spec))


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "custom"])
def test_kernels_match_oracles_on_presets(kind):
    for n in range(1, 7):
        _assert_kernels_match(standard_torus(build_spec(n, kind)))


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "custom"])
def test_rank_bound_matches_exact_weights_on_presets(kind):
    # n = 1..6 run in test_kernels_match_oracles_on_presets
    for n in range(7, 13):
        E = standard_torus(build_spec(n, kind))
        assert rank_upper_bound(E) == _dense_rank_upper_bound(E), n


def test_rank_bound_matches_exact_weights_on_benchmark_custom_specs(custom_config):
    rng = random.Random(17)
    for _ in range(200):
        spec = spec_from_config(custom_config(rng, rng.randint(1, 5), rng.randint(1, 4)))
        E = standard_torus(spec)
        assert rank_upper_bound(E) == _dense_rank_upper_bound(E), spec


def _pairing(m, k, upper):
    entries = [[(0,) * k for _ in range(m)] for _ in range(m)]
    for (i, j), e in upper.items():
        entries[i][j], entries[j][i] = e, tuple(-x for x in e)
    return ExponentPairing(m, k, entries)


def test_rank_bound_is_not_fooled_by_structured_weights():
    # (-3, 1) pairs to 0 with every multiple of the weight (1, 3), such as
    # (3^1, 3^2); the Pfaffian w_2^2 - w_1*w_3 of the 4 x 4 pencil vanishes
    # on every weight (g, g^2, g^3).  The fixed weight must see full rank.
    E = _pairing(3, 2, {(0, 2): (-3, 1), (1, 2): (-3, 1)})
    assert rank_upper_bound(E) == _dense_rank_upper_bound(E) == 2
    E = _pairing(4, 3, {(0, 1): (0, 1, 0), (2, 3): (0, 1, 0),
                        (0, 2): (1, 0, 0), (1, 3): (0, 0, 1)})
    assert rank_upper_bound(E) == _dense_rank_upper_bound(E) == 2


@pytest.mark.parametrize("kind, d", [("generic", 16), ("generic-q1", 17)])
def test_rank_bound_and_bound_at_n16(kind, d):
    assert rank_upper_bound(standard_torus(build_spec(16, kind))) == d
    rep = cli.run({"n": 16, "kind": kind}, "bound")
    assert rep.ok and rep.values["dim"]["d"] == d
    assert rep.values["bound"] == 32 - d


def test_modular_ranks_decide_on_presets_without_integer_rank(monkeypatch):
    # on the presets every modular rank certifies, so the exact rank is
    # never needed: not for the bound, the witnesses or the reduction
    def refuse(A):
        raise AssertionError("integer_rank called")

    monkeypatch.setattr(dim, "integer_rank", refuse)
    for kind in KINDS:
        if kind != "custom":
            for n in (2, 5, 8):
                assert torus_dimension(build_spec(n, kind)).is_point


def _search_oracle(E, target, height):
    """The first chain of the search's enumeration order, found by plain
    depth-first search with isotropy from E.pair and independence by rank."""
    cands = list(dim._candidate_vectors(E.m, height))
    zero = (0,) * E.k

    def dfs(chain, start):
        if len(chain) == target:
            return chain
        for idx in range(start, len(cands)):
            v = cands[idx]
            if all(E.pair(u, v) == zero for u in chain) and (
                integer_rank(chain + [v]) == len(chain) + 1
            ):
                found = dfs(chain + [v], idx + 1)
                if found is not None:
                    return found
        return None

    return dfs([], 0)


def _assert_search_matches(E, height):
    hi = rank_upper_bound(E)
    for t in range(hi, 0, -1):
        expected = _search_oracle(E, t, height)
        found = isotropic_witness_search(E, t, height, upper=hi)
        assert found == isotropic_witness_search(E, t, height)
        assert (found.vectors if found else None) == (tuple(expected) if expected else None)
        if found is not None:
            break


@settings(max_examples=30, deadline=None)
@given(_pairings(max_m=4))
def test_search_matches_oracle_on_random_pairings(E):
    _assert_search_matches(E, height=2)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "custom"])
def test_search_matches_oracle_on_presets(kind):
    for n in (1, 2):
        _assert_search_matches(standard_torus(build_spec(n, kind)), height=2)


# -- wide exponents: the integer kernels and the packed pairing ----------------

@settings(max_examples=40, deadline=None)
@given(_pairings(max_m=8, wide=True))
def test_kernels_match_oracles_on_wide_exponents(E):
    _assert_kernels_match(E)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_search_matches_oracle_on_wide_exponents(data):
    height = data.draw(st.integers(1, 3))
    E = data.draw(_pairings(max_m=6 - height, wide=True))
    _assert_search_matches(E, height)


def test_search_reduces_against_pivots_other_than_one():
    # a fixed case (found by a random scan) whose echelon rows do not all lead
    # with 1, so the independence test must scale by the pivot; scaled by
    # about 2^40 / 3, which changes no zero test
    small = [[0, 2, 2, -3, 0], [-2, 0, 0, 2, 0], [-2, 0, 0, 2, 2],
             [3, -2, -2, 0, -1], [0, 0, -2, 1, 0]]
    E = ExponentPairing(5, 1, [[(x * (WIDE // 3),) for x in row] for row in small])
    found = isotropic_witness_search(E, 3, height=1)
    assert found.vectors == ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, -1, -1, 1, 0))
    assert list(found.vectors) == _search_oracle(E, 3, 1)


def test_packed_pairing_does_not_cancel_across_components():
    # m = 4, height 3, max|e| = 2^40.  For u = (2, -3, -3, -3) and
    # v = (3, -3, 2, 3) the pairing is (2^46, -1).  A field one factor
    # m*height too narrow is bit_length(12 * 2^40) + 2 = 46 bits wide, so the
    # packed sum 2^46 + (-1) * 2^46 would cancel.  No two independent vectors
    # of height <= 3 pair to zero, so the search must exhaust.
    a, b = 2**40, [2, -84201150736, -243281036, -53047250347, -21900465605, 30550986998]
    upper = {(0, 1): (0, b[0]), (0, 2): (a, b[1]), (0, 3): (a, b[2]),
             (1, 2): (-a, b[3]), (1, 3): (-a, b[4]), (2, 3): (-a, b[5])}
    entries = [[(0, 0)] * 4 for _ in range(4)]
    for (i, j), e in upper.items():
        entries[i][j], entries[j][i] = e, (-e[0], -e[1])
    E = ExponentPairing(4, 2, entries)
    assert E.pair((2, -3, -3, -3), (3, -3, 2, 3)) == (2**46, -1)
    assert isotropic_witness_search(E, 2, height=3) is None


# -- work done per call --------------------------------------------------------

@pytest.mark.parametrize(
    "config, method",
    [({"n": 3, "kind": "generic"}, "search"), ({"n": 3, "kind": "generic-p1"}, "theorem-p1")],
)
def test_bound_computes_the_dimension_once(monkeypatch, config, method):
    # bound derives 2n - d from one dimension report, and the closed form
    # takes no rank bound
    calls = {"torus_dimension": 0, "rank_upper_bound": 0}
    original_dimension = dim.torus_dimension
    original_bound = dim.rank_upper_bound

    def counted_dimension(*args, **kwargs):
        calls["torus_dimension"] += 1
        return original_dimension(*args, **kwargs)

    def counted_bound(*args, **kwargs):
        calls["rank_upper_bound"] += 1
        return original_bound(*args, **kwargs)

    monkeypatch.setattr(dim, "torus_dimension", counted_dimension)
    monkeypatch.setattr(dim, "rank_upper_bound", counted_bound)
    rep = cli.run(config, "bound")
    assert rep.ok and rep.values["dim"]["method"] == method
    assert calls == {"torus_dimension": 1, "rank_upper_bound": 0}


# -- the closed form d = n + [q_1 = 1] ----------------------------------------

CLOSED_FORM_KINDS = ("generic", "generic-p1", "generic-q1", "graded-weyl")
_LABELS = {"generic-p1": "theorem-p1", "graded-weyl": "theorem-p1", "generic-q1": "theorem-q1"}


def _search_path(spec):
    """The dimension report the closed form replaced: the certified rank
    bound, then the witness search from it down at height 3."""
    E = standard_torus(spec)
    hi = rank_upper_bound(E)
    lo, witness = 0, Witness(())
    for t in range(hi, 0, -1):
        found = isotropic_witness_search(E, t, 3, upper=hi)
        if found is not None:
            lo, witness = t, found
            break
    return dim.DimensionReport(lo=lo, hi=hi, witness=witness,
                               method=_LABELS.get(spec.kind, "search"))


def _q1_is_one(spec):
    return spec.exponents[0][0] == ()


def _refuse_the_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rank bound, search or exact rank called")

    for name in ("rank_upper_bound", "isotropic_witness_search", "integer_rank"):
        monkeypatch.setattr(dim, name, refuse)


def _custom_configs(custom_config, count, ks, seed):
    """Seeded custom configs, n = 1..4; every third has q_1 = 1."""
    rng = random.Random(seed)
    configs = []
    for t in range(count):
        cfg = custom_config(rng, rng.randint(1, 4), rng.choice(ks))
        if t % 3 == 0:
            custom = cfg["custom"]
            custom["q"][0] = "1"
            if custom["p"][0] == "1":  # p_1 = q_1 is refused
                custom["p"][0] = custom["symbols"][0]
        configs.append(cfg)
    return configs


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_closed_form_matches_the_search_on_presets(kind):
    for n in range(1, 11):
        spec = build_spec(n, kind)
        rep = torus_dimension(spec)
        assert rep == _search_path(spec), (kind, n)
        assert rep.d == n + _q1_is_one(spec)


def test_closed_form_matches_the_search_on_custom_specs(monkeypatch, custom_config):
    specs = [spec_from_config(cfg) for cfg in _custom_configs(custom_config, 330, (2, 3, 4), 22)]
    assert sum(map(_q1_is_one, specs)) >= 100
    with monkeypatch.context() as patched:
        _refuse_the_search(patched)
        reps = [torus_dimension(spec) for spec in specs]
    for spec, rep in zip(specs, reps):
        assert rep == _search_path(spec), spec_to_config(spec)
        assert rep.d == spec.n + _q1_is_one(spec)


def test_closed_form_needs_no_rank_bound_search_or_exact_rank(monkeypatch):
    # the single-parameter kinds reach the reduction, whose modular rank
    # certifies on every preset, so it needs no integer_rank either
    _refuse_the_search(monkeypatch)
    for kind in KINDS:
        if kind != "custom":
            for n in range(2, 13):
                spec = build_spec(n, kind)
                assert torus_dimension(spec).d == n + _q1_is_one(spec), (kind, n)


def test_single_parameter_reduction_meets_the_closed_form(custom_config):
    # the evidence for moving the single-parameter kinds to the closed form:
    # the reduction's d is n + [q_1 = 1] there too
    specs = [build_spec(n, kind) for kind in SINGLE_PARAMETER_KINDS for n in range(1, 13)]
    specs += [spec_from_config(cfg) for cfg in _custom_configs(custom_config, 120, (1,), 7)]
    assert sum(map(_q1_is_one, specs)) >= 40
    for spec in specs:
        d, _ = max_isotropic_rank_single(standard_torus(spec).component(0))
        assert d == spec.n + _q1_is_one(spec), spec_to_config(spec)
