"""Integer linear algebra, isotropic witnesses, dimension and bound reports."""

import bisect
import collections
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    PRIME,
    component,
    integer_rank,
    isotropic_witness_search,
    max_isotropic_rank_single,
    rank_mod_p,
    rank_upper_bound,
    smith_normal_form,
    verify_witness,
)
import qweyl
from qweyl import cli, scalars, torus
from qweyl import dimension as dim
from qweyl.dimension import Witness, bernstein_bound, torus_dimension
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
    S = component(E, 0)
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
        # every kind takes the closed form: z_1..z_n, plus y_1 when q_1 = 1
        unit = [tuple(int(i == j) for j in range(2 * n)) for i in range(want)]
        assert list(rep.witness.vectors) == unit, (kind, n)
        E = standard_torus(build_spec(n, kind))
        assert verify_witness(E, rep.witness)


def _with_vanishing_pivot(spec, j):
    """The spec's q and p vectors (spec.qp) with p_j replaced by q_j, 1-based
    j >= 2, so that the z-block pivot p_j - q_j reads zero; _validate
    refuses such vectors, so they are patched in after construction.  A
    preset's spec.exponents, read later, is built over the patched qp."""
    q, p = spec.qp
    return q, p[:j - 1] + (q[j - 1],) + p[j:]


@pytest.mark.parametrize("kind, d", [("generic-p1", 2), ("graded-weyl", 2), ("generic-q1", 3)])
def test_theorem_kinds_certify_their_dimension_by_the_z_block(monkeypatch, kind, d):
    # the theorem kinds take the closed form like every other spec and
    # return the canonical witness; a z-block pivot that vanishes leaves the
    # upper bound unproved, and raises instead of being overruled
    spec = build_spec(2, kind)
    rep = torus_dimension(spec)
    assert (rep.lo, rep.hi) == (d, d)
    assert list(rep.witness.vectors) == [tuple(int(i == j) for j in range(4)) for i in range(d)]
    monkeypatch.setattr(spec, "qp", _with_vanishing_pivot(spec, 2))
    with pytest.raises(ArithmeticError, match=r"z-block pivot \(z1, y2\) - \(z2, y2\)"):
        torus_dimension(spec)


def test_heisenberg_n1_by_direct_formula():
    # independent recomputation: full pairing matrix, then m - rank/2
    spec = build_spec(1, "heisenberg")
    E = standard_torus(spec)
    S = component(E, 0)
    assert S == [[0, 0], [0, 0]]
    assert torus_dimension(spec).d == 2 - integer_rank(S) // 2 == 2


def test_euclidean_n2_rank_via_snf():
    E = standard_torus(build_spec(2, "euclidean"))
    S = component(E, 0)
    rank = len(smith_normal_form(S))
    assert rank == 2
    assert torus_dimension(build_spec(2, "euclidean")).d == E.m - rank // 2 == 3


def test_search_height_bounded_by_invariant_factor():
    # at target = exact rank, the search succeeds within the largest SNF invariant
    for kind in ("symplectic", "euclidean", "heisenberg"):
        for n in (1, 2, 3):
            spec = build_spec(n, kind)
            E = standard_torus(spec)
            S = component(E, 0)
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
    with pytest.raises(ValueError, match=r"bracket \[1, 2\], not a point"):
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
    # torus_dimension returns only witnesses _verify_unit_witness accepted,
    # so the dimension-witness check takes that verdict and verifies nothing
    # again, on a single-parameter spec as on a multi-parameter one
    calls = []
    real = dim._verify_unit_witness
    monkeypatch.setattr(dim, "_verify_unit_witness",
                        lambda spec, slots: calls.append(tuple(slots)) or real(spec, slots))
    for kind, method in (("symplectic", "exact-single-parameter"), ("generic", "search")):
        calls.clear()
        rep = cli.run({"n": 3, "kind": kind}, "dim")
        assert rep.ok and rep.values["method"] == method
        assert [[[int(i == j) for j in range(6)] for i in slots]
                for slots in calls] == [rep.values["witness"]]


def test_torus_dimension_raises_on_a_rejected_witness(monkeypatch):
    # the closed form refuses a witness whose entries do not vanish, on a
    # single-parameter spec as on a multi-parameter one: q_1 = 1 puts y_1
    # into the witness, and every read of the entry (z_i, y_1) = q_1 after
    # the pivot's sees a broken q_1
    real = torus._z_entries
    for kind in ("euclidean", "generic-q1"):
        reads = []

        def broken(q, p, ch, j):
            below, at = real(q, p, ch, j)
            if j == 0:
                reads.append(at)
                if len(reads) > 1:
                    at = ((0, 1),)
            return below, at

        spec = build_spec(3, kind)
        with monkeypatch.context() as patched:
            patched.setattr(torus, "_z_entries", broken)
            with pytest.raises(ArithmeticError, match="invalid witness"):
                torus_dimension(spec)
        assert reads[0] == () and len(reads) > 1  # the pivot's read, then the witness's
        assert torus_dimension(spec).d == 4
    # distinct unit vectors are independent, and the entries at their slots
    # decide commutation: (z_1, y_2) = p_2 on generic
    spec = build_spec(3, "generic")
    assert dim._verify_unit_witness(spec, (0, 1, 2))
    assert not dim._verify_unit_witness(spec, (0, 1, 1))
    assert not dim._verify_unit_witness(spec, (0, 4))
    assert dim._verify_unit_witness(build_spec(3, "generic-q1"), (0, 1, 2, 3))


def _slot_sets(rng, n, count):
    """Slot tuples of the rank-2n torus: z_1..z_n, with y_1, all 2n slots,
    and count random subsets of every size, past y_1 too (those read gamma),
    one in ten with a repeated slot."""
    m = 2 * n
    out = [tuple(range(n)), tuple(range(n + 1)), tuple(range(m))]
    for _ in range(count):
        slots = rng.sample(range(m), rng.randint(0, m))
        if slots and rng.random() < 0.1:
            slots.insert(rng.randrange(len(slots)), rng.choice(slots))
        out.append(tuple(slots))
    return out


def test_witness_check_matches_the_all_pairs_oracle(custom_config):
    rng = random.Random(32)
    specs = [build_spec(n, kind) for kind in KINDS if kind != "custom" for n in range(1, 7)]
    specs += [spec_from_config(cfg) for cfg in _custom_configs(custom_config, 90, (1, 2, 3), 32)]
    seen = collections.Counter()
    for spec in specs:
        for slots in _slot_sets(rng, spec.n, 16):
            want = oracles.verify_unit_witness_all_pairs(spec, slots)
            assert dim._verify_unit_witness(spec, slots) == want, (spec_to_config(spec), slots)
            seen[want, max(slots, default=0) > spec.n] += 1
    # both verdicts, each with and without a slot past y_1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_witness_check_reads_only_the_pairs_with_a_y_slot(monkeypatch):
    reads = []
    real = torus._entry
    monkeypatch.setattr(torus, "_entry", lambda *a: reads.append(a[-2:]) or real(*a))
    for kind in KINDS:
        if kind == "custom":
            continue
        for n in (1, 4, 9):
            spec = build_spec(n, kind)
            reads.clear()
            assert dim._verify_unit_witness(spec, range(n))
            assert reads == []
            if spec.qp[0][0] == ():  # q_1 = 1: the witness takes y_1
                assert dim._verify_unit_witness(spec, range(n + 1))
                assert reads == [(i, n) for i in range(n)], (kind, n)
            reads.clear()
            d = torus_dimension(spec).d
            assert len(reads) == n * (d - n), (kind, n)
    # gamma is written only for two y slots
    spec = build_spec(3, "generic-p1")
    assert dim._verify_unit_witness(spec, (0, 4)) and "exponents" not in vars(spec)
    assert not dim._verify_unit_witness(spec, (3, 4)) and "exponents" in vars(spec)


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
        S = component(E, c)
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


def test_modular_ranks_decide_on_presets_without_integer_rank():
    # every preset gets a point report; that no exact rank (or any other
    # kernel of tests/oracles.py) is reached is test_the_program_reaches_no_oracle
    for kind in KINDS:
        if kind != "custom":
            for n in (2, 5, 8):
                assert torus_dimension(build_spec(n, kind)).is_point


def _search_oracle(E, target, height):
    """The first chain of the search's enumeration order, found by plain
    depth-first search with isotropy from E.pair and independence by rank."""
    cands = list(oracles._candidate_vectors(E.m, height))
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
    # bound derives 2n - d from one dimension report; that the closed form
    # takes no rank bound is test_the_program_reaches_no_oracle
    calls = []
    original_dimension = dim.torus_dimension

    def counted_dimension(*args, **kwargs):
        calls.append(args)
        return original_dimension(*args, **kwargs)

    monkeypatch.setattr(dim, "torus_dimension", counted_dimension)
    rep = cli.run(config, "bound")
    assert rep.ok and rep.values["dim"]["method"] == method
    assert len(calls) == 1


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


def _custom_configs(custom_config, count, ks, seed, ns=(1, 4)):
    """Seeded custom configs, n = ns[0]..ns[1]; every third has q_1 = 1."""
    rng = random.Random(seed)
    configs = []
    for t in range(count):
        cfg = custom_config(rng, rng.randint(*ns), rng.choice(ks))
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


def test_closed_form_matches_the_search_on_custom_specs(custom_config):
    specs = [spec_from_config(cfg) for cfg in _custom_configs(custom_config, 330, (2, 3, 4), 22)]
    assert sum(map(_q1_is_one, specs)) >= 100
    reps = [torus_dimension(spec) for spec in specs]
    for spec, rep in zip(specs, reps):
        assert rep == _search_path(spec), spec_to_config(spec)
        assert rep.d == spec.n + _q1_is_one(spec)


def test_closed_form_needs_no_rank_bound_search_or_exact_rank(custom_config):
    # the closed form on the presets and on the seeded single-parameter
    # custom specs of the reduction's test below; that no spec reaches a
    # kernel for raw pairings is test_the_program_reaches_no_oracle
    specs = [build_spec(n, kind) for kind in KINDS if kind != "custom" for n in range(1, 17)]
    specs += [spec_from_config(cfg) for cfg in _custom_configs(custom_config, 120, (1,), 7)]
    for spec in specs:
        assert torus_dimension(spec).d == spec.n + _q1_is_one(spec), spec_to_config(spec)


def test_single_parameter_reduction_meets_the_closed_form(custom_config):
    # the evidence for moving the single-parameter kinds to the closed form:
    # the reduction's d is n + [q_1 = 1] there too
    specs = [build_spec(n, kind) for kind in SINGLE_PARAMETER_KINDS for n in range(1, 13)]
    specs += [spec_from_config(cfg) for cfg in _custom_configs(custom_config, 120, (1,), 7)]
    assert sum(map(_q1_is_one, specs)) >= 40
    for spec in specs:
        d, _ = max_isotropic_rank_single(component(standard_torus(spec), 0))
        assert d == spec.n + _q1_is_one(spec), spec_to_config(spec)


# -- the dimension path on exponent vectors ------------------------------------

# the kernels for raw pairings and their helpers, now only in tests/oracles.py
ORACLE_NAMES = (
    "smith_normal_form", "integer_rank", "PRIME", "rank_mod_p", "_weights", "verify_witness",
    "_primitive", "_canonical", "_row_times", "_dot", "max_isotropic_rank_single",
    "rank_upper_bound", "_candidate_vectors", "_Candidates", "isotropic_witness_search",
    "verify_unit_witness_all_pairs", "dense_unit_rows",
)


def test_the_program_reaches_no_oracle():
    for name in ORACLE_NAMES:
        assert hasattr(oracles, name), name
        assert not hasattr(qweyl, name) and not hasattr(dim, name), name
    assert not hasattr(ExponentPairing, "component")
    sources = sorted(Path(qweyl.__file__).parent.rglob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        assert "oracles" not in path.read_text(encoding="utf-8"), path



def _z_block_oracle(E):
    """The dimension n + [q_1 = 1] read off a built standard torus E: the
    z-block pivots (z_{j-1}, y_j) - (z_j, y_j) and the entry (z_n, y_1) =
    q_1, each found in the stored rows of E.  The oracle of
    dimension._z_block_dimension, which reads the same entries from
    spec.exponents without building E."""
    rows = E.sparse_rows()
    n = E.m // 2

    def entry(i, j):
        # entry (z_i, y_j), 0-based; a row lists its nonzero entries by column
        row = rows[i]
        t = bisect.bisect_left(row, n + j, key=lambda jv: jv[0])
        return row[t][1] if t < len(row) and row[t][0] == n + j else ()

    for j in range(1, n):
        if entry(j - 1, j) == entry(j, j):
            raise ArithmeticError(
                f"z-block pivot (z{j}, y{j + 1}) - (z{j + 1}, y{j + 1}) vanishes"
            )
    return n if entry(n - 1, 0) else n + 1


def test_z_block_from_the_exponents_matches_the_torus_oracle(custom_config):
    specs = [build_spec(n, kind) for kind in KINDS if kind != "custom" for n in range(1, 9)]
    specs += [spec_from_config(cfg)
              for cfg in _custom_configs(custom_config, 150, (1, 2, 3), 26)]
    assert sum(spec.lattice.k == 1 for spec in specs) >= 60
    for spec in specs:
        E = standard_torus(spec)
        d = dim._z_block_dimension(spec)
        assert d == _z_block_oracle(E) == rank_upper_bound(E), spec_to_config(spec)
        if E.k == 1:
            assert d == max_isotropic_rank_single(component(E, 0))[0], spec_to_config(spec)
    # a pivot made to vanish after construction raises on both paths alike
    for kind in ("generic", "symplectic", "generic-q1"):
        for j in (2, 3):
            spec = build_spec(3, kind)
            spec.qp = _with_vanishing_pivot(spec, j)
            errors = []
            for read in (dim._z_block_dimension, lambda s: _z_block_oracle(standard_torus(s))):
                with pytest.raises(ArithmeticError) as err:
                    read(spec)
                errors.append(str(err.value))
            assert errors == [f"z-block pivot (z{j - 1}, y{j}) - (z{j}, y{j}) vanishes"] * 2


def test_bound_and_dim_make_no_scalar_and_build_no_torus(monkeypatch, custom_config):
    made = []
    real_scalar, real_init = scalars._scalar, scalars.Scalar.__init__
    monkeypatch.setattr(scalars, "_scalar", lambda *a: made.append(a) or real_scalar(*a))
    monkeypatch.setattr(scalars.Scalar, "__init__",
                        lambda self, *a: made.append(a) or real_init(self, *a))

    def refuse(*args):
        raise AssertionError("localized_torus called")

    monkeypatch.setattr(torus, "localized_torus", refuse)
    for kind in KINDS:
        if kind != "custom":
            for command in ("bound", "dim"):
                assert cli.run({"n": 6, "kind": kind}, command).ok
    for cfg in _custom_configs(custom_config, 30, (1, 2, 3), 16):
        assert cli.run(cfg, "bound").ok
    assert made == []
    # the counters see the Scalar views that other commands read
    cli.run({"n": 2, "kind": "generic"}, "nf", ["x2 y2"])
    assert made


# -- the unit witness as its slots ----------------------------------------------

def test_unit_witness_json_is_the_dense_rows(custom_config):
    specs = [build_spec(n, kind) for kind in KINDS if kind != "custom"
             for n in (*range(1, 13), 64, 111)]
    specs += [spec_from_config(cfg)
              for cfg in _custom_configs(custom_config, 40, (1, 2, 3), 34, ns=(2, 6))]
    assert sum(spec.kind == "custom" and _q1_is_one(spec) for spec in specs) >= 10
    for spec in specs:
        rep = torus_dimension(spec)
        want = oracles.dense_unit_rows(2 * spec.n, range(rep.d))
        assert rep.to_json()["witness"] == want, (spec.kind, spec.n)


def test_unit_witness_json_rows_are_fresh():
    spec = build_spec(3, "generic-q1")
    rep = torus_dimension(spec)
    want = oracles.dense_unit_rows(6, range(4))
    first, second = rep.to_json(), rep.to_json()
    first["witness"][0][0] = 7
    first["witness"][1].append(1)
    assert second["witness"] == rep.to_json()["witness"] == want
    rows = rep.witness.to_json()
    rows[0][1] = 1
    assert rows[1:] == want[1:]
    # and so are the reports of two runs
    reports = [cli.run({"n": 3, "kind": "generic-q1"}, command) for command in ("dim", "bound")]
    dim_rows, bound_rows = reports[0].values["witness"], reports[1].values["dim"]["witness"]
    dim_rows[2][2] = 0
    assert bound_rows == want
    assert cli.run({"n": 3, "kind": "generic-q1"}, "dim").values["witness"] == want


def test_slots_witness_reads_as_its_dense_rows():
    for size, slots in ((4, (0, 1, 2)), (6, (5, 0, 3)), (2, ()), (222, range(112))):
        rows = oracles.dense_unit_rows(size, slots)
        units, dense = Witness.units(size, slots), Witness(rows)
        assert units.rank == dense.rank == len(rows)
        assert units == dense and dense == units
        assert units.vectors == dense.vectors == tuple(map(tuple, rows))
        assert repr(units) == repr(dense)
        assert units.to_json() == dense.to_json() == rows
    assert Witness.units(4, (0, 1)) != Witness.units(4, (0, 2))
    assert Witness.units(4, (0,)) != Witness.units(6, (0,))
    assert Witness.units(4, (0,)) != [[1, 0, 0, 0]]


def test_bound_and_dim_never_read_the_dense_witness(monkeypatch, custom_config):
    reads = []
    real = Witness.vectors
    monkeypatch.setattr(Witness, "vectors", property(lambda w: reads.append(w) or real.fget(w)))
    configs = [{"n": n, "kind": kind} for kind in KINDS if kind != "custom" for n in (1, 4, 9)]
    configs += _custom_configs(custom_config, 6, (1, 2), 35)
    for cfg in configs:
        for command in ("bound", "dim"):
            assert cli.run(cfg, command).ok, (cfg, command)
    assert reads == []
    # the counter sees a read
    assert torus_dimension(build_spec(2, "generic")).witness.vectors == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert len(reads) == 1
