"""Reference kernels for raw pairings: the differential oracles of the
closed-form torus dimension (qweyl.dimension._z_block_dimension).

These are the rank, reduction and search kernels that computed the torus
dimension before the closed form d = n + [q_1 = 1] replaced them.  No
command reaches them, so they live here, with the tests that compare the
closed form against them, and not in the package.  Their bodies are kept as
they ran in the package, so a differential test against them checks the
code that used to decide the dimension.

Exact integer linear algebra only, no fractions.  Each rank is used in the
direction in which it certifies.  The rank over F_p, p = 2^61 - 1, is at
most the rank over Q, so rank_mod_p gives the certified upper bound
rank_upper_bound on the dimension from one weighted pairing, and proves a
witness independent whenever it is full.  Where a rank must be exact and
the modular one falls short, integer_rank decides, by division-free
elimination with a Smith-normal-form cross-check.
max_isotropic_rank_single gives the exact rank m - rank(S)/2 of one
alternating form by a fraction-free symplectic reduction, and
isotropic_witness_search is a bounded deterministic backtracking search for
a witness on the packed pairing.  Each kernel makes the zero tests of the
same computation over Q; the docstrings give the arguments.
verify_unit_witness_all_pairs is the unit-witness check of the closed form
as it read all C(d,2) pairs of slots, before it read only those with a y,
and dense_unit_rows the witness's JSON rows as they were built before a unit
witness kept only its slots.
"""

from __future__ import annotations

import functools
import itertools
import math

from qweyl import torus
from qweyl.dimension import IntVector, Witness
from qweyl.presentation import AlgebraSpec
from qweyl.torus import ExponentPairing

# -- modular and exact integer rank -------------------------------------------

def smith_normal_form(A) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix (nonzero ones only)."""
    M = [[int(x) for x in row] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    invariants: list[int] = []
    t = 0
    while t < min(rows, cols):
        pos = None
        for i in range(t, rows):
            for j in range(t, cols):
                if M[i][j] and (pos is None or abs(M[i][j]) < abs(M[pos[0]][pos[1]])):
                    pos = (i, j)
        if pos is None:
            break
        i0, j0 = pos
        M[t], M[i0] = M[i0], M[t]
        for row in M:
            row[t], row[j0] = row[j0], row[t]
        pivot = M[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if M[i][t]:
                qq = M[i][t] // pivot
                if qq:
                    M[i] = [x - qq * y for x, y in zip(M[i], M[t])]
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if M[t][j]:
                qq = M[t][j] // pivot
                if qq:
                    for i in range(rows):
                        M[i][j] -= qq * M[i][t]
                if M[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, rows):
            if any(M[i][j] % pivot for j in range(t + 1, cols)):
                offender = i
                break
        if offender is not None:
            M[t] = [x + y for x, y in zip(M[t], M[offender])]
            continue
        invariants.append(abs(pivot))
        t += 1
    return invariants


def integer_rank(A) -> int:
    """Rank over Q by division-free integer elimination (SNF cross-checked)."""
    rows = [[int(x) for x in row] for row in A]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        a = rows[rank][c]
        for i in range(rank + 1, nrows):
            b = rows[i][c]
            if b:
                rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    if nrows <= 12 and ncols <= 12:
        snf_rank = len(smith_normal_form(A))
        if snf_rank != rank:
            raise ArithmeticError(f"rank cross-check failed: {rank} vs SNF {snf_rank}")
    return rank


PRIME = 2**61 - 1  # a Mersenne prime: rank_mod_p works over F_PRIME


def rank_mod_p(A) -> int:
    """Rank over F_p, p = PRIME, by fraction-free elimination mod p.

    Every minor that vanishes over Q vanishes mod p, so this is at most the
    rank over Q: a full modular rank proves full rank over Q, and a smaller
    one proves nothing on its own.  Entries are truncated by int(), as in
    integer_rank.  A pivot row with entry a moves each row below, with entry
    b in the pivot column, to a*row - b*pivot_row mod p, which needs no
    modular inverse; the rows below the pivots are zero left of the current
    column, so only the columns from it on are updated.
    """
    rows = [[int(x) % PRIME for x in row] for row in A]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank][c:]
        a = top[0]
        for i in range(rank + 1, nrows):
            row = rows[i]
            b = row[c]
            if b:
                row[c:] = [(a * x - b * y) % PRIME for x, y in zip(row[c:], top)]
        rank += 1
        if rank == nrows:
            break
    return rank


_MASK64 = 2**64 - 1
_weight_cache: tuple[int, ...] = ()


def _weights(k: int) -> tuple[int, ...]:
    """The weight vector of rank_upper_bound for k parameters (at least k
    entries): the splitmix64 outputs for seed 0, reduced mod PRIME.

    They are fixed but pseudorandom.  Small or structured weights are not:
    3^(c+1) lies on the curve w_2^2 = w_1*w_3, and random pairings with
    small exponents (m <= 8, k = 2 or 3) have every maximal minor vanish
    there in about 1 of 140 draws, which loosens the bound.  The cache is
    replaced whole, never extended in place, so concurrent callers read a
    complete prefix of the same sequence.
    """
    global _weight_cache
    if len(_weight_cache) < k:
        out = []
        for c in range(k):
            z = (c + 1) * 0x9E3779B97F4A7C15 & _MASK64
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
            z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
            out.append((z ^ z >> 31) % PRIME)
        _weight_cache = tuple(out)
    return _weight_cache


# -- witnesses ----------------------------------------------------------------

def verify_witness(E: ExponentPairing, witness: Witness) -> bool:
    """Pairwise zero pairing plus full rank over Q.

    Full rank mod p proves full rank over Q (rank_mod_p); only when the
    modular rank falls short does integer_rank decide.
    """
    vs = witness.vectors
    zero = (0,) * E.k
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            if E.pair(vs[a], vs[b]) != zero:
                return False
    if not vs:
        return True
    return rank_mod_p(vs) == len(vs) or integer_rank(vs) == len(vs)


def verify_unit_witness_all_pairs(spec: AlgebraSpec, slots) -> bool:
    """dimension._verify_unit_witness as it read every pair of slots,
    C(d,2) entries, pairs of two z slots included.  The oracle of the
    check that reads only the pairs with a y slot."""
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        return False
    n = spec.n
    gamma = spec.exponents[2] if max(slots, default=0) > n else None
    entry = functools.partial(torus._entry, n, *spec.qp, gamma, ("y",) * n)
    return not any(entry(s, t)[1] for s, t in itertools.combinations(slots, 2))


def dense_unit_rows(size: int, slots) -> list[list[int]]:
    """The JSON rows of the unit vectors of length size at the given
    slots, built as Witness.units and Witness.to_json built them before a
    unit witness kept its slots: an int tuple from three slices per slot,
    then each tuple copied into a list."""
    zero = (0,) * size
    vectors = tuple(zero[:s] + (1,) + zero[s + 1:] for s in slots)
    return [list(v) for v in vectors]


def _primitive(v) -> list[int]:
    """v divided by the gcd of its entries; a zero v comes back as it is."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _canonical(v) -> IntVector:
    """The primitive multiple of a nonzero integer vector whose first nonzero
    entry is positive."""
    v = _primitive(v)
    return tuple(-x for x in v) if next(x for x in v if x) < 0 else tuple(v)


def _row_times(u, S) -> list:
    """The row vector u^T S."""
    out = [0] * len(S)
    for i, ui in enumerate(u):
        if ui:
            for j, s in enumerate(S[i]):
                if s:
                    out[j] += ui * s
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b) if y)


def max_isotropic_rank_single(S) -> tuple[int, Witness]:
    """Maximal isotropic-sublattice rank m - rank(S)/2 of one alternating form,
    with an explicit witness from a fraction-free symplectic reduction.

    S is a raw square matrix: a non-integer entry raises ValueError, and so
    does a form that is not alternating (ExponentPairing validates it).

    A pivot u with a partner v, c = B(u, v) != 0, moves every remaining w to
    c*w + B(v, w)*u - B(u, w)*v, which is c times the rational update
    w + B(v/c, w)*u - B(u, w)*v/c, and w is then made primitive.  The
    rational reduction is unchanged when u, v or w is rescaled (each later
    choice is a zero test of B), so the integer one makes the same picks and
    its picked vectors have the same canonical primitive forms.  Each pivot
    u is paired through its row u^T S, computed once, so every B(u, w) is
    one dot product.

    The rank of S is then certified from both sides.  The verified witness
    is isotropic of rank m - pairs, so rank(S) <= 2*pairs over Q, and
    rank_mod_p(S) is at most rank(S); when the modular rank reaches 2*pairs
    it is the rank.  Otherwise integer_rank decides, and a rank that does
    not match the witness raises ArithmeticError.
    """
    # int() truncates each entry, so refuse a fraction here
    bad = next(((i, j) for i, row in enumerate(S) for j, s in enumerate(row) if s != int(s)),
               None)
    if bad is not None:
        raise ValueError(f"entry {bad} = {S[bad[0]][bad[1]]!r} is not an integer")
    S = [[int(s) for s in row] for row in S]
    E = ExponentPairing(len(S), 1, [[(s,) for s in row] for row in S])
    m = E.m
    remaining = [[int(i == j) for j in range(m)] for i in range(m)]
    picked: list[list[int]] = []
    while remaining:
        u = remaining.pop(0)
        uS = _row_times(u, S)
        vidx = next((t for t, w in enumerate(remaining) if _dot(uS, w)), None)
        picked.append(u)
        if vidx is None:
            continue
        v = remaining.pop(vidx)
        c = _dot(uS, v)
        vS = _row_times(v, S)
        for idx, w in enumerate(remaining):
            a, b = _dot(vS, w), _dot(uS, w)
            if a or b:
                remaining[idx] = _primitive(
                    [c * wt + a * ut - b * vt for wt, ut, vt in zip(w, u, v)]
                )
    witness = Witness(_canonical(u) for u in picked)
    if not verify_witness(E, witness):
        raise ArithmeticError("symplectic reduction produced an invalid witness")
    pairs = m - witness.rank
    r2 = 2 * pairs if rank_mod_p(S) == 2 * pairs else integer_rank(S)
    if r2 % 2:
        raise ArithmeticError("alternating matrix with odd rank")
    rank = m - r2 // 2
    if witness.rank != rank:
        raise ArithmeticError("symplectic reduction produced wrong witness size")
    return rank, witness


# -- certified upper bound and bounded search ---------------------------------

def rank_upper_bound(E: ExponentPairing) -> int:
    """Certified bound: any isotropic sublattice is isotropic for every integer
    combination S_w = sum_c w_c S_c of the pairing components, hence has rank
    <= m - rank(S_w)/2 <= m - rank_mod_p(S_w)/2.

    One fixed pseudorandom weight (_weights) is used, so the bound costs one
    modular elimination.  Any weight gives a certified bound.  A generic one
    also reaches the full rank r of the pencil: a nonzero r x r minor of S_w
    is a polynomial of degree r in w, and a random w mod p is one of its
    roots with probability at most r/p (Schwartz-Zippel).  The weight is
    fixed, not random, so tightness is not claimed; a dimension is exact only
    where a verified witness meets the bound.

    S_w is filled from the nonzero exponents of the upper triangle only and
    negated into the lower one; rank_mod_p reduces it mod p.
    """
    if E.k == 0:
        return E.m
    m = E.m
    weights = _weights(E.k)
    S = [[0] * m for _ in range(m)]
    for i, row in enumerate(E.sparse_rows()):
        for j, nz in row:
            if j > i:
                s = sum(weights[c] * e for c, e in nz)
                S[i][j], S[j][i] = s, -s
    return m - rank_mod_p(S) // 2


def _candidate_vectors(m: int, height: int):
    for i in range(m):
        e = [0] * m
        e[i] = 1
        yield tuple(e)
    for h in range(1, height + 1):
        for v in itertools.product(range(-h, h + 1), repeat=m):
            if max(map(abs, v)) != h:
                continue
            first = next((x for x in v if x), 0)
            if first < 0:
                continue
            if math.gcd(*v) != 1:
                continue
            if h == 1 and sum(map(abs, v)) == 1:
                continue
            yield v


class _Candidates:
    """Lazily materialized, indexable stream of canonical primitive vectors."""

    def __init__(self, m: int, height: int):
        self._gen = _candidate_vectors(m, height)
        self._cache: list[IntVector] = []

    def get(self, idx: int) -> IntVector | None:
        while len(self._cache) <= idx:
            nxt = next(self._gen, None)
            if nxt is None:
                return None
            self._cache.append(nxt)
        return self._cache[idx]


def isotropic_witness_search(
    E: ExponentPairing, target: int, height: int = 3, *, upper: int | None = None
) -> Witness | None:
    """Backtracking search for `target` independent pairwise-commuting vectors
    with entries bounded by `height`; None when the bounded search exhausts.

    Vectors are enumerated by increasing max-norm (unit vectors first), one
    canonical primitive representative per line, and chains are extended in
    enumeration order, so the result is deterministic.  Chains are pruned by
    the certified rank bound, by isotropy against all chosen vectors, and by
    integer independence.  `upper` is rank_upper_bound(E) when the caller
    already has it; by default it is computed here.

    Isotropy reads the packed pairing P = sum_c S_c * 2^(shift*c) through one
    row u^T P per chosen u.  With shift = bit_length((m*height)^2 * max|e|)
    + 2, each component |u^T S_c v| <= (m*height)^2 * max|e| stays below
    2^(shift-1), so the lowest nonzero component cannot be cancelled by the
    higher ones and u^T P v == 0 exactly when u^T S_c v == 0 for every c.
    Independence keeps an integer echelon: a candidate w is reduced by
    w <- p*w - w[pos]*row, p = row[pos], and made primitive; it is a nonzero
    multiple of the rational reduction, so it vanishes exactly when that does.
    """
    if target < 0 or height < 1:
        raise ValueError(f"invalid target/height ({target}, {height})")
    if target == 0:
        return Witness(())
    if target > E.m:
        return None
    if upper is None:
        upper = rank_upper_bound(E)
    if target > upper:
        return None
    cands = _Candidates(E.m, height)
    sparse = E.sparse_rows()
    top = max((abs(e) for row in sparse for _, nz in row for _, e in nz), default=0)
    shift = ((E.m * height) ** 2 * top).bit_length() + 2
    packed = [[(j, sum(e << (shift * c) for c, e in nz)) for j, nz in row] for row in sparse]
    chosen: list[IntVector] = []
    pairing_rows: list[list[tuple[int, int]]] = []  # per chosen u: nonzero (j, (u^T P)_j)
    echelon: list[tuple[int, list[int]]] = []

    def row_for(u: IntVector) -> list[tuple[int, int]]:
        row = [0] * E.m
        for i, ui in enumerate(u):
            if ui:
                for j, p in packed[i]:
                    row[j] += ui * p
        return [(j, p) for j, p in enumerate(row) if p]

    def commutes_with_all(v: IntVector) -> bool:
        for row in pairing_rows:
            if sum(p * v[j] for j, p in row):
                return False
        return True

    def reduce(v: IntVector):
        w = v
        for pos, row in echelon:
            f = w[pos]
            if f:
                p = row[pos]
                w = _primitive([p * a - f * b for a, b in zip(w, row)])
        pos = next((t for t, x in enumerate(w) if x), None)
        return None if pos is None else (pos, w)

    def dfs(start: int) -> bool:
        if len(chosen) == target:
            return True
        idx = start
        while True:
            v = cands.get(idx)
            if v is None:
                return False
            idx += 1
            if not commutes_with_all(v):
                continue
            red = reduce(v)
            if red is None:
                continue
            chosen.append(v)
            pairing_rows.append(row_for(v))
            echelon.append(red)
            if dfs(idx):
                return True
            chosen.pop()
            pairing_rows.pop()
            echelon.pop()

    if not dfs(0):
        return None
    witness = Witness(chosen)
    if not verify_witness(E, witness):
        raise ArithmeticError("search returned an invalid witness")
    return witness


def component(E: ExponentPairing, c: int) -> list[list[int]]:
    """The m x m integer matrix of the exponents of symbol c in E."""
    c = range(E.k)[c]  # indexes like a dense exponent tuple
    out = [[0] * E.m for _ in range(E.m)]
    for i, row in enumerate(E.sparse_rows()):
        for j, nz in row:
            for c2, e in nz:
                if c2 == c:
                    out[i][j] = e
    return out
