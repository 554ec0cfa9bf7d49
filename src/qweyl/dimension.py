"""Dimension of the torus localization and the resulting growth bound.

The rank-2n torus is its commutator pairing (qweyl.torus.ExponentPairing):
an alternating m x m matrix of integer exponent vectors in the free abelian
group on the parameter symbols.  Because no parameter is a root of unity,
a sublattice of exponent vectors spans a commutative subalgebra exactly
when the pairing vanishes on it, and the torus dimension is the maximal
rank of such an isotropic sublattice.

The dimension of the standard torus of a spec is d = n + [q_1 = 1], and
torus_dimension reads it off the z-block of the pairing on every spec,
single-parameter ones included: the pivots of that block certify the upper
bound in O(nk), and the unit vectors z_1..z_n (plus y_1 when q_1 = 1) are
the witness.  _z_block_dimension gives the argument.  The pivots and the
witness entries are read from spec.exponents through the torus's entry
formula (qweyl.torus._z_entries), so the dimension builds no torus and no
Scalar.

The kernels for raw pairings stay, as library API and as the oracles of
the closed form: exact integer linear algebra only, no fractions.  Each
rank is used in the direction in which it certifies.  The rank over F_p,
p = 2^61 - 1, is at most the rank over Q, so rank_mod_p gives the
certified upper bound rank_upper_bound on the dimension from one weighted
pairing, and proves a witness independent whenever it is full.  Where a
rank must be exact and the modular one falls short, integer_rank decides,
by division-free elimination with a Smith-normal-form cross-check.
max_isotropic_rank_single gives the exact rank m - rank(S)/2 of one
alternating form by a fraction-free symplectic reduction, and
isotropic_witness_search is a bounded deterministic backtracking search
for a witness on the packed pairing.  Each kernel makes the zero tests of
the same computation over Q; the docstrings give the arguments.

Work is done once where it can be: the reduction computes the row u^T S
once per pivot u, so each pairing B(u, w) is a dot product; the weighted
matrix of the certified rank bound is filled from the nonzero exponents
of the upper triangle and reduced once, mod p; and bernstein_report turns
a dimension report already in hand into the bound 2n - d.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from . import torus
from .presentation import AlgebraSpec
from .torus import ExponentPairing

IntVector = tuple[int, ...]

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


# -- the exponent pairing -----------------------------------------------------

def pairing_from_matrix(E: ExponentPairing) -> ExponentPairing:
    """Identity: standard_torus already returns the exponent pairing.

    Kept only because the benchmark's bound oracle (perfbench/session.py)
    and tests/test_acceptance.py still call
    pairing_from_matrix(standard_torus(spec)); remove it once they call
    standard_torus directly.
    """
    return E


# -- witnesses ----------------------------------------------------------------

@dataclass
class Witness:
    vectors: tuple[IntVector, ...]

    def __init__(self, vectors):
        self.vectors = tuple(tuple(map(int, v)) for v in vectors)

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.vectors]


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


# -- reports ------------------------------------------------------------------

@dataclass
class DimensionReport:
    lo: int
    hi: int
    witness: Witness
    method: str

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"invalid dimension bracket [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def d(self) -> int | None:
        return self.lo if self.is_point else None

    def to_json(self) -> dict:
        return {
            "d": self.lo if self.is_point else [self.lo, self.hi],
            "witness": self.witness.to_json(),
            "method": self.method,
        }


@dataclass
class BernsteinReport:
    gkdim_algebra: int
    d: int
    bound: int

    def __post_init__(self):
        if self.bound != self.gkdim_algebra - self.d or self.bound < 0:
            raise ValueError("bound must equal gkdim - d and be non-negative")

    def to_json(self) -> dict:
        return {"gkdim_algebra": self.gkdim_algebra, "d": self.d, "bound": self.bound}


def _z_block_dimension(spec: AlgebraSpec) -> int:
    """The dimension n + [q_1 = 1] of the standard torus of a spec,
    certified as an upper bound from the pivots of its z-block.  Raises
    ArithmeticError if a pivot the argument needs vanishes.

    On (z_1..z_n, y_1..y_n) the pairing is [[0, A], [-A^T, C]]: the z_i
    commute, and A[i][j] = (z_i, y_j) is p_j for i < j and q_j for i >= j
    (torus._z_entries; 1-based here).  Row i - row (i+1) of A, i < n,
    vanishes but for the pivot p_{i+1} - q_{i+1} in column i+1, and row n
    is (q_1, ..., q_n).  Every pivot below is read from spec.exponents
    through torus._z_entries, the entry formula of the torus, without
    building it: the entry (z_{j-1}, y_j) minus the entry (z_j, y_j) for
    j >= 2, and the entry (z_n, y_1) = q_1.  An exponent vector lists its
    nonzero exponents by symbol, so a pivot vanishes exactly when its two
    entries are equal tuples, and the n tests cost O(nk).

    Each nonzero pivot is a nonzero linear form w -> w.v in a weight w, and
    some integer w is a root of none of them.  Every isotropic sublattice
    of the torus is isotropic for S_w = sum_c w_c S_c, so its rank is at
    most 2n - rank(S_w)/2.  A nonsingular r x r minor A_w[I, J] gives a
    nonsingular 2r x 2r minor of S_w on rows (z_I, y_J) and columns
    (y_J, z_I), block triangular with blocks A_w[I, J] and -A_w[I, J]^T,
    so rank(S_w) >= 2 rank(A_w).  The n - 1 pivots p_j - q_j, j >= 2, make
    rank(A_w) >= n - 1 (they are nonzero on every spec _validate accepts),
    so d <= n + 1.  If q_1 != 1 it is a pivot too: det A_w = +-w.q_1 *
    prod_{j>=2} w.(p_j - q_j) != 0, so d <= n.  The lower bound is the
    witness z_1..z_n, plus y_1 when q_1 = 1, whose entries with every z_i
    are q_1; torus_dimension verifies it (_verify_unit_witness).
    """
    n = spec.n
    q, p, _ = spec.exponents
    ch = ("y",) * n
    for j in range(1, n):
        below, at = torus._z_entries(q, p, ch, j)  # (z_{j}, y_{j+1}), (z_{j+1}, y_{j+1})
        if below == at:
            raise ArithmeticError(
                f"z-block pivot (z{j}, y{j + 1}) - (z{j + 1}, y{j + 1}) vanishes"
            )
    return n if torus._z_entries(q, p, ch, 0)[1] else n + 1


def _verify_unit_witness(spec: AlgebraSpec, slots) -> bool:
    """Whether the unit vectors at the given slots of the standard torus
    (z_1..z_n, y_1..y_n) are independent and commute pairwise.

    Distinct unit vectors are independent, so independence is a check of
    distinct slots; e_s and e_t commute exactly when the entry (s, t)
    vanishes, read from spec.exponents through torus._entry.
    """
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        return False
    n = spec.n
    entry = functools.partial(torus._entry, n, *spec.exponents, ("y",) * n)
    return not any(entry(s, t)[1] for s, t in itertools.combinations(slots, 2))


def torus_dimension(spec: AlgebraSpec, height: int = 3) -> DimensionReport:
    """Dimension of the rank-2n torus localization, with a verified witness.

    Every spec gets the closed form d = n + [q_1 = 1] of _z_block_dimension,
    certified from above by the z-block pivots of the standard torus and
    from below by the unit-vector witness z_1..z_n (plus y_1 when q_1 = 1).
    Both read the torus entries from spec.exponents through its entry
    formula, so no torus is built and no Scalar is made.  The method labels
    stay those of the paths this replaced: "exact-single-parameter" on a
    single-parameter lattice, "search" on the other specs, and "theorem-p1"
    or "theorem-q1" on the theorem kinds (the p_i = 1 kinds have d = n, the
    q_i = 1 kind n + 1).  Every report is a point.  `height` changes no
    result; it is still accepted because the benchmark's smoke test wraps
    torus_dimension and passes it on.

    The witness returned has always passed _verify_unit_witness: a rejected
    one raises ArithmeticError.
    """
    d = _z_block_dimension(spec)
    if not _verify_unit_witness(spec, range(d)):
        raise ArithmeticError("z-block closed form produced an invalid witness")
    zero = (0,) * (2 * spec.n)
    witness = Witness(zero[:i] + (1,) + zero[i + 1:] for i in range(d))
    if spec.kind in ("generic-p1", "graded-weyl", "generic-q1"):
        method = "theorem-q1" if spec.kind == "generic-q1" else "theorem-p1"
    else:
        method = "exact-single-parameter" if spec.lattice.k == 1 else "search"
    return DimensionReport(lo=d, hi=d, witness=witness, method=method)


def bernstein_report(spec: AlgebraSpec, rep: DimensionReport) -> BernsteinReport:
    """The bound 2n - d from a dimension report that is a point value."""
    if not rep.is_point:
        raise ValueError(
            f"the dimension report is the bracket [{rep.lo}, {rep.hi}], "
            "not a point, so it gives no bound"
        )
    return BernsteinReport(gkdim_algebra=2 * spec.n, d=rep.d, bound=2 * spec.n - rep.d)


def bernstein_bound(spec: AlgebraSpec) -> BernsteinReport:
    """Growth lower bound 2n - d for torsionfree modules, d the torus dimension."""
    return bernstein_report(spec, torus_dimension(spec))
