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
witness entries are read from the q and p vectors alone (spec.qp) through
the torus's entry formula (qweyl.torus._z_entries), so the dimension
builds no torus, no Scalar and, on a preset, no gamma.

bernstein_report turns a dimension report already in hand into the bound
2n - d.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import torus
from .presentation import AlgebraSpec
from .torus import ExponentPairing

IntVector = tuple[int, ...]

# -- the exponent pairing -----------------------------------------------------

def pairing_from_matrix(E: ExponentPairing) -> ExponentPairing:
    """Identity: standard_torus already returns the exponent pairing.

    Kept only for the benchmark (perfbench/session.py), its one caller,
    which still calls pairing_from_matrix(standard_torus(spec)); remove it
    once the benchmark calls standard_torus directly.
    """
    return E


# -- witnesses ----------------------------------------------------------------

@dataclass
class Witness:
    vectors: tuple[IntVector, ...]

    def __init__(self, vectors):
        self.vectors = tuple(tuple(map(int, v)) for v in vectors)

    @classmethod
    def units(cls, size: int, slots) -> Witness:
        """The unit vectors of length size at the given slots, made as int
        tuples, so with no coercion of their entries."""
        w = cls.__new__(cls)
        zero = (0,) * size
        w.vectors = tuple(zero[:s] + (1,) + zero[s + 1:] for s in slots)
        return w

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.vectors]


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
    is (q_1, ..., q_n).  Every pivot below is read from spec.qp
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
    q, p = spec.qp
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
    vanishes, read from spec.qp, and from gamma only for two slots past
    y_1, through torus._entry.  The witness of torus_dimension lies in
    slots 0..n, so it never reads gamma.
    """
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        return False
    n = spec.n
    gamma = spec.exponents[2] if max(slots, default=0) > n else None
    entry = functools.partial(torus._entry, n, *spec.qp, gamma, ("y",) * n)
    return not any(entry(s, t)[1] for s, t in itertools.combinations(slots, 2))


def torus_dimension(spec: AlgebraSpec, height: int = 3) -> DimensionReport:
    """Dimension of the rank-2n torus localization, with a verified witness.

    Every spec gets the closed form d = n + [q_1 = 1] of _z_block_dimension,
    certified from above by the z-block pivots of the standard torus and
    from below by the unit-vector witness z_1..z_n (plus y_1 when q_1 = 1).
    Both read the torus entries from spec.qp through its entry formula, so
    no torus is built, no Scalar is made and a preset writes no gamma.  The
    method labels stay those of the paths this replaced:
    "exact-single-parameter" on a single-parameter lattice, "search" on the
    other specs, and "theorem-p1" or "theorem-q1" on the theorem kinds (the
    p_i = 1 kinds have d = n, the q_i = 1 kind n + 1).  Every report is a
    point.  `height` changes no result; it is still accepted because the
    benchmark's smoke test wraps torus_dimension and passes it on.

    The witness returned has always passed _verify_unit_witness: a rejected
    one raises ArithmeticError.
    """
    d = _z_block_dimension(spec)
    if not _verify_unit_witness(spec, range(d)):
        raise ArithmeticError("z-block closed form produced an invalid witness")
    witness = Witness.units(2 * spec.n, range(d))
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
