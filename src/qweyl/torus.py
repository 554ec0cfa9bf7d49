"""Commutation pairings of the Casimir/generator torus localizations.

A rank-m quantum torus with monomial commutation factors is determined by
its commutator pairing: X_a X_b = lambda_ab X_b X_a with lambda_ab a
monomial in the parameter symbols, recorded as the integer exponent vector
of lambda_ab.  These vectors form an alternating m x m matrix, and on
Laurent monomials the relation extends bilinearly,

    X^u X^v = lambda(u, v) X^v X^u,   lambda(u, v) = sum_ab u_a v_b lambda_ab,

written additively in the free abelian group on the parameter symbols.

Two tori are built from an algebra spec, both of rank 2n on the Casimir
elements z_1..z_n followed by one invertible generator per index: the
standard torus inverts every y_i; a localized torus inverts the per-index
choice of x_i or y_i.  The map theta sending z_i to z_i and y_i to either
y_i or z_i x_i^{-1} is an integer map on exponent vectors, and
check_torus_isomorphism verifies relation by relation that it carries the
standard pairing onto the localized one.

Exponent vectors are sparse: the nonzero (c, e) pairs, by symbol index c,
with () for the zero vector.  A spec's parameters use few of its k symbols
(on the generic kinds k grows as n^2 and each parameter is one symbol), so
a pairing is stored as its rows of nonzero entries, and the dense m x m
matrix of length-k tuples, ExponentPairing.entries, is only a view built
on demand.  Every entry is read straight from the sparse exponent vectors
of q, p and gamma: z_i past a generator of index j scales by q_j or p_j
(inverted for x_j), and two generators of different indices swap by the
monomial of presentation._swap_exponents, the one formula of the scalar
that the rewrite rules of qweyl.pbw pack too.  localized_torus,
theta_verdicts and _entry, the one entry of a localized torus that
qweyl.dimension reads, share _z_entries and _swap_exponents.  They take
the vectors from spec.exponents, the form in which the spec stores its
parameters, so the torus neither reads a Scalar nor caches a parameter
itself.  The standard torus is built once per spec and cached on it, like
the rewrite rules; a pairing is immutable, so every caller may share it.

Locality of the theta checks.  The check of a standard pair (a, b) under a
choice ch compares pair(theta(a), theta(b)) in the localized torus with the
standard entry (a, b).  theta(z_i) = e_i reads no choice, and theta(y_i) is
e_{n+i} or e_i - e_{n+i} as ch[i] is y or x.  A localized entry reads ch only
at the indices of its own two generators: (z_i, z_j) vanishes, (z_i, v_j)
reads ch[j], and (v_i, v_j) reads ch[i] and ch[j].  So the check of (a, b)
reads ch only at the indices of the y's among a and b: none for (z_i, z_j),
j for (z_i, y_j) and i, j for (y_i, y_j).  Its verdict under every one of
the 2^n choices is one of at most 4 verdicts, one per assignment of x/y to
those indices, and theta_verdicts computes each of them once, as a table:
C(n,2) + 2n^2 + 4 C(n,2) verdicts stand for the 2^n C(2n,2) checks.

A verdict expands pair(theta(a), theta(b)) bilinearly into at most four
localized entries, written in closed form from _z_entries and
_swap_exponents, and compares their sum with the standard entry (a, b).
Both sides are packed into one integer each, exponent e of symbol c in the
64-bit field c, like the packed monomials of qweyl.scalars and qweyl.pbw.
Every parameter exponent lies within +-(2^31 - 1), a sum reads at most five
parameter vectors and a standard entry one, so each component of their
difference stays below 6 * 2^31 < 2^63: no field carries, and the two
integers are equal exactly when the vectors are.  The 32-bit fields of a
Scalar key would not do, since a swap sum alone reaches 3 (2^31 - 1).
theta_sweep expands the table into the records of check_torus_isomorphism
for every choice, in the order of their names.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

from .presentation import AlgebraSpec, SparseVector, _neg, _swap_exponents
from .reporting import check

IntVector = tuple[int, ...]

_THETA_DETAIL = "standard-torus relation preserved in the localized torus"

_exponent = operator.itemgetter(1)  # of a (c, e) pair


class ExponentPairing:
    """Alternating m x m matrix of integer exponent vectors in k parameters.

    Stored as rows: row i lists (j, v) for each nonzero entry (i, j), by j,
    with v the entry's nonzero exponents ((c, e), ...), by c.  `entries`,
    the dense m x m matrix of length-k tuples, is derived from the rows on
    first use and kept.  The constructor takes dense entries and checks
    that they are alternating; the spec tori are built as rows directly.
    """

    __slots__ = ("m", "k", "_rows", "_entries")

    def __init__(self, m: int, k: int, entries):
        dense = tuple(tuple(tuple(v) for v in row) for row in entries)
        if len(dense) != m or any(len(row) != m for row in dense):
            raise ValueError(f"pairing must be a {m} x {m} matrix")
        zero = (0,) * k
        for i in range(m):
            if dense[i][i] != zero:
                raise ValueError(f"diagonal entry ({i},{i}) must vanish")
            for j in range(i + 1, m):
                if len(dense[i][j]) != k:
                    raise ValueError(f"entry ({i},{j}) has wrong length")
                if dense[j][i] != tuple(map(operator.neg, dense[i][j])):
                    raise ValueError(f"entries ({i},{j})/({j},{i}) not alternating")
        self.m = m
        self.k = k
        self._entries = dense
        # row i: (j, the (c, e) of entry (i, j) with e != 0), for each nonzero entry
        self._rows = tuple(
            tuple((j, tuple(filter(_exponent, enumerate(v))))
                  for j, v in enumerate(row) if any(v))
            for row in dense
        )

    @classmethod
    def _from_rows(cls, m: int, k: int, rows) -> ExponentPairing:
        """A pairing from rows in the stored form, taken as they are."""
        E = object.__new__(cls)
        E.m = m
        E.k = k
        E._rows = tuple(map(tuple, rows))
        E._entries = None
        return E

    @property
    def entries(self) -> tuple[tuple[IntVector, ...], ...]:
        """The dense m x m matrix of length-k exponent tuples."""
        if self._entries is None:
            zero = (0,) * self.k
            dense = []
            for row in self._rows:
                out = [zero] * self.m
                for j, nz in row:
                    v = [0] * self.k
                    for c, e in nz:
                        v[c] = e
                    out[j] = tuple(v)
                dense.append(tuple(out))
            self._entries = tuple(dense)
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentPairing):
            return NotImplemented
        return self.k == other.k and self._rows == other._rows

    def sparse_rows(self) -> tuple:
        """Per row i, the entries (j, ((c, e), ...)) with their nonzero
        exponents: the stored form."""
        return self._rows

    def pair(self, u, v) -> IntVector:
        """Pairing of two integer vectors; zero vector means they commute."""
        out = [0] * self.k
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, nz in self._rows[i]:
                vj = v[j]
                if not vj:
                    continue
                f = ui * vj
                for c, e in nz:
                    out[c] += f * e
        return tuple(out)


# -- tori attached to an algebra spec ----------------------------------------

def _z_entries(q, p, ch, j: int) -> tuple[SparseVector, SparseVector]:
    """Exponents of lam with z_i V_j = lam V_j z_i, for i < j and for i >= j.

    Indices are 0-based.  z_i past y_j scales by p_j when i < j and by q_j
    otherwise; past x_j by the inverse.
    """
    if ch[j] == "x":
        return _neg(p[j]), _neg(q[j])
    return p[j], q[j]


def _entry(n: int, q, p, gamma, ch, s: int, t: int) -> tuple[int, SparseVector]:
    """(f, v) with entry (s, t) of the rank-2n pairing localized_torus(spec,
    ch) equal to f*v, for the spec's n and exponent vectors (q, p, gamma),
    reading ch at s and t only.  Slots 0..n-1 are z_1..z_n, which commute.

    qweyl.dimension reads it for the pairs of its witness check that hold
    a y slot, and skips two z slots, whose entry is () before any parameter
    is read; theta_verdicts writes the same entries in closed form, checked
    against localized_torus."""
    f = 1
    if s > t:
        s, t, f = t, s, -1
    if t < n:
        return f, ()
    if s < n:
        return f, _z_entries(q, p, ch, t - n)[s >= t - n]
    return -f, _swap_exponents(q, p, gamma, t - n, s - n, ch[t - n], ch[s - n])


def validate_choice(spec: AlgebraSpec, choice) -> tuple[str, ...]:
    ch = tuple(choice)
    if len(ch) != spec.n or any(v not in ("x", "y") for v in ch):
        raise ValueError(f"choice must be n letters from {{'x','y'}}, got {choice!r}")
    return ch


def standard_torus(spec: AlgebraSpec) -> ExponentPairing:
    """Rank-2n pairing on z_1..z_n, y_1..y_n.  Cached on the spec."""
    if spec._standard_torus is None:
        spec._standard_torus = localized_torus(spec, ("y",) * spec.n)
    return spec._standard_torus


def localized_torus(spec: AlgebraSpec, choice) -> ExponentPairing:
    """Rank-2n pairing on z_1..z_n, v_1..v_n with v_i = x_i or y_i.

    Each entry (a, b), a < b, is computed once and stored with its negative
    at (b, a), so the pairing is alternating by construction.  The pairs are
    visited in order of (a, b), which appends every row's entries by column.
    """
    ch = validate_choice(spec, choice)
    n = spec.n
    q, p, gamma = spec.exponents
    rows: list[list] = [[] for _ in range(2 * n)]
    lams = [_z_entries(q, p, ch, j) for j in range(n)]
    negs = [tuple(map(_neg, lam)) for lam in lams]
    for i in range(n):  # (z_i, v_j); (z_i, z_j) vanishes
        for j in range(n):
            lam = lams[j][i >= j]
            if lam:
                rows[i].append((n + j, lam))
                rows[n + j].append((i, negs[j][i >= j]))
    for j in range(n):  # (v_j, v_i) for i > j
        for i in range(j + 1, n):
            lam = _swap_exponents(q, p, gamma, i, j, ch[i], ch[j])
            if lam:
                rows[n + j].append((n + i, _neg(lam)))
                rows[n + i].append((n + j, lam))
    return ExponentPairing._from_rows(2 * n, spec.lattice.k, rows)


def torus_generator_labels(spec: AlgebraSpec, choice=None) -> list[str]:
    ch = ("y",) * spec.n if choice is None else validate_choice(spec, choice)
    return [f"z{i}" for i in range(1, spec.n + 1)] + [
        f"{ch[i - 1]}{i}" for i in range(1, spec.n + 1)
    ]


def check_torus_isomorphism(spec: AlgebraSpec, choice) -> list[dict]:
    """Verify the standard-torus relations under z_i -> z_i, y_i -> y_i or z_i x_i^{-1}.

    Every theta-image is a coefficient-1 monomial X^u of the localized torus,
    so the relation X_a X_b = lambda_ab X_b X_a of the standard torus holds
    for the images exactly when the localized pairing of their exponent
    vectors equals the standard entry (a, b).  Returns one report check
    record (reporting.check) per pair a < b, named theta[choice](a,b).
    """
    ch = validate_choice(spec, choice)
    n = spec.n
    std = standard_torus(spec)
    loc = localized_torus(spec, ch)

    def image(a: int) -> IntVector:
        # a indexes the standard basis: z_1..z_n then y_1..y_n
        e = [0] * (2 * n)
        e[a] = 1
        if a >= n and ch[a - n] == "x":
            e[a - n] = 1
            e[a] = -1
        return tuple(e)

    labels = torus_generator_labels(spec)
    tag = "".join(ch)
    images = [image(a) for a in range(2 * n)]
    checks = []
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            checks.append(
                check(
                    f"theta[{tag}]({labels[a]},{labels[b]})",
                    loc.pair(images[a], images[b]) == std.entries[a][b],
                    _THETA_DETAIL,
                )
            )
    return checks


def _packed(v: SparseVector) -> int:
    """v as one integer, exponent e of symbol c in the 64-bit field c."""
    out = 0
    for c, e in v:
        out += e << 64 * c
    return out


def theta_verdicts(spec: AlgebraSpec) -> list[tuple[str, int, dict[int, bool]]]:
    """Every distinct verdict of the theta checks, as one row
    (label, mask, {submask: verdict}) per standard pair a < b, by (a, b).

    label is "(a,b)" in the standard generator names and mask has bit i set
    for each y_{i+1} among a and b.  Under the choice that inverts x_{i+1}
    exactly at the set bits i of bits, the check of (a, b) has the verdict
    verdicts[bits & mask] (see the module docstring).
    """
    n = spec.n
    q, p, gamma = spec.exponents
    std = [{b: _packed(v) for b, v in row if b > a}
           for a, row in enumerate(standard_torus(spec).sparse_rows())]
    zy = [tuple(map(_packed, _z_entries(q, p, ("y",) * n, j))) for j in range(n)]
    zx = [tuple(map(_packed, _z_entries(q, p, ("x",) * n, j))) for j in range(n)]
    labels = torus_generator_labels(spec)
    rows = []
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            s = std[a].get(b, 0)
            if b < n:  # (z_i, z_j)
                mask, verdicts = 0, {0: s == 0}
            elif a < n:  # (z_i, y_j); theta(y_j) = e_j - e_{n+j} under x
                i, j = a, b - n
                mask = 1 << j
                verdicts = {0: zy[j][i >= j] == s, mask: -zx[j][i >= j] == s}
            else:  # (y_i, y_j), i < j: the localized (v_i, v_j) is -S(v_j, v_i)
                i, j = a - n, b - n
                yy, yx, xy, xx = (_packed(_swap_exponents(q, p, gamma, j, i, vj, vi))
                                  for vj, vi in ("yy", "yx", "xy", "xx"))
                mask = 1 << i | 1 << j
                verdicts = {
                    0: -yy == s,
                    1 << i: zy[j][0] + yx == s,
                    1 << j: -zy[i][1] + xy == s,
                    mask: zx[i][1] - zx[j][0] - xx == s,
                }
            rows.append((f"({labels[a]},{labels[b]})", mask, verdicts))
    return rows


def theta_sweep(spec: AlgebraSpec) -> Iterator[list[dict]]:
    """check_torus_isomorphism(spec, choice) for every choice, in the order
    of their check names: choices by tag ("x" before "y"), and within one
    choice the pairs by label.

    Yields one list of check records per choice, equal to what
    check_torus_isomorphism returns once sorted by name, but builds no
    localized torus: each record reads its status from theta_verdicts,
    written once per verdict.
    """
    n = spec.n
    rows = [(label, mask, {sub: "pass" if ok else "fail" for sub, ok in verdicts.items()})
            for label, mask, verdicts in sorted(theta_verdicts(spec), key=operator.itemgetter(0))]
    for ch in itertools.product("xy", repeat=n):
        bits = sum(1 << i for i, v in enumerate(ch) if v == "x")
        prefix = f"theta[{''.join(ch)}]"
        yield [{"name": prefix + label, "status": status[bits & mask], "detail": _THETA_DETAIL}
               for label, mask, status in rows]
