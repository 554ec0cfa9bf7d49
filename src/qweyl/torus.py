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
that the rewrite rules of qweyl.pbw pack too.  localized_torus and
_entry, the one entry of a localized torus that theta_sweep and
qweyl.dimension read, share _z_entries and _swap_exponents.  Both take the
vectors from spec.exponents, the form in which the spec stores its
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
those indices, and theta_sweep computes each of them once:
C(n,2) + 2n^2 + 4 C(n,2) verdicts stand for the 2^n C(2n,2) checks.
"""

from __future__ import annotations

import functools
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
    reading ch at s and t only.  Slots 0..n-1 are z_1..z_n, which commute."""
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


def _choice(n: int, bits: int) -> tuple[str, ...]:
    """The choice that inverts x_i exactly where bit i - 1 of bits is set."""
    return tuple("x" if bits >> i & 1 else "y" for i in range(n))


def _theta_image(n: int, ch, a: int) -> list[tuple[int, int]]:
    """theta of standard generator a as (localized slot, exponent) pairs."""
    if a >= n and ch[a - n] == "x":
        return [(a - n, 1), (a, -1)]  # y_i -> z_i x_i^{-1}
    return [(a, 1)]


def theta_sweep(spec: AlgebraSpec) -> Iterator[list[dict]]:
    """check_torus_isomorphism(spec, _choice(n, bits)) for bits = 0 .. 2^n - 1.

    Yields one list of check records per choice, equal to what
    check_torus_isomorphism returns, but builds no localized torus: each
    verdict is computed once per assignment of the indices its check reads
    (see the module docstring) and is looked up by bits & mask, mask holding
    the bits of those indices.
    """
    n = spec.n
    std = [{j: dict(nz) for j, nz in row} for row in standard_torus(spec).sparse_rows()]
    entry = functools.partial(_entry, n, *spec.exponents)

    def holds(ch, a: int, b: int) -> bool:
        acc: dict[int, int] = {}
        for s, es in _theta_image(n, ch, a):
            for t, et in _theta_image(n, ch, b):
                f, v = entry(ch, s, t)
                f *= es * et
                for c, e in v:
                    acc[c] = acc.get(c, 0) + f * e
        return {c: e for c, e in acc.items() if e} == std[a].get(b, {})

    labels = torus_generator_labels(spec)
    pairs = []
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            mask = sum(1 << (c - n) for c in (a, b) if c >= n)
            verdicts = {}
            local = mask
            while True:  # every submask of mask, down to 0
                verdicts[local] = holds(_choice(n, local), a, b)
                if not local:
                    break
                local = (local - 1) & mask
            pairs.append((f"({labels[a]},{labels[b]})", mask, verdicts))
    for bits in range(2**n):
        prefix = f"theta[{''.join(_choice(n, bits))}]"
        yield [check(prefix + pair, verdicts[bits & mask], _THETA_DETAIL)
               for pair, mask, verdicts in pairs]
