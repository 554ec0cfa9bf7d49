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

Every entry is read straight from the exponent vectors of q, p and gamma:
z_i past a generator of index j scales by q_j or p_j (inverted for x_j),
and two generators of different indices swap by the scalar of their
rewrite rule in qweyl.presentation, a product of q, p and gamma entries.
The standard torus is built once per spec and cached on it, like the rule
table; a pairing is immutable, so every caller may share it.

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

import operator
from collections.abc import Iterator

from .presentation import AlgebraSpec
from .reporting import Check

IntVector = tuple[int, ...]

_THETA_DETAIL = "standard-torus relation preserved in the localized torus"


def _neg(v: IntVector) -> IntVector:
    return tuple(map(operator.neg, v))


class ExponentPairing:
    """Alternating m x m matrix of length-k integer exponent vectors."""

    __slots__ = ("m", "k", "entries")

    def __init__(self, m: int, k: int, entries):
        self.m = m
        self.k = k
        self.entries = tuple(tuple(tuple(v) for v in row) for row in entries)
        if len(self.entries) != m or any(len(row) != m for row in self.entries):
            raise ValueError(f"pairing must be a {m} x {m} matrix")
        zero = (0,) * k
        for i in range(m):
            if self.entries[i][i] != zero:
                raise ValueError(f"diagonal entry ({i},{i}) must vanish")
            for j in range(i + 1, m):
                if len(self.entries[i][j]) != k:
                    raise ValueError(f"entry ({i},{j}) has wrong length")
                if self.entries[j][i] != _neg(self.entries[i][j]):
                    raise ValueError(f"entries ({i},{j})/({j},{i}) not alternating")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentPairing):
            return NotImplemented
        return self.k == other.k and self.entries == other.entries

    def component(self, c: int) -> list[list[int]]:
        return [[self.entries[i][j][c] for j in range(self.m)] for i in range(self.m)]

    def pair(self, u, v) -> IntVector:
        """Pairing of two integer vectors; zero vector means they commute."""
        out = [0] * self.k
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.entries[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                f = ui * vj
                e = row[j]
                for c in range(self.k):
                    out[c] += f * e[c]
        return tuple(out)


# -- tori attached to an algebra spec ----------------------------------------

def _swap_exponents(q, p, gamma, ch, i: int, j: int) -> IntVector:
    """Exponents of lam with V_i V_j = lam V_j V_i for 0-based indices i > j.

    V_i is x_i or y_i as ch says; lam is the scalar of the rewrite rule of
    the pair: y_i y_j -> g_ij, x_i y_j -> q_j g_ij^-1, y_i x_j -> p_i^-1 g_ji
    and x_i x_j -> q_j^-1 p_i g_ij.
    """
    if ch[i] == "y":
        factors = (gamma[i][j],) if ch[j] == "y" else (_neg(p[i]), gamma[j][i])
    elif ch[j] == "y":
        factors = (q[j], _neg(gamma[i][j]))
    else:
        factors = (_neg(q[j]), p[i], gamma[i][j])
    return tuple(map(sum, zip(*factors)))


def _z_entries(q, p, ch, j: int) -> tuple[IntVector, IntVector]:
    """Exponents of lam with z_i V_j = lam V_j z_i, for i < j and for i >= j.

    Indices are 0-based.  z_i past y_j scales by p_j when i < j and by q_j
    otherwise; past x_j by the inverse.
    """
    if ch[j] == "x":
        return _neg(p[j]), _neg(q[j])
    return p[j], q[j]


def _exponents(spec: AlgebraSpec):
    """Exponent vectors of q, p and gamma."""
    q = [s.as_monomial() for s in spec.q]
    p = [s.as_monomial() for s in spec.p]
    gamma = [[s.as_monomial() for s in row] for row in spec.gamma]
    return q, p, gamma


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
    """Rank-2n pairing on z_1..z_n, v_1..v_n with v_i = x_i or y_i."""
    ch = validate_choice(spec, choice)
    n = spec.n
    zero = (0,) * spec.lattice.k
    q, p, gamma = _exponents(spec)
    entries = [[zero] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        lams = _z_entries(q, p, ch, j)
        negs = tuple(map(_neg, lams))
        for i in range(n):
            entries[i][n + j] = lams[i >= j]
            entries[n + j][i] = negs[i >= j]
            if i > j:
                lam = _swap_exponents(q, p, gamma, ch, i, j)
                entries[n + i][n + j] = lam
                entries[n + j][n + i] = _neg(lam)
    return ExponentPairing(2 * n, spec.lattice.k, entries)


def torus_generator_labels(spec: AlgebraSpec, choice=None) -> list[str]:
    ch = ("y",) * spec.n if choice is None else validate_choice(spec, choice)
    return [f"z{i}" for i in range(1, spec.n + 1)] + [
        f"{ch[i - 1]}{i}" for i in range(1, spec.n + 1)
    ]


def check_torus_isomorphism(spec: AlgebraSpec, choice) -> list[Check]:
    """Verify the standard-torus relations under z_i -> z_i, y_i -> y_i or z_i x_i^{-1}.

    Every theta-image is a coefficient-1 monomial X^u of the localized torus,
    so the relation X_a X_b = lambda_ab X_b X_a of the standard torus holds
    for the images exactly when the localized pairing of their exponent
    vectors equals the standard entry (a, b).
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
                Check(
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


def theta_sweep(spec: AlgebraSpec) -> Iterator[list[Check]]:
    """check_torus_isomorphism(spec, _choice(n, bits)) for bits = 0 .. 2^n - 1.

    Yields one list per choice, equal to what check_torus_isomorphism
    returns, but builds no localized torus: each verdict is computed once
    per assignment of the indices its check reads (see the module
    docstring) and is looked up by bits & mask, mask holding the bits of
    those indices.
    """
    n = spec.n
    k = spec.lattice.k
    std = standard_torus(spec).entries
    q, p, gamma = _exponents(spec)
    zero = (0,) * k

    def entry(ch, s: int, t: int) -> IntVector:
        # entry (s, t) of localized_torus(spec, ch), reading ch at s and t only
        if s > t:
            return _neg(entry(ch, t, s))
        if t < n:
            return zero
        if s < n:
            return _z_entries(q, p, ch, t - n)[s >= t - n]
        return _neg(_swap_exponents(q, p, gamma, ch, t - n, s - n))

    def holds(ch, a: int, b: int) -> bool:
        out = [0] * k
        for s, es in _theta_image(n, ch, a):
            for t, et in _theta_image(n, ch, b):
                for c, e in enumerate(entry(ch, s, t)):
                    out[c] += es * et * e
        return tuple(out) == std[a][b]

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
        yield [Check(prefix + pair, verdicts[bits & mask], _THETA_DETAIL)
               for pair, mask, verdicts in pairs]
