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
"""

from __future__ import annotations

import operator

from .presentation import AlgebraSpec
from .reporting import Check

IntVector = tuple[int, ...]


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
    q = [s.as_monomial() for s in spec.q]
    p = [s.as_monomial() for s in spec.p]
    gamma = [[s.as_monomial() for s in row] for row in spec.gamma]
    entries = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            # z_i past y_j scales by q_j when i >= j and by p_j otherwise;
            # past x_j by the inverse
            lam = q[j] if i >= j else p[j]
            if ch[j] == "x":
                lam = _neg(lam)
            entries[i][n + j] = lam
            entries[n + j][i] = _neg(lam)
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
                    "standard-torus relation preserved in the localized torus",
                )
            )
    return checks
