"""Normal-form engine on the ordered-monomial basis.

Elements are finite maps from exponent tuples (a1, b1, ..., an, bn) to
nonzero scalars, a_i on y_i and b_i on x_i.  Words multiply by repeatedly
rewriting the leftmost adjacent out-of-order generator pair with the rule
table from qweyl.presentation; pure swaps strictly decrease the inversion
count, and the inhomogeneous (x_i, y_i) rule swaps the pair while adding
terms in strictly lower generators only, so rewriting terminates.

Confluence is not proved from critical pairs; it is validated by the
associativity fuzz in the test suite and by the growth counts matching the
full binomial dimension of the degree filtration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .presentation import AlgebraSpec, casimir, rule_table
from .reporting import Check
from .scalars import Scalar, render_scalar

Monomial = tuple[int, ...]
Word = tuple[int, ...]


class BudgetError(ValueError):
    """Raised when an enumeration would exceed the desk-scale budget."""


class PBWElement:
    """Finite scalar combination of ordered monomials."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, Scalar]):
        self.n = n
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PBWElement") -> "PBWElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return PBWElement(self.n, out)

    def __neg__(self) -> "PBWElement":
        return PBWElement(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "PBWElement") -> "PBWElement":
        return self + (-other)

    def scale(self, c: Scalar) -> "PBWElement":
        if c.is_zero():
            return PBWElement(self.n, {})
        return PBWElement(self.n, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PBWElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def degree(self) -> int:
        """Maximum total degree of a monomial (zero element: -1)."""
        return max((sum(m) for m in self.terms), default=-1)

    def __repr__(self) -> str:
        return f"PBWElement({len(self.terms)} terms, n={self.n})"


def unit(spec: AlgebraSpec) -> PBWElement:
    return PBWElement(spec.n, {(0,) * (2 * spec.n): spec.lattice.one()})


def generator(spec: AlgebraSpec, name_or_slot) -> PBWElement:
    g = name_or_slot if isinstance(name_or_slot, int) else spec.gen_index(name_or_slot)
    exps = [0] * (2 * spec.n)
    exps[g] = 1
    return PBWElement(spec.n, {tuple(exps): spec.lattice.one()})


def word_monomial(spec: AlgebraSpec, word: Word) -> Monomial:
    """Exponent tuple of an ordered word."""
    exps = [0] * (2 * spec.n)
    for g in word:
        exps[g] += 1
    return tuple(exps)


def monomial_word(mono: Monomial) -> Word:
    out = []
    for g, e in enumerate(mono):
        out.extend([g] * e)
    return tuple(out)


def parse_word(spec: AlgebraSpec, text: str) -> Word:
    """Whitespace-separated generator names, e.g. 'x2 y1 x1'."""
    return tuple(spec.gen_index(tok) for tok in text.split())


def normal_form(spec: AlgebraSpec, word) -> PBWElement:
    """Rewrite a word (tuple of slots, or a string) to the ordered basis."""
    if isinstance(word, str):
        word = parse_word(spec, word)
    table = rule_table(spec)
    out: dict[Monomial, Scalar] = {}
    stack: list[tuple[Scalar, Word]] = [(spec.lattice.one(), tuple(word))]
    while stack:
        coeff, w = stack.pop()
        for idx in range(len(w) - 1):
            if w[idx] > w[idx + 1]:
                head, tail = w[:idx], w[idx + 2:]
                for c, repl in table[(w[idx], w[idx + 1])]:
                    stack.append((coeff * c, head + repl + tail))
                break
        else:
            mono = word_monomial(spec, w)
            acc = out.get(mono)
            out[mono] = coeff if acc is None else acc + coeff
    return PBWElement(spec.n, out)


def _mono_product(spec: AlgebraSpec, a: Monomial, b: Monomial) -> PBWElement:
    cached = spec._mono_cache.get((a, b))
    if cached is None:
        cached = normal_form(spec, monomial_word(a) + monomial_word(b))
        spec._mono_cache[(a, b)] = cached
    return cached


def multiply(spec: AlgebraSpec, f: PBWElement, g: PBWElement) -> PBWElement:
    """Bilinear extension of word concatenation + normal form."""
    out = PBWElement(spec.n, {})
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            out = out + _mono_product(spec, ma, mb).scale(ca * cb)
    return out


# -- identity verification ---------------------------------------------------

def verify_relations(spec: AlgebraSpec) -> list[Check]:
    """Check the defining relations and the antisymmetry of gamma.

    One entry per relation instance: xx/yy/xy for each index pair, the
    inhomogeneous x_i y_i relation for each i, and gamma_ij * gamma_ji = 1
    for each unordered pair.
    """
    checks = []
    n = spec.n
    one = spec.lattice.one()
    x = lambda i: generator(spec, spec.x_index(i))
    y = lambda i: generator(spec, spec.y_index(i))
    q, p, gamma = spec.q, spec.p, spec.gamma

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gij = gamma[i - 1][j - 1]
            gji = gamma[j - 1][i - 1]
            checks.append(
                Check(f"gamma({i},{j})", (gij * gji) == one, "gamma_ij*gamma_ji = 1")
            )
            lhs = multiply(spec, x(i), x(j))
            rhs = multiply(spec, x(j), x(i)).scale(q[i - 1] * p[j - 1].inverse() * gij)
            checks.append(Check(f"xx({i},{j})", (lhs - rhs).is_zero(), "x_i x_j relation"))
            lhs = multiply(spec, y(i), y(j))
            rhs = multiply(spec, y(j), y(i)).scale(gij)
            checks.append(Check(f"yy({i},{j})", (lhs - rhs).is_zero(), "y_i y_j relation"))
            lhs = multiply(spec, x(i), y(j))
            rhs = multiply(spec, y(j), x(i)).scale(p[j - 1] * gij.inverse())
            checks.append(Check(f"xy({i},{j})", (lhs - rhs).is_zero(), "x_i y_j, i < j"))
            lhs = multiply(spec, x(j), y(i))
            rhs = multiply(spec, y(i), x(j)).scale(q[i - 1] * gji.inverse())
            checks.append(Check(f"xy({j},{i})", (lhs - rhs).is_zero(), "x_i y_j, i > j"))
    for i in range(1, n + 1):
        lhs = multiply(spec, x(i), y(i)) - multiply(spec, y(i), x(i)).scale(q[i - 1])
        zprev = casimir(spec, i - 1) if i > 1 else PBWElement(n, {})
        checks.append(
            Check(f"weyl({i})", (lhs - zprev).is_zero(), "x_i y_i - q_i y_i x_i = z_{i-1}")
        )
    return checks


def verify_normality(spec: AlgebraSpec, i: int) -> list[Check]:
    """Check the commutation laws of z_i and the simpler Casimir formula."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"index {i} out of range 1..{spec.n}")
    checks = []
    n = spec.n
    q, p = spec.q, spec.p
    z = casimir(spec, i)
    for j in range(1, n + 1):
        yj = generator(spec, spec.y_index(j))
        lam = p[j - 1] if i < j else q[j - 1]
        ok = (multiply(spec, z, yj) - multiply(spec, yj, z).scale(lam)).is_zero()
        checks.append(Check(f"z{i}*y{j}", ok, "z_i y_j = (p_j or q_j) y_j z_i"))
        xj = generator(spec, spec.x_index(j))
        lam = p[j - 1].inverse() if i < j else q[j - 1].inverse()
        ok = (multiply(spec, z, xj) - multiply(spec, xj, z).scale(lam)).is_zero()
        checks.append(Check(f"z{i}*x{j}", ok, "z_i x_j = (p_j or q_j)^-1 x_j z_i"))
        zj = casimir(spec, j)
        ok = (multiply(spec, z, zj) - multiply(spec, zj, z)).is_zero()
        checks.append(Check(f"z{i}*z{j}", ok, "Casimir elements commute"))
    xi = generator(spec, spec.x_index(i))
    yi = generator(spec, spec.y_index(i))
    lhs = multiply(spec, xi, yi) - multiply(spec, yi, xi).scale(p[i - 1])
    checks.append(Check(f"casimir-p({i})", (lhs - z).is_zero(), "x_i y_i - p_i y_i x_i = z_i"))
    return checks


SKEW_FORMS = ("k1_base", "xk_y", "x_yk")


def skew_power_identity(spec: AlgebraSpec, i: int, k: int, form: str) -> Check:
    """Compare the engine power products against the closed formulas."""
    if form not in SKEW_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {SKEW_FORMS}")
    if k < 1 or not 1 <= i <= spec.n:
        raise ValueError(f"invalid (i, k) = ({i}, {k})")
    if form == "k1_base" and i != 1:
        raise ValueError("form 'k1_base' applies to i = 1 only")
    if form in ("xk_y", "x_yk") and i < 2:
        raise ValueError(f"form {form!r} requires i >= 2")

    n = spec.n
    qi = spec.q[i - 1]
    xi, yi = spec.x_index(i), spec.y_index(i)

    def mono(**powers):
        exps = [0] * (2 * n)
        for slot, e in powers.items():
            exps[int(slot)] = e
        return PBWElement(n, {tuple(exps): spec.lattice.one()})

    if form == "k1_base":
        lhs1 = normal_form(spec, (xi,) + (yi,) * k)
        rhs1 = mono(**{str(yi): k, str(xi): 1}).scale(qi**k)
        lhs2 = normal_form(spec, (xi,) * k + (yi,))
        rhs2 = mono(**{str(yi): 1, str(xi): k}).scale(qi**k)
        ok = (lhs1 - rhs1).is_zero() and (lhs2 - rhs2).is_zero()
        return Check(f"skew-base(k={k})", ok, "x1 y1^k and x1^k y1 pure q-powers")

    pi = spec.p[i - 1]
    coeff = (qi**k - pi**k) / (qi - pi)
    zprev = casimir(spec, i - 1)
    if form == "xk_y":
        lhs = normal_form(spec, (xi,) * k + (yi,))
        rhs = mono(**{str(yi): 1, str(xi): k}).scale(qi**k)
        rhs = rhs + multiply(spec, zprev, mono(**{str(xi): k - 1})).scale(coeff)
        name = f"skew-xk_y(i={i},k={k})"
    else:
        lhs = normal_form(spec, (xi,) + (yi,) * k)
        rhs = mono(**{str(yi): k, str(xi): 1}).scale(qi**k)
        rhs = rhs + multiply(spec, mono(**{str(yi): k - 1}), zprev).scale(coeff)
        name = f"skew-x_yk(i={i},k={k})"
    return Check(name, (lhs - rhs).is_zero(), "power formula with (q^k-p^k)/(q-p) coefficient")


# -- growth of the degree filtration -----------------------------------------

@dataclass
class GrowthReport:
    counts: list[int]
    exponent: float
    window: tuple[int, int]


def growth_count(spec: AlgebraSpec, N: int) -> GrowthReport:
    """Dimension of the span of normal forms of all words of length <= m.

    Every ordered word is its own normal form, so collecting the monomial
    supports of all normal forms gives the span dimension exactly.  The
    fitted exponent is the discrete log-derivative m*(c_m - c_{m-1})/c_{m-1}
    averaged over the top window, which recovers the polynomial degree of
    binomial-type counts exactly.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if spec.n > 2 or N > 8:
        raise BudgetError(f"(2n)^N enumeration out of budget for n={spec.n}, N={N}")
    alphabet = range(2 * spec.n)
    supports: set[Monomial] = {(0,) * (2 * spec.n)}
    counts = [1]
    for m in range(1, N + 1):
        for word in itertools.product(alphabet, repeat=m):
            supports.update(normal_form(spec, word).terms.keys())
        counts.append(len(supports))
    lo = max(1, N - 2)
    estimates = [
        Fraction(m * (counts[m] - counts[m - 1]), counts[m - 1]) for m in range(lo, N + 1)
    ]
    exponent = float(sum(estimates) / len(estimates))
    return GrowthReport(counts=counts, exponent=exponent, window=(lo, N))


# -- canonical text rendering -------------------------------------------------

def render_monomial(spec: AlgebraSpec, mono: Monomial) -> str:
    parts = []
    for g, e in enumerate(mono):
        if e == 1:
            parts.append(spec.gen_name(g))
        elif e > 0:
            parts.append(f"{spec.gen_name(g)}^{e}")
    return " ".join(parts) if parts else "1"


def render_element(spec: AlgebraSpec, f: PBWElement) -> str:
    if f.is_zero():
        return "0"
    parts = [
        f"{render_scalar(f.terms[m])}·{render_monomial(spec, m)}"
        for m in sorted(f.terms)
    ]
    return " + ".join(parts)
