"""Normal-form engine on the ordered-monomial basis.

Elements are finite maps from ordered monomials y1^a1 x1^b1 ... yn^an xn^bn
to nonzero scalars.  The scalars are integer Laurent polynomials in the
parameters (qweyl.scalars), and nothing here divides by a non-unit: the
skew power formulas write their coefficient (q^k - p^k)/(q - p) as the
geometric sum of q^j p^(k-1-j) over j < k.

A monomial is one Python int, packed like the exponent vectors of the
coefficient ring (M. Monagan and R. Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Generator
slot g (y_i at 2i-2, x_i at 2i-1) gets an unsigned 32-bit field, slot 0 the
most significant one, so with unit[g] = 2^(32*(2n-1-g)):

- the last occupied slot h of m is read from its lowest set bit,
  h = 2n - 1 - ((m & -m).bit_length() - 1) // 32, and m*g is an append
  exactly when m has no bit below unit[g];
- an append is m + unit[g], and stepping down slot h is m - unit[h];
- packed keys sort like the exponent tuples, so rendering keeps its order.

A field would carry into its neighbour past MAX_DEGREE = 2^32 - 1.  Every
rewrite rule keeps or lowers total degree, so no monomial met while
folding passes the total degree of the input.  normal_form and multiply
check that bound once per call (the word length, or f.degree() +
g.degree()) and raise OverflowError past MAX_DEGREE.

Tuples stay at the boundaries.  The PBWElement constructor packs exponent
tuples and refuses a vector of the wrong length or an exponent outside
0..MAX_DEGREE with ValueError; generator and unit make packed keys
directly; `.terms`, `degree`, render_element and the extension-step twist
unpack.  Both directions go through one struct.Struct per n.

A word is brought to normal form by a left fold: starting from the unit,
the running element is multiplied by one generator at a time and like
terms are merged after every step, so the work follows the size of the
answer rather than the number of rewrite paths.  The product m*g of an
ordered monomial and a generator is an append when g is not below h;
otherwise m = m'*h, and m*g is the sum of c*((m'*a)*b) over the rule
h*g -> sum c*a*b of the table in qweyl.presentation.  The fold reads that
table as (coefficient, a, b) entries with None for a unit coefficient,
built on the first memo of a spec and cached on the spec beside the rule
table.  These products are memoized by (packed monomial, generator) in a
dict that lives for one call of normal_form, multiply, growth_count or a
verifier, and unit coefficients are carried as None so that appends cost
no scalar product.  A caller that makes many products on one spec can
instead pass one _Products memo as `products` to normal_form, multiply,
the verifiers and skew_power_identity; the command-line `verify` shares one
memo across all of its relation, normality and extension-step checks, the
skew suite one across its power identities, and each drops its memo when
it returns.  The memo also holds the Casimir elements z_i and their
products z_a*z_b, and the verifiers take every z_i from it, so one `verify`
builds each z_i once and multiplies each ordered pair once.  Each memo
entry is fixed by its key, the spec and the rule table, so sharing changes
no result.

The recursion terminates.  Order words by length, then by their multiset
of generators (compared largest first), then by inversion count.
Pure swaps keep the multiset and remove one inversion, and the
inhomogeneous (x_i, y_i) rule adds terms in strictly lower generators only,
so every rule lowers a word, and the order is compatible with
concatenation.  The word of each recursive product m'*a is shorter than
that of m*g, and the word of each (r, b) with r a term of m'*a is at most
m'*a*b, which is below m*g = m'*h*g.  Words of one length are finitely many,
so every chain of products ends.

Confluence is not proved from critical pairs; it is validated by the
associativity fuzz in the test suite, by the comparison of the fold with a
word rewriter in the tests and by the growth counts matching the full
binomial dimension of the degree filtration.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from .presentation import AlgebraSpec, ambiskew_step, casimir, rule_table
from .reporting import Check
from .scalars import Scalar, render_scalar

Monomial = tuple[int, ...]
Word = tuple[int, ...]

# Largest exponent of a packed field, and so the largest total degree that
# normal_form and multiply accept.
MAX_DEGREE = 2**32 - 1

# Largest span binom(N + 2n, 2n) that growth_count will build; the largest
# admitted inputs take about 2 s on a 2-vCPU VM.
GROWTH_MAX_MONOMIALS = 10_000


class BudgetError(ValueError):
    """Raised when a computation would exceed the desk-scale budget."""


class _Layout:
    """Packed monomials of one n: 2n unsigned 32-bit fields, slot 0 first.

    unit[g] is the key of the generator in slot g, and after[g] = unit[g] - 1
    covers the slots after g.
    """

    __slots__ = ("n", "fields", "unit", "after")

    def __init__(self, n: int):
        size = 2 * n
        self.n = n
        self.fields = struct.Struct(f">{size}I")
        self.unit = tuple(1 << 32 * (size - 1 - g) for g in range(size))
        self.after = tuple(u - 1 for u in self.unit)

    def pack(self, mono: Monomial) -> int:
        try:
            return int.from_bytes(self.fields.pack(*mono), "big")
        except struct.error as exc:
            raise ValueError(
                f"exponent vector {mono!r} is not {2 * self.n} integers in 0..{MAX_DEGREE}"
            ) from exc

    def unpack(self, m: int) -> Monomial:
        return self.fields.unpack(m.to_bytes(self.fields.size, "big"))


@functools.cache
def _layout(n: int) -> _Layout:
    return _Layout(n)


def _check_degree(degree: int) -> None:
    """Refuse an input whose total degree would carry past a packed field."""
    if degree > MAX_DEGREE:
        raise OverflowError(f"total degree {degree} passes the field limit {MAX_DEGREE}")


class PBWElement:
    """Finite scalar combination of ordered monomials.

    `packed` maps packed monomials to nonzero scalars; `.terms` is the same
    map keyed by exponent tuples (a1, b1, ..., an, bn).
    """

    __slots__ = ("n", "packed")

    def __init__(self, n: int, terms: dict[Monomial, Scalar]):
        self.n = n
        pack = _layout(n).pack
        self.packed = {pack(m): c for m, c in terms.items() if not c.is_zero()}

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        unpack = _layout(self.n).unpack
        return {unpack(m): c for m, c in self.packed.items()}

    def is_zero(self) -> bool:
        return not self.packed

    def __add__(self, other: "PBWElement") -> "PBWElement":
        if other.n != self.n:
            raise ValueError(f"elements of n={self.n} and n={other.n} do not add")
        out = dict(self.packed)
        for m, c in other.packed.items():
            if m in out:
                total = out[m] + c
                if total.is_zero():
                    del out[m]
                else:
                    out[m] = total
            else:
                out[m] = c
        return _element(self.n, out)

    def __neg__(self) -> "PBWElement":
        return _element(self.n, {m: -c for m, c in self.packed.items()})

    def __sub__(self, other: "PBWElement") -> "PBWElement":
        return self + (-other)

    def scale(self, c: Scalar) -> "PBWElement":
        if c.is_zero():
            return _element(self.n, {})
        return _element(self.n, {m: c * v for m, v in self.packed.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.n == other.n and self.packed == other.packed

    __hash__ = None

    def degree(self) -> int:
        """Maximum total degree of a monomial (zero element: -1)."""
        unpack = _layout(self.n).unpack
        return max((sum(unpack(m)) for m in self.packed), default=-1)

    def __repr__(self) -> str:
        return f"PBWElement({len(self.packed)} terms, n={self.n})"


def _element(n: int, packed: dict[int, Scalar]) -> PBWElement:
    """A PBWElement from packed terms whose scalars are already nonzero."""
    f = object.__new__(PBWElement)
    f.n = n
    f.packed = packed
    return f


def unit(spec: AlgebraSpec) -> PBWElement:
    return _element(spec.n, {0: spec.lattice.one()})


def generator(spec: AlgebraSpec, name_or_slot) -> PBWElement:
    g = name_or_slot if isinstance(name_or_slot, int) else spec.gen_index(name_or_slot)
    return _element(spec.n, {_layout(spec.n).unit[g]: spec.lattice.one()})


def word_monomial(spec: AlgebraSpec, word: Word) -> Monomial:
    """Exponent tuple of an ordered word."""
    exps = [0] * (2 * spec.n)
    for g in word:
        exps[g] += 1
    return tuple(exps)


def parse_word(spec: AlgebraSpec, text: str) -> Word:
    """Whitespace-separated generator names, e.g. 'x2 y1 x1'."""
    return tuple(spec.gen_index(tok) for tok in text.split())


def normal_form(spec: AlgebraSpec, word, *,
                products: _Products | None = None) -> PBWElement:
    """Fold a word (tuple of slots, or a string) into the ordered basis.

    `products` is a memo to share with other calls on the same spec; by
    default the call makes its own.  Raises OverflowError for a word longer
    than MAX_DEGREE.
    """
    if isinstance(word, str):
        word = parse_word(spec, word)
    _check_degree(len(word))
    if products is None:
        products = _Products(spec)
    acc: _Terms = {0: None}
    for g in word:
        acc = products.fold(acc, g)
    return products.element(acc)


def multiply(spec: AlgebraSpec, f: PBWElement, g: PBWElement, *,
             products: _Products | None = None) -> PBWElement:
    """Bilinear extension of word concatenation + normal form.

    `products` is a memo to share with other calls on the same spec; by
    default the call makes its own.  Raises OverflowError when f.degree() +
    g.degree() passes MAX_DEGREE.
    """
    if f.n != spec.n or g.n != spec.n:
        raise ValueError(f"factors of n={f.n} and n={g.n} in a spec of n={spec.n}")
    _check_degree(f.degree() + g.degree())
    if products is None:
        products = _Products(spec)
    unpack = _layout(spec.n).unpack
    left = {m: _unit_or(c) for m, c in f.packed.items()}
    out: _Terms = {}
    for mono, coeff in g.packed.items():
        acc = left
        for gen, e in enumerate(unpack(mono)):
            for _ in range(e):
                acc = products.fold(acc, gen)
        coeff = _unit_or(coeff)
        for m, c in acc.items():
            products.add(out, m, _mul(c, coeff))
    return products.element(out)


# Coefficients inside the fold: None stands for the unit, so appends and unit
# factors never reach Scalar.__mul__.
_Coeff = Scalar | None
_Terms = dict[int, _Coeff]


def _unit_or(c: Scalar) -> _Coeff:
    """None when c is 1, else c."""
    return None if c.is_one() else c


def _mul(a: _Coeff, b: _Coeff) -> _Coeff:
    if a is None:
        return b
    if b is None:
        return a
    return a * b


def _packed_rules(spec: AlgebraSpec) -> list[list[tuple]]:
    """The rule table as rules[h][g] = ((coeff or None, a, b), ...) for the
    rewrite h*g -> sum coeff*a*b; built on first use, cached on the spec."""
    rules = spec._packed_rules
    if rules is None:
        size = 2 * spec.n
        rules = [[() for _ in range(size)] for _ in range(size)]
        for (h, g), rhs in rule_table(spec).items():
            rules[h][g] = tuple((_unit_or(c), a, b) for c, (a, b) in rhs)
        spec._packed_rules = rules
    return rules


class _Products:
    """Products m*g of packed ordered monomials by one generator, memoized.

    One instance serves one spec; it lives for one call unless the caller
    passes it on as `products`.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.n = spec.n
        self.top = 2 * spec.n - 1
        self.one = spec.lattice.one()
        layout = _layout(spec.n)
        self.unit = layout.unit
        self.after = layout.after
        self.rules = _packed_rules(spec)
        self.memo: dict[tuple[int, int], _Terms] = {}

    def add(self, out: _Terms, m: int, c: _Coeff) -> None:
        """out[m] += c, dropping the entry if it cancels."""
        if m not in out:
            out[m] = c
            return
        total = (self.one if out[m] is None else out[m]) + (self.one if c is None else c)
        if total.is_zero():
            del out[m]
        else:
            out[m] = total

    def fold(self, acc: _Terms, g: int) -> _Terms:
        """The element acc*g, merging like terms."""
        add = self.add
        unit, after = self.unit[g], self.after[g]
        out: _Terms = {}
        for m, c in acc.items():
            if not m & after:
                add(out, m + unit, c)
            else:
                for r, cr in self.times(m, g).items():
                    add(out, r, _mul(c, cr))
        return out

    def times(self, m: int, g: int) -> _Terms:
        """m*g: an append when g is not below the last occupied slot h of m,
        otherwise sum c*((m'*a)*b) over the rule h*g -> sum c*a*b, m = m'*h.

        The first term of every rule is c*g*h, so m'*g recurses down m one
        letter at a time.  That chain runs as a loop, down to an append or a
        memo hit and back up; only the other terms of the (x_i, y_i) rules
        recurse, so the call depth grows with n, not with the word length.
        """
        unit, after = self.unit, self.after
        if not m & after[g]:
            return {m + unit[g]: None}
        memo, add = self.memo, self.add
        chain = []
        while True:
            out = memo.get((m, g))
            if out is not None:
                break
            h = self.top - ((m & -m).bit_length() - 1) // 32
            chain.append((m, h))
            m -= unit[h]
            if not m & after[g]:
                out = {m + unit[g]: None}
                break
        for upper, h in reversed(chain):
            below, out = out, {}
            for c, a, b in self.rules[h][g]:
                for r, cr in (below if a == g else self.times(m, a)).items():
                    cr = _mul(c, cr)
                    if not r & after[b]:
                        add(out, r + unit[b], cr)
                    else:
                        for s, cs in self.times(r, b).items():
                            add(out, s, _mul(cr, cs))
            memo[(upper, g)] = out
            m = upper
        return out

    def element(self, terms: _Terms) -> PBWElement:
        one = self.one
        return _element(self.n, {m: one if c is None else c for m, c in terms.items()})

    @functools.cached_property
    def casimirs(self) -> dict[tuple[int, ...], PBWElement]:
        """z_i under (i,) and z_a*z_b under (a, b); made on first use, so a
        memo that never meets a Casimir element costs nothing for it."""
        return {}

    def casimir(self, i: int) -> PBWElement:
        """z_i, built once per memo."""
        z = self.casimirs.get((i,))
        if z is None:
            z = self.casimirs[(i,)] = casimir(self.spec, i)
        return z

    def casimir_product(self, a: int, b: int) -> PBWElement:
        """z_a * z_b, multiplied once per memo."""
        zz = self.casimirs.get((a, b))
        if zz is None:
            zz = multiply(self.spec, self.casimir(a), self.casimir(b), products=self)
            self.casimirs[(a, b)] = zz
        return zz


# -- identity verification ---------------------------------------------------

def verify_relations(spec: AlgebraSpec, *, products: _Products | None = None) -> list[Check]:
    """Check the defining relations and the antisymmetry of gamma.

    One entry per relation instance: xx/yy/xy for each index pair, the
    inhomogeneous x_i y_i relation for each i, and gamma_ij * gamma_ji = 1
    for each unordered pair.  `products` is the memo of every multiply and
    Casimir element; by default the call makes its own.
    """
    if products is None:
        products = _Products(spec)
    checks = []
    n = spec.n
    one = spec.lattice.one()
    x = lambda i: generator(spec, spec.x_index(i))
    y = lambda i: generator(spec, spec.y_index(i))
    mul = lambda f, g: multiply(spec, f, g, products=products)
    q, p, gamma = spec.q, spec.p, spec.gamma

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gij = gamma[i - 1][j - 1]
            gji = gamma[j - 1][i - 1]
            checks.append(
                Check(f"gamma({i},{j})", (gij * gji) == one, "gamma_ij*gamma_ji = 1")
            )
            lhs = mul(x(i), x(j))
            rhs = mul(x(j), x(i)).scale(q[i - 1] * p[j - 1].inverse() * gij)
            checks.append(Check(f"xx({i},{j})", (lhs - rhs).is_zero(), "x_i x_j relation"))
            lhs = mul(y(i), y(j))
            rhs = mul(y(j), y(i)).scale(gij)
            checks.append(Check(f"yy({i},{j})", (lhs - rhs).is_zero(), "y_i y_j relation"))
            lhs = mul(x(i), y(j))
            rhs = mul(y(j), x(i)).scale(p[j - 1] * gij.inverse())
            checks.append(Check(f"xy({i},{j})", (lhs - rhs).is_zero(), "x_i y_j, i < j"))
            lhs = mul(x(j), y(i))
            rhs = mul(y(i), x(j)).scale(q[i - 1] * gji.inverse())
            checks.append(Check(f"xy({j},{i})", (lhs - rhs).is_zero(), "x_i y_j, i > j"))
    for i in range(1, n + 1):
        lhs = mul(x(i), y(i)) - mul(y(i), x(i)).scale(q[i - 1])
        zprev = products.casimir(i - 1) if i > 1 else PBWElement(n, {})
        checks.append(
            Check(f"weyl({i})", (lhs - zprev).is_zero(), "x_i y_i - q_i y_i x_i = z_{i-1}")
        )
    return checks


def verify_normality(spec: AlgebraSpec, i: int, *,
                     products: _Products | None = None) -> list[Check]:
    """Check the commutation laws of z_i and the simpler Casimir formula.

    `products` is the memo of every multiply, Casimir element and Casimir
    product; by default the call makes its own.  Shared, it lets the n calls
    of one `verify` build each z_j once and multiply each ordered pair once.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"index {i} out of range 1..{spec.n}")
    if products is None:
        products = _Products(spec)
    checks = []
    n = spec.n
    q, p = spec.q, spec.p
    mul = lambda f, g: multiply(spec, f, g, products=products)
    z = products.casimir(i)
    for j in range(1, n + 1):
        yj = generator(spec, spec.y_index(j))
        lam = p[j - 1] if i < j else q[j - 1]
        ok = (mul(z, yj) - mul(yj, z).scale(lam)).is_zero()
        checks.append(Check(f"z{i}*y{j}", ok, "z_i y_j = (p_j or q_j) y_j z_i"))
        xj = generator(spec, spec.x_index(j))
        lam = p[j - 1].inverse() if i < j else q[j - 1].inverse()
        ok = (mul(z, xj) - mul(xj, z).scale(lam)).is_zero()
        checks.append(Check(f"z{i}*x{j}", ok, "z_i x_j = (p_j or q_j)^-1 x_j z_i"))
        ok = (products.casimir_product(i, j) - products.casimir_product(j, i)).is_zero()
        checks.append(Check(f"z{i}*z{j}", ok, "Casimir elements commute"))
    xi = generator(spec, spec.x_index(i))
    yi = generator(spec, spec.y_index(i))
    lhs = mul(xi, yi) - mul(yi, xi).scale(p[i - 1])
    checks.append(Check(f"casimir-p({i})", (lhs - z).is_zero(), "x_i y_i - p_i y_i x_i = z_i"))
    return checks


def verify_ambiskew(spec: AlgebraSpec, m: int, *,
                    products: _Products | None = None) -> list[Check]:
    """Engine checks of the extension-step data at step m.

    u = z_m / c with c = p_{m+1} - q_{m+1} is not in the coefficient ring, so
    each identity in u is checked multiplied through by c.  The ring is a
    domain and c != 0, so each check is as strong as the identity its detail
    states.  `products` is the memo of every multiply and Casimir element;
    by default the call makes its own.
    """
    if products is None:
        products = _Products(spec)
    step = ambiskew_step(spec, m)
    mul = lambda f, g: multiply(spec, f, g, products=products)
    q, p, gamma = spec.q, spec.p, spec.gamma
    z = products.casimir(m)
    checks = []
    # the twist alpha scales u by p_{m+1}
    az = _apply_diagonal(spec, step.alpha, z)
    checks.append(
        Check(f"ambiskew-alpha-u({m})", (az - z.scale(p[m])).is_zero(),
              "alpha(u) = p_{m+1} u")
    )
    # u - rho*alpha(u) is -q_{m+1}^{-1} z_m, and matches the engine commutator
    delta = z - az.scale(step.rho)
    ok = (delta - z.scale(-q[m].inverse() * step.c)).is_zero()
    y_new = generator(spec, spec.y_index(m + 1))
    x_new = generator(spec, spec.x_index(m + 1))
    comm = mul(y_new, x_new) - mul(x_new, y_new).scale(step.rho)
    ok = ok and (comm.scale(step.c) - delta).is_zero()
    checks.append(Check(f"ambiskew-delta({m})", ok, "u - rho*alpha(u) = -q_{m+1}^{-1} z_m"))
    # the next Casimir element; q_{m+1} - p_{m+1} = -c
    lhs = z - mul(y_new, x_new).scale(step.c)
    checks.append(
        Check(f"ambiskew-casimir({m})", (lhs - products.casimir(m + 1)).is_zero(),
              "z_{m+1} = (q_{m+1} - p_{m+1})(y_{m+1} x_{m+1} - u)")
    )
    # beta = (conjugation by u) * alpha^{-1} matches the closed multipliers
    ok = all(
        step.beta_on_x(i) == p[m].inverse() * gamma[i - 1][m]
        and step.beta_on_y(i) == gamma[m][i - 1]
        for i in range(1, m + 1)
    )
    checks.append(Check(f"ambiskew-beta({m})", ok, "beta multipliers match gamma*alpha^-1"))
    return checks


def _apply_diagonal(spec: AlgebraSpec, multipliers, f: PBWElement) -> PBWElement:
    unpack = _layout(spec.n).unpack
    out = {}
    for m, coeff in f.packed.items():
        c = coeff
        for g, e in enumerate(unpack(m)):
            if e:
                c = c * multipliers[g] ** e
        out[m] = c
    return _element(spec.n, out)


SKEW_FORMS = ("k1_base", "xk_y", "x_yk")


def skew_power_identity(spec: AlgebraSpec, i: int, k: int, form: str, *,
                        products: _Products | None = None) -> Check:
    """Compare the engine power products against the closed formulas.

    `products` is the memo of every normal form, multiply and Casimir
    element; by default the call makes its own.
    """
    if form not in SKEW_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {SKEW_FORMS}")
    if k < 1 or not 1 <= i <= spec.n:
        raise ValueError(f"invalid (i, k) = ({i}, {k})")
    if form == "k1_base" and i != 1:
        raise ValueError("form 'k1_base' applies to i = 1 only")
    if form in ("xk_y", "x_yk") and i < 2:
        raise ValueError(f"form {form!r} requires i >= 2")

    if products is None:
        products = _Products(spec)
    n = spec.n
    qi = spec.q[i - 1]
    xi, yi = spec.x_index(i), spec.y_index(i)
    nf = lambda word: normal_form(spec, word, products=products)

    def mono(**powers):
        exps = [0] * (2 * n)
        for slot, e in powers.items():
            exps[int(slot)] = e
        return PBWElement(n, {tuple(exps): spec.lattice.one()})

    if form == "k1_base":
        lhs1 = nf((xi,) + (yi,) * k)
        rhs1 = mono(**{str(yi): k, str(xi): 1}).scale(qi**k)
        lhs2 = nf((xi,) * k + (yi,))
        rhs2 = mono(**{str(yi): 1, str(xi): k}).scale(qi**k)
        ok = (lhs1 - rhs1).is_zero() and (lhs2 - rhs2).is_zero()
        return Check(f"skew-base(k={k})", ok, "x1 y1^k and x1^k y1 pure q-powers")

    pi = spec.p[i - 1]
    # (q^k - p^k)/(q - p) as the geometric sum, which stays in the ring
    coeff = sum((qi**j * pi ** (k - 1 - j) for j in range(k)), spec.lattice.zero())
    zprev = products.casimir(i - 1)
    if form == "xk_y":
        lhs = nf((xi,) * k + (yi,))
        rhs = mono(**{str(yi): 1, str(xi): k}).scale(qi**k)
        rhs = rhs + multiply(spec, zprev, mono(**{str(xi): k - 1}),
                             products=products).scale(coeff)
        name = f"skew-xk_y(i={i},k={k})"
    else:
        lhs = nf((xi,) + (yi,) * k)
        rhs = mono(**{str(yi): k, str(xi): 1}).scale(qi**k)
        rhs = rhs + multiply(spec, mono(**{str(yi): k - 1}), zprev,
                             products=products).scale(coeff)
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
    supports of all normal forms gives the span dimension exactly.  They are
    collected by frontier: F_m = F_{m-1} + supp(D_{m-1} * V) with D_{m-1} =
    F_{m-1} - F_{m-2} and V the generators, because the rest of F_{m-1} was
    multiplied by V one step earlier.  Raises BudgetError when the span
    binom(N + 2n, 2n) exceeds GROWTH_MAX_MONOMIALS.

    The fitted exponent is the discrete log-derivative
    m*(c_m - c_{m-1})/c_{m-1} averaged over the top window, which recovers
    the polynomial degree of binomial-type counts exactly.
    """
    if N < 1:
        raise ValueError("N must be positive")
    size = 2 * spec.n
    span = math.comb(N + size, size)
    if span > GROWTH_MAX_MONOMIALS:
        raise BudgetError(
            f"growth to N={N} at n={spec.n} spans {span} monomials, "
            f"over the limit of {GROWTH_MAX_MONOMIALS}"
        )
    products = _Products(spec)
    frontier = [0]
    supports = set(frontier)
    counts = [1]
    for _ in range(N):
        fresh = []
        for m in frontier:
            for g in range(size):
                for r in products.times(m, g):
                    if r not in supports:
                        supports.add(r)
                        fresh.append(r)
        counts.append(len(supports))
        frontier = fresh
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
    unpack = _layout(f.n).unpack
    parts = [
        f"{render_scalar(f.packed[m])}·{render_monomial(spec, unpack(m))}"
        for m in sorted(f.packed)
    ]
    return " + ".join(parts)
