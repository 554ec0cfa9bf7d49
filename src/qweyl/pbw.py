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
- the product of two monomials is mf + mg when mg starts at or after the
  last occupied slot of mf;
- packed keys sort like the exponent tuples, so rendering keeps its order.

A field would carry into its neighbour past MAX_DEGREE = 2^32 - 1.  Every
rewrite rule keeps or lowers total degree, so no monomial met while
folding passes the total degree of the input.  normal_form checks that
bound once per call (the word length), and the pair memo, and so multiply,
on each miss (the degrees of the two monomials add up); both raise
OverflowError past MAX_DEGREE.  A total degree is one product of the packed
key by sum(unit) while every field stays below 2^16 (_Layout.degree).

Tuples stay at the boundaries.  The PBWElement constructor packs exponent
tuples and refuses a vector of the wrong length or an exponent outside
0..MAX_DEGREE with ValueError; generator makes packed keys directly;
`.terms`, render_element and the extension-step twist unpack.
Both directions go through one struct.Struct per n.  Words arrive as
generator names: parse_word and generator read each one with a single
lookup in a table of the canonical names, {"y1": 0, "x1": 1, ...}, built
on the first name read and cached on the spec (_slots), so the spec paths
that read no word never build it.  A name the table lacks goes through
AlgebraSpec.gen_index, which reads a non-canonical one such as x01 and
refuses the others with its ConfigError.

A word is brought to normal form by a left fold: starting from the unit,
the running element is multiplied by one generator at a time and like
terms are merged after every step, so the work follows the size of the
answer rather than the number of rewrite paths.  The product m*g of an
ordered monomial and a generator is an append when g is not below h;
otherwise m = m'*h^e ends in the block h^e, and m*g is the sum of
c*((m'*a)*b)*h^(e-1) over the block rule h^e*g -> sum c*a*b*h^(e-1).  For
e = 1 that is the rule h*g -> sum c*a*b; for e >= 2 a swap h*g -> c*g*h
gives c^e*g*h^e, and x_i*y_i gives the ambiskew power formula x_i^e y_i =
q_i^e y_i x_i^e + [e] z_{i-1} x_i^(e-1) (D. A. Jordan, "Down-up algebras
and ambiskew polynomial rings", J. Algebra 228, 2000), its geometric sums
read from the table (_Products.block).  So a generator passes a power in
one step, and nf x_i^a y_i costs time linear in a.  The fold reads the
rules as (coefficient, a, b) entries, built from spec.exponents on the
first memo of a spec and cached on it; a unit coefficient is None, so that
appends cost no scalar product.  A _Products memo keeps every product of
two monomials in one dict keyed by the pair of packed monomials, m*g under
(m, unit[g]), besides the block rules it has met, the Casimir elements z_i
as terms and the prefix sums of the normality laws (below), also as terms;
it holds no verdicts.

Each spec has one memo, built on first use and cached on the spec
(_memo): normal_form, multiply, the verifiers and skew_power_identity all
read it, so a session folds each monomial product once, and a `report`
shares it across its relation, normality, extension-step and skew checks.
It dies with the spec.  The identity checks of a spec are finitely many
(k <= SKEW_MAX_K), but the inputs of normal_form and multiply are not, so
after one of their calls a memo past MEMO_MAX_PAIRS entries is dropped and
the next call starts a fresh one.  Each memo entry is fixed by its key,
the spec and the rules, so sharing or dropping a memo changes no result.
An entry is stored only once it is complete (a pair after its fold, a
block rule after it is built, a law prefix after its sum), and no memo
dict reaches a caller (fold, combine and element build new dicts), so a
call that raises leaves the memo as good as fresh, and threads that share
a spec need no lock: two that miss the same key store equal entries, and
of two memos built at once one is dropped, which costs only its folds.

Every product of elements goes through one kernel, _Products.combine: it
sums signed terms c*f*g, reading each monomial product from the pair memo,
into one dict, with no intermediate element.  multiply is one such sum.
Every identity in the algebra that the verifiers and skew_power_identity
check is one such sum minus h, decided by _Products.vanishes.  Its other
side (the lam*g*f of a skew relation, a subtracted term of an extension
step, h) is subtracted term by term (_Products.sub), so no coefficient is
negated: an entry whose packed terms equal the subtracted ones is dropped,
a cancellation that builds no scalar, and any other difference is one
Scalar.__sub__.  The terms are summed in the order that the identity
states them, so the products formed, and the first to pass the exponent
field, are those of the sum with negated coefficients.  The checks of one
spec fold each monomial pair once, and the memo builds each z_i once, as
z_{i-1} and one more term (q_i - p_i) y_i x_i.  A normality
law z_i*v - lam*v*z_i is a running sum over the terms c_l*y_l x_l of z_i,
and the memo keeps each prefix, so the law of z_i extends that of z_{i-1}
by one term group: all laws of a spec sum 3n^2 - n groups, not n^2(n+1)
(_Products.law).  The commutators [z_a, z_b] are no sum at all:
verify_normality reads them off the normality verdicts.  The relation
checks take their products of two generators from the rule table:
verify_relations first stores in the memo each one that is an append or a
one-term swap, the entry pair would fold, so their sums read memo hits;
only x_i*y_i, whose rule holds z_{i-1}, is folded through pair.

The recursion terminates.  Order words by length, then by their multiset
of generators (compared largest first), then by inversion count.
Pure swaps keep the multiset and remove one inversion, and the
inhomogeneous (x_i, y_i) rule adds terms in strictly lower generators only,
so every rule lowers a word, and the order is compatible with
concatenation.  A block rule is a composite of e rule applications, each
lowering the word, so it lowers it too.  The word of each recursive
product m'*a is shorter than that of m*g, and the word of each (r, b) with
r a term of m'*a is at most m'*a*b, which is below m*g = m'*h^e*g, as
m'*a*b*h^(e-1) is.  Words of one length are finitely many, so every chain
of products ends.

The checks specialize.  The generic kind at size n has one free symbol
per q_i, p_i and gamma_ij (i < j), with gamma_ji = gamma_ij^-1, and a spec
S of size n is its image under the ring map Phi that sends each of them to
S's monomial.  S's rule table is Phi of the generic table, entry by entry:
a swap coefficient is the monomial of _swap_exponents, linear in the
exponent vectors, and the x_i*y_i rule reads q_i and q_l - p_l, with no
branch on the kind (the tests check this premise on every preset and on
seeded custom specs).  Every check of verify asks whether a sum vanishes,
and the engine forms each sum by ring operations that branch on no
coefficient value, except to drop a zero entry (a unit one is only
written None), so Phi commutes with the sum: a check that passes on the
generic kind at n passes on S.  Outside the lemma are ExponentOverflowError,
which depends on the size of S's exponents, and the dimension, whose
pivots are non-vanishing conditions, not identities.

Confluence is not proved from critical pairs; it is validated by the
associativity fuzz in the test suite and by the comparison of the fold with
a word rewriter in the tests.  The block step is backed the same way: its
rule is the sum, over the e single steps of the letter-by-letter chain, of
the rule applications they make, with every coefficient taken from the
table, and the tests compare it with the rewriter on long blocks of every
preset, of seeded custom specs and of two corrupted tables.
skew_power_identity compares it with the closed formula in q_i and p_i.
growth_count does not fold: its counts are binomials for any rules of this
shape, confluent or not, so they validate nothing about the rules.
"""

from __future__ import annotations

import functools
import math
import struct
import weakref
from dataclasses import dataclass

from .presentation import AlgebraSpec, _swap_exponents, ambiskew_step
from .reporting import check
from .scalars import Scalar, power_sum, render_scalar

Monomial = tuple[int, ...]
Word = tuple[int, ...]

# Largest exponent of a packed field, and so the largest total degree that
# normal_form and multiply accept.
MAX_DEGREE = 2**32 - 1

# Largest N that growth_count will answer, which bounds the length of its
# list of counts.
GROWTH_MAX_N = 1_000

# Largest number of monomial products that the memo of a spec keeps past a
# call of normal_form or multiply; a memo that has grown beyond it is dropped,
# so memory cannot pile up across calls in a long-lived process.  A `words`
# session of the benchmark peaks at about 1,100 per spec.
MEMO_MAX_PAIRS = 4_096

# Largest power k that skew_power_identity will check; both forms at
# i = n = 12, k = 128 take about 0.15 s on a 2-vCPU VM (Python 3.11).
SKEW_MAX_K = 128


class BudgetError(ValueError):
    """Raised when a computation would exceed the desk-scale budget."""


# Below this many slots a total degree is one product (_Layout.degree).
_FAST_DEGREE_SLOTS = 2**16


class _Layout:
    """Packed monomials of one n: 2n unsigned 32-bit fields, slot 0 first.

    unit[g] is the key of the generator in slot g, and after[g] = unit[g] - 1
    covers the slots after g.  Each field of m*ones, ones = sum(unit), sums
    at most 2n fields of m, so none carries when every field of m is below
    2^16 and 2n < 2^16 (no bit of `high` set); field 2n-1 is then the degree.
    """

    __slots__ = ("n", "fields", "unit", "after", "ones", "high", "shift")

    def __init__(self, n: int):
        size = 2 * n
        self.n = n
        self.fields = struct.Struct(f">{size}I")
        self.unit = tuple(1 << 32 * (size - 1 - g) for g in range(size))
        self.after = tuple(u - 1 for u in self.unit)
        self.ones = sum(self.unit)
        self.shift = 32 * (size - 1)
        fast = size < _FAST_DEGREE_SLOTS
        self.high = self.ones * 0xFFFF0000 if fast else (1 << 32 * size) - 1

    def pack(self, mono: Monomial) -> int:
        try:
            return int.from_bytes(self.fields.pack(*mono), "big")
        except struct.error as exc:
            raise ValueError(
                f"exponent vector {mono!r} is not {2 * self.n} integers in 0..{MAX_DEGREE}"
            ) from exc

    def unpack(self, m: int) -> Monomial:
        return self.fields.unpack(m.to_bytes(self.fields.size, "big"))

    def degree(self, m: int) -> int:
        """The total degree of m: one product, or the sum of the unpacked
        fields when a field reaches 2^16."""
        if m & self.high:
            return sum(self.unpack(m))
        return m * self.ones >> self.shift & 0xFFFFFFFF


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
        degree = _layout(self.n).degree
        return max(map(degree, self.packed), default=-1)

    def __repr__(self) -> str:
        return f"PBWElement({len(self.packed)} terms, n={self.n})"


def _element(n: int, packed: dict[int, Scalar]) -> PBWElement:
    """A PBWElement from packed terms whose scalars are already nonzero."""
    f = object.__new__(PBWElement)
    f.n = n
    f.packed = packed
    return f


def _check_slots(spec: AlgebraSpec, word) -> None:
    """Refuse a slot outside 0..2n-1 (a negative one would index from the end)."""
    if word and (min(word) < 0 or max(word) >= 2 * spec.n):
        bad = next(g for g in word if not 0 <= g < 2 * spec.n)
        raise ValueError(f"generator slot {bad} outside 0..{2 * spec.n - 1}")


def _slots(spec: AlgebraSpec) -> dict[str, int]:
    """{"y1": 0, "x1": 1, ...}: the slot of each canonical generator name;
    built on the first name read and cached on the spec."""
    slots = spec._slots
    if slots is None:
        slots = spec._slots = {spec.gen_name(g): g for g in range(2 * spec.n)}
    return slots


def _slot(spec: AlgebraSpec, name: str) -> int:
    """The slot of a generator name: one lookup in the name table, or
    spec.gen_index for a name the table lacks, which reads a non-canonical
    name such as 'x01' and raises ConfigError for the others."""
    slot = _slots(spec).get(name)
    return spec.gen_index(name) if slot is None else slot


def generator(spec: AlgebraSpec, name_or_slot) -> PBWElement:
    """The generator given by name ('x1') or by slot (0..2n-1)."""
    g = name_or_slot
    if not isinstance(g, int):
        g = _slot(spec, g)
    elif not 0 <= g < 2 * spec.n:
        _check_slots(spec, (g,))
    return _element(spec.n, {_layout(spec.n).unit[g]: spec.lattice.one()})


def word_monomial(spec: AlgebraSpec, word: Word) -> Monomial:
    """Exponent tuple of an ordered word."""
    exps = [0] * (2 * spec.n)
    for g in word:
        exps[g] += 1
    return tuple(exps)


def parse_word(spec: AlgebraSpec, text: str) -> Word:
    """Whitespace-separated generator names, e.g. 'x2 y1 x1', read as by
    generator: one lookup per canonical name."""
    names = text.split()
    try:
        return tuple(map(_slots(spec).__getitem__, names))
    except KeyError:  # a non-canonical or bad name: the first bad one raises
        return tuple([_slot(spec, name) for name in names])


def normal_form(spec: AlgebraSpec, word) -> PBWElement:
    """Fold a word (tuple of slots, or a string) into the ordered basis.

    Raises ValueError for a slot outside 0..2n-1 and OverflowError for a
    word longer than MAX_DEGREE.
    """
    if isinstance(word, str):
        word = parse_word(spec, word)
    else:
        _check_slots(spec, word)
    _check_degree(len(word))
    products = _memo(spec)
    try:
        acc: _Terms = {0: None}
        for g in word:
            acc = products.fold(acc, g)
        return products.element(acc)
    finally:
        _bound(spec, products)


def multiply(spec: AlgebraSpec, f: PBWElement, g: PBWElement) -> PBWElement:
    """Bilinear extension of word concatenation + normal form.

    One sum of the kernel: each product of a monomial of f by one of g is
    read from the memo of the spec.  Raises OverflowError when the degrees
    of such a pair add up past MAX_DEGREE, which happens exactly when
    f.degree() + g.degree() does.
    """
    if f.n != spec.n or g.n != spec.n:
        raise ValueError(f"factors of n={f.n} and n={g.n} in a spec of n={spec.n}")
    products = _memo(spec)
    try:
        return products.element(products.combine([(None, _terms(f), _terms(g), False)]))
    finally:
        _bound(spec, products)


# Coefficients inside the fold: None stands for the unit, so appends and unit
# factors never reach Scalar.__mul__.
_Coeff = Scalar | None
_Terms = dict[int, _Coeff]
_ONE: _Terms = {0: None}  # the unit, the right factor of a term that is no product


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
    """rules[h][g] = ((coeff or None, a, b), ...) for the rewrite h*g ->
    sum coeff*a*b of each pair of slots h > g, () elsewhere; cached on the
    spec.  A swap coefficient is the monomial of _swap_exponents, packed
    once; x_i*y_i -> q_i*y_i*x_i + sum_{l<i} (q_l - p_l)*y_l*x_l."""
    rules = spec._packed_rules
    if rules is None:
        n = spec.n
        q, p, gamma = spec.exponents
        qs, ps = spec.q, spec.p
        pack = spec.lattice.sparse_monomial
        z = [(qs[l] - ps[l], 2 * l, 2 * l + 1) for l in range(n)]
        rules = [[()] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            y, x = 2 * i, 2 * i + 1
            rules[x][y] = ((qs[i] if q[i] else None, y, x), *z[:i])
            for j in range(i):
                for vi, vj in (("y", "y"), ("y", "x"), ("x", "y"), ("x", "x")):
                    lam = _swap_exponents(q, p, gamma, i, j, vi, vj)
                    h, g = 2 * i + (vi == "x"), 2 * j + (vj == "x")
                    rules[h][g] = ((pack(lam) if lam else None, g, h),)
        spec._packed_rules = rules
    return rules


class _Products:
    """Products of packed ordered monomials, memoized in one dict `pairs`;
    the rules of the power blocks met are kept in `blocks`, the Casimir
    elements in `casimirs` and the prefix sums of the normality laws in
    `laws`.

    One instance serves one spec, cached on it by _memo(spec) for every
    entry point of the engine.  It holds the spec by a weak reference, so
    it forms no cycle with the spec and is freed with it.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = weakref.ref(spec)
        self.n = spec.n
        self.top = 2 * spec.n - 1
        self.one = spec.lattice.one()
        self.zero = spec.lattice.zero()
        self.layout = layout = _layout(spec.n)
        self.unit = layout.unit
        self.after = layout.after
        self.rules = _packed_rules(spec)
        self.pairs: dict[tuple[int, int], _Terms] = {}
        self.blocks: dict[tuple[int, int, int], tuple] = {}
        self.casimirs: dict[int, _Terms] = {0: {}}
        self.laws: dict[tuple[int, int], _Terms] = {}

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

    def sub(self, out: _Terms, m: int, c: _Coeff) -> None:
        """out[m] -= c, an absent entry read as zero.  The entry is dropped
        when its packed terms equal those of c, a cancellation that builds
        no scalar; otherwise it is set to the difference (Scalar.__sub__,
        which negates no operand)."""
        one = self.one
        c = one if c is None else c
        if m not in out:
            out[m] = self.zero - c
            return
        cur = out[m]
        cur = one if cur is None else cur
        if cur.packed == c.packed:
            del out[m]
        else:
            out[m] = cur - c

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
        otherwise sum c*((m'*a)*b)*h^(e-1) over the rule h^e*g -> sum
        c*a*b*h^(e-1) of the block h^e that ends m, m = m'*h^e.

        The first term of every rule is c*g*h, so m'*g recurses down m one
        block at a time.  That chain runs as a loop, down to an append or a
        memo hit and back up; only the other terms of the (x_i, y_i) rules
        recurse, so the call depth grows with n, not with the word length,
        and the number of steps with the number of blocks of m, not with
        its degree.  Every term of m'*a*b has its slots below h, so h^(e-1)
        is appended.
        """
        unit, after = self.unit, self.after
        ug = unit[g]
        if not m & after[g]:
            return {m + ug: None}
        memo, add = self.pairs, self.add
        chain = []
        while True:
            out = memo.get((m, ug))
            if out is not None:
                break
            # the lowest occupied field holds the exponent e of the last block
            shift = ((m & -m).bit_length() - 1) & ~31
            e = m >> shift & 0xFFFFFFFF
            chain.append((m, self.top - (shift >> 5), e))
            m -= e << shift
            if not m & after[g]:
                out = {m + ug: None}
                break
        for upper, h, e in reversed(chain):
            below, out = out, {}
            tail = (e - 1) * unit[h]
            for c, a, b in self.rules[h][g] if e == 1 else self.block(h, g, e):
                append = unit[b] + tail
                for r, cr in (below if a == g else self.times(m, a)).items():
                    cr = _mul(c, cr)
                    if not r & after[b]:
                        add(out, r + append, cr)
                    else:
                        for s, cs in self.times(r, b).items():
                            add(out, s + tail, _mul(cr, cs))
            memo[(upper, ug)] = out
            m = upper
        return out

    def block(self, h: int, g: int, e: int) -> tuple:
        """The rule of h^e*g for e >= 2, entries (c, a, b) read as
        c*a*b*h^(e-1), from rules[h][g]; cached per memo under (h, g, e).

        The first entry (c_0, g, h) becomes (c_0^e, g, h), and each other
        entry (c_l, y_l, x_l) becomes (c_l*[e]_l, y_l, x_l) with [e]_l =
        sum_{j<e} c_0^j s_l^(e-1-j), where s_l is the product of the swap
        coefficients rules[h][y_l] and rules[h][x_l]: h^(e-1) passes y_l x_l
        as the scalar s_l^(e-1).  That is the sum of the rule applications
        of e single steps, so the block follows the table even where the
        table is not the algebra's.
        """
        key = (h, g, e)
        block = self.blocks.get(key)
        if block is None:
            one, rules = self.one, self.rules[h]
            (c0, a0, b0), *rest = rules[g]
            c0 = one if c0 is None else c0
            block = [(_unit_or(c0**e), a0, b0)]
            for c, a, b in rest:
                s = _mul(rules[a][0][0], rules[b][0][0])
                block.append((_mul(c, power_sum(c0, one if s is None else s, e)), a, b))
            block = self.blocks[key] = tuple(block)
        return block

    def element(self, terms: _Terms) -> PBWElement:
        one = self.one
        return _element(self.n, {m: one if c is None else c for m, c in terms.items()})

    def pair(self, mf: int, mg: int) -> _Terms:
        """mf*mg for mg not the unit, once per memo: an append when mg starts
        at or after the last occupied slot of mf, otherwise mf*g for the
        first letter g of mg, folded through the remaining letters.  For a
        one-letter mg that is the dict times(mf, g) stored under this key."""
        out = self.pairs.get((mf, mg))
        if out is None:
            layout = self.layout
            first = self.top - (mg.bit_length() - 1) // 32
            single = mg == self.unit[first]
            _check_degree(layout.degree(mf) + (1 if single else layout.degree(mg)))
            # mf has no bit after the first occupied slot of mg
            if not mf & self.after[first]:
                out = {mf + mg: None}
            else:
                out = self.times(mf, first)
                if not single:
                    for g, e in enumerate(layout.unpack(mg)):
                        for _ in range(e - (g == first)):
                            out = self.fold(out, g)
            self.pairs[(mf, mg)] = out
        return out

    def store_generator_pairs(self) -> None:
        """Store v*w for every two generator slots v != w but the pairs
        x_i*y_i, read from the rule table: v*w is the append v w for v < w
        and the swap c*w*v of the one-term rule rules[v][w] = ((c, w, v),)
        for v > w of different indices, the entry that pair would fold.
        These are the products the relation checks read besides x_i*y_i,
        whose rule holds z_{i-1} and which pair folds."""
        unit, rules, pairs = self.unit, self.rules, self.pairs
        size = 2 * self.n
        for v in range(size):
            uv = unit[v]
            for w in range(size):
                if w > v:
                    pairs[(uv, unit[w])] = {uv + unit[w]: None}
                elif w // 2 < v // 2:
                    (c, _, _), = rules[v][w]
                    pairs[(uv, unit[w])] = {uv + unit[w]: c}

    def combine(self, terms) -> _Terms:
        """The signed sum of the c*f*g over terms (c, f, g, minus), as terms.

        c is a scalar or None for 1, and a term with minus set is
        subtracted (sub), so no coefficient is negated to subtract it.  The
        terms are summed in their order, into one dict: a monomial product
        is read from the pair memo, or put in directly when its right
        factor is the unit.
        """
        pair, add, sub = self.pair, self.add, self.sub
        out: _Terms = {}
        for c, f, g, minus in terms:
            put = sub if minus else add
            for mf, cf in f.items():
                cf = _mul(c, cf)
                for mg, cg in g.items():
                    cfg = _mul(cf, cg)
                    if not mg:
                        put(out, mf, cfg)
                        continue
                    for r, cr in pair(mf, mg).items():
                        put(out, r, _mul(cfg, cr))
        return out

    def vanishes(self, terms, h: _Terms | None = None) -> bool:
        """Whether combine(terms) - h is zero; each term of h is subtracted
        by sub, so a term that cancels builds no scalar."""
        out, sub = self.combine(terms), self.sub
        if h:
            for m, c in h.items():
                sub(out, m, c)
        return not out

    def casimir(self, i: int) -> _Terms:
        """z_i as terms, built once per memo: z_0 is empty, and z_i is
        z_{i-1} and one more term (q_i - p_i) y_i x_i, read from spec.q and
        spec.p (never from the rules, which the weyl checks test against
        it).  q_i - p_i of two unit monomials is zero or two terms, never 1."""
        casimirs = self.casimirs
        z = casimirs.get(i)
        if z is None:
            start = i
            while start - 1 not in casimirs:
                start -= 1
            spec, unit = self.spec(), self.unit
            for k in range(start, i + 1):
                z = dict(casimirs[k - 1])
                c = spec.q[k - 1] - spec.p[k - 1]
                if not c.is_zero():
                    z[unit[2 * k - 2] + unit[2 * k - 1]] = c
                casimirs[k] = z
        return z

    def law(self, g: int, i: int, lam: Scalar) -> _Terms:
        """z_i*v - lam*v*z_i for the generator v in slot g, as terms.

        With v of index j, it is the prefix sum over l <= i of the term groups
        c_l*(y_l x_l*v - lam*v*y_l x_l), c_l the term of z_l, kept under
        (g, i).  lam is p_j or its inverse for i < j and q_j or its inverse
        for i >= j, so the key fixes lam, and the prefixes of one lam start
        at i = 1 and at i = j.  A starting prefix sums z_i in one piece, as a
        plain sum does, so the first product to pass the exponent field is
        the same; each later one is the largest kept prefix below it plus
        one group per step.
        """
        j, laws, k = g // 2 + 1, self.laws, i
        start = j if i >= j else 1
        while (out := laws.get((g, k))) is None and k > start:
            k -= 1
        v = {self.unit[g]: None}
        if out is None:
            out = laws[(g, k)] = self.combine(_skew(self.casimir(k), v, lam))
        while k < i:
            k += 1
            mz = self.unit[2 * k - 2] + self.unit[2 * k - 1]
            zk = {mz: self.casimir(k)[mz]}
            out = laws[(g, k)] = self.combine(((None, out, _ONE, False),) + _skew(zk, v, lam))
        return out


def _terms(f: PBWElement) -> _Terms:
    return {m: _unit_or(c) for m, c in f.packed.items()}


def _skew(f: _Terms, g: _Terms, lam: Scalar) -> tuple:
    """The signed terms of f*g - lam*g*f: lam*g*f is subtracted."""
    return (None, f, g, False), (lam, g, f, True)


def _memo(spec: AlgebraSpec) -> _Products:
    """The product memo of spec; built on first use, cached on the spec."""
    products = spec._products
    if products is None:
        products = spec._products = _Products(spec)
    return products


def _bound(spec: AlgebraSpec, products: _Products) -> None:
    """Drop the memo of spec once it holds more than MEMO_MAX_PAIRS products."""
    if len(products.pairs) > MEMO_MAX_PAIRS:
        spec._products = None


# -- identity verification ---------------------------------------------------

def verify_relations(spec: AlgebraSpec) -> list[dict]:
    """Check the defining relations and the antisymmetry of gamma.

    One entry per relation instance: xx/yy/xy for each index pair, the
    inhomogeneous x_i y_i relation for each i, and gamma_ij * gamma_ji = 1
    for each unordered pair.  Products and Casimir elements come from the
    memo cached on the spec; the products of two generators but x_i*y_i
    are stored in it from the rule table first (store_generator_pairs).
    """
    products = _memo(spec)
    products.store_generator_pairs()
    checks = []
    n = spec.n
    one = spec.lattice.one()
    x = lambda i: {products.unit[spec.x_index(i)]: None}
    y = lambda i: {products.unit[spec.y_index(i)]: None}
    zero = products.vanishes
    q, p, gamma = spec.q, spec.p, spec.gamma

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gij = gamma[i - 1][j - 1]
            gji = gamma[j - 1][i - 1]
            checks.append(
                check(f"gamma({i},{j})", (gij * gji) == one, "gamma_ij*gamma_ji = 1")
            )
            ok = zero(_skew(x(i), x(j), q[i - 1] * p[j - 1].inverse() * gij))
            checks.append(check(f"xx({i},{j})", ok, "x_i x_j relation"))
            checks.append(check(f"yy({i},{j})", zero(_skew(y(i), y(j), gij)), "y_i y_j relation"))
            ok = zero(_skew(x(i), y(j), p[j - 1] * gij.inverse()))
            checks.append(check(f"xy({i},{j})", ok, "x_i y_j, i < j"))
            ok = zero(_skew(x(j), y(i), q[i - 1] * gji.inverse()))
            checks.append(check(f"xy({j},{i})", ok, "x_i y_j, i > j"))
    for i in range(1, n + 1):
        checks.append(
            check(f"weyl({i})", zero(_skew(x(i), y(i), q[i - 1]), products.casimir(i - 1)),
                  "x_i y_i - q_i y_i x_i = z_{i-1}")
        )
    return checks


def verify_normality(spec: AlgebraSpec, i: int) -> list[dict]:
    """Check the commutation laws of z_i and the simpler Casimir formula.

    Products, Casimir elements and the laws come from the memo cached on the
    spec, so the n calls of one `verify` build each z_j once and sum O(n^2)
    term groups in all: each law is a prefix sum (_Products.law).  The
    verdict of z{i}*z{j} is derived from them, not summed: z_j = sum_{l<=j}
    (q_l - p_l) y_l x_l, and the laws of y_l and x_l scale by lambda and
    lambda^-1 for the same lambda (p_l or q_l), so z_i y_l x_l = lambda y_l
    z_i x_l = y_l x_l z_i.  So z{i}*z{j} passes when i == j or when the laws
    of y_l and x_l pass for every l <= j.  Moving z_i across y_l x_l
    regroups products, so the derivation assumes that the fold is
    associative; the tests back that (associativity fuzz, word rewriter),
    but no check of verify certifies it yet.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"index {i} out of range 1..{spec.n}")
    products = _memo(spec)
    checks = []
    n = spec.n
    q, p = spec.q, spec.p
    unit, zero, law = products.unit, products.vanishes, products.law
    z = products.casimir(i)
    laws_hold = True  # the laws of y_l and x_l for every l <= j
    for j in range(1, n + 1):
        lam = p[j - 1] if i < j else q[j - 1]
        y_ok = not law(spec.y_index(j), i, lam)
        checks.append(check(f"z{i}*y{j}", y_ok, "z_i y_j = (p_j or q_j) y_j z_i"))
        x_ok = not law(spec.x_index(j), i, lam.inverse())
        checks.append(check(f"z{i}*x{j}", x_ok, "z_i x_j = (p_j or q_j)^-1 x_j z_i"))
        laws_hold = laws_hold and y_ok and x_ok
        checks.append(check(f"z{i}*z{j}", i == j or laws_hold, "Casimir elements commute"))
    xi = {unit[spec.x_index(i)]: None}
    yi = {unit[spec.y_index(i)]: None}
    checks.append(check(f"casimir-p({i})", zero(_skew(xi, yi, p[i - 1]), z),
                        "x_i y_i - p_i y_i x_i = z_i"))
    return checks


def verify_ambiskew(spec: AlgebraSpec, m: int) -> list[dict]:
    """Engine checks of the extension-step data at step m.

    u = z_m / c with c = p_{m+1} - q_{m+1} is not in the coefficient ring, so
    each identity in u is checked multiplied through by c.  The ring is a
    domain and c != 0, so each check is as strong as the identity its detail
    states.  Each is one sum of the kernel: alpha(z_m) is built as terms, and
    x_{m+1} y_{m+1} is the one product read from the pair memo cached on the
    spec, which also holds z_m and z_{m+1}.

    The detail of ambiskew-delta, u - rho*alpha(u) = -q_{m+1}^{-1} z_m,
    follows from ambiskew-alpha-u, since rho = q_{m+1}^{-1} and c = p_{m+1} -
    q_{m+1} by construction, so that check sums only its engine side.
    """
    products = _memo(spec)
    step = ambiskew_step(spec, m)
    p, gamma = spec.p, spec.gamma
    unit, zero = products.unit, products.vanishes
    z = products.casimir(m)
    # the twist alpha scales y_l x_l, the monomials of z_m, by alpha[y_l]*alpha[x_l]
    twist = {unit[y] + unit[x]: step.alpha[y] * step.alpha[x]
             for y, x in ((spec.y_index(l), spec.x_index(l)) for l in range(1, m + 1))}
    az = {mz: _mul(c, twist[mz]) for mz, c in z.items()}
    checks = [check(f"ambiskew-alpha-u({m})", zero([(p[m], z, _ONE, False)], az),
                    "alpha(u) = p_{m+1} u")]
    # u - rho*alpha(u) matches the engine commutator y x - rho*x y of the
    # new pair
    y_new, x_new = unit[spec.y_index(m + 1)], unit[spec.x_index(m + 1)]
    yx = {y_new + x_new: None}
    comm = [(step.c, yx, _ONE, False), (step.rho * step.c, {x_new: None}, {y_new: None}, True)]
    ok = zero(comm + [(step.rho, az, _ONE, False)], z)
    checks.append(check(f"ambiskew-delta({m})", ok, "u - rho*alpha(u) = -q_{m+1}^{-1} z_m"))
    # the next Casimir element; q_{m+1} - p_{m+1} = -c
    ok = zero([(None, z, _ONE, False), (step.c, yx, _ONE, True)], products.casimir(m + 1))
    checks.append(check(f"ambiskew-casimir({m})", ok,
                        "z_{m+1} = (q_{m+1} - p_{m+1})(y_{m+1} x_{m+1} - u)"))
    # beta = (conjugation by u) * alpha^{-1} matches the closed multipliers
    ok = all(
        step.beta_on_x(i) == p[m].inverse() * gamma[i - 1][m]
        and step.beta_on_y(i) == gamma[m][i - 1]
        for i in range(1, m + 1)
    )
    checks.append(check(f"ambiskew-beta({m})", ok, "beta multipliers match gamma*alpha^-1"))
    return checks


SKEW_FORMS = ("k1_base", "xk_y", "x_yk")


def skew_power_identity(spec: AlgebraSpec, i: int, k: int, form: str) -> dict:
    """Compare the engine power products against the closed formulas.

    x_i y_i^k and x_i^k y_i are read from the pair memo, the same folds that
    normal_form makes of the words, and each formula is one sum of the
    kernel.  Products and z_{i-1} come from the memo cached on the spec.
    x_i^k y_i is one block step, whose coefficients come from the rule
    table: c_0^k and the geometric sums in s_l (_Products.block).  So
    k1_base tests the table's c_0^k against q_1^k, and xk_y tests c_0^k
    against q_i^k and each s_l against p_i.  Raises BudgetError when k
    exceeds SKEW_MAX_K.
    """
    if form not in SKEW_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {SKEW_FORMS}")
    if k < 1 or not 1 <= i <= spec.n:
        raise ValueError(f"invalid (i, k) = ({i}, {k})")
    if form == "k1_base" and i != 1:
        raise ValueError("form 'k1_base' applies to i = 1 only")
    if form in ("xk_y", "x_yk") and i < 2:
        raise ValueError(f"form {form!r} requires i >= 2")
    if k > SKEW_MAX_K:
        raise BudgetError(f"skew power k={k} over the limit of {SKEW_MAX_K}")

    products = _memo(spec)
    qk = spec.q[i - 1] ** k
    x, y = products.unit[spec.x_index(i)], products.unit[spec.y_index(i)]
    zero, pair = products.vanishes, products.pair
    if form == "k1_base":
        ok = (zero([(qk, {k * y + x: None}, _ONE, False)], pair(x, k * y))
              and zero([(qk, {y + k * x: None}, _ONE, False)], pair(k * x, y)))
        return check(f"skew-base(k={k})", ok, "x1 y1^k and x1^k y1 pure q-powers")

    qi, pi = spec.q[i - 1], spec.p[i - 1]
    # (q^k - p^k)/(q - p) as the geometric sum, which stays in the ring
    coeff = sum((qi**j * pi ** (k - 1 - j) for j in range(k)), spec.lattice.zero())
    zprev = products.casimir(i - 1)
    if form == "xk_y":
        terms = [(qk, {y + k * x: None}, _ONE, False),
                 (coeff, zprev, {(k - 1) * x: None}, False)]
        ok = zero(terms, pair(k * x, y))
        name = f"skew-xk_y(i={i},k={k})"
    else:
        terms = [(qk, {k * y + x: None}, _ONE, False),
                 (coeff, {(k - 1) * y: None}, zprev, False)]
        ok = zero(terms, pair(x, k * y))
        name = f"skew-x_yk(i={i},k={k})"
    return check(name, ok, "power formula with (q^k-p^k)/(q-p) coefficient")


# -- growth of the degree filtration -----------------------------------------

@dataclass
class GrowthReport:
    counts: list[int]
    exponent: float
    window: tuple[int, int]


def growth_count(spec: AlgebraSpec, N: int) -> GrowthReport:
    """Dimensions binom(m + 2n, 2n), m = 0..N, of the degree filtration.

    Every ordered word is its own normal form, and no rule raises total
    degree, so the normal forms of the words of length <= m span exactly
    the ordered monomials of degree <= m.  That holds for every set of rules
    of this shape, confluent or not, so the counts are computed in closed
    form, with no fold; that they are the dimensions of the filtration in
    the algebra is the PBW theorem, which rests on confluence.  Raises
    ValueError for N < 1 and BudgetError past N = GROWTH_MAX_N, which bounds
    the length of the answer.

    The exponent is the discrete log-derivative m*(c_m - c_{m-1})/c_{m-1}
    averaged over the top window.  With c_m = binom(m + 2n, 2n) the ratio
    c_m/c_{m-1} is (m + 2n)/m, so every term, and the average, is 2n.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if N > GROWTH_MAX_N:
        raise BudgetError(f"growth to N={N} over the limit of {GROWTH_MAX_N}")
    size = 2 * spec.n
    counts = [math.comb(m + size, size) for m in range(N + 1)]
    return GrowthReport(counts=counts, exponent=float(size), window=(max(1, N - 2), N))


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
