"""Exact scalar arithmetic for the coefficient ring.

Coefficients live in the ring Z[s^±1] of Laurent polynomials with integer
coefficients in a fixed tuple of parameter symbols s.  Every rewrite
coefficient of the algebras is a parameter monomial or a difference
q_l - p_l, so normal forms never leave this ring.  A Scalar maps exponent
vectors to nonzero ints; the map is canonical, so equality is dict
equality.

Generic parameters are a free abelian group on the symbols: a monomial is
just its exponent vector, so multiplicative independence (no parameter a
root of unity, no hidden relations) is encoded exactly.  The units of the
ring are the monomials with coefficient ±1, and only they can be inverted
or divided by.

Exponent vectors are stored packed, one Python int per vector (the packed
monomials of M. Monagan and R. Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Symbol i gets a
32-bit field, symbol 0 the most significant one, holding e_i + 2^31.  The
packed key of the zero vector is then the lattice's `bias` (2^31 in every
field), and since no field is ever out of its range:

- a monomial product is one integer addition, key(a + b) = key(a) +
  key(b) - bias, and an inverse is key(-e) = 2*bias - key(e); so a
  product of two one-term Scalars, over two in five of the products that
  normal forms and `verify` make, is one key addition and one product of
  coefficients;
- packed keys sort like the exponent tuples (lexicographically, symbol 0
  first), so rendering orders terms as before.

Python ints never overflow, but a field can carry into its neighbour.
Every exponent is kept within ±MAX_EXPONENT, and every Scalar carries
`degree`, an upper bound on the absolute value of its exponents.  A
product whose bound stays within MAX_EXPONENT cannot carry, since each
field then holds a value in [1, 2^32); any other product is recomputed
on exponent tuples, and an exponent that really leaves the range raises
ExponentOverflowError, an ArithmeticError.

Tuples stay at the boundaries: the Scalar constructor packs them (and
checks their length and range), while `.terms`, `as_monomial`,
`substitute` and rendering unpack.  `sparse_monomial` packs its key
straight from (symbol index, exponent) pairs, one shifted field per pair,
and `monomial` hands it the indices of the symbols it names, so their cost
follows the number of symbols a monomial uses, not k.  Results
made inside the class skip the constructor.
"""

from __future__ import annotations

import collections
import functools
import operator
import struct
from collections.abc import Iterable, Mapping
from fractions import Fraction

Exponents = tuple[int, ...]

# Exponents are signed 32-bit fields, kept symmetric so that inverses fit.
MAX_EXPONENT = 2**31 - 1


class LatticeMismatchError(ValueError):
    """Raised when operands belong to different parameter lattices."""


class SpecializationError(ValueError):
    """Raised when a substitution lacks a symbol or sends one to zero."""


class ExponentOverflowError(OverflowError, ValueError):
    """Raised when an exponent leaves the range ±MAX_EXPONENT of its field."""


@functools.cache
def _layout(k: int) -> tuple[struct.Struct, int]:
    """The k 32-bit fields and the bias, the packed key of the zero vector.

    The bias 2^31 is the sign bit of each field, so a packed key is the
    big-endian two's-complement fields with every sign bit flipped.
    """
    return struct.Struct(f">{k}i"), int.from_bytes(b"\x80\0\0\0" * k, "big")


class ParameterLattice:
    """Ordered set of parameter symbols; fixes the packed exponent layout.

    The layout needs only k, the number of symbols.  A lattice made from
    its names (a custom config's, which are input) keeps them and their
    index from the start and refuses duplicates.  A lazy lattice (`lazy`,
    the presets') knows k and a writer of its names, and writes `symbols`
    and `index` on their first read; a preset reads them only to render
    or parse a scalar, so `bound`, `dim` and `verify` never write them.
    Equality and hashing read the names, so a lazy lattice equals, and
    hashes like, an eager one with the same names.
    """

    __slots__ = ("k", "bias", "_symbols", "_index", "_write_names", "_fields", "_powers")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if len(set(syms)) != len(syms):
            repeated = [s for s, count in collections.Counter(syms).items() if count > 1]
            raise ValueError(f"duplicate parameter symbols: {repeated}")
        self._setup(len(syms), None)
        self._symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    @classmethod
    def lazy(cls, k: int, write_names) -> ParameterLattice:
        """A lattice of k symbols whose names write_names() returns, k
        distinct strings, called on the first read of `symbols` or `index`."""
        lat = cls.__new__(cls)
        lat._setup(k, write_names)
        return lat

    def _setup(self, k: int, write_names) -> None:
        self.k = k
        self._fields, self.bias = _layout(k)
        self._symbols: tuple[str, ...] | None = None
        self._index: dict[str, int] | None = None
        self._write_names = write_names
        # the render tables, one _Powers per symbol, made on the first render
        self._powers: tuple[_Powers, ...] | None = None

    @property
    def symbols(self) -> tuple[str, ...]:
        if self._symbols is None:
            self._symbols = tuple(self._write_names())
        return self._symbols

    @property
    def index(self) -> dict[str, int]:
        """Position of each symbol by name."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.symbols)}
        return self._index

    def _render_tables(self) -> tuple[_Powers, ...]:
        """_powers, made on the first call."""
        if self._powers is None:
            self._powers = tuple(_Powers({0: "", 1: s}) for s in self.symbols)
        return self._powers

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterLattice) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"ParameterLattice({list(self.symbols)})"

    # -- packed exponent vectors ---------------------------------------------

    def pack(self, exps: Iterable[int]) -> int:
        """Packed key of an exponent vector of length k."""
        v = tuple(exps)
        if len(v) != self.k:
            raise LatticeMismatchError(f"exponent vector length {len(v)} != {self.k}")
        if v and (max(v) > MAX_EXPONENT or min(v) < -MAX_EXPONENT):
            raise ExponentOverflowError(f"exponent vector {v} leaves ±{MAX_EXPONENT}")
        try:
            raw = self._fields.pack(*v)
        except struct.error as exc:
            raise TypeError(f"exponents must be integers, got {v}") from exc
        return int.from_bytes(raw, "big") ^ self.bias

    def unpack(self, key: int) -> Exponents:
        """Exponent vector of a packed key."""
        return self._fields.unpack((key ^ self.bias).to_bytes(self._fields.size, "big"))

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Scalar":
        return _scalar(self, {}, 0)

    def one(self) -> "Scalar":
        return _scalar(self, {self.bias: 1}, 0)

    def rational(self, value: int) -> "Scalar":
        """The constant `value`, which must be an integer (TypeError otherwise)."""
        c = operator.index(value)
        return _scalar(self, {self.bias: c} if c else {}, 0)

    def symbol(self, name: str) -> "Scalar":
        return self.monomial({name: 1})

    def monomial(self, powers: Mapping[str, int]) -> "Scalar":
        """Scalar 1 * prod(symbol**power); sparse_monomial on the symbols' indices."""
        return self.sparse_monomial((self._position(name), e) for name, e in powers.items())

    def sparse_monomial(self, exps: Iterable[tuple[int, int]]) -> "Scalar":
        """Scalar 1 * prod(s_c**e) over the (c, e) pairs of exps, distinct
        symbol indices c, packed as bias + sum e*2^(32*(k-1-c))."""
        key, degree, last = self.bias, 0, self.k - 1
        for c, e in exps:
            e = operator.index(e)
            if abs(e) > MAX_EXPONENT:
                raise ExponentOverflowError(
                    f"exponent {e} of {self.symbols[c]!r} leaves ±{MAX_EXPONENT}")
            key += e << 32 * (last - c)
            degree = max(degree, abs(e))
        return _scalar(self, {key: 1}, degree)

    def _position(self, name: str) -> int:
        if name not in self.index:
            raise KeyError(f"unknown parameter symbol {name!r}")
        return self.index[name]


class Scalar:
    """Sparse Laurent polynomial over Z: packed exponent vector -> nonzero int.

    `packed` maps packed keys to coefficients, `degree` bounds the absolute
    value of every exponent; `.terms` is the same map keyed by tuples.
    """

    __slots__ = ("lattice", "packed", "degree")

    def __init__(self, lattice: ParameterLattice, terms: Mapping[Exponents, int]):
        self.lattice = lattice
        packed = {}
        degree = 0
        for e, c in terms.items():
            if c:
                packed[lattice.pack(e)] = c
                degree = max(degree, max(map(abs, e), default=0))
        self.packed = packed
        self.degree = degree

    @property
    def terms(self) -> dict[Exponents, int]:
        unpack = self.lattice.unpack
        return {unpack(e): c for e, c in self.packed.items()}

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return len(self.packed) == 1 and self.packed.get(self.lattice.bias) == 1

    def _check(self, other: "Scalar") -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError("operands use different parameter lattices")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        out = dict(self.packed)
        for e, c in other.packed.items():
            total = out.get(e, 0) + c
            if total:
                out[e] = total
            else:
                del out[e]
        return _scalar(self.lattice, out, max(self.degree, other.degree))

    def __neg__(self) -> "Scalar":
        return _scalar(self.lattice, {e: -c for e, c in self.packed.items()}, self.degree)

    def __sub__(self, other: "Scalar") -> "Scalar":
        """self + (-other), with no negated copy of other."""
        self._check(other)
        out = dict(self.packed)
        for e, c in other.packed.items():
            total = out.get(e, 0) - c
            if total:
                out[e] = total
            else:
                del out[e]
        return _scalar(self.lattice, out, max(self.degree, other.degree))

    def __mul__(self, other: "Scalar") -> "Scalar":
        lattice = self.lattice
        if other.lattice is not lattice:
            self._check(other)
        degree = self.degree + other.degree
        if degree > MAX_EXPONENT:
            return self._mul_tuples(other)
        a, b = self.packed, other.packed
        if len(a) == 1 == len(b):
            # two monomials: one key addition
            (ea, ca), = a.items()
            (eb, cb), = b.items()
            return _scalar(lattice, {ea + eb - lattice.bias: ca * cb}, degree)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a monomial times a polynomial: distinct keys, no cancellation
            (eb, cb), = b.items()
            shift = eb - lattice.bias
            return _scalar(lattice, {e + shift: c * cb for e, c in a.items()}, degree)
        bias = lattice.bias
        out: dict[int, int] = {}
        get = out.get
        for eb, cb in b.items():
            shift = eb - bias
            for ea, ca in a.items():
                e = ea + shift
                out[e] = get(e, 0) + ca * cb
        if len(out) < len(a) * len(b):  # like terms met, so some may cancel
            out = {e: c for e, c in out.items() if c}
        return _scalar(lattice, out, degree)

    def _mul_tuples(self, other: "Scalar") -> "Scalar":
        """The product on exponent tuples; the constructor raises
        ExponentOverflowError if an exponent leaves its field."""
        out: dict[Exponents, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Scalar(self.lattice, out)

    def inverse(self) -> "Scalar":
        """Inverse of a unit (a monomial with coefficient ±1)."""
        if len(self.packed) == 1:
            (e, c), = self.packed.items()
            if c in (1, -1):
                return _scalar(self.lattice, {2 * self.lattice.bias - e: c}, self.degree)
        raise ZeroDivisionError(f"{render_scalar(self)} is not a unit of the ring")

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, e: int) -> "Scalar":
        """self^e; a unit's power is one operation on its packed key, bias +
        e*(key - bias), while |e|*degree stays within MAX_EXPONENT.  Other
        powers are repeated products, which raise ExponentOverflowError only
        where an exponent really leaves its field."""
        if e == 0:
            return self.lattice.one()
        degree = abs(e) * self.degree
        if len(self.packed) == 1 and degree <= MAX_EXPONENT:
            (key, c), = self.packed.items()
            if c in (1, -1):
                bias = self.lattice.bias
                return _scalar(self.lattice, {bias + e * (key - bias): c if e & 1 else 1}, degree)
        base = self if e > 0 else self.inverse()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return self.packed == other.packed

    __hash__ = None

    def __repr__(self) -> str:
        return f"Scalar({render_scalar(self)})"

    def as_monomial(self) -> Exponents | None:
        """Exponent vector if this is exactly 1 * monomial, else None."""
        if len(self.packed) != 1:
            return None
        (e, c), = self.packed.items()
        return self.lattice.unpack(e) if c == 1 else None

    def substitute(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at exact nonzero rational parameter values (all symbols required)."""
        vals = []
        for s in self.lattice.symbols:
            if s not in values:
                raise SpecializationError(f"no value supplied for symbol {s!r}")
            v = Fraction(values[s])
            if v == 0:
                raise SpecializationError(f"symbol {s!r} specialized to zero")
            vals.append(v)
        total = Fraction(0)
        for e, c in self.terms.items():
            term = Fraction(c)
            for v, p in zip(vals, e):
                term *= v**p
            total += term
        return total


def _scalar(lattice: ParameterLattice, packed: dict[int, int], degree: int) -> Scalar:
    """A Scalar from packed terms that are already nonzero and in range."""
    s = object.__new__(Scalar)
    s.lattice = lattice
    s.packed = packed
    s.degree = degree
    return s


def power_sum(c: Scalar, s: Scalar, e: int) -> Scalar:
    """sum_{j<e} c^j s^(e-1-j) for e >= 1 and coefficient-1 monomials c, s.

    The terms are monomials whose packed keys step by key(c) - key(s) from
    the key of s^(e-1), so the sum is e additions into one dict.  Every
    exponent lies between those of s^(e-1) and c^(e-1), which are computed
    first and raise ExponentOverflowError where an end leaves its field.
    """
    c._check(s)
    if not all(len(u.packed) == 1 and 1 in u.packed.values() for u in (c, s)):
        raise ValueError("power_sum takes coefficient-1 monomials")
    lo, hi = s ** (e - 1), c ** (e - 1)
    key, = lo.packed
    step = next(iter(c.packed)) - next(iter(s.packed))
    out: dict[int, int] = {}
    for _ in range(e):
        out[key] = out.get(key, 0) + 1
        key += step
    return _scalar(c.lattice, out, max(lo.degree, hi.degree))


# -- rendering and parsing of the external monomial-string format ----------
#
# Monomial strings look like "q1^2*g12^-1"; "1" is the empty monomial.

class _Powers(dict):
    """Text of one symbol's power by exponent: "" for 0, the symbol for 1,
    "s^e" otherwise; made as {0: "", 1: symbol}.

    Holds at most _POWERS_KEPT exponents, so that rendering a monomial maps
    the exponents through these tables instead of formatting each field.
    """

    __slots__ = ()

    def __missing__(self, e: int) -> str:
        text = f"{self[1]}^{e}"
        if len(self) < _POWERS_KEPT:
            self[e] = text
        return text


_POWERS_KEPT = 256


def render_exponents(lattice: ParameterLattice, exps: Exponents) -> str:
    powers = lattice._powers or lattice._render_tables()
    return "*".join(filter(None, map(dict.__getitem__, powers, exps))) or "1"


def render_sparse(lattice: ParameterLattice, exps: Iterable[tuple[int, int]]) -> str:
    """render_exponents of the vector whose nonzero (c, e) pairs are exps, by c."""
    powers = lattice._powers or lattice._render_tables()
    return "*".join(powers[c][e] for c, e in exps) or "1"


def parse_exponents(lattice: ParameterLattice,
                    text: str) -> tuple[tuple[tuple[int, int], ...], bool]:
    """The exponent vector of a monomial string as its nonzero (symbol
    index, exponent) pairs, by index, and whether the string is canonical,
    exactly render_sparse of that vector: no spaces, each symbol once and in
    lattice order, "^e" only for e other than 0 and 1, "1" for the unit.
    A symbol may occur in several factors; its exponents add, and the sum
    must stay within ±MAX_EXPONENT (ExponentOverflowError, checked in the
    order the symbols first occur).  An unknown symbol raises KeyError, an
    exponent that is no integer ValueError."""
    body = text.strip()
    if body == "1":
        return (), text == "1"
    # a custom lattice's index is set at construction: read it with no
    # property call, as parse runs once per distinct monomial of a config
    index = lattice._index or lattice.index
    canonical = len(body) == len(text)
    last = -1
    pairs: list = []
    for part in body.split("*"):
        factor = part.strip()
        name, caret, exp = factor.partition("^")
        if caret:
            e = int(exp)
            canonical = canonical and e != 0 and e != 1 and str(e) == exp
        else:
            e = 1
        c = index.get(name)
        if c is None:
            raise KeyError(f"unknown parameter symbol {name!r} in monomial {body!r}")
        canonical = canonical and c > last and len(factor) == len(part)
        last = c
        pairs.append((c, e))
    if not canonical:
        # add the exponents of each symbol, in the order symbols first occur
        powers: dict[int, int] = {}
        for c, e in pairs:
            powers[c] = powers.get(c, 0) + e
        pairs = powers.items()
    for c, e in pairs:
        if abs(e) > MAX_EXPONENT:
            raise ExponentOverflowError(
                f"exponent {e} of {lattice.symbols[c]!r} leaves ±{MAX_EXPONENT}")
    if canonical:
        # one nonzero factor per symbol, by index: the pairs are the vector
        return tuple(pairs), True
    return tuple(sorted((c, e) for c, e in pairs if e)), False


def parse_monomial(lattice: ParameterLattice, text: str) -> Scalar:
    return lattice.sparse_monomial(parse_exponents(lattice, text)[0])


def render_poly(s: Scalar) -> str:
    if not s.packed:
        return "0"
    lattice = s.lattice
    parts = []
    # packed keys sort like their exponent tuples
    for key in sorted(s.packed, reverse=True):
        c = s.packed[key]
        mono = render_exponents(lattice, lattice.unpack(key))
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def render_scalar(s: Scalar) -> str:
    """The "(poly)/(1)" shape of the report format; the denominator is always 1."""
    return f"({render_poly(s)})/(1)"
