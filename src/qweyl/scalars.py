"""Exact scalar arithmetic for the coefficient ring.

Coefficients live in the ring Z[s^±1] of Laurent polynomials with integer
coefficients in a fixed tuple of parameter symbols s.  Every rewrite
coefficient of the algebras is a parameter monomial or a difference
q_l - p_l, so normal forms never leave this ring.  A Scalar maps integer
exponent vectors to nonzero ints; the dict is canonical, so equality is
dict equality.

Generic parameters are a free abelian group on the symbols: a monomial is
just its exponent vector, so multiplicative independence (no parameter a
root of unity, no hidden relations) is encoded exactly.  The units of the
ring are the monomials with coefficient ±1, and only they can be inverted
or divided by.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping

Exponents = tuple[int, ...]


class LatticeMismatchError(ValueError):
    """Raised when operands belong to different parameter lattices."""


class SpecializationError(ValueError):
    """Raised when a substitution lacks a symbol or sends one to zero."""


class ParameterLattice:
    """Ordered set of parameter symbols; fixes exponent-vector layout."""

    __slots__ = ("symbols", "index")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if len(set(syms)) != len(syms):
            raise ValueError(f"duplicate parameter symbols: {syms}")
        self.symbols = syms
        self.index = {s: i for i, s in enumerate(syms)}

    @property
    def k(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterLattice) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"ParameterLattice({list(self.symbols)})"

    # -- constructors ------------------------------------------------------

    def zero_exponents(self) -> Exponents:
        return (0,) * self.k

    def zero(self) -> "Scalar":
        return Scalar(self, {})

    def one(self) -> "Scalar":
        return Scalar(self, {self.zero_exponents(): 1})

    def rational(self, value: int) -> "Scalar":
        """The constant `value`, which must be an integer (TypeError otherwise)."""
        return Scalar(self, {self.zero_exponents(): operator.index(value)})

    def symbol(self, name: str) -> "Scalar":
        return self.monomial({name: 1})

    def monomial(self, powers: Mapping[str, int]) -> "Scalar":
        """Scalar 1 * prod(symbol**power)."""
        exps = [0] * self.k
        for name, e in powers.items():
            if name not in self.index:
                raise KeyError(f"unknown parameter symbol {name!r}")
            exps[self.index[name]] = e
        return Scalar(self, {tuple(exps): 1})

    def from_exponents(self, exps: Iterable[int]) -> "Scalar":
        v = tuple(exps)
        if len(v) != self.k:
            raise LatticeMismatchError(f"exponent vector length {len(v)} != {self.k}")
        return Scalar(self, {v: 1})


class Scalar:
    """Sparse Laurent polynomial over Z: exponent vector -> nonzero int."""

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: ParameterLattice, terms: Mapping[Exponents, int]):
        self.lattice = lattice
        self.terms = {e: c for e, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(self.lattice.zero_exponents()) == 1

    def _check(self, other: "Scalar") -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError("operands use different parameter lattices")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Scalar(self.lattice, out)

    def __neg__(self) -> "Scalar":
        return Scalar(self.lattice, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        out: dict[Exponents, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Scalar(self.lattice, out)

    def inverse(self) -> "Scalar":
        """Inverse of a unit (a monomial with coefficient ±1)."""
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            if c in (1, -1):
                return Scalar(self.lattice, {tuple(-x for x in e): c})
        raise ZeroDivisionError(f"{render_scalar(self)} is not a unit of the ring")

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, e: int) -> "Scalar":
        if e == 0:
            return self.lattice.one()
        base = self if e > 0 else self.inverse()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"Scalar({render_scalar(self)})"

    def as_monomial(self) -> Exponents | None:
        """Exponent vector if this is exactly 1 * monomial, else None."""
        if len(self.terms) != 1:
            return None
        (e, c), = self.terms.items()
        return e if c == 1 else None

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


# -- rendering and parsing of the external monomial-string format ----------
#
# Monomial strings look like "q1^2*g12^-1"; "1" is the empty monomial.

def render_exponents(lattice: ParameterLattice, exps: Exponents) -> str:
    parts = []
    for s, e in zip(lattice.symbols, exps):
        if e == 1:
            parts.append(s)
        elif e != 0:
            parts.append(f"{s}^{e}")
    return "*".join(parts) if parts else "1"


def parse_monomial(lattice: ParameterLattice, text: str) -> Scalar:
    text = text.strip()
    if text == "1":
        return lattice.one()
    powers: dict[str, int] = {}
    for part in text.split("*"):
        part = part.strip()
        if "^" in part:
            name, _, exp = part.partition("^")
            e = int(exp)
        else:
            name, e = part, 1
        if name not in lattice.index:
            raise KeyError(f"unknown parameter symbol {name!r} in monomial {text!r}")
        powers[name] = powers.get(name, 0) + e
    return lattice.monomial(powers)


def render_poly(s: Scalar) -> str:
    if not s.terms:
        return "0"
    parts = []
    for e in sorted(s.terms, reverse=True):
        c = s.terms[e]
        mono = render_exponents(s.lattice, e)
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
