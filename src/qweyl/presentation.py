"""Algebra specifications and their defining relation data.

An AlgebraSpec fixes n, the parameter lattice, and the monomial parameter
values q_i, p_i, gamma_ij.  It stores each parameter once, as its sparse
exponent vector (spec.exponents): a custom config parses each distinct
monomial string once, straight to one, and _validate checks them all at
load; the strings of each row it read are kept (spec._texts), and
spec_to_config writes a row back as one copy of them, rendering only the
strings that were not canonical.  A preset writes
its q and p vectors directly, checked at once, and its C(n,2) gamma
vectors on the first read of spec.exponents, where they pass the same
gamma checks; the dimension path reads q and p only (spec.qp), so `bound`
and `dim` never build gamma.  A preset's lattice likewise names its
symbols on their first read, which only rendering and parsing make (see
ParameterLattice).  The Scalars spec.q, spec.p and spec.gamma
are views of the vectors, built on first read; the dimension path never
reads them.  Generators are ordered

    y1 < x1 < y2 < x2 < ... < yn < xn

and indexed 0..2n-1 (y_i at 2i-2, x_i at 2i-1, 1-based i), matching the
ordered-monomial basis y1^a1 x1^b1 ... yn^an xn^bn.

Two generators of different indices swap by a monomial in q, p and gamma
whose exponents _swap_exponents writes down once: the rewrite rules of
qweyl.pbw pack it as their coefficient, the tori of qweyl.torus take it
as their commutation factor.  The one other rule rewrites x_i*y_i to
q_i y_i x_i plus z_{i-1} = sum_{l<i} (q_l - p_l) y_l x_l (z_0 = 0).  The
verifiers and ambiskew_step state the relations with Scalar products, as
the independent check of the rules.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

from .scalars import ParameterLattice, Scalar, parse_exponents, render_sparse

KINDS = (
    "generic",
    "generic-p1",
    "generic-q1",
    "symplectic",
    "euclidean",
    "heisenberg",
    "graded-weyl",
    "custom",
)

SINGLE_PARAMETER_KINDS = ("symplectic", "euclidean", "heisenberg")


# an exponent vector as its nonzero (c, e) pairs, by symbol index c; () is
# the zero vector
SparseVector = tuple[tuple[int, int], ...]


def _neg(v: SparseVector) -> SparseVector:
    return tuple([(c, -e) for c, e in v])


class ConfigError(ValueError):
    """Invalid spec data; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class AlgebraSpec:
    """n, parameter lattice, and the monomial parameters (q, p, gamma).

    The parameters are kept once, as the sparse exponent vectors
    `exponents` = (q, p, gamma) that _validate checked: q[i], p[i] and
    gamma[i][j] each a tuple of nonzero (symbol index, exponent) pairs, by
    index.  `qp` = (q, p) is set and checked at construction.  A preset's
    gamma rows are written and checked on the first read of `exponents`
    and kept; every other spec sets `exponents` at construction.  spec.q,
    spec.p and spec.gamma are Scalar views of them, built on first read and
    kept, so later reads are plain attribute loads.
    """

    def __init__(self, n: int, kind: str, lattice: ParameterLattice,
                 q, p, gamma, texts=None):
        """A spec from the sparse exponent vectors of its parameters, which
        _validate checks.  gamma is the n x n matrix of vectors, or a
        function of no arguments that writes it: then the rows are written
        and checked on the first read of spec.exponents.  texts holds, for
        q, p and each gamma row in that order, the strings a config spelled
        the row with and the places of those that are not canonical."""
        self.n = n
        self.kind = kind
        self.lattice = lattice
        # the rows of strings of a custom config, read by spec_to_config
        self._texts = texts
        if callable(gamma):
            self.qp = _validate(n, q, p)[:2]
            self._write_gamma = gamma
        else:
            self.exponents = _validate(n, q, p, gamma)
            self.qp = self.exponents[:2]
        # built on first use by pbw._packed_rules (the rewrite rules),
        # pbw._slots (the generator-name table of the word readers),
        # torus.standard_torus and pbw._memo (the product memo of every
        # engine call, dropped past pbw.MEMO_MAX_PAIRS products); each entry
        # is fixed by its key, so caching changes no result
        self._packed_rules: list | None = None
        self._slots: dict[str, int] | None = None
        self._standard_torus = None
        self._products = None

    @functools.cached_property
    def exponents(self) -> tuple:
        """(q, p, gamma) of a preset, its gamma rows written and checked
        here, on first read (a spec with gamma given sets this at
        construction)."""
        return (*self.qp, _validate_gamma(self.n, self._write_gamma()))

    # -- Scalar views of the exponent vectors --------------------------------

    @functools.cached_property
    def q(self) -> tuple[Scalar, ...]:
        return tuple(map(self.lattice.sparse_monomial, self.qp[0]))

    @functools.cached_property
    def p(self) -> tuple[Scalar, ...]:
        return tuple(map(self.lattice.sparse_monomial, self.qp[1]))

    @functools.cached_property
    def gamma(self) -> tuple[tuple[Scalar, ...], ...]:
        pack = self.lattice.sparse_monomial
        return tuple(tuple(map(pack, row)) for row in self.exponents[2])

    # -- generator bookkeeping ---------------------------------------------

    def y_index(self, i: int) -> int:
        """Generator slot of y_i (1-based i)."""
        return 2 * (i - 1)

    def x_index(self, i: int) -> int:
        return 2 * (i - 1) + 1

    def gen_name(self, g: int) -> str:
        i, r = divmod(g, 2)
        return f"{'x' if r else 'y'}{i + 1}"

    def gen_index(self, name: str) -> int:
        kind, num = name[:1], name[1:]
        # isdigit alone takes any Unicode digit, "²" and "٣" among them
        if kind not in ("x", "y") or not (num.isascii() and num.isdigit()):
            raise ConfigError("word", f"unknown generator {name!r}")
        i = int(num)
        if not 1 <= i <= self.n:
            raise ConfigError("word", f"generator index out of range in {name!r}")
        return self.x_index(i) if kind == "x" else self.y_index(i)

    def __repr__(self) -> str:
        return f"AlgebraSpec(n={self.n}, kind={self.kind!r})"


def _check_shape(n: int, q, p, gamma) -> None:
    if len(q) != n or len(p) != n:
        raise ConfigError("q/p", "need exactly n entries")
    if gamma is not None:
        _check_gamma_shape(n, gamma)


def _check_gamma_shape(n: int, gamma) -> None:
    if len(gamma) != n or any(len(row) != n for row in gamma):
        raise ConfigError("gamma", "need a full n x n matrix")


def _validate(n: int, q, p, gamma=None):
    """The exponent vectors (q, p, gamma) as tuples, once they pass the checks.

    Each entry is a tuple of nonzero (symbol index, exponent) pairs, by
    index.  Refuses vectors of the wrong shape, a gamma that is not
    multiplicatively antisymmetric with unit diagonal, and some p_i = q_i,
    the other errors in the order of a scan of (gamma_ii, then gamma_ij
    and gamma_ji for each j > i, p_i/q_i) over i.  The scan
    compares sparse vectors only: gamma_ii must be (), gamma_ji the negation
    of gamma_ij, and p_i/q_i is trivial exactly when p_i and q_i have the
    same vector.

    Without gamma (a preset, whose gamma rows are written on first read)
    the scan skips the gamma entries and returns gamma None; a preset's
    gamma is validated when first built, by _validate_gamma.
    """
    _check_shape(n, q, p, gamma)
    q, p = tuple(q), tuple(p)
    if gamma is not None:
        gamma = tuple(map(tuple, gamma))
    negs = {}
    for i in range(n):
        if gamma is not None:
            _check_gamma_row(n, gamma, i, negs)
        if p[i] == q[i]:
            raise ConfigError(
                f"p[{i}]",
                "p_i must differ from q_i by a non-torsion monomial",
            )
    return q, p, gamma


def _check_gamma_row(n: int, gamma, i: int, negs: dict) -> None:
    """_validate's checks of gamma_ii and of gamma_ij, gamma_ji for j > i.

    negs maps each gamma_ij already negated in this scan to its negation,
    so that a scan negates each distinct vector once."""
    row = gamma[i]
    if row[i] != ():
        raise ConfigError(f"gamma[{i}][{i}]", "diagonal must be 1")
    for j in range(i + 1, n):
        gij = row[j]
        neg = negs.get(gij)
        if neg is None:
            neg = negs[gij] = _neg(gij)
        if gamma[j][i] != neg:
            raise ConfigError(
                f"gamma[{i}][{j}]", "matrix must be multiplicatively antisymmetric"
            )


def _validate_gamma(n: int, gamma):
    """gamma as a tuple of rows, once it passes _validate's gamma checks."""
    _check_gamma_shape(n, gamma)
    gamma = tuple(map(tuple, gamma))
    negs = {}
    for i in range(n):
        _check_gamma_row(n, gamma, i, negs)
    return gamma


# (p, q, gamma_ij for i < j) of the single-parameter kinds, as powers of q
_SINGLE_PARAMETER_POWERS = {
    "symplectic": (0, -2, 1),
    "euclidean": (-2, 0, -1),
    "heisenberg": (2, 0, 1),
}


def build_spec(n: int, kind: str, custom: Mapping | None = None) -> AlgebraSpec:
    """Construct a spec for one of the built-in kinds or a custom assignment."""
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    if n < 1:
        raise ConfigError("n", f"must be a positive integer, got {n}")
    if kind == "custom":
        if custom is None:
            raise ConfigError("custom", "kind 'custom' needs a parameter assignment")
        return _build_custom(n, custom)
    if custom is not None:
        raise ConfigError("custom", f"kind {kind!r} takes no custom assignment")

    # gamma is passed as its writer: the rows are written on first read
    if kind in SINGLE_PARAMETER_KINDS:
        power = lambda e: ((0, e),) if e else ()
        p, q, g = map(power, _SINGLE_PARAMETER_POWERS[kind])
        gamma = lambda: _antisymmetric(n, itertools.repeat((g, _neg(g))))
        return AlgebraSpec(n, kind, ParameterLattice(["q"]), (q,) * n, (p,) * n, gamma)

    # one symbol per parameter that is not 1: q1..qn, p1..pn, then the g_ij
    # with i < j in row order.  The lattice knows their number and writes
    # the names on first read (_preset_symbols), which only rendering and
    # parsing do; the names are distinct exactly below _FIRST_COLLISION.
    if n >= _FIRST_COLLISION:
        raise ConfigError("n", _COLLISION)
    prefixes = ""
    qs = ps = ((),) * n
    if kind in ("generic", "generic-p1", "graded-weyl"):
        qs = tuple(((i, 1),) for i in range(n))
        prefixes += "q"
    if kind in ("generic", "generic-q1"):
        ps = tuple(((len(prefixes) * n + i, 1),) for i in range(n))
        prefixes += "p"
    first = len(prefixes) * n
    last = first + n * (n - 1) // 2
    lattice = ParameterLattice.lazy(last, functools.partial(_preset_symbols, n, prefixes))
    gamma = lambda: _antisymmetric(n, ((((c, 1),), ((c, -1),)) for c in range(first, last)))
    return AlgebraSpec(n, kind, lattice, qs, ps, gamma)


def _preset_symbols(n: int, prefixes: str) -> list[str]:
    """The names of a multi-parameter preset's symbols: {c}1..{c}n for each
    letter c of prefixes, then g{i}{j} for i < j <= n in row order."""
    names = [f"{c}{i}" for c in prefixes for i in range(1, n + 1)]
    names += [f"g{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return names


# The least n whose preset names g{i}{j} repeat.  If g{i}{j} = g{a}{b} for
# pairs i < j and a < b, with str(i) the shorter, then str(i) is a proper
# prefix of str(a), and str(j) is the rest of str(a) followed by str(b); that
# rest leads str(j), so it does not start with 0.  Hence a >= 11, b > a has
# two digits or more, and j >= 100 + b >= 112: the first repeat is g1112, of
# (1, 112) and (11, 12).  A scan of the names by i and then j meets a repeat
# at the pair whose i is the longer, so it meets this one first at every
# n >= 112, and the message is one constant.
_FIRST_COLLISION = 112
_COLLISION = "preset symbol 'g1112' names both g_{1,112} and g_{11,12}"


def _antisymmetric(n: int, pairs) -> list[list[SparseVector]]:
    """The n x n matrix of exponent vectors with the zero vector on the
    diagonal and the (v, -v) of pairs at (i, j), (j, i), i < j, in row
    order."""
    rows: list[list[SparseVector]] = [[()] * n for _ in range(n)]
    pairs = iter(pairs)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = next(pairs)
    return rows


def _build_custom(n: int, custom: Mapping) -> AlgebraSpec:
    if not isinstance(custom, Mapping):
        raise ConfigError("custom", f"expected an object, got {custom!r}")
    for key in ("symbols", "q", "p", "gamma"):
        if key not in custom:
            raise ConfigError(f"custom.{key}", "missing")
        # a string would otherwise be read one character at a time
        if not isinstance(custom[key], list):
            raise ConfigError(f"custom.{key}", f"expected a list, got {custom[key]!r}")
    # an ASCII identifier, [A-Za-z_][A-Za-z0-9_]*: a symbol such as "1", "a*b"
    # or "q^2" would read back as another monomial
    for sym in custom["symbols"]:
        if not (isinstance(sym, str) and sym.isascii() and sym.isidentifier()):
            raise ConfigError("custom.symbols", f"symbol {sym!r} is not an identifier")
    try:
        lat = ParameterLattice(custom["symbols"])
    except ValueError as exc:
        raise ConfigError("custom.symbols", str(exc)) from exc

    # each distinct string is parsed once; each row's strings are kept, with
    # the places of those that are not canonical, so that spec_to_config
    # writes a row back as read and renders only those places
    seen: dict[str, SparseVector] = {}
    odd: set[str] = set()
    texts: list[tuple[tuple[str, ...], tuple[int, ...]]] = []

    def read(key: str, row, i=None) -> list[SparseVector]:
        """The vectors of custom.q or custom.p (i None) or of row i of
        custom.gamma; the field name of an entry is built only for a fault."""
        out = []
        for j, text in enumerate(row):
            try:
                v = seen.get(text)
            except TypeError:  # an unhashable entry, no string
                v = None
            if v is None:
                if not isinstance(text, str):
                    raise ConfigError(_field(key, i, j),
                                      f"expected a monomial string, got {text!r}")
                try:
                    v, canonical = parse_exponents(lat, text)
                except (KeyError, ValueError) as exc:
                    raise ConfigError(_field(key, i, j), str(exc)) from exc
                seen[text] = v
                if not canonical:
                    odd.add(text)
            out.append(v)
        places = () if not odd or odd.isdisjoint(row) else tuple(
            j for j, text in enumerate(row) if text in odd)
        texts.append((tuple(row), places))
        return out

    if len(custom["q"]) != n or len(custom["p"]) != n:
        raise ConfigError("custom.q", "need exactly n entries in custom.q and custom.p")
    qs = read("q", custom["q"])
    ps = read("p", custom["p"])
    g = custom["gamma"]
    for i, row in enumerate(g):
        if not isinstance(row, list):
            raise ConfigError(f"custom.gamma[{i}]", f"expected a list, got {row!r}")
    if len(g) != n or any(len(row) != n for row in g):
        raise ConfigError("custom.gamma", "need a full n x n matrix of monomial strings")
    gamma = [read("gamma", row, i) for i, row in enumerate(g)]
    return AlgebraSpec(n, "custom", lat, qs, ps, gamma, tuple(texts))


def _field(key: str, i, j: int) -> str:
    """The name of entry j of custom.q or custom.p (i None), or of entry
    [i][j] of custom.gamma."""
    return f"custom.{key}[{j}]" if i is None else f"custom.{key}[{i}][{j}]"


# -- the swap monomial -------------------------------------------------------

def _combine(terms) -> SparseVector:
    """The sparse vector sum f*v over the (f, v) of terms."""
    acc: dict[int, int] = {}
    for f, v in terms:
        for c, e in v:
            acc[c] = acc.get(c, 0) + f * e
    return tuple(sorted((c, e) for c, e in acc.items() if e))


def _swap_exponents(q, p, gamma, i: int, j: int, vi: str, vj: str) -> SparseVector:
    """Exponents of lam with V_i V_j = lam V_j V_i, for 0-based i > j, from
    the vectors of spec.exponents; V_i is x_i or y_i as vi is "x" or "y":
    y_i y_j -> g_ij, x_i y_j -> q_j g_ij^-1, y_i x_j -> p_i^-1 g_ji and
    x_i x_j -> q_j^-1 p_i g_ij.  No partial product is formed, so packing
    lam overflows only when its own exponents leave the field.
    """
    if vi == "y":
        if vj == "y":
            return gamma[i][j]
        return _combine(((-1, p[i]), (1, gamma[j][i])))
    if vj == "y":
        return _combine(((1, q[j]), (-1, gamma[i][j])))
    return _combine(((-1, q[j]), (1, p[i]), (1, gamma[i][j])))


# -- Casimir elements and the iterated construction -------------------------

def casimir(spec: AlgebraSpec, i: int):
    """The normal element z_i = sum_{l<=i} (q_l - p_l) y_l x_l as a PBW element."""
    from .pbw import PBWElement

    if not 1 <= i <= spec.n:
        raise ValueError(f"casimir index {i} out of range 1..{spec.n}")
    terms = {}
    for l in range(1, i + 1):
        exps = [0] * (2 * spec.n)
        exps[spec.y_index(l)] = 1
        exps[spec.x_index(l)] = 1
        terms[tuple(exps)] = spec.q[l - 1] - spec.p[l - 1]
    return PBWElement(spec.n, terms)


@dataclass
class AmbiskewStep:
    """Data of the extension step adjoining (y_{m+1}, x_{m+1}).

    alpha/beta multipliers are indexed by generator slot 0..2m-1; beta is
    derived multiplierwise as (conjugation by the normal element) * alpha^{-1}.
    The normal element u = z_m / c with c = p_{m+1} - q_{m+1} is not in the
    coefficient ring, so only c is carried; z_m is casimir(spec, m).
    """

    m: int
    rho: Scalar
    alpha: tuple[Scalar, ...]
    beta: tuple[Scalar, ...]
    c: Scalar

    def beta_on_x(self, i: int) -> Scalar:
        return self.beta[2 * (i - 1) + 1]

    def beta_on_y(self, i: int) -> Scalar:
        return self.beta[2 * (i - 1)]


def ambiskew_step(spec: AlgebraSpec, m: int) -> AmbiskewStep:
    """Extension data for step m (adjoining index m+1), 1 <= m <= n-1."""
    if not 1 <= m <= spec.n - 1:
        raise ValueError(f"ambiskew step {m} out of range 1..{spec.n - 1}")
    q, p, gamma = spec.q, spec.p, spec.gamma
    rho = q[m].inverse()
    alpha: list[Scalar] = []
    beta: list[Scalar] = []
    for i in range(1, m + 1):
        a_y = q[i - 1] * gamma[i - 1][m]
        a_x = q[i - 1].inverse() * p[m] * gamma[m][i - 1]
        # conjugation by z_m scales y_i by q_i and x_i by q_i^{-1} (i <= m)
        alpha += [a_y, a_x]
        beta += [q[i - 1] / a_y, q[i - 1].inverse() / a_x]
    return AmbiskewStep(m=m, rho=rho, alpha=tuple(alpha), beta=tuple(beta), c=p[m] - q[m])


# -- config (de)serialization ------------------------------------------------

def spec_to_config(spec: AlgebraSpec) -> dict:
    cfg: dict = {"n": spec.n, "kind": spec.kind}
    if spec.kind == "custom":
        lat = spec.lattice
        q, p, gamma = spec.exponents
        rows = (q, p, *gamma)
        if spec._texts is None:
            q, p, *gamma = ([render_sparse(lat, v) for v in row] for row in rows)
        else:
            # a row is written back as read, but for the places whose
            # string was not canonical
            q, p, *gamma = (_write_back(lat, row, read) for row, read in zip(rows, spec._texts))
        cfg["custom"] = {"symbols": list(lat.symbols), "q": q, "p": p, "gamma": gamma}
    return cfg


def _write_back(lat: ParameterLattice, row, read) -> list[str]:
    """A row of vectors as the strings it was read from, read = (strings,
    places), with render_sparse at the places whose string was not
    canonical."""
    strings, places = read
    out = list(strings)
    for j in places:
        out[j] = render_sparse(lat, row[j])
    return out


def spec_from_config(cfg: Mapping) -> AlgebraSpec:
    if not isinstance(cfg, Mapping):
        raise ConfigError("config", "top-level JSON value must be an object")
    unknown = set(cfg) - {"n", "kind", "custom"}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config field")
    if "n" not in cfg:
        raise ConfigError("n", "missing")
    n = cfg["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError("n", f"must be an integer, got {n!r}")
    if "kind" not in cfg:
        raise ConfigError("kind", "missing")
    return build_spec(n, cfg["kind"], custom=cfg.get("custom"))
