"""Algebra specifications and their defining relation data.

An AlgebraSpec fixes n, the parameter lattice, and the monomial parameter
values q_i, p_i, gamma_ij.  Generators are ordered

    y1 < x1 < y2 < x2 < ... < yn < xn

and indexed 0..2n-1 (y_i at 2i-2, x_i at 2i-1, 1-based i), matching the
ordered-monomial basis y1^a1 x1^b1 ... yn^an xn^bn.

The rewrite table maps each out-of-order adjacent generator pair (g, h) to
the normal form of g*h.  All pairs rewrite to a single scaled monomial
except (x_i, y_i), which also emits the lower-index terms of the Casimir
element z_{i-1} = sum_{l<i} (q_l - p_l) y_l x_l (with z_0 = 0, i.e. no
extra term for i = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .scalars import ParameterLattice, Scalar, parse_monomial, render_exponents

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


class ConfigError(ValueError):
    """Invalid spec data; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class AlgebraSpec:
    """n, parameter lattice, and the monomial parameters (Q, P, Gamma)."""

    def __init__(
        self,
        n: int,
        kind: str,
        lattice: ParameterLattice,
        q: Sequence[Scalar],
        p: Sequence[Scalar],
        gamma: Sequence[Sequence[Scalar]],
    ):
        self.n = n
        self.kind = kind
        self.lattice = lattice
        self.q = tuple(q)
        self.p = tuple(p)
        self.gamma = tuple(tuple(row) for row in gamma)
        _validate(self)
        # built on first use by rule_table, pbw._packed_rules and
        # torus.standard_torus
        self._rule_table: dict | None = None
        self._packed_rules: list | None = None
        self._standard_torus = None

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
        if kind not in ("x", "y") or not num.isdigit():
            raise ConfigError("word", f"unknown generator {name!r}")
        i = int(num)
        if not 1 <= i <= self.n:
            raise ConfigError("word", f"generator index out of range in {name!r}")
        return self.x_index(i) if kind == "x" else self.y_index(i)

    def __repr__(self) -> str:
        return f"AlgebraSpec(n={self.n}, kind={self.kind!r})"


def _validate(spec: AlgebraSpec) -> None:
    n = spec.n
    if len(spec.q) != n or len(spec.p) != n:
        raise ConfigError("q/p", "need exactly n entries")
    if len(spec.gamma) != n or any(len(row) != n for row in spec.gamma):
        raise ConfigError("gamma", "need a full n x n matrix")
    one = spec.lattice.one()
    for i in range(n):
        for seq, fld in ((spec.q, "q"), (spec.p, "p")):
            if seq[i].as_monomial() is None:
                raise ConfigError(f"{fld}[{i}]", "parameter must be a monomial")
        if spec.gamma[i][i] != one:
            raise ConfigError(f"gamma[{i}][{i}]", "diagonal must be 1")
        for j in range(n):
            if spec.gamma[i][j].as_monomial() is None:
                raise ConfigError(f"gamma[{i}][{j}]", "entry must be a monomial")
            if spec.gamma[i][j] * spec.gamma[j][i] != one:
                raise ConfigError(
                    f"gamma[{i}][{j}]", "matrix must be multiplicatively antisymmetric"
                )
        ratio = (spec.p[i] / spec.q[i]).as_monomial()
        if ratio is None or not any(ratio):
            raise ConfigError(
                f"p[{i}]",
                "p_i must differ from q_i by a non-torsion monomial",
            )


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

    if kind in SINGLE_PARAMETER_KINDS:
        lat = ParameterLattice(["q"])
        s = {"symplectic": (0, -2, 1), "euclidean": (-2, 0, -1), "heisenberg": (2, 0, 1)}
        p_pow, q_pow, g_pow = s[kind]
        qs = [lat.monomial({"q": q_pow}) for _ in range(n)]
        ps = [lat.monomial({"q": p_pow}) for _ in range(n)]
        gamma = _antisymmetric(
            lat, n, lambda i, j: lat.monomial({"q": g_pow})
        )
        return AlgebraSpec(n, kind, lat, qs, ps, gamma)

    symbols = []
    if kind in ("generic", "generic-p1", "graded-weyl"):
        symbols += [f"q{i}" for i in range(1, n + 1)]
    if kind in ("generic", "generic-q1"):
        symbols += [f"p{i}" for i in range(1, n + 1)]
    symbols += [f"g{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    lat = ParameterLattice(symbols)
    one = lat.one()
    if kind in ("generic", "generic-p1", "graded-weyl"):
        qs = [lat.symbol(f"q{i}") for i in range(1, n + 1)]
    else:
        qs = [one] * n
    if kind in ("generic", "generic-q1"):
        ps = [lat.symbol(f"p{i}") for i in range(1, n + 1)]
    else:
        ps = [one] * n
    gamma = _antisymmetric(lat, n, lambda i, j: lat.symbol(f"g{i}{j}"))
    return AlgebraSpec(n, kind, lat, qs, ps, gamma)


def _antisymmetric(lat, n, upper) -> list[list[Scalar]]:
    """Fill an n x n multiplicatively antisymmetric matrix from upper(i, j), i < j (1-based)."""
    rows = [[lat.one() for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = upper(i, j)
            rows[i - 1][j - 1] = v
            rows[j - 1][i - 1] = v.inverse()
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

    def mono(field: str, text) -> Scalar:
        if not isinstance(text, str):
            raise ConfigError(field, f"expected a monomial string, got {text!r}")
        try:
            return parse_monomial(lat, text)
        except (KeyError, ValueError) as exc:
            raise ConfigError(field, str(exc)) from exc

    if len(custom["q"]) != n or len(custom["p"]) != n:
        raise ConfigError("custom.q", "need exactly n entries in custom.q and custom.p")
    qs = [mono(f"custom.q[{i}]", custom["q"][i]) for i in range(n)]
    ps = [mono(f"custom.p[{i}]", custom["p"][i]) for i in range(n)]
    g = custom["gamma"]
    for i, row in enumerate(g):
        if not isinstance(row, list):
            raise ConfigError(f"custom.gamma[{i}]", f"expected a list, got {row!r}")
    if len(g) != n or any(len(row) != n for row in g):
        raise ConfigError("custom.gamma", "need a full n x n matrix of monomial strings")
    gamma = [[mono(f"custom.gamma[{i}][{j}]", g[i][j]) for j in range(n)] for i in range(n)]
    return AlgebraSpec(n, "custom", lat, qs, ps, gamma)


# -- rewrite rules ----------------------------------------------------------

def rule_table(spec: AlgebraSpec) -> dict[tuple[int, int], list[tuple[Scalar, tuple[int, ...]]]]:
    """Map (g, h) with g > h to the rewrite of g*h as [(coeff, word), ...].

    Words in the output are in normal order.  Cached on the spec.
    """
    if spec._rule_table is not None:
        return spec._rule_table
    n = spec.n
    q, p, gamma = spec.q, spec.p, spec.gamma
    table: dict[tuple[int, int], list[tuple[Scalar, tuple[int, ...]]]] = {}
    for i in range(1, n + 1):
        xi, yi = spec.x_index(i), spec.y_index(i)
        # x_i y_i = q_i y_i x_i + z_{i-1}
        rhs = [(q[i - 1], (yi, xi))]
        for l in range(1, i):
            rhs.append((q[l - 1] - p[l - 1], (spec.y_index(l), spec.x_index(l))))
        table[(xi, yi)] = rhs
        for j in range(1, i):
            xj, yj = spec.x_index(j), spec.y_index(j)
            gij = gamma[i - 1][j - 1]
            gji = gamma[j - 1][i - 1]
            table[(yi, yj)] = [(gij, (yj, yi))]
            table[(xi, xj)] = [(q[j - 1].inverse() * p[i - 1] * gij, (xj, xi))]
            table[(xi, yj)] = [(q[j - 1] * gij.inverse(), (yj, xi))]
            table[(yi, xj)] = [(p[i - 1].inverse() * gji, (xj, yi))]
    spec._rule_table = table
    return table


@dataclass
class RewriteRule:
    """One generator pair (g, h), g right of h in PBW order, and the normal form of g*h."""

    left: tuple[str, str]
    result: "object"  # PBWElement

    def __repr__(self) -> str:
        return f"RewriteRule({self.left[0]}*{self.left[1]} -> {self.result})"


def rewrite_rules(spec: AlgebraSpec) -> list[RewriteRule]:
    """One rule per unordered generator pair, as PBW elements."""
    from .pbw import PBWElement, word_monomial

    rules = []
    for (g, h), rhs in sorted(rule_table(spec).items()):
        terms = {}
        for coeff, word in rhs:
            terms[word_monomial(spec, word)] = coeff
        rules.append(
            RewriteRule(
                left=(spec.gen_name(g), spec.gen_name(h)),
                result=PBWElement(spec.n, terms),
            )
        )
    return rules


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

    def alpha_on_x(self, i: int) -> Scalar:
        return self.alpha[2 * (i - 1) + 1]

    def alpha_on_y(self, i: int) -> Scalar:
        return self.alpha[2 * (i - 1)]

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
        cfg["custom"] = {
            "symbols": list(lat.symbols),
            "q": [render_exponents(lat, s.as_monomial()) for s in spec.q],
            "p": [render_exponents(lat, s.as_monomial()) for s in spec.p],
            "gamma": [
                [render_exponents(lat, s.as_monomial()) for s in row]
                for row in spec.gamma
            ],
        }
    return cfg


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
