"""Sparse polynomial vector fields, dilations, Lie brackets and closures.

Coefficients are kept as exact ``Fraction``s whenever the inputs are
rational, so that linear-independence decisions in the bracket closure are
exact.  Floats only enter at evaluation time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Exponent = tuple  # tuple[int, ...] of length n
Coeff = Fraction


class DimensionMismatchError(ValueError):
    pass


class ClosureError(RuntimeError):
    """Raised when the bracket closure does not stabilize within max_depth."""


def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        return Fraction(c).limit_denominator(10**12)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c)!r}")


class Poly:
    """Sparse polynomial in n variables: {exponent tuple -> Fraction}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Coeff] | None = None):
        self.n = n
        self.terms: dict[Exponent, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_coeff(c)
                if c != 0:
                    self.terms[tuple(int(k) for k in e)] = c

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {tuple([0] * n): _as_coeff(c)})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], c=1) -> "Poly":
        return cls(n, {tuple(int(e) for e in exps): _as_coeff(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        e = [0] * n
        e[i] = 1
        return cls.monomial(n, e)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.n, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = _as_coeff(c)
        if c == 0:
            return Poly.zero(self.n)
        return Poly(self.n, {e: cc * c for e, cc in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.n, out)

    def diff(self, i: int) -> "Poly":
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Poly(self.n, out)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points; x has shape (..., n)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise DimensionMismatchError(
                f"expected last axis {self.n}, got {x.shape[-1]}")
        out = np.zeros(x.shape[:-1])
        for e, c in self.terms.items():
            term = np.full(x.shape[:-1], float(c))
            for i, k in enumerate(e):
                if k:
                    term = term * x[..., i] ** k
            out += term
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                            for i, k in enumerate(e) if k)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


@dataclass(frozen=True)
class DilationFamily:
    """Nonisotropic dilations x_i -> lambda^{sigma_i} x_i."""

    exponents: tuple

    def __post_init__(self):
        sig = tuple(int(s) for s in self.exponents)
        object.__setattr__(self, "exponents", sig)
        if not sig or sig[0] != 1:
            raise ValueError("first dilation exponent must be 1")
        if any(a > b for a, b in zip(sig, sig[1:])):
            raise ValueError("dilation exponents must be nondecreasing")
        if any(s <= 0 for s in sig):
            raise ValueError("dilation exponents must be positive")

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def homogeneous_dimension(self) -> int:
        return sum(self.exponents)

    def apply(self, lam: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scale = np.array([lam ** s for s in self.exponents])
        return x * scale

    def weight(self, exps: Sequence[int]) -> int:
        """delta-weight of the monomial with the given exponents."""
        return sum(int(e) * s for e, s in zip(exps, self.exponents))


class PolyVectorField:
    """Vector field sum_k c_k(x) d/dx_k with sparse polynomial coefficients."""

    __slots__ = ("n", "comps")

    def __init__(self, comps: Sequence[Poly]):
        comps = list(comps)
        if not comps:
            raise ValueError("empty component list")
        n = comps[0].n
        if any(p.n != n for p in comps) or len(comps) != n:
            raise DimensionMismatchError("components inconsistent with dimension")
        self.n = n
        self.comps = comps

    @classmethod
    def zero(cls, n: int) -> "PolyVectorField":
        return cls([Poly.zero(n) for _ in range(n)])

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comps)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Coefficient vector at points; shape (..., n)."""
        x = np.asarray(x, dtype=float)
        return np.stack([p(x) for p in self.comps], axis=-1)

    def apply_to(self, f: Poly) -> Poly:
        """X(f) for polynomial f (symbolic directional derivative)."""
        out = Poly.zero(self.n)
        for k, c in enumerate(self.comps):
            out = out + c * f.diff(k)
        return out

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField([p.scale(c) for p in self.comps])

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField([a - b for a, b in zip(self.comps, other.comps)])

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyVectorField) and self.comps == other.comps

    def __hash__(self):
        return hash(tuple(self.comps))

    def __repr__(self):
        terms = [f"({p})*d{k+1}" for k, p in enumerate(self.comps) if not p.is_zero()]
        return " + ".join(terms) if terms else "0"


def poly_to_sympy(p: Poly, syms) -> sp.Expr:
    """Exact conversion of a sparse Fraction polynomial to a sympy expr."""
    import sympy as sp      # only the symbolic layers need sympy
    out = sp.Integer(0)
    for e, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            if k:
                term *= s ** k
        out += term
    return out


def word_apply_sympy(system, word, expr: sp.Expr, syms) -> sp.Expr:
    """X_{w1} X_{w2} ... X_{wk} expr, the rightmost field applied first.

    system is anything with a ``fields`` list of PolyVectorFields (a
    HormanderSystem or a lift).  The result is not expanded: callers that
    substitute into it (the central coordinate of the Heisenberg lift)
    rely on the unexpanded form to avoid cancellation.
    """
    import sympy as sp
    for j in reversed(word):
        expr = sum(poly_to_sympy(c, syms) * sp.diff(expr, s)
                   for c, s in zip(system.fields[j].comps, syms)
                   if not c.is_zero())
    return expr


def lie_bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    """[X, Y] = X(Y-coefficients) - Y(X-coefficients), exact."""
    if X.n != Y.n:
        raise DimensionMismatchError("bracket of fields on different spaces")
    return PolyVectorField(
        [X.apply_to(Y.comps[k]) - Y.apply_to(X.comps[k]) for k in range(X.n)])


@dataclass
class HormanderSystem:
    name: str
    fields: list
    dilations: DilationFamily

    @property
    def n(self) -> int:
        return self.dilations.n

    @property
    def m(self) -> int:
        return len(self.fields)

    @property
    def q(self) -> int:
        return self.dilations.homogeneous_dimension


@dataclass
class HomogeneityReport:
    passed: bool
    failures: list  # (field index, component, exponent tuple, weight, expected)

    def __bool__(self):
        return self.passed


def check_homogeneity(sys: HormanderSystem) -> HomogeneityReport:
    """Each monomial of the k-th coefficient must have weight sigma_k - 1."""
    failures = []
    sig = sys.dilations.exponents
    for fi, X in enumerate(sys.fields):
        for k, poly in enumerate(X.comps):
            want = sig[k] - 1
            for e in poly.terms:
                w = sys.dilations.weight(e)
                if w != want:
                    failures.append((fi, k, e, w, want))
    return HomogeneityReport(passed=not failures, failures=failures)


@dataclass
class LieClosure:
    basis: list                 # PolyVectorField, deterministic order
    words: list                 # bracket words (tuples of generator indices)
    system: HormanderSystem

    @property
    def N(self) -> int:
        return len(self.basis)

    @property
    def p(self) -> int:
        return self.N - self.system.n


def _independent(basis: list, X: PolyVectorField) -> bool:
    """True when X lies outside the span of the independent fields in
    basis: the exact rank of their coefficient rows exceeds len(basis)."""
    import sympy as sp
    rows = [{(k, e): c for k, p in enumerate(Y.comps)
             for e, c in p.terms.items()} for Y in basis + [X]]
    keys = sorted(set().union(*rows))
    return sp.Matrix([[r.get(key, 0) for key in keys]
                      for r in rows]).rank() == len(rows)


def lie_closure(sys: HormanderSystem, max_depth: int | None = None) -> LieClosure:
    """Breadth-first left-normed bracket closure with exact span decisions.

    Depth-d brackets of 1-homogeneous fields are d-homogeneous, hence vanish
    for d > sigma_n; max_depth defaults to sigma_n + 1 as a certificate.
    A bracket deeper than max_depth that is independent of the basis is
    leftover, and any leftover raises ClosureError.
    """
    if max_depth is None:
        max_depth = sys.dilations.exponents[-1] + 1
    basis: list[PolyVectorField] = []
    words: list[tuple] = []
    leftover: list[tuple] = []
    level = [((j,), X) for j, X in enumerate(sys.fields)]
    for depth in range(1, max_depth + 2):
        frontier = [(w, X) for w, X in level if not X.is_zero()]
        for w, X in frontier:
            if _independent(basis, X):
                if depth > max_depth:
                    leftover.append(w)
                else:
                    basis.append(X)
                    words.append(w)
        level = ((w + (j,), lie_bracket(X, G)) for w, X in frontier
                 for j, G in enumerate(sys.fields))
    if leftover:
        raise ClosureError(
            f"closure not reached at max_depth={max_depth}: {leftover}")
    return LieClosure(basis=basis, words=words, system=sys)


def hormander_rank(closure: LieClosure, point) -> int:
    """Rank of the basis-value matrix at the point (relative singular values)."""
    pt = np.asarray(point, dtype=float)
    M = np.stack([X.value(pt) for X in closure.basis])
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def grushin(k: int) -> HormanderSystem:
    """X1 = d1, X2 = x1^k d2 with dilations (lambda, lambda^{k+1})."""
    if k < 1:
        raise ValueError("k >= 1 required")
    n = 2
    X1 = PolyVectorField([Poly.constant(n, 1), Poly.zero(n)])
    X2 = PolyVectorField([Poly.zero(n), Poly.monomial(n, (k, 0))])
    return HormanderSystem(name=f"grushin{k}", fields=[X1, X2],
                           dilations=DilationFamily(tuple([1, k + 1])))


def example2(n: int) -> HormanderSystem:
    """X1 = d1, X2 = x1 d2 + x2 d3 + ... + x_{n-1} dn, sigma = (1..n)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    X1 = PolyVectorField([Poly.constant(n, 1)] + [Poly.zero(n)] * (n - 1))
    comps = [Poly.zero(n)]
    for k in range(1, n):
        e = [0] * n
        e[k - 1] = 1
        comps.append(Poly.monomial(n, e))
    X2 = PolyVectorField(comps)
    return HormanderSystem(name=f"example2_{n}", fields=[X1, X2],
                           dilations=DilationFamily(tuple(range(1, n + 1))))


def example3() -> HormanderSystem:
    """X1 = d1, X2 = x1 d2 + x1^2 d3 on R^3, sigma = (1,2,3)."""
    n = 3
    X1 = PolyVectorField([Poly.constant(n, 1), Poly.zero(n), Poly.zero(n)])
    X2 = PolyVectorField([Poly.zero(n), Poly.monomial(n, (1, 0, 0)),
                          Poly.monomial(n, (2, 0, 0))])
    return HormanderSystem(name="example3", fields=[X1, X2],
                           dilations=DilationFamily((1, 2, 3)))


def example4(n: int) -> HormanderSystem:
    """X1 = d1, X2 = sum_j x1^{j-1} d_j (j=2..n), sigma = (1..n)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    X1 = PolyVectorField([Poly.constant(n, 1)] + [Poly.zero(n)] * (n - 1))
    comps = [Poly.zero(n)]
    for j in range(2, n + 1):
        e = [0] * n
        e[0] = j - 1
        comps.append(Poly.monomial(n, e))
    X2 = PolyVectorField(comps)
    return HormanderSystem(name=f"example4_{n}", fields=[X1, X2],
                           dilations=DilationFamily(tuple(range(1, n + 1))))


_CATALOG = {
    "grushin1": lambda: grushin(1),
    "grushin2": lambda: grushin(2),
    "example2_3": lambda: example2(3),
    "example3": example3,
    "example4_3": lambda: example4(3),
}


def catalog_names() -> list:
    return sorted(_CATALOG)


def load_system(name: str) -> HormanderSystem:
    try:
        return _CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown catalog system {name!r}; "
                       f"known: {', '.join(catalog_names())}") from None


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def system_to_json(sys: HormanderSystem) -> dict:
    fields = []
    for X in sys.fields:
        entries = []
        for k, poly in enumerate(X.comps):
            for e, c in poly.terms.items():
                entries.append({"component": k, "monomial": list(e),
                                "coeff": str(c)})
        fields.append(entries)
    return {"name": sys.name, "n": sys.n, "m": sys.m,
            "sigma": list(sys.dilations.exponents), "fields": fields}


def system_from_json(doc: dict) -> HormanderSystem:
    n = int(doc["n"])
    dil = DilationFamily(tuple(doc["sigma"]))
    if dil.n != n:
        raise ValueError("sigma length differs from n")
    fields = []
    for entries in doc["fields"]:
        comps = [Poly.zero(n) for _ in range(n)]
        for ent in entries:
            k = int(ent["component"])
            comps[k] = comps[k] + Poly.monomial(n, ent["monomial"], ent["coeff"])
        fields.append(PolyVectorField(comps))
    if "m" in doc and int(doc["m"]) != len(fields):
        raise ValueError("declared m differs from number of fields")
    return HormanderSystem(name=doc.get("name", "unnamed"), fields=fields,
                           dilations=dil)


def load_system_file(path) -> HormanderSystem:
    with open(path) as fh:
        return system_from_json(json.load(fh))
