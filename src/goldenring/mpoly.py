"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero rational
coefficients, together with the tuple of variable names that fixes the
ring.  Each coefficient has one canonical form: an int when it is
integral, a Fraction (with denominator > 1) otherwise.  The constructor
is the one place that normalises.  So arithmetic on integer polynomials
runs on ints, and a product multiplies the integer parts of its factors
(their terms times the lcm of their denominators) and divides each term
once.  Instances are treated as immutable; arithmetic returns new
objects.

The ring-algebra layer works in one variable context, the six germ
coordinates

    VARS_BASE   X0 X1 X2 X0* X1* X2*

and indexes the graded pieces of its quotient by the monomials of
bounded degree in them, which it lists as row keys itself
(`ringalg._block_keys`).  The enumerations here (`monomials_up_to_degree`,
`monomials_of_degree`) do not build those rows; the tests use them as the
rows' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import add

__all__ = [
    "MPoly",
    "VARS_BASE",
    "monomials_of_degree",
    "monomials_up_to_degree",
    "count_monomials",
]

VARS_BASE = ("X0", "X1", "X2", "X0*", "X1*", "X2*")


def _coef(x) -> int | Fraction:
    """The canonical form of a rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _integer_part(terms: dict) -> tuple[dict, int]:
    """(integer terms, d) with terms = integer terms / d, d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in terms.values()))
    if d == 1:
        return terms, 1
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


class MPoly:
    __slots__ = ("names", "terms")

    def __init__(self, names: tuple[str, ...], terms: dict | None = None):
        self.names = names
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    c = _coef(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, names) -> "MPoly":
        return cls(names)

    @classmethod
    def const(cls, names, c) -> "MPoly":
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def variable(cls, names, name: str) -> "MPoly":
        e = [0] * len(names)
        e[names.index(name)] = 1
        return cls(names, {tuple(e): 1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def block_degrees(self, block1, block2) -> tuple[tuple[int, int], bool]:
        """((deg in block1, deg in block2), homogeneous-in-both?)."""
        pairs = {
            (sum(e[p] for p in block1), sum(e[p] for p in block2))
            for e in self.terms
        }
        if not pairs:
            return (0, 0), True
        if len(pairs) == 1:
            return next(iter(pairs)), True
        return (
            max(p[0] for p in pairs),
            max(p[1] for p in pairs),
        ), False

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.names != other.names:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.names, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.names, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.names, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.names, {e: v * other for e, v in self.terms.items()})
        self._check(other)
        # the product of the integer parts, divided once by the product of
        # the denominators
        left, d1 = _integer_part(self.terms)
        right, d2 = _integer_part(other.terms)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        if d1 * d2 != 1:
            out = {e: Fraction(c, d1 * d2) for e, c in out.items()}
        return MPoly(self.names, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(self.names, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.names == other.names
            and self.terms == other.terms
        )

    __hash__ = None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, values) -> Fraction:
        """Exact value at a full assignment (one number per variable)."""
        if len(values) != len(self.names):
            raise ValueError("wrong number of values")
        vals = [_coef(v) for v in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                if k:
                    t *= v**k
            total += t
        return total

    # -- canonical form -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Terms sorted by graded lexicographic order, largest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if factors:
                parts.append(f"{c} * " + " ".join(factors))
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def monomials_up_to_degree(nvars: int, d: int):
    """All exponent tuples of total degree at most d, one at a time.

    They come in the order of `monomials_of_degree(nvars + 1, d)` with the
    last exponent dropped, which is lexicographic: the dropped exponent is
    d minus the rest, so setting that variable to 1 is a bijection.
    """
    if d < 0:
        return
    # stars and bars: positions of nvars separators among d + nvars slots
    for cuts in combinations(range(d + nvars), nvars):
        exps = []
        prev = -1
        for c in cuts:
            exps.append(c - prev - 1)
            prev = c
        yield tuple(exps)


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree exactly d, lexicographic order."""
    if nvars == 0:
        return [()] if d == 0 else []
    return [m + (d - sum(m),) for m in monomials_up_to_degree(nvars - 1, d)]


def count_monomials(nvars: int, d: int) -> int:
    if d < 0:
        return 0
    return comb(d + nvars - 1, nvars - 1)
