"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fractions,
together with the tuple of variable names that fixes the ring.  Instances
are treated as immutable; arithmetic returns new objects.

Three variable contexts are used by the ring-algebra layer:

    VARS_BASE   X0 X1 X2 X0* X1* X2*
    VARS_TOTAL  VARS_BASE + U          (total grading)
    VARS_BI     X0 X1 X2 V X0* X1* X2* V*   (double grading)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

__all__ = [
    "MPoly",
    "VARS_BASE",
    "VARS_TOTAL",
    "VARS_BI",
    "monomials_of_degree",
    "count_monomials",
]

VARS_BASE = ("X0", "X1", "X2", "X0*", "X1*", "X2*")
VARS_TOTAL = VARS_BASE + ("U",)
VARS_BI = ("X0", "X1", "X2", "V", "X0*", "X1*", "X2*", "V*")


def _coef(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class MPoly:
    __slots__ = ("names", "terms")

    def __init__(self, names: tuple[str, ...], terms: dict | None = None):
        self.names = names
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
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
        return cls(names, {(0,) * len(names): _coef(c)})

    @classmethod
    def variable(cls, names, name: str) -> "MPoly":
        e = [0] * len(names)
        e[names.index(name)] = 1
        return cls(names, {tuple(e): Fraction(1)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, positions) -> int:
        """Max over terms of the exponent sum on the given variable slots."""
        if not self.terms:
            return 0
        return max(sum(e[p] for p in positions) for e in self.terms)

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

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

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
            v = terms.get(e, Fraction(0)) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
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
            c = _coef(other)
            if not c:
                return MPoly(self.names)
            return MPoly(self.names, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Fraction(0)) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
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

    # -- evaluation and mapping ----------------------------------------------

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

    def map_to(self, names2: tuple[str, ...]) -> "MPoly":
        """Embed into a ring whose variable set contains this one's."""
        idx = [names2.index(nm) for nm in self.names]
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            e2 = [0] * len(names2)
            for p, v in zip(idx, e):
                e2[p] = v
            out[tuple(e2)] = c
        return MPoly(names2, out)

    def homogenize(self, blocks) -> "MPoly":
        """Pad every term up to a degree per block of variable slots.

        `blocks` holds (homogenizer, slots, degree) triples: each term gains
        the power of the homogenizer that brings its exponent sum over the
        slots to the degree.
        """
        pads = [(self.names.index(var), slots, d) for var, slots, d in blocks]
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            e2 = list(e)
            for p, slots, d in pads:
                deg = sum([e[q] for q in slots])
                if deg > d:
                    raise ValueError("degree already exceeds the target")
                e2[p] += d - deg
            key = tuple(e2)
            out[key] = out[key] + c if key in out else c
        return MPoly(self.names, out)

    # -- canonical form -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
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


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree exactly d, lexicographic order.

    Stars-and-bars: positions of nvars-1 separators among d + nvars - 1 slots.
    """
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for cuts in combinations(range(d + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for c in cuts:
            exps.append(c - prev - 1)
            prev = c
        exps.append(d + nvars - 2 - prev)
        out.append(tuple(exps))
    return out


def count_monomials(nvars: int, d: int) -> int:
    if d < 0:
        return 0
    from math import comb

    return comb(d + nvars - 1, nvars - 1)
