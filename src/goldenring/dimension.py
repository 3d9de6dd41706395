"""Dimension growth of value-bounded graded subspaces.

The subspace attached to a degree bound d and a cutoff delta is spanned
by the family members whose ring element has value at most delta.  Each
degree bound has one cached value table, built from two independent
enumerations (quads against the degree window, and ring elements with
their maximal sizes) that are cross-checked element by element, so the two
counts agree at every cutoff.  A cutoff is then one exact bisection of the
table, and its dimension is compared with the expected (d*delta)^(3/2)
scale through certified rational interval arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundExceeded, VerificationError
from .golden import GoldenInt, GoldenRational, fib
from .intervals import RationalInterval, three_halves_interval
from .quads import Quad, elements_up_to_degree, max_size_for_degree

__all__ = [
    "GROWTH_DEGREE_BOUND",
    "DimensionReport",
    "growth_dimension",
    "ScalingRow",
    "ScalingReport",
    "scaling_report",
]

GROWTH_DEGREE_BOUND = 12

# (d * delta)^(3/2) needs gamma^3 when delta is a gamma multiple; interval
# bounds are produced at this precision
_BITS = 96


@dataclass(frozen=True)
class DimensionReport:
    """Dimension of one value-bounded subspace with its scale ratios."""

    d: int
    delta: GoldenRational
    dim: int
    # (quad, weight) pairs actually counted, ordered by (i, a, b, c)
    contributing: tuple
    scale: RationalInterval  # encloses (d * delta)^(3/2)
    ratio: RationalInterval  # encloses dim / scale
    ratio_upper: RationalInterval  # encloses (dim - 1) / scale


def _window_quads(d: int) -> list:
    """(quad, weight) for every quad in the degree window, in (i, a, b, c) order.

    For each index i the window d - 2 f(i+1) < degree <= d admits at most
    two b values per (a, c); each nonzero ring element under the bound
    owns exactly one quad in the window.
    """
    out = []
    i = 0
    while fib(i) <= d:
        fi, fi1, fi2 = fib(i), fib(i + 1), fib(i + 2)
        window_lo = d - 2 * fi1
        a = 1
        while a * fi <= d:
            c = 0
            while a * fi + c * fi2 <= d:
                base = a * fi + c * fi2
                b_min = max(0, (window_lo - base) // fi1 + 1)
                b_max = (d - base) // fi1
                for b in range(b_min, b_max + 1):
                    q = Quad(i, a, b, c)
                    out.append((q, 2 * q.size + 1))
                c += 1
            a += 1
        i += 1
    out.sort(key=lambda qw: (qw[0].i, qw[0].a, qw[0].b, qw[0].c))
    return out


# a sort key only: every order it suggests is confirmed by exact comparisons
_INV_GAMMA = (5**0.5 - 1) / 2


def _approx(alpha: GoldenInt) -> float:
    return alpha.m + alpha.n * _INV_GAMMA


@dataclass(frozen=True)
class _ValueTable:
    """What every cutoff at one degree bound needs, built once."""

    quads: tuple  # (quad, weight) in (i, a, b, c) order
    ranks: tuple  # ranks[k]: position of quads[k] in increasing value order
    values: tuple  # the quad values in increasing order
    prefix: tuple  # prefix[r]: 1 + the weights of the r smallest values


@functools.cache
def _value_table(d: int) -> _ValueTable:
    """The value table of degree bound d, cross-checked at every cutoff.

    The quad values sorted by value must equal the nonzero elements of
    degree <= d sorted by value, pair by pair, and each quad's weight must
    be the element's 2 * max_size_for_degree + 1 (the zero element owns
    weight 1 and no quad).  Then the two counts agree at every cutoff.
    """
    quads = _window_quads(d)
    quad_values = [q.value() for q, _ in quads]
    order = sorted(range(len(quads)), key=lambda k: _approx(quad_values[k]))
    elements = sorted(elements_up_to_degree(d), key=_approx)
    for lo, hi in zip(elements, elements[1:]):
        if lo.compare(hi) >= 0:
            raise VerificationError(f"elements of degree <= {d} not strictly ordered")
    if len(elements) != len(quads) + 1 or not elements[0].is_zero():
        raise VerificationError(
            f"{len(quads)} quads for {len(elements)} elements of degree <= {d}"
        )
    weights = [1] + [quads[k][1] for k in order]
    values = [GoldenInt.zero()] + [quad_values[k] for k in order]
    for alpha, value, weight in zip(elements, values, weights):
        if alpha != value:
            raise VerificationError(f"quad value {value} where element {alpha} belongs")
        check = 2 * max_size_for_degree(alpha, d) + 1
        if weight != check:
            raise VerificationError(
                f"dimension mismatch at {alpha}: quads give {weight}, elements give {check}"
            )
    ranks = [0] * len(quads)
    for r, k in enumerate(order):
        ranks[k] = r
    return _ValueTable(
        quads=tuple(quads),
        ranks=tuple(ranks),
        values=tuple(values[1:]),
        prefix=tuple(itertools.accumulate(weights)),
    )


def growth_dimension(d: int, delta) -> DimensionReport:
    """Dimension of the subspace for degree bound d and value cutoff delta.

    delta may be a Fraction-like rational or a GoldenRational (for exact
    gamma-multiple grids); it must satisfy 0 < delta <= gamma * d.
    """
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    if d > GROWTH_DEGREE_BOUND:
        raise BoundExceeded(f"degree bound {d} exceeds {GROWTH_DEGREE_BOUND}")
    cutoff = GoldenRational.from_rational(delta)
    if cutoff.sign() <= 0:
        raise ValueError("cutoff must be positive")
    if cutoff.compare(GoldenInt(d, d)) > 0:
        raise ValueError("cutoff exceeds gamma * d")

    table = _value_table(d)
    # exact bisection: lo ends as the number of quad values <= cutoff
    lo, hi = 0, len(table.values)
    while lo < hi:
        mid = (lo + hi) // 2
        if cutoff.compare(table.values[mid]) >= 0:
            lo = mid + 1
        else:
            hi = mid
    dim = table.prefix[lo]
    contributing = tuple(qw for qw, r in zip(table.quads, table.ranks) if r < lo)

    d_delta = GoldenRational(cutoff.num * d, cutoff.den)
    scale = three_halves_interval(RationalInterval.of_golden(d_delta, _BITS), _BITS)
    ratio = RationalInterval.point(dim) / scale
    ratio_upper = RationalInterval.point(dim - 1) / scale
    return DimensionReport(
        d=d,
        delta=cutoff,
        dim=dim,
        contributing=contributing,
        scale=scale,
        ratio=ratio,
        ratio_upper=ratio_upper,
    )


@dataclass(frozen=True)
class ScalingRow:
    d: int
    fraction: Fraction  # delta = fraction * gamma * d
    delta: GoldenRational
    dim: int
    ratio: RationalInterval
    ratio_upper: RationalInterval


@dataclass(frozen=True)
class ScalingReport:
    """Ratio band over a (d, delta) grid of gamma-multiple cutoffs."""

    rows: tuple
    ratio_low: Fraction
    ratio_high: Fraction
    upper_low: Fraction
    upper_high: Fraction

    def band_width(self) -> Fraction:
        return self.ratio_high - self.ratio_low


_DEFAULT_DEGREES = tuple(range(2, 11))
_DEFAULT_FRACTIONS = (
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
)


def scaling_report(degrees=None, fractions=None) -> ScalingReport:
    """Sweep cutoffs delta = fraction * gamma * d over a degree grid.

    Every cutoff is an exact gamma multiple, so the comparisons behind
    each dimension are exact; the reported band is a certified enclosure
    of all dim / (d*delta)^(3/2) ratios on the grid.
    """
    degrees = _DEFAULT_DEGREES if degrees is None else tuple(degrees)
    fractions = (
        _DEFAULT_FRACTIONS if fractions is None else tuple(Fraction(f) for f in fractions)
    )
    rows = []
    for d in degrees:
        for frac in fractions:
            delta = GoldenRational.golden_multiple(frac * d)
            rep = growth_dimension(d, delta)
            rows.append(
                ScalingRow(
                    d=d,
                    fraction=frac,
                    delta=delta,
                    dim=rep.dim,
                    ratio=rep.ratio,
                    ratio_upper=rep.ratio_upper,
                )
            )
    if not rows:
        raise ValueError("empty grid")
    return ScalingReport(
        rows=tuple(rows),
        ratio_low=min(r.ratio.lo for r in rows),
        ratio_high=max(r.ratio.hi for r in rows),
        upper_low=min(r.ratio_upper.lo for r in rows),
        upper_high=max(r.ratio_upper.hi for r in rows),
    )
