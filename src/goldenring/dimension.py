"""Dimension growth of value-bounded graded subspaces.

The subspace attached to a degree bound d and a cutoff delta is spanned
by the family members whose ring element has value at most delta.  Each
degree bound has one cached value table, built from two independent
enumerations (quads against the degree window, and ring elements with
their maximal sizes) that are cross-checked as sets and then weight by
weight, so the two counts agree at every cutoff.  The table is sorted once
by exact ring comparisons; a cutoff is one exact stdlib bisection of it,
and its dimension is compared with the expected (d*delta)^(3/2) scale
through certified rational interval arithmetic.  The grid report of
`scaling_report` reads those tables at fixed cutoffs and, like them, is
built once and cached for the life of the process.
"""

from __future__ import annotations

import bisect
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

# Largest degree bound `dim --d` admits.  It is below the README cost rule (an
# admitted call finishes cold within about 1 s and 100 MB), not set by it.  On
# a 2-vCPU Xeon VM with Python 3.11, a cold `dim --d 12 --delta 19`, the
# largest admitted cutoff floor(12 gamma), takes 0.11-0.19 s and 17-18 MB,
# and `dim --grid` 0.14-0.18 s and 17 MB (five runs each).  With the bound
# raised, the first refused degree, `--d 13 --delta 21`, takes 0.17-0.24 s and
# 18 MB; `--d 96 --delta 155` 0.81-0.89 s and 28 MB, and `--d 128 --delta 207`
# 1.06-1.65 s and 36 MB (three runs each).  The value is left for a count of
# the table in closed form, which changes these costs.
GROWTH_DEGREE_BOUND = 12


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
    two c values per (a, b), since f(i+2) > f(i+1); each nonzero ring
    element under the bound owns exactly one quad in the window.
    """
    out = []
    i = 0
    while fib(i) <= d:
        fi, fi1, fi2 = fib(i), fib(i + 1), fib(i + 2)
        window_lo = d - 2 * fi1
        for a in range(1, d // fi + 1):
            for b in range((d - a * fi) // fi1 + 1):
                base = a * fi + b * fi1
                for c in range(max(0, (window_lo - base) // fi2 + 1), (d - base) // fi2 + 1):
                    q = Quad(i, a, b, c)
                    out.append((q, 2 * q.size + 1))
        i += 1
    return out


@dataclass(frozen=True)
class _ValueTable:
    """What every cutoff at one degree bound needs, built once."""

    quads: tuple  # (quad, weight) in (i, a, b, c) order
    order: tuple  # order[r]: index in quads of the r-th smallest value
    values: tuple  # the quad values in increasing order
    prefix: tuple  # prefix[r]: 1 + the weights of the r smallest values


@functools.cache
def _value_table(d: int) -> _ValueTable:
    """The value table of degree bound d, cross-checked at every cutoff.

    The elements of degree <= d must be distinct, one more than the quads,
    and as a set equal to zero plus the quad values; so the quad values are
    exactly the nonzero elements, each once.  Each quad's weight must be its
    value's 2 * max_size_for_degree + 1 (the zero element owns weight 1 and
    no quad).  Then the two counts agree at every cutoff.
    """
    quads = _window_quads(d)
    values = [q.value() for q, _ in quads]
    elements = elements_up_to_degree(d)
    if len(set(elements)) != len(elements):
        raise VerificationError(f"elements of degree <= {d} not distinct")
    if len(elements) != len(quads) + 1:
        raise VerificationError(
            f"{len(quads)} quads for {len(elements)} elements of degree <= {d}"
        )
    if set(elements) != {GoldenInt.zero(), *values}:
        raise VerificationError(f"quad values are not the nonzero elements of degree <= {d}")
    for (_, weight), alpha in zip(quads, values):
        check = 2 * max_size_for_degree(alpha, d) + 1
        if weight != check:
            raise VerificationError(
                f"dimension mismatch at {alpha}: quads give {weight}, elements give {check}"
            )
    order = sorted(range(len(quads)), key=values.__getitem__)
    return _ValueTable(
        quads=tuple(quads),
        order=tuple(order),
        values=tuple(values[k] for k in order),
        prefix=tuple(itertools.accumulate([1] + [quads[k][1] for k in order])),
    )


def _count(d: int, cutoff: GoldenRational) -> tuple:
    """(rank, dim, scale, ratio, ratio_upper) at an admitted cutoff.

    rank is the number of quad values <= cutoff in the value table of d,
    dim the dimension they span, and the intervals enclose (d * cutoff)^(3/2),
    dim / scale and (dim - 1) / scale, the ratios through one inverse.
    """
    table = _value_table(d)
    # the key is -1 below the cutoff, 0 on it and 1 above, by exact comparisons
    rank = bisect.bisect_right(table.values, 0, key=lambda v: -cutoff.compare(v))
    dim = table.prefix[rank]
    d_delta = GoldenRational(cutoff.num * d, cutoff.den)
    scale = three_halves_interval(RationalInterval.of_golden(d_delta))
    inverse = scale.inverse()
    return rank, dim, scale, dim * inverse, (dim - 1) * inverse


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

    rank, dim, scale, ratio, ratio_upper = _count(d, cutoff)
    table = _value_table(d)
    contributing = tuple(table.quads[k] for k in sorted(table.order[:rank]))
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


# the grid of `scaling_report`: degrees d and fractions of gamma * d
_GRID_DEGREES = tuple(range(2, 11))
_GRID_FRACTIONS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))


@functools.cache
def scaling_report() -> ScalingReport:
    """Sweep cutoffs delta = fraction * gamma * d over a fixed degree grid.

    Every cutoff is an exact gamma multiple, so the comparisons behind
    each dimension are exact; the reported band is a certified enclosure
    of all dim / (d*delta)^(3/2) ratios on the grid.  The grid is fixed and
    the report immutable, so it is built once per process, like the value
    tables it reads: the cache holds this one entry.
    """
    rows = []
    for d in _GRID_DEGREES:
        for frac in _GRID_FRACTIONS:
            delta = GoldenRational.golden_multiple(frac * d)
            _, dim, _, ratio, ratio_upper = _count(d, delta)
            rows.append(
                ScalingRow(
                    d=d,
                    fraction=frac,
                    delta=delta,
                    dim=dim,
                    ratio=ratio,
                    ratio_upper=ratio_upper,
                )
            )
    return ScalingReport(
        rows=tuple(rows),
        ratio_low=min(r.ratio.lo for r in rows),
        ratio_high=max(r.ratio.hi for r in rows),
        upper_low=min(r.ratio_upper.lo for r in rows),
        upper_high=max(r.ratio_upper.hi for r in rows),
    )
