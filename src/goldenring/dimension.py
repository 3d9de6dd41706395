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
from fractions import Fraction

from ._value import Value, set_field
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


class _Ratios:
    """The scale ratios of a report with a degree bound `d`, a cutoff `delta`
    and a `dim`: `ratio` encloses dim / (d * delta)^(3/2) and `ratio_upper`
    (dim - 1) / (d * delta)^(3/2).  They are formed on first use, through
    one inverse, and cached in the instance `__dict__`.
    """

    @functools.cached_property
    def _ratios(self) -> tuple[RationalInterval, RationalInterval, RationalInterval]:
        """(scale, ratio, ratio_upper), scale enclosing (d * delta)^(3/2)."""
        d_delta = GoldenRational(self.delta.num * self.d, self.delta.den)
        scale = three_halves_interval(RationalInterval.of_golden(d_delta))
        inverse = scale.inverse()
        return scale, self.dim * inverse, (self.dim - 1) * inverse

    ratio = property(lambda self: self._ratios[1])
    ratio_upper = property(lambda self: self._ratios[2])


class DimensionReport(_Ratios, Value):
    """Dimension of one value-bounded subspace with its scale ratios.

    `contributing` holds the (quad, weight) pairs actually counted, ordered
    by (i, a, b, c).  `dim` is 1 (the zero element) plus their weights.
    `scale` encloses (d * delta)^(3/2); the ratios are those of `_Ratios`.
    """

    _fields = ("d", "delta", "contributing")

    def __init__(self, d: int, delta: GoldenRational, contributing: tuple):
        set_field(self, "d", d)
        set_field(self, "delta", delta)
        set_field(self, "contributing", contributing)

    @property
    def dim(self) -> int:
        return 1 + sum(weight for _, weight in self.contributing)

    scale = property(lambda self: self._ratios[0])


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


class _ValueTable(Value):
    """What every cutoff at one degree bound needs, built once.

    `quads` holds (quad, weight) pairs in (i, a, b, c) order; `order[r]` is
    the index in `quads` of the r-th smallest value; `values` are the quad
    values in increasing order; `prefix[r]` is 1 + the weights of the r
    smallest values.
    """

    __slots__ = ("quads", "order", "values", "prefix")

    def __init__(self, quads: tuple, order: tuple, values: tuple, prefix: tuple):
        set_field(self, "quads", quads)
        set_field(self, "order", order)
        set_field(self, "values", values)
        set_field(self, "prefix", prefix)


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


def _rank(d: int, cutoff: GoldenRational) -> int:
    """The number of quad values <= an admitted cutoff in the value table of d."""
    # the key is -1 below the cutoff, 0 on it and 1 above, by exact comparisons
    return bisect.bisect_right(_value_table(d).values, 0, key=lambda v: -cutoff.compare(v))


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
    rank = _rank(d, cutoff)
    return DimensionReport(d, cutoff, tuple(table.quads[k] for k in sorted(table.order[:rank])))


class ScalingRow(_Ratios, Value):
    """One grid point of `scaling_report`: delta = fraction * gamma * d, with
    the ratios of `_Ratios`."""

    _fields = ("d", "fraction", "dim")

    def __init__(self, d: int, fraction: Fraction, dim: int):
        set_field(self, "d", d)
        set_field(self, "fraction", fraction)
        set_field(self, "dim", dim)

    delta = functools.cached_property(lambda self: GoldenRational.golden_multiple(
        self.fraction * self.d))


class ScalingReport(Value):
    """Ratio band over a (d, delta) grid of gamma-multiple cutoffs.

    The band ends are the least and greatest endpoints of the rows' `ratio`
    and `ratio_upper` enclosures, found on first use and cached in the
    instance `__dict__`, as are each row's delta and ratios: the process
    holds one grid report (see `scaling_report`), read by every `dim --grid`.
    """

    _fields = ("rows",)

    def __init__(self, rows: tuple):
        set_field(self, "rows", rows)

    ratio_low = functools.cached_property(lambda self: min(r.ratio.lo for r in self.rows))
    ratio_high = functools.cached_property(lambda self: max(r.ratio.hi for r in self.rows))
    upper_low = functools.cached_property(lambda self: min(r.ratio_upper.lo for r in self.rows))
    upper_high = functools.cached_property(lambda self: max(r.ratio_upper.hi for r in self.rows))


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
            row = ScalingRow(d, frac, _value_table(d).prefix[_rank(d, delta)])
            set_field(row, "delta", delta)  # fills the cache with the delta just formed
            rows.append(row)
    return ScalingReport(tuple(rows))
