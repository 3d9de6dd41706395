"""Dimension growth of value-bounded graded subspaces.

The subspace attached to a degree bound d and a cutoff delta is spanned
by the family members whose ring element has value at most delta.  Its
dimension is computed two independent ways (quad enumeration against the
degree window, and summation over ring elements) and cross-checked, then
compared with the expected (d*delta)^(3/2) scale through certified
rational interval arithmetic.
"""

from __future__ import annotations

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


def _dim_by_quads(d: int, cutoff: GoldenRational):
    """1 + weighted quads in the degree window with value <= cutoff.

    For each index i the window d - 2 f(i+1) < degree <= d admits at most
    two b values per (a, c); each ring element under the bound owns
    exactly one quad in the window.
    """
    contributing = []
    total = 1  # the zero element carries weight 1 and has no quad
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
                    if cutoff.compare(q.value()) >= 0:
                        weight = 2 * q.size + 1
                        contributing.append((q, weight))
                        total += weight
                c += 1
            a += 1
        i += 1
    contributing.sort(key=lambda qw: (qw[0].i, qw[0].a, qw[0].b, qw[0].c))
    return total, tuple(contributing)


def _dim_by_elements(d: int, cutoff: GoldenRational) -> int:
    total = 0
    for alpha in elements_up_to_degree(d):
        if cutoff.compare(alpha) >= 0:
            total += 2 * max_size_for_degree(alpha, d) + 1
    return total


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

    dim, contributing = _dim_by_quads(d, cutoff)
    check = _dim_by_elements(d, cutoff)
    if dim != check:
        raise VerificationError(
            f"dimension mismatch: quads give {dim}, elements give {check}"
        )

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
