"""Exact linear algebra over the rationals for graded rank checks.

Columns are sparse mappings row-index -> coefficient (int or Fraction).
One engine computes every rank, dependency and solution: an incremental
sparse echelon over the integers.  A vector is scaled to integers and
reduced against the stored pivots, in place on a copy, by fraction-free steps

    v <- a*v - b*u        (a, b the leading entries of the pivot u and of v)

Only a step with a != 1 (most pivots lead with 1) then divides out the
content (the gcd of all entries), to keep entries small, so v is a
positive multiple of the row that stripping after every step would give
and has the same leads.  A remainder is stripped once more and stored,
primitive, as the pivot for its leading index min(v).

The rank needs no separate certificate.  Every step is exact integer
arithmetic, and a and the content are nonzero, so v stays in the span of
the vectors inserted so far and that span never shrinks: the pivots span
exactly the inserted vectors.  The pivots have distinct leading indices,
so they are linearly independent.  Their number is therefore the rank
over Q, a value proved by the computation itself rather than an estimate
to be bounded from both sides (as a rank mod p would be).

A vector inserted with a tag carries an integer track: its expansion over
the tagged vectors, modulo the span of the untagged ones.  The same steps
update row and track, and the content is stripped from both together.
When a tagged vector reduces to zero its track is a vanishing
combination, returned as a dependency.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rank_certified", "FractionEchelon", "LinearSolver"]


def _step(a: int, v: dict, b: int, u: dict) -> None:
    """v <- a*v - b*u in place for sparse integer vectors, zeros dropped."""
    if a != 1:
        for k in v:
            v[k] *= a
    for k, y in u.items():
        if w := v.get(k, 0) - b * y:
            v[k] = w
        else:
            del v[k]


def _strip(v: dict, track: dict | None) -> None:
    """Divide row and track in place by the gcd of all their entries."""
    g = gcd(*v.values(), *(track or {}).values())
    if g > 1:
        for w in (v, track or {}):
            for k in w:
                w[k] //= g


def _dependency(track: dict, tag) -> dict:
    """The track as Fractions, scaled so that `tag` has coefficient 1."""
    d = track[tag]
    return {t: Fraction(x, d) for t, x in track.items()}


class FractionEchelon:
    """Incremental exact echelon over Q with optional dependency tracking.

    Pivots are primitive integer rows keyed by their leading index; a
    tagged pivot keeps its integer track in `tracks` under the same key.
    An insert only adds a pivot, never changing a stored row, and `pivots`
    keeps insertion order: its first r pivots are the echelon at rank r.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        self.tracks: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, col: dict, tag):
        """Reduce a copy of a vector, with its track when tagged, against the pivots.

        Returns the stripped remainder (empty, or with a leading index that
        has no pivot) and track (None for an untagged vector).  An all-int
        vector (every ideal column) is copied as it is; any other is scaled
        to integers by the lcm of its denominators.
        """
        v = {k: x for k, x in col.items() if x}
        mult = 1
        if not {int}.issuperset(map(type, v.values())):
            mult = lcm(*(x.denominator for x in v.values()))
            v = {k: x.numerator * (mult // x.denominator) for k, x in v.items()}
        track = None if tag is None else {tag: mult}
        while v:
            lead = min(v)
            u = self.pivots.get(lead)
            if u is None:
                break
            a, b = u[lead], v[lead]
            _step(a, v, b, u)
            if track is not None:
                _step(a, track, b, self.tracks.get(lead, {}))
            if a != 1:
                _strip(v, track)
        _strip(v, track)
        return v, track

    def insert(self, col: dict, tag=None):
        """Insert a vector; returns a dependency dict for redundant tagged
        vectors, None otherwise.

        The dependency maps tags to Fractions, with coefficient 1 at `tag`;
        that combination of tagged vectors lies in the span of the untagged
        ones.
        """
        v, track = self._reduce(col, tag)
        if v:
            lead = min(v)
            self.pivots[lead] = v
            if track is not None:
                self.tracks[lead] = track
            return None
        return None if track is None else _dependency(track, tag)


def rank_certified(columns, nrows: int) -> tuple[int, str]:
    """Exact rank of the columns, and the method.

    The method is "echelon" (the exact elimination proves the rank), or
    "empty" when there are no columns.

    No package code calls it: the Hilbert functions extend one shared
    `FractionEchelon` per degree chain instead.  It stays public as the
    one-shot rank that tests compare against, and because the benchmark
    tracer (`perfbench/tracing.py`) wraps it.  It never reads `nrows`; the
    tracer reads it as `args[1]`, so it stays until the benchmark changes.
    """
    if not columns:
        return 0, "empty"
    ech = FractionEchelon()
    for col in columns:
        ech.insert(col)
    return ech.rank, "echelon"


class LinearSolver(FractionEchelon):
    """Reusable exact solver for A x = b modulo a fixed span.

    It starts from a copy of `fixed`, the pivots of an echelon of the span
    that is ignored in every vector; `fixed_rank` is its rank.  Column i of
    `columns` goes in with tag i: a pivot's track expresses it over these
    columns, and a column in the fixed span plus the span of the columns
    before it is no pivot, its variable stays free and its dependency is
    kept in `dependencies` under i.
    """

    def __init__(self, fixed, columns):
        super().__init__()
        self.pivots = dict(fixed)
        self.fixed_rank = self.rank
        self.ncols = len(columns)
        self.dependencies: dict[int, dict] = {}
        for i, col in enumerate(columns):
            dep = self.insert(col, tag=i)
            if dep is not None:
                self.dependencies[i] = dep

    def solve(self, rhs: dict) -> list[Fraction] | None:
        """Coordinates over `columns` with free variables set to zero, or None.

        The right-hand side is reduced under the tag -1 and not stored.  It
        reduces to zero exactly when it lies in the fixed span plus the
        span of `columns`, and then its dependency reads
        b - sum_i x_i A_i = 0 modulo the fixed span.
        """
        v, track = self._reduce(rhs, -1)
        if v:
            return None
        dep = _dependency(track, -1)
        return [-dep.get(i, Fraction(0)) for i in range(self.ncols)]
