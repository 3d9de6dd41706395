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

A pivot may also be stored pending, as a tuple `terms` of (key, c) pairs
in ascending key order: filed under the lead `lead`, it is the row
{key + shift: c for key, c in terms} with shift = lead - terms[0][0], so
its first key goes to its lead.  The Hilbert chain files most ideal
columns that way, since a column with a new leading index is already the
pivot that an insert would store and most are never read again (as F4
keeps rows with a new leading monomial unreduced).  `_formed` is the one
place that forms such a row: the reduction forms a pending pivot the first
time it reads it and stores the row back under the same key, so the
pivot order is kept.
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


def _formed(lead: int, terms) -> dict:
    """The row of a pending pivot filed under `lead`: each (key, c) of
    `terms` at key + shift, where shift = lead - terms[0][0] moves the
    least key to the lead."""
    shift = lead - terms[0][0]
    return {key + shift: c for key, c in terms}


def _dependency(track: dict, tag) -> dict:
    """The track as Fractions, scaled so that `tag` has coefficient 1."""
    d = track[tag]
    return {t: Fraction(x, d) for t, x in track.items()}


class FractionEchelon:
    """Incremental exact echelon over Q with optional dependency tracking.

    Pivots are primitive integer rows keyed by their leading index; a
    tagged pivot keeps its integer track in `tracks` under the same key.
    An untagged pivot may be stored pending, as its `terms` tuple (see
    the module docstring), and is formed when first read.  An insert only
    adds a pivot, never changing a stored row, and `pivots` keeps
    insertion order: its first r pivots are the echelon at rank r.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int] | tuple] = {}
        self.tracks: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, col: dict, tag):
        """Reduce a copy of a vector, with its track when tagged, against the pivots.

        Returns the stripped remainder (empty, or with a leading index that
        has no pivot) and track (None for an untagged vector).  An all-int
        vector is copied as it is: every ideal column, and a family column
        or right-hand side whose polynomial has integer coefficients (an
        `MPoly` stores an integral coefficient as an int).  Any other,
        which holds a Fraction, is scaled to integers by the lcm of its
        denominators in one pass that also drops its zeros.  A pending
        pivot is formed by `_formed` the first time a step reads it, and
        stored back as a row under its key, so it is formed at most once.
        """
        if {int}.issuperset(map(type, col.values())):
            mult = 1
            v = {k: x for k, x in col.items() if x}
        else:
            mult = lcm(*(x.denominator for x in col.values()))
            v = {k: x.numerator * (mult // x.denominator) for k, x in col.items() if x}
        track = None if tag is None else {tag: mult}
        pivots = self.pivots
        while v:
            lead = min(v)
            u = pivots.get(lead)
            if u is None:
                break
            if type(u) is tuple:
                u = pivots[lead] = _formed(lead, u)
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

    It starts from `fixed`, the pivots of an echelon of the span that is
    ignored in every vector, and owns that dict: it adds its own pivots to
    it, so a caller passes a dict of its own that it no longer reads (as
    `ringalg._basis_solver` passes the fresh copy `_GradedRanks.pivots`
    returns).  `fixed_rank` is its rank.  Column i of
    `columns` goes in with tag i: a pivot's track expresses it over these
    columns, and a column in the fixed span plus the span of the columns
    before it is no pivot, its variable stays free and its dependency is
    kept in `dependencies` under i.
    """

    def __init__(self, fixed, columns):
        super().__init__()
        self.pivots = fixed
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
        b - sum_i x_i A_i = 0 modulo the fixed span.  A Fraction is formed
        only for the columns the track holds; every other entry is one
        shared zero.
        """
        v, track = self._reduce(rhs, -1)
        if v:
            return None
        d = track.pop(-1)
        x = [Fraction(0)] * self.ncols
        for i, t in track.items():
            x[i] = Fraction(-t, d)
        return x
