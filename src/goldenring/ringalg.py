"""Graded algebra attached to a symmetric triple system.

The coordinates of the germs at a point form six variables (X0, X1, X2
and their starred forward counterparts).  The relations that hold
identically on every system (both determinants equal to one and the
symmetry defect vanishing) generate the evaluation ideal.  This module
computes coordinate polynomials for shifted germs, graded Hilbert
dimensions of the quotient, and the distinguished monomial family
indexed by ring elements and split positions.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, islice, product
from math import gcd, prod

from ._value import Value, set_field
from .errors import BoundExceeded, VerificationError
from .golden import GoldenInt
from .mpoly import VARS_BASE, MPoly, count_monomials
from .quads import Quad, _element_pairs, _maximal_quad
from .rank import FractionEchelon, LinearSolver, _formed
from .sequences import SymTriple, TransitionMatrix, TripleSystem, symmetry_defect
from .sequences import _product_entries, _step_matrix

__all__ = [
    "COORD_INDEX_BOUND",
    "HILBERT_BOUND",
    "BASIS_BOUND",
    "coordinate_polys",
    "symmetry_defect_poly",
    "evaluation_ideal",
    "hilbert_total",
    "hilbert_bi",
    "hilbert_total_closed",
    "hilbert_bi_closed",
    "BasisMonomial",
    "basis_monomial",
    "basis_family",
    "BasisReport",
    "check_basis_rank",
    "ReducedElement",
    "quotient_coordinates",
    "LeadingForm",
    "leading_form",
]

# Largest -i for coordinate_polys.  For the first bound-3 matrix on a 2-vCPU
# Xeon VM with Python 3.11, a cold process (import, seed search and the call;
# three runs) takes 0.11-0.16 s and 18 MB at i = -6, 0.33-0.35 s and 19 MB
# at -7, and (one run) 5.3 s and 36 MB at -8.  The bound was set when -7 took
# 1.5-2.0 s; it stays 6, as the family at BASIS_BOUND uses -5 at most, though
# -7 now passes the rule.
COORD_INDEX_BOUND = 6
# Largest degree in any block that the Hilbert functions admit, set from cost
# by the rule the README states for exit code 3.  The bi piece at (B, B) holds
# the total piece at B, so it is the costliest.  For the same matrix and VM,
# Python 3.11, a cold process (import, seed search and the call; three runs)
# takes 0.41-0.42 s and 76 MB for hilbert_bi(14, 14), and 0.54 s and 90 MB
# for (15, 15).  The cost grows with the entries: with a11 = 600 ones,
# (1, -1, 0) for the rest, (14, 14) takes 0.43 s and 86 MB, and (15, 15)
# 0.55-0.56 s and 104 MB, over the memory limit, so 15 is refused.
HILBERT_BOUND = 14
# Largest degree in any block that the basis check and the reductions admit,
# by the same rule.  The bi family at (B, B) is the costliest: measured as
# above, check_basis_rank((5, 5)) takes 0.35-0.37 s and 22 MB, and (6, 6)
# 1.44-1.59 s and 32 MB.  The cost grows with the matrix entries: (5, 5)
# takes 0.9-1.2 s for (-3, -2, -4, -3), and 37 s with a 600-digit a11.
BASIS_BOUND = 5


# ---------------------------------------------------------------------------
# coordinate polynomials


def _var(name: str) -> MPoly:
    return MPoly.variable(VARS_BASE, name)


def _base_triple(star: bool) -> tuple[MPoly, MPoly, MPoly]:
    suffix = "*" if star else ""
    return tuple(_var(f"X{j}{suffix}") for j in range(3))


def coordinate_polys(i: int, matrix: TransitionMatrix) -> tuple[MPoly, MPoly, MPoly]:
    """Polynomials in the six germ coordinates giving the shifted germ i, i <= 0.

    With X0, X1, X2 read at x_{2k} and X0*, X1*, X2* at x_{2k-1}, index i
    gives x_{2k+i}; the recurrence runs only backward, by adjugates.  Before
    any work, i >= 1 raises ValueError and -i > COORD_INDEX_BOUND BoundExceeded.
    The three polynomials are bi-homogeneous of bi-degree
    (|f(-i-2)|, |f(-i-1)|) in the plain and starred variable blocks.
    """
    if i > 0:
        raise ValueError("coordinate index must be at most 0")
    if -i > COORD_INDEX_BOUND:
        raise BoundExceeded(f"coordinate index |{i}| exceeds bound {COORD_INDEX_BOUND}")
    return _ring(matrix).coordinate_polys(i)


# ---------------------------------------------------------------------------
# evaluation ideals


def symmetry_defect_poly(matrix: TransitionMatrix) -> MPoly:
    """The bilinear invariant whose vanishing makes X* M X symmetric."""
    return symmetry_defect(
        matrix, SymTriple(*_base_triple(star=False)), SymTriple(*_base_triple(star=True))
    )


class IdealSpec(Value):
    """Generators of an evaluation ideal, in the six germ coordinates."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[MPoly, ...]):
        set_field(self, "generators", generators)


class _Grading(Value):
    """What a degree d ("total") or a bi-degree (d1, d2) ("bi") bound means
    for the quotient: its label, its variable blocks and its closed form.
    Which ring elements and maximal quads it admits is the `quads` caps
    rule, read off the same degrees (`_element_pairs`, `_maximal_quad`).

    The graded piece of the quotient in that degree is built in the six
    germ coordinates, with no homogenizing variable.  Each block is a set
    of variable slots with its own degree bound.  Homogenizing with one
    variable U per block (or V, V* for the two blocks) and setting it to 1
    maps the degree-d piece one to one onto the polynomials of degree at
    most d in each block, and the homogenized generator shifts onto the
    plain generators times the monomials that stay within the bound (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 8 sec. 2).
    So the matrix is the homogenized one up to the order of its rows and
    ideal columns, which changes no rank, dependency certificate or
    reduction (see `_Ring.solver`).  Rows are keyed by `_row_key`; ideal
    columns come a last-block degree at a time, on the chain of the
    matrix's `_Ring` that the basis path reuses.

    `closed` takes the bound as one degree per block and looks its
    function up at call time, so a wrapped module attribute is the one
    that runs.
    """

    __slots__ = ("label", "blocks", "closed")

    def __init__(self, label: str, blocks: tuple[tuple[int, ...], ...], closed):
        set_field(self, "label", label)
        set_field(self, "blocks", blocks)
        set_field(self, "closed", closed)


def _grading(bound) -> tuple[_Grading, tuple[int, ...]]:
    """The grading a bound names, and the bound as one degree per block.
    A bound is an int or a pair of ints, bools excluded, or ValueError."""
    if type(bound) is int:
        return _GRADINGS["total"], (bound,)
    if type(bound) is tuple and len(bound) == 2 and all(type(d) is int for d in bound):
        return _GRADINGS["bi"], bound
    raise ValueError(f"a bound is a degree or a pair of degrees, not {bound!r}")


def _checked(bound, limit=None, total=None) -> tuple[_Grading, tuple[int, ...]]:
    """`_grading(bound)`, refusing a negative bound or one above the limit,
    and any bound but a total degree when `total` names the calling work."""
    grading, degrees = _grading(bound)
    if min(degrees) < 0:
        raise ValueError(f"{grading.label} must be nonnegative")
    if limit is not None and max(degrees) > limit:
        raise BoundExceeded(f"{grading.label} {bound} exceeds bound {limit}")
    if total is not None and grading is not _GRADINGS["total"]:
        raise ValueError(f"{total} needs a total degree bound, not a bi-degree")
    return grading, degrees


def evaluation_ideal(kind: str, matrix: TransitionMatrix) -> IdealSpec:
    """The relations ideal: det X - 1, det X* - 1 and the symmetry defect.

    The generators are polynomials of degree 2 in the six coordinates.
    The only kind is "plain"; any other raises ValueError.
    """
    if kind != "plain":
        raise ValueError(f"unknown ideal kind: {kind!r}")
    x = SymTriple(*_base_triple(star=False))
    y = SymTriple(*_base_triple(star=True))
    plain = (x.det() - 1, y.det() - 1, symmetry_defect_poly(matrix))
    return IdealSpec(plain)


# Bits per exponent in a row key.  A degree above _KEY_MAX would let one
# exponent spill into the next slot and two rows share a key, so the
# Hilbert functions refuse it before any work; the basis bounds are far
# below it.
_KEY_BITS = 8
_KEY_MAX = (1 << _KEY_BITS) - 1


def _row_key(exponents) -> int:
    """The row of a monomial, the same at every degree bound.

    The exponents are packed `_KEY_BITS` to a slot, the first slot
    highest, and negated, so keys fall as the monomials rise in
    lexicographic order and an echelon, which pivots on a column's least
    key, pivots on its lex-largest monomial.  To d = 9 and (5, 5) that
    elimination is three times as fast as pivoting on the lex-smallest for
    the first bound-3 matrix, and five times for (3, 2, 4, 3).  The key of
    a product is the sum of its factors' keys while no exponent exceeds
    `_KEY_MAX`.
    """
    key = 0
    for e in exponents:
        key = key << _KEY_BITS | e
    return -key


@cache
def _block_keys(
    slots: tuple[int, ...], d: int, exactly: bool, avoid: tuple[tuple[int, ...], ...] = ()
) -> tuple[int, ...]:
    """Row keys of one block's monomials of degree at most d (exactly d with
    `exactly`), the other slots' exponents 0, in lexicographic order,
    leaving out every monomial that one of `avoid` (exponent tuples over
    the block's slots) divides.

    Keys are additive, so the sums over the product of these, one tuple
    per block, are the keys of a graded piece's rows in lexicographic order.
    A monomial of degree d is a multiset of d slots, and its key the sum of
    their unit keys, so the keys are the sums over
    `combinations_with_replacement` of the units; a 0 among them stands for
    the degree a monomial falls short of d by.  The multiples of a lead of
    degree e are its key plus the keys of degree d - e, and they are taken
    out as a set.  Keys fall as the monomials rise, so the rest is sorted
    descending.
    """
    if d < 0:
        return ()
    units = [_row_key(1 if s == slot else 0 for s in range(len(VARS_BASE))) for slot in slots]
    keys = set(map(sum, combinations_with_replacement(units if exactly else [*units, 0], d)))
    for lead in avoid:
        key = sum(e * unit for e, unit in zip(lead, units))
        keys.difference_update(key + k for k in _block_keys(slots, d - sum(lead), exactly))
    return tuple(sorted(keys, reverse=True))


def _ideal_columns(grading: _Grading, degrees, generators):
    """Integer ideal columns that first appear in the graded piece at the degrees.

    They are the generators g_j times every monomial m that keeps them
    within the degrees and brings the last block to exactly its degree,
    keyed by `_row_key`; the columns at every last-block degree up to the
    given one span the ideal's part of the whole piece.  A column g_j m is
    left out when the lex-leading monomial LT_i (least `_row_key`) of an
    earlier generator g_i divides m, which is Buchberger's first criterion
    in its signature form (Cox, Little and O'Shea, ch. 2 sec. 9; Faugere's
    F5): no rank, dependency or solution moves.

    Proof that the span of the piece does not change.  Write m = LT_i m''.
    Then g_j m = g_j g_i m'' = g_i (g_j m'') = sum over the terms c t of
    g_j of c g_i (t m'').  In each block, deg(t m'') <= deg g_j + deg m -
    deg LT_i, and LT_i has g_i's full degree there, so g_i (t m'') keeps
    within the degrees wherever g_j m does, and its last block is at most
    the given degree: each g_i (t m'') is a column of the piece, of an
    earlier generator, inserted at this step or an earlier one.  By
    induction on the generator index, the kept columns of g_0..g_j span
    all of theirs, so the whole piece's span is kept.  Only commutativity
    is used, not that the generators form a complete intersection.

    The test runs a block at a time on `_block_keys`, so it needs each
    LT_i inside one block as well; a leading monomial that spans two
    blocks or falls short of its generator's degree skips nothing.  With
    `evaluation_ideal`'s order, X0 X2 and X0* X2* skip; the bilinear last
    generator has no later one to skip for.

    Each column is yielded unformed, as (lead, terms): the column is
    `rank._formed(lead, terms)`, `terms` being its generator's terms as
    (key, coefficient) pairs sorted once by key and shared by all its
    columns.  Adding one shift to every key keeps that order, so the first
    key is the least, and lead = terms[0][0] + shift is the column's pivot
    key, from which `_formed` recovers the shift.
    """
    last = len(grading.blocks) - 1
    avoid = [()] * len(grading.blocks)
    for gen in generators:
        terms = tuple(sorted((_row_key(e), c) for e, c in gen.terms.items()))
        first = terms[0][0]
        # a generator's degree in a block is the largest over its terms
        gdegrees = tuple(max(sum(e[s] for s in b) for e in gen.terms) for b in grading.blocks)
        shifts = [d - g for d, g in zip(degrees, gdegrees)]
        per_block = [
            _block_keys(slots, d, j == last, avoid[j])
            for j, (slots, d) in enumerate(zip(grading.blocks, shifts))
        ]
        for shift in map(sum, product(*per_block)):
            yield first + shift, terms
        lead = min(gen.terms, key=_row_key)
        parts = [tuple(lead[s] for s in slots) for slots in grading.blocks]
        inside = [j for j, part in enumerate(parts) if any(part)]
        if len(inside) == 1 and tuple(map(sum, parts)) == gdegrees:
            avoid[inside[0]] += (parts[inside[0]],)


def _primitive_integer(generators) -> None:
    """Refuse a generator unless its coefficients are integers with gcd 1.

    `_ideal_columns` passes the coefficients on as they are (ints, in
    `MPoly`'s canonical form), and `_Ring` files a column pending,
    to be formed with them as they are, so both rest on this.  It runs once per ring, when
    the ring's first chain request forms the generators.  A det-1 matrix always
    passes: the determinants have coefficients +-1, and the symmetry
    defect's (a11, a21, a12 - a21, a22, -a11, -a12, -a22) have a gcd that
    divides a11 a22 - a12 a21 = 1.
    """
    for gen in generators:
        coeffs = gen.terms.values()
        if any(c.denominator != 1 for c in coeffs) or gcd(*(c.numerator for c in coeffs)) != 1:
            raise VerificationError("an ideal generator is not a primitive integer polynomial")


class _Ring:
    """Everything derived from one matrix, built on demand, in plain dicts:
    coordinate polynomials by index, family prefix products by factor
    tuple, basis solvers by bound, the checked generators, and one chain of
    Hilbert ranks.  `_ring` holds the ring of the latest matrix only.

    A chain fixes the matrix, the grading and every block degree but the
    last.  Its columns go into one `FractionEchelon` a last-block degree
    at a time, and the rank after each step is kept, so a request at a
    degree already reached is a lookup and a higher one inserts only the
    columns new since.  Those leave out the columns that `_ideal_columns`
    proves redundant, so no insert reduces to zero, and the rank is the
    echelon's exact one, the same as a fresh elimination of every column
    of the whole piece would prove.  Only the latest chain is held, so
    memory stays that of one elimination, and it is extended under a lock,
    so threads may share it; the basis path starts from its `pivots`.

    Most columns lead with a key that has no pivot yet (the echelon is
    nearly triangular), and such a column is filed pending, as the `terms`
    tuple that `_ideal_columns` yields with its lead and shares among its
    generator's columns, as in F4's handling of rows with a new leading
    monomial; a pending pivot thus costs its dict slot only.  Formed, that is what
    `FractionEchelon.insert` would store: the column is a fresh dict of
    nonzero ints with distinct keys, so nothing reduces it, and its
    content is 1, since its entries are one generator's coefficients,
    which `_primitive_integer` checks the first time a chain starts on the
    ring, so the strip leaves it as it is.  A column whose lead has a
    pivot is formed and inserted.  A pending pivot is formed by
    `rank._formed` only when something reads it: a reduction, which stores
    the row back in place, or `pivots`, which forms each one it copies, so
    no solver holds a pending pivot and the chain changes only under its
    lock.  Most pivots are never read, and stay pending.  Pivots, their
    order and every rank are the same as with every column inserted.  The
    checked generators are kept for the life of the ring,
    so a chain reset (a new grading or leading degrees) forms and checks
    none again.
    """

    def __init__(self, matrix: TransitionMatrix):
        self.matrix = matrix
        self._coords = {0: _base_triple(star=False), -1: _base_triple(star=True)}
        self._products = {(): MPoly.const(VARS_BASE, 1)}
        self._solvers = {}
        self._generators = None
        self._lock = threading.RLock()
        self._chain = None
        self._echelon = FractionEchelon()
        self._ranks: list[int] = []

    def coordinate_polys(self, i: int) -> tuple[MPoly, MPoly, MPoly]:
        """`coordinate_polys(i, matrix)` for a checked index."""
        polys = self._coords.get(i)
        if polys is None:
            # germ i+2 = germ i+1 * step * germ i, so germ i = adj(step) adj(germ i+1) germ i+2
            a11, a12, a21, a22 = _step_matrix(self.matrix, i).entries()
            x0, x1, x2 = self.coordinate_polys(i + 1)
            p00, p01, p10, p11 = _product_entries(
                TransitionMatrix(a22, -a12, -a21, a11), SymTriple(x2, -x1, x0),
                SymTriple(*self.coordinate_polys(i + 2)),
            )
            # the product is symmetric only modulo the ideal; the off-diagonal
            # coordinate is the symmetrized entry
            polys = self._coords[i] = (p00, (p01 + p10) * Fraction(1, 2), p11)
        return polys

    def product(self, factors: tuple[tuple[int, int], ...]) -> MPoly:
        """The product of coordinate_polys(-idx, matrix)[e] over the (idx, e) factors.

        It is formed left to right from 1, each prefix kept, so members
        that share a prefix (at one bound or at several) share its product,
        and a member is formed once while the ring is held.
        """
        poly = self._products.get(factors)
        if poly is None:
            idx, e = factors[-1]
            poly = self.product(factors[:-1]) * coordinate_polys(-idx, self.matrix)[e]
            self._products[factors] = poly
        return poly

    def member(self, alpha: GoldenInt, j: int, quad: Quad | None) -> BasisMonomial:
        """M_{alpha,j}, given alpha's maximal quad under the bound."""
        size = quad.size if quad is not None else 0
        if not 0 <= j <= 2 * size:
            raise ValueError(f"split position {j} outside 0..{2 * size}")
        exps = _split_exponents(size, j)
        factors = tuple(zip(quad.indices(), exps)) if quad is not None else ()
        return BasisMonomial(alpha=alpha, j=j, quad=quad, exponents=exps,
                             poly=self.product(factors))

    def rank(self, grading: _Grading, degrees) -> int:
        *lead, last = degrees
        chain = (grading.label, tuple(lead))
        with self._lock:
            if self._generators is None:
                # a refused matrix keeps None, so each request is refused again
                generators = evaluation_ideal("plain", self.matrix).generators
                _primitive_integer(generators)
                self._generators = generators
            if chain != self._chain:
                self._chain, self._echelon, self._ranks = chain, FractionEchelon(), []
            pivots = self._echelon.pivots
            while len(self._ranks) <= last:
                step = (*lead, len(self._ranks))
                for key, terms in _ideal_columns(grading, step, self._generators):
                    if key in pivots:
                        self._echelon.insert(_formed(key, terms))
                    else:
                        pivots[key] = terms
                self._ranks.append(self._echelon.rank)
            return self._ranks[last]

    def pivots(self, grading: _Grading, degrees) -> dict:
        """The ideal's echelon at the degrees: a fresh dict of the chain's
        first `rank` pivots, each pending one formed in the chain first.
        The caller owns the dict (`LinearSolver` adds its pivots to it);
        the rows in it are the chain's, which nothing changes in place."""
        with self._lock:  # reentrant: `rank` takes it again
            rank = self.rank(grading, degrees)
            pivots = self._echelon.pivots
            for lead, row in list(islice(pivots.items(), rank)):
                if type(row) is tuple:
                    pivots[lead] = _formed(lead, row)
            return dict(islice(pivots.items(), rank))

    def solver(self, bound):
        """The family at a degree or bi-degree bound, eliminated modulo the ideal.

        The solver starts from the chain's pivots of the ideal at the
        bound, so `ideal_rank` is the Hilbert functions' rank, and its
        columns are the family polynomials keyed by `_row_key`.  Neither
        the row order nor which columns span the ideal moves a result: a
        dependency expresses a family column over the earlier independent
        ones modulo the ideal, and a solution is the one with the dependent
        variables zero, both unique once the family order is fixed.  Built
        once per bound while the ring is held, and shared by the basis
        check and reductions.  Returns (family, solver).
        """
        found = self._solvers.get(bound)
        if found is None:
            family = tuple(basis_family(bound, self.matrix))
            fcols = [{_row_key(e): c for e, c in mono.poly.terms.items()} for mono in family]
            found = family, LinearSolver(self.pivots(*_grading(bound)), fcols)
            self._solvers[bound] = found
        return found


_RING = None
_RING_LOCK = threading.Lock()


def _ring(matrix: TransitionMatrix) -> _Ring:
    """The held ring if its matrix is this one, else a new ring that
    replaces it; under a lock, so threads on one matrix share one ring."""
    global _RING
    with _RING_LOCK:
        ring = _RING
        if ring is None or (ring.matrix is not matrix and ring.matrix != matrix):
            ring = _RING = _Ring(matrix)
        return ring


def _ambient_dim(grading: _Grading, degrees) -> int:
    return prod(count_monomials(len(slots) + 1, d) for slots, d in zip(grading.blocks, degrees))


def _quotient_dim(grading: _Grading, degrees, matrix: TransitionMatrix) -> int:
    if max(degrees) > _KEY_MAX:
        raise BoundExceeded(f"{grading.label} {max(degrees)} exceeds the row key bound {_KEY_MAX}")
    return _ambient_dim(grading, degrees) - _ring(matrix).rank(grading, degrees)


def hilbert_total(d: int, matrix: TransitionMatrix, bound: int = HILBERT_BOUND) -> int:
    """Dimension in degree d of the totally graded quotient ring."""
    return _quotient_dim(*_checked(d, bound, "hilbert_total"), matrix)


def hilbert_bi(
    d1: int, d2: int, matrix: TransitionMatrix, bound: int = HILBERT_BOUND
) -> int:
    """Dimension in bi-degree (d1, d2) of the bi-graded quotient ring."""
    return _quotient_dim(*_checked((d1, d2), bound), matrix)


def hilbert_total_closed(d: int) -> int:
    """Closed form (4d^3 + 6d^2 + 8d + 3) / 3 for the total grading."""
    _checked(d, total="hilbert_total_closed")
    num = 4 * d**3 + 6 * d**2 + 8 * d + 3
    assert num % 3 == 0
    return num // 3


def hilbert_bi_closed(d1: int, d2: int) -> int:
    """Closed form (d1+1)^2 (d2+1)^2 - d1^2 d2^2 for the bi-grading."""
    _checked((d1, d2))
    return (d1 + 1) ** 2 * (d2 + 1) ** 2 - d1**2 * d2**2


_GRADINGS = {
    "total": _Grading(
        label="degree",
        blocks=(tuple(range(6)),),
        closed=lambda d: hilbert_total_closed(d),
    ),
    "bi": _Grading(
        label="bi-degree",
        blocks=((0, 1, 2), (3, 4, 5)),
        closed=lambda d1, d2: hilbert_bi_closed(d1, d2),
    ),
}


# ---------------------------------------------------------------------------
# the distinguished monomial family


def _split_exponents(size: int, j: int) -> tuple[int, ...]:
    """Distribute j among `size` slots, each at most 2, greedily."""
    rem = j
    out = []
    for _ in range(size):
        take = min(2, rem)
        out.append(take)
        rem -= take
    assert rem == 0
    return tuple(out)


class BasisMonomial(Value):
    """One member of the monomial family spanning the graded quotient.

    The ring element alpha picks its maximal quad under the degree bound;
    the quad's indices i_1 <= ... <= i_s pick coordinate triples of the
    germs shifted by -i_k, and the split position j in 0..2s selects
    which coordinate each factor contributes.
    """

    __slots__ = ("alpha", "j", "quad", "exponents", "poly")

    def __init__(self, alpha: GoldenInt, j: int, quad: Quad | None, exponents: tuple[int, ...],
                 poly: MPoly):
        set_field(self, "alpha", alpha)
        set_field(self, "j", j)
        set_field(self, "quad", quad)
        set_field(self, "exponents", exponents)
        set_field(self, "poly", poly)

    @property
    def size(self) -> int:
        return len(self.exponents)

    def germ_value(self, system: TripleSystem, k: int) -> int:
        """Value at the k-th germ of the system (an exact integer)."""
        if self.quad is None:
            return 1
        val = 1
        for idx, e in zip(self.quad.indices(), self.exponents):
            val *= system.germ(-idx, e, k)
        return val


def basis_monomial(
    alpha: GoldenInt, j: int, bound, matrix: TransitionMatrix
) -> BasisMonomial:
    """The family member M_{alpha,j} for a degree or bi-degree bound.  A
    bound with a degree above BASIS_BOUND raises BoundExceeded before any
    work."""
    quad = _maximal_quad(alpha, _checked(bound, BASIS_BOUND)[1])
    return _ring(matrix).member(alpha, j, quad)


def basis_family(bound, matrix: TransitionMatrix) -> list[BasisMonomial]:
    """All family members under a degree bound d or bi-degree bound (d1, d2).

    Ordered by the (m, n) coordinates of alpha, then by split position.  A
    bound with a degree above BASIS_BOUND raises BoundExceeded before any
    work.
    """
    degrees = _checked(bound, BASIS_BOUND)[1]
    ring = _ring(matrix)
    family = []
    for m, n in _element_pairs(*degrees):
        alpha = GoldenInt(m, n)
        quad = _maximal_quad(alpha, degrees)
        size = quad.size if quad is not None else 0
        family += (ring.member(alpha, j, quad) for j in range(2 * size + 1))
    return family


class BasisReport(Value):
    """Outcome of the spanning check for the monomial family.

    The fields are what the check computed: the rank of the ideal columns,
    the family's size, the rank of the ideal and family columns together,
    and for a deficient family, in `dependency`, the coefficients of a
    vanishing combination, as ((alpha m, alpha n, j), coefficient) pairs
    (else None).  The ambient and expected dimensions are read off the
    bound's grading, and the quotient's dimension and rank and `spans` off
    the fields.
    """

    __slots__ = ("bound", "ideal_rank", "cardinality", "combined_rank", "dependency")

    def __init__(self, bound, ideal_rank: int, cardinality: int, combined_rank: int,
                 dependency: tuple | None):
        set_field(self, "bound", bound)
        set_field(self, "ideal_rank", ideal_rank)
        set_field(self, "cardinality", cardinality)
        set_field(self, "combined_rank", combined_rank)
        set_field(self, "dependency", dependency)

    @property
    def ambient_dim(self) -> int:
        return _ambient_dim(*_grading(self.bound))

    @property
    def expected_dim(self) -> int:
        grading, degrees = _grading(self.bound)
        return grading.closed(*degrees)

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self.ideal_rank

    @property
    def quotient_rank(self) -> int:
        return self.combined_rank - self.ideal_rank

    @property
    def spans(self) -> bool:
        """The family and the ideal span the ambient space, and the family's
        size, the quotient's dimension and the closed form agree."""
        return (self.combined_rank == self.ambient_dim
                and self.quotient_dim == self.cardinality == self.quotient_rank
                == self.expected_dim)

    def summary(self) -> dict:
        degrees = _grading(self.bound)[1]
        return {
            "bound": degrees[0] if len(degrees) == 1 else list(degrees),
            "ambient_dim": self.ambient_dim,
            "ideal_rank": self.ideal_rank,
            "quotient_dim": self.quotient_dim,
            "expected_dim": self.expected_dim,
            "cardinality": self.cardinality,
            "combined_rank": self.combined_rank,
            "quotient_rank": self.quotient_rank,
            "spans": self.spans,
        }


def check_basis_rank(bound, matrix: TransitionMatrix) -> BasisReport:
    """Verify the family is a basis of the graded quotient at the bound.

    Exact over Q throughout.  When the family fails to span, the report
    carries a dependency certificate: a nonzero rational combination of
    family members lying in the ideal.
    """
    _checked(bound, BASIS_BOUND)
    family, solver = _ring(matrix).solver(bound)
    dependency = None
    if solver.dependencies:
        first = next(iter(solver.dependencies.values()))
        tags = [(mono.alpha.m, mono.alpha.n, mono.j) for mono in family]
        dependency = tuple(sorted((tags[i], c) for i, c in first.items()))
    return BasisReport(bound, solver.fixed_rank, len(family), solver.rank, dependency)


# ---------------------------------------------------------------------------
# reduction to family coordinates


class ReducedElement(Value):
    """Coordinates of a polynomial over the monomial family, mod the ideal.

    `coords` holds ((alpha, j), Fraction) pairs in family order, nonzero only.
    """

    __slots__ = ("bound", "coords", "family")

    def __init__(self, bound: int, coords: tuple, family: tuple):
        set_field(self, "bound", bound)
        set_field(self, "coords", coords)
        set_field(self, "family", family)

    def coefficient(self, alpha: GoldenInt, j: int) -> Fraction:
        for (a, jj), c in self.coords:
            if a == alpha and jj == j:
                return c
        return Fraction(0)

    def in_ideal(self) -> bool:
        return not self.coords

    def germ_value(self, system: TripleSystem, k: int) -> Fraction:
        """Exact value of the reduced combination at the k-th germ."""
        by_key = {(m.alpha, m.j): m for m in self.family}
        total = Fraction(0)
        for (alpha, j), c in self.coords:
            total += c * by_key[(alpha, j)].germ_value(system, k)
        return total


def quotient_coordinates(
    poly: MPoly, bound: int, matrix: TransitionMatrix
) -> ReducedElement:
    """Express a polynomial over the family, modulo the evaluation ideal.

    The polynomial lives in the six germ coordinates with total degree at
    most the bound, and is solved exactly against the family columns
    modulo the ideal columns.  Because the family is a basis of the
    quotient, the family part of any solution is unique.  Before any work,
    a bound with a degree above BASIS_BOUND raises BoundExceeded, and a
    bi-degree (d1, d2) within it ValueError: only a total degree is handled.
    """
    _checked(bound, BASIS_BOUND, "reduction")
    if poly.names != VARS_BASE:
        raise ValueError("polynomial must use the six germ coordinates")
    if poly.total_degree() > bound:
        raise ValueError("polynomial degree exceeds the reduction bound")
    family, solver = _ring(matrix).solver(bound)
    sol = solver.solve({_row_key(e): c for e, c in poly.terms.items()})
    if sol is None:
        raise VerificationError("reduction failed: family does not span")
    coords = [((mono.alpha, mono.j), c) for mono, c in zip(family, sol) if c]
    return ReducedElement(bound=bound, coords=tuple(coords), family=family)


class LeadingForm(Value):
    """Largest ring element carrying a nonzero coordinate, with its row:
    `coefficients` has length 2*size + 1, for split positions 0..2s."""

    __slots__ = ("alpha", "coefficients")

    def __init__(self, alpha: GoldenInt, coefficients: tuple):
        set_field(self, "alpha", alpha)
        set_field(self, "coefficients", coefficients)

    @property
    def size(self) -> int:
        return len(self.coefficients) // 2


def leading_form(poly: MPoly, bound: int, matrix: TransitionMatrix) -> LeadingForm:
    """Leading coefficient data of a polynomial modulo the ideal.

    The ring elements under the bound are totally ordered by real value;
    the leading form collects the coordinates at the largest element that
    appears.  The bound is a total degree, as in `quotient_coordinates`.
    Raises ValueError for elements of the ideal and for a bi-degree bound.

    Product rule: for members M_{alpha,j} of `basis_family(d, matrix)` and
    M_{beta,k} of `basis_family(e, matrix)`, the leading form of the product
    of their polynomials at bound d + e sits at alpha + beta, and its row
    (c_0, ..., c_{2s}), read as the polynomial sum of c_i x**i, is
    x**(j+k) theta(x)**ds.  Here theta(x) = a11 + (a12 + a21) x + a22 x**2,
    the growth constant's polynomial (`growth_constant_enclosure`), and
    ds = size(alpha + beta) - size(alpha) - size(beta) is 0 or 1, the sizes
    being those of the leading form and of the two members.  The tests check
    it on every pair of members up to d + e = BASIS_BOUND.
    """
    red = quotient_coordinates(poly, bound, matrix)
    if red.in_ideal():
        raise ValueError("element lies in the ideal; no leading form")
    lead = max(alpha for (alpha, _), _c in red.coords)
    # the family holds the lead's members in split order, j = 0..2s
    return LeadingForm(lead, tuple(red.coefficient(lead, m.j) for m in red.family
                                   if m.alpha == lead))
