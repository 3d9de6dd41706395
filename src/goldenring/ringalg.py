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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from operator import add
from typing import Callable

from .errors import BoundExceeded, VerificationError
from .golden import GoldenInt
from .mpoly import VARS_BASE, MPoly, monomials_up_to_degree
from .quads import (
    Quad,
    elements_up_to_bidegree,
    elements_up_to_degree,
    max_size_for_degree,
    maximal_quad_for_bidegree,
    maximal_quad_for_degree,
)
from .rank import LinearSolver, rank_certified
from .sequences import SymTriple, TransitionMatrix, TripleSystem, symmetry_defect

__all__ = [
    "COORD_INDEX_BOUND",
    "HILBERT_TOTAL_BOUND",
    "HILBERT_BI_BOUND",
    "BASIS_TOTAL_BOUND",
    "BASIS_BI_BOUND",
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

# Set from cost, which grows about 14-fold per step: for the first bound-3
# matrix on a 2-vCPU Xeon VM, i = 5 takes 0.1-0.2 s, i = 6 1.4-3.5 s, i = -7 2.7 s.
COORD_INDEX_BOUND = 6
HILBERT_TOTAL_BOUND = 5
HILBERT_BI_BOUND = 4
BASIS_TOTAL_BOUND = 3
BASIS_BI_BOUND = 2


# ---------------------------------------------------------------------------
# coordinate polynomials


def _var(name: str) -> MPoly:
    return MPoly.variable(VARS_BASE, name)

def _base_triple(star: bool) -> tuple[MPoly, MPoly, MPoly]:
    suffix = "*" if star else ""
    return tuple(_var(f"X{j}{suffix}") for j in range(3))

def _triple_to_mat(t):
    return ((t[0], t[1]), (t[1], t[2]))

def _mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )

def _const_mat(rows):
    return tuple(
        tuple(MPoly.const(VARS_BASE, v) for v in row) for row in rows
    )

def _adjugate(A):
    return ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))

def _mat_to_triple(P) -> tuple[MPoly, MPoly, MPoly]:
    # products of symmetric matrices need not be symmetric entrywise;
    # the off-diagonal coordinate is the symmetrized entry
    mid = (P[0][1] + P[1][0]) * Fraction(1, 2)
    return (P[0][0], mid, P[1][1])


@cache
def _coordinate_polys(matrix: TransitionMatrix, i: int) -> tuple[MPoly, MPoly, MPoly]:
    if i in (0, -1):
        return _base_triple(star=i == -1)
    # the step between germs i -+ 1 and i: M at odd i, its transpose at even i
    step = _const_mat((matrix if i % 2 else matrix.transpose()).rows())
    if i >= 1:
        left = _triple_to_mat(_coordinate_polys(matrix, i - 1))
        right = _triple_to_mat(_coordinate_polys(matrix, i - 2))
        prod = _mat_mul(_mat_mul(left, step), right)
    else:
        nxt = _triple_to_mat(_coordinate_polys(matrix, i + 1))
        after = _triple_to_mat(_coordinate_polys(matrix, i + 2))
        prod = _mat_mul(_adjugate(_mat_mul(nxt, step)), after)
    return _mat_to_triple(prod)


def coordinate_polys(i: int, matrix: TransitionMatrix) -> tuple[MPoly, MPoly, MPoly]:
    """Polynomials in the six germ coordinates giving the shifted germ i.

    Index 0 is the germ itself, index -1 its starred forward neighbour;
    positive i walks backward and negative i forward along the sequence.
    The three polynomials are bi-homogeneous of bi-degree
    (|f(-i-2)|, |f(-i-1)|) in the plain and starred variable blocks.
    """
    if abs(i) > COORD_INDEX_BOUND:
        raise BoundExceeded(f"coordinate index |{i}| exceeds bound {COORD_INDEX_BOUND}")
    return _coordinate_polys(matrix, i)


# ---------------------------------------------------------------------------
# evaluation ideals


def symmetry_defect_poly(matrix: TransitionMatrix) -> MPoly:
    """The bilinear invariant whose vanishing makes X* M X symmetric."""
    return symmetry_defect(
        matrix, SymTriple(*_base_triple(star=False)), SymTriple(*_base_triple(star=True))
    )


@dataclass(frozen=True)
class IdealSpec:
    """Generators of an evaluation ideal in a fixed variable context."""

    kind: str
    names: tuple[str, ...]
    generators: tuple[MPoly, ...]
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class _Grading:
    """What a degree d ("total") or a bi-degree (d1, d2) ("bi") bound means.

    The graded piece of the quotient in that degree is built in the six
    germ coordinates, with no homogenizing variable.  Each block is a set
    of variable slots with its own degree bound.  Homogenizing with one
    variable U per block (or V, V* for the two blocks) and setting it to 1
    maps the degree-d piece one to one onto the polynomials of degree at
    most d in each block, and the homogenized generator shifts onto the
    plain generators times the monomials that stay within the bound (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 8 sec. 2).
    Rows come in the order of the homogenized monomials with the
    homogenizer dropped, and columns in the order of the homogenized
    shifts, so the matrix is the homogenized one entry for entry and every
    pivot, rank, dependency certificate and reduction is unchanged by
    working without the extra variable.

    The callables take the bound as one degree per block and look their
    function up at call time, so a wrapped module attribute is the one
    that runs.
    """

    label: str
    blocks: tuple[tuple[int, ...], ...]
    # the degree of each plain generator, written as a bound of this grading
    generator_degrees: tuple
    basis_limit: int
    closed: Callable[..., int]
    elements: Callable[..., list]
    maximal_quad: Callable[..., Quad | None]

    def monomials(self, degrees):
        """Exponent tuples of degree at most the given one in each block,
        one at a time in row order."""
        per_block = (
            monomials_up_to_degree(len(slots), d) for slots, d in zip(self.blocks, degrees)
        )
        return (sum(parts, ()) for parts in product(*per_block))


def _grading(bound) -> tuple[_Grading, tuple[int, ...]]:
    """The grading a bound names, and the bound as one degree per block."""
    if isinstance(bound, tuple):
        return _GRADINGS["bi"], tuple(bound)
    return _GRADINGS["total"], (bound,)


def _checked(bound, limit=None) -> tuple[_Grading, tuple[int, ...]]:
    """`_grading(bound)`, refusing a negative bound or one above the limit."""
    grading, degrees = _grading(bound)
    if min(degrees) < 0:
        raise ValueError(f"{grading.label} must be nonnegative")
    if limit is not None and max(degrees) > limit:
        raise BoundExceeded(f"{grading.label} {bound} exceeds bound {limit}")
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
    return IdealSpec(kind, VARS_BASE, plain, (2, 2, 2))


def _ideal_columns(target, matrix: TransitionMatrix):
    """Rows and integer ideal columns in a degree d or bi-degree (d1, d2).

    The rows are the monomials within the target degree; the columns are
    the generators times every monomial that keeps them within it, each
    shifted term mapped straight to its row.  Returns (row_index, columns).
    """
    grading, degrees = _grading(target)
    generators = evaluation_ideal("plain", matrix).generators
    row_index = {m: i for i, m in enumerate(grading.monomials(degrees))}
    columns = []
    for gen, gdeg in zip(generators, grading.generator_degrees):
        terms = [(e, int(c)) for e, c in gen.terms.items()]
        for mono in grading.monomials([d - g for d, g in zip(degrees, _grading(gdeg)[1])]):
            columns.append({row_index[tuple(map(add, e, mono))]: c for e, c in terms})
    return row_index, columns


def _quotient_dim(target, matrix: TransitionMatrix) -> int:
    row_index, columns = _ideal_columns(target, matrix)
    rank, _ = rank_certified(columns, len(row_index))
    return len(row_index) - rank


def hilbert_total(d: int, matrix: TransitionMatrix, bound: int = HILBERT_TOTAL_BOUND) -> int:
    """Dimension in degree d of the totally graded quotient ring."""
    _checked(d, bound)
    return _quotient_dim(d, matrix)


def hilbert_bi(
    d1: int, d2: int, matrix: TransitionMatrix, bound: int = HILBERT_BI_BOUND
) -> int:
    """Dimension in bi-degree (d1, d2) of the bi-graded quotient ring."""
    _checked((d1, d2), bound)
    return _quotient_dim((d1, d2), matrix)


def hilbert_total_closed(d: int) -> int:
    """Closed form (4d^3 + 6d^2 + 8d + 3) / 3 for the total grading."""
    _checked(d)
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
        generator_degrees=(2, 2, 2),
        basis_limit=BASIS_TOTAL_BOUND,
        closed=lambda d: hilbert_total_closed(d),
        elements=lambda d: elements_up_to_degree(d),
        maximal_quad=lambda alpha, d: maximal_quad_for_degree(alpha, d),
    ),
    "bi": _Grading(
        label="bi-degree",
        blocks=((0, 1, 2), (3, 4, 5)),
        generator_degrees=((2, 0), (0, 2), (1, 1)),
        basis_limit=BASIS_BI_BOUND,
        closed=lambda d1, d2: hilbert_bi_closed(d1, d2),
        elements=lambda d1, d2: elements_up_to_bidegree(d1, d2),
        maximal_quad=lambda alpha, d1, d2: maximal_quad_for_bidegree(alpha, d1, d2),
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


@dataclass(frozen=True)
class BasisMonomial:
    """One member of the monomial family spanning the graded quotient.

    The ring element alpha picks its maximal quad under the degree bound;
    the quad's indices i_1 <= ... <= i_s pick coordinate triples of the
    germs shifted by -i_k, and the split position j in 0..2s selects
    which coordinate each factor contributes.
    """

    alpha: GoldenInt
    j: int
    quad: Quad | None
    exponents: tuple[int, ...]
    poly: MPoly

    @property
    def size(self) -> int:
        return len(self.exponents)

    def germ_value(self, system: TripleSystem, k: int) -> int:
        """Value at the k-th germ of the system (an exact integer)."""
        if self.quad is None:
            return 1
        val = 1
        for idx, e in zip(self.quad.indices(), self.exponents):
            val *= system.x(2 * k - idx).coord(e)
        return val

    def block_degrees(self) -> tuple[int, int]:
        bidegree, homogeneous = self.poly.block_degrees((0, 1, 2), (3, 4, 5))
        if not homogeneous:
            raise VerificationError("family monomial is not bi-homogeneous")
        return bidegree


def _member(
    alpha: GoldenInt, j: int, quad: Quad | None, matrix: TransitionMatrix
) -> BasisMonomial:
    """M_{alpha,j}, given alpha's maximal quad under the bound."""
    size = quad.size if quad is not None else 0
    if not 0 <= j <= 2 * size:
        raise ValueError(f"split position {j} outside 0..{2 * size}")
    exps = _split_exponents(size, j)
    poly = MPoly.const(VARS_BASE, 1)
    if quad is not None:
        for idx, e in zip(quad.indices(), exps):
            poly = poly * coordinate_polys(-idx, matrix)[e]
    return BasisMonomial(alpha=alpha, j=j, quad=quad, exponents=exps, poly=poly)


def basis_monomial(
    alpha: GoldenInt, j: int, bound, matrix: TransitionMatrix
) -> BasisMonomial:
    """The family member M_{alpha,j} for a degree or bi-degree bound."""
    grading, degrees = _grading(bound)
    return _member(alpha, j, grading.maximal_quad(alpha, *degrees), matrix)


def basis_family(bound, matrix: TransitionMatrix) -> list[BasisMonomial]:
    """All family members under a degree bound d or bi-degree bound (d1, d2).

    Ordered by the (m, n) coordinates of alpha, then by split position.
    """
    grading, degrees = _grading(bound)
    family = []
    for alpha in grading.elements(*degrees):
        quad = grading.maximal_quad(alpha, *degrees)
        size = quad.size if quad is not None else 0
        family += (_member(alpha, j, quad, matrix) for j in range(2 * size + 1))
    return family


@cache
def _basis_solver(bound, matrix: TransitionMatrix):
    """The family at a degree or bi-degree bound, eliminated modulo the ideal.

    The ideal columns are the solver's fixed columns and the family
    polynomials its columns, all over the same rows.  Built once per
    (bound, matrix) and shared by the basis check and reductions.  Returns
    (row_index, family, solver).
    """
    row_index, icols = _ideal_columns(bound, matrix)
    family = tuple(basis_family(bound, matrix))
    fcols = [{row_index[e]: c for e, c in mono.poly.terms.items()} for mono in family]
    return row_index, family, LinearSolver(icols, fcols)


@dataclass(frozen=True)
class BasisReport:
    """Outcome of the spanning check for the monomial family."""

    bound: object
    ambient_dim: int
    ideal_rank: int
    quotient_dim: int
    expected_dim: int
    cardinality: int
    combined_rank: int
    quotient_rank: int
    spans: bool
    # for a deficient family: coefficients of a vanishing combination,
    # as ((alpha m, alpha n, j), coefficient) pairs
    dependency: tuple | None

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
    grading, degrees = _grading(bound)
    _checked(bound, grading.basis_limit)
    expected = grading.closed(*degrees)

    row_index, family, solver = _basis_solver(bound, matrix)
    ideal_rank = solver.fixed_rank
    dependency = None
    if solver.dependencies:
        first = next(iter(solver.dependencies.values()))
        tags = [(mono.alpha.m, mono.alpha.n, mono.j) for mono in family]
        dependency = tuple(sorted((tags[i], c) for i, c in first.items()))
    combined = solver.rank
    nrows = len(row_index)
    quotient_dim = nrows - ideal_rank
    quotient_rank = combined - ideal_rank
    spans = (
        combined == nrows
        and quotient_dim == expected
        and len(family) == expected
        and quotient_rank == expected
    )
    return BasisReport(
        bound=bound,
        ambient_dim=nrows,
        ideal_rank=ideal_rank,
        quotient_dim=quotient_dim,
        expected_dim=expected,
        cardinality=len(family),
        combined_rank=combined,
        quotient_rank=quotient_rank,
        spans=spans,
        dependency=dependency,
    )


# ---------------------------------------------------------------------------
# reduction to family coordinates


@dataclass(frozen=True)
class ReducedElement:
    """Coordinates of a polynomial over the monomial family, mod the ideal."""

    bound: int
    coords: tuple  # ((alpha, j), Fraction) pairs, family order, nonzero only
    family: tuple

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
    quotient, the family part of any solution is unique.  Only a total
    degree bound is handled: a bi-degree (d1, d2) raises ValueError.
    """
    if _grading(bound)[0] is not _GRADINGS["total"]:
        raise ValueError("reduction needs a total degree bound, not a bi-degree")
    if poly.names != VARS_BASE:
        raise ValueError("polynomial must use the six germ coordinates")
    _checked(bound, BASIS_TOTAL_BOUND)
    if poly.total_degree() > bound:
        raise ValueError("polynomial degree exceeds the reduction bound")
    row_index, family, solver = _basis_solver(bound, matrix)
    sol = solver.solve({row_index[e]: c for e, c in poly.terms.items()})
    if sol is None:
        raise VerificationError("reduction failed: family does not span")
    coords = [((mono.alpha, mono.j), c) for mono, c in zip(family, sol) if c]
    return ReducedElement(bound=bound, coords=tuple(coords), family=family)


@dataclass(frozen=True)
class LeadingForm:
    """Largest ring element carrying a nonzero coordinate, with its row."""

    alpha: GoldenInt
    size: int
    coefficients: tuple  # length 2*size + 1, split positions 0..2s


def leading_form(poly: MPoly, bound: int, matrix: TransitionMatrix) -> LeadingForm:
    """Leading coefficient data of a polynomial modulo the ideal.

    The ring elements under the bound are totally ordered by real value;
    the leading form collects the coordinates at the largest element that
    appears.  The bound is a total degree, as in `quotient_coordinates`.
    Raises ValueError for elements of the ideal and for a bi-degree bound.
    """
    red = quotient_coordinates(poly, bound, matrix)
    if red.in_ideal():
        raise ValueError("element lies in the ideal; no leading form")
    lead = None
    for (alpha, _), _c in red.coords:
        if lead is None or alpha > lead:
            lead = alpha
    size = max_size_for_degree(lead, bound)
    coeffs = tuple(red.coefficient(lead, j) for j in range(2 * size + 1))
    return LeadingForm(alpha=lead, size=size, coefficients=coeffs)
