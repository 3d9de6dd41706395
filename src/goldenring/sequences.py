"""Integer triple sequences with golden-exponent growth.

A seed is a pair of symmetric unimodular triples x_1, x_2 together with a
transition matrix M (det 1, neither symmetric nor skew-symmetric) such
that x_2*M*x_1 is again symmetric.  The window

    x_{k+2} = x_{k+1} * M_{k+1} * x_k,   M_{k+1} = M (k odd), transpose(M) (k even)

then consists of symmetric unimodular triples whose first entries grow
doubly exponentially with golden-ratio exponent.  The ratios
x_{k,1}/x_{k,0} converge to a real number xi, and

    theta = a11 + (a12 + a21)*xi + a22*xi**2

governs the multiplicative growth.  xi has a proved rational enclosure and
theta an interval enclosure computed from it, never floats.  The proof
(`xi_certificate`) is integer checks at the end of the window, made once
per system; `system.xi` rounds it outward to about ENDPOINT_BITS significant
bits, so its endpoints stay bounded however long the window.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import count, product

from ._value import Value, set_field
from .errors import BoundExceeded, VerificationError
from .intervals import ENDPOINT_BITS, RationalInterval, decimal_text, parse_decimal

__all__ = [
    "SymTriple",
    "TransitionMatrix",
    "Seed",
    "TripleSystem",
    "symmetry_defect",
    "find_seeds",
    "check_window",
    "generate_system",
    "XiCertificate",
    "xi_certificate",
    "ratio_limit_enclosure",
    "growth_constant_enclosure",
    "verify_system",
    "VerificationReport",
]

DEFAULT_WINDOW = 22

# Size budget of a window: its entries together charge at most WINDOW_BITS
# bits, each its bit length plus 64 (`_term_bits`).  The cost of a window
# follows the size of its entries, not its length K, and the fixed 64 per
# entry bounds the length: at most WINDOW_BITS // 192 terms fit.  Set from
# cost by the README rule: an admitted call finishes cold within about 1 s
# and 100 MB.  On a 2-vCPU Xeon VM with Python 3.11.7 and no compiled
# bytecode, three runs each, the costliest admitted calls are `seq --bound 9
# --seed-index 7 --window 24 --verify` (2,044,932 bits) at 0.40 s and 18 MB,
# `seq --window 26 --verify` (every bound-3 seed fits at K = 26, with at most
# 1,997,514 bits) at 0.37-0.40 s and 18 MB, and `seq --load` of the first
# one's dump with --verify, which forms the window again to match it, at
# 0.24-0.25 s and 18 MB.  A window as large after a search to SEED_BOUND
# costs more, as SEED_BOUND's comment gives.  `seq --load` of a crafted file
# whose window entries fill the pre-check's 631,305 characters, nearly all
# in x_1's first entry, refused by its length as not the seed's x_1 (exit 1)
# without being converted, takes 0.13-0.19 s and 18 MB.  The first refused
# window, that bound-9 seed at K = 25 (3,306,289 bits), exits 3 at its 25th
# term in 0.22-0.23 s and 16 MB; with the budget raised to 2**24, its K = 26
# window takes 1.9-2.1 s and 22 MB to generate, verify and print.
WINDOW_BITS = 2**21

# Largest entry bound `find_seeds` searches (for `seq --bound`), set from cost
# by the README rule (see WINDOW_BITS).  A --seed-index at or past the last
# seed runs the search to its end: on a 2-vCPU Xeon VM with Python 3.11, five
# runs each, a cold `seq --bound B --seed-index 100000000` takes 0.43-0.50 s
# at B = 15 (6,736 seeds), 0.47-0.59 s and 18 MB at B = 16 (7,280 seeds) and
# 0.85-0.92 s at B = 17 (9,408 seeds).  The costliest admitted calls add a
# window near WINDOW_BITS to a search run nearly to its end: `seq --bound 16
# --seed-index 5947 --window 25 --verify` (2,085,840 bits) takes 0.71-0.77 s
# and 18 MB (Python 3.11.7, no compiled bytecode, three runs).  With the
# bound raised to the first refused one, 17, the last seed's largest window
# (`--seed-index 9407 --window 24 --verify`) takes 1.07-1.14 s and 18 MB.
SEED_BOUND = 16

# the one spelling of a loaded window entry, the one decimal_text writes
_CANONICAL = re.compile(r"0|-?[1-9][0-9]*")


def _json_ints(obj, n: int, what: str) -> list[int]:
    """A JSON list of n integers (bools excluded), or ValueError."""
    if not (isinstance(obj, list) and len(obj) == n and all(type(v) is int for v in obj)):
        raise ValueError(f"{what} must be a list of {n} integers")
    return obj


def _int_fields_repr(self) -> str:
    """`Value`'s repr of an all-int value, at any size (`decimal_text`)."""
    args = ", ".join(f"{name}={decimal_text(getattr(self, name))}" for name in self._fields)
    return f"{type(self).__name__}({args})"


class SymTriple(Value):
    """Symmetric integer 2x2 matrix [[x0, x1], [x1, x2]] stored as a triple."""

    __slots__ = ("x0", "x1", "x2")

    def __init__(self, x0: int, x1: int, x2: int):
        set_field(self, "x0", x0)
        set_field(self, "x1", x1)
        set_field(self, "x2", x2)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x0, self.x1, self.x2) == (other.x0, other.x1, other.x2)
        return NotImplemented

    def __hash__(self):
        return hash((self.x0, self.x1, self.x2))

    __repr__ = _int_fields_repr

    def det(self) -> int:
        return self.x0 * self.x2 - self.x1 * self.x1

    def coord(self, j: int) -> int:
        return (self.x0, self.x1, self.x2)[j]

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x0, self.x1, self.x2)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.x0, self.x1), (self.x1, self.x2))


class TransitionMatrix(Value):
    """The integer 2x2 matrix [[a11, a12], [a21, a22]]: det 1, neither
    symmetric nor skew-symmetric."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: int, a12: int, a21: int, a22: int):
        set_field(self, "a11", a11)
        set_field(self, "a12", a12)
        set_field(self, "a21", a21)
        set_field(self, "a22", a22)
        if self.det() != 1:
            raise ValueError("transition matrix must have determinant 1")
        if a12 == a21:
            raise ValueError("transition matrix must not be symmetric")
        if a11 == 0 and a22 == 0 and a12 == -a21:
            raise ValueError("transition matrix must not be skew-symmetric")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a11, self.a12, self.a21, self.a22) == (other.a11, other.a12,
                                                                other.a21, other.a22)
        return NotImplemented

    def __hash__(self):
        return hash((self.a11, self.a12, self.a21, self.a22))

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def transpose(self) -> "TransitionMatrix":
        return TransitionMatrix(self.a11, self.a21, self.a12, self.a22)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a11, self.a12), (self.a21, self.a22))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a11, self.a12, self.a21, self.a22)


def _product_entries(left, mid, right):
    """Entries (p00, p01, p10, p11) of left * mid * right.

    Each factor is a 2x2 matrix read through `.rows()` (a `SymTriple` or a
    `TransitionMatrix`); its entries may be integers or polynomials.
    `ringalg`'s adjugate step needs all four; the tests check `_terms` by it.
    """
    (l00, l01), (l10, l11) = left.rows()
    (m00, m01), (m10, m11) = mid.rows()
    (r00, r01), (r10, r11) = right.rows()
    t00 = l00 * m00 + l01 * m10
    t01 = l00 * m01 + l01 * m11
    t10 = l10 * m00 + l11 * m10
    t11 = l10 * m01 + l11 * m11
    return (
        t00 * r00 + t01 * r10,
        t00 * r01 + t01 * r11,
        t10 * r00 + t11 * r10,
        t10 * r01 + t11 * r11,
    )


def symmetry_defect(M: TransitionMatrix, x: SymTriple, y: SymTriple) -> int:
    """p10 - p01 of x*M*y, which vanishes exactly when the product is symmetric.

    Grouped by the entries of y, so that it takes three products of an
    entry of x with one of y, where the entries of x*M*y take eight.
    It is linear in the entries of M, which `find_seeds` uses: it forms
    the coefficients of that linear form once per triple pair, and `Seed`
    checks each seed it returns by this formula.
    """
    return (
        y.x0 * (M.a11 * x.x1 + M.a21 * x.x2)
        + y.x1 * ((M.a12 - M.a21) * x.x1 + M.a22 * x.x2 - M.a11 * x.x0)
        - y.x2 * (M.a12 * x.x0 + M.a22 * x.x1)
    )


class Seed(Value):
    """The first two terms x_1, x_2 of a window and its transition matrix M."""

    __slots__ = ("x1", "x2", "M")

    def __init__(self, x1: SymTriple, x2: SymTriple, M: TransitionMatrix):
        if x1.det() != 1 or x2.det() != 1:
            raise ValueError("seed triples must have determinant 1")
        if symmetry_defect(M, x2, x1) != 0:
            raise ValueError("x2*M*x1 must be symmetric")
        set_field(self, "x1", x1)
        set_field(self, "x2", x2)
        set_field(self, "M", M)

    def to_json(self) -> dict:
        return {
            "x1": list(self.x1.as_tuple()),
            "x2": list(self.x2.as_tuple()),
            "M": [list(r) for r in self.M.rows()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Seed":
        if not isinstance(obj, dict):
            raise ValueError("seed must be an object")
        rows = obj.get("M")
        if not (isinstance(rows, list) and len(rows) == 2):
            raise ValueError("seed M must be a list of 2 rows")
        return cls(
            SymTriple(*_json_ints(obj.get("x1"), 3, "seed x1")),
            SymTriple(*_json_ints(obj.get("x2"), 3, "seed x2")),
            TransitionMatrix(*(v for r in rows for v in _json_ints(r, 2, "a row of seed M"))),
        )


def _term_bits(t: SymTriple) -> int:
    """What a window term charges against WINDOW_BITS: each entry its bit length plus 64."""
    return t.x0.bit_length() + t.x1.bit_length() + t.x2.bit_length() + 3 * 64


# the most terms and characters a window within WINDOW_BITS can have (see
# `TripleSystem.from_json`): the least charge of a term, and log10 2 < 30103 / 10**5
_MOST_ROWS = WINDOW_BITS // _term_bits(SymTriple(0, 0, 0))
_MOST_CHARS = WINDOW_BITS * 30103 // 10**5


def _step_matrix(M: TransitionMatrix, n: int) -> TransitionMatrix:
    """The matrix that forms x_n from x_{n-1}, x_{n-2}: M at odd n, its transpose at even n."""
    return M if n % 2 else M.transpose()


def _terms(seed: Seed):
    """Yield x_1, x_2, x_3, ..., where x_n = x_{n-1} S_n x_{n-2}.

    Write S_n = `_step_matrix(M, n)`, so S_{n+1} = S_n^T.  Every term is
    symmetric with det 1, so only p00, p01 and p11 of the product are formed:

    * Symmetry, by induction from x_1, x_2 and x_3 = x_2 M x_1, which `Seed`
      checks.  With x_{n-1}, x_{n-2} symmetric, x_{n-2} S_n^T x_{n-1} =
      (x_{n-1} S_n x_{n-2})^T = x_n^T, so x_{n+1} = x_n S_n^T x_{n-1} =
      x_{n-1} S_n x_n^T, whose transpose is x_n S_n^T x_{n-1} = x_{n+1}.
    * Determinant: det x_n = det x_{n-1} det S_n det x_{n-2} = 1 by
      induction, since `TransitionMatrix` and `Seed` refuse any other det.
    """
    prev, last = seed.x1, seed.x2
    yield prev
    for n in count(3):
        yield last
        (m00, m01), (m10, m11) = _step_matrix(seed.M, n).rows()
        (l0, l1, l2), (r0, r1, r2) = last.as_tuple(), prev.as_tuple()
        t0, t1 = l0 * m00 + l1 * m10, l0 * m01 + l1 * m11  # the rows of x_{n-1} S_n
        u0, u1 = l1 * m00 + l2 * m10, l1 * m01 + l2 * m11
        prev, last = last, SymTriple(t0 * r0 + t1 * r1, t0 * r1 + t1 * r2, u0 * r1 + u1 * r2)


class TripleSystem(Value):
    """The window x_1 .. x_K of a seed; the window, xi and theta are derived.

    A system is its seed and its length K, as a sequence of triples is fixed
    by its seed.  `window` is the first K terms of `_terms(seed)`, formed by
    `_window_terms`.  `__init__` reads it, so a length below 3 (ValueError)
    or a window whose entries charge more than WINDOW_BITS (BoundExceeded)
    is refused on construction, however the system is built (generated,
    loaded, built directly, copied or unpickled).
    `certificate`, `xi` and `theta` are computed on first use; a window that
    `xi_certificate` cannot prove raises VerificationError.

    `window_text`, the window's decimal text, is derived as well; `from_json`
    fills it with the strings it read, so a loaded window prints them back
    unconverted.  No derived value is a field: none is a constructor
    argument or part of equality, hashing or repr, and a system built from
    another's fields forms its own.  The derived values are cached in the
    instance `__dict__`, so the fields are named in `_fields`, not `__slots__`.
    """

    _fields = ("seed", "K")

    def __init__(self, seed: Seed, K: int):
        set_field(self, "seed", seed)
        set_field(self, "K", K)
        check_window(K)
        self.window  # formed on construction, so that its budget is checked

    @cached_property
    def window(self) -> tuple[SymTriple, ...]:
        """x_1 .. x_K (`_window_terms`)."""
        return tuple(_window_terms(self.seed, self.K))

    @cached_property
    def certificate(self) -> XiCertificate:
        """The proof that encloses xi (see `xi_certificate`)."""
        return xi_certificate(self)

    @cached_property
    def xi(self) -> RationalInterval:
        """Enclosure of lim x_{k,1}/x_{k,0} (`ratio_limit_enclosure`)."""
        return ratio_limit_enclosure(self)

    @cached_property
    def theta(self) -> RationalInterval:
        """Enclosure of the growth constant, from `xi`."""
        return growth_constant_enclosure(self)

    @cached_property
    def window_text(self) -> tuple[tuple[str, str, str], ...]:
        """The window's entries as decimal strings (`decimal_text`)."""
        return tuple(tuple(map(decimal_text, t.as_tuple())) for t in self.window)

    def x(self, k: int) -> SymTriple:
        if not 1 <= k <= self.K:
            raise ValueError(f"index {k} outside window 1..{self.K}")
        return self.window[k - 1]

    def germ(self, i: int, j: int, k: int) -> int:
        """Window entry x_{2k+i, j} of the offset-i coordinate-j germ."""
        return self.x(2 * k + i).coord(j)

    def to_json(self) -> dict:
        """The seed, the window as `window_text` and the reported enclosures.

        A loaded window echoes the text it was read from (see `from_json`).
        """
        return {
            "seed": self.seed.to_json(),
            "window": [list(t) for t in self.window_text],
            "xi": self.xi.to_json(),
            "theta": self.theta.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TripleSystem":
        """Read the seed and the window that `to_json` writes; nothing else.

        Window entries must be strings in the canonical form
        0|-?[1-9][0-9]* that `decimal_text` writes; a wrong shape, spelling
        or value raises ValueError.  So the strings read are the window's
        `window_text`, and fill its cache.

        Before any entry is converted, the window follows `check_window`
        and has a term count and a character count that some window within
        WINDOW_BITS can have (BoundExceeded otherwise).  An entry of b bits
        has at most floor(b log10 2) + 1 digits and a sign, so at most
        (b + 64) log10 2 characters: a window within the budget has at most
        WINDOW_BITS log10 2 of them, counted here with 30103 / 10**5 >
        log10 2.  So every window that `generate_system` builds loads.

        Then each entry is compared with the seed's term, formed by
        `_window_terms` as for a generated window, so the budget is checked
        as the terms are formed.  A text of more than b * 30103 // 10**5 + 2
        characters, longer than any spelling of a b-bit entry, is wrong
        without being converted.  The first wrong term raises
        VerificationError, and no term past it or past x_K is formed; the
        matched terms fill the `window` cache.
        """
        if not isinstance(obj, dict):
            raise ValueError("a window file must hold an object")
        seed = Seed.from_json(obj.get("seed"))
        rows = obj.get("window")
        if not (
            isinstance(rows, list)
            and all(isinstance(t, list) and len(t) == 3 for t in rows)
            and all(isinstance(v, str) for t in rows for v in t)
        ):
            raise ValueError("window must be a list of triples of decimal strings")
        check_window(len(rows))
        chars = sum(len(v) for t in rows for v in t)
        if len(rows) > _MOST_ROWS or chars > _MOST_CHARS:
            raise BoundExceeded(
                f"window of {len(rows)} terms and {chars} characters cannot fit"
                f" WINDOW_BITS = {WINDOW_BITS}"
            )
        if not all(_CANONICAL.fullmatch(v) for t in rows for v in t):
            raise ValueError("window entries must be canonical decimal integers 0|-?[1-9][0-9]*")
        window = []
        # the rows first, so that zip stops at their end without forming x_{K+1}
        for k, (row, term) in enumerate(zip(rows, _window_terms(seed, len(rows))), 1):
            entries = term.as_tuple()
            too_long = any(len(v) > e.bit_length() * 30103 // 10**5 + 2
                           for v, e in zip(row, entries))
            if too_long or tuple(map(parse_decimal, row)) != entries:
                raise VerificationError(f"recurrence fails at term {k}" if k > 2
                                        else "window does not start at the seed")
            window.append(term)
        # the caches are filled before __init__, which then reads the
        # matched window instead of forming it again
        system = cls.__new__(cls)
        set_field(system, "window", tuple(window))
        set_field(system, "window_text", tuple(map(tuple, rows)))
        system.__init__(seed, len(rows))
        return system


def _symmetric_unimodular(bound: int) -> list[SymTriple]:
    entries = product(range(-bound, bound + 1), repeat=3)
    return [SymTriple(*t) for t in entries if t[0] * t[2] - t[1] * t[1] == 1]


def _transition_matrices(bound: int) -> list[TransitionMatrix]:
    """Every det-1 matrix with entries in [-bound, bound] that is neither
    symmetric nor skew-symmetric, in lexicographic order of its entries.

    det M = 1 fixes a22 = (1 + a12*a21) / a11 when a11 != 0, so that case
    tries (2*bound+1)**3 tuples, not (2*bound+1)**4.  When a11 = 0 it asks
    a12*a21 = -1, so (a12, a21) is (-1, 1) or (1, -1), and a22 != 0 keeps M
    from being skew-symmetric.
    """
    span = range(-bound, bound + 1)
    mats = []
    for a11 in span:
        if a11 == 0:
            mats += [TransitionMatrix(0, a12, -a12, a22) for a12 in (-1, 1) for a22 in span if a22]
            continue
        for a12, a21 in product(span, repeat=2):
            a22, rest = divmod(1 + a12 * a21, a11)
            if not rest and -bound <= a22 <= bound and a12 != a21:
                mats.append(TransitionMatrix(a11, a12, a21, a22))
    return mats


def find_seeds(entry_bound: int, count: int | None = None) -> list[Seed]:
    """Exhaustive seed search over entries bounded by entry_bound.

    A candidate qualifies when x_2*M*x_1 is symmetric and
    |x_{1,0}| < |x_{2,0}| < |x_{3,0}|.  Reading more terms refuses no more:
    filters of 3 to 12 terms gave the same seeds in the same order at every
    entry bound 1..12, the 8-term one included.  Results come in a fixed
    lexicographic order of (x_1, x_2, M), up to `count` of them (all when
    count is None).  An entry bound or count below 1 raises ValueError, and
    an entry bound above SEED_BOUND BoundExceeded, before any work.

    Both tests on M are linear in its entries (a11, a12, a21, a22).  With
    x_1 = y and x_2 = p, `symmetry_defect(M, p, y)` is the dot product of
    the entries with (y0 p1 - y1 p0, y1 p1 - y2 p0, y0 p2 - y1 p1,
    y1 p2 - y2 p1), and x_{3,0} = (p M y)_00 is the dot product with
    (p0 y0, p0 y1, p1 y0, p1 y1).  So each pair forms its two coefficient
    vectors once, and a matrix costs two dot products.  The pruning is
    exact: the first inequality reads no matrix, so a pair that fails it
    has no seed and is skipped whole, and each kept matrix meets the
    same tests as the full filter, in the same order.  `Seed` checks the
    defect of each returned seed again by `symmetry_defect`.
    """
    if entry_bound < 1 or (count is not None and count < 1):
        raise ValueError("entry_bound and count must be positive")
    if entry_bound > SEED_BOUND:
        raise BoundExceeded(f"seed bound {entry_bound} exceeds bound {SEED_BOUND}")
    seeds: list[Seed] = []
    triples = _symmetric_unimodular(entry_bound)
    mats = [(M, *M.entries()) for M in _transition_matrices(entry_bound)]
    for x1 in triples:
        y0, y1, y2 = x1.as_tuple()
        for x2 in triples:
            p0, p1, p2 = x2.as_tuple()
            least = abs(p0)  # |x_{2,0}|, which |x_{1,0}| must stay below and |x_{3,0}| exceed
            if abs(y0) >= least:
                continue
            d11, d12 = y0 * p1 - y1 * p0, y1 * p1 - y2 * p0  # the defect's coefficients
            d21, d22 = y0 * p2 - y1 * p1, y1 * p2 - y2 * p1
            f11, f12, f21, f22 = p0 * y0, p0 * y1, p1 * y0, p1 * y1  # x_{3,0}'s coefficients
            seeds += [
                Seed(x1, x2, M) for M, a11, a12, a21, a22 in mats
                if d11 * a11 + d12 * a12 + d21 * a21 + d22 * a22 == 0
                and abs(f11 * a11 + f12 * a12 + f21 * a21 + f22 * a22) > least
            ]
            if count is not None and len(seeds) >= count:
                return seeds[:count]
    return seeds


def check_window(K: int) -> None:
    """Refuse a window length below 3 (ValueError).

    This is the one window-length rule: every `TripleSystem` follows it on
    construction, generated, loaded (`from_json` checks it before parsing a
    digit) or built directly, and `xi_certificate` and `verify_system` take
    any length it admits.  No length is too long as such: how long a window
    may be follows from the size of its entries, which WINDOW_BITS bounds.
    """
    if K < 3:
        raise ValueError("window length must be at least 3")


def _window_terms(seed: Seed, K: int):
    """Yield x_1 .. x_K of `_terms(seed)`, summing their charge against WINDOW_BITS.

    The first term that crosses the budget raises BoundExceeded, and no
    later term is formed, so a refused window costs at most the budget and
    one term.  Nor is x_(K+1), for any int K: the zip reads the range first.
    This is the one place the budget is summed: a generated window is formed
    here (`TripleSystem.window`), and a loaded one is matched against it
    (`TripleSystem.from_json`).
    """
    bits = 0
    for k, term in zip(range(1, K + 1), _terms(seed)):
        bits += _term_bits(term)
        if bits > WINDOW_BITS:
            raise BoundExceeded(f"window of {decimal_text(K)} terms crosses"
                                f" WINDOW_BITS = {WINDOW_BITS} at term {k}")
        yield term


def generate_system(seed: Seed, K: int = DEFAULT_WINDOW) -> TripleSystem:
    """The system of x_1..x_K, symmetric unimodular triples (see `_terms`).

    K must be at least 3 (see check_window), and the window must fit
    WINDOW_BITS (see `_window_terms`); both are checked as it is built.
    """
    return TripleSystem(seed, K)


class XiCertificate(Value):
    """A proof that |xi - q/p| <= 2 |d| / (|p| |p_next|), made by `xi_certificate`.

    p, q and p_next are x_{K,0}, x_{K,1} and x_{K+1,0}, and d = p_K p_{K+1}
    (r_{K+1} - r_K), so the radius is twice the first step past the window.
    p and p_next are nonzero (see `xi_certificate`).  The product
    |p p_next| is never formed: a ceiling over it is taken as two nested
    floor divisions, first by |p| and then by |p_next|, since
    floor(floor(x / a) / b) = floor(x / (a b)) for integers a, b > 0.
    Enclosures are outward roundings of this one proof.
    """

    __slots__ = ("p", "q", "p_next", "d")

    def __init__(self, p: int, q: int, p_next: int, d: int):
        set_field(self, "p", p)
        set_field(self, "q", q)
        set_field(self, "p_next", p_next)
        set_field(self, "d", d)

    __repr__ = _int_fields_repr

    def bounds(self, s: int) -> tuple[int, int]:
        """Integers lo, hi with lo / 2**s <= xi <= hi / 2**s (s an int >= 0)."""
        if type(s) is not int or s < 0:
            raise ValueError("scale must be an int of at least 0")
        n = (self.q << s) // self.p  # r_K lies in [n, n + 1) / 2**s
        # ceil(radius * 2**s)
        e = -((-abs(self.d) << s + 1) // abs(self.p) // abs(self.p_next))
        return n - e, n + 1 + e

    def enclosure(self, s: int) -> RationalInterval:
        """The proved interval, rounded outward to multiples of 2**-s (s an
        int >= 0; `bounds` refuses any other s before any work).

        `system.xi` takes s near ENDPOINT_BITS; a larger s asks for more
        precision, at the cost of a gcd of its s-bit endpoints.
        """
        lo, hi = self.bounds(s)
        return RationalInterval(Fraction(lo, 1 << s), Fraction(hi, 1 << s))


def xi_certificate(system: TripleSystem) -> XiCertificate:
    """Prove an enclosure of xi = lim r_k, r_k = x_{k,1}/x_{k,0}, from x_{K-1}, x_K.

    Continue the window by x_{k+1} = x_k M_k x_{k-1} (M_k = M or its
    transpose, second row (m10, m11)) and write p_k = x_{k,0}.  The
    premises are det x_{K-1} = det x_K = 1 and x_{K+1} symmetric.  Given
    them, every later term is symmetric with det 1 (the induction in
    `_terms`), and:

    * Identity: x J x = J for such x, J = [[0, 1], [-1, 0]], so
      x_k J x_{k+1} = J M_k x_{k-1}, whose (0, 0) entry reads
      p_k p_{k+1} (r_{k+1} - r_k) = p_{k-1} (m10 + m11 r_{k-1}).
    * Growth invariant: p_{k+1} = g(r_k, r_{k-1}) p_k p_{k-1}, where
      g(u, v) = m00 + m01 v + m10 u + m11 u v.  On the interval J of points
      within 2 |r_{K+1} - r_K| of r_K, |g| >= G and |m10 + m11 v| <= A for
      both M_k; while the ratios stay in J, |p_{k+1}| >= G |p_k p_{k-1}|
      >= lam |p_k| for k > K, with lam = G min(|p_K|, |p_{K+1}|) >= 2.
    * Tail bound: so |r_{k+1} - r_k| <= A / (G p_k**2) for k > K; these steps
      sum to at most (4/3) A / (G p_{K+1}**2), checked to be at most
      |r_{K+1} - r_K|.  By induction the ratios stay in J, and
      |xi - r_K| <= 2 |r_{K+1} - r_K|.

    The premises hold by the induction in `_terms`, and nothing is formed
    for them: every window is x_1..x_K of `_terms(seed)` (see
    `TripleSystem`), `Seed` has checked det x_1 = det x_2 = 1 and x_2 M x_1
    symmetric, and `TransitionMatrix` det M = 1.  They make p_K and p_{K+1}
    nonzero: x_K and x_{K+1} are symmetric with det 1, and a symmetric
    triple with x0 = 0 has det -x1**2 != 1.  |r_{K+1} - r_K| = |d| /
    (|p_K| |p_{K+1}|), and no product of p_K and p_{K+1} is formed: J's
    radius is a ceiling taken by nested floor divisions, first by |p_K| and
    then by |p_{K+1}| (as in `XiCertificate.bounds`), and the tail check
    4 A |p_K| <= 3 |d| G |p_{K+1}| is read as ceil(4 A |p_K| / (3 G
    |p_{K+1}|)) <= |d|, the same inequality once the growth check has made
    G > 0.

    G and A are integers at the scale 2**-ENDPOINT_BITS, so every check is an
    integer comparison.  A failed growth or tail check raises
    VerificationError, asking for a larger K.
    """
    K = system.K
    return _xi_certificate(system.x(K - 1), system.x(K), _step_matrix(system.seed.M, K + 1))


def _xi_certificate(prev: SymTriple, last: SymTriple, M: TransitionMatrix) -> XiCertificate:
    """`xi_certificate` from x_{K-1} = prev, x_K = last and M_{K+1} = M.

    The premises, det prev = det last = 1 and last M prev symmetric, are the
    caller's: `xi_certificate` takes them from the recurrence, and a seed
    pair (x_1, x_2, M) has them from `Seed`.
    """
    a11, a12, a21, a22 = M.entries()
    p, q = last.x0, last.x1
    p_next = (p * a11 + q * a21) * prev.x0 + (p * a12 + q * a22) * prev.x1
    d = a21 * prev.x0 + a22 * prev.x1  # p_K p_{K+1} (r_{K+1} - r_K)
    F = ENDPOINT_BITS
    c = (q << F) // p  # J = [c - rho, c + rho] / 2**F
    # >= 2**F (2 |r_{K+1} - r_K|) + 1
    rho = -((-abs(d) << F + 1) // abs(p) // abs(p_next)) + 1
    slopes = [abs((a << F) + a22 * c) for a in (a12, a21)]  # |m10 + m11 c| 2**F
    theta = (a11 << 2 * F) + ((a12 + a21) * c << F) + a22 * c * c  # 4**F g(c, c)
    # on J x J, |g - g(c, c)| <= rho (sum of slopes + |m11| rho); scale 4**F
    G = abs(theta) - rho * (sum(slopes) + abs(a22) * rho)
    A = max(slopes) + abs(a22) * rho  # 2**F A
    if not (
        G * min(abs(p), abs(p_next)) >= 2 << 2 * F  # so G > 0
        and -(-(4 * A * abs(p) << F) // (3 * G * abs(p_next))) <= abs(d)
    ):
        raise VerificationError("enclosure not certified; increase K")
    return XiCertificate(p, q, p_next, d)


def ratio_limit_enclosure(system: TripleSystem) -> RationalInterval:
    """The proved enclosure of xi with about ENDPOINT_BITS significant bits (`system.xi`).

    `system.certificate` rounded outward to multiples of 2**-s, with s
    chosen so that 2**(ENDPOINT_BITS - 1) < |r_K| 2**s < 2**(ENDPOINT_BITS
    + 1); once the radius is below 2**-s the width, 3 / 2**s, is at most
    2**(3 - ENDPOINT_BITS) of |xi|.
    """
    cert = system.certificate
    return cert.enclosure(max(0, ENDPOINT_BITS + cert.p.bit_length() - cert.q.bit_length()))


def growth_constant_enclosure(system: TripleSystem) -> RationalInterval:
    """Enclosure of theta = a11 + (a12+a21)*xi + a22*xi**2, from system.xi."""
    M, xi = system.seed.M, system.xi
    return (M.a11 + (M.a12 + M.a21) * xi) + M.a22 * (xi * xi)


class VerificationReport(Value):
    """What `verify_system` found for a window of length K.

    `e4_dets` holds the triple determinants, read off the transition matrix
    by their proof (`_triple_dets`); the growth exponents (e1) and the
    approximation products (e2) are measured on the window, and xi and
    theta are its enclosures.
    `dets_ok` and `recurrence_ok` are True on every report, since a window
    holds them by construction and any other failure raises (see
    `verify_system`); `e4_abs_constant` and `theta_excludes_zero` are read
    off the fields.
    """

    __slots__ = ("K", "e4_dets", "e1_exponents", "e2_first", "e2_second", "xi", "theta")
    dets_ok = recurrence_ok = True

    def __init__(self, K: int, e4_dets: list[int], e1_exponents: list[tuple[int, float]],
                 e2_first: list[tuple[int, Fraction]], e2_second: list[tuple[int, Fraction]],
                 xi: RationalInterval, theta: RationalInterval):
        set_field(self, "K", K)
        set_field(self, "e4_dets", e4_dets)
        set_field(self, "e1_exponents", e1_exponents)
        set_field(self, "e2_first", e2_first)
        set_field(self, "e2_second", e2_second)
        set_field(self, "xi", xi)
        set_field(self, "theta", theta)

    @property
    def e4_abs_constant(self) -> bool:
        """|det| is one value over two or more triple determinants."""
        return len(self.e4_dets) >= 2 and len({abs(v) for v in self.e4_dets}) == 1

    @property
    def theta_excludes_zero(self) -> bool:
        return self.theta.excludes_zero()

    def summary(self) -> dict:
        """The report as JSON-ready values.

        `e2_first_max` and `e2_second_max` are upper bounds printed as floats,
        and stay sound so: `_float_up` returns the least float >= the exact
        bound, `json.dumps` and the text form (the dict's repr) both print
        that float's `repr`, and a float's `repr` reads back as the same
        float.  So the printed decimal, read back, is >= the exact bound.
        """
        return {
            "K": self.K,
            "dets_ok": self.dets_ok,
            "recurrence_ok": self.recurrence_ok,
            "e4_dets": self.e4_dets,
            "e4_abs_constant": self.e4_abs_constant,
            "e1_exponents": [[k, round(e, 6)] for k, e in self.e1_exponents],
            "e2_first_max": _float_up(max((v for _, v in self.e2_first), default=0)),
            "e2_second_max": _float_up(max((v for _, v in self.e2_second), default=0)),
            "xi": self.xi.to_json(),
            "theta": self.theta.to_json(),
            "theta_excludes_zero": self.theta_excludes_zero,
        }


def _triple_dets(M: TransitionMatrix, K: int) -> list[int]:
    """det(x_{n-2}, x_{n-1}, x_n) for n = 3..K, read off M: tr(S_n J).

    This is Roy's constant triple determinant, proved here; the tests
    compare it with the determinants formed from window entries.  Read a
    triple as the symmetric matrix [[x0, x1], [x1, x2]] and let
    J = [[0, 1], [-1, 0]].  For symmetric A, B, C,
    T(A, B, C) = -tr(A J B J C J) is trilinear and unchanged by a cyclic
    shift, and T(A, C, B) = -T(A, B, C), since the transpose of A J B J C J
    is -J C J B J A.  So T is alternating, a multiple of det, and
    T = det = 1 at (1, 0, 0), (0, 1, 0), (0, 0, 1).  Put
    x_n = x_{n-1} S_n x_{n-2}, S_n the step matrix `_step_matrix(M, n)`,
    and use x J x = J, the identity of `xi_certificate` for a symmetric x
    with det 1 (every window term is one, see `_terms`), for x_{n-1}, then
    J J = -1 and x J x = J for x_{n-2}; write x = x_{n-2}, y = x_{n-1}:

        det(x, y, x_n) = -tr(x J y J y S_n x J) = tr(x S_n x J)
                       = tr(S_n x J x) = tr(S_n J),

    which is a21 - a12 for S_n = M (n odd) and a12 - a21 for S_n = M^T (n
    even).  So |det| is the same |a12 - a21| for every n, nonzero since
    `TransitionMatrix` refuses a symmetric M.
    """
    t = M.a21 - M.a12
    return [t if n % 2 else -t for n in range(3, K + 1)]


def _float_up(v: Fraction) -> float:
    """The least float >= v, so a printed upper bound is still one."""
    f = float(v)
    return math.nextafter(f, math.inf) if f < v else f


def _approximation_products(system: TripleSystem, cert: XiCertificate):
    """Upper bounds of |xi*x0 - x1|*|x0| and |xi**2*x0 - x2|*|x0| for k < K.

    With x_k = (p_k, q_k, x_{k,2}) and r_k = q_k / p_k, the products are |f_k|
    and |f_k (xi + r_k) - 1|, where f_k = p_k**2 (xi - r_k); the second form
    uses det x_k = 1, p_k x_{k,2} = q_k**2 + 1.  The integer
    N_k = p_k q_{k+1} - p_{k+1} q_k = p_k p_{k+1} (r_{k+1} - r_k) gives

        f_k = p_k N_k / p_{k+1} + (p_k / p_{k+1})**2 f_{k+1},

    formed from k = K - 1 down, from |f_K| <= p_K**2 R = 2 |p_K d / p_{K+1}|
    with the certificate's radius R = 2 |d| / (|p_K| |p_{K+1}|), which
    `cert.bounds` rounds by nested divisions.  N_k needs no product of
    window entries: by the identity in `xi_certificate`,
    N_k = m10 p_{k-1} + m11 q_{k-1} for the second row of the step matrix
    that forms x_{k+1}.  The identity and det x_k = 1 hold because every
    window is x_1..x_K of `_terms`, whose terms are symmetric with det 1
    (see `TripleSystem`); it spares the two wide products of N_k.

    Each f_k is a pair of integers at the scale 2**-W, W = ENDPOINT_BITS +
    8, rounded outward: every quotient is one integer division, and a
    bound exceeds its product by a few units of 2**-W.
    """
    W = ENDPOINT_BITS + 8
    x_lo, x_hi = cert.bounds(W)
    B = -((-abs(cert.p * cert.d) << W + 1) // abs(cert.p_next))  # >= |f_K| 2**W
    lo, hi = -B, B
    M = system.seed.M
    first, second = [], []
    for k in range(system.K - 1, 0, -1):  # the last index anchors the enclosure; skip it
        (p, q, _), (p_next, q_next, _) = system.x(k).as_tuple(), system.x(k + 1).as_tuple()
        if k > 1:
            _, (m10, m11) = _step_matrix(M, k + 1).rows()
            before = system.x(k - 1)
            N = m10 * before.x0 + m11 * before.x1
        else:
            N = p * q_next - p_next * q
        a = (p * N << W) // p_next  # floor(p_k N_k / p_{k+1} 2**W)
        t = (abs(p) << W) // abs(p_next)  # |p_k / p_{k+1}| 2**W in [t, t + 1)
        r2 = (t * t, (t + 1) * (t + 1))
        lo = a + (min(v * lo for v in r2) >> 2 * W)
        hi = a + 1 - (-max(v * hi for v in r2) >> 2 * W)
        first.append((k, Fraction(max(-lo, hi), 1 << W)))
        r = (q << W) // p  # r_k 2**W in [r, r + 1)
        w = (x_lo + r, x_hi + r + 1)  # (xi + r_k) 2**W
        products = [u * v for u in (lo, hi) for v in w]  # f_k (xi + r_k) 2**(2W)
        one = 1 << W
        bound = max(one - (min(products) >> W), -(-max(products) >> W) - one)
        second.append((k, Fraction(bound, one)))
    return first[::-1], second[::-1]


def verify_system(system: TripleSystem) -> VerificationReport:
    """Measure the growth conditions of a window.

    The window is x_1..x_K of `_terms(seed)`, generated or matched term by
    term on load (see `TripleSystem`), so `dets_ok` and `recurrence_ok`
    hold by construction: the report holds them as constants, not fields.
    The triple determinants are read off M (`_triple_dets`).  An enclosure
    that cannot be proved raises VerificationError, so no report says
    otherwise.  `e4_abs_constant` needs two triple determinants, so it is
    False at K = 3.  Growth-rate exponents and approximation products are
    reported for inspection.  No window length is refused here: every seed
    of `find_seeds(9)` certifies and verifies at each K from 3 to 9.  Of the
    7,280 seeds of `find_seeds(16)`, 64 (none of bound 9 or less) cannot
    certify xi at K = 3 and raise VerificationError; each certifies from
    K = 4 to 9.
    """
    K = system.K
    e4 = _triple_dets(system.seed.M, K)

    e1 = []
    for k in range(1, K):
        a, b = abs(system.x(k).x0), abs(system.x(k + 1).x0)
        if a >= 2 and b >= 2:
            e1.append((k, math.log(b) / math.log(a)))

    xi, theta = system.xi, system.theta
    e2_first, e2_second = _approximation_products(system, system.certificate)
    return VerificationReport(K, e4, e1, e2_first, e2_second, xi, theta)
