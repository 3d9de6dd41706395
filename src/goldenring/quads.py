"""Representations of ring elements as sums of inverse golden powers.

A representation of alpha >= 0 is a non-decreasing tuple (i_1 <= ... <= i_s)
of nonnegative indices with alpha = sum of gamma**(-i_k).  Its weight data:

    degree   d  = sum f(i_k)
    bidegree    = (sum f(i_k - 2), sum f(i_k - 1))
    size     s  = number of indices

A quad (i; a, b, c) with a >= 1, b, c >= 0 encodes the representation with
a copies of i, b of i+1, c of i+2.  Two single-step moves organize all
representations of bounded degree:

    expand_quad    keeps the value, increases size by 1
    contract_quad  keeps the bidegree, decreases size by 1

The census functions count, for every ring element of bounded (bi)degree,
the maximal representation size, both by closed formula and by brute-force
enumeration.

A degree bound d and a bi-degree bound (d1, d2) go through one path.  The
bound is read as its degrees, one per block, (d,) or (d1, d2), and its caps
(c1, c2, total) are (d, d, d) or (d1, d2, d1 + d2): a bidegree (u1, u2) fits
when u1 <= c1, u2 <= c2 and u1 + u2 <= total.  For a degree this is exact,
as both parts are nonnegative (f(i-2), f(i-1) >= 0 for i >= 0) and sum to
the degree.  One private function per job serves both gradings: `_check`
refuses the bound, `_element_pairs` lists the elements through the one
enumeration (`_nonnegative`), `_census_sizes` runs the one census
(`_census`), and `_maximal_quad` walks `expand_quad` while the weights fit.
The first two give coordinate pairs (m, n), not GoldenInt values, and
refuse each bound before any work; the CLI reads them as pairs, and each
public function of a degree or a bi-degree bound is one call of them.  The
closed forms (`size_class_count(_bi)`) are different formulas, kept apart.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, repeat, starmap

from ._value import Value, set_field
from .errors import BoundExceeded
from .golden import BiDegree, GoldenInt, fib

__all__ = [
    "Quad",
    "PartitionClass",
    "classify",
    "canonical_quad",
    "expand_quad",
    "contract_quad",
    "quads_for_value",
    "quads_with_bidegree",
    "max_size_for_degree",
    "max_size_for_bidegree",
    "maximal_quad_for_degree",
    "maximal_quad_for_bidegree",
    "elements_up_to_degree",
    "elements_up_to_bidegree",
    "size_class_count",
    "size_class_count_bi",
    "size_class_profile",
    "size_class_profile_bi",
    "brute_force_sizes",
    "brute_force_sizes_bi",
    "sizes_to_profile",
    "BRUTE_FORCE_MAX_DEGREE",
    "ENUM_DEGREE_BOUND",
    "CHI_DEGREE_BOUND",
    "QUADS_COUNT_BOUND",
    "QUADS_BIDEGREE_BOUND",
]

# Largest d, and d1 + d2, that the brute-force census admits, set from cost by
# the rule the README states for exit code 3.  The census at d1 + d2 = S
# enumerates a subset of the one at d = S, so that one is the costliest.  On a
# 2-vCPU Xeon VM with Python 3.11, whose speed varies up to twofold between
# sessions, a cold process (import, seed search and the call) takes 0.37-0.76 s
# for brute_force_sizes(50), 0.39-0.55 s for (51) and 0.55-1.21 s for (55), all
# 16 MB: 50 is the largest measured under 1 s in every session.  With the
# census keyed by (m, n), a cold `chi --d 50 --oracle` takes 0.30-0.51 s and
# `chi --d 51 --oracle`, with the bound raised, 0.32-0.54 s, both 16 MB
# (Python 3.11.7).
BRUTE_FORCE_MAX_DEGREE = 50

# Largest d, and d1 + d2, that `elements_up_to_degree` and
# `elements_up_to_bidegree` list (for `enum`, as (m, n) pairs), set from cost
# by the same rule.  --d D lists D**2 + D + 1 elements: on a 2-vCPU Xeon VM
# with Python 3.11.7, a cold `enum --d 400` (fresh process, no compiled
# bytecode, six runs in two rounds) takes 0.22-0.33 s and 58 MB as JSON,
# 0.18-0.27 s and 41 MB as csv and 0.19-0.27 s and 41 MB as text (0.38-0.48 s
# when text was printed a line at a time).  --d 450 (the bound raised) took
# 0.24-0.40 s and 68 MB as JSON, and --d1 200 --d2 200 0.15-0.22 s and 38 MB.
ENUM_DEGREE_BOUND = 400

# Largest d, and d1 + d2, whose profile `size_class_profile` and
# `size_class_profile_bi` build (for `chi`), by the same rule.  The profile has
# one entry per size 0..d: on the same VM, a cold `chi --d 250000` takes
# 0.22-0.38 s as JSON and 0.56-0.63 s as csv, --d1 125000 --d2 125000
# 0.30-0.61 s and 0.75-0.76 s, --d 500000 0.43-0.46 s and 0.88-1.03 s, and
# --d 2000000 1.0-1.2 s and 129 MB as JSON.
CHI_DEGREE_BOUND = 250_000

# Largest count `quads_for_value` takes (`quads --count`), by the same rule.
# On the same VM a cold `quads --alpha 0 1 --count 20000` takes 0.40-0.69 s as
# JSON and 0.50-0.63 s as csv or text, --count 25000 0.60-0.87 s as JSON for
# five values of alpha, --count 50000 1.1-1.3 s and 62 MB, and --count 100000
# 2.2-2.4 s and 107 MB.
QUADS_COUNT_BOUND = 20_000

# Largest d1 + d2 that `quads_with_bidegree` takes (`quads --bidegree`), by
# the same rule.  The chain is longest, about d1 + d2 quads, near
# d1 = (d1 + d2) / gamma**2: on the same VM a cold `quads --bidegree 15279
# 24721` takes 0.63-0.79 s and 53 MB as JSON and 0.62-0.75 s as csv or text,
# 19098 30902 0.81-0.90 s, and 100000 100000 1.5-1.6 s and 105 MB as JSON.
QUADS_BIDEGREE_BOUND = 40_000


@functools.lru_cache(maxsize=128)
def _fib_window(i: int) -> tuple[int, int, int, int]:
    """(f(i-2), f(i-1), f(i), f(i+1)), the Fibonacci numbers a quad at index i
    reads.  A chain visits few indices (the 20,000 quads of 1/gamma end at
    index 21), so a bounded cache holds them all."""
    return fib(i - 2), fib(i - 1), fib(i), fib(i + 1)


class Quad(Value):
    """Compressed representation (i; a, b, c): a*i, b*(i+1), c*(i+2)."""

    __slots__ = ("i", "a", "b", "c")

    def __init__(self, i: int, a: int, b: int, c: int):
        if i < 0 or a < 1 or b < 0 or c < 0:
            raise ValueError("quad needs i >= 0, a >= 1, b >= 0, c >= 0")
        set_field(self, "i", i)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.a, self.b, self.c) == (other.i, other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self):
        return hash((self.i, self.a, self.b, self.c))

    def value(self) -> GoldenInt:
        # a gamma**k + b gamma**(k-1) + c gamma**(k-2) at k = -i, where
        # gamma**k = f(k) + f(k-1)/gamma
        a, b, c, k = self.a, self.b, self.c, -self.i
        f0, f1, f2, f3 = fib(k), fib(k - 1), fib(k - 2), fib(k - 3)
        return GoldenInt(a * f0 + b * f1 + c * f2, a * f1 + b * f2 + c * f3)

    @property
    def size(self) -> int:
        return self.a + self.b + self.c

    def weights(self) -> tuple[int, int]:
        """(d1, d2), from one read of f(i-2)..f(i+1): index k adds
        (f(k-2), f(k-1)), and k runs over i, i+1 and i+2."""
        f0, f1, f2, f3 = _fib_window(self.i)
        a, b, c = self.a, self.b, self.c
        return a * f0 + b * f1 + c * f2, a * f1 + b * f2 + c * f3

    @property
    def d1(self) -> int:
        return self.weights()[0]

    @property
    def d2(self) -> int:
        return self.weights()[1]

    @property
    def degree(self) -> int:
        # f(k) = f(k-2) + f(k-1), index by index
        d1, d2 = self.weights()
        return d1 + d2

    @property
    def bidegree(self) -> BiDegree:
        return BiDegree(*self.weights())

    def indices(self) -> tuple[int, ...]:
        return (self.i,) * self.a + (self.i + 1,) * self.b + (self.i + 2,) * self.c

    def to_json(self) -> dict:
        return {"i": self.i, "a": self.a, "b": self.b, "c": self.c}


class PartitionClass(Value):
    """Which stratum a nonnegative element belongs to.

    kind is "zero", "plus" (both coordinates >= 1), or "band" with the
    unique band index i >= 0 such that alpha = m'*gamma**-i + n'*gamma**-(i+2)
    for integers m' >= 1, n' >= 0.
    """

    __slots__ = ("kind", "band")

    def __init__(self, kind: str, band: int | None = None):
        set_field(self, "kind", kind)
        set_field(self, "band", band)


def canonical_quad(alpha: GoldenInt) -> Quad | None:
    """Smallest-size quad representing alpha; None for alpha = 0.  Its shape
    is alpha's class: (0; m, n, 0), with b >= 1, when alpha is plus, and
    (i; m + n, 0, -n) at band i, where m + n/gamma is alpha * gamma**i."""
    s = alpha.sign()
    if s < 0:
        raise ValueError("element must be nonnegative")
    if s == 0:
        return None
    if alpha.m >= 1 and alpha.n >= 1:
        return Quad(0, alpha.m, alpha.n, 0)
    limit = 2 * (abs(alpha.m) + abs(alpha.n)).bit_length() + 4
    # m + n/gamma is alpha * gamma**i.  Band i holds exactly when it is
    # m' + n' gamma**-2 = (m' + n') - n'/gamma with m' = m + n >= 1 and
    # n' = -n >= 0; one step up is gamma (m + n/gamma) = (m + n) + m/gamma
    m, n = alpha.m, alpha.n
    for i in range(limit + 1):
        if n <= 0 < m + n:
            return Quad(i, m + n, 0, -n)
        m, n = m + n, m
    raise AssertionError("classification did not terminate within its bound")


def classify(alpha: GoldenInt) -> PartitionClass:
    """Stratify a nonnegative element: zero, plus, or a unique band, read
    off the shape of its `canonical_quad` (None, b >= 1, or b = 0 at i)."""
    q = canonical_quad(alpha)
    if q is None:
        return PartitionClass("zero")
    if q.b >= 1:
        return PartitionClass("plus")
    return PartitionClass("band", q.i)


def expand_quad(q: Quad) -> Quad:
    """Value-preserving move that increases size by exactly 1."""
    if q.a >= 2:
        return Quad(q.i, q.a - 1, q.b + 1, q.c + 1)
    return Quad(q.i + 1, q.b + 1, q.c + 1, 0)


def contract_quad(q: Quad) -> Quad:
    """Bidegree-preserving move that decreases size by exactly 1.

    Defined only when b >= 1; the represented value strictly decreases.
    """
    if q.b < 1:
        raise ValueError("contract_quad needs b >= 1")
    if q.a >= 2:
        return Quad(q.i, q.a - 1, q.b - 1, q.c + 1)
    if q.b >= 2:
        return Quad(q.i + 1, q.b - 1, q.c + 1, 0)
    return Quad(q.i + 2, q.c + 1, 0, 0)


def quads_for_value(alpha: GoldenInt, count: int) -> list[Quad]:
    """First `count` quads representing alpha, sizes increasing by 1 each.
    Before any work, a negative alpha and then a count below 1 raise
    ValueError, and a count above QUADS_COUNT_BOUND raises BoundExceeded."""
    if alpha.sign() < 0:
        raise ValueError("element must be nonnegative")
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > QUADS_COUNT_BOUND:
        raise BoundExceeded(f"count {count} exceeds bound {QUADS_COUNT_BOUND}")
    q = canonical_quad(alpha)
    if q is None:
        return []
    out = [q]
    while len(out) < count:
        q = expand_quad(q)
        out.append(q)
    return out


def quads_with_bidegree(d1: int, d2: int) -> list[Quad]:
    """All quads of bidegree exactly (d1, d2), by decreasing size.

    Sizes run from d1+d2 down to the size of the final quad, which is the
    unique one with b = 0.  The first entry represents d1 + d2/gamma, the
    last |d1 - d2/gamma|.  A negative or zero bidegree raises ValueError, and
    d1 + d2 above QUADS_BIDEGREE_BOUND raises BoundExceeded, before any work.
    """
    if d1 < 0 or d2 < 0 or (d1 == 0 and d2 == 0):
        raise ValueError("bidegree must be nonzero and nonnegative")
    _check((d1, d2), QUADS_BIDEGREE_BOUND)
    q = Quad(0, d1, d2, 0) if d1 > 0 else Quad(1, d2, 0, 0)
    out = [q]
    while q.b >= 1:
        q = contract_quad(q)
        out.append(q)
    return out


def _caps(degrees) -> tuple[int, int, int]:
    """(c1, c2, total) of a bound read as one degree per block: (d, d, d) for
    (d,), (d1, d2, d1 + d2) for (d1, d2)."""
    c1, c2 = degrees if len(degrees) == 2 else degrees * 2
    return c1, c2, sum(degrees)


def _check(degrees, bound: int | None = None) -> None:
    """Refuse a negative degree (ValueError), then a degree sum above the
    bound (BoundExceeded), in the words of the bound's grading."""
    bi = len(degrees) == 2
    if min(degrees) < 0:
        raise ValueError("bi-degree must be nonnegative" if bi else "degree must be nonnegative")
    if bound is not None and sum(degrees) > bound:
        raise BoundExceeded(f"{'d1 + d2' if bi else 'd'} = {sum(degrees)} exceeds bound {bound}")


def _maximal_quad(alpha: GoldenInt, degrees) -> Quad | None:
    """The unique quad for alpha whose bidegree fits the caps of `degrees`
    and whose size is largest (None for alpha = 0): `expand_quad` keeps the
    value and grows both weights, so the walk stops at the first step that
    does not fit.  An alpha whose own bidegree (|m|, |n|) does not fit
    raises ValueError."""
    c1, c2, total = _caps(degrees)

    def fits(u1: int, u2: int) -> bool:
        return u1 <= c1 and u2 <= c2 and u1 + u2 <= total

    if not fits(abs(alpha.m), abs(alpha.n)):
        grading = "bidegree" if len(degrees) == 2 else "degree"
        raise ValueError(f"element {grading} exceeds the bound")
    q = canonical_quad(alpha)
    while q is not None and fits(*(nxt := expand_quad(q)).weights()):
        q = nxt
    return q


def maximal_quad_for_degree(alpha: GoldenInt, d: int) -> Quad | None:
    """The unique quad for alpha of largest degree <= d (None for alpha=0)."""
    return _maximal_quad(alpha, (d,))


def max_size_for_degree(alpha: GoldenInt, d: int) -> int:
    """Largest representation size of alpha within degree bound d."""
    q = maximal_quad_for_degree(alpha, d)
    return 0 if q is None else q.size


def maximal_quad_for_bidegree(alpha: GoldenInt, d1: int, d2: int) -> Quad | None:
    return _maximal_quad(alpha, (d1, d2))


def max_size_for_bidegree(alpha: GoldenInt, d1: int, d2: int) -> int:
    q = maximal_quad_for_bidegree(alpha, d1, d2)
    return 0 if q is None else q.size


def _least_n(m: int) -> int:
    """Least n with m + n/gamma >= 0, i.e. -floor(m gamma): floor(|m| gamma) is
    (|m| + isqrt(5 m**2)) // 2 and floor(-x) = -floor(x) - 1, both exact
    because m gamma is irrational for m != 0."""
    floor = (abs(m) + math.isqrt(5 * m * m)) // 2
    return -floor if m >= 0 else floor + 1


def _nonnegative(rows):
    """The nonnegative m + n/gamma with lo <= n <= hi, over rows (m, lo, hi),
    as (m, n) pairs in that order, streamed: the one enumeration of elements."""
    return chain.from_iterable(zip(repeat(m), range(max(lo, _least_n(m)), hi + 1))
                               for m, lo, hi in rows)


def _element_pairs(*degrees):
    """The (m, n) of `elements_up_to_degree(d)` or
    `elements_up_to_bidegree(d1, d2)`, streamed: row m holds |n| <= r with
    r = min(c2, total - |m|), that is d - |m| or d2.  Its bound is refused
    here, before any work."""
    _check(degrees, ENUM_DEGREE_BOUND)
    c1, c2, total = _caps(degrees)
    rows = ((m, min(c2, total - abs(m))) for m in range(-c1, c1 + 1))
    return _nonnegative((m, -r, r) for m, r in rows)


def elements_up_to_degree(d: int) -> list[GoldenInt]:
    """All nonnegative elements with |m| + |n| <= d, sorted by (m, n); d above
    ENUM_DEGREE_BOUND raises BoundExceeded before any work."""
    return list(starmap(GoldenInt, _element_pairs(d)))


def elements_up_to_bidegree(d1: int, d2: int) -> list[GoldenInt]:
    """All nonnegative elements with |m| <= d1, |n| <= d2, sorted by (m, n);
    d1 + d2 above ENUM_DEGREE_BOUND raises BoundExceeded before any work."""
    return list(starmap(GoldenInt, _element_pairs(d1, d2)))


def _size_class_count(d: int, s: int) -> int:
    """`size_class_count` of checked arguments."""
    if s < 0 or s > d:
        return 0
    if s == d:
        return d + 1
    return 2 * s + 1


def _size_class_count_bi(d1: int, d2: int, s: int) -> int:
    """`size_class_count_bi` of checked arguments."""
    if s < 0 or s > d1 + d2:
        return 0
    return 2 * min(d1, d2, s, d1 + d2 - s) + 1


def size_class_count(d: int, s: int) -> int:
    """How many elements of degree <= d have maximal size exactly s."""
    _check((d,))
    return _size_class_count(d, s)


def size_class_count_bi(d1: int, d2: int, s: int) -> int:
    _check((d1, d2))
    return _size_class_count_bi(d1, d2, s)


def size_class_profile(d: int) -> list[int]:
    """size_class_count(d, s) for s = 0..d, its arguments checked once; d
    above CHI_DEGREE_BOUND raises BoundExceeded before any work."""
    _check((d,), CHI_DEGREE_BOUND)
    return [_size_class_count(d, s) for s in range(d + 1)]


def size_class_profile_bi(d1: int, d2: int) -> list[int]:
    """size_class_count_bi(d1, d2, s) for s = 0..d1 + d2, its arguments
    checked once; d1 + d2 above CHI_DEGREE_BOUND raises BoundExceeded before
    any work."""
    _check((d1, d2), CHI_DEGREE_BOUND)
    return [_size_class_count_bi(d1, d2, s) for s in range(d1 + d2 + 1)]


def _census(c1: int, c2: int, total: int) -> dict[tuple[int, int], int]:
    """Maximal size per element m + n/gamma, keyed by (m, n), over all
    representations whose bidegree (u1, u2) has u1 <= c1, u2 <= c2 and
    u1 + u2 <= total: the one census.  Index i adds (f(i-2), f(i-1)),
    growing in both parts from i = 2 on, so each scan stops at the first
    index past 1 that does not fit.  Values are kept as coordinate pairs,
    gamma**-i being (f(-i), f(-i-1))."""
    best: dict[tuple[int, int], int] = {(0, 0): 0}
    # (f(i-2), f(i-1), f(-i), f(-i-1)) per index, up to the first index past
    # 1 that does not fit alone, and so fits after no other
    steps = []
    i = 0
    while i < 2 or (fib(i - 2) <= c1 and fib(i - 1) <= c2 and fib(i) <= total):
        steps.append((fib(i - 2), fib(i - 1), fib(-i), fib(-i - 1)))
        i += 1
    top = len(steps)

    def rec(min_i: int, u1: int, u2: int, m: int, n: int, size: int):
        for i in range(min_i, top):
            a1, a2, b1, b2 = steps[i]
            w1, w2 = u1 + a1, u2 + a2
            if w1 <= c1 and w2 <= c2 and w1 + w2 <= total:
                v2 = (m + b1, n + b2)
                s2 = size + 1
                if best.get(v2, -1) < s2:
                    best[v2] = s2
                rec(i, w1, w2, *v2, s2)
            elif i >= 2:
                return

    rec(0, 0, 0, 0, 0, 0)
    return best


def _census_sizes(*degrees) -> dict[tuple[int, int], int]:
    """`brute_force_sizes(d)` or `brute_force_sizes_bi(d1, d2)` keyed by
    (m, n).  Its arguments and its bound are refused here, before any
    work."""
    _check(degrees)
    if sum(degrees) > BRUTE_FORCE_MAX_DEGREE:
        limit = "d1 + d2 <=" if len(degrees) == 2 else "degree"
        raise BoundExceeded(f"brute force census limited to {limit} {BRUTE_FORCE_MAX_DEGREE}")
    return _census(*_caps(degrees))


def brute_force_sizes(d: int) -> dict[GoldenInt, int]:
    """Maximal representation size per element, by full enumeration.

    Enumerates every non-decreasing index tuple with sum f(i_k) <= d.
    Only intended as an oracle; refuses d > BRUTE_FORCE_MAX_DEGREE.
    """
    return {GoldenInt(m, n): s for (m, n), s in _census_sizes(d).items()}


def brute_force_sizes_bi(d1: int, d2: int) -> dict[GoldenInt, int]:
    """Bidegree-bounded variant of brute_force_sizes; refuses d1 + d2 > BRUTE_FORCE_MAX_DEGREE."""
    return {GoldenInt(m, n): s for (m, n), s in _census_sizes(d1, d2).items()}


def sizes_to_profile(sizes: dict) -> list[int]:
    """Histogram of the maximal sizes of a census, indexed by size; its keys,
    elements or (m, n) pairs, are not read."""
    if not sizes:
        return []
    top = max(sizes.values())
    out = [0] * (top + 1)
    for s in sizes.values():
        out[s] += 1
    return out
