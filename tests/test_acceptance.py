"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Each test records its verdict for the terminal-summary hook in conftest,
so a full run ends with a ten-line scoreboard.  Tolerances and runtime
budgets are asserted, never merely logged.
"""

import random
import time
from fractions import Fraction

from conftest import record_criterion

import goldenring as gr
from goldenring import GoldenInt, MPoly, RationalInterval, VARS_BASE


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    record_criterion(num, f"criterion {num:2d} {name}: {verdict}{suffix}")


def test_criterion_01_total_degree_profiles():
    t0 = time.monotonic()
    ok = True
    for d in range(9):
        if gr.size_class_profile(d) != gr.sizes_to_profile(gr.brute_force_sizes(d)):
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    report(1, "total-degree size classes vs oracle, d <= 8", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_02_bidegree_profiles():
    t0 = time.monotonic()
    ok = True
    for d1 in range(11):
        for d2 in range(11 - d1):
            closed = gr.size_class_profile_bi(d1, d2)
            if closed != gr.sizes_to_profile(gr.brute_force_sizes_bi(d1, d2)):
                ok = False
            for s in range(d1 + d2 + 1):
                count = closed[s]
                if count != gr.size_class_count_bi(d2, d1, s):
                    ok = False
                if count != gr.size_class_count_bi(d1, d2, d1 + d2 - s):
                    ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    report(2, "bi-degree size classes vs oracle, d1+d2 <= 10", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_03_cardinalities():
    ok = all(
        len(gr.elements_up_to_degree(d)) == d * d + d + 1 for d in range(31)
    )
    for d1 in range(21):
        for d2 in range(21):
            expected = 2 * d1 * d2 + d1 + d2 + 1
            if len(gr.elements_up_to_bidegree(d1, d2)) != expected:
                ok = False
    report(3, "element counts, d <= 30 and bi-degrees <= (20,20)", ok)
    assert ok


def test_criterion_04_quad_structure():
    ok = True
    for alpha in gr.elements_up_to_degree(8):
        if alpha.is_zero():
            continue
        chain = gr.quads_for_value(alpha, 6)
        sizes = [q.size for q in chain]
        if sizes != list(range(sizes[0], sizes[0] + 6)):
            ok = False
        degrees = [q.degree for q in chain]
        if not all(x < y for x, y in zip(degrees, degrees[1:])):
            ok = False
        bids = [q.bidegree for q in chain]
        if not all(x <= y and x != y for x, y in zip(bids, bids[1:])):
            ok = False
    for d1 in range(6):
        for d2 in range(6):
            if d1 == 0 and d2 == 0:
                continue
            chain = gr.quads_with_bidegree(d1, d2)
            sizes = [q.size for q in chain]
            if sizes != list(range(d1 + d2, d1 + d2 - len(chain), -1)):
                ok = False
            if chain[0].value() != GoldenInt(d1, d2):
                ok = False
            if chain[-1].value() != abs(GoldenInt(d1, -d2)):
                ok = False
    report(4, "quad chains over E_8 and bi-degrees <= (5,5)", ok)
    assert ok


def test_criterion_05_hilbert_functions(distinct_matrices):
    t0 = time.monotonic()
    ok = len(distinct_matrices) >= 3
    for matrix in distinct_matrices[:3]:
        for d in range(6):
            if gr.hilbert_total(d, matrix) != gr.hilbert_total_closed(d):
                ok = False
        for d1 in range(5):
            for d2 in range(5):
                if gr.hilbert_bi(d1, d2, matrix) != gr.hilbert_bi_closed(d1, d2):
                    ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    report(5, "Hilbert functions vs closed forms, 3 matrices", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_06_basis_theorem(matrix):
    ok = True
    for d, expected in ((1, 7), (2, 25), (3, 63)):
        rep = gr.check_basis_rank(d, matrix)
        if not (rep.spans and rep.cardinality == expected == rep.quotient_rank):
            ok = False
        if expected != gr.hilbert_total_closed(d):
            ok = False
    # closed form (d1+1)^2 (d2+1)^2 - d1^2 d2^2 fixes the bi-degree targets
    for bd in ((1, 1), (2, 1), (2, 2)):
        expected = gr.hilbert_bi_closed(*bd)
        rep = gr.check_basis_rank(bd, matrix)
        if not (rep.spans and rep.cardinality == expected == rep.quotient_rank):
            ok = False
    bi_dims = tuple(gr.hilbert_bi_closed(*bd) for bd in ((1, 1), (2, 1), (2, 2)))
    if bi_dims != (15, 32, 65):
        ok = False
    report(6, "family spans with ranks (7,25,63) and (15,32,65)", ok)
    assert ok


def _random_affine(rng) -> MPoly:
    p = MPoly.const(VARS_BASE, rng.randint(-2, 2))
    for name in VARS_BASE:
        c = rng.randint(-2, 2)
        if c:
            p = p + c * MPoly.variable(VARS_BASE, name)
    return p


def test_criterion_07_kernel_reduction(matrix):
    gens = gr.evaluation_ideal("plain", matrix).generators
    ok = all(gr.quotient_coordinates(g, 3, matrix).in_ideal() for g in gens)
    rng = random.Random(20260819)
    for _ in range(50):
        combo = MPoly.zero(VARS_BASE)
        for g in gens:
            combo = combo + _random_affine(rng) * g
        if not gr.quotient_coordinates(combo, 3, matrix).in_ideal():
            ok = False
    report(7, "generators and 50 random combinations reduce to zero", ok)
    assert ok


def test_criterion_08_sequence_verification(seeds3):
    gamma = (1 + 5**0.5) / 2
    ok = len(seeds3) > 0
    worst_time = 0.0
    for seed in seeds3:
        t0 = time.monotonic()
        system = gr.generate_system(seed, K=22)
        rep = gr.verify_system(system)  # exact failures raise
        if not (rep.dets_ok and rep.recurrence_ok and rep.e4_abs_constant):
            ok = False
        if any(v == 0 for v in rep.e4_dets):
            ok = False
        tail = [e for _, e in rep.e1_exponents[-4:]]
        if not all(abs(e - gamma) < 0.02 for e in tail):
            ok = False
        # products at the last window index lean on the enclosure anchor,
        # so the growth trend is read off the eight indices before it
        for series in (rep.e2_first, rep.e2_second):
            vals = [v for k, v in series if k <= rep.K - 2][-8:]
            if max(vals[4:]) > max(vals[:4]) or max(vals) > 4:
                ok = False
        num = RationalInterval.point(system.x(22).coord(0))
        den = system.theta * system.x(21).coord(0) * system.x(20).coord(0)
        if not (num / den).within(1, Fraction(1, 10**6)):
            ok = False
        worst_time = max(worst_time, time.monotonic() - t0)
    ok = ok and worst_time < 30
    report(
        8,
        f"window checks for all {len(seeds3)} seeds",
        ok,
        f"worst {worst_time:.1f}s/seed",
    )
    assert ok


def test_criterion_09_monomial_asymptotics(first_system, matrix):
    system = first_system
    k = system.K // 2  # germ index whose factors reach the window end
    x00 = Fraction(system.x(2 * k).coord(0))
    x0m1 = Fraction(system.x(2 * k - 1).coord(0))
    xi_pow = {j: system.xi**j for j in range(7)}
    theta_pow = {}
    tol = Fraction(1, 1000)
    ok = True
    members = 0
    for d in (1, 2, 3):
        for mono in gr.basis_family(d, matrix):
            members += 1
            t = mono.alpha.m + mono.alpha.n - mono.size
            if t not in theta_pow:
                theta_pow[t] = system.theta**t
            ref = theta_pow[t] * xi_pow[mono.j] * RationalInterval.point(
                x00**mono.alpha.m * x0m1**mono.alpha.n
            )
            val = RationalInterval.point(Fraction(mono.germ_value(system, k)))
            # |val/ref - 1| <= tol certified without forming the quotient
            if (val - ref).abs_upper() > tol * ref.abs_lower():
                ok = False
    ok = ok and members == 7 + 25 + 63
    report(9, "germ values track theta^t xi^j asymptotics within 1e-3", ok,
           f"{members} members")
    assert ok


def test_criterion_10_dimension_estimate():
    ok = True
    # the two counting paths are cross-checked once per degree, element by
    # element, when its value table is built; every cutoff reads that table
    for d in range(1, 9):
        for j in range(1, 21):
            delta = gr.GoldenRational.golden_multiple(Fraction(j, 20) * d)
            gr.growth_dimension(d, delta)
        full = gr.growth_dimension(d, gr.GoldenRational.golden_multiple(d))
        if full.dim != gr.hilbert_total_closed(d):
            ok = False
    rep = gr.scaling_report()
    band = (
        f"{float(rep.ratio_low):.6f}",
        f"{float(rep.ratio_high):.6f}",
    )
    if band != ("0.758440", "5.496972"):
        ok = False
    if not (Fraction(3, 4) < rep.ratio_low and rep.ratio_high < Fraction(11, 2)):
        ok = False
    report(10, "dimension paths agree; ratio band fixed", ok,
           f"band [{band[0]}, {band[1]}]")
    assert ok
