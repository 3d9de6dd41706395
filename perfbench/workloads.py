"""The three certification workloads: job lists, and the check of each answer.

A job is one request a batch user waits for.  `run` is the timed call into
goldenring; `check` runs afterwards, untimed and untraced, and returns a
Verdict: whether the answer is right, and the exact part of the answer
(windows, ranks, Hilbert values, dims, counts, exit codes, reduction
coordinates) that goes into the run's verdict digest.  Enclosure endpoints
are left out of the digest on purpose: a sound change of interval
arithmetic may move them.

Every call into goldenring goes through a module attribute
(`gr.ringalg.hilbert_total`, `gr.cli.main`, ...), so the tracer sees it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Callable

import goldenring as gr
import goldenring.cli  # noqa: F401  (not imported by the package itself)
from goldenring import MPoly, RationalInterval, VARS_BASE

SEQ_BOUND = 3
ALGEBRA_BOUND = 4
GERM_TOL = Fraction(1, 1000)
GRID_BAND = ("0.758440", "5.496972")
REDUCTIONS = 50


@dataclass
class Verdict:
    ok: bool
    exact: Any
    counts: dict = field(default_factory=dict)  # summed over the run
    maxima: dict = field(default_factory=dict)  # largest over the run


@dataclass
class Job:
    """`run`, then each of `then` on the output before it, is the timed
    work; the runner may probe the machine's speed between the stages."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]
    then: tuple[Callable[[Any], Any], ...] = ()


def sample_rng(workload: str, seed: int, *extra) -> random.Random:
    return random.Random("/".join(str(x) for x in (workload, seed) + extra))


def build(workload: str, seed: int, units: int, first: int, last: int, workdir: str) -> list[Job]:
    """Jobs of units first..last-1 out of the run's `units`.

    The workload seed fixes the sample for the whole run, so each round
    takes its slice of the same sample.
    """
    if workload == "seq-certify":
        seeds = gr.find_seeds(SEQ_BOUND)
        picks = sample_rng(workload, seed).sample(range(len(seeds)), units)
        return [seq_job(i, seeds[i], workdir) for i in picks[first:last]]
    if workload == "algebra-certify":
        gr.find_seeds(SEQ_BOUND)
        mats = stratified(distinct_matrices(gr.find_seeds(ALGEBRA_BOUND)),
                          sample_rng(workload, seed))
        jobs = []
        for u in range(first, last):
            jobs += algebra_jobs(mats[u], sample_rng(workload, seed, u))
        return jobs
    if workload == "combinatorics-grid":
        gr.find_seeds(SEQ_BOUND)
        one_pass = grid_jobs(sample_rng(workload, seed))
        return one_pass * (last - first)
    raise ValueError(f"unknown workload {workload!r}")


def distinct_matrices(seeds) -> list:
    mats = []
    for s in seeds:
        if all(s.M.entries() != m.entries() for m in mats):
            mats.append(s.M)
    return mats


def stratified(mats, rng) -> list:
    """The matrices in a seeded order that alternates entry sizes.

    Matrices with larger entries cost more per job, so alternating the
    size classes keeps the mix the same in every run of a given length.
    """
    groups: dict = {}
    for M in mats:
        groups.setdefault(max(map(abs, M.entries())), []).append(M)
    order = [rng.sample(g, len(g)) for _, g in sorted(groups.items())]
    return [M for column in zip_longest(*order) for M in column if M is not None]


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() + b"\0")
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = gr.cli.main(argv + ["--no-timestamp"])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# seq-certify


def write_dump(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


GERM_FAMILY_SIZE = 7  # basis_family(1, M)


def germ_start(system) -> tuple:
    """The family with d <= 1, k = K // 2, and x_{2k,0}, x_{2k-1,0}."""
    k = system.K // 2
    return (gr.ringalg.basis_family(1, system.seed.M), k,
            Fraction(system.x(2 * k).coord(0)), Fraction(system.x(2 * k - 1).coord(0)))


def germ_check(system, mono, k, x00, x0m1) -> tuple[int, bool]:
    """Criterion-9 asymptotics for one member of the family at k.

    The germ value must lie within GERM_TOL (relative) of
    theta**t * xi**j * x_{2k,0}**m * x_{2k-1,0}**n.
    """
    t = mono.alpha.m + mono.alpha.n - mono.size
    ref = system.theta**t * system.xi**mono.j * RationalInterval.point(
        x00**mono.alpha.m * x0m1**mono.alpha.n
    )
    value = mono.germ_value(system, k)
    ok = (RationalInterval.point(value) - ref).abs_upper() <= GERM_TOL * ref.abs_lower()
    return value, ok


def seq_job(index: int, seed, workdir: str) -> Job:
    path = os.path.join(workdir, f"window-{os.getpid()}-{index}.json")

    def generate():
        return gr.sequences.generate_system(seed, K=gr.sequences.DEFAULT_WINDOW)

    def dump_and_verify(system):
        dumped = system.to_json()
        text = json.dumps(dumped)
        try:
            write_dump(path, text)
            code, out = run_cli(["seq", "--load", path, "--verify"])
        finally:
            if os.path.exists(path):
                os.remove(path)
        return system, dumped["window"], len(text), code, out

    def start(result):
        return result + (germ_start(result[0]), [])

    def member(i):
        def stage(result):
            system, *_, (family, k, x00, x0m1), germ = result
            if i < len(family):
                germ.append(germ_check(system, family[i], k, x00, x0m1))
            return result
        return stage

    def check(result) -> Verdict:
        system, dumped_window, nbytes, code, out, (family, *_), germ = result
        exact = {
            "job": "seq",
            "seed": index,
            "code": code,
            "window": _sha(hex(v) for t in system.window for v in t.as_tuple()),
            "germ": _sha(hex(v) for v, _ in germ),
            "germ_ok": [ok for _, ok in germ],
        }
        ok = (code == 0 and len(family) == len(germ) == GERM_FAMILY_SIZE
              and all(ok for _, ok in germ))
        if code == 0:
            res = json.loads(out)["result"]
            ver = res["verification"]
            exact["e4"] = ver["e4_dets"]
            # the reloaded window, written back out, must be the one dumped
            ok = ok and res["system"]["window"] == dumped_window and all(
                ver[key] for key in ("dets_ok", "recurrence_ok", "e4_abs_constant",
                                     "theta_excludes_zero")
            ) and 0 not in ver["e4_dets"]
        return Verdict(ok, exact, counts={"cli.out_bytes": len(out)},
                       maxima={"sequences.json_bytes": nbytes})

    # one stage per family member, so the speed probes come every quarter
    # of a second or so
    stages = (dump_and_verify, start) + tuple(member(i) for i in range(GERM_FAMILY_SIZE))
    return Job(f"seq:{index}", generate, check, stages)


# ---------------------------------------------------------------------------
# algebra-certify


def _random_affine(rng) -> MPoly:
    p = MPoly.const(VARS_BASE, rng.randint(-2, 2))
    for name in VARS_BASE:
        c = rng.randint(-2, 2)
        if c:
            p = p + c * MPoly.variable(VARS_BASE, name)
    return p


def _ideal_combination(gens, rng) -> MPoly:
    combo = MPoly.zero(VARS_BASE)
    for g in gens:
        combo = combo + _random_affine(rng) * g
    return combo


def _coords(red) -> list:
    return [[a.m, a.n, j, str(c)] for (a, j), c in red.coords]


def hilbert_job(M, degree, expected=None) -> Job:
    """Hilbert value at a degree d or bi-degree (d1, d2), checked against
    the closed form unless another expected value is given."""
    ra = gr.ringalg
    if isinstance(degree, tuple):
        name = f"hilbert_bi:{degree[0]},{degree[1]}"
        call = lambda: ra.hilbert_bi(degree[0], degree[1], M, bound=5)  # noqa: E731
        closed = gr.hilbert_bi_closed(*degree)
    else:
        name = f"hilbert_total:{degree}"
        call = lambda: ra.hilbert_total(degree, M, bound=degree)  # noqa: E731
        closed = gr.hilbert_total_closed(degree)
    expected = closed if expected is None else expected
    record = [name, list(M.entries())]

    def check(value) -> Verdict:
        return Verdict(value == expected, record + [value])

    return Job(name, call, check)


def algebra_jobs(M, rng) -> list[Job]:
    ra = gr.ringalg
    mat = list(M.entries())
    jobs = [hilbert_job(M, d) for d in range(10)]
    jobs += [hilbert_job(M, (d1, d2)) for d1 in range(6) for d2 in range(6)]

    for bound in (1, 2, 3, (1, 1), (2, 1), (2, 2)):
        expected = (gr.hilbert_bi_closed(*bound) if isinstance(bound, tuple)
                    else gr.hilbert_total_closed(bound))

        def basis_check(rep, expected=expected, bound=bound) -> Verdict:
            ok = rep.spans and rep.cardinality == expected == rep.quotient_rank
            s = rep.summary()
            return Verdict(ok, ["basis", mat, s.pop("bound"), sorted(s.items())])

        jobs.append(Job(f"basis:{bound}", lambda b=bound: ra.check_basis_rank(b, M), basis_check))

    gens = gr.evaluation_ideal("plain", M).generators
    combos = [_ideal_combination(gens, rng) for _ in range(REDUCTIONS + 1)]
    pick = rng.randrange(gr.hilbert_total_closed(3))

    def cold():
        family = ra.basis_family(3, M)
        mono = family[pick % len(family)]
        return mono, ra.quotient_coordinates(mono.poly + combos[0], 3, M)

    def cold_check(result) -> Verdict:
        mono, red = result
        ok = red.coords == (((mono.alpha, mono.j), Fraction(1)),)
        return Verdict(ok, ["reduce-cold", mat, _coords(red)])

    jobs.append(Job("reduce:cold", cold, cold_check))

    def reduce_check(red) -> Verdict:
        return Verdict(red.in_ideal(), ["reduce", mat, _coords(red)])

    for i, combo in enumerate(combos[1:]):
        jobs.append(Job(f"reduce:{i}", lambda c=combo: ra.quotient_coordinates(c, 3, M),
                        reduce_check))
    return jobs


# ---------------------------------------------------------------------------
# combinatorics-grid


def _element_dim(d: int, delta: Fraction) -> int:
    """Independent count: weight 2*size+1 per ring element of value <= delta."""
    total = 0
    for alpha in gr.elements_up_to_degree(d):
        if alpha.compare_rational(delta.numerator, delta.denominator) <= 0:
            total += 2 * gr.max_size_for_degree(alpha, d) + 1
    return total


def grid_jobs(rng) -> list[Job]:
    jobs = []

    def cli_job(argv, check_result):
        def check(result) -> Verdict:
            code, out = result
            exact = [argv, code]
            ok = code == 0
            if ok:
                res = json.loads(out)["result"]
                good, part = check_result(res)
                ok = bool(good)
                exact.append(part)
            return Verdict(ok, exact, counts={"cli.out_bytes": len(out)})
        return Job(" ".join(argv), lambda: run_cli(argv), check)

    def chi_check(total):
        def check(res):
            closed = res["closed"]
            return res["match"] and closed == res["oracle"] and sum(closed) == total, closed
        return check

    for d in range(11):
        jobs.append(cli_job(["chi", "--d", str(d), "--oracle"], chi_check(d * d + d + 1)))
    for d1 in range(13):
        for d2 in range(13 - d1):
            jobs.append(cli_job(
                ["chi", "--d1", str(d1), "--d2", str(d2), "--oracle"],
                chi_check(2 * d1 * d2 + d1 + d2 + 1)))

    def enum_check(expected):
        def check(res):
            ok = res["match"] and res["count"] == expected == len(res["elements"])
            return ok, [res["count"], _sha(json.dumps(res["elements"]))]
        return check

    for d in range(31):
        jobs.append(cli_job(["enum", "--d", str(d)], enum_check(d * d + d + 1)))

    def quads_check(res):
        sizes = [q["size"] for q in res["quads"]]
        degrees = [q["degree"] for q in res["quads"]]
        ok = (res["match"] and len(sizes) == 6
              and sizes == list(range(sizes[0], sizes[0] + 6))
              and all(x < y for x, y in zip(degrees, degrees[1:])))
        return ok, [[q["i"], q["a"], q["b"], q["c"]] for q in res["quads"]]

    for alpha in gr.elements_up_to_degree(8):
        if not alpha.is_zero():
            jobs.append(cli_job(["quads", "--alpha", str(alpha.m), str(alpha.n)], quads_check))

    expected_dims: dict = {}

    def dim_check(d, delta):
        def check(res):
            key = (d, delta)
            if key not in expected_dims:
                expected_dims[key] = _element_dim(d, delta)
            dim = res["dim"]
            ok = 1 <= dim <= gr.hilbert_total_closed(d) and dim == expected_dims[key]
            weights = [[c["quad"]["i"], c["quad"]["a"], c["quad"]["b"], c["quad"]["c"],
                        c["weight"]] for c in res["contributing"]]
            return ok, [dim, weights]
        return check

    for d in range(1, 13):
        for _ in range(4):
            delta = Fraction(rng.randint(1, 160 * d), 100)  # below gamma * d
            jobs.append(cli_job(["dim", "--d", str(d), "--delta", str(delta)],
                                dim_check(d, delta)))

    def grid_check(res):
        lo, hi = (Fraction(x) for x in res["ratio_band"])
        band = (f"{float(lo):.6f}", f"{float(hi):.6f}")
        return band == GRID_BAND, [[r["d"], r["fraction"], r["dim"]] for r in res["rows"]]

    jobs.append(cli_job(["dim", "--grid"], grid_check))
    return jobs
