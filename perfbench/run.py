"""goldenring benchmark: certification workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is seq-certify, algebra-certify, combinatorics-grid, or all.  A run is
a closed loop with one client: a sequence of rounds, each a fresh
single-threaded interpreter (perfbench/child.py) that sets up, runs its
share of the job list one job at a time, and checks every answer.  The
seed picks the sample of inputs; --seconds fixes how many jobs the run
holds, from a constant per-job cost, so the same arguments always give the
same job list on any machine.

Between jobs each round probes the machine's speed with a fixed loop, and
the `_ref` metrics give job time in units of that probe, which follows the
swings in speed of a shared host that raw seconds do not survive.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every round twice,
untraced and then traced, and prints the per-layer metrics, the tracing
overhead and a check of some ROADMAP figures.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "_out")

WORKLOADS = ("seq-certify", "algebra-certify", "combinatorics-grid")
# Nominal cost of one unit (one seed / one matrix / one pass over the CLI
# job list) at the parent commit, used only to size the job list.  It is a
# constant, so a faster program runs the same jobs in less time.
UNIT_SECONDS = {"seq-certify": 4.3, "algebra-certify": 5.0, "combinatorics-grid": 0.8}
MAX_UNITS = {"seq-certify": 32, "algebra-certify": 8, "combinatorics-grid": 1000}
# seq and algebra get one unit per round, so every seed or matrix starts
# cold; the CLI passes are shared among a few rounds
MAX_ROUNDS = {"seq-certify": 32, "algebra-certify": 8, "combinatorics-grid": 5}
# setup_s is given at a fixed nominal speed: each round's set-up time,
# divided by the speed probe taken right after it, times this duration
# (about a probe's median on the VM the README describes).
NOMINAL_PROBE_S = 0.005
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_DEADLINE_S = 170

# ROADMAP "State at this re-anchor": row -> (quoted value, unit, quoted as an upper bound)
ROADMAP_ROWS = {
    "verify_system K=22": (1.4, "s", False),
    "hilbert_total d=7": (0.14, "s", False),
    "hilbert_total d=9": (1.55, "s", False),
    "peak RSS after hilbert_total d=7": (None, "MB", False),
    "peak RSS after hilbert_total d=9": (231.0, "MB", False),
    "find_seeds(3)": (0.13, "s", True),
    "find_seeds(4)": (0.13, "s", True),
}


class RunError(Exception):
    """A round could not run or report; the run has no result."""


def plan(workload: str, seconds: int) -> tuple[int, list[tuple[int, int]]]:
    """Number of units and the (first, last) unit slice of each round."""
    units = min(MAX_UNITS[workload], max(2, round(seconds / UNIT_SECONDS[workload])))
    rounds = min(units, MAX_ROUNDS[workload])
    return units, [(r * units // rounds, (r + 1) * units // rounds) for r in range(rounds)]


def run_rounds(workload, seed, units, slices, trace, deadline) -> list[dict]:
    env = dict(os.environ, **THREAD_PINS)
    out = []
    for first, last in slices:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--units", str(units), "--first", str(first),
               "--last", str(last), "--trace", str(trace), "--workdir", WORKDIR]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{workload} round {first} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunError(f"{workload} round {first} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
        out.append(json.loads(lines[-1]))
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten jobs beyond it.

    Returns (value, percentile, jobs beyond).  With ten jobs or fewer no
    such percentile exists and the maximum is returned, with none beyond.
    """
    s = sorted(latencies)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def summarise(rounds: list[dict]) -> dict:
    jobs = [job for r in rounds for job in r["jobs"]]
    lat = [job[1] for job in jobs]
    rel = [job[4] for job in jobs]
    failed = sum(1 for job in jobs if not job[3])
    tail_s, pct, beyond = tail(lat)
    wall_s, p50_s = sum(lat), statistics.median(lat)
    return {
        "metrics": {
            "setup_s": (statistics.median(r["setup_s"] / r["probes"][0] for r in rounds)
                        * NOMINAL_PROBE_S, "s"),
            "setup_raw_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
            "wall_s": (wall_s, "s"),
            "job_p50_s": (p50_s, "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
            "ref_s": (statistics.median(p for r in rounds for p in r["probes"]), "s"),
            "wall_ref": (sum(rel), "ref"),
            "job_p50_ref": (statistics.median(rel), "ref"),
            "job_tail_ref": (tail(rel)[0], "ref"),
        },
        "tail": (pct, beyond),
        "attempted": len(lat),
        "failed": failed,
        "digest": hashlib.sha256("".join(r["digest"] for r in rounds).encode()).hexdigest(),
        "errors": [e for r in rounds for e in r["errors"]],
    }


def roadmap_table(merged, untraced_rounds, bounds) -> list[str]:
    """Measured values of the ROADMAP rows this workload reaches."""
    labelled = merged["labelled"]

    def durations(span, label):
        return [d for lab, d in labelled.get(span, []) if lab == label]

    def rss_after(job):
        return [row[2] for r in untraced_rounds for row in r["jobs"] if row[0] == job]

    measured = {
        "verify_system K=22": durations("sequences.verify_system", 22),
        "hilbert_total d=7": durations("ringalg.hilbert_total", 7),
        "hilbert_total d=9": durations("ringalg.hilbert_total", 9),
        "peak RSS after hilbert_total d=7": rss_after("hilbert_total:7"),
        "peak RSS after hilbert_total d=9": rss_after("hilbert_total:9"),
        "find_seeds(3)": durations("sequences.find_seeds", 3),
        "find_seeds(4)": durations("sequences.find_seeds", 4),
    }
    lines = []
    for row, values in measured.items():
        if not values:
            continue
        quoted, unit, at_most = ROADMAP_ROWS[row]
        value = statistics.median(values)
        tol = bounds["peak_rss_mb" if unit == "MB" else "wall_ref"]
        if quoted is None:
            verdict = "not quoted in ROADMAP"
        elif (value <= quoted * (1 + tol)) if at_most else abs(value / quoted - 1) <= tol:
            verdict = f"matches within {tol:.0%}"
        else:
            verdict = f"DIFFERS by {value / quoted - 1:+.0%} (beyond {tol:.0%})"
        q = "-" if quoted is None else ("<= " if at_most else "") + f"{quoted:g} {unit}"
        lines.append(f"  {row:<34} {value:10.4f} {unit:<3} (n={len(values)})"
                     f"  ROADMAP {q:<10}  {verdict}")
    return lines


def environment(workload, seed, seconds, units, slices, attempted, numpy_version) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_pins": THREAD_PINS,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "units": units,
        "rounds": len(slices),
        "jobs": attempted,
    }


def fmt(metrics: dict, notes=None) -> str:
    notes = notes or {}
    return "\n".join(f"  {name:<44} {value:>16.6f} {unit}{notes.get(name, '')}"
                     for name, (value, unit) in metrics.items())


def run_workload(workload, seed, seconds, trace, bounds, deadline) -> dict:
    units, slices = plan(workload, seconds)
    if trace:
        # untraced and traced rounds alternate, so drift in machine speed
        # touches both sides of the overhead alike
        both = [run_rounds(workload, seed, units, [sl], t, deadline)[0]
                for sl in slices for t in (0, 1)]
        plain, traced = both[0::2], both[1::2]
    else:
        plain = run_rounds(workload, seed, units, slices, 0, deadline)
    base = summarise(plain)
    print(f"== {workload}  seed {seed}  {base['attempted']} jobs in {len(slices)} rounds")
    pct, beyond = base["tail"]
    print(fmt(base["metrics"], {"job_tail_s": f"   (p{pct:.2f}, {beyond} jobs beyond)"}))
    fail_ratio = base["failed"] / base["attempted"]
    print(f"  {'fail_ratio':<44} {fail_ratio:>16.6f} ratio   "
          f"({base['failed']} of {base['attempted']} jobs)")
    print(f"  digest {base['digest']}")
    for err in base["errors"][:10]:
        print(f"  FAILED {err}")
    result = {"correct": base["failed"] == 0, "attempted": base["attempted"],
              "failed": base["failed"], "metrics": base["metrics"], "digest": base["digest"]}

    if trace:
        again = summarise(traced)
        merged = tracing.merge([r["trace"] for r in traced])
        layer = tracing.layer_metrics(merged)
        overhead = again["metrics"]["wall_s"][0] - base["metrics"]["wall_s"][0]
        layer["trace.overhead_s"] = (overhead, "s")
        same = again["digest"] == base["digest"]
        print(f"-- traced: wall_s {again['metrics']['wall_s'][0]:.4f} s, overhead "
              f"{overhead:+.4f} s; digest {'equals' if same else 'DIFFERS FROM'} untraced")
        print(fmt({k: v for k, v in layer.items() if v[0]}))
        table = roadmap_table(merged, plain, bounds)
        if table:
            print("-- ROADMAP re-anchor rows")
            print("\n".join(table))
        result = {
            "correct": result["correct"] and again["failed"] == 0 and same,
            "attempted": base["attempted"] + again["attempted"],
            "failed": base["failed"] + again["failed"],
            "metrics": layer,
            "digest": base["digest"],
        }
    env = environment(workload, seed, seconds, units, slices, base["attempted"],
                      plain[0]["numpy"])
    print("  env " + json.dumps(env))
    result["env"] = env
    result["fail_ratio"] = fail_ratio
    with open(os.path.join(WORKDIR, f"result-{workload}-{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "goldenring", "__init__.py")):
        print("error: goldenring sources not found under src/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    os.makedirs(WORKDIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, bounds, deadline)
                   for w in names}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, r in results.items():
        missing = set(declared) - set(r["metrics"])
        if missing:
            print(f"error: {w} does not measure {sorted(missing)}", file=sys.stderr)
            return 1
        r["metrics"] = {k: r["metrics"][k] for k in declared}
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
