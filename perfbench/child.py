"""One round of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed S --units U --first A --last B \
        --trace 0|1 --workdir DIR

Set-up (importing goldenring, the seed search, building the job list) is
timed from the first line of this file.  The jobs then run one at a time,
each timed alone; with --trace 1 they run under the tracer.  Each answer is
checked right after its job, untimed and with the tracer paused.  The last
line of standard output is one JSON object for run.py.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports goldenring)

# A speed probe runs before the first job, after the last, and between jobs
# whenever this much job time has passed since the last probe.
PROBE_EVERY_S = 0.2
PROBE_PASSES = 10
_REF_A, _REF_B = 3**20000 + 7, 5**15000 + 11


def reference_s(passes: int = PROBE_PASSES) -> float:
    """Median duration of a fixed loop of Python bytecode, a big-integer
    gcd and small allocations.

    On a shared host the speed of the same code swings by half within
    seconds.  Timed between jobs, the loop tracks those swings, so a job's
    latency divided by the probes around it (the `_ref` metrics) stays
    comparable across runs.  It runs no goldenring code, and the garbage
    collector is held off while it runs, so that probes taken at times that
    vary from run to run do not move the collections in the jobs.  It makes
    no large allocation, whose cost would depend on what the program left
    on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(passes):
        t0 = perf_counter()
        s = 0
        for i in range(30000):
            s += i * i % 7
        math.gcd(_REF_A, _REF_B)
        {i: (i,) for i in range(5000)}
        times.append(perf_counter() - t0)
    if enabled:
        gc.enable()
    times.sort()
    return times[len(times) // 2]


def rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def judge(job, out, raised):
    """The job's verdict, and an error line when it failed."""
    if raised is None:
        try:
            verdict = job.check(out)
        except Exception as exc:  # a malformed answer fails its check
            raised = exc
    if raised is not None:
        return (workloads.Verdict(False, ["error", type(raised).__name__]),
                f"{job.name}: {type(raised).__name__}: {raised}")
    return verdict, None if verdict.ok else f"{job.name}: wrong answer"


def execute(jobs, tracer=None) -> dict:
    """Run the jobs one at a time, checking each answer untimed and untraced.

    Returns the round's record: summed job latency, per-job rows
    [name, latency, peak RSS so far, ok, relative latency], the verdict
    digest, errors, the speed probes, and the counts and maxima the checks
    read off the answers.  Each stretch of job time between two speed
    probes is divided by their mean, and a job's relative latency is the
    sum of its stretches.  A job that raises, or whose check raises, has
    failed.  Answers are checked and hashed at once, so they do not pile up
    in memory.
    """
    rows, errors = [], []
    digest = hashlib.sha256()
    counts, maxima = {}, {}
    probes = [reference_s()]
    pending, since = [], 0.0  # (row, stage latency) not yet probed after

    def probe():
        nonlocal pending, since
        probes.append(reference_s())
        ref = (probes[-2] + probes[-1]) / 2
        for row, lat in pending:
            row[4] += lat / ref
        pending, since = [], 0.0

    for k, job in enumerate(jobs):
        row = [job.name, 0.0, 0.0, False, 0.0]
        out, raised = None, None
        for i, stage in enumerate((job.run, *job.then)):
            if i and since >= PROBE_EVERY_S:
                probe()
            t0 = perf_counter()
            try:
                out = stage(out) if i else stage()
            except Exception as exc:  # a failed job is counted, not fatal
                out, raised = None, exc
            lat = perf_counter() - t0
            row[1] += lat
            pending.append((row, lat))
            since += lat
            if raised is not None:
                break
        if tracer:
            tracer.active = False
        verdict, error = judge(job, out, raised)
        if tracer:
            tracer.active = True
        row[2], row[3] = rss_mb(), verdict.ok
        rows.append(row)
        if since >= PROBE_EVERY_S or k == len(jobs) - 1:
            probe()
        digest.update(json.dumps(verdict.exact, sort_keys=True, default=str).encode() + b"\n")
        for name, n in verdict.counts.items():
            counts[name] = counts.get(name, 0) + n
        for name, n in verdict.maxima.items():
            maxima[name] = max(maxima.get(name, 0), n)
        if error:
            errors.append(error)
    if tracer:
        tracer.uninstall()
    return {
        "wall_s": sum(row[1] for row in rows),
        "jobs": rows,
        "digest": digest.hexdigest(),
        "errors": errors[:20],
        "probes": probes,
        "counts": counts,
        "maxima": maxima,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--units", type=int, required=True)
    p.add_argument("--first", type=int, required=True)
    p.add_argument("--last", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    jobs = workloads.build(args.workload, args.seed, args.units, args.first, args.last,
                           args.workdir)
    setup_s = perf_counter() - T_START

    record = execute(jobs, tracer)
    record["setup_s"] = setup_s
    record["rss_mb"] = rss_mb()
    record["numpy"] = getattr(sys.modules.get("numpy"), "__version__", "not loaded")
    if tracer:
        summary = tracer.summary()
        summary["counts"].update(record.pop("counts"))
        summary["maxima"].update(record.pop("maxima"))
        record["trace"] = summary
        tracer.write_spans(os.path.join(
            args.workdir, f"spans-{args.workload}-{args.seed}-{args.first}.json"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
