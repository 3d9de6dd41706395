"""Checks of the benchmark itself: its correctness checks bite, and tracing
changes no answer.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import goldenring as gr  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail_ratio(jobs) -> float:
    record = child.execute(jobs)
    summary = run.summarise([dict(record, setup_s=0.0, rss_mb=0.0)])
    return summary["failed"] / summary["attempted"]


def test_flipped_window_entry_fails(tmp_path, monkeypatch):
    seed = gr.find_seeds(workloads.SEQ_BOUND)[0]
    assert fail_ratio([workloads.seq_job(0, seed, str(tmp_path))]) == 0

    original = workloads.write_dump

    def write_flipped(path, text):
        obj = json.loads(text)
        obj["window"][10][0] = str(int(obj["window"][10][0]) + 1)
        original(path, json.dumps(obj))

    monkeypatch.setattr(workloads, "write_dump", write_flipped)
    assert fail_ratio([workloads.seq_job(0, seed, str(tmp_path))]) == 1


def test_wrong_expected_hilbert_value_fails():
    M = gr.find_seeds(workloads.SEQ_BOUND)[0].M
    jobs = [workloads.hilbert_job(M, d) for d in range(4)]
    assert fail_ratio(jobs) == 0
    jobs[3] = workloads.hilbert_job(M, 3, expected=gr.hilbert_total_closed(3) + 1)
    assert fail_ratio(jobs) == 0.25


def test_tracing_keeps_digest_and_restores_attributes():
    jobs = workloads.grid_jobs(workloads.sample_rng("combinatorics-grid", 7))[::10]
    main, mul = gr.cli.main, gr.RationalInterval.__mul__
    plain = child.execute(jobs)
    tracer = tracing.Tracer()
    tracer.install()
    assert gr.cli.main is not main
    traced = child.execute(jobs, tracer)
    assert traced["digest"] == plain["digest"]
    assert gr.cli.main is main and gr.RationalInterval.__mul__ is mul
    calls = tracer.summary()["calls"]
    assert calls["cli.chi"] > 0 and calls["intervals.mul"] > 0
