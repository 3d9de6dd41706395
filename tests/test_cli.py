import hashlib
import json
import os
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import goldenring as gr
from goldenring.cli import _json_text, build_parser, main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--format", "json", "--no-timestamp")
    assert code == 0, err
    return json.loads(out)


def test_chi_text(capsys):
    code, out, err = run(capsys, "chi", "--d", "3", "--format", "text")
    assert code == 0
    assert "config:" in out
    assert "profile" in out


def test_chi_json_envelope(capsys):
    data = run_json(capsys, "chi", "--d", "4")
    assert data["command"] == "chi"
    assert "timestamp" not in data
    assert data["config"]["d"] == 4
    assert data["result"]["closed"] == [1, 3, 5, 7, 5]
    assert data["result"]["match"] is True


def test_chi_bidegree_and_oracle(capsys):
    data = run_json(capsys, "chi", "--d1", "2", "--d2", "1", "--oracle")
    assert data["result"]["closed"] == [1, 3, 3, 1]
    assert data["result"]["oracle"] == [1, 3, 3, 1]
    assert data["result"]["match"] is True


def test_chi_csv(capsys):
    code, out, _ = run(
        capsys, "chi", "--d", "2", "--oracle", "--format", "csv", "--no-timestamp"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "s,closed,oracle"
    assert len(lines) == 2 + 3


def test_chi_timestamp_present(capsys):
    code, out, _ = run(capsys, "chi", "--d", "2", "--format", "json")
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_degree_arguments_are_exclusive(capsys):
    code, _, err = run(capsys, "chi", "--d", "3", "--d1", "1", "--d2", "1")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "chi")
    assert code == 2
    code, _, _ = run(capsys, "chi", "--d1", "3")
    assert code == 2


def test_repeated_runs_identical(capsys):
    first = run(capsys, "chi", "--d", "5", "--format", "json", "--no-timestamp")
    second = run(capsys, "chi", "--d", "5", "--format", "json", "--no-timestamp")
    assert first == second


# one process, every kind of exit: json, csv and text output, a usage error
# found after parsing, an argparse error, help, and a second subcommand
REPEATED_CALLS = [
    ("chi", "--d", "3", "--no-timestamp"),
    ("chi", "--d", "3", "--format", "csv", "--no-timestamp"),
    ("chi", "--d", "3", "--format", "text"),
    ("dim", "--grid", "--d", "3"),
    ("chi", "--bogus"),
    ("--help",),
    ("dim", "--d", "4", "--delta", "3", "--no-timestamp"),
]


def test_repeated_in_process_calls_are_independent(capsys):
    first = [run(capsys, *argv) for argv in REPEATED_CALLS]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, 0, 0]
    assert first[3][2] == "error: dim needs either --grid or both --d and --delta\n"
    assert "unrecognized arguments: --bogus" in first[4][2]
    assert first[5][1].startswith("usage: goldenring")
    assert [run(capsys, *argv) for argv in REPEATED_CALLS] == first
    assert build_parser() is build_parser()


def _json_values():
    scalars = (
        st.none() | st.booleans() | st.integers()
        | st.integers(min_value=-(10**40), max_value=10**40)
        | st.floats(allow_nan=False, allow_infinity=False) | st.text()
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        # str keys take the writer's own path, mixed keys its fallback
        | st.dictionaries(st.text() | st.integers(), inner, max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    )


class _Str(str):
    pass


class _Level(IntEnum):
    HIGH = 7


@given(_json_values())
@example({"a": [], "b": {}, "c": ({"\u00e9\x00\n": [1.5, -(2**70), True]},), 3: None})
@example([{}, [[]], "\ud800\u2028", {"k": {1: "v"}}])
# subclasses and bools leave the writer's exact-type path for json.dumps
@example({"t": True, "f": False, "level": _Level.HIGH, "s": _Str("x\n")})
@example({_Str("key"): [1, 2], "k": 3})
@example({"pair": (1, -2), "row": [(3, 4)]})
@example({True: 1, "k": [None]})
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_enum_counts(capsys):
    data = run_json(capsys, "enum", "--d", "4")
    assert data["result"]["count"] == 21
    assert data["result"]["match"] is True
    data = run_json(capsys, "enum", "--d1", "2", "--d2", "2")
    assert data["result"]["count"] == 13


def test_enum_csv(capsys):
    code, out, _ = run(capsys, "enum", "--d", "2", "--format", "csv", "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "m,n"
    assert len(lines) == 2 + 7


def test_quads_by_value(capsys):
    data = run_json(capsys, "quads", "--alpha", "2", "1", "--count", "4")
    chain = data["result"]["quads"]
    assert len(chain) == 4
    assert data["result"]["match"] is True
    sizes = [q["size"] for q in chain]
    assert sizes == list(range(sizes[0], sizes[0] + 4))


def test_quads_zero_value(capsys):
    data = run_json(capsys, "quads", "--alpha", "0", "0")
    assert data["result"]["class"] == "zero"
    assert data["result"]["quads"] == []


def test_quads_by_bidegree(capsys):
    data = run_json(capsys, "quads", "--bidegree", "2", "2")
    assert data["result"]["match"] is True
    assert data["result"]["first_value"] == {"m": 2, "n": 2}
    assert data["result"]["last_value"] == {"m": 2, "n": -2}


def test_quads_argument_validation(capsys):
    code, _, _ = run(capsys, "quads")
    assert code == 2
    code, _, _ = run(capsys, "quads", "--alpha", "1", "0", "--bidegree", "1", "1")
    assert code == 2
    code, _, err = run(capsys, "quads", "--bidegree", "0", "0")
    assert code == 2 and "error" in err


def test_seq_verify(capsys):
    data = run_json(capsys, "seq", "--verify", "--window", "14")
    assert data["result"]["verification"]["dets_ok"] is True
    assert data["result"]["verification"]["theta_excludes_zero"] is True
    assert data["result"]["K"] == 14


def test_seq_generate_and_load(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "--format", "json", "--no-timestamp")
    assert code == 0
    system = json.loads(out)["result"]["system"]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(system))
    data = run_json(capsys, "seq", "--load", str(path), "--verify")
    assert data["result"]["verification"]["e4_abs_constant"] is True


def test_seq_load_rejects_tampering(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "--format", "json", "--no-timestamp")
    system = json.loads(out)["result"]["system"]
    system["window"][6][0] = str(int(system["window"][6][0]) + 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system))
    code, _, err = run(capsys, "seq", "--load", str(path), "--verify")
    assert (code, err) == (1, "error: recurrence fails at term 7\n")


def _k14_dump(capsys):
    code, out, _ = run(capsys, "seq", "--window", "14", "--format", "json", "--no-timestamp")
    assert code == 0
    return json.loads(out)["result"]["system"]


@pytest.mark.parametrize("verify", [False, True])
def test_seq_load_recomputes_enclosures(capsys, tmp_path, verify):
    system = _k14_dump(capsys)
    system["xi"] = {"lo": "7", "hi": "8"}
    system["theta"] = {"lo": "100", "hi": "101"}
    path = tmp_path / "window.json"
    path.write_text(json.dumps(system))
    data = run_json(capsys, "seq", "--load", str(path), *["--verify"] * verify)
    loaded = data["result"]["system"]
    generated = gr.generate_system(gr.find_seeds(3, 1)[0], K=14).to_json()
    assert loaded["xi"] == generated["xi"]
    assert loaded["theta"] == generated["theta"]
    if verify:
        assert loaded["xi"] == data["result"]["verification"]["xi"]
        assert loaded["theta"] == data["result"]["verification"]["theta"]


@pytest.mark.parametrize(
    "case, expected",
    [("two-entry-row", 2), ("no-window", 2), ("top-level-list", 2), ("float-seed", 2),
     ("over-cap", 3), ("long-entry", 3)],
)
def test_seq_load_rejects_malformed_window(capsys, tmp_path, case, expected):
    system = _k14_dump(capsys)
    rows = system["window"]
    doc = {
        "two-entry-row": dict(system, window=rows[:3] + [rows[3][:2]] + rows[4:]),
        "no-window": {"seed": system["seed"]},
        "top-level-list": [system],
        # M is [[-3, 1], [-1, 0]]; int() would truncate 1.9 back to 1
        "float-seed": dict(system, seed=dict(system["seed"], M=[[-3, 1.9], [-1, 0]])),
        "over-cap": dict(system, window=rows + [["1" * 10**6, "1", "1"]]),
        "long-entry": dict(system, window=rows[:-1] + [["1" * 130_000, "1", "1"]]),
    }[case]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "seq", "--load", str(path))
    assert code == expected
    assert out == "" and err.startswith("error: ")


def test_seq_load_config_names_only_what_it_used(capsys, tmp_path):
    path = tmp_path / "window.json"
    path.write_text(json.dumps(_k14_dump(capsys)))
    code, out, _ = run(capsys, "seq", "--load", str(path), "--format", "text")
    lines = out.splitlines()
    assert code == 0 and lines[0] == f"config: verify=False load={path}"
    assert lines[1].startswith("K=14 ")
    data = run_json(capsys, "seq", "--load", str(path), "--verify")
    assert data["config"] == {"verify": True, "load": str(path)}


@pytest.mark.parametrize(
    "option", [("--bound", "3"), ("--seed-index", "0"), ("--window", "22")],
    ids=["bound", "seed-index", "window"],
)
def test_seq_load_refuses_generation_options(capsys, tmp_path, option):
    # the file does not exist: opening it first would fail with another message
    code, out, err = run(capsys, "seq", "--load", str(tmp_path / "missing.json"), *option)
    assert (code, out) == (2, "")
    assert err == "error: --bound, --seed-index and --window do not apply with --load\n"


def test_seq_load_missing_and_malformed(capsys, tmp_path):
    code, _, _ = run(capsys, "seq", "--load", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "seq", "--load", str(bad))
    assert code == 2
    bad.write_text("[" * 100_000)
    code, _, err = run(capsys, "seq", "--load", str(bad))
    assert code == 2 and err.startswith("error: ")


def test_seq_bad_seed_index(capsys):
    code, _, err = run(capsys, "seq", "--seed-index", "99")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "option, message",
    [(("--seed-index", "-1"), "--seed-index must be nonnegative"),
     (("--bound", "0"), "--bound must be at least 1"),
     (("--bound", "-2", "--seed-index", "-1"), "--seed-index must be nonnegative")],
    ids=["negative-seed-index", "zero-bound", "both"],
)
def test_seq_usage_refused_before_any_work(capsys, monkeypatch, option, message):
    def refuse(*args, **kwargs):
        raise AssertionError("seq did work before refusing its arguments")

    monkeypatch.setattr(gr.cli, "find_seeds", refuse)
    code, out, err = run(capsys, "seq", *option)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_hilbert(capsys):
    data = run_json(capsys, "hilbert", "--d", "2")
    assert data["result"]["computed"] == 25
    assert data["result"]["expected"] == 25
    assert data["result"]["match"] is True
    data = run_json(capsys, "hilbert", "--d1", "1", "--d2", "1")
    assert data["result"]["computed"] == 15


def test_hilbert_bound_exceeded(capsys):
    code, _, err = run(capsys, "hilbert", "--d", "6")
    assert code == 3 and "error" in err


def test_hilbert_bad_matrix(capsys):
    code, _, _ = run(capsys, "hilbert", "--d", "2", "--matrix", "1,2,3")
    assert code == 2
    code, _, _ = run(capsys, "hilbert", "--d", "2", "--matrix", "2,0,0,2")
    assert code == 2


def test_basis(capsys):
    data = run_json(capsys, "basis", "--d", "1")
    assert data["result"]["spans"] is True
    assert data["result"]["cardinality"] == 7
    assert data["result"]["quotient_rank"] == 7


def test_dim_single(capsys):
    data = run_json(capsys, "dim", "--d", "3", "--delta", "3/2")
    assert data["result"]["dim"] == 25
    code, _, _ = run(capsys, "dim", "--d", "13", "--delta", "1/2")
    assert code == 3
    code, _, _ = run(capsys, "dim", "--d", "3")
    assert code == 2


def test_dim_grid_csv(capsys):
    code, out, _ = run(capsys, "dim", "--grid", "--format", "csv", "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 36


def test_csv_only_for_tables(capsys):
    for args in (
        ("seq", "--verify"),
        ("hilbert", "--d", "2"),
        ("basis", "--d", "1"),
        ("dim", "--d", "2", "--delta", "1/2"),
    ):
        code, _, err = run(capsys, *args, "--format", "csv")
        assert code == 2, args
        assert "csv" in err


def test_unknown_command(capsys):
    assert main(["nope"]) == 2


def test_console_entry_point():
    # The console script is declared in pyproject.toml; an install turns that
    # declaration into the `goldenring` command. The declaration and its target
    # are checked from the source tree, so no install is needed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        declared = tomllib.load(fh)["project"].get("scripts", {})
    assert declared.get("goldenring") == "goldenring.cli:main"

    script = EntryPoint("goldenring", declared["goldenring"], "console_scripts")
    target = script.load()
    assert target is main
    assert target(["chi", "--d", "2", "--no-timestamp", "--format", "text"]) == 0

    # Where goldenring is installed, the installed metadata must agree.
    try:
        installed = distribution("goldenring").entry_points
    except PackageNotFoundError:
        return
    scripts = {ep.name: ep.value for ep in installed.select(group="console_scripts")}
    assert scripts.get("goldenring") == declared["goldenring"]


# SHA-256 of what these commands print under --no-timestamp.  The two dim
# JSON pins date from exact-Fraction interval arithmetic: the dim path keeps
# every endpoint within ENDPOINT_BITS, so outward rounding must leave its
# output byte-identical.  The csv and text pins hold the output format of
# every table and text report to the bytes.
DIM_OUTPUT_SHA256 = {
    ("dim", "--grid"): "12e109bf8447bdac00506ad1aeadafc15d562e72eaa03b3be7ac0a201c075988",
    ("dim", "--d", "7", "--delta", "9/2"):
        "7c8bbafe20e9aebf1581cbdae01f0b9fbb0d7e5cb6189785bf97aaf5ac37d055",
    ("chi", "--d", "4", "--oracle", "--format", "csv"):
        "b80114360809daffa7f27820c4fc7c77a7829515bf7881116f9a4b79c841cd77",
    ("chi", "--d", "4", "--oracle", "--format", "text"):
        "406f684df36da11cab7c5aba7ee0dadcaa130ad1dbbf3ccebf64a281901b6e26",
    ("chi", "--d1", "2", "--d2", "1", "--format", "csv"):
        "f11ef08ed29363ac8d10d8b0239155f195bfd2f246d86511715985cd242ae159",
    ("chi", "--d1", "2", "--d2", "1", "--format", "text"):
        "13a9ae99fb21a1fdf2c1802e97f601cd5a35a9a70aaf565289ca67140eb78936",
    ("enum", "--d", "3", "--format", "csv"):
        "9141e19c4a7c224ffec794ca8ba50a1339ce2d606cbd7981da7a3b346d60b6d5",
    ("enum", "--d1", "2", "--d2", "1", "--format", "text"):
        "d7fc167bd96df3e4ef6c937ff15e59cbd993798c821cc3dd1dd3e56419fe36df",
    ("quads", "--alpha", "2", "1", "--count", "4", "--format", "csv"):
        "e69b0f5c3d24111f513a99009281ee3348d4f6282cfb6ebcde17e7d0a655d99e",
    ("quads", "--alpha", "2", "1", "--count", "4", "--format", "text"):
        "e43ae260f0d43d54da6da3cafd25ac13441f5d2040a148f06bee0227bb6167ce",
    ("quads", "--bidegree", "3", "1", "--format", "csv"):
        "5bea9f8617071544b3d4b72534f557483d0dec72e85a28db3509cb1ccdffe558",
    ("quads", "--bidegree", "3", "1", "--format", "text"):
        "e97cca3b10d87bb0759ed24ec5d72b2a16120b2738070df0bf1c0216fdc2c445",
    ("hilbert", "--d", "2", "--format", "text"):
        "31d23760e85e0eb5eec5ee9c4de901e422ec0578bcc7637b497f88a3e5daec93",
    ("hilbert", "--d1", "1", "--d2", "1", "--format", "text"):
        "7b16676c77bc7a7372bf4ff2f2619d35404391f12565645b4fed289ea0d790b1",
    ("basis", "--d", "1", "--format", "text"):
        "7ce7aff88f0dacb6601436bc44448768382ae3c3137b7c9da5bb4d931d6ba234",
    ("basis", "--d1", "1", "--d2", "1", "--format", "text"):
        "7d6d3d72865f13a6255fcdfeed366bfa773334c0f9aa4591e0a7ce2b4b19d87f",
    # xi and theta at ENDPOINT_BITS and the e2 maxima from local bounds,
    # printed at or above the bound; the window bytes are those of the
    # earlier full-width pin
    ("seq", "--verify"): "c03969d0efb6c5c1ec8975d4e743ae5c97870adc833142bcb8e3d44fc3b24c87",
    # the text form of seq holds the seed but no enclosure
    ("seq", "--window", "10", "--format", "text"):
        "6ce76abed58e19bdaedd0cabf8a7a6dbf1e6f00269d4a1376cc66c3dafc78ec8",
    ("dim", "--grid", "--format", "csv"):
        "ad92559978e99fa74566588215a00e3217beb4d4ca6df18afc60ccf0ef7410e0",
    ("dim", "--grid", "--format", "text"):
        "46b41feec380366007ddf2b22f8c798dcf1f82b45a701d99b959b884702b5113",
    # the largest JSON envelope of the benchmark's grid, pinned at the bytes
    # json.dumps(envelope, indent=2) gave before the one-pass writer
    ("enum", "--d", "30"): "c60f3aebc7c3ddb8b8c7beddadb9bd2222df224adca6c946933149b073fd20b8",
}


@pytest.mark.parametrize("argv", list(DIM_OUTPUT_SHA256))
def test_dim_json_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv, "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIM_OUTPUT_SHA256[argv]


# Each of these would exit otherwise (3 for the bound, 2 with another message
# for the missing seed and the missing --delta) if the refusal came after the work.
@pytest.mark.parametrize(
    "argv",
    [("hilbert", "--d", "6"), ("seq", "--seed-index", "99"), ("dim", "--d", "3")],
    ids=["hilbert-over-bound", "seq-no-such-seed", "dim-no-delta"],
)
def test_csv_refused_before_any_work(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: csv output is only available for table commands\n"


@pytest.mark.parametrize(
    "argv",
    [("dim",), ("dim", "--d", "3"), ("dim", "--delta", "1/2"), ("dim", "--grid", "--d", "3"),
     ("dim", "--grid", "--delta", "1/2"), ("dim", "--grid", "--d", "3", "--delta", "1/2"),
     ("dim", "--grid", "--d", "3", "--format", "csv")],
    ids=["nothing", "d-only", "delta-only", "grid-and-d", "grid-and-delta", "grid-and-both",
         "grid-and-d-csv"],
)
def test_dim_needs_grid_or_both_d_and_delta(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("dim did work before refusing its arguments")

    monkeypatch.setattr(gr.cli, "scaling_report", refuse)
    monkeypatch.setattr(gr.cli, "growth_dimension", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: dim needs either --grid or both --d and --delta\n"


@pytest.mark.parametrize(
    "delta, message",
    [("1/0", "--delta has a zero denominator"),
     ("-3/000", "--delta has a zero denominator"),
     ("1e-20000", "--delta must be P or P/Q, with P and Q decimal integers"),
     ("0.5", "--delta must be P or P/Q, with P and Q decimal integers"),
     ("1/2/3", "--delta must be P or P/Q, with P and Q decimal integers"),
     ("+1/2", "--delta must be P or P/Q, with P and Q decimal integers"),
     (" 1/2", "--delta must be P or P/Q, with P and Q decimal integers"),
     ("1_000", "--delta must be P or P/Q, with P and Q decimal integers"),
     ("1" * 601, "--delta parts are limited to 600 digits"),
     ("1/" + "3" * 601, "--delta parts are limited to 600 digits")],
    ids=["zero-den", "negative-zero-den", "exponent", "decimal-point", "two-slashes", "plus",
         "space", "underscore", "long-p", "long-q"],
)
def test_dim_delta_grammar_checked_before_any_work(capsys, monkeypatch, delta, message):
    def refuse(*args, **kwargs):
        raise AssertionError("dim did work before refusing its --delta")

    monkeypatch.setattr(gr.cli, "growth_dimension", refuse)
    code, out, err = run(capsys, "dim", "--d", "3", f"--delta={delta}")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_dim_delta_at_the_digit_limit(capsys):
    # 600-digit parts parse and print whole; the 600-digit zero P is refused
    # by growth_dimension, after the grammar passed it
    p, q = "1" * 600, "7" * 600
    data = run_json(capsys, "dim", "--d", "3", "--delta", f"{p}/{q}")
    assert data["config"]["delta"] == f"{p}/{q}"
    assert data["result"]["delta"] == str(Fraction(int(p), int(q)))
    code, out, err = run(capsys, "dim", "--d", "3", "--delta", "0" * 600)
    assert (code, out, err) == (2, "", "error: cutoff must be positive\n")


@pytest.mark.parametrize(
    "spelling, message",
    [(("--delta", "-1/2"), "cutoff must be positive"),
     (("--delta=-1/2",), "cutoff must be positive"),
     (("--delta", "-3"), "cutoff must be positive"),
     (("--delta", "-3/000"), "--delta has a zero denominator")],
    ids=["negative-split", "negative-joined", "negative-integer", "negative-zero-den-split"],
)
def test_dim_negative_delta_reaches_the_grammar(capsys, spelling, message):
    # a separate token such as -1/2 would otherwise be read as an option
    code, out, err = run(capsys, "dim", "--d", "3", *spelling)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_seq_window_bound_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("seq formed a term before refusing its window")

    monkeypatch.setattr(gr.sequences, "_extend", refuse)
    bound = gr.sequences.WINDOW_BOUND
    code, out, err = run(capsys, "seq", "--window", str(bound + 1))
    assert (code, out) == (3, "")
    assert err == f"error: window length {bound + 1} exceeds bound {bound}\n"


def test_seq_seed_bound_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("seq searched seeds before refusing its bound")

    monkeypatch.setattr(gr.cli, "find_seeds", refuse)
    bound = gr.sequences.SEED_BOUND
    code, out, err = run(capsys, "seq", "--bound", str(bound + 1))
    assert (code, out) == (3, "")
    assert err == f"error: seed bound {bound + 1} exceeds bound {bound}\n"
    # the bound itself is admitted: the search starts, and meets the patch
    with pytest.raises(AssertionError, match="searched seeds"):
        run(capsys, "seq", "--bound", str(bound))


def test_enum_degree_bound_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enum enumerated before refusing its bound")

    for name in ("elements_up_to_degree", "elements_up_to_bidegree"):
        monkeypatch.setattr(gr.cli, name, refuse)
    bound = gr.quads.ENUM_DEGREE_BOUND
    code, out, err = run(capsys, "enum", "--d", str(bound + 1))
    assert (code, out) == (3, "")
    assert err == f"error: d = {bound + 1} exceeds bound {bound}\n"
    code, out, err = run(capsys, "enum", "--d1", "1", "--d2", str(bound))
    assert (code, out) == (3, "")
    assert err == f"error: d1 + d2 = {bound + 1} exceeds bound {bound}\n"
    # the bound itself is admitted: the enumeration starts, and meets the patch
    for degree in (["--d", str(bound)], ["--d1", "0", "--d2", str(bound)]):
        with pytest.raises(AssertionError, match="enumerated before"):
            run(capsys, "enum", *degree)


def test_chi_degree_bound_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("chi built a profile before refusing its bound")

    for name in ("size_class_profile", "size_class_profile_bi"):
        monkeypatch.setattr(gr.cli, name, refuse)
    bound = gr.quads.CHI_DEGREE_BOUND
    code, out, err = run(capsys, "chi", "--d", str(bound + 1))
    assert (code, out) == (3, "")
    assert err == f"error: d = {bound + 1} exceeds bound {bound}\n"
    code, out, err = run(capsys, "chi", "--d1", "1", "--d2", str(bound))
    assert (code, out) == (3, "")
    assert err == f"error: d1 + d2 = {bound + 1} exceeds bound {bound}\n"
    # the bound itself is admitted: the profile starts, and meets the patch
    for degree in (["--d", str(bound)], ["--d1", "0", "--d2", str(bound)]):
        with pytest.raises(AssertionError, match="profile before"):
            run(capsys, "chi", *degree)


def test_quads_bounds_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quads did work before refusing its bound")

    for name in ("classify", "quads_for_value", "quads_with_bidegree"):
        monkeypatch.setattr(gr.cli, name, refuse)
    count = gr.quads.QUADS_COUNT_BOUND
    code, out, err = run(capsys, "quads", "--alpha", "3", "2", "--count", str(count + 1))
    assert (code, out) == (3, "")
    assert err == f"error: count {count + 1} exceeds bound {count}\n"
    bound = gr.quads.QUADS_BIDEGREE_BOUND
    code, out, err = run(capsys, "quads", "--bidegree", "1", str(bound))
    assert (code, out) == (3, "")
    assert err == f"error: d1 + d2 = {bound + 1} exceeds bound {bound}\n"
    # a negative part is bad usage, however large the other
    code, out, err = run(capsys, "quads", "--bidegree", "-1", str(bound + 2))
    assert (code, out, err) == (2, "", "error: bidegree must be nonzero and nonnegative\n")
    # the bounds themselves are admitted: the work starts, and meets the patch
    for request in (["--alpha", "3", "2", "--count", str(count)],
                    ["--bidegree", "0", str(bound)]):
        with pytest.raises(AssertionError, match="did work before"):
            run(capsys, "quads", *request)


@pytest.mark.parametrize("command", ["chi", "enum", "hilbert", "basis"])
@pytest.mark.parametrize(
    "degree, message",
    [(("--d", "-1"), "degree"), (("--d1", "-1", "--d2", "2"), "bi-degree"),
     (("--d1", "2", "--d2", "-3"), "bi-degree")],
    ids=["d", "d1", "d2"],
)
def test_negative_degree_refused_before_any_work(capsys, monkeypatch, command, degree, message):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} did work before refusing its degree")

    for name in ("size_class_profile", "size_class_profile_bi", "brute_force_sizes",
                 "brute_force_sizes_bi", "elements_up_to_degree", "elements_up_to_bidegree",
                 "hilbert_total", "hilbert_bi", "check_basis_rank"):
        monkeypatch.setattr(gr.cli, name, refuse)
    code, out, err = run(capsys, command, *degree)
    assert (code, out) == (2, "")
    assert err == f"error: {message} must be nonnegative\n"


@pytest.mark.parametrize("alpha", [("1", "1"), ("0", "0")], ids=["plus", "zero"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_quads_count_below_one_refused(capsys, alpha, count):
    code, out, err = run(capsys, "quads", "--alpha", *alpha, "--count", count)
    assert (code, out) == (2, "")
    assert err == "error: count must be at least 1\n"


def _module_command(*argv):
    """The command line and environment that run the CLI module from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return [sys.executable, "-m", "goldenring.cli", *argv], env


def test_module_entry_point_matches_main(capsys):
    argv = ["chi", "--d", "3", "--oracle", "--format", "text", "--no-timestamp"]
    cmd, env = _module_command(*argv)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


def _exits_quietly_when_stdout_closes(first_line, *argv):
    """Run the CLI module, close its stdout after one line, and check that it
    exits 141 with nothing on stderr."""
    cmd, env = _module_command(*argv)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_closed_stdout_exits_quietly_with_sigpipe_status():
    # about 180 kB of JSON: more than a pipe buffer, so the writer is still
    # writing when the reader closes the pipe after one line
    _exits_quietly_when_stdout_closes(b"{\n", "enum", "--d", "60", "--no-timestamp")


def test_closed_stdout_in_csv_exits_quietly_with_sigpipe_status():
    # csv is printed in one write: 274 kB, more than a pipe buffer, so that
    # write is still pending when the reader closes the pipe after one line
    _exits_quietly_when_stdout_closes(
        b"# d=200\n", "enum", "--d", "200", "--format", "csv", "--no-timestamp")
