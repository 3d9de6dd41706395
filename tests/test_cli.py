import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path
from types import SimpleNamespace

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

import goldenring as gr
from goldenring.cli import _attach_values, _parse_exact, build_parser, main


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
# found after parsing, an argparse error, help, and a second subcommand; then
# the first call spelled three more ways, two of which only argparse parses:
# abbreviated (--no-t), repeated (--d 2 --d 3, the last wins) and NAME=VALUE
REPEATED_CALLS = [
    ("chi", "--d", "3", "--no-timestamp"),
    ("chi", "--d", "3", "--format", "csv", "--no-timestamp"),
    ("chi", "--d", "3", "--format", "text"),
    ("dim", "--grid", "--d", "3"),
    ("chi", "--bogus"),
    ("--help",),
    ("dim", "--d", "4", "--delta", "3", "--no-timestamp"),
    ("chi", "--d", "3", "--no-t"),
    ("chi", "--d", "2", "--d", "3", "--no-timestamp"),
    ("chi", "--d=3", "--no-timestamp"),
]


def test_repeated_in_process_calls_are_independent(capsys):
    first = [run(capsys, *argv) for argv in REPEATED_CALLS]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, 0, 0, 0, 0, 0]
    assert first[3][2] == "error: dim needs either --grid or both --d and --delta\n"
    assert "unrecognized arguments: --bogus" in first[4][2]
    assert first[5][1].startswith("usage: goldenring")
    assert first[7:] == [first[0]] * 3
    assert [run(capsys, *argv) for argv in REPEATED_CALLS] == first
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    ("chi", "--d", "x"),
    ("chi", "--format", "xml"),
    ("chi", "--oracle=1"),
    ("seq", "--load"),
    ("quads", "--alpha", "1"),
])
def test_argparse_reports_every_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(list(argv))
    assert (code, out, exc.value.code) == (2, "", 2)
    assert err == capsys.readouterr().err
    assert err.startswith("usage: goldenring")


# every subcommand and its options with the kind of value each takes,
# spelled out here rather than read from cli's table; values of each kind,
# and tokens that int(), argparse or both read oddly
_SHARED_OPTIONS = {"--format": "choice", "--no-timestamp": "flag"}
_DEGREE_OPTIONS = {"--d": "int", "--d1": "int", "--d2": "int"}
_OPTIONS = {
    "chi": {**_DEGREE_OPTIONS, "--oracle": "flag"},
    "enum": _DEGREE_OPTIONS,
    "quads": {"--alpha": "pair", "--bidegree": "pair", "--count": "int"},
    "seq": {"--bound": "int", "--seed-index": "int", "--window": "int", "--verify": "flag",
            "--load": "str"},
    "hilbert": {**_DEGREE_OPTIONS, "--matrix": "str"},
    "basis": {**_DEGREE_OPTIONS, "--matrix": "str"},
    "dim": {"--d": "int", "--delta": "str", "--grid": "flag"},
}
_EVERY_OPTION = {name: kind for options in [_SHARED_OPTIONS, *_OPTIONS.values()]
                 for name, kind in options.items()}
_VALUES = {
    "flag": [],
    "int": ["3", "-3", "0", "12"],
    "pair": ["3", "-3", "0", "12"],
    "str": ["FILE", "1/2", "3,1,-1,0", "x=y"],
    "choice": ["json", "csv", "text"],
}
_ODD_TOKENS = [
    "+5", "1_0", " 7", "\u0663", "", "-x", "-1.5", "--no-t", "--", "-h", "-", "-\u0663",
    "xml", "-1/2", "=", "--no-timestamp",
]


@st.composite
def _argvs(draw):
    """A subcommand (or not one), then up to five chunks.  A chunk is mostly
    a distinct option of the subcommand with as many values as its kind
    takes, each mostly of that kind; otherwise it has another number of
    values or is NAME=VALUE, and one chunk in ten is any option, repeats
    included, or an odd token."""
    command = draw(st.sampled_from([*_OPTIONS, *_OPTIONS, "nope", "-h", "--help"]))
    own = {**_SHARED_OPTIONS, **_OPTIONS.get(command, {})}
    odd = st.sampled_from(_ODD_TOKENS)
    argv = [command]
    for name in draw(st.lists(st.sampled_from(sorted(own)), unique=True, max_size=5)):
        other = draw(st.integers(0, 19))
        if other == 0:
            argv.append(draw(odd))
            continue
        if other == 1:
            name = draw(st.sampled_from(sorted(_EVERY_OPTION)))
        kind = _EVERY_OPTION[name]
        fitting = st.sampled_from(_VALUES[kind]) if _VALUES[kind] else odd

        def value():
            return draw(odd if draw(st.integers(0, 3)) == 0 else fitting)

        form = draw(st.sampled_from(["own"] * 6 + ["=", 0, 1, 2]))
        if form == "=":
            argv.append(f"{name}={value()}")
        else:
            count = {"flag": 0, "pair": 2}.get(kind, 1) if form == "own" else form
            argv += [name, *(value() for _ in range(count))]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["quads", "--alpha", "-3", "2", "--count", "+5"])
@example(["chi", "--d", "\u0663", "--d1= 7", "--format=csv"])
@example(["seq", "--load=", "--bound", "1_0"])
@example(["dim", "--delta=-1/2", "--d", "-0"])
@example(["chi", "--d", "2", "--d", "3"])
@example(["hilbert", "--matrix=--"])
def test_exact_parse_equals_argparse(argv):
    args = _parse_exact(argv)
    if args is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            expected = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses what the exact parse took: {err.getvalue()}")
    assert type(args) is SimpleNamespace
    assert vars(args) == vars(expected)
    assert args.func is expected.func
    assert args.has_table(args) == expected.has_table(expected)


@pytest.mark.parametrize("argv", [
    ["chi", "--d", "3", "--no-t"],  # abbreviated
    ["chi", "--d", "2", "--d", "3"],  # repeated
    ["chi", "--oracle=1"],  # a flag with a value
    ["quads", "--alpha=1", "2"],  # a pair as NAME=VALUE
    ["quads", "--alpha", "1"],  # too few values
    ["seq", "--load", "-x"],  # a value that argparse reads as an option
    ["seq", "--load"],
    ["hilbert", "--matrix=--"],  # argparse up to 3.12 reads it as no value
    ["chi", "--d", "x"],
    ["chi", "--d", "-1.5"],
    ["chi", "--d", "-\u0663"],  # a negative number to argparse, and to int()
    ["chi", "--d", "1" * 601],  # past the digit cap, which argparse reports
    ["quads", "--alpha", "1", "-" + "1" * 601],
    ["seq", "--window", " 1" + "0" * 600],
    ["chi", "--format", "xml"],
    ["chi", "-h"],
    ["chi", "3"],
    ["dim", "--d", "3", "--", "--grid"],
    ["--help"],
    ["nope"],
    [],
], ids=lambda argv: " ".join(a if len(a) <= 600 else f"<{len(a)} chars>" for a in argv)
    or "empty")
def test_exact_parse_declines_what_only_argparse_reads(argv):
    assert _parse_exact(argv) is None


def _grid_argvs():
    """The argv the benchmark's combinatorics grid sends, over its ranges:
    chi with the oracle, enum, quads by value, and dim at fixed cutoffs
    where the grid draws them."""
    argvs = [["chi", "--d", str(d), "--oracle"] for d in range(11)]
    argvs += [["chi", "--d1", str(d1), "--d2", str(d2), "--oracle"]
              for d1 in range(13) for d2 in range(13 - d1)]
    argvs += [["enum", "--d", str(d)] for d in range(31)]
    argvs += [["quads", "--alpha", str(a.m), str(a.n)]
              for a in gr.elements_up_to_degree(8) if not a.is_zero()]
    argvs += [["dim", "--d", str(d), "--delta", str(Fraction(d * k, 100))]
              for d in range(1, 13) for k in (1, 77, 159)]
    return argvs + [["dim", "--grid"]]


def test_exactly_spelled_calls_never_build_the_parser(capsys, tmp_path, seeds3):
    window = tmp_path / "window.json"
    window.write_text(json.dumps(gr.generate_system(seeds3[0], K=10).to_json()))
    load = ["seq", "--load", str(window), "--verify"]
    argvs = [[*argv, "--no-timestamp"] for argv in [*DIM_OUTPUT_SHA256, *_grid_argvs(), load]]
    # a negative value as its own token, such as quads --alpha -1 1
    assert any(argv[0] == "quads" and argv[2].startswith("-") for argv in argvs)
    build_parser.cache_clear()
    try:
        for argv in argvs:
            assert _parse_exact(_attach_values(argv)) is not None, argv
            assert run(capsys, *argv)[0] == 0, argv
        assert build_parser.cache_info().currsize == 0
        for argv in (["--help"], ["chi", "--bogus"]):
            build_parser.cache_clear()
            run(capsys, *argv)
            assert build_parser.cache_info().currsize == 1
    finally:
        build_parser.cache_clear()
    assert build_parser() is build_parser()


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
    assert data["result"]["system"] == system


def test_seq_load_rejects_tampering(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "--format", "json", "--no-timestamp")
    system = json.loads(out)["result"]["system"]
    system["window"][6][0] = str(int(system["window"][6][0]) + 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system))
    # the window is matched on load, so --verify or not, nothing is printed
    for verify in ([], ["--verify"]):
        code, out, err = run(capsys, "seq", "--load", str(path), *verify)
        assert (code, out, err) == (1, "", "error: recurrence fails at term 7\n")


@pytest.mark.parametrize(
    "term, verify",
    [(21, True), (22, True), (21, False), (22, False)],
    ids=["21", "22", "21-unverified", "22-unverified"],
)
def test_seq_load_names_a_tampered_last_term(capsys, tmp_path, term, verify):
    # the window is matched on load, before its xi is proved from the last
    # two terms, so a change there is named as a break in the recurrence
    code, out, _ = run(capsys, "seq", "--format", "json", "--no-timestamp")
    system = json.loads(out)["result"]["system"]
    row = system["window"][term - 1]
    # over 4,300 digits: int() refuses them under the default limit
    row[0] = gr.intervals.decimal_text(gr.intervals.parse_decimal(row[0]) + 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, "seq", "--load", str(path), *["--verify"] * verify)
    assert (code, out, err) == (1, "", f"error: recurrence fails at term {term}\n")


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
     ("over-cap", 3), ("long-entry", 1), ("x1-det-3", 2), ("x2-reversed", 2), ("skew-M", 2),
     ("three-row-M", 2), ("two-terms", 2), ("many-rows", 3), ("many-small-rows", 3),
     ("leading-zeros", 2), ("negative-leading-zeros", 2), ("negative-zero", 2)],
)
def test_seq_load_rejects_malformed_window(capsys, tmp_path, case, expected):
    system = _k14_dump(capsys)
    rows, seed = system["window"], system["seed"]
    # what from_json admits before it converts an entry (see there)
    budget = gr.sequences.WINDOW_BITS
    most_rows, most_chars = budget // 192, budget * 30103 // 10**5
    room = most_chars - sum(len(v) for t in rows for v in t)
    many = (rows * 1000)[:most_rows + 1]
    small = [["1", "0", "1"]] * (most_rows + 1)
    doc = {
        "two-entry-row": dict(system, window=rows[:3] + [rows[3][:2]] + rows[4:]),
        "no-window": {"seed": system["seed"]},
        "top-level-list": [system],
        # M is [[-3, 1], [-1, 0]]; int() would truncate 1.9 back to 1
        "float-seed": dict(system, seed=dict(system["seed"], M=[[-3, 1.9], [-1, 0]])),
        # one character over the pre-check
        "over-cap": dict(system, window=rows + [["1" * (room - 1), "1", "1"]]),
        # at the pre-check's limit, so it passes it, and then off the recurrence
        "long-entry": dict(system, window=rows[:-1] + [
            ["9" * (room + sum(map(len, rows[-1])) - 2), "1", "1"]]),
        # the seed is x1 = [-1, -1, -2], x2 = [-2, -1, -1], M = [[-3, 1], [-1, 0]]
        "x1-det-3": dict(system, seed=dict(seed, x1=[2, 1, 2])),
        "x2-reversed": dict(system, seed=dict(seed, x2=seed["x2"][::-1])),
        "skew-M": dict(system, seed=dict(seed, M=[[0, 1], [-1, 0]])),
        "three-row-M": dict(system, seed=dict(seed, M=seed["M"] + [[0, 0]])),
        # a loaded window follows check_window, as a generated one does, and
        # no window within the budget has more terms
        "two-terms": dict(system, window=rows[:2]),
        "many-rows": dict(system, window=many),
        "many-small-rows": dict(system, window=small),
        # spellings int() reads but decimal_text never writes; every entry of
        # this window is negative, so x_5 = (-433, -254, -149) is respelled
        "leading-zeros": dict(system, window=rows[:4] + [["0433"] + rows[4][1:]] + rows[5:]),
        "negative-leading-zeros": dict(system, window=rows[:4] + [["-0433"] + rows[4][1:]] + rows[5:]),
        "negative-zero": dict(system, window=rows[:4] + [["-0"] + rows[4][1:]] + rows[5:]),
    }[case]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "seq", "--load", str(path))
    assert code == expected
    assert out == "" and err.startswith("error: ")
    message = {
        "x1-det-3": "seed triples must have determinant 1",
        "x2-reversed": "x2*M*x1 must be symmetric",
        "skew-M": "transition matrix must not be skew-symmetric",
        "three-row-M": "seed M must be a list of 2 rows",
        "two-terms": "window length must be at least 3",
        "over-cap": f"window of 15 terms and {most_chars + 1} characters cannot fit"
                    f" WINDOW_BITS = {budget}",
        # a file this long is refused before it is parsed
        "many-rows": f"{path}: a window file is limited to {gr.cli._LOAD_BYTES} bytes",
        "many-small-rows": f"window of {most_rows + 1} terms and {3 * most_rows + 3}"
                           f" characters cannot fit WINDOW_BITS = {budget}",
        "long-entry": "recurrence fails at term 14",
        **dict.fromkeys(
            ["leading-zeros", "negative-leading-zeros", "negative-zero"],
            "window entries must be canonical decimal integers 0|-?[1-9][0-9]*",
        ),
    }.get(case)
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "term, message",
    [(1, "window does not start at the seed"), (14, "recurrence fails at term 14")],
    ids=["1", "14"],
)
def test_seq_load_refuses_a_long_entry_unconverted(capsys, monkeypatch, tmp_path, term, message):
    # one entry fills the pre-check's characters; longer than any spelling of
    # the seed's term there, it is refused without being converted
    system = _k14_dump(capsys)
    rows = system["window"]
    room = gr.sequences._MOST_CHARS - sum(len(v) for t in rows for v in t)
    rows[term - 1][0] = "9" * (room + len(rows[term - 1][0]))
    path = tmp_path / "window.json"
    path.write_text(json.dumps(system))
    seen, real = [], gr.sequences.parse_decimal
    monkeypatch.setattr(gr.sequences, "parse_decimal", lambda s: seen.append(len(s)) or real(s))
    assert run(capsys, "seq", "--load", str(path)) == (1, "", f"error: {message}\n")
    assert len(seen) == 3 * (term - 1) and max(seen, default=0) < room


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


def test_seq_load_reads_a_bounded_file(capsys, monkeypatch, tmp_path, largest_windows):
    # the largest dumps seq prints, the first bound-3 seed's at K = 26 and
    # --bound 9 --seed-index 7 at K = 24, load compact and indented
    cap = gr.cli._LOAD_BYTES
    path = tmp_path / "window.json"
    for system in (largest_windows[0], largest_windows[32]):
        dumped = system.to_json()
        for indent in (None, 4):
            path.write_text(json.dumps(dumped, indent=indent))
            code, out, err = run(capsys, "seq", "--load", str(path), "--no-timestamp")
            assert (code, err) == (0, "") and json.loads(out)["result"]["system"] == dumped

    # a file over the cap is refused before it is parsed
    def refuse(*args, **kwargs):
        raise AssertionError("a file over the cap was parsed")

    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    path.write_bytes(b" " * (cap + 1))
    message = f"error: {path}: a window file is limited to {cap} bytes\n"
    assert run(capsys, "seq", "--load", str(path)) == (3, "", message)


def test_seq_loads_its_window_at_the_raised_seed_bound(capsys, tmp_path):
    # within SEED_BOUND, --bound 16 --seed-index 5618 fits up to K = 25, at
    # 2,085,840 bits more than the bound-3 and bound-9 windows above; seq
    # prints it, its dump loads back compact and indented, and K = 26 is refused
    argv = ("seq", "--bound", "16", "--seed-index", "5618", "--no-timestamp")
    code, out, err = run(capsys, *argv, "--window", "25")
    assert (code, err) == (0, "")
    dumped = json.loads(out)["result"]["system"]
    window = gr.TripleSystem.from_json(dumped).window
    assert sum(v.bit_length() + 64 for t in window for v in t.as_tuple()) == 2_085_840
    path = tmp_path / "window.json"
    for indent in (None, 4):
        path.write_text(json.dumps(dumped, indent=indent))
        assert path.stat().st_size <= gr.cli._LOAD_BYTES
        code, out, err = run(capsys, "seq", "--load", str(path), "--no-timestamp")
        assert (code, err) == (0, "") and json.loads(out)["result"]["system"] == dumped
    code, out, err = run(capsys, *argv, "--window", "26")
    assert (code, out) == (3, "") and "at term 26" in err


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


def _refused_in_every_block(capsys, command, bound):
    """One over the bound in a degree or in either block of a bi-degree exits 3."""
    top = bound + 1
    for degree, named in ((("--d", top), f"degree {top}"),
                          (("--d1", top, "--d2", 0), f"bi-degree ({top}, 0)"),
                          (("--d1", 0, "--d2", top), f"bi-degree (0, {top})")):
        code, out, err = run(capsys, command, *map(str, degree))
        assert (code, out, err) == (3, "", f"error: {named} exceeds bound {bound}\n")


def test_hilbert_bound_exceeded(capsys):
    _refused_in_every_block(capsys, "hilbert", gr.ringalg.HILBERT_BOUND)


def test_basis_bound_exceeded(capsys):
    _refused_in_every_block(capsys, "basis", gr.ringalg.BASIS_BOUND)


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
    # the largest degree, and the largest integer cutoff there, floor(d * gamma)
    top = gr.dimension.GROWTH_DEGREE_BOUND
    cutoff = (top + math.isqrt(5 * top * top)) // 2
    data = run_json(capsys, "dim", "--d", str(top), "--delta", str(cutoff))
    assert data["result"]["dim"] > 0
    code, _, _ = run(capsys, "dim", "--d", str(top + 1), "--delta", "1/2")
    assert code == 3
    code, _, _ = run(capsys, "dim", "--d", "3")
    assert code == 2


def test_dim_grid_csv(capsys):
    code, out, _ = run(capsys, "dim", "--grid", "--format", "csv", "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 36


def test_dim_text_and_csv_enclose_the_exact_ratio(capsys):
    # every printed endpoint is rounded outward from the exact Fraction that
    # the JSON form of the same call prints, by less than a unit of its place
    rows = run_json(capsys, "dim", "--grid")["result"]["rows"]
    exact = [(Fraction(r["ratio"]["lo"]), Fraction(r["ratio"]["hi"])) for r in rows]
    _, text, _ = run(capsys, "dim", "--grid", "--format", "text", "--no-timestamp")
    text_rows = re.findall(r"ratio=\[(\S+),(\S+)\]", text)
    band = re.search(r"ratio band: \[(\S+), (\S+)\]", text).groups()
    _, csv, _ = run(capsys, "dim", "--grid", "--format", "csv", "--no-timestamp")
    csv_rows = [line.split(",")[-2:] for line in csv.splitlines()[2:]]
    assert len(text_rows) == len(csv_rows) == len(exact) == 36
    checks = (
        [(printed, ex, 6) for printed, ex in zip(text_rows, exact)]
        + [(printed, ex, 16) for printed, ex in zip(csv_rows, exact)]
        + [(band, (min(lo for lo, _ in exact), max(hi for _, hi in exact)), 6)]
    )
    for printed, (ex_lo, ex_hi), places in checks:
        assert all(re.fullmatch(rf"[0-9]+\.[0-9]{{{places}}}", v) for v in printed)
        lo, hi = map(Fraction, printed)
        unit = Fraction(1, 10**places)
        assert lo <= ex_lo < lo + unit and hi - unit < ex_hi <= hi
    # a single call, whose exact ratio has no six-decimal expansion
    ratio = run_json(capsys, "dim", "--d", "4", "--delta", "3")["result"]["ratio"]
    _, out, _ = run(capsys, "dim", "--d", "4", "--delta", "3", "--format", "text", "--no-timestamp")
    lo, hi = map(Fraction, re.search(r"ratio: \[(\S+), (\S+)\]", out).groups())
    assert (lo, hi) == (Fraction("2.453738"), Fraction("2.453739"))
    assert lo <= Fraction(ratio["lo"]) <= Fraction(ratio["hi"]) <= hi


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


# SHA-256 of what these commands print under --no-timestamp.  A JSON report
# (no --format) is hashed as json.dumps(report, indent=2) + "\n", the layout
# these pins were taken in, so each pins every key, its order and every
# value.  The dim pins date from exact-Fraction interval arithmetic and hold
# because nothing on their path rounds: in test_dimension.py,
# test_grid_matches_the_old_chain_which_never_rounds and
# test_rational_cutoffs_match_the_old_chain_which_never_rounds check that the
# chain the pins were taken with never rounds on the grid and on every d <= 12
# with delta = k/q, q in {1, 4, 25, 100} (which holds every dim cutoff here),
# and that the scale the code forms now equals it there.  The csv and text
# pins hold the output format of every table and text report to the bytes.
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
    # ratio endpoints rounded outward, to 16 decimals in csv and 6 in text
    ("dim", "--grid", "--format", "csv"):
        "c776f29c3a4b68cb58eb446a22cb77556472c2efcb633ba9d392a456ef1027d5",
    ("dim", "--grid", "--format", "text"):
        "7a08933e95e5ddd82d162bb20ec31df40262f41ddf1e0d96510d73db2c091c1e",
    # the largest JSON envelope of the benchmark's grid
    ("enum", "--d", "30"): "c60f3aebc7c3ddb8b8c7beddadb9bd2222df224adca6c946933149b073fd20b8",
    ("enum", "--d", "30", "--format", "text"):
        "d3368dcb77dc6382b5ac42cbe45cba43bcecd3390e074fe4230fa6424ea2edd9",
    # the grid's largest oracle censuses, by degree and by bi-degree, and a
    # bi-degree enumeration whose two bounds differ
    ("chi", "--d", "10", "--oracle"):
        "98f6a92fefe906afea8b2cc7920126f08dfc4370d5bac306349ddde09309298d",
    ("chi", "--d1", "6", "--d2", "6", "--oracle"):
        "57df89b16850c9033b021c014c20bf34aeb799a57cafe5750020833fa50d7c39",
    ("chi", "--d1", "6", "--d2", "6", "--oracle", "--format", "csv"):
        "ea49b8c1ba4dac3f8c36091f70b64d0c7cf86cf4e500f13a56dd039c46d15532",
    ("chi", "--d1", "6", "--d2", "6", "--oracle", "--format", "text"):
        "569b7f491f939d7b454e0c8f27d92eea31bd2d53b5a845ee8213a163fc2fe145",
    ("enum", "--d1", "3", "--d2", "2"):
        "6e5fcc67a20067e6ca447b715402effbd2ccef87304e3b43ce7004a6be81b73c",
    ("enum", "--d1", "3", "--d2", "2", "--format", "csv"):
        "17af97820edb076431764dbf40cf12847b252d625080768c39cb8b2a0381eb1b",
    ("seq", "--verify", "--format", "text"):
        "c3814475462f3d14ccb9091d04d66c630d30b90fc3e53e8a2e499d63b6c124b7",
    # prints "dim: 102" and "ratio: [2.453738, 2.453739]"
    ("dim", "--d", "4", "--delta", "3", "--format", "text"):
        "4b43272839d666132abac01e7fde8525248eeb57867c2b747b104eac0e8b891e",
}


@pytest.mark.parametrize("argv", list(DIM_OUTPUT_SHA256))
def test_dim_json_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv, "--no-timestamp")
    assert code == 0
    if "--format" not in argv:
        assert out == json.dumps(json.loads(out)) + "\n"
        out = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == DIM_OUTPUT_SHA256[argv]


# one JSON call of each form, and one with its timestamp: every report is
# one json.dumps(envelope) line, its timestamp between config and result
JSON_CALLS = [
    ("chi", "--d", "4", "--oracle", "--no-timestamp"),
    ("chi", "--d1", "2", "--d2", "1", "--no-timestamp"),
    ("chi", "--d1", "4", "--d2", "5", "--oracle", "--no-timestamp"),
    ("enum", "--d1", "2", "--d2", "1", "--no-timestamp"),
    ("quads", "--alpha", "2", "1", "--no-timestamp"),
    ("quads", "--alpha", "3", "2", "--no-timestamp"),
    ("quads", "--bidegree", "3", "1", "--no-timestamp"),
    ("seq", "--window", "10", "--no-timestamp"),
    ("hilbert", "--d", "2", "--no-timestamp"),
    ("basis", "--d1", "1", "--d2", "1", "--no-timestamp"),
    ("dim", "--d", "4", "--delta", "3", "--no-timestamp"),
    ("dim", "--grid", "--no-timestamp"),
    ("chi", "--d", "4", "--oracle"),
]


@pytest.mark.parametrize(
    "argv", JSON_CALLS, ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_json_report_is_one_dumps_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out)) + "\n"
    report = json.loads(out)
    if "--no-timestamp" in argv:
        assert list(report) == ["command", "config", "result"]
    else:
        assert list(report) == ["command", "config", "timestamp", "result"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", report["timestamp"])


README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced(text: str, heading: str, lang: str) -> str:
    """The body of the first ```lang block after the heading."""
    start = text.index(f"```{lang}\n", text.index(heading)) + len(lang) + 4
    return text[start : text.index("```", start)]


def test_readme_examples_print_what_the_readme_shows(capsys):
    text = README.read_text()
    source = _fenced(text, "## Library example", "python")
    exec(compile(source, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print's comment is the line it prints, then at most a note in parentheses
    shown = [line.split("  # ", 1)[1] for line in source.splitlines() if line.startswith("print(")]
    assert [re.sub(r" \(.*\)$", "", s) for s in shown] == printed

    checked = []
    for example in _fenced(text, "## Command line", "sh").strip().split("\n\n"):
        command, *lines = example.splitlines()
        if "..." in lines[0]:  # an elided JSON report
            continue
        argv = command.removeprefix("$ goldenring ").split()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), command
        assert out == "\n".join(lines) + "\n", command
        checked.append(" ".join(argv))
    assert checked == [
        "chi --d 4 --oracle --no-timestamp --format csv",
        "chi --d1 2 --d2 2 --no-timestamp --format text",
        "hilbert --d 2 --no-timestamp --format text",
        "chi --d 2 --no-timestamp",
    ]


# Each of these would exit otherwise (3 for the bound, 2 with another message
# for the missing seed and the missing --delta) if the refusal came after the work.
@pytest.mark.parametrize(
    "argv",
    [("hilbert", "--d", str(gr.ringalg.HILBERT_BOUND + 1)), ("seq", "--seed-index", "99"),
     ("dim", "--d", "3")],
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


@pytest.mark.parametrize("command", ["hilbert", "basis"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_negative_matrix_entry_may_be_its_own_token(capsys, command, fmt):
    # the first seed's matrix, -3,1,-1,0, which argparse would read as an
    # option when it is a separate token
    m = gr.sequences.find_seeds(3)[0].M
    matrix = f"{m.a11},{m.a12},{m.a21},{m.a22}"
    assert matrix.startswith("-")
    common = (command, "--d", "2", "--format", fmt, "--no-timestamp")
    split = run(capsys, *common, "--matrix", matrix)
    assert split[0] == 0 and split[1]
    assert split == run(capsys, *common, f"--matrix={matrix}")


def test_seq_window_bound_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("seq searched seeds before refusing its window")

    # a length below 3 is refused before the seed search
    with monkeypatch.context() as patch:
        patch.setattr(gr.cli, "find_seeds", refuse)
        code, out, err = run(capsys, "seq", "--window", "2")
    assert (code, out, err) == (2, "", "error: window length must be at least 3\n")
    # a window over WINDOW_BITS is refused at the term that crosses it, after
    # the search: --bound 9 --seed-index 7 fits up to K = 24
    taken, real = [], gr.sequences._terms

    def counting(seed):
        taken.append(0)
        for term in real(seed):
            taken[-1] += 1
            yield term

    monkeypatch.setattr(gr.sequences, "_terms", counting)
    budget = gr.sequences.WINDOW_BITS
    code, out, err = run(capsys, "seq", "--bound", "9", "--seed-index", "7", "--window", "26")
    assert (code, out) == (3, "")
    assert err == f"error: window of 26 terms crosses WINDOW_BITS = {budget} at term 25\n"
    assert taken[-1] == 25  # no term past the crossing one was formed


def test_seq_seed_bound_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("seq searched seeds before refusing its bound")

    # find_seeds refuses its bound before it lists a triple
    monkeypatch.setattr(gr.sequences, "_symmetric_unimodular", refuse)
    bound = gr.sequences.SEED_BOUND
    code, out, err = run(capsys, "seq", "--bound", str(bound + 1))
    assert (code, out) == (3, "")
    assert err == f"error: seed bound {bound + 1} exceeds bound {bound}\n"
    # the bound itself is admitted: the search starts, and meets the patch
    with pytest.raises(AssertionError, match="searched seeds"):
        run(capsys, "seq", "--bound", str(bound))


def test_seq_seed_index_past_the_last_seed(capsys, monkeypatch):
    searched, real = [], gr.cli.find_seeds

    def recording(bound, count=None):
        searched.append((bound, count, len(seeds := real(bound, count))))
        return seeds

    monkeypatch.setattr(gr.cli, "find_seeds", recording)
    bound = gr.sequences.SEED_BOUND
    code, out, err = run(capsys, "seq", "--bound", str(bound), "--seed-index", "100000000")
    assert (code, out) == (2, "")
    assert err == f"error: only 7280 seeds exist at bound {bound}\n"
    # the whole search ran, and found every seed
    assert searched == [(bound, 100000001, 7280)]


def test_oracle_equals_the_profile_of_the_golden_census(capsys):
    degrees = [("--d", str(d)) for d in range(25)]
    degrees += [("--d1", str(d1), "--d2", str(d2)) for d1 in range(25) for d2 in range(25 - d1)]
    for degree in degrees:
        values = [int(v) for v in degree[1::2]]
        sizes = (gr.brute_force_sizes if len(values) == 1 else gr.brute_force_sizes_bi)(*values)
        result = run_json(capsys, "chi", *degree, "--oracle")["result"]
        assert result["oracle"] == gr.sizes_to_profile(sizes), degree
        assert result["match"] is True


@pytest.mark.parametrize("argv", [("enum", "--d", "30"),
                                  ("chi", "--d1", "6", "--d2", "6", "--oracle"),
                                  ("enum", "--d", "30", "--format", "text")])
def test_json_enum_and_oracle_build_no_golden_int(capsys, monkeypatch, argv):
    # the elements and the census stay (m, n) pairs on the way to JSON, and
    # the elements also on the way to text
    real, built = gr.GoldenInt.__init__, []

    def counted(self, m, n):
        built.append((m, n))
        real(self, m, n)

    monkeypatch.setattr(gr.GoldenInt, "__init__", counted)
    if "text" in argv:
        code, out, _ = run(capsys, *argv, "--no-timestamp")
        assert code == 0 and "match: True" in out.splitlines()[1]
    else:
        assert run_json(capsys, *argv)["result"]["match"] is True
    assert built == []
    # the patch counts: the GoldenInt functions behind the same work do build
    gr.elements_up_to_degree(1)
    assert built


def test_enum_degree_bound_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enum enumerated before refusing its bound")

    # the one enumeration, which enum reads as (m, n) pairs and
    # elements_up_to_degree and _bidegree wrap: its bound is refused before it
    monkeypatch.setattr(gr.quads, "_nonnegative", refuse)
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

    # size_class_profile and _bi refuse their bound before they count a size
    for name in ("_size_class_count", "_size_class_count_bi"):
        monkeypatch.setattr(gr.quads, name, refuse)
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

    # quads_for_value and quads_with_bidegree refuse their bounds before they
    # form a quad, and cmd_quads calls classify only after quads_for_value
    for name in ("canonical_quad", "Quad"):
        monkeypatch.setattr(gr.quads, name, refuse)
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
def test_negative_degree_refused_before_any_work(capsys, no_work, command, degree, message):
    code, out, err = run(capsys, command, *degree)
    assert (code, out) == (2, "")
    assert err == f"error: {message} must be nonnegative\n"


@pytest.mark.parametrize("alpha", [("1", "1"), ("0", "0")], ids=["plus", "zero"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_quads_count_below_one_refused(capsys, alpha, count):
    code, out, err = run(capsys, "quads", "--alpha", *alpha, "--count", count)
    assert (code, out) == (2, "")
    assert err == "error: count must be at least 1\n"


_DEGREE_REFUSALS = [
    ((), "exactly one of --d or --d1/--d2 is required", "neither"),
    (("--d", "3", "--d1", "1", "--d2", "1"), "exactly one of --d or --d1/--d2 is required", "both"),
    (("--d1", "3"), "--d1 and --d2 must be given together", "d1-alone"),
    (("--d2", "3"), "--d1 and --d2 must be given together", "d2-alone"),
    (("--d", "-1"), "degree must be nonnegative", "negative-d"),
    (("--d1", "2", "--d2", "-3"), "bi-degree must be nonnegative", "negative-d2"),
]
_ORACLE_DEGREE = gr.quads.BRUTE_FORCE_MAX_DEGREE
_CSV = "csv output is only available for table commands"
_DELTA_GRAMMAR = "--delta must be P or P/Q, with P and Q decimal integers"
# int option values at the digit cap and one digit past it
_AT_CAP, _PAST_CAP = "9" * gr.intervals._PIECE, "9" * (gr.intervals._PIECE + 1)
_CAPPED = f"integers are limited to {gr.intervals._PIECE} digits"

# (argv, exit code, stderr message); FILE stands for a readable JSON file
USAGE_REFUSALS = [
    pytest.param((command, *degree), 2, message, id=f"{command}-{name}")
    for command in ("chi", "enum", "hilbert", "basis")
    for degree, message, name in _DEGREE_REFUSALS
] + [
    pytest.param(argv, code, message, id=name) for argv, code, message, name in [
        (("quads",), 2, "exactly one of --alpha or --bidegree is required", "quads-neither"),
        (("quads", "--alpha", "1", "0", "--bidegree", "1", "1"), 2,
         "exactly one of --alpha or --bidegree is required", "quads-both"),
        (("quads", "--bidegree", "-1", "3"), 2, "bidegree must be nonzero and nonnegative",
         "quads-negative-bidegree"),
        (("quads", "--alpha", "-1", "0"), 2, "element must be nonnegative",
         "quads-negative-alpha"),
        (("quads", "--alpha", "3", "2", "--count", "0"), 2, "count must be at least 1",
         "quads-zero-count"),
        # the sign of alpha is usage, checked before the count bound
        (("quads", "--alpha", "-1", "0", "--count", str(gr.quads.QUADS_COUNT_BOUND + 1)), 2,
         "element must be nonnegative", "quads-negative-alpha-over-count-bound"),
        (("hilbert", "--d", "2", "--matrix", "-3,1"), 2,
         "matrix must be four comma-separated integers", "hilbert-short-negative-matrix"),
        (("hilbert", "--d", "1", "--matrix", "1" * 601 + ",1,-1,0"), 2,
         "matrix entries are limited to 600 digits", "hilbert-matrix-digits"),
    ] + [
        # int() would take each of these spellings; the matrix grammar does not
        (("hilbert", "--d", "1", f"--matrix={matrix}"), 2,
         "matrix must be four comma-separated integers", f"hilbert-matrix-{name}")
        for matrix, name in [("+3,1,-1,0", "plus"), ("1_0,1,-1,0", "underscore"),
                             (" 3,1,-1,0", "leading-space"), ("3,1,-1,0 ", "trailing-space"),
                             ("\u0663,1,-1,0", "arabic-indic-digit")]
    ] + [
        (("seq", "--format", "csv"), 2, _CSV, "seq-csv"),
        (("hilbert", "--d", "2", "--format", "csv"), 2, _CSV, "hilbert-csv"),
        (("basis", "--d", "1", "--format", "csv"), 2, _CSV, "basis-csv"),
        (("dim", "--d", "2", "--delta", "1/2", "--format", "csv"), 2, _CSV, "dim-csv"),
        # csv is checked before the degree of a command without a table
        (("hilbert", "--format", "csv"), 2, _CSV, "hilbert-csv-before-degree"),
        (("basis", "--d1", "1", "--format", "csv"), 2, _CSV, "basis-csv-before-pairing"),
        (("dim",), 2, "dim needs either --grid or both --d and --delta", "dim-nothing"),
        (("dim", "--grid", "--d", "3"), 2, "dim needs either --grid or both --d and --delta",
         "dim-grid-and-d"),
        (("dim", "--d", "3", "--delta", "0.5"), 2, _DELTA_GRAMMAR, "dim-delta-grammar"),
        (("dim", "--d", "3", "--delta", "1" * 601), 2, "--delta parts are limited to 600 digits",
         "dim-delta-digits"),
        (("dim", "--d", "3", "--delta", "1/0"), 2, "--delta has a zero denominator",
         "dim-delta-zero-den"),
        (("seq", "--load", "FILE", "--window", "22"), 2,
         "--bound, --seed-index and --window do not apply with --load", "seq-load-and-window"),
        (("seq", "--seed-index", "-1"), 2, "--seed-index must be nonnegative",
         "seq-negative-seed-index"),
        (("seq", "--bound", "0"), 2, "--bound must be at least 1", "seq-zero-bound"),
        (("chi", "--d", str(_ORACLE_DEGREE + 1), "--oracle"), 3,
         f"brute force census limited to degree {_ORACLE_DEGREE}", "chi-oracle-degree"),
        (("chi", "--d1", "1", "--d2", str(_ORACLE_DEGREE), "--oracle"), 3,
         f"brute force census limited to d1 + d2 <= {_ORACLE_DEGREE}", "chi-oracle-bidegree"),
        # an int value at the digit cap reaches the library's bound
        (("chi", "--d", _AT_CAP), 3, f"d = {_AT_CAP} exceeds bound {gr.quads.CHI_DEGREE_BOUND}",
         "chi-d-at-digit-cap"),
        (("quads", "--alpha", "1", "0", "--count", _AT_CAP), 3,
         f"count {_AT_CAP} exceeds bound {gr.quads.QUADS_COUNT_BOUND}", "quads-count-at-digit-cap"),
        (("seq", "--bound", _AT_CAP), 3,
         f"seed bound {_AT_CAP} exceeds bound {gr.sequences.SEED_BOUND}", "seq-bound-at-digit-cap"),
    ]
] + [
    # one digit past the cap, every int and pair option is argparse's parse error
    pytest.param(argv, 2, f"argument {option}: {_CAPPED}", id=f"{name}-past-digit-cap")
    for argv, option, name in [
        (("chi", "--d", _PAST_CAP), "--d", "chi-d"),
        (("chi", f"--d={_PAST_CAP}"), "--d", "chi-d-equals"),
        (("enum", "--d1", "1", "--d2", _PAST_CAP), "--d2", "enum-d2"),
        (("hilbert", "--d1", "-" + _PAST_CAP, "--d2", "1"), "--d1", "hilbert-negative-d1"),
        (("basis", "--d", _PAST_CAP), "--d", "basis-d"),
        (("quads", "--alpha", _PAST_CAP, "1"), "--alpha", "quads-alpha-m"),
        (("quads", "--alpha", "1", "-" + _PAST_CAP), "--alpha", "quads-alpha-negative-n"),
        (("quads", "--alpha", "1", "0", "--count", _PAST_CAP), "--count", "quads-count"),
        (("quads", "--bidegree", "1", _PAST_CAP), "--bidegree", "quads-bidegree"),
        (("seq", "--bound", _PAST_CAP), "--bound", "seq-bound"),
        (("seq", "--seed-index", _PAST_CAP), "--seed-index", "seq-seed-index"),
        (("seq", "--window", _PAST_CAP), "--window", "seq-window"),
        (("dim", "--d", _PAST_CAP, "--delta", "1"), "--d", "dim-d"),
    ]
]

# the package functions through which cli does work.  A function that
# checks its own arguments and bounds is not patched itself: the work behind
# its checks is, in its own module (`_LIBRARY_WORK`).  For enum and chi
# --oracle that is the one enumeration and the one census, `_nonnegative` and
# `_census`, which the CLI reads as (m, n) pairs and the GoldenInt functions
# wrap; for hilbert and basis it is building a ring, with no ring held.
_CLI_WORK = (
    "growth_dimension", "scaling_report", "sizes_to_profile", "hilbert_bi_closed",
    "hilbert_total_closed", "generate_system", "verify_system",
)
_LIBRARY_WORK = [
    (gr.quads, ("_size_class_count", "_size_class_count_bi", "_nonnegative", "canonical_quad",
                "Quad", "_census")),
    (gr.sequences, ("_symmetric_unimodular",)),
    (gr.ringalg, ("_Ring",)),
]


@pytest.fixture
def no_work(monkeypatch):
    """Every call through which cli does work raises AssertionError."""
    def refuse(*args, **kwargs):
        raise AssertionError("cli did work before refusing its arguments")

    for name in _CLI_WORK:
        monkeypatch.setattr(gr.cli, name, refuse)
    for module, names in _LIBRARY_WORK:
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(gr.ringalg, "_RING", None)
    monkeypatch.setattr(gr.sequences.TripleSystem, "from_json", refuse)


def _argparse_error(argv) -> str:
    """What argparse writes to stderr as it refuses argv."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    return err.getvalue()


@pytest.mark.parametrize("argv, code, message", USAGE_REFUSALS)
def test_every_refusal_comes_before_any_work(capsys, no_work, tmp_path, argv, code, message):
    readable = tmp_path / "system.json"
    readable.write_text("{}")
    argv = [str(readable) if a == "FILE" else a for a in argv]
    expected = f"error: {message}\n"
    if message.startswith("argument "):  # a parse error: argparse's usage line, then this
        expected = _argparse_error(argv)
        assert expected.startswith("usage: goldenring")
        assert expected.endswith(f"goldenring {argv[0]}: error: {message}\n")
    assert run(capsys, *argv) == (code, "", expected)


def test_matrix_entry_at_the_digit_limit(capsys, monkeypatch):
    # a 600-digit entry converts under the least int-digit limit and
    # reaches the work whole
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int-digit limit")
    seen, real = [], gr.cli.hilbert_total
    monkeypatch.setattr(gr.cli, "hilbert_total", lambda d, M: seen.append(M) or real(d, M))
    entry = "-" + "1" * 600
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        data = run_json(capsys, "hilbert", "--d", "2", "--matrix", f"{entry},1,-1,0")
    finally:
        sys.set_int_max_str_digits(old)
    assert data["config"]["matrix"] == f"{entry},1,-1,0" and data["result"]["match"]
    assert seen == [gr.TransitionMatrix(int(entry), 1, -1, 0)]


def test_seq_load_checks_a_short_window_after_loading(capsys, tmp_path):
    # the shortest window check_window admits is dumped with its enclosures,
    # and loads, verifies and echoes them; its one triple determinant is too
    # few to call constant, so the verdict is exit 1, generated or loaded
    system = run_json(capsys, "seq", "--window", "3")["result"]["system"]
    assert list(system) == ["seed", "window", "xi", "theta"]
    code, out, err = run(capsys, "seq", "--window", "3", "--verify", "--no-timestamp")
    assert (code, err) == (1, "") and json.loads(out)["result"]["system"] == system
    path = tmp_path / "short.json"
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, "seq", "--load", str(path), "--verify",
                         "--format", "json", "--no-timestamp")
    data = json.loads(out)
    assert (code, err) == (1, "")
    assert data["result"]["K"] == 3 and data["result"]["system"] == system
    assert data["result"]["verification"]["xi"] == system["xi"]
    assert data["result"]["verification"]["e4_abs_constant"] is False


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-digit limit")
@pytest.mark.parametrize(
    "argv",
    [("seq", "--window", "26", "--verify"), ("seq", "--load", "FILE", "--verify"),
     ("dim", "--grid"), ("hilbert", "--d", "1", "--matrix", "1" * 600 + ",1,-1,0")],
    ids=["seq-window-26", "seq-load", "dim-grid", "hilbert-600-digit-matrix"],
)
def test_report_does_not_depend_on_the_int_digit_limit(capsys, tmp_path, argv):
    # a fresh interpreter started under the least limit CPython accepts
    # prints the same bytes as main does here under the default; FILE is
    # the default window's dump
    path = tmp_path / "window.json"
    path.write_text(json.dumps(run_json(capsys, "seq")["result"]["system"]))
    argv = [str(path) if a == "FILE" else a for a in argv] + ["--no-timestamp"]
    expected = run(capsys, *argv)
    assert expected[0] == 0
    cmd, env = _module_command(*argv)
    env["PYTHONINTMAXSTRDIGITS"] = str(sys.int_info.str_digits_check_threshold)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-digit limit")
@pytest.mark.parametrize("digits", [600, 601, 5000])
@pytest.mark.parametrize(
    "argv", [("chi", "--d", "N"), ("quads", "--alpha", "N", "1", "--count", "2"),
             ("seq", "--window", "N")],
    ids=["chi-d", "quads-alpha", "seq-window"],
)
def test_int_options_do_not_depend_on_the_int_digit_limit(argv, digits):
    # an int value of N nines gives the same exit, stdout and stderr in a
    # fresh interpreter with no int-digit limit and with the least one
    # CPython accepts: at 600 digits the work or its bound, past the cap
    # argparse's parse error
    argv = [a.replace("N", "9" * digits) for a in argv] + ["--no-timestamp"]
    cmd, env = _module_command(*argv)
    runs = [subprocess.run([cmd[0], "-X", f"int_max_str_digits={limit}", *cmd[1:]], env=env,
                           capture_output=True, text=True, timeout=60) for limit in (0, 640)]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
        (runs[0].returncode, runs[0].stdout, runs[0].stderr)]
    code, out, err = runs[0].returncode, runs[0].stdout, runs[0].stderr
    if digits > 600:
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {argv[1]}: integers are limited to 600 digits\n")
    else:
        assert (code, bool(out)) == ((0, True) if argv[0] == "quads" else (3, False))


def _conjugated_seed(seed, N):
    """The seed moved by P = [[1, N], [0, 1]]: x -> P x P^T and
    M -> P^-T M P^-1, again a seed, whose terms are its terms moved by P."""
    def moved(t):
        a, b, c = t.as_tuple()
        return gr.SymTriple(a + 2 * N * b + N * N * c, b + N * c, c)

    M = seed.M
    return gr.Seed(moved(seed.x1), moved(seed.x2), gr.TransitionMatrix(
        M.a11, M.a12 - N * M.a11, M.a21 - N * M.a11, M.a22 - N * (M.a12 + M.a21) + N * N * M.a11))


def _json_text(obj) -> str:
    """`json.dumps(obj)` with each int written by `decimal_text`, at any size."""
    if type(obj) is int:
        return gr.intervals.decimal_text(obj)
    if isinstance(obj, list):
        return "[" + ", ".join(map(_json_text, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items()) + "}"
    return json.dumps(obj)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-digit limit")
@pytest.mark.parametrize("N, digits", [(10**2200, 4401), (10**300, 601), (3 * 10**299, 600)],
                         ids=["4401-digits", "601-digits", "600-digits"])
def test_load_does_not_depend_on_the_int_digit_limit(tmp_path, N, digits):
    # a valid seed whose largest integer has `digits` digits, with its K = 6
    # window: the same exit, stdout and stderr with no int-digit limit, the
    # least one CPython accepts and the default.  Past 600 digits the load
    # refuses the file's integers; at 600 it reads the seed and the window,
    # and the enclosure is not certified at K = 6.
    seed = _conjugated_seed(gr.find_seeds(3, 1)[0], N)
    entries = seed.x1.as_tuple() + seed.x2.as_tuple() + seed.M.entries()
    assert max(len(gr.intervals.decimal_text(abs(v))) for v in entries) == digits
    window = gr.generate_system(seed, K=6).window_text
    path = tmp_path / "seed.json"
    path.write_text(_json_text({"seed": seed.to_json(), "window": [list(t) for t in window]}))
    cmd, env = _module_command("seq", "--load", str(path), "--verify", "--no-timestamp")
    runs = [subprocess.run([cmd[0], "-X", f"int_max_str_digits={limit}", *cmd[1:]], env=env,
                           capture_output=True, text=True, timeout=60)
            for limit in (0, 640, sys.int_info.default_max_str_digits)]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == 2 * [
        (runs[0].returncode, runs[0].stdout, runs[0].stderr)]
    if digits > 600:
        assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == (
            2, "", f"error: {path}: JSON integers are limited to 600 digits\n")
    else:
        assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == (
            1, "", "error: enclosure not certified; increase K\n")


def _exits_quietly_when_stdout_closes(head, *argv):
    """Run the CLI module, close its stdout once it has printed `head`, and
    check that it exits 141 with nothing on stderr."""
    cmd, env = _module_command(*argv)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_closed_stdout_exits_quietly_with_sigpipe_status():
    # one 837 kB JSON line: more than a pipe buffer, so the write is still
    # pending when the reader closes the pipe after its first byte
    _exits_quietly_when_stdout_closes(b"{", "enum", "--d", "200", "--no-timestamp")


def test_closed_stdout_in_csv_exits_quietly_with_sigpipe_status():
    # csv is printed in one write: 274 kB, more than a pipe buffer, so that
    # write is still pending when the reader closes the pipe after its first line
    _exits_quietly_when_stdout_closes(
        b"# d=200\n", "enum", "--d", "200", "--format", "csv", "--no-timestamp")
