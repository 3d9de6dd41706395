"""Batch command-line front end with machine-readable reports.

Every subcommand echoes its effective configuration, emits JSON by
default (one `json.dumps(envelope)` line per report; CSV for tables,
plain text on request) and uses exit codes 0 success, 1 identity
mismatch or failed verification, 2 usage error, 3 resource bound
exceeded, 141 (128 + SIGPIPE) standard output closed by its reader.
Output is byte-identical across runs of the same configuration once
--no-timestamp is passed.

Every subcommand and its options are one row of `_COMMANDS`, which two
parsers read.  `_parse_exact` takes an argv spelled exactly (each option
named in full and at most once, each value where the option expects it)
and builds its namespace without argparse.  Anything else, that is help,
an abbreviated or repeated option, `--flag=value` and every parse error,
goes to argparse (`build_parser`), which is built only then and gives
the same namespace, or the message and exit 2, for every argv.  An int
value of more than `_PIECE` digits is a parse error under any int-digit
limit, and so is a JSON integer of more than `_PIECE` digits in a `seq
--load` file.

`main` checks only what every subcommand shares (`--format csv` needs a
table), then hands over to the subcommand's `cmd_*`, which checks only the
CLI's own rules: which options go together, the `--matrix` and `--delta`
grammars, the `--load` byte and digit caps, `--bound` and `--seed-index`.
The library function that does the work checks its arguments (ValueError,
exit 2), then its resource bound (BoundExceeded, exit 3), before any work.
The one bound checked during the work is the size of a `seq` window
(`sequences.WINDOW_BITS`).
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from itertools import chain, starmap
from types import SimpleNamespace

from .dimension import growth_dimension, scaling_report
from .errors import BoundExceeded, VerificationError
from .golden import GoldenInt, _coordinates_json, _coordinates_text
from .intervals import _PIECE, RationalInterval
from .quads import (
    _census_sizes,
    _element_pairs,
    classify,
    quads_for_value,
    quads_with_bidegree,
    size_class_profile,
    size_class_profile_bi,
    sizes_to_profile,
)
from .ringalg import (
    check_basis_rank,
    hilbert_bi,
    hilbert_bi_closed,
    hilbert_total,
    hilbert_total_closed,
)
from .sequences import (
    _MOST_CHARS,
    _MOST_ROWS,
    DEFAULT_WINDOW,
    TransitionMatrix,
    TripleSystem,
    check_window,
    find_seeds,
    generate_system,
    verify_system,
)

__all__ = ["main"]

# a small transition matrix known to admit growing seeds
DEFAULT_MATRIX = "3,1,-1,0"

# dim --delta: an integer P or a fraction P/Q, each part of at most `_PIECE`
# digits, so it converts in one int() or str() under any int-digit limit.
_DELTA = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")

# the options whose value may start with "-", each with the grammar of a
# value that `main` attaches to it (see `_attach_values`)
_GRAMMARS = {"--delta": _DELTA, "--matrix": re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")}

# what seq generates when it loads nothing; --load refuses these options
_SEQ_DEFAULTS = {"bound": 3, "seed_index": 0, "window": DEFAULT_WINDOW}

# Largest file `seq --load` reads, in bytes: the most window characters and
# terms that `TripleSystem.from_json` admits before it converts an entry,
# each term with the 14 bytes of `["", "", ""], ` that json.dumps writes
# around its entries, and 64 KiB for the seed, the two enclosures and
# whitespace.  The dumps of bound 3 at K = 26 and of `--bound 9
# --seed-index 7` at K = 24 take 601,051 and 616,017 bytes, and 602,771 and
# 617,629 bytes written with indent=4.  Within SEED_BOUND, `--bound 16
# --seed-index 5618` at K = 25 (2,085,840 bits) takes 628,253 and 629,919.
_LOAD_BYTES = _MOST_CHARS + 14 * _MOST_ROWS + 2**16


def _too_long(text: str) -> bool:
    """Whether the text of an int option has more than `_PIECE` digits."""
    return len(text.strip().lstrip("+-")) > _PIECE


def _load_int(path: str, text: str) -> int:
    """A JSON integer of a `seq --load` file, refused past `_PIECE` digits
    before it is converted, so no int-digit limit decides the load."""
    if _too_long(text):
        raise ValueError(f"{path}: JSON integers are limited to {_PIECE} digits")
    return int(text)


def _parse_matrix(text: str) -> TransitionMatrix:
    if not _GRAMMARS["--matrix"].fullmatch(text) or text.count(",") != 3:
        raise ValueError("matrix must be four comma-separated integers")
    parts = text.split(",")
    if max(len(p.lstrip("-")) for p in parts) > _PIECE:
        raise ValueError(f"matrix entries are limited to {_PIECE} digits")
    return TransitionMatrix(*(int(p) for p in parts))


def _emit(args, config: dict, result: dict, text, table=None) -> None:
    """Print one report in the chosen format.

    `text` returns the lines of the text form and `table` the rows of the
    csv form, header first; each runs only for its own format.
    """
    pairs = " ".join(f"{k}={v}" for k, v in config.items())
    if args.format == "csv":
        print("\n".join([f"# {pairs}"] + [",".join(map(str, row)) for row in table()]))
    elif args.format == "text":
        print("\n".join([f"config: {pairs}", *text()]))
    else:
        envelope = {"command": args.command, "config": config}
        if not args.no_timestamp:
            envelope["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        envelope["result"] = result
        # every envelope is a fresh tree, so there is no cycle to look for
        print(json.dumps(envelope, check_circular=False))


def _degree(args) -> dict:
    """The degree part of a config, {"d"} or {"d1", "d2"}: ValueError unless
    exactly one of --d and the pair --d1 --d2 is given."""
    has_bi = args.d1 is not None or args.d2 is not None
    if (args.d is not None) == has_bi:
        raise ValueError("exactly one of --d or --d1/--d2 is required")
    if has_bi and (args.d1 is None or args.d2 is None):
        raise ValueError("--d1 and --d2 must be given together")
    return {"d1": args.d1, "d2": args.d2} if has_bi else {"d": args.d}


# ---------------------------------------------------------------------------
# subcommands


def cmd_chi(args) -> int:
    degree = _degree(args)
    # the oracle first: it refuses a degree above its own bound before any work
    sizes = _census_sizes(*degree.values()) if args.oracle else None
    d, d1, d2 = args.d, args.d1, args.d2
    closed = size_class_profile(d) if d1 is None else size_class_profile_bi(d1, d2)
    oracle = None if sizes is None else sizes_to_profile(sizes)
    match = oracle is None or closed == oracle
    profiles = [closed] if oracle is None else [closed, oracle]

    def text():
        lines = [f"profile: {closed}"]
        if oracle is not None:
            lines += [f"oracle:  {oracle}", f"match: {match}"]
        return lines

    def table():
        header = ["s", "closed", "oracle"][: 1 + len(profiles)]
        return [header, *zip(range(len(closed)), *profiles)]

    result = {"closed": closed, "oracle": oracle, "match": match}
    _emit(args, {**degree, "oracle": args.oracle}, result, text, table)
    return 0 if match else 1


def cmd_enum(args) -> int:
    degree = _degree(args)
    pairs = _element_pairs(*degree.values())
    d, d1, d2 = args.d, args.d1, args.d2
    expected = d * d + d + 1 if d1 is None else 2 * d1 * d2 + d1 + d2 + 1
    # one list, of JSON rows or of (m, n) pairs, filled as the pairs stream by
    rows = list(starmap(_coordinates_json, pairs) if args.format == "json" else pairs)
    match = len(rows) == expected
    result = {"count": len(rows), "expected": expected, "match": match, "elements": rows}
    _emit(
        args,
        degree,
        result,
        lambda: chain([f"count: {len(rows)} expected: {expected} match: {match}"],
                      starmap(_coordinates_text, rows)),
        lambda: chain([("m", "n")], rows),
    )
    return 0 if match else 1


def _quad_json(q) -> dict:
    # Quad.to_json's keys, then size, degree and bidegree, all from one read
    # of the weights; degree = d1 + d2, since f(i) = f(i-1) + f(i-2) term by term
    i, a, b, c = q.i, q.a, q.b, q.c
    d1, d2 = q.weights()
    return {"i": i, "a": a, "b": b, "c": c, "size": a + b + c, "degree": d1 + d2,
            "bidegree": [d1, d2]}


def cmd_quads(args) -> int:
    if (args.alpha is None) == (args.bidegree is None):
        raise ValueError("exactly one of --alpha or --bidegree is required")
    if args.alpha is not None:
        m, n = args.alpha
        config = {"alpha": f"{m},{n}", "count": args.count}
        alpha = GoldenInt(m, n)
        quads = quads_for_value(alpha, args.count)  # refuses before classify works
        kind = classify(alpha).kind
        ok = all(alpha == q.value() for q in quads)
        result = {
            "alpha": alpha.to_json(),
            "class": kind,
            "quads": [_quad_json(q) for q in quads],
        }
    else:
        d1, d2 = args.bidegree
        config = {"bidegree": f"{d1},{d2}"}
        quads = quads_with_bidegree(d1, d2)
        first, last = quads[0].value(), quads[-1].value()
        ok = (
            first == GoldenInt(d1, d2)
            and last == abs(GoldenInt(d1, -d2))
            and all(
                quads[t].size - 1 == quads[t + 1].size for t in range(len(quads) - 1)
            )
        )
        result = {
            "quads": [_quad_json(q) for q in quads],
            "first_value": first.to_json(),
            "last_value": last.to_json(),
        }
    _emit(
        args,
        config,
        {**result, "match": ok},
        lambda: [f"({q.i}; {q.a},{q.b},{q.c}) size {q.size}" for q in quads],
        lambda: [["i", "a", "b", "c", "size"]] + [[q.i, q.a, q.b, q.c, q.size] for q in quads],
    )
    return 0 if ok else 1


def cmd_seq(args) -> int:
    config = {"verify": args.verify, "load": args.load}
    if args.load is not None:
        if any(getattr(args, k) is not None for k in _SEQ_DEFAULTS):
            raise ValueError("--bound, --seed-index and --window do not apply with --load")
        with open(args.load, "rb") as fh:
            data = fh.read(_LOAD_BYTES + 1)  # no more of a longer file
        if len(data) > _LOAD_BYTES:
            raise BoundExceeded(f"{args.load}: a window file is limited to {_LOAD_BYTES} bytes")
        try:
            doc = json.loads(data.decode("utf-8"),
                             parse_int=functools.partial(_load_int, args.load))
        except RecursionError:
            raise ValueError(f"{args.load}: JSON nested too deeply") from None
        system = TripleSystem.from_json(doc)
    else:
        config = {k: d if getattr(args, k) is None else getattr(args, k)
                  for k, d in _SEQ_DEFAULTS.items()} | config
        bound, index, window = config["bound"], config["seed_index"], config["window"]
        if index < 0:
            raise ValueError("--seed-index must be nonnegative")
        if bound < 1:
            raise ValueError("--bound must be at least 1")
        check_window(window)  # before the seed search
        seeds = find_seeds(bound, index + 1)
        if len(seeds) <= index:
            raise ValueError(f"only {len(seeds)} seeds exist at bound {bound}")
        system = generate_system(seeds[index], K=window)
    report = verify_system(system) if args.verify else None
    result = {"K": system.K, "system": system.to_json()}
    ok = True
    if args.verify:
        result["verification"] = report.summary()
        ok = report.e4_abs_constant and report.theta_excludes_zero

    def text():
        lines = [f"K={system.K} seed={system.seed.to_json()}"]
        if args.verify:
            lines.append(f"verification: {result['verification']}")
        return lines

    _emit(args, config, result, text)
    return 0 if ok else 1


def cmd_hilbert(args) -> int:
    degree = _degree(args)
    matrix = _parse_matrix(args.matrix)
    if args.d1 is not None:
        computed = hilbert_bi(args.d1, args.d2, matrix)
        expected = hilbert_bi_closed(args.d1, args.d2)
    else:
        computed = hilbert_total(args.d, matrix)
        expected = hilbert_total_closed(args.d)
    match = computed == expected
    result = {
        "kind": "bi" if args.d1 is not None else "total",
        "degree": args.d if args.d1 is None else [args.d1, args.d2],
        "computed": computed,
        "expected": expected,
        "match": match,
    }
    _emit(
        args,
        {**degree, "matrix": args.matrix},
        result,
        lambda: [f"computed {computed} expected {expected} match {match}"],
    )
    return 0 if match else 1


def cmd_basis(args) -> int:
    degree = _degree(args)
    matrix = _parse_matrix(args.matrix)
    bound = args.d if args.d1 is None else (args.d1, args.d2)
    report = check_basis_rank(bound, matrix)
    result = report.summary()
    if report.dependency is not None:
        result["dependency"] = [
            {"alpha_m": key[0], "alpha_n": key[1], "j": key[2], "coeff": str(c)}
            for key, c in report.dependency
        ]
    _emit(
        args,
        {**degree, "matrix": args.matrix},
        result,
        lambda: [f"{k}: {v}" for k, v in result.items()],
    )
    return 0 if report.spans else 1


def cmd_dim(args) -> int:
    pair = (args.d, args.delta)
    if (pair != (None, None)) if args.grid else (None in pair):
        raise ValueError("dim needs either --grid or both --d and --delta")
    if args.grid:
        report = scaling_report()
        result = {
            "rows": [
                {
                    "d": r.d,
                    "fraction": str(r.fraction),
                    "delta": str(r.delta),
                    "dim": r.dim,
                    "ratio": r.ratio.to_json(),
                    "ratio_upper": r.ratio_upper.to_json(),
                }
                for r in report.rows
            ],
            "ratio_band": [str(report.ratio_low), str(report.ratio_high)],
            "upper_band": [str(report.upper_low), str(report.upper_high)],
        }
        _emit(
            args,
            {"grid": True},
            result,
            lambda: [
                f"d={r.d} delta={r.delta} dim={r.dim} ratio=[{','.join(r.ratio.decimals(6))}]"
                for r in report.rows
            ]
            + [
                "ratio band: [{}, {}]".format(
                    *RationalInterval(report.ratio_low, report.ratio_high).decimals(6)
                )
            ],
            lambda: [["d", "fraction", "dim", "ratio_lo", "ratio_hi"]]
            + [[r.d, r.fraction, r.dim, *r.ratio.decimals(16)] for r in report.rows],
        )
        return 0
    match = _DELTA.fullmatch(args.delta)
    if match is None:
        raise ValueError("--delta must be P or P/Q, with P and Q decimal integers")
    if max(len(part) for part in match.groups("")) > _PIECE:
        raise ValueError(f"--delta parts are limited to {_PIECE} digits")
    if match[2] is not None and int(match[2]) == 0:
        raise ValueError("--delta has a zero denominator")
    rep = growth_dimension(args.d, Fraction(args.delta))
    result = {
        "d": rep.d,
        "delta": str(rep.delta),
        "dim": rep.dim,
        "contributing": [
            {"quad": _quad_json(q), "weight": w} for q, w in rep.contributing
        ],
        "scale": rep.scale.to_json(),
        "ratio": rep.ratio.to_json(),
        "ratio_upper": rep.ratio_upper.to_json(),
    }
    _emit(
        args,
        {"d": args.d, "delta": args.delta},
        result,
        lambda: [
            f"dim: {rep.dim}",
            "ratio: [{}, {}]".format(*rep.ratio.decimals(6)),
        ],
    )
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _opt(name: str, kind: str, default=None, metavar=None) -> tuple:
    """One option of a subcommand, (name, kind, default, metavar).

    `kind` is the value it takes: "flag" none (store_true), "int" or "str"
    one token, "pair" two ints, "choice" one of `_FORMATS`.  Plain tuples,
    not a class: the table is built on every import, cold calls included.
    """
    return name, kind, default, metavar


_FORMATS = ("json", "csv", "text")
# the options every subcommand takes, ahead of its own
_SHARED = (_opt("--format", "choice", "json"), _opt("--no-timestamp", "flag", False))
_DEGREE = (_opt("--d", "int"), _opt("--d1", "int"), _opt("--d2", "int"))
_MATRIX = _opt("--matrix", "str", DEFAULT_MATRIX)

# Every subcommand, once, as (help, options, func, has_table), where
# has_table(args) says whether this invocation has a csv form.
# `build_parser` and `_parse_exact` both read this, so a new option is one
# row here.
_COMMANDS = {
    "chi": ("size-class profiles", (*_DEGREE, _opt("--oracle", "flag", False)),
            cmd_chi, lambda args: True),
    "enum": ("enumerate ring elements", _DEGREE, cmd_enum, lambda args: True),
    "quads": ("quad representations", (
        _opt("--alpha", "pair", metavar=("M", "N")),
        _opt("--bidegree", "pair", metavar=("D1", "D2")),
        _opt("--count", "int", 6),
    ), cmd_quads, lambda args: True),
    "seq": ("triple sequence windows", (
        _opt("--bound", "int"),
        _opt("--seed-index", "int"),
        _opt("--window", "int"),
        _opt("--verify", "flag", False),
        _opt("--load", "str", metavar="FILE"),
    ), cmd_seq, lambda args: False),
    "hilbert": ("graded quotient dimensions", (*_DEGREE, _MATRIX), cmd_hilbert,
                lambda args: False),
    "basis": ("monomial family rank check", (*_DEGREE, _MATRIX), cmd_basis,
              lambda args: False),
    "dim": ("value-bounded dimensions", (
        _opt("--d", "int"),
        _opt("--delta", "str", metavar="P/Q"),
        _opt("--grid", "flag", False),
    ), cmd_dim, lambda args: args.grid),
}


@functools.cache
def build_parser():
    """The argparse tree of `_COMMANDS`, built on first use.

    `main` parses with it only what `_parse_exact` declines: help, an
    abbreviated, repeated or `--flag=value` option, and every argv that
    is a usage error, whose message and exit status 2 come from here.  An
    exactly spelled call never builds it, nor imports argparse.  Parsing
    does not change it and each parse returns a fresh namespace, so every
    such call shares it.
    """
    import argparse

    def integer(text):
        if _too_long(text):
            raise argparse.ArgumentTypeError(f"integers are limited to {_PIECE} digits")
        return int(text)

    integer.__name__ = "int"  # as argparse names it in "invalid int value: ..."
    parser = argparse.ArgumentParser(
        prog="goldenring",
        description="Exact golden-ratio ring combinatorics and sequence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options, func, has_table) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, kind, default, metavar in (*_SHARED, *options):
            if kind == "flag":
                p.add_argument(name, action="store_true")
                continue
            p.add_argument(
                name,
                type={"int": integer, "pair": integer, "str": str}.get(kind),
                nargs=2 if kind == "pair" else None,
                choices=_FORMATS if kind == "choice" else None,
                default=default,
                metavar=metavar,
            )
        p.set_defaults(func=func, has_table=has_table)
    return parser


def _exact_entry(command: str, options: tuple, func, has_table) -> tuple[dict, dict]:
    """(name -> (dest, kind), namespace fields in argparse's order with their
    defaults) of one subcommand, for `_parse_exact`."""
    lookup, fields = {}, {"command": command}
    for name, kind, default, _ in (*_SHARED, *options):
        dest = name[2:].replace("-", "_")  # the field argparse names
        lookup[name] = dest, kind
        fields[dest] = default
    return lookup, fields | {"func": func, "has_table": has_table}


_EXACT = {command: _exact_entry(command, *row[1:]) for command, row in _COMMANDS.items()}

# the one spelling of a separate value token starting with "-" that this
# takes: argparse reads it as a value, not an option, because no option here
# looks like a negative number.  Argparse's own negative-number test also
# matches non-ASCII digits and decimals; those are left to argparse.
_NEGATIVE = re.compile(r"-[0-9]+")


def _parse_exact(argv: list) -> SimpleNamespace | None:
    """The fields of the namespace `build_parser().parse_args(argv)` returns,
    as a SimpleNamespace, for an argv spelled exactly; None for any other
    argv, which argparse then parses.

    Exactly spelled: argv[0] is a subcommand, and each later token is one
    of its option names, given at most once, or NAME=VALUE for an option
    that takes one value, VALUE not "--".  A flag takes no value.  Any
    other option takes the next token, two for a pair, each either not
    starting with "-" or an ASCII `-[0-9]+`.  An int is what int() makes
    of its text, as with argparse's type; a text int() refuses or of more
    than `_PIECE` digits, and a --format outside `_FORMATS`, give None, so
    argparse reports them.
    """
    entry = _EXACT.get(argv[0]) if argv else None
    if entry is None:
        return None
    options, fields = entry[0], dict(entry[1])
    seen = set()
    i = 1
    while i < len(argv):
        name, eq, text = argv[i].partition("=")
        option = options.get(name)
        if option is None or name in seen:
            return None
        seen.add(name)
        i += 1
        dest, kind = option
        if kind == "flag":
            if eq:
                return None
            fields[dest] = True
            continue
        if eq:
            # argparse up to 3.12 reads the value "--" as no value at all
            if kind == "pair" or text == "--":
                return None
            texts = [text]
        else:
            width = 2 if kind == "pair" else 1
            texts = argv[i:i + width]
            i += width
            if len(texts) < width or any(
                    t.startswith("-") and not _NEGATIVE.fullmatch(t) for t in texts):
                return None
        if kind in ("int", "pair") and any(map(_too_long, texts)):
            return None
        try:
            if kind == "int":
                value = int(texts[0])
            elif kind == "pair":
                value = [int(t) for t in texts]
            elif kind == "choice" and texts[0] not in _FORMATS:
                return None
            else:
                value = texts[0]
        except ValueError:
            return None
        fields[dest] = value
    return SimpleNamespace(**fields)


def _attach_values(argv: list) -> list:
    """Spell `OPTION TOKEN` as `OPTION=TOKEN` when OPTION is in _GRAMMARS and
    TOKEN has its grammar: argparse reads a separate token such as -1/2 or
    -3,1,-1,0 as an option, so a negative value would never reach the
    command's own checks."""
    out = []
    for token in argv:
        grammar = _GRAMMARS.get(out[-1]) if out else None
        if grammar and grammar.fullmatch(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_exact(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "csv" and not args.has_table(args):
            raise ValueError("csv output is only available for table commands")
        return args.func(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout went away, which is not bad usage: say
        # nothing, and point stdout at devnull so the flush at exit cannot
        # fail on the closed pipe again (as in the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
