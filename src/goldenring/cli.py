"""Batch command-line front end with machine-readable reports.

Every subcommand echoes its effective configuration, emits JSON by
default (one `json.dumps(envelope)` line per report; CSV for tables,
plain text on request) and uses exit codes 0 success, 1 identity
mismatch or failed verification, 2 usage error, 3 resource bound
exceeded, 141 (128 + SIGPIPE) standard output closed by its reader.
Output is byte-identical across runs of the same configuration once
--no-timestamp is passed.

`main` checks only what every subcommand shares (`--format csv` needs a
table), then hands over to the subcommand's `cmd_*`. Each `cmd_*` checks
its own arguments first, then its resource bounds, and only then does
any work; a usage problem is a ValueError, which `main` maps to exit 2.
The one bound checked during the work is the size of a `seq` window
(`sequences.WINDOW_BITS`), which is known only as its terms are formed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .dimension import growth_dimension, scaling_report
from .errors import BoundExceeded, VerificationError
from .golden import GoldenInt
from .intervals import _PIECE, RationalInterval
from .quads import (
    CHI_DEGREE_BOUND,
    ENUM_DEGREE_BOUND,
    QUADS_BIDEGREE_BOUND,
    QUADS_COUNT_BOUND,
    classify,
    elements_up_to_bidegree,
    elements_up_to_degree,
    quads_for_value,
    quads_with_bidegree,
    brute_force_sizes,
    brute_force_sizes_bi,
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
    SEED_BOUND,
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
        print(f"config: {pairs}")
        for line in text():
            print(line)
    else:
        envelope = {"command": args.command, "config": config}
        if not args.no_timestamp:
            envelope["timestamp"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        envelope["result"] = result
        # every envelope is a fresh tree, so there is no cycle to look for
        print(json.dumps(envelope, check_circular=False))


def _degree(args) -> dict:
    """The degree part of a config, {"d"} or {"d1", "d2"}: ValueError unless
    exactly one of --d and the pair --d1 --d2 is given, nonnegative."""
    has_bi = args.d1 is not None or args.d2 is not None
    if (args.d is not None) == has_bi:
        raise ValueError("exactly one of --d or --d1/--d2 is required")
    if has_bi and (args.d1 is None or args.d2 is None):
        raise ValueError("--d1 and --d2 must be given together")
    degree = {"d1": args.d1, "d2": args.d2} if has_bi else {"d": args.d}
    if min(degree.values()) < 0:
        raise ValueError(f"{'bi-degree' if has_bi else 'degree'} must be nonnegative")
    return degree


def _check_degree_bound(degree: dict, bound: int) -> None:
    """Refuse a degree, or d1 + d2, above bound (BoundExceeded)."""
    total = sum(degree.values())
    if total > bound:
        raise BoundExceeded(f"{' + '.join(degree)} = {total} exceeds bound {bound}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_chi(args) -> int:
    degree = _degree(args)
    _check_degree_bound(degree, CHI_DEGREE_BOUND)
    # the oracle first: it refuses a degree above its own bound before any work
    if args.d1 is not None:
        sizes = brute_force_sizes_bi(args.d1, args.d2) if args.oracle else None
        closed = size_class_profile_bi(args.d1, args.d2)
    else:
        sizes = brute_force_sizes(args.d) if args.oracle else None
        closed = size_class_profile(args.d)
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
    _check_degree_bound(degree, ENUM_DEGREE_BOUND)
    if args.d1 is not None:
        elements = elements_up_to_bidegree(args.d1, args.d2)
        expected = 2 * args.d1 * args.d2 + args.d1 + args.d2 + 1
    else:
        elements = elements_up_to_degree(args.d)
        expected = args.d * args.d + args.d + 1
    match = len(elements) == expected
    result = {
        "count": len(elements),
        "expected": expected,
        "match": match,
        "elements": [a.to_json() for a in elements],
    }
    _emit(
        args,
        degree,
        result,
        lambda: [f"count: {len(elements)} expected: {expected} match: {match}"]
        + [str(a) for a in elements],
        lambda: [["m", "n"]] + [[a.m, a.n] for a in elements],
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
        if alpha.sign() < 0:
            raise ValueError("element must be nonnegative")
        if args.count < 1:
            raise ValueError("count must be at least 1")
        if args.count > QUADS_COUNT_BOUND:
            raise BoundExceeded(f"count {args.count} exceeds bound {QUADS_COUNT_BOUND}")
        kind = classify(alpha).kind
        quads = quads_for_value(alpha, args.count)
        ok = all(alpha == q.value() for q in quads)
        result = {
            "alpha": alpha.to_json(),
            "class": kind,
            "quads": [_quad_json(q) for q in quads],
        }
    else:
        d1, d2 = args.bidegree
        config = {"bidegree": f"{d1},{d2}"}
        # here, so that a negative part is never read against the d1 + d2 bound
        if min(d1, d2) < 0:
            raise ValueError("bidegree must be nonzero and nonnegative")
        _check_degree_bound({"d1": d1, "d2": d2}, QUADS_BIDEGREE_BOUND)
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
            doc = json.loads(data.decode("utf-8"))
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
        if bound > SEED_BOUND:
            raise BoundExceeded(f"seed bound {bound} exceeds bound {SEED_BOUND}")
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


def _add_degree_group(sub):
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--d1", type=int, default=None)
    sub.add_argument("--d2", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Parsing does not change it and each parse returns a fresh namespace,
    so every `main` call shares it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["json", "csv", "text"], default="json"
    )
    common.add_argument("--no-timestamp", action="store_true")
    # has_table(args) says whether this invocation has a csv form
    common.set_defaults(has_table=lambda args: False)

    parser = argparse.ArgumentParser(
        prog="goldenring",
        description="Exact golden-ratio ring combinatorics and sequence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi", parents=[common], help="size-class profiles")
    _add_degree_group(p)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_chi, has_table=lambda args: True)

    p = sub.add_parser("enum", parents=[common], help="enumerate ring elements")
    _add_degree_group(p)
    p.set_defaults(func=cmd_enum, has_table=lambda args: True)

    p = sub.add_parser("quads", parents=[common], help="quad representations")
    p.add_argument("--alpha", type=int, nargs=2, metavar=("M", "N"), default=None)
    p.add_argument("--bidegree", type=int, nargs=2, metavar=("D1", "D2"), default=None)
    p.add_argument("--count", type=int, default=6)
    p.set_defaults(func=cmd_quads, has_table=lambda args: True)

    p = sub.add_parser("seq", parents=[common], help="triple sequence windows")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--seed-index", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--load", type=str, default=None, metavar="FILE")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("hilbert", parents=[common], help="graded quotient dimensions")
    _add_degree_group(p)
    p.add_argument("--matrix", type=str, default=DEFAULT_MATRIX)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("basis", parents=[common], help="monomial family rank check")
    _add_degree_group(p)
    p.add_argument("--matrix", type=str, default=DEFAULT_MATRIX)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("dim", parents=[common], help="value-bounded dimensions")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=str, default=None, metavar="P/Q")
    p.add_argument("--grid", action="store_true")
    p.set_defaults(func=cmd_dim, has_table=lambda args: args.grid)

    return parser


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
        args = build_parser().parse_args(argv)
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
