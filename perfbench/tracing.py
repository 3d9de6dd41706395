"""Span and counter tracing of goldenring's public functions, from outside.

The tracer replaces an attribute where callers look it up (every
`goldenring.*` module namespace that holds the function, or the class for
a method) by a wrapper that records a span, and puts the originals back on
`uninstall`.  Spans stay in memory as tuples and are written out once, when
the run ends.  Nothing inside the package changes.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (owner, attribute, span name).  An owner "pkg.mod" names a module
# function; "pkg.mod:Class" names a method.  A span name of None means
# the name is chosen per call (see _span_name).
SPAN_TARGETS = [
    ("goldenring.sequences", "find_seeds", "sequences.find_seeds"),
    ("goldenring.sequences", "generate_system", "sequences.generate_system"),
    ("goldenring.sequences", "verify_system", "sequences.verify_system"),
    ("goldenring.sequences", "ratio_limit_enclosure", "sequences.ratio_limit_enclosure"),
    ("goldenring.sequences", "growth_constant_enclosure", "sequences.growth_constant_enclosure"),
    ("goldenring.sequences:TripleSystem", "to_json", "sequences.to_json"),
    ("goldenring.sequences:TripleSystem", "from_json", "sequences.from_json"),
    ("goldenring.intervals:RationalInterval", "__mul__", "intervals.mul"),
    ("goldenring.intervals:RationalInterval", "__rmul__", "intervals.mul"),
    ("goldenring.intervals:RationalInterval", "__pow__", "intervals.pow"),
    ("goldenring.intervals:RationalInterval", "__add__", "intervals.addsub"),
    ("goldenring.intervals:RationalInterval", "__radd__", "intervals.addsub"),
    ("goldenring.intervals:RationalInterval", "__sub__", "intervals.addsub"),
    ("goldenring.intervals:RationalInterval", "__rsub__", "intervals.addsub"),
    ("goldenring.intervals", "three_halves_interval", "intervals.three_halves"),
    ("goldenring.cli", "main", None),
    ("goldenring.ringalg", "hilbert_total", "ringalg.hilbert_total"),
    ("goldenring.ringalg", "hilbert_bi", "ringalg.hilbert_bi"),
    ("goldenring.ringalg", "check_basis_rank", "ringalg.check_basis_rank"),
    ("goldenring.ringalg", "basis_family", "ringalg.basis_family"),
    ("goldenring.ringalg", "coordinate_polys", "ringalg.coordinate_polys"),
    ("goldenring.ringalg", "quotient_coordinates", "ringalg.quotient_coordinates"),
    ("goldenring.rank", "rank_certified", "rank.rank_certified"),
    ("goldenring.rank:FractionEchelon", "insert", "rank.echelon_insert"),
    ("goldenring.rank:LinearSolver", "__init__", "rank.solver_build"),
    ("goldenring.rank:LinearSolver", "solve", "rank.solver_solve"),
    ("goldenring.mpoly:MPoly", "__mul__", "mpoly.mul"),
    ("goldenring.mpoly:MPoly", "__rmul__", "mpoly.mul"),
    ("goldenring.quads", "brute_force_sizes", "quads.brute_force_sizes"),
    ("goldenring.quads", "brute_force_sizes_bi", "quads.brute_force_sizes_bi"),
    ("goldenring.quads", "size_class_profile", "quads.size_class_profile"),
    ("goldenring.quads", "size_class_profile_bi", "quads.size_class_profile_bi"),
    ("goldenring.quads", "elements_up_to_degree", "quads.elements_up_to_degree"),
    ("goldenring.quads", "elements_up_to_bidegree", "quads.elements_up_to_bidegree"),
    ("goldenring.quads", "quads_for_value", "quads.quads_for_value"),
    ("goldenring.quads", "quads_with_bidegree", "quads.quads_with_bidegree"),
    ("goldenring.dimension", "growth_dimension", "dimension.growth_dimension"),
    ("goldenring.dimension", "scaling_report", "dimension.scaling_report"),
]

# called too often for a span each; only the calls are counted
COUNT_TARGETS = [
    ("goldenring.golden:GoldenInt", "compare", "golden.compare.calls"),
    ("goldenring.golden:GoldenRational", "compare", "golden.compare.calls"),
]

LAYERS = ("sequences", "intervals", "cli", "ringalg", "rank", "mpoly", "quads", "dimension")


def _label(name, args):
    """The argument a span is filed under, for spans that are broken down."""
    if name == "sequences.find_seeds":
        return args[0]
    if name == "sequences.verify_system":
        return args[0].K
    if name == "ringalg.hilbert_total":
        return args[0]
    if name == "ringalg.quotient_coordinates":
        return list(args[2].entries())
    return None


def _bits(iv) -> int:
    return max(
        iv.lo.numerator.bit_length(), iv.lo.denominator.bit_length(),
        iv.hi.numerator.bit_length(), iv.hi.denominator.bit_length(),
    )


class Tracer:
    """Wraps the targets above; records spans, counts and maxima."""

    def __init__(self):
        # (name, label, start, end, parent index, outermost of its name)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []
        self.active = True  # False while the benchmark checks an answer

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPAN_TARGETS:
            self._replace(owner, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for owner, attr, name in COUNT_TARGETS:
            self._replace(owner, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _replace(self, owner, attr, make) -> None:
        modname, _, clsname = owner.partition(":")
        module = sys.modules[modname]
        if clsname:
            cls = getattr(module, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "goldenring" or name.startswith("goldenring."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, fixed_name):
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = fixed_name or _span_name(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (name, _label(name, args), t0, t1, parent, depth[name] == 0)
            self._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result) -> None:
        """Exact counts read off a call's arguments and result."""
        if name == "intervals.mul":
            self.maxima["intervals.endpoint_bits_max"] = max(
                self.maxima["intervals.endpoint_bits_max"], _bits(result))
        elif name == "sequences.generate_system":
            bits = max(v.bit_length() for t in result.window for v in t.as_tuple())
            self.maxima["sequences.window_bits"] = max(self.maxima["sequences.window_bits"], bits)
        elif name == "rank.rank_certified":
            columns, nrows = args[0], args[1]
            kernel = args[2] if len(args) > 2 and hasattr(args[2], "__len__") else ()
            ncols = len(columns)
            # computed, not measured: the dense int64 matrices built per prime
            dense = max(nrows * ncols, ncols * len(kernel)) * 8
            self.maxima["rank.dense_bytes_max"] = max(self.maxima["rank.dense_bytes_max"], dense)
            method = result[1]
            if method != "empty":
                self.counts["rank.nonempty"] += 1
            if method == "squeeze":
                self.counts["rank.squeeze"] += 1

    # -- summarising -----------------------------------------------------

    def summary(self) -> dict:
        """Per-name busy time, self time and calls, plus broken-down spans.

        Busy time counts a span only when no enclosing span has the same
        name, so recursion is not counted twice.  Self time is a span's
        duration minus the durations of its direct wrapped children.
        """
        child = [0.0] * len(self.spans)
        for name, _label_, t0, t1, parent, _outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        labelled = defaultdict(list)
        for i, (name, label, t0, t1, _parent, outer) in enumerate(self.spans):
            dur = t1 - t0
            calls[name] += 1
            own[name] += dur - child[i]
            if outer:
                busy[name] += dur
            if label is not None:
                labelled[name].append([label, dur])
        return {
            "busy": dict(busy),
            "self": dict(own),
            "calls": dict(calls),
            "labelled": dict(labelled),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [list(s) for s in self.spans]}, fh, default=str)


def _span_name(args, kwargs) -> str:
    # cli.main(argv): one span name per subcommand
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several rounds of one run."""
    out = {"busy": Counter(), "self": Counter(), "calls": Counter(),
           "labelled": defaultdict(list), "counts": Counter(), "maxima": Counter()}
    for s in summaries:
        for key in ("busy", "self", "calls", "counts"):
            out[key].update(s[key])
        for name, rows in s["labelled"].items():
            out["labelled"][name].extend(rows)
        for name, value in s["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], value)
    return out


def layer_metrics(merged: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    busy, own, calls = merged["busy"], merged["self"], merged["calls"]
    counts, maxima = merged["counts"], merged["maxima"]
    m = {}

    def t(metric, span):
        m[metric] = (busy.get(span, 0.0), "s")

    for span in ("find_seeds", "generate_system", "verify_system", "ratio_limit_enclosure",
                 "growth_constant_enclosure", "to_json", "from_json"):
        t(f"sequences.{span}.s", f"sequences.{span}")
    m["sequences.window_bits"] = (maxima.get("sequences.window_bits", 0), "bits")
    m["sequences.json_bytes"] = (maxima.get("sequences.json_bytes", 0), "bytes")

    m["intervals.mul.calls"] = (calls.get("intervals.mul", 0), "count")
    m["intervals.mul.s"] = (own.get("intervals.mul", 0.0), "s")
    t("intervals.pow.s", "intervals.pow")
    t("intervals.addsub.s", "intervals.addsub")
    m["intervals.endpoint_bits_max"] = (maxima.get("intervals.endpoint_bits_max", 0), "bits")
    t("intervals.three_halves.s", "intervals.three_halves")

    for sub in ("seq", "chi", "enum", "quads", "dim"):
        t(f"cli.{sub}.s", f"cli.{sub}")
    m["cli.self.s"] = (sum((v for k, v in own.items() if k.startswith("cli.")), 0.0), "s")
    m["cli.out_bytes"] = (counts.get("cli.out_bytes", 0), "bytes")

    for span in ("hilbert_total", "hilbert_bi", "check_basis_rank", "basis_family",
                 "coordinate_polys"):
        t(f"ringalg.{span}.s", f"ringalg.{span}")
    first, warm = _first_and_warm(merged["labelled"].get("ringalg.quotient_coordinates", []))
    m["ringalg.quotient_coordinates.first_s"] = (first, "s")
    m["ringalg.quotient_coordinates.warm_p50_s"] = (warm, "s")

    t("rank.rank_certified.s", "rank.rank_certified")
    m["rank.rank_certified.calls"] = (calls.get("rank.rank_certified", 0), "count")
    nonempty = counts.get("rank.nonempty", 0)
    m["rank.squeeze_ratio"] = (counts.get("rank.squeeze", 0) / nonempty if nonempty else 0.0, "ratio")
    m["rank.dense_bytes_max"] = (maxima.get("rank.dense_bytes_max", 0), "bytes")
    t("rank.echelon_insert.s", "rank.echelon_insert")
    t("rank.solver_build.s", "rank.solver_build")
    t("rank.solver_solve.s", "rank.solver_solve")

    m["mpoly.mul.calls"] = (calls.get("mpoly.mul", 0), "count")
    t("mpoly.mul.s", "mpoly.mul")

    t("quads.brute_force_sizes.s", "quads.brute_force_sizes")
    t("quads.brute_force_sizes_bi.s", "quads.brute_force_sizes_bi")
    t("quads.size_class_profile.s", "quads.size_class_profile")
    t("quads.elements_up_to_degree.s", "quads.elements_up_to_degree")
    t("quads.quads_for_value.s", "quads.quads_for_value")
    m["golden.compare.calls"] = (counts.get("golden.compare.calls", 0), "count")

    t("dimension.growth_dimension.s", "dimension.growth_dimension")
    t("dimension.scaling_report.s", "dimension.scaling_report")

    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (sum((v for k, v in own.items() if k.startswith(layer + ".")), 0.0), "s")
    return m


def _first_and_warm(rows) -> tuple[float, float]:
    """Median first call per matrix, and median of the later calls."""
    seen, first, warm = set(), [], []
    for label, dur in rows:
        key = tuple(label)
        if key in seen:
            warm.append(dur)
        else:
            seen.add(key)
            first.append(dur)
    return (
        statistics.median(first) if first else 0.0,
        statistics.median(warm) if warm else 0.0,
    )
