"""Span tracing for the traced benchmark run.

Wrappers go around every public function of each symdex layer module,
on the name in every symdex module that imported it (``sets.norm`` as
well as ``vectors.norm``), and around the arithmetic methods of
``SparseVec``. Each span records its name, start, end, parent span and
request id. Spans stay in memory and are written out once the run ends.
Nothing under ``src/`` is edited: the wrappers live on module attributes
of one imported copy of the package, which the benchmark throws away.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter

LAYERS = ("vectors", "exactlp", "sets", "indexes", "extraction", "series", "cli")

SPARSEVEC_METHODS = {
    "__init__": "vectors.sparsevec_init",
    "__add__": "vectors.add",
    "__sub__": "vectors.sub",
    "__neg__": "vectors.neg",
    "scale": "vectors.scale",
}
ARITH = ("vectors.add", "vectors.sub", "vectors.neg", "vectors.scale")

# Private names wrapped on purpose, each only if it still exists.
# Cache misses of the enumeration cache are the calls that reach the
# uncached enumerator; a refactor that scopes or renames either name
# makes sets.enum_cache.hit_frac absent rather than wrong.
PRIVATE = {"sets": ("_enumerate_members_raw",)}

VARIANTS = (
    "Box", "FinitePoints", "SignSums", "Translate", "Negate", "Intersect",
    "Symmetrized", "AbsConvHull",
)
COMMANDS = ("delta", "extract", "refine", "tree", "series", "extreme", "one_sided", "oracle")


def _first_arg_type(args, kwargs):
    expr = args[0] if args else kwargs.get("expr")
    return type(expr).__name__


def _cli_command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "?"


def _tableau_cells(args, kwargs):
    objective = args[0] if args else kwargs["objective"]
    a_eq = args[1] if len(args) > 1 else kwargs["a_eq"]
    return len(a_eq) * len(objective)


# Extra per-span data: taken from the arguments before the call.
TAGGERS = {
    "sets.contains": _first_arg_type,
    "cli.main": _cli_command,
    "exactlp.solve_lp": _tableau_cells,
}


class Tracer:
    """Columnar in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name: list[int] = []
        self.sp_parent: list[int] = []
        self.sp_request: list[int] = []
        self.sp_start: list[int] = []
        self.sp_end: list[int] = []
        self.tags: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self.statuses: dict[int, str] = {}
        self._stack: list[int] = []
        self.wrapped: set[str] = set()

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        tracer = self
        nid = self._name_id(name)
        tagger = TAGGERS.get(name)
        keep_status = name == "exactlp.solve_lp"
        sp_name, sp_parent, sp_request = self.sp_name, self.sp_parent, self.sp_request
        sp_start, sp_end, stack = self.sp_start, self.sp_end, self._stack
        tags, errors, statuses = self.tags, self.errors, self.statuses
        clock = time.perf_counter_ns
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1] if stack else -1)
            sp_request.append(tracer.request)
            sp_end.append(0)
            if tagger is not None:
                tags[idx] = tagger(args, kwargs)
            stack.append(idx)
            sp_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                sp_end[idx] = clock()
                stack.pop()
            if keep_status:
                statuses[idx] = result.status
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        replacements = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
                    not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                ):
                    replacements[obj] = self.wrap(obj, f"{layer}.{attr}")
        holders = [m for n, m in sys.modules.items() if n == "symdex" or n.startswith("symdex.")]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(holder, attr, replacements[obj])
        vec_class = modules["vectors"].SparseVec
        for method, name in SPARSEVEC_METHODS.items():
            if method in vars(vec_class):
                setattr(vec_class, method, self.wrap(vars(vec_class)[method], name))

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.sp_name)

    def self_times(self) -> list[int]:
        """Per-span duration minus the time its direct children cover."""
        n = len(self.sp_name)
        covered = [0] * n
        parent, start, end = self.sp_parent, self.sp_start, self.sp_end
        # a parent span is always created before its children
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def layer_metrics(self, report_bytes: dict, replay_entries: int, overhead: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; absent when unmeasurable."""
        names = [self.names[i] for i in self.sp_name]
        selfs = self.self_times()
        calls = Counter(names)
        self_ns = Counter()
        layer_self_ns = Counter()
        for name, s in zip(names, selfs):
            self_ns[name] += s
            layer_self_ns[name.split(".", 1)[0]] += s

        out: dict[str, tuple[float, str]] = {}

        def count(metric, value):
            out[metric] = (value, "count")

        def ms(metric, ns):
            out[metric] = (ns / 1e6, "ms")

        def fn_calls(metric, name):
            if name in self.wrapped:
                count(metric, calls[name])

        def fn_self(metric, name):
            if name in self.wrapped:
                ms(metric, self_ns[name])

        for layer in LAYERS:
            ms(f"{layer}.self_ms", layer_self_ns[layer])

        # vectors
        fn_calls("vectors.sparsevec_init.calls", "vectors.sparsevec_init")
        count("vectors.arith.calls", sum(calls[n] for n in ARITH))
        for fn in ("norm", "dual_pair", "linear_combination"):
            fn_calls(f"vectors.{fn}.calls", f"vectors.{fn}")

        # exactlp
        fn_calls("exactlp.solve_lp.calls", "exactlp.solve_lp")
        fn_self("exactlp.solve_lp.self_ms", "exactlp.solve_lp")
        if "exactlp.solve_lp" in self.wrapped:
            lp_spans = [i for i, n in enumerate(names) if n == "exactlp.solve_lp"]
            out["exactlp.tableau_cells"] = (sum(self.tags[i] for i in lp_spans), "cells")
            infeasible = sum(1 for i in lp_spans if self.statuses.get(i) == "infeasible")
            out["exactlp.infeasible_frac"] = (infeasible / len(lp_spans) if lp_spans else 0.0, "ratio")

        # sets
        if "sets.contains" in self.wrapped:
            variants = Counter(self.tags[i] for i, n in enumerate(names) if n == "sets.contains")
            for variant in VARIANTS:
                count(f"sets.contains.calls.{variant}", variants[variant])
        fn_self("sets.contains.self_ms", "sets.contains")
        fn_calls("sets.sample_members.calls", "sets.sample_members")
        fn_self("sets.sample_members.self_ms", "sets.sample_members")
        fn_calls("sets.enumerate_members.calls", "sets.enumerate_members")
        raw = "sets._enumerate_members_raw"
        if raw in self.wrapped and "sets.enumerate_members" in self.wrapped:
            lookups = calls["sets.enumerate_members"]
            hits = lookups - calls[raw]
            out["sets.enum_cache.hit_frac"] = (hits / lookups if lookups else 0.0, "ratio")
        fn_calls("sets.symmetrize.calls", "sets.symmetrize")
        for fn in ("diameter", "sup_functional", "free_direction"):
            fn_self(f"sets.{fn}.self_ms", f"sets.{fn}")
        fn_calls("sets.set_to_json.calls", "sets.set_to_json")
        fn_calls("sets.set_from_json.calls", "sets.set_from_json")

        # indexes
        fn_calls("indexes.delta_upper.calls", "indexes.delta_upper")
        fn_self("indexes.delta_upper.self_ms", "indexes.delta_upper")
        if "indexes.delta_upper" in self.wrapped and "sets.symmetrize" in self.wrapped:
            count("indexes.witness_lists", self._under("sets.symmetrize", "indexes.delta_upper"))
        fn_self("indexes.delta_curve.self_ms", "indexes.delta_curve")

        # extraction
        fn_calls("extraction.eps_strong_extreme.calls", "extraction.eps_strong_extreme")
        for fn in ("eps_strong_extreme", "extract_c0_sequence", "validate_transcript", "build_eps_tree"):
            fn_self(f"extraction.{fn}.self_ms", f"extraction.{fn}")
        if "extraction.extract_c0_sequence" in self.wrapped:
            count("extraction.stalled", self._raised("extraction.extract_c0_sequence", "ExtractionStalled"))

        # series
        for fn in ("unconditional_tail_bound", "wuc_bound"):
            fn_self(f"series.{fn}.self_ms", f"series.{fn}")
        if "series.unconditional_tail_bound" in self.wrapped:
            count("series.not_achievable", self._raised("series.unconditional_tail_bound", "NotAchievable"))

        # cli
        if "cli.main" in self.wrapped:
            per_command = Counter()
            for i, n in enumerate(names):
                if n == "cli.main":
                    per_command[self.tags[i]] += self.sp_end[i] - self.sp_start[i]
            for command in COMMANDS:
                ms(f"cli.{command}.ms", per_command[command])
        for command in COMMANDS:
            out[f"cli.report_bytes.{command}"] = (report_bytes.get(command, 0), "B")
        count("cli.replay_entries", replay_entries)
        fn_calls("cli.check_entry.calls", "cli.check_entry")

        out["trace.overhead_frac"] = (overhead, "ratio")
        return out

    def _under(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` with a span named ``ancestor`` above them."""
        child_id = self._name_ids.get(child)
        anc_id = self._name_ids.get(ancestor)
        n = len(self.sp_name)
        inside = [False] * n
        total = 0
        for i in range(n):
            p = self.sp_parent[i]
            inside[i] = p >= 0 and (inside[p] or self.sp_name[p] == anc_id)
            if inside[i] and self.sp_name[i] == child_id:
                total += 1
        return total

    def _raised(self, name: str, exc_name: str) -> int:
        nid = self._name_ids.get(name)
        return sum(1 for i, e in self.errors.items() if e == exc_name and self.sp_name[i] == nid)

    def write(self, path) -> None:
        """Write every span as one tab-separated line (times in ns), gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\trequest\tname\tstart_ns\tend_ns\ttag\terror\n")
            for i in range(len(self.sp_name)):
                tag = self.tags.get(i, self.statuses.get(i, ""))
                handle.write(
                    f"{i}\t{self.sp_parent[i]}\t{self.sp_request[i]}\t{self.names[self.sp_name[i]]}"
                    f"\t{self.sp_start[i]}\t{self.sp_end[i]}\t{tag}\t{self.errors.get(i, '')}\n"
                )
