"""Batch front end: parse set/series JSON, run a procedure, emit a report.

Reports are deterministic: the same request gives byte-identical
output, whatever ``--seed`` says; the seed is only echoed. Every
report embeds a ``replay`` section listing membership checks and exact
scalar comparisons that re-verify its certificates; the ``oracle``
command re-runs those checks and nothing else. A report embeds its
decoded input under ``request.input``; an ``oracle`` verdict embeds
``{"sha256": ...}`` there instead, the hex digest of the report file's
bytes, so it names the report it checked without writing it out again.
A JSON report is ``json.dumps(report, sort_keys=True, indent=2)`` plus a
newline, byte for byte, written by ``_json_report``.

Exit codes: 0 success (including stalled, not-achievable and undecided
outcomes), 1 invariant violation, 2 invalid input (also ``--format csv``
on any command but ``delta``, and an ``--out`` path that cannot be
written), 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from . import extraction as ext
from . import indexes, series as series_mod, sets
from .errors import (
    BudgetExceeded,
    InvalidInput,
    NotAchievable,
    NotFound,
    SequenceStalled,
    SymdexError,
    TreeStalled,
    UnboundedDiameter,
)
from .errors import ExtractionStalled
from .vectors import (
    NormKind,
    SparseVec,
    as_length,
    as_scalar,
    dual_norm,
    dual_pair,
    format_scalar,
    norm,
    signed_sums,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

# --decimal digits; far below Python's 4,300-digit limit on int-to-str
MAX_DECIMAL = 1000


def decimal_string(value: Fraction, digits: int) -> str:
    """Non-authoritative fixed-point display (round half up)."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10 ** digits
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    integral, frac = divmod(whole, 10 ** digits)
    if digits == 0:
        return f"{sign}{integral}"
    return f"{sign}{integral}.{str(frac).zfill(digits)}"


# ---------------------------------------------------------------------------
# replay entries


def _read_flag(obj) -> bool:
    if not isinstance(obj, bool):
        raise InvalidInput(f"a replay flag must be true or false, not {obj!r}")
    return obj


# field type -> (write a value as JSON, read it back). Module functions are
# looked up at call time, so a wrapper later set on the module is the one called.
FIELD_TYPES = {
    "set": (lambda expr: sets.set_to_json(expr), lambda obj: sets.set_from_json(obj)),
    "vector": (lambda v: v.to_json(), lambda obj: SparseVec.from_json(obj)),
    "norm": (lambda kind: kind.value, lambda obj: NormKind.parse(obj)),
    "scalar": (lambda value: format_scalar(value), lambda obj: as_scalar(obj)),
    "bool": (lambda flag: flag, _read_flag),
}

# Each replay entry kind, declared once: its fields in order as (name, type)
# and its exact check over the parsed values. A bool field left out reads true.
ENTRY_KINDS = {
    "contains": (
        (("set", "set"), ("vector", "vector"), ("expected", "bool")),
        lambda expr, v, expected: sets.contains(expr, v) == expected,
    ),
    "norm_ge": (
        (("vector", "vector"), ("norm", "norm"), ("threshold", "scalar")),
        lambda v, kind, threshold: norm(v, kind) >= threshold,
    ),
    "norm_le": (
        (("vector", "vector"), ("norm", "norm"), ("threshold", "scalar")),
        lambda v, kind, threshold: norm(v, kind) <= threshold,
    ),
    "dual_norm_eq": (
        (("functional", "vector"), ("norm", "norm"), ("value", "scalar")),
        lambda f, kind, value: dual_norm(f, kind) == value,
    ),
    "dual_pair_eq": (
        (("functional", "vector"), ("vector", "vector"), ("value", "scalar")),
        lambda f, v, value: dual_pair(f, v) == value,
    ),
    "midpoint": (
        (("parent", "vector"), ("left", "vector"), ("right", "vector")),
        lambda parent, left, right: (left + right).scale(Fraction(1, 2)) == parent,
    ),
    "scalar_le": ((("left", "scalar"), ("right", "scalar")), lambda left, right: left <= right),
    "scalar_lt": ((("left", "scalar"), ("right", "scalar")), lambda left, right: left < right),
}


def entry(kind: str, *values) -> dict:
    """The replay entry of ``kind`` whose fields hold ``values``, in table order."""
    out = {"kind": kind}
    for (name, type_), value in zip(ENTRY_KINDS[kind][0], values, strict=True):
        out[name] = FIELD_TYPES[type_][0](value)
    return out


def check_entry(entry: dict, parsed: dict) -> bool:
    """Re-verify one replay entry with membership and exact arithmetic.

    ``parsed`` is the replay's parse table (see :func:`_parse`), so each
    distinct field value is parsed once.
    """
    if not isinstance(entry, dict):
        raise InvalidInput("a replay entry must be a JSON object")
    kind = entry.get("kind")
    spec = ENTRY_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise InvalidInput(f"unknown replay check kind {kind!r}")
    fields, check = spec
    values = []
    for name, type_ in fields:
        if name in entry:
            values.append(_parse(type_, entry[name], parsed))
        elif type_ == "bool":
            values.append(True)
        else:
            raise InvalidInput(f"a {kind} entry needs a {name!r} field")
    return check(*values)


def _parse(type_: str, obj, parsed: dict):
    """``obj`` read as a field of ``type_``, kept in ``parsed`` under ``type_`` and ``repr(obj)``,
    which tells ``1``, ``1.0``, ``true`` and ``"1"`` apart; the same items reordered parse anew."""
    key = (type_, repr(obj))
    value = parsed.get(key)
    if value is None:
        value = parsed[key] = FIELD_TYPES[type_][1](obj)
    return value


def verify_replay(report: dict) -> list[int]:
    """Indices of replay entries that fail re-verification."""
    if not isinstance(report, dict):
        raise InvalidInput("a report must be a JSON object")
    entries = report.get("replay")
    if not isinstance(entries, list):
        raise InvalidInput("a report needs a replay list")
    parsed: dict = {}
    return [pos for pos, item in enumerate(entries) if not check_entry(item, parsed)]


def _free_direction_replay(expr, witnesses, d, kind: NormKind, lower: Fraction) -> list[dict]:
    entries = []
    for w in witnesses:
        entries += [entry("contains", expr, w + d, True), entry("contains", expr, w - d, True)]
    return entries + [entry("norm_ge", d, kind, lower)]


# ---------------------------------------------------------------------------
# input parsing


def _read_input(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise InvalidInput(f"cannot read {path}: {exc.strerror or exc}") from None


def _decode_json(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"input is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"input is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInput("input JSON nests too deeply") from None


def _parse_set_input(obj, norm_flag: str | None):
    """Accept a bare tagged SetExpr or an envelope {"set":..., "norm":...}."""
    if isinstance(obj, dict) and "set" in obj:
        expr = sets.set_from_json(obj["set"])
        kind = NormKind.parse(norm_flag or obj.get("norm", "sup"))
        point = SparseVec.from_json(obj["point"]) if "point" in obj else None
        return expr, kind, point
    expr = sets.set_from_json(obj)
    return expr, NormKind.parse(norm_flag or "sup"), None


def _strategy(args, expr) -> indexes.SearchStrategy:
    pool = indexes.default_pool(expr)
    return indexes.SearchStrategy.parse(args.strategy, pool)


# ---------------------------------------------------------------------------
# command handlers; each takes the parsed input, which the report embeds
# and so must stay unmodified, and returns (result, replay, outcome)


def _run_delta(args, obj):
    expr, kind, _ = _parse_set_input(obj, args.norm)
    curve = indexes.delta_curve(expr, args.n, _strategy(args, expr), kind)
    replay: list[dict] = []
    rows = []
    for res in curve:
        rows.append(res.to_json())
        replay += [entry("contains", expr, w, True) for w in res.upper_witnesses]
        low = res.lower_certificate
        if res.N >= 1 and low and low.unconditional_value > 0:
            ws = list(res.upper_witnesses)
            d = indexes.challenge_lower(low, expr, ws, kind)
            replay += _free_direction_replay(expr, ws, d, kind, low.value)
        if res.bound.lower is not None and res.bound.upper is not None:
            replay.append(entry("scalar_le", res.bound.lower, res.bound.upper))
    return {"curve": rows, "norm": kind.value}, replay, "ok"


def _run_extract(args, obj):
    expr, kind, _ = _parse_set_input(obj, args.norm)
    epsilon = as_scalar(args.epsilon)
    outcome = "ok"
    try:
        transcript = ext.extract_c0_sequence(expr, epsilon, args.n, kind)
    except ExtractionStalled as stall:
        transcript = stall.partial
        outcome = "stalled"
    validation = ext.validate_transcript(transcript)
    if not validation["ok"]:
        raise SymdexError("transcript validation failed")
    # a transcript that validates has the two-sided c0 estimate for every
    # coefficient vector (proved at verify_basis_inequality)
    replay = []
    for n, step in enumerate(transcript.steps, start=1):
        replay.append(entry("contains", step.set_before, step.x, True))
        replay.append(entry("dual_norm_eq", step.f, kind, 1))
        replay += [entry("dual_pair_eq", step.f, transcript.steps[k].x, 0) for k in range(n - 1)]
    return {"transcript": transcript.to_json(), "validation": validation}, replay, outcome


def _run_refine(args, obj):
    expr, kind, _ = _parse_set_input(obj, args.norm)
    epsilon = as_scalar(args.epsilon)
    try:
        refined = ext.refine_almost_isometric(expr, epsilon, _strategy(args, expr), args.n, kind)
    except NotFound as miss:
        return {"outcome": "not_found", "best": miss.best}, [], "not_found"
    low = indexes.delta_lower(expr, 1, kind).lower_certificate
    d0 = indexes.delta0(refined, kind)
    replay = [entry("scalar_le", d0.upper, as_length(1 + epsilon, kind) * low.value)]
    result = {
        "refined": sets.set_to_json(refined),
        "delta0": d0.to_json(),
        "limit_lower": low.to_json(),
    }
    return result, replay, "ok"


def _run_tree(args, obj):
    expr, kind, _ = _parse_set_input(obj, args.norm)
    epsilon = as_scalar(args.epsilon)
    try:
        tree = ext.build_eps_tree(expr, epsilon, args.depth, kind)
    except TreeStalled as stall:
        return {"outcome": "stalled", "node": stall.node}, [], "stalled"
    replay = []
    sep = as_length(2 * epsilon, kind)
    for n in range(1, tree.internal_count + 1):
        left, right = tree.node(2 * n), tree.node(2 * n + 1)
        replay.append(entry("midpoint", tree.node(n), left, right))
        replay.append(entry("norm_ge", right - left, kind, sep))
    replay += [entry("contains", expr, node, True) for node in tree.nodes]
    return {"tree": tree.to_json()}, replay, "ok"


def _run_series(args, obj):
    series = series_mod.SeriesSpec.from_json(obj)
    epsilon = as_scalar(args.epsilon)
    wuc = series_mod.wuc_bound(series)
    result = {"wuc_bound": format_scalar(wuc), "horizon": series.horizon, "norm": series.norm.value}
    replay: list[dict] = []
    try:
        tail = series_mod.unconditional_tail_bound(series, epsilon, enum_budget=args.budget)
    except NotAchievable as miss:
        result["outcome"] = "not_achievable"
        if miss.lower_certificate is not None:
            result["lower_certificate"] = miss.lower_certificate.to_json()
            expr = series_mod.sign_sum_set(series, series_mod.SignMode.SUBSETS)
            d = indexes.challenge_lower(miss.lower_certificate, expr, [], series.norm)
            replay += _free_direction_replay(expr, [], d, series.norm, miss.lower_certificate.value)
        if miss.best is not None:
            result["best_diameter"] = format_scalar(miss.best[0])
        return result, replay, "not_achievable"
    # the report replays the tail sign sums of the next 8 terms as norm_le entries
    stop = min(tail.M + 8, series.horizon)
    result["tail"] = {
        "M": tail.M,
        "witnesses": [w.to_json() for w in tail.witnesses],
        "diameter_upper": format_scalar(tail.diameter_upper),
        "replayed_patterns": 2 ** (stop - tail.M),
    }
    expr = series_mod.sign_sum_set(series, series_mod.SignMode.SUBSETS)
    replay += [entry("contains", expr, w, True) for w in tail.witnesses]
    replay.append(entry("scalar_lt", tail.diameter_upper, as_length(2 * epsilon, series.norm)))
    threshold = as_length(epsilon, series.norm)
    for total in signed_sums(series.terms[tail.M : stop]):
        replay.append(entry("norm_le", total, series.norm, threshold))
    return result, replay, "ok"


def _run_extreme(args, obj):
    expr, kind, point = _parse_set_input(obj, args.norm)
    if point is None:
        raise InvalidInput("extreme command needs an envelope with a 'point' field")
    epsilon = as_scalar(args.epsilon)
    flag, bound = ext.extreme_diameter(expr, point, epsilon, kind)
    result = {"eps_extreme": flag, "epsilon": format_scalar(epsilon)}
    replay = [entry("contains", expr, point, True)]
    result["symmetrized_diameter"] = bound.to_json()
    if isinstance(expr, sets.FinitePoints):
        strong, delta = ext.eps_strong_extreme(expr, point, epsilon, kind)
        result["eps_strong_extreme"] = strong
        result["delta_witness"] = format_scalar(delta)
    return result, replay, "ok" if flag is not None else "undecided"


def _run_one_sided(args, obj):
    expr, kind, _ = _parse_set_input(obj, args.norm)
    epsilon = as_scalar(args.epsilon)
    try:
        xs = ext.one_sided_sequence(expr, epsilon, args.n, kind)
    except SequenceStalled as stall:
        return (
            {"outcome": "stalled", "step": stall.step, "partial": [v.to_json() for v in stall.partial]},
            [],
            "stalled",
        )
    threshold = as_length(epsilon, kind)
    replay = [entry("norm_ge", v, kind, threshold) for v in xs]
    # each partial sign sum of xs is the difference of two members of the
    # family x_0 + (sum of a subset of xs), replayed in the set itself
    # (README, "One-sided families"); each entry copies the set, so only a
    # box or a set of at most 64 members gets them, for at most 10 steps
    members = () if isinstance(expr, sets.Box) else sets.enumerate_members(expr, 64)
    if len(xs) <= 10 and members is not None and len(members) <= 64:
        family = [ext.default_start(expr)]
        for x in xs:
            family += [m + x for m in family]
        replay += [entry("contains", expr, m, True) for m in family]
    return {"sequence": [v.to_json() for v in xs]}, replay, "ok"


def _run_oracle(args, report):
    failures = verify_replay(report)
    result = {
        "checked": len(report["replay"]),
        "failed": failures,
    }
    return result, [], "ok" if not failures else "violation"


HANDLERS = {
    "delta": _run_delta,
    "extract": _run_extract,
    "refine": _run_refine,
    "tree": _run_tree,
    "series": _run_series,
    "extreme": _run_extreme,
    "one_sided": _run_one_sided,
    "oracle": _run_oracle,
}


# what JSON writes for a leaf whose repr differs from it
_SPELLED = {"None": "null", "True": "true", "False": "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_REPR_LEAVES = (int, float, bool, type(None))


def _write_json(obj, pieces: list, newline: str) -> None:
    """Append ``obj`` to ``pieces`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it
    (dict keys are strings), ``newline`` starting each line after the first. One frame per
    level and no more per leaf, so every report whose input the decoder accepts is written.
    ``json.dumps`` itself writes ``indent=2`` with its slower pure-Python encoder."""
    if obj.__class__ is str:
        pieces.append(_quote(obj))
    elif obj.__class__ in _REPR_LEAVES:
        # not repr(obj), which counts as a level against the recursion limit
        text = obj.__class__.__repr__(obj)
        pieces.append(_SPELLED.get(text, text))
    elif isinstance(obj, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            pieces.append(sep + inner + _quote(key) + ": ")
            _write_json(obj[key], pieces, inner)
            sep = ","
        pieces.append(newline + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = newline + "  ", "["
        for value in obj:
            pieces.append(sep + inner)
            _write_json(value, pieces, inner)
            sep = ","
        pieces.append(newline + "]" if obj else "[]")
    else:
        pieces.append(json.dumps(obj))


def _json_report(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    pieces: list = []
    _write_json(report, pieces, "\n")
    return "".join(pieces) + "\n"


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".symdex-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_csv(report: dict, digits: int | None) -> str:
    import csv
    import io

    rows = report["result"]["curve"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["N", "lower", "upper", "witnesses"]
    if digits is not None:
        header += ["lower_dec", "upper_dec"]
    writer.writerow(header)
    for row in rows:
        lower = row["bound"]["lower"] or "0"
        upper = row["bound"]["upper"] if row["bound"]["upper"] is not None else "inf"
        record = [row["N"], lower, upper, json.dumps(row["upper_witnesses"], sort_keys=True)]
        if digits is not None:
            record.append(decimal_string(as_scalar(lower), digits))
            record.append(
                decimal_string(as_scalar(upper), digits) if upper != "inf" else "inf"
            )
        writer.writerow(record)
    return buffer.getvalue()


def _int_type(low: int, high: float, expected: str):
    """An argparse type for integers from ``low`` to ``high``; anything
    else is an error that names ``expected``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdex",
        description="Symmetrization indexes and structure extraction for bounded sequence sets.",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--in", dest="infile", required=True)
    parser.add_argument("--out", dest="outfile", required=True)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--epsilon", default="1/10")
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--strategy", choices=tuple(indexes.WIDTHS), default="exhaustive")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=_int_type(1, float("inf"), "a positive integer"), default=200_000)
    parser.add_argument("--norm", choices=("sup", "sum", "euclid"), default=None)
    parser.add_argument(
        "--decimal", type=_int_type(0, MAX_DECIMAL, f"an integer from 0 to {MAX_DECIMAL}"), default=None
    )
    return parser


PARSER = build_parser()


def run(args) -> int:
    handler = HANDLERS[args.command]
    if args.format == "csv" and args.command != "delta":
        print("symdex: invalid input: csv format is only available for the delta command", file=sys.stderr)
        return EXIT_INVALID
    try:
        data = _read_input(args.infile)
        obj = _decode_json(data)
        result, replay, outcome = handler(args, obj)
    except (InvalidInput, KeyError, UnboundedDiameter) as exc:
        # UnboundedDiameter: the request asks for a quantity the model says is infinite
        print(f"symdex: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        print(f"symdex: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SymdexError as exc:
        print(f"symdex: invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION

    report = {
        "version": __version__,
        "command": args.command,
        "request": {
            "input": {"sha256": hashlib.sha256(data).hexdigest()} if args.command == "oracle" else obj,
            "parameters": {
                "n": args.n,
                "epsilon": args.epsilon,
                "depth": args.depth,
                "strategy": args.strategy,
                "seed": args.seed,
                "budget": args.budget,
                "norm": args.norm,
                "format": args.format,
                "decimal": args.decimal,
            },
        },
        "outcome": outcome,
        "result": result,
        "replay": replay,
    }
    if args.format == "csv":
        payload = _format_csv(report, args.decimal)
    else:
        payload = _json_report(report)
    try:
        _write_atomic(args.outfile, payload)
    except OSError as exc:
        print(f"symdex: invalid input: cannot write {args.outfile}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"symdex {args.command}: {outcome} -> {args.outfile}")
    if outcome == "violation":
        return EXIT_VIOLATION
    return EXIT_OK


def main(argv=None) -> int:
    return run(PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
