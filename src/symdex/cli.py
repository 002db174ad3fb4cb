"""Batch front end: parse set/series JSON, run a procedure, emit a report.

Reports are deterministic: the same request gives byte-identical
output, whatever ``--seed`` says; the seed is only echoed. Every
report embeds a ``replay`` section listing membership checks and exact
scalar comparisons that re-verify its certificates; the ``oracle``
command re-runs those checks and nothing else. A report embeds its
decoded input under ``request.input``; an ``oracle`` verdict embeds
``{"sha256": ...}`` there instead, the hex digest of the report file's
bytes, so it names the report it checked without writing it out again.

Exit codes: 0 success (including stalled, not-achievable and undecided
outcomes), 1 invariant violation, 2 invalid input, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction

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
# replay checks


def check_entry(entry: dict, parsed: dict) -> bool:
    """Re-verify one replay entry with membership and exact arithmetic.

    ``parsed`` is the replay's parse table (see :func:`_parse`), so each
    distinct set and vector is parsed once.
    """
    if not isinstance(entry, dict):
        raise InvalidInput("a replay entry must be a JSON object")
    kind = entry["kind"]
    def vector(name: str) -> SparseVec:
        return _parse(SparseVec.from_json, entry[name], parsed)
    if kind == "contains":
        expr = _parse(sets.set_from_json, entry["set"], parsed)
        expected = entry.get("expected", True)
        if not isinstance(expected, bool):
            raise InvalidInput("a contains entry's expected value must be true or false")
        return sets.contains(expr, vector("vector")) == expected
    if kind in ("norm_ge", "norm_le"):
        value = norm(vector("vector"), NormKind.parse(entry["norm"]))
        threshold = as_scalar(entry["threshold"])
        return value >= threshold if kind == "norm_ge" else value <= threshold
    if kind == "dual_norm_eq":
        return dual_norm(vector("functional"), NormKind.parse(entry["norm"])) == as_scalar(entry["value"])
    if kind in ("dual_pair_eq", "dual_pair_gt"):
        pair = dual_pair(vector("functional"), vector("vector"))
        value = as_scalar(entry["value"])
        return pair == value if kind == "dual_pair_eq" else pair > value
    if kind == "midpoint":
        parent, left, right = map(vector, ("parent", "left", "right"))
        return (left + right).scale(Fraction(1, 2)) == parent
    if kind == "scalar_le":
        return as_scalar(entry["left"]) <= as_scalar(entry["right"])
    if kind == "scalar_lt":
        return as_scalar(entry["left"]) < as_scalar(entry["right"])
    raise InvalidInput(f"unknown replay check kind {kind!r}")


def _parse(parse, obj, parsed: dict):
    """``parse(obj)``, kept in ``parsed`` under ``parse`` and ``repr(obj)``, which tells
    ``1``, ``1.0``, ``true`` and ``"1"`` apart; the same items reordered parse anew."""
    key = (parse, repr(obj))
    value = parsed.get(key)
    if value is None:
        value = parsed[key] = parse(obj)
    return value


def verify_replay(report: dict) -> list[int]:
    """Indices of replay entries that fail re-verification."""
    if not isinstance(report, dict):
        raise InvalidInput("a report must be a JSON object")
    entries = report.get("replay")
    if not isinstance(entries, list):
        raise InvalidInput("a report needs a replay list")
    parsed: dict = {}
    return [pos for pos, entry in enumerate(entries) if not check_entry(entry, parsed)]


def _contains_entry(expr, v: SparseVec, expected: bool = True) -> dict:
    return {
        "kind": "contains",
        "set": sets.set_to_json(expr),
        "vector": v.to_json(),
        "expected": expected,
    }


def _free_direction_replay(expr, witnesses, d, kind: NormKind, lower: Fraction) -> list[dict]:
    entries = []
    for w in witnesses:
        entries.append(_contains_entry(expr, w + d))
        entries.append(_contains_entry(expr, w - d))
    entries.append(
        {
            "kind": "norm_ge",
            "vector": d.to_json(),
            "norm": kind.value,
            "threshold": format_scalar(lower),
        }
    )
    return entries


# ---------------------------------------------------------------------------
# input parsing


def _read_input(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        raise InvalidInput(f"input file not found: {path}") from None


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
        for w in res.upper_witnesses:
            replay.append(_contains_entry(expr, w))
        if res.N >= 1 and res.lower_certificate and res.lower_certificate.unconditional_value > 0:
            d = indexes.challenge_lower(
                res.lower_certificate, expr, list(res.upper_witnesses), kind
            )
            replay.extend(
                _free_direction_replay(
                    expr, list(res.upper_witnesses), d, kind, res.lower_certificate.value
                )
            )
        if res.bound.lower is not None and res.bound.upper is not None:
            replay.append(
                {
                    "kind": "scalar_le",
                    "left": format_scalar(res.bound.lower),
                    "right": format_scalar(res.bound.upper),
                }
            )
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
        replay.append(_contains_entry(step.set_before, step.x))
        replay.append(
            {
                "kind": "dual_norm_eq",
                "functional": step.f.to_json(),
                "norm": kind.value,
                "value": "1",
            }
        )
        for k in range(n - 1):
            replay.append(
                {
                    "kind": "dual_pair_eq",
                    "functional": step.f.to_json(),
                    "vector": transcript.steps[k].x.to_json(),
                    "value": "0",
                }
            )
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
    replay = [
        {
            "kind": "scalar_le",
            "left": format_scalar(d0.upper),
            "right": format_scalar(as_length(1 + epsilon, kind) * low.value),
        }
    ]
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
    for n in range(1, tree.internal_count + 1):
        replay.append(
            {
                "kind": "midpoint",
                "parent": tree.node(n).to_json(),
                "left": tree.node(2 * n).to_json(),
                "right": tree.node(2 * n + 1).to_json(),
            }
        )
        replay.append(
            {
                "kind": "norm_ge",
                "vector": (tree.node(2 * n + 1) - tree.node(2 * n)).to_json(),
                "norm": kind.value,
                "threshold": format_scalar(as_length(2 * epsilon, kind)),
            }
        )
    for pos in range(len(tree.nodes)):
        replay.append(_contains_entry(expr, tree.nodes[pos]))
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
            replay.extend(
                _free_direction_replay(expr, [], d, series.norm, miss.lower_certificate.value)
            )
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
    for w in tail.witnesses:
        replay.append(_contains_entry(expr, w))
    replay.append(
        {
            "kind": "scalar_lt",
            "left": format_scalar(tail.diameter_upper),
            "right": format_scalar(as_length(2 * epsilon, series.norm)),
        }
    )
    for total in signed_sums(series.terms[tail.M : stop]):
        replay.append(
            {
                "kind": "norm_le",
                "vector": total.to_json(),
                "norm": series.norm.value,
                "threshold": format_scalar(as_length(epsilon, series.norm)),
            }
        )
    return result, replay, "ok"


def _run_extreme(args, obj):
    expr, kind, point = _parse_set_input(obj, args.norm)
    if point is None:
        raise InvalidInput("extreme command needs an envelope with a 'point' field")
    epsilon = as_scalar(args.epsilon)
    flag, bound = ext.extreme_diameter(expr, point, epsilon, kind)
    result = {"eps_extreme": flag, "epsilon": format_scalar(epsilon)}
    replay = [_contains_entry(expr, point)]
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
    replay = []
    threshold = format_scalar(as_length(epsilon, kind))
    for v in xs:
        replay.append(
            {"kind": "norm_ge", "vector": v.to_json(), "norm": kind.value, "threshold": threshold}
        )
    diff = sets.difference_set(expr)
    if diff is not None and len(xs) <= 10:
        for total in signed_sums(xs):
            replay.append(_contains_entry(diff, total))
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

    rows = report["result"].get("curve")
    if rows is None:
        raise InvalidInput("csv format is only available for the delta command")
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
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _write_atomic(args.outfile, payload)
    print(f"symdex {args.command}: {outcome} -> {args.outfile}")
    if outcome == "violation":
        return EXIT_VIOLATION
    return EXIT_OK


def main(argv=None) -> int:
    return run(PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
