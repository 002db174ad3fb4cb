"""The three benchmark workloads.

Each workload turns the seed into passes of requests. A request runs
through the public symdex API or ``symdex.cli.main`` inside the timed
region; its correctness check and, for the library workloads, the
replay report that ``oracle`` re-verifies are built outside it.

- ``finite_lattice``: random finite point sets under every norm. Time
  goes to SparseVec arithmetic and set operations; no LP is solved.
- ``hull_lp``: absolutely convex hulls whose symmetrizations are
  measured by the dense Fraction simplex, so nearly all time is LP.
- ``cli_reports``: a fixed mix of CLI commands, every JSON report then
  replayed by ``oracle``. No LP is solved.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
HULL_CATALOGUE = HERE / "hull_catalogue.json"
# cli_fingerprint of every cli_reports request, recorded when the
# benchmark was added; the same for every CLI --seed
CLI_EXPECTED = HERE / "cli_expected.json"


class Library:
    """A freshly imported copy of symdex: no module state is shared with
    any earlier copy, so every copy starts with empty caches."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "symdex" or n.startswith("symdex.")]:
            del sys.modules[name]
        self.symdex = importlib.import_module("symdex")
        self.cli = importlib.import_module("symdex.cli")
        self.sets = importlib.import_module("symdex.sets")
        self.bruteforce = importlib.import_module("symdex.bruteforce")

    def layer_modules(self, layers) -> dict:
        modules = {}
        for layer in layers:
            try:
                modules[layer] = importlib.import_module(f"symdex.{layer}")
            except ModuleNotFoundError:
                continue
        return modules

    def clear_enum_cache(self) -> None:
        # A CLI invocation never inherits the enumeration cache. If a
        # later change scopes or renames it there is nothing to clear.
        cache = getattr(self.sets, "_ENUM_CACHE", None)
        if hasattr(cache, "clear"):
            cache.clear()

    def cli_main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)


@dataclass
class Outcome:
    """What the benchmark learned from one request, outside the timer."""

    ok: bool
    digest: str
    report: Path | None = None  # JSON report for oracle to replay
    report_bytes: int = 0
    command: str = ""
    notes: list[str] = field(default_factory=list)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_report(path: Path, command: str, result: dict, replay: list) -> tuple[bytes, int]:
    data = (json.dumps({"command": command, "result": result, "replay": replay},
                       sort_keys=True, indent=2) + "\n").encode()
    path.write_bytes(data)
    return data, len(data)


def _contains_entry(lib: Library, expr, v, expected: bool = True) -> dict:
    return {"kind": "contains", "set": lib.symdex.set_to_json(expr),
            "vector": v.to_json(), "expected": expected}


# ---------------------------------------------------------------------------
# finite_lattice


class FiniteLattice:
    """delta_curve to N=2 plus eps_extreme / eps_strong_extreme at every
    point, on random 4-coordinate finite sets of 1-8 points. A pass holds
    every (point count, norm) pair once, so each pass has the same shape."""

    name = "finite_lattice"
    EPS_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1))

    def __init__(self, lib: Library, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir
        s = lib.symdex
        self.norms = (s.NormKind.SUP, s.NormKind.SUM, s.NormKind.EUCLID)

    def _point(self, rng: random.Random):
        support = rng.sample(range(1, 5), k=rng.randint(0, 4))
        return self.lib.symdex.SparseVec(
            {i: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for i in support}
        )

    def make_pass(self, index: int) -> list:
        rng = random.Random(self.seed * 1_000_003 + index)
        out = []
        for count in range(1, 9):
            for kind in self.norms:
                points = self.lib.symdex.FinitePoints(tuple(self._point(rng) for _ in range(count)))
                out.append((points, kind, self.EPS_GRID[rng.randrange(3)]))
        rng.shuffle(out)
        return out

    def repeat_key(self, request):
        return None  # every request is a fresh random set

    def warmup(self) -> None:
        s = self.lib.symdex
        points = s.FinitePoints((s.ZERO, s.unit(1), s.unit(2)))
        self.run((points, s.NormKind.SUP, Fraction(1, 2)))

    def run(self, request):
        s = self.lib.symdex
        points, kind, eps = request
        curve = s.delta_curve(points, 2, s.SearchStrategy.exhaustive(s.default_pool(points)), kind)
        flags = [
            (s.eps_extreme(points, x, eps, kind), s.eps_strong_extreme(points, x, eps, kind))
            for x in points.points
        ]
        return curve, flags

    def finish(self, request, output, tag: str) -> Outcome:
        s, brute = self.lib.symdex, self.lib.bruteforce
        points, kind, eps = request
        curve, flags = output
        dicts = [dict(p.items()) for p in points.points]
        notes = []
        half = 4 if kind is s.NormKind.EUCLID else 2
        if curve[0].bound.upper != brute.brute_diameter(dicts, kind) / half:
            notes.append("delta_0 differs from the brute-force diameter")
        for res in curve[1:]:
            if res.bound.upper != brute.brute_delta_upper(dicts, res.N, kind):
                notes.append(f"delta_upper at N={res.N} differs from brute force")
        for plain, (strong, _) in flags:
            if strong and not plain:
                notes.append("strongly extreme point that is not extreme")
        replay = []
        for res in curve:
            replay.extend(_contains_entry(self.lib, points, w) for w in res.upper_witnesses)
            if res.bound.lower is not None and res.bound.upper is not None:
                replay.append({"kind": "scalar_le", "left": str(res.bound.lower),
                               "right": str(res.bound.upper)})
        result = {
            "set": s.set_to_json(points), "norm": kind.value, "epsilon": str(eps),
            "curve": [r.to_json() for r in curve],
            "extreme": [[plain, strong, str(delta)] for plain, (strong, delta) in flags],
        }
        path = self.workdir / f"{tag}.json"
        data, size = _write_report(path, self.name, result, replay)
        return Outcome(not notes, _digest(data), path, size, notes=notes)


# ---------------------------------------------------------------------------
# hull_lp


def hull_request(lib: Library, instance: dict) -> dict:
    """The timed hull_lp request: delta_upper at N=1 by exhaustive search
    over default_pool, then membership and sup-functional probes on the
    hull and on one symmetrization of it. Returns exact results."""
    s = lib.symdex
    vec = s.SparseVec.from_json
    hull = s.AbsConvHull(tuple(vec(p) for p in instance["generators"]))
    kind = s.NormKind.parse(instance["norm"])
    probes = [vec(p) for p in instance["probes"]]
    functionals = [vec(f) for f in instance["functionals"]]
    res = s.delta_upper(hull, 1, s.SearchStrategy.exhaustive(s.default_pool(hull)), kind)
    sym = s.symmetrize(hull, [vec(instance["witness"])])
    return {
        "hull": hull, "sym": sym, "delta": res,
        "contains_hull": [s.contains(hull, v) for v in probes],
        "contains_sym": [s.contains(sym, v) for v in probes],
        "sup_hull": [s.sup_functional(f, hull) for f in functionals],
        "sup_sym": [s.sup_functional(f, sym) for f in functionals],
    }


def hull_summary(output: dict) -> dict:
    """The exact values a hull_lp request must reproduce."""

    def pair(b):
        return [None if b.lower is None else str(b.lower), None if b.upper is None else str(b.upper)]

    return {
        "delta_upper": str(output["delta"].bound.upper),
        "contains_hull": output["contains_hull"],
        "contains_sym": output["contains_sym"],
        "sup_hull": [pair(b) for b in output["sup_hull"]],
        "sup_sym": [pair(b) for b in output["sup_sym"]],
    }


class HullLp:
    """Catalogued hull instances with exact optima recorded at the commit
    that introduced the benchmark. A pass holds a fixed number of
    instances of every shape (coordinate count, generator count, norm);
    the seed picks which instances and in what order."""

    name = "hull_lp"

    def __init__(self, lib: Library, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir
        catalogue = json.loads(HULL_CATALOGUE.read_text())
        self.shapes = catalogue["shapes"]
        self.instances = catalogue["instances"]
        by_shape: dict[str, list[dict]] = {}
        for inst in self.instances:
            by_shape.setdefault(inst["shape"], []).append(inst)
        rng = random.Random(seed)
        self.order = {}
        for shape in self.shapes:
            pool = list(by_shape[shape])
            rng.shuffle(pool)
            self.order[shape] = pool

    def make_pass(self, index: int) -> list:
        out = []
        for shape, per_pass in self.shapes.items():
            pool = self.order[shape]
            out.extend(pool[(index * per_pass + j) % len(pool)] for j in range(per_pass))
        random.Random(self.seed * 1_000_003 + index).shuffle(out)
        return out

    def repeat_key(self, instance):
        return None  # an instance returns only after the catalogue is used up

    def warmup(self) -> None:
        self.run(self.instances[0])

    def run(self, instance):
        return hull_request(self.lib, instance)

    def finish(self, instance, output, tag: str) -> Outcome:
        s = self.lib.symdex
        summary = hull_summary(output)
        notes = [f"{key} differs from the recorded exact value"
                 for key, value in summary.items() if instance["expected"][key] != value]
        hull, sym = output["hull"], output["sym"]
        replay = [_contains_entry(self.lib, hull, w) for w in output["delta"].upper_witnesses]
        for v, inside in zip(instance["probes"], summary["contains_hull"]):
            replay.append(_contains_entry(self.lib, hull, s.SparseVec.from_json(v), inside))
        for v, inside in zip(instance["probes"], summary["contains_sym"]):
            replay.append(_contains_entry(self.lib, sym, s.SparseVec.from_json(v), inside))
        for f, bound in zip(instance["functionals"], output["sup_sym"]):
            point = (bound.lower_witness or {}).get("point")
            if point is not None:
                replay.append({"kind": "contains", "set": s.set_to_json(sym),
                               "vector": point, "expected": True})
                replay.append({"kind": "dual_pair_eq", "functional": f,
                               "vector": point, "value": str(bound.lower)})
        result = {"instance": instance["id"], **summary}
        path = self.workdir / f"{tag}.json"
        data, size = _write_report(path, self.name, result, replay)
        return Outcome(not notes, _digest(data), path, size, notes=notes)


# ---------------------------------------------------------------------------
# cli_reports


def _geometric(count: int) -> list[dict]:
    return [{str(n): f"1/{2 ** n}"} for n in range(1, count + 1)]


CLI_INPUTS = {
    # the run_demo.py scenarios
    "unit_box.json": {"type": "box", "default_radius": "1", "overrides": {}},
    "override_box.json": {"type": "box", "default_radius": "1", "overrides": {"1": "2"}},
    "geometric.json": {"norm": "sum", "label": "geometric", "terms": _geometric(10)},
    "canonical.json": {"norm": "sup", "label": "canonical",
                       "terms": [{str(n): "1"} for n in range(1, 11)]},
    "triangle_extreme.json": {
        "set": {"type": "finite", "points": [{}, {"1": "1"}, {"2": "1"}]},
        "norm": "sup", "point": {"1": "1"},
    },
    # scaled-up inputs
    "subset_sums12.json": {
        "set": {"type": "sign_sums", "mode": "subsets", "horizon": 12,
                "series": {"norm": "sup", "label": "canonical12",
                           "terms": [{str(n): "1"} for n in range(1, 13)]}},
        "norm": "sup",
    },
    "geometric15.json": {"norm": "sum", "label": "geometric15", "terms": _geometric(15)},
    # neighbouring terms share a coordinate: the quadratic cover-index path
    "overlap12.json": {"norm": "sup", "label": "overlap12",
                       "terms": [{str(n): "1", str(n + 1): "1"} for n in range(1, 13)]},
    "diagonal_box.json": {"type": "box", "default_radius": "1",
                          "overrides": {"1": "3", "2": "2", "3": "1/2"}},
}

# (key, argv without --out/--seed, expected outcome or None for CSV, copies per pass)
# The nine demo requests run twice per pass: they are the small requests
# users make most often, and the repeats give every run enough samples.
CLI_MIX = [
    ("demo_delta_csv", ["delta", "--in", "override_box.json", "--format", "csv", "--n", "3"], None, 2),
    ("demo_delta", ["delta", "--in", "override_box.json", "--n", "3"], "ok", 2),
    ("demo_extract", ["extract", "--in", "unit_box.json", "--epsilon", "1/10", "--n", "4"], "ok", 2),
    ("demo_refine", ["refine", "--in", "override_box.json", "--epsilon", "1/10", "--n", "4"], "ok", 2),
    ("demo_tree", ["tree", "--in", "unit_box.json", "--epsilon", "1", "--depth", "5"], "ok", 2),
    ("demo_tail_geometric", ["series", "--in", "geometric.json", "--epsilon", "1/8"], "ok", 2),
    ("demo_tail_canonical", ["series", "--in", "canonical.json", "--epsilon", "1/2"], "not_achievable", 2),
    ("demo_extreme", ["extreme", "--in", "triangle_extreme.json", "--epsilon", "1/1000000"], "ok", 2),
    ("demo_one_sided", ["one_sided", "--in", "unit_box.json", "--epsilon", "1", "--n", "4"], "ok", 2),
    ("extract_n2", ["extract", "--in", "subset_sums12.json", "--epsilon", "1/10", "--n", "2"], "ok", 1),
    ("extract_n4", ["extract", "--in", "subset_sums12.json", "--epsilon", "1/10", "--n", "4"], "ok", 1),
    ("extract_n8", ["extract", "--in", "subset_sums12.json", "--epsilon", "1/10", "--n", "8"], "ok", 1),
    ("series_geometric15", ["series", "--in", "geometric15.json", "--epsilon", "1/256"], "ok", 1),
    ("series_overlap12", ["series", "--in", "overlap12.json", "--epsilon", "1/8"], "not_achievable", 1),
    ("tree_depth7", ["tree", "--in", "override_box.json", "--epsilon", "1", "--depth", "7"], "ok", 1),
    ("delta_json", ["delta", "--in", "diagonal_box.json", "--n", "3"], "ok", 1),
    ("delta_csv", ["delta", "--in", "diagonal_box.json", "--format", "csv", "--n", "3"], None, 1),
]


def cli_fingerprint(command: str, data: bytes):
    """The mathematical content of a CLI report, without seed-dependent
    samples or formatting: what a later change must not alter."""
    if command == "csv":
        rows = [line.split(",")[:3] for line in data.decode().splitlines()[1:]]
        return rows
    report = json.loads(data)
    result = report["result"]
    if command == "delta":
        return [[r["N"], r["bound"]["lower"], r["bound"]["upper"]] for r in result["curve"]]
    if command == "extract":
        t = result["transcript"]
        return [report["outcome"], len(t["steps"]), t["delta_lower"], [s["x"] for s in t["steps"]]]
    if command == "refine":
        return result["refined"]
    if command == "tree":
        return [len(result["tree"]["nodes"]), result["tree"]["sep"]]
    if command == "series":
        tail = result.get("tail", {})
        return [report["outcome"], result["wuc_bound"], tail.get("M"), result.get("best_diameter")]
    if command == "extreme":
        return [result["eps_extreme"], result.get("eps_strong_extreme"), result.get("delta_witness")]
    if command == "one_sided":
        return result["sequence"]
    raise ValueError(command)


class CliReports:
    """The CLI mix, run in-process through ``symdex.cli.main``. The seed
    sets the CLI ``--seed`` and the order of requests in each pass."""

    name = "cli_reports"

    def __init__(self, lib: Library, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir
        for fname, obj in CLI_INPUTS.items():
            (workdir / fname).write_text(json.dumps(obj, indent=2) + "\n")
        self.cli_seed = str(seed)
        self.expected = json.loads(CLI_EXPECTED.read_text())
        self.first_digest: dict[str, str] = {}

    def _argv(self, key, argv, csv):
        argv = list(argv)
        argv[2] = str(self.workdir / argv[2])
        out = self.workdir / f"{key}.{'csv' if csv else 'json'}"
        return argv + ["--out", str(out), "--seed", self.cli_seed], out

    def make_pass(self, index: int) -> list:
        out = []
        for key, argv, expected, copies in CLI_MIX:
            full, path = self._argv(key, argv, expected is None)
            out.extend([(key, full, path, expected)] * copies)
        random.Random(self.seed * 1_000_003 + index).shuffle(out)
        return out

    def warmup(self) -> None:
        full, path = self._argv("warmup", ["refine", "--in", "override_box.json", "--n", "2"], False)
        self.lib.clear_enum_cache()
        self.lib.cli_main(full)
        self.lib.cli_main(["oracle", "--in", str(path), "--out", str(self.workdir / "warmup.verdict.json")])

    def repeat_key(self, request):
        return request[0]

    def before(self) -> None:
        self.lib.clear_enum_cache()

    def run(self, request):
        _, argv, _, _ = request
        return self.lib.cli_main(argv)

    def finish(self, request, code, tag: str) -> Outcome:
        key, argv, path, expected = request
        notes = []
        if code != 0:
            notes.append(f"exit code {code}")
        data = path.read_bytes() if path.exists() else b""
        digest = _digest(data)
        if self.first_digest.setdefault(key, digest) != digest:
            notes.append("report bytes differ from an earlier repeat")
        if code == 0:
            if expected is not None:
                outcome = json.loads(data)["outcome"]
                if outcome != expected:
                    notes.append(f"outcome {outcome!r}, expected {expected!r}")
            if cli_fingerprint("csv" if expected is None else argv[0], data) != self.expected[key]:
                notes.append("report content differs from the recorded result")
        report = path if expected is not None and code == 0 else None
        return Outcome(not notes, digest, report, len(data), command=argv[0], notes=notes)


WORKLOADS = {w.name: w for w in (FiniteLattice, HullLp, CliReports)}
