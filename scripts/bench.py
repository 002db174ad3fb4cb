#!/usr/bin/env python3
"""Time the exact-arithmetic kernels of ``symdex.vectors``, the hull LPs, procedures and the CLI.

Kernels: for 4- and 16-entry vectors, the median time per call, in
microseconds, of SparseVec add, sub, neg and scale, the first hash of a
fresh result, ``norm`` (sup, sum, Euclidean), ``dual_pair``, and
``to_json`` and ``from_json``: the report write path and the ``oracle``
parse path.

LP: for each hull shape of the ``hull_lp`` workload (2-4 generators over
2-3 coordinates), the median time in microseconds of hull membership
(``contains``), of the sup and sum ``diameter`` of a one-witness
symmetrization at a witness that is no +-generator and of
``sup_functional`` on it, each call on a new copy of the hull (a hull
keeps warm LPs, and a ``hull_lp`` request builds its own), the rows x columns of the LP each hands to phase 1 (before phase 1
adds its artificial columns), and the phase-1, phase-2 and warm dual
pivots each makes over all LP_HULLS hulls, with the tableau cells those
pivots update. Pivots are counted by wrapping ``exactlp._pivot`` here:
phase 1 is every pivot inside ``exactlp._feasible_basis``, phase 2 every
pivot of ``exactlp._simplex`` outside it, and dual pivots are those of
``exactlp._dual_simplex``; the cells of a pivot are the rows x columns
of the tableau it updates. These counts do not depend on the machine,
and equal counts show the same Bland path. It also counts the hull
membership LPs (calls of ``exactlp.WarmLp.feasible``) and the pivots
that ``delta_upper`` at N=1 under the sup norm, with exhaustive search
over ``default_pool``, makes over all LP_HULLS hulls, and the pivots,
cells, scored witness lists (counted at ``_score`` as for the procedures
below), ``WarmLp.maximum`` and ``WarmLp.feasible`` calls and phase-1 runs
(calls of ``exactlp._feasible_basis``) of all requests of the
``hull_lp`` benchmark catalogue (``perfbench/hull_catalogue.json``),
each on new hulls with an empty enumeration cache, in all and per hull
shape, with the sets they build (calls of ``symmetrize_reduce`` on
every set class, nested calls included) and the ``Fraction``s built
(calls of ``Fraction.__new__``, wrapped here for the length of a
request; the request's input parsing included).

Finite lattice: the ``symmetrize_reduce`` calls and scored witness lists
of FINITE_LATTICE_PASSES passes (24 requests each) of the
``finite_lattice`` benchmark workload at seed FINITE_LATTICE_SEED, each
request run as ``perfbench/workloads.py`` runs it with an empty
enumeration cache.

Procedures: for random finite sets of PROC_SIZES points over PROC_DIM
coordinates under each norm, the median time in milliseconds of
``eps_strong_extreme`` and of ``eps_extreme`` at every point of a set
(one figure each per set) and of ``delta_curve`` to N=2 with exhaustive
search, each call on a new copy of the set (in older checkouts a
``FinitePoints`` builds an integer table on first use and keeps it),
the number of ``_segment_portion_distance`` calls the strong-extreme
figures make, the
number of witness lists the ``delta_curve`` figures make, and the
``SparseVec`` subtractions and ``symmetrize_reduce`` calls each of the
three makes, each over all PROC_SETS sets. Functions are counted by
wrapping them here; witness lists are counted where the search scores
them, as calls of ``indexes._score``, which ``rank`` inside
``indexes._witness_search`` makes once per scored list, after its
``indexes._delta_of``: ``rank`` also sees the lists it skips once the
best list scores 0.

CLI: for every request of ``scripts/run_demo.py`` and of SCALED_REQUESTS,
the median time in milliseconds of ``symdex.cli.main``, the median time
of the ``oracle`` replay of its JSON report, the report size in bytes,
the witness lists the request scores (counted at ``_score`` as above),
the sets it builds (``symmetrize_reduce`` calls, as above), its member
pools (calls of ``sets.sample_members``: the set's ``default_pool``
members that pass ``contains``, which give the lower diameter ends
without an exact form and the separation fallback; in an older checkout
the seeded member sampler of that name, which also fed the sampled
transcript checks), counted through the names ``sets``, ``indexes`` and
``extraction`` call it by where a module has it, its
certified diameter upper ends (calls of ``diameter_upper``, counted
through the names ``sets`` and ``extraction`` call it by), its membership
tests (calls of ``sets.contains``, counted through every name a
``symdex`` module calls it by), its sign-sum
membership tests (calls of ``SignSums.contains``) and how many of them
run the bounded depth-first search (calls of ``SignSums._search``; in a
checkout without that method, the ``contains`` calls for which
``SignSums.coefficients`` is None, as that version searched exactly
then). For each ``extract`` request it also gives the median time of
``extraction.validate_transcript`` within the request, over the same
repeats. For each JSON report it also times the ``oracle`` replay and
counts, for one replay, the set parses (calls of ``sets.set_from_json``,
nested sets included), the vector parses (calls of
``SparseVec.from_json``) and the bytes of the verdict it writes.
Standard library only.

    python scripts/bench.py                      # print the tables
    python scripts/bench.py --out results.json   # also write them as JSON
    python scripts/bench.py --src OTHER/src      # time another checkout

Each kernel figure is the median over REPEATS timed batches of BATCH
calls on random operands, drawn with seed SEED, whose supports half
overlap. Each LP figure is the median over LP_REPEATS calls on each of
LP_HULLS random hulls per shape, drawn with seed SEED. Each procedure
figure is the median over PROC_REPEATS calls on each of PROC_SETS random
sets, drawn with seed SEED. Each LP, procedure and CLI call starts with
an empty enumeration cache, as a fresh process has; each CLI figure is
the median over CLI_REPEATS calls (SCALED_REPEATS for SCALED_REQUESTS).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import io
import json
import platform
import random
import statistics
import sys
import tempfile
import time
import types
from fractions import Fraction
from pathlib import Path

SIZES = (4, 16)
BATCH = 200  # calls per timed batch
REPEATS = 31  # timed batches per figure
SEED = 5
CLI_REPEATS = 15  # timed calls per CLI figure
SCALED_REPEATS = 3  # timed calls per figure of a SCALED_REQUESTS request
LP_SHAPES = tuple((k, c) for c in (2, 3) for k in (2, 3, 4))  # (generators, coordinates)
LP_HULLS = 4  # random hulls per shape
LP_REPEATS = 9  # timed calls per hull and LP figure
LP_ENTRIES = tuple(Fraction(x) for x in ("0", "1", "-1", "2", "1/2", "-3/2"))
PROC_SIZES = (2, 4, 8)  # points per random finite set
PROC_DIM = 4  # coordinates of the random points
PROC_SETS = 6  # random sets per (size, norm)
PROC_REPEATS = 5  # timed calls per set and procedure figure
PROC_EPSILONS = tuple(Fraction(x) for x in ("1/4", "1/2", "1"))  # drawn per set
FINITE_LATTICE_SEED = 7919
FINITE_LATTICE_PASSES = 8  # 192 requests
DEMO = Path(__file__).resolve().parent / "run_demo.py"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# x_n = e_n / 2^n, n = 1..15: disjoint supports, as the demo geometric series
GEOMETRIC15 = {"norm": "sum", "label": "geometric15", "terms": [{str(n): f"1/{2 ** n}"} for n in range(1, 16)]}
# x_n = e_n + e_{n+1}, n = 1..12: neighbouring terms share a coordinate,
# so the symmetrized sign-sum sets have no closed form, and with 3^12
# subset sign sums they are not enumerable either
OVERLAP12 = {
    "norm": "sup",
    "label": "overlap12",
    "terms": [{str(n): "1", str(n + 1): "1"} for n in range(1, 13)],
}
SCALED_INPUTS = {
    "geometric15.json": GEOMETRIC15,
    "subset_sums12.json": {"set": {"type": "sign_sums", "mode": "subsets", "horizon": 12,
                                   "series": {"norm": "sup", "label": "canonical12",
                                              "terms": [{str(n): "1"} for n in range(1, 13)]}},
                           "norm": "sup"},
    "overlap12.json": OVERLAP12,
    "overlap12_subsets.json": {"type": "sign_sums", "mode": "subsets", "horizon": 12, "series": OVERLAP12},
    "diagonal_box.json": {"type": "box", "default_radius": "1", "overrides": {"1": "3", "2": "2", "3": "1/2"}},
}
SCALED_REQUESTS = [
    ("series_geometric15.json", ["series", "--in", "geometric15.json", "--epsilon", "1/256", "--seed", "0"]),
    ("extract_subsets12_n8.json",
     ["extract", "--in", "subset_sums12.json", "--epsilon", "1/10", "--n", "8", "--seed", "0"]),
    ("series_overlap12.json", ["series", "--in", "overlap12.json", "--epsilon", "1/8", "--seed", "11"]),
    ("delta_overlap12_n1.json", ["delta", "--in", "overlap12_subsets.json", "--n", "1", "--seed", "0"]),
    ("delta_overlap12_n2.json", ["delta", "--in", "overlap12_subsets.json", "--n", "2", "--seed", "0"]),
    # stalls after its first step; its functional choice and near_sup
    # check run on symmetrized sets without a closed form
    ("extract_overlap12_n4.json",
     ["extract", "--in", "overlap12_subsets.json", "--epsilon", "1/10", "--n", "4", "--seed", "0"]),
    # the cli_reports workload's tree_depth7, delta_json and delta_csv
    ("tree_override7.json",
     ["tree", "--in", "override_box.json", "--epsilon", "1", "--depth", "7", "--seed", "0"]),
    ("delta_diagonal3.json", ["delta", "--in", "diagonal_box.json", "--n", "3", "--seed", "0"]),
    ("delta_diagonal3.csv",
     ["delta", "--in", "diagonal_box.json", "--format", "csv", "--n", "3", "--seed", "0"]),
]


def random_vec(vectors, rng: random.Random, size: int, offset: int):
    coords = rng.sample(range(1 + offset, 1 + offset + 2 * size), k=size)
    return vectors.SparseVec({i: Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 12)) for i in coords})


def timed(calls):
    """A sample function: runs ``calls()`` once, returns the elapsed ns."""
    def sample() -> int:
        start = time.perf_counter_ns()
        calls()
        return time.perf_counter_ns() - start
    return sample


def kernel_samples(vectors, size: int, rng: random.Random) -> dict:
    """{kernel name: sample function timing BATCH calls} for one size."""
    left = [random_vec(vectors, rng, size, 0) for _ in range(BATCH)]
    right = [random_vec(vectors, rng, size, size // 2) for _ in range(BATCH)]
    factors = [Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)) for _ in range(BATCH)]
    pairs = list(zip(left, right))
    norm, dual_pair, kinds = vectors.norm, vectors.dual_pair, vectors.NormKind
    from_json, written = vectors.SparseVec.from_json, [a.to_json() for a in left]

    def first_hash() -> int:
        fresh = [v + vectors.ZERO for v in left]  # results not hashed yet
        start = time.perf_counter_ns()
        for v in fresh:
            hash(v)
        return time.perf_counter_ns() - start

    return {
        "add": timed(lambda: [a + b for a, b in pairs]),
        "sub": timed(lambda: [a - b for a, b in pairs]),
        "neg": timed(lambda: [-a for a in left]),
        "scale": timed(lambda: [a.scale(c) for a, c in zip(left, factors)]),
        "first_hash": first_hash,
        "norm_sup": timed(lambda: [norm(a, kinds.SUP) for a in left]),
        "norm_sum": timed(lambda: [norm(a, kinds.SUM) for a in left]),
        "norm_euclid": timed(lambda: [norm(a, kinds.EUCLID) for a in left]),
        "dual_pair": timed(lambda: [dual_pair(a, b) for a, b in pairs]),
        "to_json": timed(lambda: [a.to_json() for a in left]),
        "from_json": timed(lambda: [from_json(obj) for obj in written]),
    }


def measure(vectors) -> dict:
    """{kernel name: {size: median us per call}}."""
    rng = random.Random(SEED)
    results: dict[str, dict[str, float]] = {}
    for size in SIZES:
        for name, sample in kernel_samples(vectors, size, rng).items():
            sample()  # warm up
            ns = statistics.median(sample() for _ in range(REPEATS))
            results.setdefault(name, {})[str(size)] = round(ns / BATCH / 1000, 3)
    return results


def random_hull(symdex, rng: random.Random, k: int, c: int):
    """A hull of ``k`` distinct generators over coordinates 1..c, a member
    of it that is no +-generator (the witness: the hull scores a
    +-generator by a closed form, so the LP figures would mix in calls
    that solve no LP), a probe inside it, one likely outside, and a
    functional over the same coordinates."""
    def vec():
        return symdex.SparseVec({i: rng.choice(LP_ENTRIES) for i in range(1, c + 1)})

    gens: set = set()
    while len(gens) < k:
        gens.add(vec())
    hull = symdex.AbsConvHull(tuple(gens))

    def combination(scale: Fraction):
        weights = [rng.randint(-2, 2) for _ in hull.points]
        total = sum(abs(w) for w in weights) or 1
        return symdex.linear_combination(zip([scale * Fraction(w, total) for w in weights], hull.points))

    signed = {q for p in hull.points for q in (p, -p)}
    witness = combination(Fraction(1))
    while witness in signed:
        witness = combination(Fraction(1))
    return hull, witness, [combination(Fraction(1, 2)), combination(Fraction(3, 2))], vec()


def lp_tableaus(exactlp, call) -> list[list[int]]:
    """[rows, columns] of each LP that ``call()`` hands to phase 1."""
    phase_one, seen = exactlp._feasible_basis, []

    def recording(rows, rhs, n):
        seen.append([len(rows), n])
        return phase_one(rows, rhs, n)

    exactlp._feasible_basis = recording
    try:
        call()
    finally:
        exactlp._feasible_basis = phase_one
    return seen


def lp_pivots(exactlp, call) -> list[int]:
    """[phase-1, phase-2, warm dual] pivots that ``call()`` makes, counted
    by wrapping ``exactlp._pivot``, then the tableau cells they update.
    Phase 1 is every pivot inside ``_feasible_basis`` (its ``_simplex``
    and the artificial drive-outs)."""
    phases = [("_feasible_basis", 0), ("_simplex", 1), ("_dual_simplex", 2)]
    originals = [getattr(exactlp, name) for name, _ in phases]
    pivot = exactlp._pivot
    counts, phase = [0, 0, 0, 0], [None]

    def in_phase(index, solve):
        def run(*args):
            outer = phase[0]
            if outer is None:  # the outermost phase owns nested pivots
                phase[0] = index
            try:
                return solve(*args)
            finally:
                phase[0] = outer
        return run

    def counted(tableau, *args):
        counts[phase[0]] += 1
        counts[3] += len(tableau) * len(tableau[0])
        return pivot(tableau, *args)

    exactlp._pivot = counted
    for (name, index), solve in zip(phases, originals):
        setattr(exactlp, name, in_phase(index, solve))
    try:
        call()
    finally:
        exactlp._pivot = pivot
        for (name, _), solve in zip(phases, originals):
            setattr(exactlp, name, solve)
    return counts


def add_pivots(total: list[int], counts: list[int]) -> None:
    """Add ``lp_pivots`` figures to a running total."""
    for index, count in enumerate(counts):
        total[index] += count


def load_workloads():
    """``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def measure_catalogue() -> dict:
    """Pivots, cells, scored witness lists, warm LP calls, phase-1 runs
    and ``Fraction`` constructions of every request of the hull_lp
    catalogue, each run as ``perfbench/workloads.py`` runs it, on new
    hulls with an empty enumeration cache, in all and per hull shape
    (the catalogue's ``shape``: coordinates, generators and norm)."""
    import symdex
    from symdex import exactlp, indexes, sets

    workloads = load_workloads()
    lib = types.SimpleNamespace(symdex=symdex)
    cache = getattr(sets, "_ENUM_CACHE", {})
    instances = json.loads(workloads.HULL_CATALOGUE.read_text())["instances"]
    lp_calls = ("maximum_calls", "feasible_calls", "phase1_runs")

    def empty() -> dict:
        return {"requests": 0, "scored_lists": 0, "symmetrize_reduce_calls": 0, "fractions": 0,
                **dict.fromkeys(lp_calls, 0), "counts": [0, 0, 0, 0]}

    total, shapes = empty(), {}
    for instance in instances:
        cache.clear()
        counts = lp_pivots(exactlp, lambda: workloads.hull_request(lib, instance))
        cache.clear()
        scored, fractions, *calls = count_calls(
            lambda: workloads.hull_request(lib, instance), (indexes, "_score"), (Fraction, "__new__"),
            (exactlp.WarmLp, "maximum"), (exactlp.WarmLp, "feasible"), (exactlp, "_feasible_basis"),
            *set_builds(sets))
        for row in (total, shapes.setdefault(instance["shape"], empty())):
            row["requests"] += 1
            row["scored_lists"] += scored
            row["fractions"] += fractions
            row["symmetrize_reduce_calls"] += sum(calls[len(lp_calls):])
            for name, count in zip(lp_calls, calls):
                row[name] += count
            add_pivots(row["counts"], counts)
    for row in (total, *shapes.values()):
        counts = row.pop("counts")
        row["pivots"], row["cells"] = counts[:3], counts[3]
    return {**total, "shapes": dict(sorted(shapes.items()))}


def measure_lp() -> dict:
    """{"<k>gen_<c>coord": figures} for each (k, c) of LP_SHAPES."""
    import symdex
    from symdex import exactlp, sets

    cache = getattr(sets, "_ENUM_CACHE", {})
    rng = random.Random(SEED)
    results: dict[str, dict] = {}
    for k, c in LP_SHAPES:
        samples: dict[str, list[float]] = {}
        pivots: dict[str, list[int]] = {}
        search_lps, search_pivots = 0, [0, 0, 0, 0]
        for _ in range(LP_HULLS):
            hull, witness, probes, f = random_hull(symdex, rng, k, c)
            witnesses = symdex.symmetrize(hull, [witness]).witnesses

            def contains():
                fresh = symdex.AbsConvHull(hull.points)
                return [symdex.contains(fresh, v) for v in probes]

            def sym():
                return symdex.Symmetrized(symdex.AbsConvHull(hull.points), witnesses)

            calls = {
                "contains": contains,
                "diameter_sup": lambda: symdex.diameter(sym(), symdex.NormKind.SUP),
                "diameter_sum": lambda: symdex.diameter(sym(), symdex.NormKind.SUM),
                "sup_functional": lambda: symdex.sup_functional(f, sym()),
            }
            for name, call in calls.items():
                per_call = len(probes) if name == "contains" else 1
                ns = []
                for _ in range(LP_REPEATS + 1):
                    cache.clear()
                    start = time.perf_counter_ns()
                    call()
                    ns.append((time.perf_counter_ns() - start) / per_call)
                samples.setdefault(name, []).extend(ns[1:])  # the first call warms up
                cache.clear()
                add_pivots(pivots.setdefault(name, [0, 0, 0, 0]), lp_pivots(exactlp, call))
            strategy = symdex.SearchStrategy.exhaustive(symdex.default_pool(hull))

            def search():
                return symdex.delta_upper(symdex.AbsConvHull(hull.points), 1, strategy, symdex.NormKind.SUP)

            cache.clear()
            search_lps += count_calls(search, (exactlp.WarmLp, "feasible"))[0]
            cache.clear()
            add_pivots(search_pivots, lp_pivots(exactlp, search))
        row = {f"{name}_us": round(statistics.median(ns) / 1000, 1) for name, ns in samples.items()}
        for name, counts in [*pivots.items(), ("delta_upper", search_pivots)]:
            row[f"{name}_pivots"], row[f"{name}_cells"] = counts[:3], counts[3]
        row["delta_upper_contains_lps"] = search_lps
        # the tableau shape depends only on (k, c): read it off the last hull
        cache.clear()
        row["contains_tableau"] = lp_tableaus(exactlp, calls["contains"])[0]
        cache.clear()
        row["symmetrized_tableau"] = lp_tableaus(exactlp, calls["sup_functional"])[0]
        results[f"{k}gen_{c}coord"] = row
    return results


def random_finite_set(symdex, rng: random.Random, count: int):
    """``count`` random points over coordinates 1..PROC_DIM (duplicates merge)."""
    def vec():
        support = rng.sample(range(1, PROC_DIM + 1), k=rng.randint(0, PROC_DIM))
        return symdex.SparseVec({i: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for i in support})

    return symdex.FinitePoints(tuple(vec() for _ in range(count)))


def count_calls(call, *targets) -> list[int]:
    """How many times ``call()`` calls ``module.<name>`` for each
    ``(module, name)`` of ``targets`` (a class for a method or a
    classmethod), counted by wrapping them for the length of the call."""
    originals = [inspect.getattr_static(module, name) for module, name in targets]
    own = [name in vars(module) for module, name in targets]  # else inherited
    calls = [0] * len(targets)

    def counting(index):
        original = originals[index]
        if isinstance(original, classmethod):
            method = original.__func__

            def counted_class(cls, *args, **kwargs):
                calls[index] += 1
                return method(cls, *args, **kwargs)
            return classmethod(counted_class)

        def counted(*args, **kwargs):
            calls[index] += 1
            return original(*args, **kwargs)
        return counted

    for index, (module, name) in enumerate(targets):
        setattr(module, name, counting(index))
    try:
        call()
    finally:
        for (module, name), original, mine in zip(targets, originals, own):
            if mine:
                setattr(module, name, original)
            else:
                delattr(module, name)
    return calls


def set_builds(sets) -> list[tuple]:
    """``count_calls`` targets that count the sets built: the
    ``symmetrize_reduce`` method of every set class (each wrapped on its
    own class, so a call that reaches an inherited one via ``super`` is
    counted once)."""
    return [(cls, "symmetrize_reduce") for cls in sets._SET_TYPES.values()]


def scored_lists(call) -> int:
    """How many witness lists ``call()`` scores: calls of
    ``indexes._score``, which the search's ``rank`` makes once for each
    list it scores and not for the lists it skips once the best scores 0."""
    from symdex import indexes

    return count_calls(call, (indexes, "_score"))[0]


def measure_procedures() -> dict:
    """{"<n>pts_<norm>": figures} for each size of PROC_SIZES and each norm."""
    import symdex
    from symdex import extraction, sets

    cache = getattr(sets, "_ENUM_CACHE", {})
    rng = random.Random(SEED)
    results: dict[str, dict] = {}
    for count in PROC_SIZES:
        for kind in symdex.NormKind:
            samples: dict[str, list[float]] = {}
            segment_calls = lists = 0
            subs = dict.fromkeys(("strong_extreme", "extreme", "delta_curve"), 0)
            builds = dict.fromkeys(subs, 0)
            for _ in range(PROC_SETS):
                points = random_finite_set(symdex, rng, count)
                eps = rng.choice(PROC_EPSILONS)
                pool = symdex.SearchStrategy.exhaustive(symdex.default_pool(points))

                def at_every_point(procedure):
                    fresh = symdex.FinitePoints(points.points)
                    return [procedure(fresh, x, eps, kind) for x in fresh.points]

                procedures = {
                    "strong_extreme": lambda: at_every_point(symdex.eps_strong_extreme),
                    "extreme": lambda: at_every_point(symdex.eps_extreme),
                    "delta_curve": lambda: symdex.delta_curve(symdex.FinitePoints(points.points), 2, pool, kind),
                }
                for name, call in procedures.items():
                    ns = []
                    for _ in range(PROC_REPEATS + 1):
                        cache.clear()
                        start = time.perf_counter_ns()
                        call()
                        ns.append(time.perf_counter_ns() - start)
                    samples.setdefault(name, []).extend(ns[1:])  # the first call warms up
                segment_calls += count_calls(
                    procedures["strong_extreme"], (extraction, "_segment_portion_distance"))[0]
                cache.clear()
                lists += scored_lists(procedures["delta_curve"])
                for name, call in procedures.items():
                    cache.clear()
                    sub, *reduce_calls = count_calls(call, (symdex.SparseVec, "__sub__"), *set_builds(sets))
                    subs[name] += sub
                    builds[name] += sum(reduce_calls)
            row = {f"{name}_ms": round(statistics.median(ns) / 1e6, 3) for name, ns in samples.items()}
            row["segment_calls"] = segment_calls
            row["scored_lists"] = lists
            row.update((f"{name}_subs", count) for name, count in subs.items())
            row.update((f"{name}_symmetrize_reduce", count) for name, count in builds.items())
            results[f"{count}pts_{kind.value}"] = row
    return results


def measure_finite_lattice() -> dict:
    """The requests, ``symmetrize_reduce`` calls and scored witness lists
    of FINITE_LATTICE_PASSES passes of the finite_lattice workload at
    FINITE_LATTICE_SEED, each request with an empty enumeration cache."""
    import symdex
    from symdex import indexes, sets

    cache = getattr(sets, "_ENUM_CACHE", {})
    workload = load_workloads().FiniteLattice(types.SimpleNamespace(symdex=symdex), FINITE_LATTICE_SEED, None)
    row = {"seed": FINITE_LATTICE_SEED, "requests": 0, "symmetrize_reduce_calls": 0, "scored_lists": 0}
    for index in range(FINITE_LATTICE_PASSES):
        for request in workload.make_pass(index):
            cache.clear()
            scored, *reduce_calls = count_calls(lambda: workload.run(request), (indexes, "_score"),
                                                *set_builds(sets))
            row["requests"] += 1
            row["scored_lists"] += scored
            row["symmetrize_reduce_calls"] += sum(reduce_calls)
    return row


def membership_tests(sets) -> list[tuple]:
    """``count_calls`` targets that count the calls of ``sets.contains``:
    that function under its name in every loaded ``symdex`` module, so a
    call through ``from .sets import contains`` is counted too."""
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "symdex" or name.startswith("symdex.")]
    return [(module, "contains") for module in modules if vars(module).get("contains") is sets.contains]


def sign_sum_searches(call) -> tuple[int, int]:
    """The ``SignSums.contains`` calls ``call()`` makes, and how many of
    them run the bounded search (see the module docstring)."""
    from symdex.sets import SignSums

    if hasattr(SignSums, "_search"):
        return tuple(count_calls(call, (SignSums, "contains"), (SignSums, "_search")))
    searched: list[bool] = []
    original = SignSums.contains

    def counted(expr, v):
        searched.append(expr.coefficients(v) is None)
        return original(expr, v)

    SignSums.contains = counted
    try:
        call()
    finally:
        SignSums.contains = original
    return len(searched), sum(searched)


def median_ms(call, before, repeats: int = CLI_REPEATS) -> float:
    """Median ms of ``call()`` over ``repeats`` runs after one warm-up;
    ``before()`` runs ahead of each, outside the timer."""
    samples = []
    for _ in range(repeats + 1):
        before()
        start = time.perf_counter_ns()
        code = call()
        samples.append(time.perf_counter_ns() - start)
        if code != 0:
            raise SystemExit(f"bench: a CLI request exited {code}")
    return round(statistics.median(samples[1:]) / 1e6, 3)


def median_inner_ms(call, before, module, name: str, repeats: int) -> float:
    """Median ms spent in ``module.<name>`` during ``call()`` over
    ``repeats`` runs after one warm-up; ``before()`` runs ahead of each."""
    original = getattr(module, name)
    spent = [0]

    def timed(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return original(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter_ns() - start

    setattr(module, name, timed)
    samples = []
    try:
        for _ in range(repeats + 1):
            before()
            spent[0] = 0
            call()
            samples.append(spent[0])
    finally:
        setattr(module, name, original)
    return round(statistics.median(samples[1:]) / 1e6, 3)


def measure_cli() -> dict:
    """{report name: {"main_ms", "oracle_ms", "report_bytes", "scored_lists",
    "pool_calls", "diameter_upper_calls", "contains_calls", "sign_sum_contains",
    "sign_sum_searches", "oracle_set_parses", "oracle_vector_parses",
    "verdict_bytes"}, plus "validate_ms" for extract} over the requests
    of run_demo.py and of SCALED_REQUESTS (CSV reports have no oracle
    replay, so their rows have no oracle figures)."""
    spec = importlib.util.spec_from_file_location("run_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)  # imports symdex.cli from the timed checkout
    from symdex import extraction, indexes, sets
    from symdex.vectors import SparseVec

    cache = getattr(sets, "_ENUM_CACHE", {})
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        work = Path(tmp)
        for name, payload in {**demo.INPUTS, **SCALED_INPUTS}.items():
            (work / name).write_text(json.dumps(payload, indent=2) + "\n")
        requests = [(outname, [*argv, "--seed", "0"], CLI_REPEATS) for outname, argv in demo.REQUESTS]
        requests += [(outname, argv, SCALED_REPEATS) for outname, argv in SCALED_REQUESTS]
        for outname, argv, repeats in requests:
            report = work / outname
            request = [argv[0], argv[1], str(work / argv[2]), *argv[3:], "--out", str(report)]
            row = {"main_ms": median_ms(lambda: demo.main(request), cache.clear, repeats)}
            cache.clear()
            row["scored_lists"] = scored_lists(lambda: demo.main(request))
            cache.clear()
            row["symmetrize_reduce_calls"] = sum(count_calls(lambda: demo.main(request), *set_builds(sets)))
            cache.clear()
            pools = [(module, "sample_members") for module in (sets, indexes, extraction)
                     if hasattr(module, "sample_members")]
            counts = count_calls(lambda: demo.main(request), *pools,
                                 *((module, "diameter_upper") for module in (sets, extraction)))
            row["pool_calls"] = sum(counts[:len(pools)])
            row["diameter_upper_calls"] = sum(counts[len(pools):])
            if argv[0] == "extract":
                row["validate_ms"] = median_inner_ms(lambda: demo.main(request), cache.clear, extraction,
                                                     "validate_transcript", repeats)
            cache.clear()
            row["contains_calls"] = sum(count_calls(lambda: demo.main(request), *membership_tests(sets)))
            cache.clear()
            row["sign_sum_contains"], row["sign_sum_searches"] = sign_sum_searches(lambda: demo.main(request))
            row["report_bytes"] = report.stat().st_size
            if outname.endswith(".json"):
                verdict = work / f"verdict_{outname}"
                replay = ["oracle", "--in", str(report), "--out", str(verdict)]
                row["oracle_ms"] = median_ms(lambda: demo.main(replay), cache.clear, repeats)
                cache.clear()
                row["oracle_set_parses"], row["oracle_vector_parses"] = count_calls(
                    lambda: demo.main(replay), (sets, "set_from_json"), (SparseVec, "from_json"))
                row["verdict_bytes"] = verdict.stat().st_size
            results[outname] = row
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the symdex package to time")
    parser.add_argument("--out", type=Path, help="also write the results to this JSON file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    from symdex import vectors

    kernels = measure(vectors)
    print(f"{'kernel':<12}" + "".join(f"{f'{size} entries':>14}" for size in SIZES) + "   (median us per call)")
    for name, by_size in kernels.items():
        print(f"{name:<12}" + "".join(f"{by_size[str(size)]:>14.2f}" for size in SIZES))
    lp = measure_lp()
    print(f"\n{'hull shape':<14}{'contains':>10}{'diam sup':>10}{'diam sum':>10}{'sup f':>10}"
          f"{'contains LP':>13}{'sym LP':>9}   (median us; rows x columns)")
    for name, row in lp.items():
        print(f"{name:<14}" + "".join(f"{row[key]:>10.1f}" for key in
                                      ("contains_us", "diameter_sup_us", "diameter_sum_us", "sup_functional_us"))
              + "".join(f"{'x'.join(map(str, row[key])):>{w}}" for key, w in
                        (("contains_tableau", 13), ("symmetrized_tableau", 9))))
    print(f"\n{'hull shape':<14}{'contains':>12}{'diam sup':>12}{'diam sum':>12}{'sup f':>12}{'search':>16}"
          f"{'LPs':>6}   (phase-1/phase-2/dual pivots, and delta_upper membership LPs, over {LP_HULLS} hulls)")
    for name, row in lp.items():
        print(f"{name:<14}" + "".join(f"{'/'.join(map(str, row[key])):>12}" for key in
                                      ("contains_pivots", "diameter_sup_pivots", "diameter_sum_pivots",
                                       "sup_functional_pivots"))
              + f"{'/'.join(map(str, row['delta_upper_pivots'])):>16}{row['delta_upper_contains_lps']:>6}")
    print(f"\n{'hull shape':<14}{'contains':>12}{'diam sup':>12}{'diam sum':>12}{'sup f':>12}{'search':>16}"
          f"   (tableau cells the pivots update, over {LP_HULLS} hulls)")
    for name, row in lp.items():
        print(f"{name:<14}" + "".join(f"{row[key]:>12}" for key in
                                      ("contains_cells", "diameter_sup_cells", "diameter_sum_cells",
                                       "sup_functional_cells"))
              + f"{row['delta_upper_cells']:>16}")
    catalogue = measure_catalogue()
    print(f"\n{'hull_lp shape':<14}{'requests':>10}{'lists':>8}{'pivots':>18}{'cells':>10}{'max':>7}{'feas':>7}"
          f"{'ph-1':>7}{'builds':>8}{'Fractions':>11}   (scored witness lists, phase-1/phase-2/dual pivots, "
          "tableau cells, WarmLp.maximum and WarmLp.feasible calls, phase-1 runs, symmetrize_reduce calls and "
          "Fraction constructions over the catalogue)")
    for name, row in [*catalogue["shapes"].items(), ("all", catalogue)]:
        print(f"{name:<14}{row['requests']:>10}{row['scored_lists']:>8}"
              f"{'/'.join(map(str, row['pivots'])):>18}{row['cells']:>10}{row['maximum_calls']:>7}"
              f"{row['feasible_calls']:>7}{row['phase1_runs']:>7}{row['symmetrize_reduce_calls']:>8}"
              f"{row['fractions']:>11}")
    lattice = measure_finite_lattice()
    print(f"\nfinite_lattice seed {lattice['seed']}: {lattice['requests']} requests, "
          f"{lattice['symmetrize_reduce_calls']} symmetrize_reduce calls, {lattice['scored_lists']} scored lists")
    procedures = measure_procedures()
    print(f"\n{'finite set':<14}{'strong':>10}{'extreme':>10}{'curve':>10}{'segments':>10}{'lists':>8}"
          f"{'subs':>18}{'builds':>14}   (median ms; segment scans, scored witness lists and strong/extreme/curve "
          f"subtractions and symmetrize_reduce calls over {PROC_SETS} sets)")
    for name, row in procedures.items():
        subs, builds = ("/".join(str(row[f"{key}_{suffix}"]) for key in ("strong_extreme", "extreme", "delta_curve"))
                        for suffix in ("subs", "symmetrize_reduce"))
        print(f"{name:<14}{row['strong_extreme_ms']:>10.3f}{row['extreme_ms']:>10.3f}{row['delta_curve_ms']:>10.3f}"
              f"{row['segment_calls']:>10}{row['scored_lists']:>8}{subs:>18}{builds:>14}")
    cli = measure_cli()
    print(f"\n{'report':<26}{'main ms':>10}{'oracle ms':>11}{'valid ms':>10}{'bytes':>9}{'lists':>8}{'pools':>7}"
          f"{'diam up':>9}{'contains':>10}{'sign in':>9}{'search':>8}{'builds':>8}{'sets':>6}{'vecs':>6}"
          f"{'verdict':>9}   (median; validate_transcript ms of extract; scored witness lists, member pools, "
          "diameter upper ends, membership tests, sign-sum contains and searches, symmetrize_reduce calls; "
          "the oracle's set and vector parses and verdict bytes)")
    for name, row in cli.items():
        oracle = f"{row['oracle_ms']:>11.2f}" if "oracle_ms" in row else f"{'-':>11}"
        validate = f"{row['validate_ms']:>10.2f}" if "validate_ms" in row else f"{'-':>10}"
        parses = "".join(f"{row.get(key, '-'):>{w}}" for key, w in
                         (("oracle_set_parses", 6), ("oracle_vector_parses", 6), ("verdict_bytes", 9)))
        print(f"{name:<26}{row['main_ms']:>10.2f}{oracle}{validate}{row['report_bytes']:>9}{row['scored_lists']:>8}"
              f"{row['pool_calls']:>7}{row['diameter_upper_calls']:>9}{row['contains_calls']:>10}"
              f"{row['sign_sum_contains']:>9}{row['sign_sum_searches']:>8}{row['symmetrize_reduce_calls']:>8}{parses}")
    if args.out:
        report = {
            "units": {
                "kernels": "us per call, median",
                "lp": "us per call on a new copy of the hull, median; tableau as [rows, columns]; pivots as "
                      "[phase 1, phase 2, warm dual] and cells as the rows x columns those pivots update, "
                      "summed over lp_hulls hulls, as are delta_upper_contains_lps",
                "catalogue": "scored witness lists, pivots as [phase 1, phase 2, warm dual] and the cells they "
                             "update, WarmLp.maximum and WarmLp.feasible calls, phase-1 runs, "
                             "symmetrize_reduce calls and Fraction constructions, summed over every request "
                             "of perfbench/hull_catalogue.json and per shape",
                "finite_lattice": "symmetrize_reduce calls and scored witness lists summed over the requests "
                                  "of the finite_lattice workload's first passes at its seed",
                "procedures": "ms per call on a new copy of the set, median; segment_calls, scored_lists, "
                              "the SparseVec subtractions *_subs and the symmetrize_reduce calls "
                              "*_symmetrize_reduce summed over proc_sets sets",
                "cli": "ms per call, median, and validate_ms the median ms of validate_transcript within an "
                       "extract request; report size in bytes; scored_lists, symmetrize_reduce_calls, "
                       "pool_calls, diameter_upper_calls, contains_calls, sign_sum_contains and "
                       "sign_sum_searches per request; oracle_set_parses, oracle_vector_parses and "
                       "verdict_bytes per oracle replay of the report",
            },
            "batch": BATCH,
            "repeats": REPEATS,
            "cli_repeats": CLI_REPEATS,
            "scaled_repeats": SCALED_REPEATS,
            "lp_hulls": LP_HULLS,
            "lp_repeats": LP_REPEATS,
            "proc_sets": PROC_SETS,
            "proc_repeats": PROC_REPEATS,
            "seed": SEED,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "kernels": kernels,
            "lp": lp,
            "catalogue": catalogue,
            "finite_lattice": lattice,
            "procedures": procedures,
            "cli": cli,
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
