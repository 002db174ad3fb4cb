#!/usr/bin/env python3
"""Regenerate hull_catalogue.json: the hull_lp instances and their exact results.

The recorded results are the reference the hull_lp workload checks
against. An exact LP optimum cannot legitimately change, so rerun this
only to change the instances themselves, never to absorb a new answer:

    python3 perfbench/make_hull_catalogue.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import HULL_CATALOGUE, Library, hull_request, hull_summary  # noqa: E402

CATALOGUE_SEED = 20161
PASSES = 24
# (coordinates, generators, norm, requests per pass): 2-4 generators over
# 2-3 coordinates. The sum norm needs 2^c sign-pattern LPs per witness
# list and the sup norm 2c, so the coordinate count sets both LP size and
# LP count. The smallest hulls come twice per pass, which keeps a pass
# short enough for every run to time at least 100 requests.
SHAPES = [
    (2, 2, "sup", 2), (2, 2, "sum", 2), (2, 3, "sup", 1), (2, 3, "sum", 1),
    (2, 4, "sup", 1), (3, 2, "sup", 1), (3, 2, "sum", 1),
]


def _vector(rng, coords, values):
    support = rng.sample(coords, k=rng.randint(1, len(coords)))
    return {str(i): str(rng.choice(values)) for i in sorted(support)}


def make_instance(rng, c, k, norm, serial):
    coords = list(range(1, c + 1))
    entries = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 1, 2)]
    while True:
        generators = [_vector(rng, coords, entries) for _ in range(k)]
        used = {int(i) for g in generators for i in g}
        distinct = {json.dumps(g, sort_keys=True) for g in generators}
        if used == set(coords) and len(distinct) == k:
            break
    witness = {i: str(Fraction(x) / 2) for i, x in generators[0].items()}
    probe_values = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (2, 3, 4)]
    return {
        "id": f"c{c}k{k}-{norm}-{serial:02d}",
        "shape": f"c{c}k{k}-{norm}",
        "norm": norm,
        "generators": generators,
        "witness": witness,
        "probes": [_vector(rng, coords, probe_values) for _ in range(2)],
        "functionals": [_vector(rng, coords, [-2, -1, 1, 2]) for _ in range(2)],
    }


def main() -> int:
    lib = Library()
    rng = random.Random(CATALOGUE_SEED)
    instances = []
    for c, k, norm, per_pass in SHAPES:
        for serial in range(PASSES * per_pass):
            inst = make_instance(rng, c, k, norm, serial)
            inst["expected"] = hull_summary(hull_request(lib, inst))
            instances.append(inst)
        print(f"c{c}k{k}-{norm}: {PASSES * per_pass} instances", flush=True)
    catalogue = {
        "catalogue_seed": CATALOGUE_SEED,
        "shapes": {f"c{c}k{k}-{norm}": per_pass for c, k, norm, per_pass in SHAPES},
        "instances": instances,
    }
    HULL_CATALOGUE.write_text(json.dumps(catalogue, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
