#!/usr/bin/env python3
"""Time the exact-arithmetic kernels of ``symdex.vectors``.

For 4- and 16-entry vectors this prints the median time per call, in
microseconds, of SparseVec add, sub, neg and scale, the first hash of a
fresh result, ``norm`` (sup, sum, Euclidean) and ``dual_pair``. Standard
library only.

    python scripts/bench.py                      # print the table
    python scripts/bench.py --out results.json   # also write it as JSON
    python scripts/bench.py --src OTHER/src      # time another checkout

Each figure is the median over REPEATS timed batches of BATCH calls on
random operands, drawn with seed SEED, whose supports half overlap.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SIZES = (4, 16)
BATCH = 200  # calls per timed batch
REPEATS = 31  # timed batches per figure
SEED = 5


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
    if args.out:
        report = {
            "layer": "kernels",
            "unit": "us per call, median",
            "batch": BATCH,
            "repeats": REPEATS,
            "seed": SEED,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "kernels": kernels,
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
