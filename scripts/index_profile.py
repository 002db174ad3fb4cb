#!/usr/bin/env python3
"""Profile the index machinery: curves for diagonal boxes and a
strategy shoot-out on random finite sets.

Prints rational values; nothing here is rounded.
"""

import random
import time
from fractions import Fraction as F

from symdex import (
    Box,
    FinitePoints,
    NormKind,
    SearchStrategy,
    SparseVec,
    default_pool,
    delta_curve,
    delta_upper,
)


def diagonal_box_curves() -> None:
    print("delta curves for diagonal boxes (sup norm)")
    for radii in ((), ((1, F(2)),), ((1, F(2)), (2, F(3, 2))), ((1, F(3)), (3, F(1, 2)))):
        box = Box(F(1), radii)
        strategy = SearchStrategy.exhaustive(default_pool(box))
        curve = delta_curve(box, 4, strategy, NormKind.SUP)
        label = dict(radii) or "{}"
        row = "  ".join(f"{r.bound.lower}..{r.bound.upper}" for r in curve)
        print(f"  overrides {label}: {row}")


def random_point(rng: random.Random) -> SparseVec:
    support = rng.sample(range(1, 5), k=rng.randint(0, 4))
    return SparseVec({i: F(rng.randint(-8, 8), rng.randint(1, 4)) for i in support})


def strategy_shootout(rounds: int = 30, seed: int = 7) -> None:
    rng = random.Random(seed)
    print(f"\nwitness-search strategies on {rounds} random finite sets (N = 2, sup norm)")
    gaps = {"greedy": 0, "beam": 0}
    timing = {"exhaustive": 0.0, "greedy": 0.0, "beam": 0.0}
    for _ in range(rounds):
        points = FinitePoints(tuple(random_point(rng) for _ in range(rng.randint(2, 7))))
        values = {}
        for name, strategy in (
            ("exhaustive", SearchStrategy.exhaustive(points.points)),
            ("greedy", SearchStrategy.greedy(points.points)),
            ("beam", SearchStrategy.beam(points.points)),
        ):
            start = time.monotonic()
            values[name] = delta_upper(points, 2, strategy, NormKind.SUP).bound.upper
            timing[name] += time.monotonic() - start
        for name in ("greedy", "beam"):
            if values[name] != values["exhaustive"]:
                gaps[name] += 1
    for name in ("exhaustive", "greedy", "beam"):
        suffix = "" if name == "exhaustive" else f", off-optimum on {gaps[name]} sets"
        print(f"  {name:<11} {timing[name]:.3f}s{suffix}")


if __name__ == "__main__":
    diagonal_box_curves()
    strategy_shootout()
