"""Deterministic rational sample points for evaluation obstructions.

Polynomial non-membership does not refute smooth membership; a point where
every generator vanishes while the remainder does not is a genuine
obstruction.  These pools make that search reproducible.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

POOL_SIZE = 800  # the 3^n grid while it is no larger, else this many random points


def candidate_points(n_vars: int) -> list[tuple[Fraction, ...]]:
    small = (Fraction(0), Fraction(1), Fraction(-1))
    points: list[tuple[Fraction, ...]] = []
    if 3 ** n_vars <= POOL_SIZE:
        points.extend(itertools.product(small, repeat=n_vars))
    else:
        rng = random.Random(20240 + n_vars)
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
        seen = set()
        while len(points) < POOL_SIZE:
            pt = tuple(rng.choice(pool) for _ in range(n_vars))
            if pt not in seen:
                seen.add(pt)
                points.append(pt)
    rng = random.Random(977 + n_vars)
    rich = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(1, 2), Fraction(-1, 2), Fraction(3)]
    for _ in range(100):
        points.append(tuple(rng.choice(rich) for _ in range(n_vars)))
    return points
