"""Deterministic rational sample points for evaluation obstructions.

Polynomial non-membership does not refute smooth membership; a point where
every generator vanishes while the remainder does not is a genuine
obstruction.  These pools make that search reproducible.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

POOL_SIZE = 800  # the 3^n grid while it is no larger, else this many random points


def candidate_points(n_vars: int) -> Iterator[tuple[Fraction, ...]]:
    """The pool's points, in a fixed order, made as they are read.

    A search that stops at an early point builds no more of the pool.
    """
    small = (Fraction(0), Fraction(1), Fraction(-1))
    if 3 ** n_vars <= POOL_SIZE:
        yield from itertools.product(small, repeat=n_vars)
    else:
        rng = random.Random(20240 + n_vars)
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
        seen = set()
        while len(seen) < POOL_SIZE:
            pt = tuple(rng.choice(pool) for _ in range(n_vars))
            if pt not in seen:
                seen.add(pt)
                yield pt
    rng = random.Random(977 + n_vars)
    rich = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(1, 2), Fraction(-1, 2), Fraction(3)]
    for _ in range(100):
        yield tuple(rng.choice(rich) for _ in range(n_vars))
