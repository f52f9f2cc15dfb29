"""Deterministic rational sample points for evaluation obstructions.

Polynomial non-membership does not refute smooth membership; a point where
every generator vanishes while the remainder does not is a genuine
obstruction.  These pools make that search reproducible.

The pool is built from integers: each point is an
:class:`~foliatk.poly.ExactPoint`, integer numerators over their least
common denominator, ready for the integer evaluator, and no ``Fraction`` is
made.  A search converts only the point it returns
(:meth:`~foliatk.poly.ExactPoint.fractions`).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .poly import ExactPoint

POOL_SIZE = 800  # the 3^n grid while it is no larger, else this many random points

# the rich values 0, 1, -1, 2, -2, 1/2, -1/2, 3 as numerators over 2
_RICH_HALVES = (0, 2, -2, 4, -4, 1, -1, 6)


def candidate_points(n_vars: int) -> Iterator[ExactPoint]:
    """The pool's points, in a fixed order, made as they are read.

    A search that stops at an early point builds no more of the pool.  The
    value lists have the lengths and order of the rational ones they stand
    for, so each ``rng.choice`` draws the same index.
    """
    trusted = ExactPoint._trusted
    if 3 ** n_vars <= POOL_SIZE:
        for nums in itertools.product((0, 1, -1), repeat=n_vars):
            yield trusted(nums, 1)
    else:
        rng = random.Random(20240 + n_vars)
        pool = (0, 1, -1, 2, -2)
        seen = set()
        while len(seen) < POOL_SIZE:
            nums = tuple(rng.choice(pool) for _ in range(n_vars))
            if nums not in seen:
                seen.add(nums)
                yield trusted(nums, 1)
    rng = random.Random(977 + n_vars)
    for _ in range(100):
        halves = tuple(rng.choice(_RICH_HALVES) for _ in range(n_vars))
        if any(h & 1 for h in halves):
            yield trusted(halves, 2)
        else:
            yield trusted(tuple(h >> 1 for h in halves), 1)
