import random
from fractions import Fraction

import pytest

from foliatk.linalg import CoordinateFrame, EchelonSpan, nullspace, solve_coordinates


def _random_rows(rng, count, width):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(width)]
            for _ in range(count)]


def _combine(rows, coords, width):
    return [sum((c * r[k] for c, r in zip(coords, rows)), Fraction(0)) for k in range(width)]


@pytest.mark.parametrize("seed", range(8))
def test_factored_solve_reexpands_exactly(seed):
    rng = random.Random(seed)
    width = rng.randint(2, 7)
    rows = _random_rows(rng, rng.randint(1, width), width)
    # a dependent row: the frame must still solve, with some valid coordinates
    rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
    frame = CoordinateFrame(rows, width)
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows]
        target = _combine(rows, coeffs, width)
        coords = solve_coordinates(frame, target)
        assert coords is not None and len(coords) == len(rows)
        assert _combine(rows, coords, width) == target


@pytest.mark.parametrize("seed", range(8))
def test_factored_solve_rejects_vectors_outside_the_span(seed):
    rng = random.Random(100 + seed)
    width = rng.randint(3, 7)
    rows = _random_rows(rng, rng.randint(1, width - 1), width)
    span = EchelonSpan(width)
    for r in rows:
        span.insert(r)
    frame = CoordinateFrame(rows, width)
    outside = next(v for v in (_random_rows(rng, 1, width)[0] for _ in range(100))
                   if not span.contains(v))
    assert solve_coordinates(frame, outside) is None


def test_frame_is_reused_without_changing_its_rows():
    rows = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    frame = CoordinateFrame(rows, 2)
    before = [list(r) for r in frame.span.rows]
    assert solve_coordinates(frame, [Fraction(1), Fraction(3)]) == [1, 1]
    assert solve_coordinates(frame, [Fraction(0), Fraction(0)]) == [0, 0]
    assert frame.span.rows == before


def _pivot_columns(rows, width):
    """Columns not in the span of the columns before them."""
    columns = EchelonSpan(len(rows))
    return [c for c in range(width) if columns.insert([r[c] for r in rows])]


@pytest.mark.parametrize("seed", range(12))
def test_nullspace_is_the_reduced_kernel_basis(seed):
    rng = random.Random(200 + seed)
    width = rng.randint(1, 7)
    rank = rng.randint(0, width)
    independent = _random_rows(rng, rank, width)
    # dependent rows and zero rows; taller or wider than square
    rows = independent + [
        _combine(independent, [Fraction(rng.randint(-2, 2)) for _ in independent], width)
        for _ in range(rng.randint(0, 3))
    ] + [[Fraction(0)] * width for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    span = EchelonSpan(width)
    for r in rows:
        span.insert(r)
    free = [c for c in range(width) if c not in _pivot_columns(rows, width)]
    kernel = nullspace(rows, width)
    assert len(kernel) == width - span.rank == len(free)
    for v, fc in zip(kernel, free):
        assert all(sum((a * b for a, b in zip(r, v)), Fraction(0)) == 0 for r in rows)
        assert [v[c] for c in free] == [Fraction(c == fc) for c in free]
