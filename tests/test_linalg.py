import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk.linalg import CoordinateFrame, EchelonSpan, nullspace, solve_coordinates

from oracle import (DenseCoordinateFrame, DenseEchelonSpan, reference_nullspace,
                    reference_solve_coordinates)


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
    before = [dict(r) for r in frame.span.rows]
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


# -- sparse rows against the dense reference --------------------------------------

small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# about three entries in four are zero; ints and Fractions both occur
entries = st.tuples(st.integers(0, 3), st.one_of(small, st.integers(-3, 3))).map(
    lambda t: t[1] if t[0] == 0 else Fraction(0))


@st.composite
def matrices(draw):
    width = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=8))
    if len(rows) >= 2 and draw(st.booleans()):  # a dependent row
        c = draw(small)
        rows.append([a + c * b for a, b in zip(rows[0], rows[-1])])
    probes = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=4))
    return width, rows, probes


def _as_map(vec, keep_zeros=False):
    return {k: x for k, x in enumerate(vec) if x or keep_zeros}


def _made_dense(row, width):
    v = [Fraction(0)] * width
    for k, x in row.items():
        v[k] = x
    return v


@settings(max_examples=200, deadline=None)
@given(matrices(), st.sampled_from(["dense", "map", "map with zeros", "constructor"]))
def test_sparse_rows_match_the_dense_reference(case, form):
    width, rows, probes = case
    shaped = [r if form == "dense" else _as_map(r, form == "map with zeros") for r in rows]
    ref = DenseEchelonSpan(width)
    grew = [ref.insert(r) for r in rows]
    if form == "constructor":  # the maps inserted in order by the constructor
        span = EchelonSpan(width, shaped)
    else:
        span = EchelonSpan(width)
        assert [span.insert(s) for s in shaped] == grew
    assert span.rank == ref.rank and span.pivots == ref.pivots
    assert [_made_dense(r, width) for r in span.rows] == ref.rows
    assert all(type(x) is Fraction and x for r in span.rows for x in r.values())
    # the inputs are not changed
    assert shaped == [r if form == "dense" else _as_map(r, form == "map with zeros")
                      for r in rows]

    inside = [_combine(rows, [Fraction(i - 1) for i in range(len(rows))], width)] if rows else []
    for p in probes + inside + rows:
        want = ref.contains(p)
        assert span.contains(p) == span.contains(_as_map(p)) == want

    assert nullspace(shaped, width) == reference_nullspace(rows, width)

    frame, ref_frame = CoordinateFrame(shaped, width), DenseCoordinateFrame(rows, width)
    assert [_made_dense(r, frame.span.width) for r in frame.span.rows] == ref_frame.span.rows
    for p in probes + inside + rows:
        want = reference_solve_coordinates(ref_frame, p)
        assert solve_coordinates(frame, p) == solve_coordinates(frame, _as_map(p)) == want
