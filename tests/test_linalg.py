import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk.linalg import EchelonSpan, nullspace, solve_coordinates

from oracle import (DenseCoordinateFrame, DenseEchelonSpan, reference_nullspace,
                    reference_solve_coordinates)


def _random_rows(rng, count, width):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(width)]
            for _ in range(count)]


def _combine(rows, coords, width):
    return [sum((c * r[k] for c, r in zip(coords, rows)), Fraction(0)) for k in range(width)]


def _columns(rows, width):
    return [[r[c] for r in rows] for c in range(width)]


def _tagged(rows, width):
    """A span of the rows, row ``i`` tagged ``width + i``; the rows it kept."""
    span = EchelonSpan(width)
    kept = []
    for i, r in enumerate(rows):
        rank = span.rank
        if span.insert({**dict(enumerate(r)), width + i: 1}):
            kept.append(i)
        else:  # a dependent row leaves no trace
            assert span.rank == rank
    return span, kept


@pytest.mark.parametrize("seed", range(8))
def test_factored_solve_reexpands_exactly(seed):
    rng = random.Random(seed)
    width = rng.randint(2, 7)
    rows = _random_rows(rng, rng.randint(1, width), width)
    # a dependent row: it is not kept, and the span still solves over the others
    rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
    span, kept = _tagged(rows, width)
    assert len(rows) - 1 not in kept
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows]
        target = _combine(rows, coeffs, width)
        coords = solve_coordinates(span, target)
        assert coords is not None and set(coords) <= set(kept)
        assert _combine(rows, _made_dense(coords, len(rows)), width) == target


@pytest.mark.parametrize("seed", range(8))
def test_factored_solve_rejects_vectors_outside_the_span(seed):
    rng = random.Random(100 + seed)
    width = rng.randint(3, 7)
    rows = _random_rows(rng, rng.randint(1, width - 1), width)
    span = EchelonSpan(width)
    for r in rows:
        span.insert(r)
    tagged, _ = _tagged(rows, width)
    outside = next(v for v in (_random_rows(rng, 1, width)[0] for _ in range(100))
                   if not span.contains(v))
    assert solve_coordinates(tagged, outside) is None


def test_frame_is_reused_without_changing_its_rows():
    rows = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    span, _ = _tagged(rows, 2)
    before = [dict(r) for r in span.rows]
    assert solve_coordinates(span, [Fraction(1), Fraction(3)]) == {0: 1, 1: 1}
    assert solve_coordinates(span, [Fraction(0), Fraction(0)]) == {}
    assert span.rows == before


def test_a_tag_is_never_a_pivot():
    span = EchelonSpan(2, [{0: 1, 1: 1, 2: 1}])
    before = [dict(r) for r in span.rows]
    # reduces to {2: -2, 3: 1}: a tag would be the smallest entry left
    assert not span.insert({0: 2, 1: 2, 3: 1})
    assert span.rank == 1 and span.pivots == [0] and span.rows == before
    assert span.contains({0: 2, 1: 2, 3: 1}) and span.contains([2, 2])
    assert not span.contains({1: 1, 2: 1})
    assert solve_coordinates(span, [2, 2]) == {0: 2}
    # a tag-only vector is in the span (it is zero below the width) and is not kept
    assert not span.insert({3: 1}) and span.rank == 1


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
    kernel = [_made_dense(v, width) for v in nullspace(_columns(rows, width), len(rows))]
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
    if draw(st.booleans()):  # a zero row
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * width)
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

    # the kernel of the matrix, read from its columns
    columns = [c if form == "dense" else _as_map(c, form == "map with zeros")
               for c in _columns(rows, width)]
    kernel = nullspace(columns, len(rows))
    assert all(type(x) is Fraction and x for v in kernel for x in v.values())
    assert [tuple(_made_dense(v, width)) for v in kernel] == reference_nullspace(rows, width)

    # coordinates over the independent rows, each tagged by its place among them;
    # a dependent row is not kept and leaves the rank as it was
    independent = [r for r, g in zip(rows, grew) if g]
    tagged = EchelonSpan(width)
    for s, g in zip(shaped, grew):
        rank = tagged.rank
        assert tagged.insert({**(s if form != "dense" else dict(enumerate(s))),
                              width + rank: 1}) == g
        assert tagged.rank == rank + g
    ref_frame = DenseCoordinateFrame(independent, width)
    assert tagged.width == width and tagged.pivots == ref.pivots
    assert ([_made_dense(r, width + len(independent)) for r in tagged.rows]
            == ref_frame.span.rows)
    for p in probes + inside + rows:
        want = reference_solve_coordinates(ref_frame, p)
        got = [solve_coordinates(tagged, v) for v in (p, _as_map(p))]
        assert got[0] == got[1]
        assert (None if got[0] is None else _made_dense(got[0], len(independent))) == want
