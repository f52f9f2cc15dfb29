"""Small exact linear algebra over the rationals and over polynomial rings.

Rational vectors are sparse: an :class:`EchelonSpan` row is a
``{column: Fraction}`` map of its nonzero entries, and a reduction walks only
those entries.  Every entry point takes a dense sequence or such a map, so a
caller whose vectors are mostly zero (evaluated syzygies, bracket classes,
unit vectors) never builds or scans the zeros.  A row's pivot is its smallest
nonzero column, as in dense elimination, so the pivots and the row values are
exactly the dense ones.  One sparse row update, :func:`subtract_scaled`,
serves the reduction, :func:`nullspace`'s back-substitution and the bracket
classes of :mod:`~foliatk.foliation`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .poly import Polynomial, sum_of_products

_ZERO = Fraction(0)
_ONE = Fraction(1)

Vector = Union[Sequence[Fraction], dict[int, Fraction]]  # dense, or the nonzero entries


def _fractions(vec: Sequence) -> list[Fraction]:
    """A fresh list of the entries as ``Fraction``s; those that are stay as they are."""
    return [x if x.__class__ is Fraction else Fraction(x) for x in vec]


def _sparse(vec: Vector) -> dict[int, Fraction]:
    """A fresh ``{column: Fraction}`` map of the nonzero entries of a dense
    sequence or of a map."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {k: x if x.__class__ is Fraction else Fraction(x) for k, x in items if x}


def subtract_scaled(vec: dict[int, Fraction], f: Fraction, row: dict[int, Fraction]) -> None:
    """``vec -= f * row`` in place, dropping the entries that cancel: the one
    sparse row update."""
    get = vec.get
    for k, r in row.items():
        s = get(k, _ZERO) - f * r
        if s:
            vec[k] = s
        else:
            del vec[k]


class EchelonSpan:
    """Incremental row span over Q with exact rank queries.

    ``rows[i]`` maps columns to the nonzero entries of the ``i``-th row,
    which is 1 at its pivot ``pivots[i]``, its smallest column, and 0 at the
    pivots of the rows before it.  ``vectors`` are inserted in order.
    """

    def __init__(self, width: int, vectors: Sequence[Vector] = ()):
        self.width = width
        self.rows: list[dict[int, Fraction]] = []
        self.pivots: list[int] = []
        for vec in vectors:
            self.insert(vec)

    def _reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        for row, piv in zip(self.rows, self.pivots):
            f = vec.get(piv)
            if f is not None:
                subtract_scaled(vec, f, row)
        return vec

    def insert(self, vec: Vector) -> bool:
        """Add a vector; returns True iff it enlarged the span."""
        v = self._reduce(_sparse(vec))
        if not v:
            return False
        piv = min(v)
        inv = _ONE / v[piv]
        self.rows.append({k: x * inv for k, x in v.items()})
        self.pivots.append(piv)
        return True

    def contains(self, vec: Vector) -> bool:
        return not self._reduce(_sparse(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


def nullspace(rows: Sequence[Vector], width: int) -> list[tuple[Fraction, ...]]:
    """Basis of {v : M v = 0}: one vector per free column of the reduced echelon form.

    Back-substitution runs from the last pivot: a row is zero at the pivots
    inserted before it, so clearing its pivot never refills an earlier one.
    """
    span = EchelonSpan(width, rows)
    for k in reversed(range(span.rank)):
        row, piv = span.rows[k], span.pivots[k]
        for other in span.rows[:k]:
            f = other.get(piv)
            if f is not None:
                subtract_scaled(other, f, row)
    reduced = dict(zip(span.pivots, span.rows))
    basis = []
    for fc in range(width):
        if fc in reduced:
            continue
        v = [_ZERO] * width
        v[fc] = _ONE
        for pc, row in reduced.items():
            x = row.get(fc)
            if x is not None:
                v[pc] = -x
        basis.append(tuple(v))
    return basis


class CoordinateFrame:
    """Rows factored once, tagged with unit vectors, for many coordinate solves.

    Row ``i`` is stored as ``basis[i] + e_i`` in an :class:`EchelonSpan`;
    reducing ``vec + 0`` against it leaves ``0 + (-c)`` exactly when
    ``vec = sum c_i * basis[i]``.
    """

    def __init__(self, basis: Sequence[Vector], width: int):
        self.width = width
        self.size = len(basis)
        self.span = EchelonSpan(width + self.size,
                                [{**_sparse(b), width + i: _ONE} for i, b in enumerate(basis)])


def solve_coordinates(frame: CoordinateFrame, vec: Vector) -> list[Fraction] | None:
    """Coordinates of ``vec`` in the span of the frame's rows, or None."""
    width = frame.width
    coords = [_ZERO] * frame.size
    for k, x in frame.span._reduce(_sparse(vec)).items():
        if k < width:
            return None
        coords[k - width] = -x
    return coords


def leading_minors_positive(m: Sequence[Sequence[Fraction]]) -> bool:
    """Whether every leading principal minor of the square matrix ``m`` is positive.

    Elimination without row swaps has ``k``-th pivot ``D_k / D_(k-1)``, the
    ratio of successive leading minors, so the minors are all positive exactly
    when every pivot is; it stops at the first pivot that is not.
    """
    a = [_fractions(row) for row in m]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        top = a[k]
        for row in a[k + 1:]:
            f = row[k] / pivot
            if f:
                for j in range(k + 1, n):
                    row[j] -= f * top[j]
    return True


# -- polynomial matrices ----------------------------------------------------


def poly_det(m: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Laplace expansion along the first row, one product-sum per matrix;
    intended for the small charts handled here."""
    n = len(m)
    if n == 1:
        return m[0][0]
    cofactors: tuple[list, list] = ([], [])  # even and odd columns
    for j, entry in enumerate(m[0]):
        if entry.terms:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            cofactors[j % 2].append((entry, poly_det(minor)))
    return sum_of_products(m[0][0].varset, *cofactors)


def poly_adjugate(m: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    n = len(m)
    varset = m[0][0].varset
    if n == 1:
        return [[Polynomial.constant(varset, 1)]]
    adj = [[Polynomial.zero(varset) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            cof = poly_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj
