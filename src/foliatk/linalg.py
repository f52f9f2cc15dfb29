"""Small exact linear algebra over the rationals and over polynomial rings.

Rational vectors are sparse: an :class:`EchelonSpan` row is a
``{column: Fraction}`` map of its nonzero entries, and a reduction walks only
those entries.  Every entry point takes a dense sequence or such a map, so a
caller whose vectors are mostly zero (evaluated syzygies, bracket classes,
unit vectors) never builds or scans the zeros.  A row's pivot is its smallest
nonzero column, as in dense elimination, so the pivots and the row values are
exactly the dense ones.

Columns from a span's ``width`` on are tags: row operations carry them, but
a tag never holds a pivot, so a vector that reduces to tags alone reads off
its coordinates over the tagged vectors.  :func:`nullspace` tags the columns
of its matrix, with no back-substitution, and :func:`solve_coordinates`
reads a span's tags.  One sparse row update, :func:`subtract_scaled`, serves
the reduction and the bracket classes of :mod:`~foliatk.foliation`.
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
    pivots of the rows before it; columns from ``width`` on are tags, never
    pivots.  ``vectors`` are inserted in order.
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

    def _keep(self, v: dict[int, Fraction]) -> bool:
        """Keep a reduced vector as a row unless only tags are left in it."""
        piv = min(v, default=self.width)  # every tag lies past every column
        if piv >= self.width:
            return False
        inv = _ONE / v[piv]
        self.rows.append({k: x * inv for k, x in v.items()})
        self.pivots.append(piv)
        return True

    def insert(self, vec: Vector) -> bool:
        """Add a vector; returns True iff it enlarged the span and was kept."""
        return self._keep(self._reduce(_sparse(vec)))

    def contains(self, vec: Vector) -> bool:
        """Whether nothing is left below ``width`` once ``vec`` is reduced."""
        return min(self._reduce(_sparse(vec)), default=self.width) >= self.width

    @property
    def rank(self) -> int:
        return len(self.rows)


def nullspace(columns: Sequence[Vector], height: int) -> list[dict[int, Fraction]]:
    """Kernel basis of the matrix with these columns: one ``{index: value}``
    map per column that depends on those before it.

    Column ``a`` is reduced with tag ``height + a``.  The tags left read
    ``e_a - sum_(p<a) c_p e_p``: the one kernel vector with support in ``a``
    and the pivot columns before it, which is the reduced-echelon one.
    """
    span = EchelonSpan(height)
    basis = []
    for a, col in enumerate(columns):
        v = _sparse(col)
        v[height + a] = _ONE
        if not span._keep(span._reduce(v)):
            basis.append({k - height: x for k, x in v.items()})
    return basis


def solve_coordinates(span: EchelonSpan, vec: Vector) -> dict[int, Fraction] | None:
    """``{i: c_i}`` with ``vec = sum c_i * t_i`` modulo the span's untagged
    rows, ``t_i`` the vector inserted with tag ``width + i``; None when
    ``vec`` is outside the span."""
    width = span.width
    v = span._reduce(_sparse(vec))
    if min(v, default=width) < width:
        return None
    return {k - width: -x for k, x in v.items()}


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
