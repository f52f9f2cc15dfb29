"""Point reports decided by rank and by degree, against the full path.

``isotropy_algebra`` and ``fiber_dim`` return at a point where the tangent
rank is the rank of the module, before any syzygy, and at the origin of a
module of homogeneous generators they leave uncomputed the brackets whose
class degree makes zero.  ``oracle.reference_isotropy_algebra`` and
``oracle.reference_fiber_dim`` read the syzygies at every point and compute
every bracket; the two must agree on every report and every refusal.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import FoliationModule, VariableSet, fiber_dim, foliation, isotropy_algebra

from conftest import VF
from oracle import reference_fiber_dim, reference_isotropy_algebra
from test_foliation import order_k_module
from test_schreyer import _outcome

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))
# values that put grid points on the axes and on the zero sets of the ideal below
GRID = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))
IDEAL = ("1", "x", "y", "z", "x - 1", "x*y", "y^2 + z", "2*x - 1")


def _assert_matches_full_path(fol, points):
    for point in points:
        assert _outcome(fiber_dim, fol, point) == _outcome(reference_fiber_dim, fol, point)
        assert (_outcome(isotropy_algebra, fol, point)
                == _outcome(reference_isotropy_algebra, fol, point))


def _monomial(rnd, chart, degree):
    return "*".join(rnd.choice(chart.base) for _ in range(degree)) or "1"


def _rotation_module(rnd):
    """Rotation fields on R^3 times elements of an ideal: rank 1 or 2, below 3."""
    rotations = [("-y", "x", "0"), ("-z", "0", "x"), ("0", "-z", "y")]
    fields = rnd.sample(rotations, rnd.choice((1, 2, 3)))
    ideal = rnd.sample(IDEAL, rnd.choice((1, 2)))
    return FoliationModule(R3, [VF(R3, *(f"({f})*({c})" for c in x)) for f in ideal
                                for x in fields])


def _graded_module(rnd):
    """Homogeneous generators of degrees 0 to 3, each a monomial field or a
    sum of two of one degree; the module need not be involutive."""
    chart = rnd.choice((R2, R3))
    n = chart.dimension
    gens = []
    for _ in range(rnd.randint(1, 5)):
        d = rnd.choice((0, 1, 1, 2, 2, 3))
        comps = ["0"] * n
        for _ in range(rnd.choice((1, 2))):
            comps[rnd.randrange(n)] += f" + {rnd.randint(1, 3)}*{_monomial(rnd, chart, d)}"
        gens.append(VF(chart, *comps))
    return FoliationModule(chart, gens)


def _order_k_plus(rnd):
    """An order-k module on R^2 with generators dropped, or with homogeneous
    generators of another degree added: its degree-D part need not be full,
    and a generator may have degree D."""
    k = rnd.choice((1, 2))
    gens = list(order_k_module(k, R2).generators)
    for _ in range(rnd.randint(0, 2)):
        gens.pop(rnd.randrange(len(gens)))
    for _ in range(rnd.randint(0, 2)):
        d = rnd.choice((0, 1, 2, 3))
        comps = ["0", "0"]
        comps[rnd.randrange(2)] = _monomial(rnd, R2, d)
        gens.append(VF(R2, *comps))
    return FoliationModule(R2, gens)


@given(st.sampled_from([_rotation_module, _graded_module, _order_k_plus]),
       st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_point_reports_match_the_full_path(family, seed):
    rnd = random.Random(seed)
    fol = family(rnd)
    n = fol.chart.dimension
    points = [(0,) * n] + [tuple(rnd.choice(GRID) for _ in range(n)) for _ in range(3)]
    _assert_matches_full_path(fol, points)


@pytest.mark.parametrize("exprs", [
    (("-y", "x", "0"), ("-z", "0", "x"), ("0", "-z", "y")),  # so(3): rank 2 on R^3
    (("x*(-y)", "x*x", "0"),),                              # vanishes on the plane x = 0
])
def test_rotations_match_the_full_path_on_and_off_their_singular_sets(exprs):
    fol = FoliationModule(R3, [VF(R3, *e) for e in exprs])
    points = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 2, 3)]
    _assert_matches_full_path(fol, points)


def test_a_regular_point_needs_no_syzygies():
    fol = FoliationModule(R3, [VF(R3, "-y", "x", "0"), VF(R3, "-z", "0", "x"),
                               VF(R3, "0", "-z", "y")])
    rep = isotropy_algebra(fol, (1, 2, 3))
    assert (rep.tangent_dim, rep.fiber_dim, rep.isotropy_dim) == (2, 2, 0)
    assert fiber_dim(fol, (0, 1, 1)) == 2
    assert "syzygies" not in vars(fol)
    assert isotropy_algebra(fol, (0, 0, 0)).isotropy_dim == 3  # so(3) at its fixed point


def _brackets_computed(monkeypatch, fol, point):
    """The outcome of ``isotropy_algebra`` and the number of brackets it computed."""
    calls = []
    bracket = foliation.lie_bracket
    monkeypatch.setattr(foliation, "lie_bracket", lambda x, y: calls.append(0) or bracket(x, y))
    return _outcome(isotropy_algebra, fol, point), len(calls)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3)])
def test_a_graded_origin_brackets_nothing_that_degree_decides(monkeypatch, n, k):
    fol = order_k_module(k, VariableSet(("x", "y", "z")[:n]))
    rep, computed = _brackets_computed(monkeypatch, fol, (0,) * n)
    assert computed == 0 and rep.isotropy_dim == fol.n_generators
    assert rep == reference_isotropy_algebra(fol, (0,) * n)


@pytest.mark.parametrize("exprs,computed", [
    ((("0", "x^2"), ("y^2", "0")), 1),            # degree 3 is not full: refused
    ((("x", "0"), ("y", "0"), ("x", "y")), 3),    # a generator has degree 1 + 1 - 1
    ((("x + y^2", "0"), ("0", "y")), 1),          # not homogeneous
    ((("1", "0"), ("2", "0"), ("0", "x"), ("0", "y")), 1),  # [x d_y, y d_y]: degree 1
])
def test_brackets_that_degree_does_not_decide_are_computed(monkeypatch, exprs, computed):
    fol = FoliationModule(R2, [VF(R2, *e) for e in exprs])
    outcome, count = _brackets_computed(monkeypatch, fol, (0, 0))
    assert count == computed
    assert outcome == _outcome(reference_isotropy_algebra, fol, (0, 0))
