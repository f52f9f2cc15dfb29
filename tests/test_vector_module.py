"""A vector field is an element of the free module R[q]^n of its chart.

Brackets, memberships and certificates therefore mix vector fields and plain
module elements freely: equality and hashing go by content, and arithmetic
keeps the class of the left operand.
"""

import pytest

from foliatk import (
    ChartMismatchError,
    FoliationModule,
    ModuleElement,
    RationalFunction,
    RationalVectorField,
    VariableSet,
    VariableSetError,
    VectorField,
    involutivity_check,
    lie_bracket,
    module_equal,
)
from foliatk.scene import load_scene

from conftest import P, SCENES, VF

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))


def _plain(x):
    return ModuleElement(x.varset, x.components)


def test_a_vector_field_is_a_module_element():
    x = VF(R2, "-y", "x")
    assert isinstance(x, ModuleElement)
    assert x.chart is x.varset and x.rank == 2
    assert str(x) == str(_plain(x))
    assert x.evaluate_seq((1, 2)) == _plain(x).evaluate_seq((1, 2))


def test_equality_and_hash_go_by_content():
    x = VF(R2, "-y", "x^2")
    m = _plain(x)
    assert type(m) is ModuleElement
    assert x == m and m == x
    assert hash(x) == hash(m)
    assert len({x, m, VF(R2, "-y", "x^2")}) == 1
    assert {m: "bracket"}[x] == "bracket"
    assert x != VF(R2, "y", "x^2")
    assert x != ModuleElement(R2, x.components + (P("0", R2),))
    assert x != ModuleElement(R3, tuple(P(e, R3) for e in ("-y", "x^2")))


def test_arithmetic_keeps_the_vector_field_type():
    x, y = VF(R2, "-y", "x"), VF(R2, "x", "0")
    f = P("x*y + 1", R2)
    cases = {
        "add": (x + y, VF(R2, "x - y", "x")),
        "sub": (x - y, VF(R2, "-x - y", "x")),
        "neg": (-x, VF(R2, "y", "-x")),
        "scale_by": (x.scale_by(f), VF(R2, "-x*y^2 - y", "x^2*y + x")),
        "zero": (VectorField.zero(R2), VF(R2, "0", "0")),
        "coordinate": (VectorField.coordinate(R2, 1), VF(R2, "0", "1")),
    }
    for name, (got, want) in cases.items():
        assert type(got) is VectorField, name
        assert got == want, name
    # a plain element on the left stays plain, and still equals the field
    mixed = _plain(x) + y
    assert type(mixed) is ModuleElement and mixed == x + y
    assert type(x + _plain(y)) is VectorField


def test_validation_errors_are_unchanged():
    cot = R2.cotangent()
    with pytest.raises(VariableSetError, match="base chart"):
        VectorField(cot, tuple(P("0", cot) for _ in range(2)))
    with pytest.raises(VariableSetError, match="component count"):
        VectorField(R2, (P("x", R2),))
    with pytest.raises(ChartMismatchError, match="different chart"):
        VectorField(R2, (P("x", R2), P("y", R3)))
    with pytest.raises(ChartMismatchError):
        lie_bracket(VF(R2, "1", "0"), VF(R3, "1", "0", "0"))
    with pytest.raises(VariableSetError, match="variable-set mismatch"):
        VF(R2, "1", "0").apply(P("z", R3))
    # sums across charts fail as module arithmetic does
    with pytest.raises(VariableSetError):
        VF(R2, "1", "0") + VF(R3, "1", "0", "0")


def test_rational_vector_fields_still_compare_with_polynomial_ones():
    x = VF(R2, "-y", "x")
    rx = RationalVectorField(R2, tuple(RationalFunction(c) for c in x.components))
    assert rx == x and x == rx
    assert rx != VF(R2, "y", "x")


def test_the_generators_are_the_module_elements():
    fol = FoliationModule(R2, (VF(R2, "-y", "x"), VF(R2, "x", "y")))
    assert fol.elements() is fol.generators
    assert fol.module_gb.input_generators == fol.generators


# [d_x, x d_y] = d_y is not in the module: the failing claim is certified too
NOT_INVOLUTIVE = FoliationModule(R2, (VF(R2, "1", "0"), VF(R2, "0", "x")))


@pytest.mark.parametrize("name", ["so3_moment", "order_2_n2", "killing_band_r2",
                                  "order_1_n3", "not-involutive"])
def test_involutivity_certificates_verify_against_the_brackets(name):
    if name == "not-involutive":
        fol = NOT_INVOLUTIVE
    else:
        fol = load_scene(SCENES / f"{name}.json").foliation
    res = involutivity_check(fol)
    assert res.passed == (name != "not-involutive")
    claims = list(res.certificates) + ([res.witness] if not res.passed else [])
    assert claims
    for (a, b), cert in claims:
        bracket = lie_bracket(fol.generators[a], fol.generators[b])
        assert cert.verify(bracket)
        assert cert.reexpand() == bracket and bracket == cert.reexpand()


def test_module_equal_certificates_verify_against_the_generators():
    scene = load_scene(SCENES / "so3_moment.json")
    fol = scene.foliation
    other = FoliationModule(fol.chart, tuple(reversed(fol.generators)))
    res = module_equal(fol, other)
    assert res.passed and res.certificates
    sides = {"left": fol, "right": other}
    for (side, idx), cert in res.certificates:
        assert cert.verify(sides[side].generators[idx])
