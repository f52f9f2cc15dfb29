import json

import pytest

from foliatk import SceneError
from foliatk.scene import load_scene

from conftest import SCENES


def base(**extra):
    data = {
        "chart": {"dimension": 2, "coordinates": ["x", "y"]},
        "cometric": [["1", "0"], ["0", "1"]],
    }
    data.update(extra)
    return data


def test_loads_every_shipped_scene():
    for path in sorted(SCENES.glob("*.json")):
        scene = load_scene(path)
        assert scene.chart.dimension >= 1, path.name


def test_loads_a_scene_from_json_text_longer_than_a_file_name():
    text = (SCENES / "so3_moment.json").read_text(encoding="utf-8")
    assert len(text) > 255
    assert load_scene(text).chart == load_scene(SCENES / "so3_moment.json").chart


def test_asymmetric_cometric_rejected():
    with pytest.raises(SceneError):
        load_scene(base(cometric=[["1", "x"], ["0", "1"]]))


def test_non_positive_cometric_rejected():
    with pytest.raises(SceneError):
        load_scene(base(cometric=[["1", "0"], ["0", "-1"]]))


def test_sample_points_are_honored():
    # x is not positive at the default origin sample, fine at the given one
    data = base(cometric=[["x", "0"], ["0", "1"]], sample_points=[["1", "0"]])
    load_scene(data)
    with pytest.raises(SceneError):
        load_scene(base(cometric=[["x", "0"], ["0", "1"]]))


def test_dimension_mismatch_rejected():
    data = base()
    data["chart"]["dimension"] = 3
    with pytest.raises(SceneError):
        load_scene(data)


def test_wrong_generator_width_rejected():
    with pytest.raises(SceneError):
        load_scene(base(foliation=[["x"]]))


def test_point_dimension_checked():
    with pytest.raises(SceneError):
        load_scene(base(points={"bad": ["1"]}))


def test_flow_dimension_checked():
    with pytest.raises(SceneError):
        load_scene(base(flow={"q": [1], "p": [0, 0]}))


def test_target_candidates_need_a_submersion():
    with pytest.raises(SceneError):
        load_scene(base(target_candidates={"pu": "p_x"}))


def test_target_foliation_needs_a_submersion():
    with pytest.raises(SceneError):
        load_scene(base(target_foliation=[["1", "0"]]))


def test_undeclared_variable_in_candidate():
    with pytest.raises(SceneError) as err:
        load_scene(base(candidates={"H": "p_x + w"}))
    assert "w" in str(err.value)


def test_scene_accepts_json_string():
    scene = load_scene(json.dumps(base(candidates={"H": "1/2*p_x^2"})))
    assert "H" in scene.candidates


def test_explicit_ideal_overrides_lift():
    scene = load_scene(base(ideal=["p_x"], foliation=[["-y", "x"]]))
    assert [str(g) for g in scene.lift_or_explicit_ideal().generators] == ["p_x"]


def test_scene_without_ideal_or_foliation_has_no_working_ideal():
    scene = load_scene(base())
    with pytest.raises(SceneError):
        scene.lift_or_explicit_ideal()


@pytest.mark.parametrize("value", ["", "0"])
def test_target_foliation_must_be_an_array(value):
    data = json.loads((SCENES / "submersion_r3_to_r2.json").read_text(encoding="utf-8"))
    data["target_foliation"] = value
    with pytest.raises(SceneError, match="JSON array"):
        load_scene(data)
