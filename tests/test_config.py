import dataclasses

import pytest

from curiophys import ObjectClass, WeightConfig
from curiophys.config import ConfigError, RunConfig, config_from_document, load_config
from curiophys.curiosity import CuriosityParams
from curiophys.trace_model import SceneBounds
from curiophys.tracker import TrackerParams

# Every RunConfig key set to a value other than its default.
NON_DEFAULT = {
    "alpha": 0.5,
    "beta": 0.25,
    "gamma": 0.125,
    "assoc_gate": 40.0,
    "jump_gate": 20.0,
    "q": 0.5,
    "r": 3.0,
    "p0": 50.0,
    "occlusion_coverage_min": 0.6,
    "promotion_threshold": 5,
    "impact_values": {"sphere": 20.0, "cone": 200.0, "cube": 2000.0},
    "sc_mode": "confidence",
    "scene_width": 800.0,
    "scene_height": 600.0,
    "kb_path": "other-kb.json",
    "out_dir": "results",
    "seed": 9,
}


def test_defaults_match_the_parameter_types():
    config = RunConfig()
    assert config.curiosity_params() == CuriosityParams()
    assert config.tracker_params() == TrackerParams()
    assert config.weights() == WeightConfig()
    assert config.scene() == SceneBounds()


def test_every_key_reaches_its_derived_field():
    assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(RunConfig)}
    defaults = RunConfig()
    assert all(getattr(defaults, key) != value for key, value in NON_DEFAULT.items())

    config = config_from_document(NON_DEFAULT)
    params = config.curiosity_params()
    assert params.weights == WeightConfig(alpha=0.5, beta=0.25, gamma=0.125)
    assert params.tracker == TrackerParams(
        assoc_gate=40.0,
        jump_gate=20.0,
        process_noise=0.5,
        measurement_noise=3.0,
        initial_variance=50.0,
    )
    assert params.occlusion_coverage_min == 0.6
    assert params.sc_mode == "confidence"
    assert params.impact_values == {
        ObjectClass.SPHERE: 20.0,
        ObjectClass.CONE: 200.0,
        ObjectClass.CUBE: 2000.0,
    }
    assert params.scene == SceneBounds(width=800.0, height=600.0)
    assert (config.promotion_threshold, config.kb_path, config.out_dir, config.seed) == (
        5,
        "other-kb.json",
        "results",
        9,
    )


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sc_mode", "shape", "sc_mode must be one of"),
        ("occlusion_coverage_min", 0.0, "occlusion_coverage_min must be in"),
        ("alpha", 1.5, "alpha must be in"),
        ("q", 0.0, "process_noise must be positive"),
        ("impact_values", {"wall": 1.0}, "cannot carry an impact value"),
        ("impact_values", {"sphere": 10.0}, "missing a value for cone, cube"),
        (
            "impact_values",
            {"sphere": 10.0, "Sphere": 50.0, "cone": 100.0, "cube": 1000.0},
            "impact_values names a class twice",
        ),
        ("promotion_threshold", 0, "promotion_threshold must be >= 1"),
        ("out_dir", 5, "out_dir must be a string"),
        ("out_dir", None, "out_dir must be a string"),
        ("kb_path", 3, "kb_path must be a string or null"),
        ("kb_path", ["kb.json"], "kb_path must be a string or null"),
        ("scene_width", 0, "scene width must be > 0, got 0"),
        ("scene_width", -640, "scene width must be > 0, got -640"),
        ("scene_height", 0.0, "scene height must be > 0, got 0.0"),
        ("scene_height", -360.0, "scene height must be > 0, got -360.0"),
        ("sigma", 2.0, "^unknown config keys: sigma$"),
    ],
)
def test_invalid_values_are_config_errors(key, value, message):
    with pytest.raises(ConfigError, match=message):
        config_from_document({key: value})


def test_a_scene_area_that_underflows_is_a_config_error():
    with pytest.raises(ConfigError, match=r"scene width \* height must be > 0, got 1e-200 \* 1e-200"):
        config_from_document({"scene_width": 1e-200, "scene_height": 1e-200})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("q", NAN, "q must be a finite number"),
        ("jump_gate", INF, "jump_gate must be a finite number"),
        ("scene_width", NAN, "scene_width must be a finite number"),
        ("alpha", True, "alpha must be a finite number"),
        (
            "impact_values",
            {"sphere": NAN, "cone": 1.0, "cube": 2.0},
            "impact_values.sphere must be a finite number",
        ),
        ("impact_values", [10.0], "impact_values must be an object"),
        ("seed", True, "seed must be an integer"),
        ("promotion_threshold", True, "promotion_threshold must be an integer"),
        ("beta", 10**400, "beta must be a finite number"),  # too large for a float
        ("seed", None, "seed must be an integer, got None"),  # only the threshold may be null
    ],
)
def test_non_finite_numbers_and_booleans_are_config_errors(key, value, message):
    with pytest.raises(ConfigError, match=message):
        config_from_document({key: value})


# Keys that configure the run around the pipeline, not a parameter type.
RUN_KEYS = {"promotion_threshold", "kb_path", "out_dir", "seed"}


def _settable_values(params, prefix=""):
    """Every field a caller can set, nested parameter types flattened."""
    values = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            values.update(_settable_values(value, f"{prefix}{f.name}."))
        else:
            values[prefix + f.name] = value
    return values


def test_every_parameter_field_has_exactly_one_config_key():
    # a field no key reaches is a knob nothing sets: make it a constant
    defaults = _settable_values(CuriosityParams())
    reached_by = {}
    for key, value in NON_DEFAULT.items():
        values = _settable_values(config_from_document({key: value}).curiosity_params())
        changed = [name for name in defaults if values[name] != defaults[name]]
        if key in RUN_KEYS:
            assert changed == [], key
            continue
        assert len(changed) == 1, (key, changed)
        assert changed[0] not in reached_by, (key, reached_by)
        reached_by[changed[0]] = key
    assert set(reached_by) == set(defaults)


def test_a_promotion_threshold_of_one_is_accepted():
    assert config_from_document({"promotion_threshold": 1}).promotion_threshold == 1


def test_a_document_that_is_not_an_object_is_refused():
    with pytest.raises(ConfigError, match="^config must be a single JSON object$"):
        config_from_document(["alpha"])


def test_unreadable_and_invalid_config_files_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config .*missing.json"):
        load_config(tmp_path / "missing.json")
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    with pytest.raises(ConfigError, match="config .*broken.json is not valid JSON"):
        load_config(path)
