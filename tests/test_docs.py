import dataclasses
import importlib
import json
import re
import types
from pathlib import Path

import curiophys
from curiophys.config import RunConfig
from curiophys.ingest import ScenarioSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def _re_export_list():
    """{module: names} from README's "The package root re-exports, by
    module" list; parenthesized remarks are not names."""
    text = README.read_text(encoding="utf-8")
    block = text.split("The package root re-exports, by module:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for bullet in re.split(r"^- ", block, flags=re.MULTILINE)[1:]:
        module, rest = re.fullmatch(r"`(\w+)`: (.*)", bullet, re.DOTALL).groups()
        listed[module] = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", rest))
    return listed


def test_readme_lists_every_public_name_of_the_package_root():
    public = {
        name
        for name, value in vars(curiophys).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = _re_export_list()
    names = [name for names in listed.values() for name in names]
    assert len(names) == len(set(names))
    assert set(names) == public
    for module, module_names in listed.items():
        owner = importlib.import_module(f"curiophys.{module}")
        for name in module_names:
            assert getattr(owner, name) is getattr(curiophys, name), (module, name)


def test_readme_config_defaults_are_the_run_config_defaults():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == dataclasses.asdict(RunConfig())


def test_readme_generate_defaults_are_the_scenario_spec_defaults():
    row = next(line for line in README.read_text(encoding="utf-8").splitlines()
               if line.startswith("| `generate"))
    shown = dict(re.findall(r"`--(\w+)[^`]*` \([^)]*default `?([^`;)]+)`?\)", row))
    spec = ScenarioSpec
    assert shown == {
        "class": spec.object_class.value,
        "frames": str(spec.frame_count),
        "velocity": "%g,%g" % spec.velocity,
        "noise": "%g" % spec.noise_sigma,
        "confidence": "%g" % spec.confidence,
    }
