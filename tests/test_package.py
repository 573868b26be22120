"""The package exports every public name of its five modules, and no other."""

import twistdance
from twistdance import codec, facing, model, scheduler, solver

MODULES = (codec, facing, model, scheduler, solver)


def test_the_package_exports_each_modules_public_names_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 50
    assert sorted(twistdance.__all__) == sorted(names)
    assert {"check_points", "path_event_indices"} <= set(twistdance.__all__)


def test_each_exported_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(twistdance, name) is getattr(module, name), name
