import inspect

import pytest

from dfsqec import channels, codes, experiments, metrics, qstate


@pytest.mark.parametrize("module", [qstate, channels, codes, metrics, experiments], ids=lambda m: m.__name__)
def test_all_names_exactly_the_public_functions_and_classes(module):
    def is_own_api(obj):
        return (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__

    defined = {name for name, obj in vars(module).items() if not name.startswith("_") and is_own_api(obj)}
    assert all(hasattr(module, name) for name in module.__all__)
    assert {name for name in module.__all__ if is_own_api(getattr(module, name))} == defined
