import ast
import inspect
from pathlib import Path

import pytest

from dfsqec import channels, codes, experiments, metrics, qstate


@pytest.mark.parametrize("module", [qstate, channels, codes, metrics, experiments], ids=lambda m: m.__name__)
def test_all_names_exactly_the_public_functions_and_classes(module):
    def is_own_api(obj):
        return (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__

    defined = {name for name, obj in vars(module).items() if not name.startswith("_") and is_own_api(obj)}
    assert all(hasattr(module, name) for name in module.__all__)
    assert {name for name in module.__all__ if is_own_api(getattr(module, name))} == defined


def test_no_module_imports_a_private_name_of_another():
    # a name one module needs from another is that module's public API
    found = []
    for path in sorted(Path(qstate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("dfsqec")):
                names = [(node.module or "") + "." + alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.startswith("dfsqec")]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if any(p.startswith("_") for p in name.split("."))]
    assert found == []
