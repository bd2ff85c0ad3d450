import ast
import functools
import importlib
import inspect
import io
import re
import tokenize
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


def test_every_module_qualified_name_in_the_docs_resolves():
    # a backticked `codes.sweep_outputs`, `dfsqec.codes` or `dfsqec.metrics.analytic_curve(...)`
    # in README.md or in a docstring or comment of the package names something that exists
    package = Path(qstate.__file__).parent
    texts = [(Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")]
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                texts.append(ast.get_docstring(node, clean=False) or "")
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        texts += [tok.string for tok in tokens if tok.type == tokenize.COMMENT]
    modules = "|".join(p.stem for p in package.glob("*.py") if not p.stem.startswith("_"))
    name = re.compile(rf"(?:dfsqec\.)?(?:{modules})(?:\.\w+)*")
    quoted = (q.strip().split("(")[0] for text in texts for q in re.findall(r"`+([^`]+?)`+", text))
    names = sorted({q for q in quoted if name.fullmatch(q) and "." in q})
    assert "codes.sweep_outputs" in names
    assert [qualified for qualified in names if not resolves(qualified)] == []


def resolves(qualified: str) -> bool:
    module, *attrs = qualified.removeprefix("dfsqec.").split(".")
    try:
        functools.reduce(getattr, attrs, importlib.import_module(f"dfsqec.{module}"))
    except AttributeError:
        return False
    return True
