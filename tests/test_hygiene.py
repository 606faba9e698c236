"""Source hygiene checks on the quadrl package and its tests."""

import ast
import importlib
import importlib.util
from pathlib import Path

import quadrl

PACKAGE = Path(quadrl.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
SPANS = TESTS.parent / "perfbench" / "spans.py"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports names to re-export them, so it is skipped.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name != "__init__.py":
            unused = _unused_imports(ast.parse(path.read_text(), str(path)))
            if unused:
                found[f"{path.parent.name}/{path.name}"] = unused
    assert found == {}


def test_unused_import_check_sees_unused_names():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\n"
                     "print(np.zeros(1), tau)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 3: pi"]


def test_every_traced_name_resolves():
    # The benchmark's tracer rebinds these names; a refactor that drops one
    # would otherwise break only a traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            importlib.import_module(f"quadrl.{path.stem}")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, module, attr in spans.TRACED:
            owner, key = spans._resolve(module, attr)
            assert hasattr(getattr(owner, key), "__wrapped__"), name
    finally:
        tracer.uninstall()
    for name, module, attr in spans.TRACED:
        owner, key = spans._resolve(module, attr)
        assert callable(getattr(owner, key)), name
        assert not hasattr(getattr(owner, key), "__wrapped__"), name
