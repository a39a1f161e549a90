"""Library surface: every public top-level function and class of
`src/splitrel`, and every public method of those classes, has a caller in
the library itself or in the benchmark harness.  A route that only tests
call is test code and belongs in `tests/`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitrel"


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_routes() -> list[tuple[str, str]]:
    """(module file, qualified name) of each public top-level function and
    class, and of each public method of those classes."""
    out = []
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [
                    (path.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


def _names_used_in_package() -> set[str]:
    used = set()
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _words_in_harness() -> set[str]:
    return {
        w for path in (ROOT / "perfbench").glob("*.py")
        for w in re.findall(r"\w+", path.read_text())
    }


def test_every_public_route_has_a_library_or_harness_caller():
    used = _names_used_in_package() | _words_in_harness()
    orphans = [
        f"{module}:{name}"
        for module, name in _public_routes()
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert not orphans, f"public routes with no caller outside tests: {orphans}"
