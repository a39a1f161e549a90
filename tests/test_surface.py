"""Library surface: every public top-level function and class of
`src/splitrel`, and every public method of those classes, has a caller in
the library itself or in the benchmark harness; every private top-level
function has a caller in the library; every module-level name assigned there
has a reader in the library or the harness; every imported name is read in
its module; and only the CLI's `main` writes output.  A route that only
tests call is test code and belongs in `tests/`; every oracle there has a
test caller and a name no public route in `src/` shares."""

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


def test_every_private_function_has_a_library_caller():
    # a helper folded into another is deleted, not left behind
    called = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    orphans = [
        f"{path.name}:{node.name}"
        for path in _modules()
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and node.name not in called
    ]
    assert not orphans, f"private functions with no caller in src/: {orphans}"


def test_every_module_constant_has_a_library_or_harness_reader():
    # a constant whose last reader is deleted goes with it
    assigned = [
        (path.name, target.id)
        for path in _modules()
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    read = _words_in_harness()
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(assigned) >= 10
    unread = [f"{module}:{name}" for module, name in assigned if name not in read]
    assert not unread, f"module-level names with no reader outside tests: {unread}"


def test_every_oracle_has_a_test_caller_and_no_library_name():
    # a route that moves from `src/` to the oracles is moved, not copied
    tests = ROOT / "tests"
    oracles = [
        node.name
        for node in ast.parse((tests / "conftest.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    ]
    called = set()
    for path in tests.glob("test_*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        aliases = {  # an oracle imported under another name is called by that name
            alias.asname: alias.name
            for node in nodes
            if isinstance(node, ast.ImportFrom) and node.module == "conftest"
            for alias in node.names
            if alias.asname
        }
        for node in nodes:
            if isinstance(node, ast.Name):
                called.add(aliases.get(node.id, node.id))
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
    routes = {name.rsplit(".", 1)[-1] for _, name in _public_routes()}
    uncalled = [name for name in oracles if name not in called]
    shared = [name for name in oracles if name in routes]
    assert not uncalled, f"oracles no test calls: {uncalled}"
    assert not shared, f"oracles named like a public route in src/: {shared}"


def test_every_import_is_read_in_its_module():
    # an import whose last reader is deleted goes with it
    unread = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        ]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.name}:{name}" for name in imported if name not in read]
    assert not unread, f"imported names never read in their module: {unread}"


def test_only_main_writes_cli_output():
    # every handler returns its text, and `main` writes it once, to stdout or --out
    writes = [
        f"{func.name}:{call.lineno}"
        for func in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(func, ast.FunctionDef) and func.name != "main"
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None))
        in ("_emit", "print", "write", "write_text", "write_bytes")
    ]
    assert not writes, f"functions other than main that write output: {writes}"



def _top_level_calls(tree: ast.Module):
    """(enclosing top-level function, call node) for every call in a module."""
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            for call in ast.walk(func):
                if isinstance(call, ast.Call):
                    yield func.name, call


def test_only_report_and_the_exempt_checks_build_a_report():
    # the pass/fail rule is written once, in `_report`; prop1, prop2 and the
    # lemmas may report a discrepancy or keep their own detail keys
    exempt = {"_report", "check_prop1", "check_prop2", "check_lemma13", "check_lemma14",
              "check_lemma15"}
    builders = [
        f"{name}:{call.lineno}"
        for name, call in _top_level_calls(ast.parse((PACKAGE / "checks.py").read_text()))
        if getattr(call.func, "id", None) == "Report" and name not in exempt
    ]
    assert not builders, f"reports built outside `_report`: {builders}"


def test_size_guards_are_only_passed_to_the_class_range():
    # the guard-before-range order is written once, in `_classes`
    guards = {"_check_enum_guard", "check_coeff_guard", "check_cut_guard"}
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    passed = {
        id(arg)
        for _, call in _top_level_calls(tree)
        if getattr(call.func, "id", None) == "_classes"
        for arg in [*call.args, *(kw.value for kw in call.keywords)]
    }
    uses = [
        node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in guards
    ]
    stray = [f"{node.id}:{node.lineno}" for node in uses if id(node) not in passed]
    assert len(uses) >= 3
    assert not stray, f"size guards used other than as an argument of `_classes`: {stray}"
