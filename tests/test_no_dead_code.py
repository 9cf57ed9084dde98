"""Guard against code that nothing in the package calls or exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "impulsegame"
# public methods that nothing in src/ calls, kept for the callers named
UNCALLED_METHODS = {
    "DpOracleResult.continuation_bracket": "bench/workloads.py checks the oracle's band with it",
    "CoefficientPath.n1_at": "bench/tracer.py traces it by name",
}


def private_defs_and_references():
    """(private function and class names with their file, every name used in src/)."""
    defs, used = {}, set()
    for file in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(), filename=str(file))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defs.setdefault(name, file.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defs, used


def test_every_private_def_is_referenced():
    defs, used = private_defs_and_references()
    assert len(defs) >= 30         # the walk found the package's helpers
    unreferenced = sorted(f"{file}: {name}" for name, file in defs.items() if name not in used)
    assert not unreferenced, unreferenced


def test_every_module_import_is_used():
    """Every name a module imports is used in that module or listed in its ``__all__``."""
    unused, imported = [], 0
    for file in sorted(SRC.glob("*.py")):
        tree = ast.parse(file.read_text(), filename=str(file))
        names, used, exported = {}, set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        imported += len(names)
        unused += [f"{file.name}:{line}: {name}" for name, line in names.items()
                   if name not in used and name not in exported]
    assert imported >= 50          # the walk found the package's imports
    assert not unused, unused


def test_every_public_def_is_exported_or_referenced():
    """Every public module-level function and class is in the package's
    ``__all__`` or used somewhere in src/."""
    _, used = private_defs_and_references()
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = set()
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    defs = {}
    for file in sorted(SRC.glob("*.py")):
        for node in ast.parse(file.read_text(), filename=str(file)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.setdefault(node.name, file.name)
    assert len(exported) >= 30 and len(defs) >= 40     # the walk found the API
    unreferenced = sorted(f"{file}: {name}" for name, file in defs.items()
                          if name not in exported and name not in used)
    assert not unreferenced, unreferenced


def test_every_public_method_is_referenced():
    """Every public method and property of a class in src/ is used in src/
    or listed in UNCALLED_METHODS, and every listed method exists and is
    still unused in src/."""
    _, used = private_defs_and_references()
    methods = {}
    for file in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(), filename=str(file))):
            if isinstance(node, ast.ClassDef):
                methods.update((f"{node.name}.{item.name}", file.name) for item in node.body
                               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                               and not item.name.startswith("_"))
    assert len(methods) >= 15      # the walk found the classes' methods
    unreferenced = sorted(f"{file}: {name}" for name, file in methods.items()
                          if name.split(".")[1] not in used and name not in UNCALLED_METHODS)
    assert not unreferenced, unreferenced
    stale = sorted(name for name in UNCALLED_METHODS
                   if name not in methods or name.split(".")[1] in used)
    assert not stale, stale
