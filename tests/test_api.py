"""Static checks of the package source: no public name and no defaulted
parameter exists only for the tests, and numpy is imported only where
arrays are built."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parsed(folder: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(folder.glob("*.py"))}


def _public_definitions(module: ast.Module):
    """(name, node) of every public top-level name and every public method."""
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            yield from ((member.name, member) for member in node.body if isinstance(member, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(module: ast.Module):
    """(name, line) of every name read or attribute taken in a module."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public name needs a reference in src/ other than its own definition,
    # a reference in perfbench/, or a mention in the README.
    src = _parsed(ROOT / "src" / "sparsetrees")
    readers: dict[str, list[tuple[Path, int]]] = {}
    for path, module in src.items():
        for name, line in _references(module):
            readers.setdefault(name, []).append((path, line))
    perfbench = {name for module in _parsed(ROOT / "perfbench").values() for name, _ in _references(module)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")

    def has_caller(path: Path, name: str, node: ast.AST) -> bool:
        outside = any(
            other != path or not node.lineno <= line <= node.end_lineno
            for other, line in readers.get(name, ())
        )
        return outside or name in perfbench or re.search(rf"\b{re.escape(name)}\b", readme) is not None

    orphans = [
        f"{path.name}:{node.lineno} {name}"
        for path, module in src.items()
        for name, node in _public_definitions(module)
        if not name.startswith("_") and not has_caller(path, name, node)
    ]
    assert orphans == []


def _defaulted_parameters(module: ast.Module):
    """(function, parameter, index) of every parameter with a default on a
    public function or method; index is its position in a call's
    arguments (self or cls not counted), None for a keyword-only one."""
    for name, node in _public_definitions(module):
        if name.startswith("_") or not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first - bound):
            yield name, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether a call passes a parameter: by keyword or a ** mapping, or by
    position, a * spread included."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    spread = any(isinstance(arg, ast.Starred) for arg in call.args)
    return index is not None and (len(call.args) > index or spread)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # A parameter with a default, on a public function or method, needs a
    # call in src/ or perfbench/ that passes it, or a `name=` in the
    # README: a default that only the tests override is an option no
    # caller uses.
    src = _parsed(ROOT / "src" / "sparsetrees")
    calls: dict[str, list[ast.Call]] = {}
    for module in [*src.values(), *_parsed(ROOT / "perfbench").values()]:
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unpassed = [
        f"{path.name} {function}({parameter})"
        for path, module in src.items()
        for function, parameter, index in _defaulted_parameters(module)
        if not any(_passes(call, parameter, index) for call in calls.get(function, ()))
        and re.search(rf"\b{re.escape(parameter)}=", readme) is None
    ]
    assert unpassed == []


def _numpy_imports(module: ast.Module) -> set[str]:
    """Where a module imports numpy: "top" at module level, "inner" in a definition."""
    top = {id(node) for node in module.body}
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            found.add("top" if id(node) in top else "inner")
    return found


def test_numpy_is_imported_only_where_arrays_are_built():
    # operators and decomposition build arrays throughout; the other array
    # code (mc_exponent, the coverage functions, the omega sampler's Philox
    # stream) imports numpy in the functions that build them, and the phase
    # flow, the reports, the CLI and the package root import it nowhere.
    imports = {path.name: _numpy_imports(module) for path, module in _parsed(ROOT / "src" / "sparsetrees").items()}
    assert {name for name, found in imports.items() if "top" in found} == {"operators.py", "decomposition.py"}
    for name in ("phase.py", "transfer.py", "reports.py", "cli.py", "jacobi.py", "errors.py", "__init__.py"):
        assert imports[name] == set(), name
