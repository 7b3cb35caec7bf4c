"""The library's surface: what the commands run, plus a short list kept on purpose."""

import ast
import pathlib
import re

import quhom

SRC = pathlib.Path(quhom.__file__).parent
README = SRC.parents[1] / "README.md"

# Public functions and methods that no library module calls, each with why it stays.
KEPT = {
    "distance.distance_homological": "the README library example; the benchmark traces it",
    "pauli.export_check_matrix": "writes the check-matrix format that --check-matrix reads",
    "pauli.StabilizerSpec.generators": "the benchmark's tracer finds the spec argument by it",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, is a method) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def _referenced_names(trees) -> tuple[set, set]:
    """(the bare names, the attribute names) the modules read."""
    bare, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return bare, attributes


def test_every_public_function_is_called_by_the_library_or_kept_on_purpose():
    # __init__ only re-exports, so its imports are not calls.  Names match by
    # name alone; a method is used only when some module reads it as an
    # attribute, so a local variable of the same name does not count
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    bare, attributes = _referenced_names(trees.values())
    unused = {
        qualified
        for module, tree in trees.items()
        for qualified, name, method in _definitions(module, tree)
        if not name.startswith("_") and name not in attributes and (method or name not in bare)
    }
    assert unused == set(KEPT)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
