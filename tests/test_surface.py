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
    """(qualified name, bare name) of each public module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _referenced_names(tree: ast.Module) -> set:
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_is_called_by_the_library_or_kept_on_purpose():
    # __init__ only re-exports, so its imports are not calls; names match by
    # name alone, so a method shares its use with any attribute of that name
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    used = set().union(*map(_referenced_names, trees.values()))
    unused = {
        qualified
        for module, tree in trees.items()
        for qualified, name in _definitions(module, tree)
        if not name.startswith("_") and name not in used
    }
    assert unused == set(KEPT)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
