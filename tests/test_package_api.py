"""The design aim "no public API that only tests use", checked on the source.

Every top-level function and class of ``src/sentdep``, and every method of
a top-level class but the dunder methods Python calls itself, must be
referenced by some module of the package: by name, as an attribute or in
an import. A definition nothing references is either dead or kept only for
the tests.
"""

import ast
from pathlib import Path

import sentdep

PACKAGE = Path(sentdep.__file__).parent

#: Definitions the package does not reference, each with its reason.
EXEMPT = {
    # The one-call forms of the statistics, which tests/test_acceptance.py
    # holds the paper's criteria against.
    "granger.granger_causes",
    "pearson.pearson",
    "scores.aggregate_daily",
    # Called by the logging module for each record.
    "_RecordCollector.emit",
}


def definitions(module: str, tree: ast.Module):
    """(qualified name, name) of each top-level function and class of
    ``tree`` and of each method of its classes but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def references(tree: ast.Module):
    """Every name ``tree`` uses, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_definition_is_referenced_by_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    defined = {qualified: name for module, tree in trees.items()
               for qualified, name in definitions(module, tree)}
    used = {name for tree in trees.values() for name in references(tree)}
    unreferenced = {qualified for qualified, name in defined.items() if name not in used}
    assert unreferenced <= EXEMPT
    assert EXEMPT <= defined.keys(), "an exempt definition is gone; drop its exemption"
