"""Each invariant's tolerance is compared in exactly one function of the
package: the one test of that invariant, for one value and a stack."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twospinors"

# Each tolerance constant and the one function that compares a defect with it.
ONE_TEST = {
    "SL2_DET_TOL": "spinor._unimodular",
    "SHELL_TOL": "momentum._shell_test",
    "LORENTZ_TOL": "bitensor._lorentz_test",
    "REALITY_TOL": "bitensor._world_coords",
    "SPLUS_TOL": "bundle._in_rest_eigenspace",
}


def reading_scopes(name: str) -> set[str]:
    """The scopes of src/twospinors that read name: module.function (with the
    class for a method), or module alone at module level.  A read inside an
    f-string, an error message, is not counted; the module-level definition
    is a store, not a read."""
    scopes = set()

    def visit(node, scope):
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        read = (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)
        if read and isinstance(node.ctx, ast.Load):
            scopes.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return scopes


@pytest.mark.parametrize("name", list(ONE_TEST))
def test_each_tolerance_is_compared_in_one_function(name):
    assert reading_scopes(name) == {ONE_TEST[name]}

