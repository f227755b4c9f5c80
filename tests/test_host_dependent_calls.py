"""Every call whose bits depend on the host's BLAS kernel or SIMD level is
made in a listed scope of the package, and only there: a new one fails here
until it is listed, and one that is gone must leave the list."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twospinors"

# BLAS and LAPACK: numpy's linear algebra, its dot kernels and matrix products.
BLAS = {"np.dot", "np.vdot", "np.inner", "np.vecdot", "np.matvec", "np.vecmat", "np.matmul", "np.einsum",
        "np.tensordot"}
# numpy's SIMD transcendentals, whose loops round by the CPU features found.
SIMD = {f"np.{name}" for name in (
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh",
    "arccosh", "arctanh", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p")}

# Each host-dependent call and the scopes that make it: module.function (with
# the class for a method), or module alone at module level.  "@" is the
# matrix product operator.
SITES = {
    "@": {
        "bitensor._lorentz_test",
        "bitensor._transport",
        "bundle.spin_characters",
        "clifford._anticommutators",
        "clifford._equivariance",
        "clifford.gamma_relation_residuals",
        "planewave.planewave_residual",
        "sampling.random_fiber_element",
        "spinor.SL2Element.__matmul__",
        "verify._check_covering_hom",
        "verify._check_rest_fiber",
        "verify._check_slash_square",
        "verify._fiber_elements",
        "verify._check_beta_well_defined",
    },
    "np.linalg.det": {"bitensor._lorentz_test"},
    "np.linalg.norm": {"planewave.planewave_residual"},
    "np.dot": {"planewave._wave"},
    "np.einsum": {"clifford.phi_matrices"},
    "np.vecdot": {"sampling._su2_matrices", "spinor.spinor_norms"},
    "np.matvec": {"spinor._act"},
}


def _dotted(node) -> str:
    """The dotted name of a Name or an Attribute chain, "" for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return ""


def host_dependent_sites() -> dict[str, set[str]]:
    """Each host-dependent call of src/twospinors and the scopes that make
    it.  Only code counts: a docstring or comment that names a call does not."""
    sites = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        name = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            name = "@"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            dotted = _dotted(node)
            if dotted in BLAS or dotted in SIMD or dotted.startswith("np.linalg."):
                name = dotted
        if name is not None:
            sites.setdefault(name, set()).add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return sites


def test_host_dependent_calls_are_the_listed_ones():
    assert host_dependent_sites() == SITES


def test_every_module_imports_numpy_as_np():
    # The scan reads numpy's names through the np alias only.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "numpy" and not (node.module or "").startswith("numpy."), path.name
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("numpy"):
                        assert (alias.name, alias.asname) == ("numpy", "np"), path.name
