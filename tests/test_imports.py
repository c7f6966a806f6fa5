"""The package imports no scipy module, scipy.linalg included.

Importing scipy.linalg costs a fresh process about 0.3 s and 28 MB on top
of numpy's 0.2 s and 27 MB, and scipy.interpolate about 0.3 s and 20 MB
more; the package's linear algebra is numpy's.  The check reads the
source, so an import inside a function counts too.  scipy stays a
reference for the tests.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singheat"


def scipy_modules(source: str) -> list[str]:
    """Dotted names of the scipy modules the source imports anywhere in it, sorted."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":   # from scipy import linalg names scipy.linalg
                names.update(f"scipy.{alias.name}" for alias in node.names)
            else:
                names.add(node.module)
    return sorted(name for name in names if name == "scipy" or name.startswith("scipy."))


# the name predates refusing scipy.linalg: the test refuses every scipy module
@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_scipy_linalg(path):
    assert scipy_modules(path.read_text()) == [], path


@pytest.mark.parametrize("source,found", [
    ("def f():\n    from scipy.interpolate import CubicSpline\n", ["scipy.interpolate"]),
    ("import scipy.integrate as si\n", ["scipy.integrate"]),
    ("from scipy import linalg, optimize\n", ["scipy.linalg", "scipy.optimize"]),
    ("import scipy\n", ["scipy"]),
    ("from scipy.linalg import solve\nfrom scipy.linalg.lapack import dgtsv\n",
     ["scipy.linalg", "scipy.linalg.lapack"]),
    ("from .solver import tridiag_solve\n", []),
])
def test_guard_names_what_it_refuses(source, found):
    assert scipy_modules(source) == found
