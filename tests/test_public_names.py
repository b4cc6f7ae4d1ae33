"""Every top-level function, class and method of ``src/skewprod/``, public or
private, is used in ``src/`` besides its definition and its ``__init__``
re-export, so that no removed code path leaves an orphan helper behind.
Special methods (``__init__``, ``__eq__``, ...) are called by Python itself
and are exempt.

Definitions come from the ``ast`` of each module; a use is the name as an
identifier in the code of a module other than ``__init__``: a variable, a
call or an attribute (a method name matches an attribute of any object).
Names in comments and docstrings do not count."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skewprod"

# Called from outside src/ only, and kept for that caller.
ALLOWED = {
    "fixture_path",  # the "Report byte-stability" step of .github/workflows/tests.yml
    "find_graph_isomorphism",  # demos/01_skew_products_and_quotients.py
    "is_free",  # demos/01_skew_products_and_quotients.py
    "arrow_index",  # demos/03_groupoid_duality.py and demos/04_equivalence_bimodules.py
    "subspace_dims",  # demos/02_graph_algebra_duality.py
}


def _special(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(name, dotted path) of each top-level function and class and each
    method of a top-level class, special methods left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _special(node.name):
            out.append((node.name, f"{module}.{node.name}"))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, f"{module}.{node.name}.{item.name}") for item in node.body
                    if isinstance(item, ast.FunctionDef) and not _special(item.name)]
    return out


def uncalled_names(src: Path) -> list[str]:
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += definitions(tree, path.stem)
        if path.name != "__init__.py":
            used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(dotted for name, dotted in defined if name not in used | ALLOWED)


def test_every_name_has_a_caller_in_src():
    assert uncalled_names(SRC) == []


def test_uncalled_name_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import helper, unused\n")
    (tmp_path / "mod.py").write_text(
        "class Span:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def grow(self):\n        return helper()\n\n"
        "    def shrink(self):\n        '''Not called by unused() or helper().'''\n\n\n"
        "def _scale():\n    return 2\n\n\n"
        "def _orphan():\n    '''Left behind by a removed caller of _scale().'''\n\n\n"
        "def helper():\n    return Span().grow, _scale()\n\n\n"
        "def unused():\n    pass  # helper()\n")
    assert uncalled_names(tmp_path) == ["mod.Span.shrink", "mod._orphan", "mod.unused"]
