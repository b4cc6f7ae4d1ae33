"""Every keyword option of a function, method or class in ``src/skewprod/``
is set by some call in ``src/``, ``tests/``, ``bench/`` or ``demos/``: an
option that no caller varies is a constant.

An option is a parameter with a default, and for a dataclass a field with a
default.  Calls come from the ``ast`` and are matched to definitions by name
only: ``f(...)``, ``mod.f(...)`` and ``obj.f(...)`` all match every function
or method named ``f``, ``C(...)`` the ``__init__`` (or the fields) of every
class named ``C``, and ``C(...)(...)`` every ``__call__``.  A call sets an
option when it names it as a keyword or passes an argument at its position;
``*args`` sets every option from its position on, ``**kwargs`` every
option."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "bench", "demos")

# Set only through calls the scan cannot name.
ALLOWED = {
    # suite.RUNNERS[kind](child, index=i, tol=tol, max_dim=max_dim) in suite.suite_run
    *(f"suite.{runner}.max_dim"
      for runner in ("run_graph_case", "run_free_action_case", "run_groupoid_case")),
    "crossed.AlgebraAction.name",  # cls(span, group, mats, name=name) in from_permutations
}


def _options(args: ast.arguments, skip: int) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; keyword-only
    parameters have no position.  ``skip`` drops a leading self or cls."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _decorators(node) -> set[str]:
    """The names of a definition's decorators, called ones included."""
    return {getattr(getattr(d, "func", d), "id", getattr(d, "attr", ""))
            for d in node.decorator_list}


def option_definitions(tree: ast.Module, module: str) -> list[tuple[str, str, int | None, str]]:
    """(callee name, option, position, dotted path) for every option of a
    top-level function, a method of a top-level class, and a top-level
    class (its ``__init__`` or, for a dataclass, its fields)."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out += [(node.name, o, p, f"{module}.{node.name}.{o}")
                    for o, p in _options(node.args, 0)]
        if not isinstance(node, ast.ClassDef):
            continue
        if "dataclass" in _decorators(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            out += [(node.name, f.target.id, i, f"{module}.{node.name}.{f.target.id}")
                    for i, f in enumerate(fields) if f.value is not None]
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            skip = 0 if "staticmethod" in _decorators(item) else 1
            callee = node.name if item.name == "__init__" else item.name
            out += [(callee, o, p, f"{module}.{node.name}.{o}" if item.name == "__init__"
                     else f"{module}.{node.name}.{item.name}.{o}")
                    for o, p in _options(item.args, skip)]
    return out


def record_calls(tree: ast.AST, calls: dict) -> None:
    """Add each call of ``tree`` to ``calls``, which holds per callee name the
    keywords named, the most positional arguments passed, the least position
    of a ``*args`` and whether a ``**kwargs`` occurs."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = ("__call__" if isinstance(func, ast.Call)
                else func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
        if name is None:
            continue
        seen = calls.setdefault(name, [set(), 0, None, False])
        seen[0] |= {k.arg for k in call.keywords if k.arg}
        seen[1] = max(seen[1], len(call.args))
        stars = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        if stars:
            seen[2] = min(stars[0], stars[0] if seen[2] is None else seen[2])
        seen[3] = seen[3] or any(k.arg is None for k in call.keywords)


def unset_options(root: Path) -> list[str]:
    defined, calls = [], {}
    for folder in CALLERS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if folder == "src":
                defined += option_definitions(tree, path.stem)
            record_calls(tree, calls)

    def is_set(callee, option, position):
        if callee not in calls:
            return False
        keywords, most, star, double = calls[callee]
        return (double or option in keywords or position is not None
                and (position < most or star is not None and position >= star))

    return sorted(dotted for callee, option, position, dotted in defined
                  if dotted not in ALLOWED and not is_set(callee, option, position))


def test_every_option_is_set_by_some_call():
    assert unset_options(ROOT) == []


def test_unset_option_is_reported(tmp_path):
    for folder in CALLERS:
        (tmp_path / folder).mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "class Span:\n"
        "    def __init__(self, rows, name='span', tol=1e-9):\n        pass\n\n"
        "    def __call__(self, x, scale=1):\n        pass\n\n"
        "    def grow(self, by=1, *, check=True):\n        pass\n\n\n"
        "@dataclass(frozen=True)\nclass Record:\n    name: str\n    tol: float = 0.0\n\n\n"
        "def helper(x, y=0, z=0):\n    return Span(x, 'named').grow(check=False)\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "def test_helper():\n    helper(1, *[2])  # Span(1, tol=0)\n"
        "    Span(1)(2, scale=3), Record('r')\n")
    assert unset_options(tmp_path) == ["mod.Record.tol", "mod.Span.grow.by", "mod.Span.tol"]
