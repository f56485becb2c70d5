"""Tripwire: every public name in `src/roadrisk` is reached from the program.

A public module-level function or class, or a public method of such a
class, passes when its name occurs somewhere in `src/` or `perfbench/`
besides its own definition. The package's `__init__.py` is left out of the
search: a re-export is not a use. Names that only the tests use belong in
the tests. The check matches names only: it misses a name that another symbol
shares (a method `inverse` passes while any other `inverse` is called), and
a name in a comment or docstring counts as a use.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "roadrisk"


def public_definitions(tree: ast.Module):
    """The public module-level functions and classes, and their public methods."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def test_every_public_name_is_reached():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    words = Counter(re.findall(r"\w+", "".join(path.read_text() for path in sources)))
    defined = Counter()
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified in public_definitions(ast.parse(path.read_text())):
            name = qualified.rsplit(".", 1)[-1]
            defined[name] += 1
            owners.setdefault(name, []).append(f"{path.stem}.{qualified}")
    unreached = sorted(
        owner
        for name, count in defined.items()
        if words[name] <= count
        for owner in owners[name]
    )
    assert unreached == []
