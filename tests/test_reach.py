"""Every public name in the library must be reached by something other than its unit tests.

A public top-level function or class in ``src/seqmodes/<module>.py`` counts as
reached when its name appears as a word outside its own definition: elsewhere
in its module, in another library module, in the acceptance suite or under
``perfbench/``. The package ``__init__`` re-exports names and reaches nothing.
Unit tests alone do not count, so a helper that only its own tests call shows
up here and either gets a caller or goes. The test reads files only.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seqmodes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
OUTSIDE = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]


def public_definitions(path: Path):
    """(name, first line, last line) of each public top-level def or class, 1-based."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield node.name, first, node.end_lineno


def unreached_names() -> list[str]:
    texts = {path: path.read_text() for path in [*MODULES, *OUTSIDE]}
    missing = []
    for module in MODULES:
        lines = texts[module].splitlines()
        for name, first, last in public_definitions(module):
            word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
            own = "\n".join(lines[:first - 1] + lines[last:])
            others = (text for path, text in texts.items() if path != module)
            if not word.search(own) and not any(word.search(text) for text in others):
                missing.append(f"{module.stem}.{name}")
    return missing


def test_every_public_name_is_reached_outside_its_unit_tests():
    assert unreached_names() == []
