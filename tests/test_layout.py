"""Every name that ``src/medrex`` defines is used by the program or the benchmark.

A module-level function or class counts as used when its name appears, as a
whole word, anywhere in ``src/medrex`` or ``perfbench`` outside its own
definition line. A method (other than a dunder) counts as used when
``.name`` appears there. Tests do not count: code that only tests reach
belongs in ``tests/``.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "medrex"


def _defined_names() -> list[tuple[str, str, bool]]:
    """(where, name, is_method) for each module-level function/class and each non-dunder method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((f"{path.name}:{node.lineno}", node.name, False))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        found.append((f"{path.name}:{item.lineno} {node.name}", item.name, True))
    return found


def _reference_text() -> str:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return "\n".join(path.read_text(encoding="utf-8") for path in files)


def unreferenced_names() -> list[str]:
    text = _reference_text()
    dead = []
    for where, name, is_method in _defined_names():
        if is_method:
            used = re.search(rf"\.{re.escape(name)}\b", text) is not None
        else:
            # the definition itself is one whole-word match
            used = len(re.findall(rf"\b{re.escape(name)}\b", text)) > 1
        if not used:
            dead.append(f"{where} {name}")
    return dead


def test_every_src_name_has_a_caller_in_src_or_perfbench():
    dead = unreferenced_names()
    assert not dead, "defined in src/medrex but used by neither src/medrex nor perfbench:\n" + "\n".join(dead)
