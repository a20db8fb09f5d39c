"""Every name, defaulted parameter and stored attribute in ``src/medrex`` is used by the program or the benchmark.

A module-level function or class counts as used when its name appears, as a
whole word, anywhere in ``src/medrex`` or ``perfbench`` outside its own
definition line. A method (other than a dunder) counts as used when
``.name`` appears there. A defaulted parameter counts as used when some call
there of a function or method of that name passes it, by keyword or by
position; a call with ``*args`` or ``**kwargs`` may pass every parameter, and
a call of a class passes ``__init__``'s. An attribute that a method of a
class stores on ``self`` counts as used when ``.name`` is read somewhere
there. Tests do not count: code that only tests reach belongs in ``tests/``,
a default no caller changes is a constant, and a stored value no code reads
is a copy of nothing. Nor does a call in ``src/medrex`` restate a
dataclass's literal default: the dataclass owns that value.
"""

from __future__ import annotations

import ast
import math
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


# Parameters that keep a default although the program never passes them: the
# command-line entry point takes argv from tests and from sys.argv alike.
KNOB_EXEMPT = {("cli.py", "main", "argv")}


def _defaulted_parameters() -> list[tuple[str, str, str, int | None]]:
    """(where, called name, parameter, positional slot or None) for each defaulted parameter.

    Module-level functions and methods are covered; a method's slots do not
    count ``self``/``cls``, and ``__init__`` is called by its class's name.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [(node, node.name, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    defs.append((item, cls.name if item.name == "__init__" else item.name, not static))
        for fn, called, bound in defs:
            positional = fn.args.posonlyargs + fn.args.args
            slots = [(arg, positional.index(arg) - bound) for arg in positional[len(positional) - len(fn.args.defaults):]]
            slots += [(arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            for arg, slot in slots:
                if (path.name, fn.name, arg.arg) not in KNOB_EXEMPT:
                    found.append((f"{path.name}:{fn.lineno} {fn.name}", called, arg.arg, slot))
    return found


def _reference_trees() -> list[ast.Module]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [ast.parse(path.read_text(encoding="utf-8")) for path in files]


def _calls() -> dict[str, list[tuple[float, set[str] | None]]]:
    """Per called name: (positional arguments, keyword names or None for ``**kwargs``) of each call."""
    calls: dict[str, list[tuple[float, set[str] | None]]] = {}
    for tree in _reference_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            # a starred argument may fill every positional slot
            n_positional = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((n_positional, None if None in keywords else keywords))
    return calls


def unpassed_parameters() -> list[str]:
    calls = _calls()
    unpassed = []
    for where, called, param, slot in _defaulted_parameters():
        passed = any(
            keywords is None or param in keywords or (slot is not None and n_positional > slot)
            for n_positional, keywords in calls.get(called, ())
        )
        if not passed:
            unpassed.append(f"{where}({param})")
    return unpassed


def test_every_defaulted_parameter_is_passed_by_src_or_perfbench():
    unpassed = unpassed_parameters()
    assert not unpassed, (
        "defaulted parameters that no call in src/medrex or perfbench passes "
        "(make them constants):\n" + "\n".join(unpassed)
    )


def unread_attributes() -> list[str]:
    """Each ``self.<name> = ...`` store in a ``src/medrex`` class whose ``.name`` nothing reads."""
    read = {
        node.attr
        for tree in _reference_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                targets = node.targets if isinstance(node, ast.Assign) else (
                    [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
                for target in targets:
                    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                            and target.value.id == "self" and target.attr not in read):
                        unread.append(f"{path.name}:{node.lineno} {cls.name}.{target.attr}")
    return unread


def test_every_attribute_stored_on_self_is_read_by_src_or_perfbench():
    unread = unread_attributes()
    assert not unread, (
        "attributes that src/medrex stores on self and no code in src/medrex or perfbench reads:\n"
        + "\n".join(unread)
    )


NOT_LITERAL = object()


def _literal(node: ast.expr):
    """The value of a literal expression, or NOT_LITERAL."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return NOT_LITERAL


def _dataclass_defaults() -> dict[str, dict[str, object]]:
    """Per ``src/medrex`` dataclass name: each field's literal default."""
    defaults = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            defaults[cls.name] = {
                item.target.id: _literal(item.value)
                for item in cls.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.value is not None
            }
    return defaults


def restated_defaults() -> list[str]:
    """Each keyword argument of a ``src/medrex`` call that passes its dataclass field's literal default."""
    defaults = _dataclass_defaults()
    restated = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            for keyword in node.keywords:
                default = defaults.get(name, {}).get(keyword.arg, NOT_LITERAL)
                value = _literal(keyword.value)
                if default is not NOT_LITERAL and type(value) is type(default) and value == default:
                    restated.append(f"{path.name}:{node.lineno} {name}({keyword.arg}={value!r})")
    return restated


def test_no_call_in_src_restates_a_dataclass_default():
    restated = restated_defaults()
    assert not restated, (
        "keyword arguments in src/medrex that pass the called dataclass's own default (drop them):\n"
        + "\n".join(restated)
    )
