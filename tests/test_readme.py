"""The README names code in backticks; every such name must exist.

A backticked `module.attr` of a boxdim module, or `Class.member` of one of
the classes the README describes, is resolved by import and getattr, so a
renamed or deleted function cannot stay in the prose.  The CLI's flags and
tasks are compared with the README's lists of them both ways, and every INI
key the CLI reads must be named in the README's key list and be, section
by section and for [task] task by task, exactly the keys of the CLI's
table, cli.INI_KEYS.
"""
import ast
import importlib
import inspect
import re
from pathlib import Path

import boxdim
from boxdim import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("groups", "cayley", "boxspace", "covers", "dimension", "cli", "errors")
CLASSES = ("CayleyGraph", "FiniteMetricSpace", "Cover", "CoarseUnion")


def readme_names():
    """(owner, attribute) for each backticked span that starts with one."""
    owner = "|".join(MODULES + CLASSES)
    return [m.groups() for span in re.findall(r"`([^`\n]+)`", README.read_text())
            if (m := re.match(rf"({owner})\.(\w+)", span))]


def test_readme_code_names_resolve():
    names = readme_names()
    assert names
    missing = []
    for owner, attr in names:
        obj = (importlib.import_module(f"boxdim.{owner}") if owner in MODULES
               else getattr(boxdim, owner))
        if not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert not missing, missing


def readme_paragraph(head):
    """The README paragraph that starts with head."""
    return next(p for p in README.read_text().split("\n\n") if p.startswith(head))


def test_readme_flags_are_the_parser_options():
    documented = set(re.findall(r"`(--[\w-]+)", readme_paragraph("Flags:")))
    options = {o for action in cli.build_parser()._actions for o in action.option_strings
               if o.startswith("--") and o != "--help"}
    assert documented == options


def test_readme_tasks_are_the_cli_tasks():
    listed = readme_paragraph("Tasks:").split(".")[0]
    assert re.findall(r"`(\w+)`", listed) == list(cli.TASK_FUNCS)


def test_component_protocol_is_the_same_on_both_kinds():
    # every method the README's component paragraph and the list after it
    # name exists on both component kinds with the same parameter names,
    # and with the README's where it spells them out
    paragraphs = README.read_text().split("\n\n")
    at = paragraphs.index(readme_paragraph("A component is either"))
    assert paragraphs[at + 1].startswith("- ")
    kinds = (boxdim.CayleyGraph, boxdim.FiniteMetricSpace)
    methods = {name: args for name, args in
               re.findall(r"`(\w+)(?:\(([^)]*)\))?`", "\n".join(paragraphs[at:at + 2]))
               if any(inspect.isfunction(getattr(kind, name, None)) for kind in kinds)}
    assert {"check_vertex", "distance", "distances_from", "distances_to",
            "row_diameters"} <= set(methods)
    for name, args in methods.items():
        assert all(inspect.isfunction(getattr(kind, name, None)) for kind in kinds), name
        params = [list(inspect.signature(getattr(kind, name)).parameters)[1:] for kind in kinds]
        assert params[0] == params[1], (name, params)
        if args:
            assert params[0] == [a.split("=")[0].strip() for a in args.split(",")], name


# the functions that read a witness document, not an INI section
WITNESS_READERS = ("verify_witness", "cover_from_json", "_set_ok", "_packed_set")


def _key_names(node, assigned):
    """The string keys node can be: a literal, either branch of a
    conditional, or what a local name is assigned."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _key_names(node.body, assigned) | _key_names(node.orelse, assigned)
    if isinstance(node, ast.Name):
        return set().union(*(_key_names(v, {}) for v in assigned.get(node.id, [])))
    return set()


def _section_names(node, assigned):
    """The INI sections node can be: cfg["name"], either branch of a
    conditional, what a local name is assigned, or, for a function's sec
    parameter, the [task] section every task function is handed."""
    if isinstance(node, ast.Subscript):
        return _key_names(node.slice, {})
    if isinstance(node, ast.IfExp):
        return _section_names(node.body, assigned) | _section_names(node.orelse, assigned)
    if isinstance(node, ast.Name) and node.id in assigned:
        return set().union(*(_section_names(v, {}) for v in assigned[node.id]))
    if isinstance(node, ast.Name) and node.id == "sec":
        return {"task"}
    return set()


def cli_ini_keys():
    """Every key cli.py reads from an INI section, by section, with the
    [task] keys by task: the key argument of _get and _ball_radius, and the
    literal key of a section's .get.  A task reads the [task] keys of its
    task function and of every cli function that one calls, in turn
    (growth_from_config, _packing_cover, _ball_radius); a [task] key read
    outside all of those, before the dispatch, is every task's.  A key whose
    section cannot be told lands under None."""
    keys, task_keys, calls = {}, {}, {}
    tree = ast.parse(Path(cli.__file__).read_text())
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name in WITNESS_READERS:
            continue
        assigned = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        calls[fn.name] = {node.func.id for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("_get", "_ball_radius"):
                names, section = _key_names(node.args[1], assigned), node.args[0]
            elif isinstance(f, ast.Attribute) and f.attr == "get":
                names, section = _key_names(node.args[0], {}), f.value
            else:
                continue
            for name in _section_names(section, assigned) or ({None} if names else ()):
                if name == "task":
                    task_keys.setdefault(fn.name, set()).update(names)
                else:
                    keys.setdefault(name, set()).update(names)

    def reached(fn):
        """fn and every cli function it calls, in turn."""
        seen, todo = set(), [fn]
        while todo:
            f = todo.pop()
            if f in calls and f not in seen:
                seen.add(f)
                todo += calls[f]
        return seen

    per_task = {task: reached(fn.__name__) for task, fn in cli.TASK_FUNCS.items()}
    shared = set().union(*(names for f, names in task_keys.items()
                           if not any(f in fns for fns in per_task.values())))
    keys["task"] = {task: shared.union(*(task_keys.get(f, ()) for f in fns))
                    for task, fns in per_task.items()}
    return keys


def test_ini_key_table_is_what_the_cli_reads():
    # section by section, and [task] task by task: a key listed in the
    # wrong row would refuse a valid config, or let through a key that
    # section or task never reads
    keys = cli_ini_keys()
    assert keys == cli.INI_KEYS
    # the helpers' keys reach their callers' rows
    assert {"growth_c", "growth_d", "growth_r_max", "r"} <= keys["task"]["families"]
    assert {"growth_c", "growth_d", "growth_r_max"} <= keys["task"]["profile"]
    assert all("name" in row for row in keys["task"].values())


def test_readme_names_every_ini_key():
    by_section = cli_ini_keys()
    keys = set().union(*(v for name, v in by_section.items() if name != "task"),
                       *by_section["task"].values())
    assert {"kind", "rank", "size", "factors", "r_max", "growth_r_max", "dir"} <= keys
    named = set(re.findall(r"`(\w+)`", readme_paragraph("Tasks:")))
    assert sorted(keys - named) == []
