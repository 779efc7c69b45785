"""The README names code in backticks; every such name must exist.

A backticked `module.attr` of a boxdim module, or `Class.member` of one of
the classes the README describes, is resolved by import and getattr, so a
renamed or deleted function cannot stay in the prose.  The CLI's flags and
tasks are compared with the README's lists of them both ways.
"""
import importlib
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
