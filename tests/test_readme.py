"""The README names code in backticks; every such name must exist.

A backticked `module.attr` of a boxdim module, or `Class.member` of one of
the classes the README describes, is resolved by import and getattr, so a
renamed or deleted function cannot stay in the prose.
"""
import importlib
import re
from pathlib import Path

import boxdim

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("groups", "cayley", "boxspace", "covers", "dimension", "cache", "cli", "errors")
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
