"""Shared helpers for the test suite."""
import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def cap_address_space():
    """Run in a child process only (preexec_fn): 1 GiB of address space."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def cli_env():
    """Environment for a `python -m boxdim` child process.

    The absolute src path leads PYTHONPATH, so the child imports this
    checkout whatever its working directory is.
    """
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
