"""The benchmark's hooks into boxdim still resolve.

bench/tracing.py patches the functions it names in SPANS, KERNELS and
COUNTED, and bench/setup_probe.py builds each config's box space the way
the CLI does.  A renamed or deleted name would otherwise show only when
the traced benchmark runs.
"""
import importlib.util
import subprocess
import sys
from pathlib import Path

from conftest import cli_env

from boxdim import Cover, CoverSet, ProfileTable

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [*tracing.SPANS, *tracing.KERNELS, *tracing.COUNTED]
    assert names
    for module, attr in names:
        assert callable(tracing._resolve(module, attr)[2]), (module, attr)
    # the counters read these off the traced calls' arguments and results
    assert callable(Cover.all_sets) and callable(CoverSet.n_points)
    assert "rows" in ProfileTable.__dataclass_fields__


def test_setup_probe_builds_every_bench_config():
    configs = sorted(str(p) for p in (BENCH / "configs").glob("*.ini"))
    assert len(configs) == 6
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *configs],
                          capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
