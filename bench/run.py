"""boxdim benchmark: three certifier workloads through the CLI.

    python3 bench/run.py --workload plane_profile --seed 1 --seconds 30 --trace 0

Run from any directory; the repository root is found from this file.  With
--trace 0 every CLI invocation of the workload runs in its own child process
(`python -m boxdim ... --threads 1`), repeated until --seconds have passed,
and the end-to-end metrics are reported.  With --trace 1 the same invocations
run in-process through `boxdim.cli.main`, with spans and counters installed
on boxdim's public functions (see tracing.py), and the per-layer metrics are
reported.  Every invocation's deterministic outputs are compared with the
digests in reference.json; a mismatch or a non-zero exit counts as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--record` rewrites the workload's reference
digests instead of checking them.
"""
import argparse
import configparser
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"

# workload -> ordered (config, extra CLI flags).  No workload draws random
# inputs: --seed reaches every invocation, and outputs must not depend on it.
WORKLOADS = {
    "plane_profile": [
        ("plane_profile.ini", ("--export-witness", "plane_profile.witness.json")),
        ("plane_profile.ini", ("--verify-witness", "plane_profile.witness.json")),
    ],
    "heisenberg_cover": [
        ("heisenberg_families.ini", ()),
        ("heisenberg_profile.ini", ()),
    ],
    "word_search": [
        ("word_growth.ini", ()),
        ("word_isoradius.ini", ()),
        ("word_rsdim.ini", ()),
    ],
}
SETUP_PROBES = 7
# In-process passes in a traced run: a discarded warm-up, then traced and
# untraced passes alternate (the untraced ones give the tracing overhead).
TRACE_SCHEDULE = ("warmup", "traced", "untraced", "traced")


def machine():
    """The machine facts printed with every run (machine.json has the CPU model)."""
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def tail(samples, unit):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n}), max {max(samples):.4f} {unit}"
    rank = n - 10
    return f"p{100 * rank // n} {sorted(samples)[rank - 1]:.4f} {unit} (n={n})"


# --- outputs and their digests ---------------------------------------------------

class Invocation:
    def __init__(self, config, flags, work):
        self.config = CONFIGS / config
        self.flags = flags
        cfg = configparser.ConfigParser()
        cfg.read(self.config)
        self.outdir = work / cfg["output"]["dir"]
        self.exported = (work / flags[1]) if flags[:1] == ("--export-witness",) else None

    def argv(self, seed):
        return ["--config", str(self.config), "--threads", "1",
                "--seed", str(seed), *self.flags]

    def clear(self):
        shutil.rmtree(self.outdir, ignore_errors=True)
        if self.exported is not None and self.exported.exists():
            self.exported.unlink()

    def digests(self):
        files = sorted(self.outdir.iterdir()) if self.outdir.is_dir() else []
        if self.exported is not None and self.exported.exists():
            files.append(self.exported)
        return {f.name: _digest(f) for f in files}


def _digest(path):
    data = path.read_bytes()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows and "wall_time_ms" in rows[0]:
            drop = rows[0].index("wall_time_ms")
            rows = [r[:drop] + r[drop + 1:] for r in rows]
        data = "\n".join(",".join(r) for r in rows).encode()
    return hashlib.sha256(data).hexdigest()


def check(inv, code, expected, what):
    """True when the invocation exited 0 and its outputs match the reference."""
    if code != 0:
        print(f"FAILED {what}: exit {code}", file=sys.stderr)
        return False
    got = inv.digests()
    if got != expected:
        print(f"FAILED {what}: outputs differ from reference.json "
              f"(got {sorted(got)}, expected {sorted(expected)})", file=sys.stderr)
        return False
    return True


# --- untraced: child processes ---------------------------------------------------

def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BOXDIM_CACHE_DIR", None)
    return env


def run_child(argv, cwd, env):
    """(wall seconds, exit code, resource usage) of one child process."""
    t0 = time.perf_counter()
    with open(cwd / "child.stderr", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)   # reaped by wait4
    if code != 0:
        sys.stderr.write((cwd / "child.stderr").read_text()[-2000:])
    return wall, code, usage


def setup_time(configs, work, env):
    argv = [sys.executable, str(BENCH / "setup_probe.py"), *map(str, configs)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        wall, code, _ = run_child(argv, work, env)
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}")
        if i:   # the first probe only warms the file cache
            samples.append(wall)
    return samples


def timed(invocations, reference, seed, seconds, work):
    env = child_env()
    setup = setup_time(sorted({inv.config for inv in invocations}), work, env)
    walls, cpu, peak_kib = [], 0.0, 0
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        total = 0.0
        for i, inv in enumerate(invocations):
            inv.clear()
            wall, code, usage = run_child([sys.executable, "-m", "boxdim", *inv.argv(seed)],
                                        work, env)
            attempted += 1
            failed += not check(inv, code, reference[i], f"invocation {i}")
            total += wall
            cpu += usage.ru_utime + usage.ru_stime
            peak_kib = max(peak_kib, usage.ru_maxrss)
        walls.append(total)
    print(f"wall_s       median {statistics.median(walls):.4f} s, "
          f"{tail(walls, 's')}, n={len(walls)} passes, "
          f"child CPU {cpu / len(walls):.4f} s per pass")
    print(f"setup_s      median {statistics.median(setup):.4f} s, "
          f"{tail(setup, 's')}, n={len(setup)} fresh interpreters")
    print(f"peak_rss_mb  {peak_kib / 1024:.1f} MB (highest ru_maxrss of "
          f"{attempted} CLI children)")
    print(f"fail_frac    {failed / attempted:.4f} ({failed} of {attempted} invocations)")
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_kib / 1024}
    return attempted, failed, metrics


# --- traced: in-process through boxdim.cli.main ------------------------------------

def in_process(cli, invocations, reference, seed, tally):
    total = 0.0
    for i, inv in enumerate(invocations):
        inv.clear()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(inv.argv(seed))
        except Exception:   # a crash is a failed invocation, as exit 1 would be
            traceback.print_exc()
            code = 1
        total += time.perf_counter() - t0
        tally[0] += 1
        tally[1] += not check(inv, code, reference[i], f"invocation {i}")
    return total


def traced(invocations, reference, seed, seconds, work, name):
    sys.path.insert(0, str(SRC))
    os.environ.pop("BOXDIM_CACHE_DIR", None)
    import boxdim.cli as cli
    from tracing import LAYER_METRICS, RATIO_METRICS, Tracer

    tally = [0, 0]
    plain, runs = [], []
    start = time.perf_counter()
    schedule = list(TRACE_SCHEDULE)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        while schedule or time.perf_counter() - start < seconds:
            kind = schedule.pop(0) if schedule else (
                "untraced" if len(plain) < len(runs) else "traced")
            if kind != "traced":
                wall = in_process(cli, invocations, reference, seed, tally)
                if kind == "untraced":
                    plain.append(wall)
                continue
            tracer = Tracer()
            try:
                tracer.install()
                wall = in_process(cli, invocations, reference, seed, tally)
            finally:
                tracer.uninstall()
            runs.append((wall, tracer.metrics(), tracer))
    finally:
        os.chdir(cwd)
    (WORK / f"spans-{name}.json").write_text(json.dumps(runs[-1][2].span_records()))

    counters = [m for m, (kind, _) in LAYER_METRICS.items() if kind == "count"]
    counters += RATIO_METRICS
    steady = all(r[1][c] == runs[0][1][c] for r in runs for c in counters)
    if not steady:
        print("FAILED: counters differ between traced passes of the same code",
              file=sys.stderr)
    metrics = {}
    for metric, value in runs[0][1].items():
        if metric in counters:
            metrics[metric] = value
        else:
            metrics[metric] = statistics.median(r[1][metric] for r in runs)
    wall = statistics.median(r[0] for r in runs)
    untraced = statistics.median(plain)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = wall - untraced
    print(f"traced wall {wall:.4f} s over {len(runs)} passes, untraced in-process "
          f"wall {untraced:.4f} s over {len(plain)} passes, overhead {wall - untraced:+.4f} s")
    print(f"spans of the last traced pass: {WORK / f'spans-{name}.json'}")
    return tally[0], tally[1] + (not steady), metrics


# --- entry point ----------------------------------------------------------------------

def record(invocations, seed, work, name):
    env = child_env()
    digests = []
    for i, inv in enumerate(invocations):
        inv.clear()
        _, code, _ = run_child([sys.executable, "-m", "boxdim", *inv.argv(seed)], work, env)
        if code != 0:
            raise RuntimeError(f"invocation {i} exited {code}")
        digests.append(inv.digests())
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[name] = digests
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} invocation digests for {name} in {REFERENCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's reference digests")
    args = parser.parse_args(argv)

    if not (SRC / "boxdim" / "__init__.py").is_file():
        print(f"boxdim sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print("machine " + json.dumps(machine(), sort_keys=True))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        invocations = [Invocation(c, f, work) for c, f in WORKLOADS[args.workload]]
        if args.record:
            record(invocations, args.seed, work, args.workload)
            return 0
        reference = json.loads(REFERENCE.read_text())[args.workload]
        if args.trace:
            attempted, failed, values = traced(invocations, reference, args.seed,
                                               args.seconds, work, args.workload)
            declared = [m["name"] for m in spec["per_layer"]]
        else:
            attempted, failed, values = timed(invocations, reference, args.seed,
                                              args.seconds, work)
            declared = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if sorted(values) != sorted(declared):
        print(f"metrics {sorted(set(values) ^ set(declared))} are computed or "
              f"declared in BENCHMARK.json, not both", file=sys.stderr)
        return 2
    if args.trace:
        for name in declared:
            print(f"{name:45s} {values[name]:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
