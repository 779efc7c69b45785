"""End-to-end CLI tests through subprocess, matching documented exit codes."""
import copy
import importlib.util
import json
import math
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from conftest import cap_address_space, cli_env
from test_exact_solver import old_rs_dim_exact

from boxdim import cli, covers
from boxdim.cayley import build_quotient_cayley
from boxdim.groups import CongruenceQuotient, unitriangular


def run_cli(tmp_path, ini_text, *flags, **limits):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini_text)
    return subprocess.run(
        [sys.executable, "-m", "boxdim", "--config", str(cfg), *flags],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env(), **limits)


def run_capped(tmp_path, ini_text, *flags):
    """run_cli with 1 GiB of address space in the child and a 60 s timeout."""
    return run_cli(tmp_path, ini_text, *flags, preexec_fn=cap_address_space, timeout=60)


PROFILE_INI = """\
[group]
kind = free_abelian
rank = 1

[filtration]
rule = powers
base = 2
count = 8

[task]
name = profile
r_list = 2 4
s_cap = 32
mode = structured

[output]
dir = out
csv = profile.csv
summary = profile.json
"""


def strip_wall_time(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()]
    drop = rows[0].index("wall_time_ms")
    return [row[:drop] + row[drop + 1:] for row in rows]


def test_profile_task_writes_csv_and_summary(tmp_path):
    proc = run_cli(tmp_path, PROFILE_INI)
    assert proc.returncode == 0, proc.stderr
    csv_text = (tmp_path / "out" / "profile.csv").read_text()
    rows = csv_text.splitlines()
    assert rows[0].startswith("R,s_achieved,n_achieved,mode")
    assert len(rows) == 3
    summary = json.loads((tmp_path / "out" / "profile.json").read_text())
    assert summary["hirsch_length"] == 1
    assert [r["n_achieved"] for r in summary["rows"]] == [1, 1]


def test_threads_do_not_change_results(tmp_path):
    a = run_cli(tmp_path, PROFILE_INI, "--threads", "1")
    csv_a = (tmp_path / "out" / "profile.csv").read_text()
    b = run_cli(tmp_path, PROFILE_INI, "--threads", "4")
    csv_b = (tmp_path / "out" / "profile.csv").read_text()
    assert a.returncode == 0 and b.returncode == 0
    assert strip_wall_time(csv_a) == strip_wall_time(csv_b)


def test_witness_roundtrip_and_tampering(tmp_path):
    wit = tmp_path / "wit.json"
    assert run_cli(tmp_path, PROFILE_INI, "--export-witness", str(wit)).returncode == 0
    ok = run_cli(tmp_path, PROFILE_INI, "--verify-witness", str(wit))
    assert ok.returncode == 0, ok.stderr

    data = json.loads(wit.read_text())
    data["rows"][0]["families"][0][0]["parts"][0][1][0] += 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    broken = run_cli(tmp_path, PROFILE_INI, "--verify-witness", str(bad))
    assert broken.returncode == 4
    assert "verification failed" in broken.stderr


def test_witness_group_mismatch_is_config_error(tmp_path):
    wit = tmp_path / "wit.json"
    run_cli(tmp_path, PROFILE_INI, "--export-witness", str(wit))
    data = json.loads(wit.read_text())
    data["group"] = "unitriangular(3)"
    wit.write_text(json.dumps(data))
    proc = run_cli(tmp_path, PROFILE_INI, "--verify-witness", str(wit))
    assert proc.returncode == 2


def test_malformed_witness_exit_codes(tmp_path):
    wit = tmp_path / "wit.json"
    assert run_cli(tmp_path, PROFILE_INI, "--export-witness", str(wit)).returncode == 0
    good = json.loads(wit.read_text())

    def first_set(d):
        return d["rows"][0]["families"][0][0]

    def drop(owner, key):
        def edit(d):
            del owner(d)[key]
            return d
        return edit

    def set_vertex(value):
        def edit(d):
            first_set(d)["parts"][0][1][0] = value
            return d
        return edit

    def set_component(value):
        def edit(d):
            first_set(d)["parts"][0][0] = value
            return d
        return edit

    def last_set(d):
        return d["rows"][0]["families"][-1][-1]

    def set_last_vertex(value):
        # the last id of the last set of a row, after valid sets
        def edit(d):
            last_set(d)["parts"][-1][1][-1] = value
            return d
        return edit

    def extra_set(last_vertex):
        # a copy of a set with more than one id, ahead of the rows
        def edit(d):
            s = copy.deepcopy(d["rows"][0]["families"][-1][-1])
            s["parts"][-1][1][-1] = last_vertex
            return {"extra": s, **d}
        return edit

    def add(owner, **keys):
        def edit(d):
            owner(d).update(keys)
            return d
        return edit

    set_keys = {"label": "x", "parts": [[0, [1, 2]]], "center": None, "radius": 3}
    cases = [  # (case, edit, exit code)
        ("missing moduli", drop(lambda d: d, "moduli"), 2),
        ("missing families", drop(lambda d: d["rows"][0], "families"), 2),
        ("missing parts", drop(first_set, "parts"), 2),
        ("string vertex id", set_vertex("x"), 2),
        ("fractional vertex id", set_vertex(0.5), 2),
        # integers past 64 bits are out of range like any other
        ("vertex id 2**70", set_vertex(2 ** 70), 2),
        ("vertex id -2**70", set_vertex(-2 ** 70), 2),
        ("component 2**70", set_component(2 ** 70), 2),
        ("component -2**70", set_component(-2 ** 70), 2),
        ("vertex id 2**63 - 1", set_vertex(2 ** 63 - 1), 2),
        ("last vertex id 2**70", set_last_vertex(2 ** 70), 2),
        # a bool is not an integer here, so it is never read as 0 or 1
        ("vertex id true", set_vertex(True), 2),
        ("component true", set_component(True), 2),
        # the reader packs a set wherever it stands, and one past 64 bits
        # is rolled back mid-part; only the rows' sets are read
        ("set under an extra key", extra_set(0), 0),
        ("set with last id 2**70 under an extra key", extra_set(2 ** 70), 0),
        # a set with another key is refused, like an unknown INI key, and
        # the schema message comes before the 64-bit one; a row and the top
        # level that also carry a set's keys are left as they are
        ("set with an extra key", add(first_set, note="x"), 2),
        ("set with an extra key and a last id of 2**70",
         lambda d: add(last_set, note="x")(set_last_vertex(2 ** 70)(d)), 2),
        ("row with a set's keys", add(lambda d: d["rows"][0], **set_keys), 0),
        ("top level with a set's keys", add(lambda d: d, **set_keys), 0),
        ("top-level list", lambda d: [d], 2),
        ("dropped set", drop(lambda d: d["rows"][0]["families"][0], 0), 4),
        # a non-nested family refuses an empty list, as a filtration does
        ("empty non-nested moduli", lambda d: {**d, "moduli": [], "nested": False}, 2),
        # json.load refuses integer literals past 4,300 digits
        ("vertex id of 5,001 digits", lambda d: json.dumps(d).replace(
            '"parts": [[0, [', '"parts": [[0, [' + "7" * 5001 + ", ", 1), 2),
        # json.load recurses once per level of nesting
        ("200,000 nested lists", lambda d: "[" * 200_000, 2),
        # Z^2 mod m has m^2 vertices, 6,001 digits: refused without printing them
        ("Z^2 modulus of 3,001 digits",
         lambda d: (PLANE_INI, {**d, "group": "free_abelian(2)", "moduli": [10 ** 3000]}), 3),
    ]
    bad = tmp_path / "bad.json"
    summary = tmp_path / "out" / "profile.json"
    bad.write_text(json.dumps(good))
    assert run_capped(tmp_path, PROFILE_INI, "--verify-witness", str(bad)).returncode == 0
    clean = summary.read_text()
    for case, edit, code in cases:
        ini, doc = PROFILE_INI, edit(copy.deepcopy(good))
        if type(doc) is tuple:
            ini, doc = doc
        bad.write_text(doc if type(doc) is str else json.dumps(doc))
        summary.unlink(missing_ok=True)
        proc = run_capped(tmp_path, ini, "--verify-witness", str(bad))
        assert proc.returncode == code, (case, proc.stderr)
        assert "Traceback" not in proc.stderr, case
        if "extra key" in case and code == 2:
            assert "and no other key" in proc.stderr, (case, proc.stderr)
        elif "2**70" in case and code == 2:
            assert "does not fit in 64 bits" in proc.stderr, (case, proc.stderr)
        if code == 0:
            assert summary.read_text() == clean, case
        if case == "200,000 nested lists":
            assert "cannot read witness" in proc.stderr, proc.stderr


NON_NESTED_INI = """\
[group]
kind = free_abelian
rank = 1

[filtration]
moduli = 6 9 15
nested = false

[task]
{task}
[output]
dir = out
"""

EXPORTING_TASKS = {
    "profile": "name = profile\nr_list = 2\ns_cap = 16\nmode = structured\n",
    "cover": "name = cover\nr = 2\ngrowth_c = 3\ngrowth_d = 1\n",
    "families": "name = families\nr = 2\ngrowth_c = 3\ngrowth_d = 1\n",
    "rsdim": "name = rsdim\nr = 2\ns = 3\ncomponent = 0\nmethod = exact\n",
}


@pytest.mark.parametrize("task", sorted(EXPORTING_TASKS))
def test_non_nested_witness_roundtrip(tmp_path, task):
    ini = NON_NESTED_INI.format(task=EXPORTING_TASKS[task])
    wit = tmp_path / "wit.json"
    proc = run_cli(tmp_path, ini, "--export-witness", str(wit))
    assert proc.returncode == 0, proc.stderr
    # an rsdim witness covers one component, and one modulus is a filtration
    assert json.loads(wit.read_text())["nested"] is (task == "rsdim")
    ok = run_cli(tmp_path, ini, "--verify-witness", str(wit))
    assert ok.returncode == 0, ok.stderr


def test_non_nested_isoradius_keeps_each_components_radius(tmp_path):
    # no running maximum across a family that is not nested: Z mod 4 has
    # radius 1 even after Z mod 16's 7, so no suffix of components has
    # radius 2
    ini = NON_NESTED_INI.replace("6 9 15", "16 4").format(task="name = isoradius\nk_list = 2 8\n")
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["radii"] == summary["effective_radii"] == [7, 1]
    assert summary["thresholds"] == {"2": None, "8": None}


def test_malformed_moduli_exit_code(tmp_path):
    ini = PROFILE_INI.replace("rule = powers\nbase = 2\ncount = 8",
                              "moduli = 3 4")
    assert "moduli = 3 4" in ini
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


def test_vertex_cap_exit_code(tmp_path):
    ini = """\
[group]
kind = free_abelian
rank = 2

[filtration]
moduli = 4 1024

[task]
name = boxspace

[limits]
vertex_cap = 1000
"""
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 3
    assert "resource cap" in proc.stderr


PLANE_INI = """\
[group]
kind = free_abelian
rank = 2

[filtration]
moduli = 4 16

[task]
name = profile
r_list = 1
s_cap = 8
mode = structured

[output]
dir = out
"""


def test_verify_witness_honours_the_vertex_cap(tmp_path):
    wit = tmp_path / "wit.json"
    proc = run_cli(tmp_path, PLANE_INI, "--export-witness", str(wit))
    assert proc.returncode == 0, proc.stderr
    assert run_cli(tmp_path, PLANE_INI, "--verify-witness", str(wit)).returncode == 0
    # Z^2 / 16 has 256 vertices; the task and the witness check both refuse it
    capped = PLANE_INI + "\n[limits]\nvertex_cap = 100\n"
    for flags in ((), ("--verify-witness", str(wit))):
        proc = run_cli(tmp_path, capped, *flags)
        assert proc.returncode == 3, (flags, proc.stderr)
        assert "quotient order 256 exceeds the vertex cap 100" in proc.stderr


COVER_INI = """\
[group]
kind = free_abelian
rank = 1

[filtration]
moduli = 8 16

[task]
name = cover
r = 2
growth_c = 3
growth_d = 1

[output]
dir = out
"""


@pytest.mark.parametrize("old, new, key", [
    ("rank = 1", "rank = abc", "[group] rank"),
    ("name = cover\nr = 2", "name = profile\nr_list = 2 x\ns_cap = 8", "[task] r_list"),
    ("r = 2", "r = two", "[task] r"),
    ("[output]", "[limits]\nvertex_cap = lots\n\n[output]", "[limits] vertex_cap"),
    ("moduli = 8 16", "moduli = 8 16\nnested = maybe", "[filtration] nested"),
    ("kind = free_abelian\nrank = 1", "kind = direct_product\nfactors = free_abelian:x",
     "[group] factors"),
])
def test_malformed_ini_values_exit_2(tmp_path, old, new, key):
    # each used to escape as a ValueError traceback with exit 1
    assert old in COVER_INI
    proc = run_cli(tmp_path, COVER_INI.replace(old, new))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert key in proc.stderr


@pytest.mark.parametrize("old, new, key", [
    ("moduli = 8 16", "rule = powers\nbase = 2\ncount = 100000000", "[filtration] count"),
    ("growth_d = 1", "growth_d = 1000000000", "parameter ladder did not converge"),
    # C R^d <= 1 leaves the ladder at m = 0, and C <= 1 fails the growth check
    # at r = 1, so K = 4^d + 1 is never needed
    ("r = 2\ngrowth_c = 3\ngrowth_d = 1", "r = 1\ngrowth_c = 1/2\ngrowth_d = 1000000000",
     "growth bound"),
])
def test_huge_values_exit_2_under_a_memory_cap(tmp_path, old, new, key):
    # each used to build a number or list past the cap and exit 1 with a
    # MemoryError after 9 to 25 s
    assert old in COVER_INI
    proc = run_capped(tmp_path, COVER_INI.replace(old, new))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert key in proc.stderr


UT3_HEAD = "[group]\nkind = unitriangular\nsize = 3\n\n"
Z_HEAD = "[group]\nkind = free_abelian\nrank = 1\n\n"
Z_BOX = Z_HEAD + "[filtration]\nmoduli = 2 4\n\n"
RANDOM_RSDIM = "[task]\nname = rsdim\nsource = random\nr = 1\ns = 2\n"


def group_head(kind, n):
    key = "rank" if kind == "free_abelian" else "size"
    return f"[group]\nkind = {kind}\n{key} = {n}\n\n"


def lattice_ball_sizes(n, r_max):
    """|B(e, r)| in Z^n for r = 0..r_max: the points with i nonzero
    coordinates and |x|_1 <= r number 2^i C(n, i) C(r, i)."""
    return [sum(2 ** i * math.comb(n, i) * math.comb(r, i) for i in range(n + 1))
            for r in range(r_max + 1)]


HUGE = str(10 ** 20)


# key: text the error message holds, or items the summary holds (exit 0)
@pytest.mark.parametrize("ini, code, key", [
    pytest.param("[task]\nname = rsdim\nsource = random\nr = 1\ns = 2\nmax_distance = " + HUGE,
                 2, "max_distance", id="rsdim max_distance"),
    pytest.param(UT3_HEAD + "[task]\nname = growth\nr_max = " + HUGE,
                 3, "[task] r_max", id="growth r_max"),
    pytest.param(UT3_HEAD + "[filtration]\nmoduli = 2 4\n\n[task]\nname = families\nr = 2\n"
                 "growth_r_max = " + HUGE, 3, "[task] growth_r_max", id="families growth_r_max"),
    # |B(e, 1)| = 5 in UT(3)
    pytest.param(UT3_HEAD + "[task]\nname = growth\nr_max = 8\ngrowth_d = " + HUGE,
                 0, {"bound": {"C": "5", "d": 10 ** 20, "validated_range": [1, 8]}},
                 id="growth growth_d"),
    pytest.param(Z_HEAD + "[task]\nname = transfer\nr0 = 2\nradii = " + HUGE,
                 3, "[task] radii", id="transfer radii"),
    # integers past the 4,300 digits str() prints
    pytest.param(group_head("free_abelian", 2) + "[filtration]\nmoduli = 1" + "0" * 3000
                 + "\n\n[task]\nname = boxspace", 3, "quotient order past 2**64",
                 id="boxspace modulus of 3,001 digits"),
    pytest.param(Z_HEAD + "[filtration]\nmoduli = 8 16\n\n[task]\nname = cover\nr = 1"
                 + "0" * 4000 + "\ngrowth_c = 3\ngrowth_d = 1", 2, "[task] r",
                 id="cover r of 4,001 digits"),
    # groups past a slice of ball enumeration, refused before their generators
    pytest.param(group_head("free_abelian", 30) + "[task]\nname = growth\nr_max = 4",
                 0, {"sizes": lattice_ball_sizes(30, 4)}, id="growth free_abelian 30"),
    pytest.param(group_head("free_abelian", 3000) + "[task]\nname = growth\nr_max = 4",
                 3, "[group] rank", id="growth free_abelian 3000"),
    pytest.param(group_head("unitriangular", 80) + "[task]\nname = growth\nr_max = 4",
                 3, "[group] size", id="growth unitriangular 80"),
    pytest.param(group_head("unitriangular", 300) + "[task]\nname = growth\nr_max = 4",
                 3, "[group] size", id="growth unitriangular 300"),
    pytest.param(group_head("unitriangular", 300) + "[filtration]\nmoduli = 2\n\n"
                 "[task]\nname = boxspace", 3, "[group] size", id="boxspace unitriangular 300"),
    pytest.param(group_head("free_abelian", 20000) + "[filtration]\nmoduli = 2\n\n"
                 "[task]\nname = boxspace", 3, "[group] rank", id="boxspace free_abelian 20000"),
    pytest.param("[group]\nkind = direct_product\nfactors = free_abelian:200 unitriangular:40"
                 "\n\n[task]\nname = growth\nr_max = 2", 3, "[group] factors",
                 id="growth direct_product"),
    # the README keys
    pytest.param(group_head("unitriangular", HUGE) + "[task]\nname = growth\nr_max = 2",
                 3, "[group] size", id="group size"),
    pytest.param(RANDOM_RSDIM.replace("s = 2", "s = " + HUGE), 0, {"S": 10 ** 20, "n": 0},
                 id="rsdim s"),
    pytest.param(Z_BOX + "[task]\nname = profile\nr_list = 1\ns_cap = " + HUGE,
                 0, {"S_cap": 10 ** 20}, id="profile s_cap"),
    pytest.param(Z_BOX + "[task]\nname = profile\nr_list = 1\ns_cap = 4\nmode = " + HUGE,
                 2, "mode must be one of", id="profile mode"),
    pytest.param(RANDOM_RSDIM + "method = " + HUGE, 2, "unknown method", id="rsdim method"),
    pytest.param(Z_BOX + "[task]\nname = rsdim\nr = 1\ns = 2\ncomponent = " + HUGE,
                 2, "component index", id="rsdim component"),
    pytest.param(UT3_HEAD + "[filtration]\nmoduli = 2 4\n\n[task]\nname = isoradius\n"
                 "k_list = " + HUGE, 0, {"thresholds": {HUGE: None}}, id="isoradius k_list"),
    pytest.param(Z_HEAD + "[task]\nname = transfer\nr0 = " + HUGE + "\nradii = 4 6",
                 2, "need r0", id="transfer r0"),
    pytest.param(Z_HEAD + "[task]\nname = transfer\nr0 = -1\nradii = 4 6",
                 2, "ball radius must be >= 0, got -1", id="transfer r0 -1"),
    # B(e, r0) is refused at the point cap before B(e, 2 r0) meets state_cap
    pytest.param(Z_HEAD + "[task]\nname = transfer\nr0 = 4990\nradii = 4999\n\n"
                 "[limits]\nstate_cap = 10000", 3, "9981 points exceeds the cap 4096",
                 id="transfer r0 past the point cap"),
    # a stripe of width S + 1 = 0 divided by zero; a negative one wrote outputs
    pytest.param(Z_HEAD + "[task]\nname = transfer\nr = 0\ns = -1\nr0 = 1\nradii = 6 8",
                 2, "striped inputs need", id="transfer stripe 0"),
    pytest.param(Z_HEAD + "[task]\nname = transfer\nr = -5\ns = -3\nr0 = 1\nradii = 6 8",
                 2, "striped inputs need", id="transfer stripe -2"),
    pytest.param(RANDOM_RSDIM.replace("random", HUGE), 2, "unknown rsdim source",
                 id="rsdim source"),
    pytest.param(RANDOM_RSDIM + "points = " + HUGE, 3, "exceeds the cap 1024",
                 id="rsdim points"),
    pytest.param(UT3_HEAD + "[task]\nname = growth\nr_max = 8\n\n[limits]\nstate_cap = " + HUGE,
                 0, {"sizes": [1, 5, 17, 53, 135, 299, 593, 1069, 1793]}, id="limits state_cap"),
    # adjacency ids are int32: a larger vertex_cap is refused before any
    # build, and a quotient past memory is a resource cap, not a traceback
    pytest.param(Z_HEAD + "[filtration]\nmoduli = 100000000\n\n[task]\nname = boxspace\n\n"
                 "[limits]\nvertex_cap = 1000000000000", 2, "[limits] vertex_cap",
                 id="limits vertex_cap 10**12"),
    pytest.param(group_head("free_abelian", 2) + "[filtration]\nmoduli = 10000000000\n\n"
                 "[task]\nname = boxspace\n\n[limits]\nvertex_cap = 1" + "0" * 30,
                 2, "[limits] vertex_cap", id="limits vertex_cap 10**30"),
    pytest.param(Z_HEAD + "[filtration]\nmoduli = 100000000\n\n[task]\nname = boxspace\n\n"
                 "[limits]\nvertex_cap = 2147483647", 3, "resource cap exceeded",
                 id="limits vertex_cap 2**31 - 1"),
    # point_cap is not a key, and an unknown key is refused before any
    # solver runs (exhaustive keeps its 12 points either way)
    pytest.param(UT3_HEAD + "[filtration]\nmoduli = 3\n\n[task]\nname = rsdim\nr = 2\n"
                 "s = 2\nmethod = exhaustive\npoint_cap = 30", 2, "[task] point_cap",
                 id="rsdim exhaustive point_cap"),
    pytest.param(UT3_HEAD + "[filtration]\nmoduli = 3\n\n[task]\nname = rsdim\nr = 2\n"
                 "s = 2\nmethod = exhaustive", 3, "exceeds the cap 12",
                 id="rsdim exhaustive past its 12 points"),
])
def test_huge_radii_and_distances_exit_cleanly_under_a_memory_cap(tmp_path, ini, code, key):
    # each used to exit 1 (an int32 overflow, islice past sys.maxsize, a
    # MemoryError building r ** d, a striped input or a sphere's products,
    # or str() of an integer past 4,300 digits), or pins the exit code of a
    # documented key
    proc = run_capped(tmp_path, ini + "\n\n[output]\ndir = out\n")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if isinstance(key, dict):
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert {k: summary[k] for k in key} == key
    else:
        assert key in proc.stderr


def test_tampered_ball_hints_change_no_report(tmp_path):
    # the cover task's balls carry their center and radius; a hint the
    # verifier cannot confirm must leave it exactly where no hint leaves it
    wit = tmp_path / "wit.json"
    assert run_cli(tmp_path, COVER_INI, "--export-witness", str(wit)).returncode == 0
    good = json.loads(wit.read_text())
    assert all(s["center"] is not None for s in good["families"][0])

    def each_ball(edit):
        def apply(d):
            for s in d["families"][0]:
                edit(s)
            return d
        return apply

    def tight_s(d):
        d["S"] = 7     # below the diameter 8 of the balls on Z/16
        return d

    def vertex_past_the_end(d):
        d["families"][0][-1]["parts"][0][1][0] = 16
        return d

    bases = [("honest", lambda d: d, 0), ("tight S", tight_s, 4),
             ("vertex past the end", vertex_past_the_end, 2)]
    tampers = [
        ("center of three", each_ball(lambda s: s.update(center=s["center"] + [0]))),
        ("center on the other component",
         each_ball(lambda s: s.update(center=[1 - s["center"][0], s["center"][1]]))),
        ("center past the vertices", each_ball(lambda s: s.update(center=[s["center"][0], 16]))),
        ("negative radius", each_ball(lambda s: s.update(radius=-1))),
        ("radius 2**70", each_ball(lambda s: s.update(radius=2 ** 70))),
        ("lying radius", each_ball(lambda s: s.update(radius=s["radius"] + 1))),
    ]
    bad = tmp_path / "bad.json"

    def verify(d):
        bad.write_text(json.dumps(d))
        proc = run_cli(tmp_path, COVER_INI, "--verify-witness", str(bad))
        summary = tmp_path / "out" / "summary.json"
        report = summary.read_text() if proc.returncode == 0 else None
        if summary.exists():
            summary.unlink()
        return proc.returncode, proc.stderr, report

    for base, prepare, code in bases:
        bare = prepare(copy.deepcopy(good))
        each_ball(lambda s: s.update(center=None, radius=None))(bare)
        want = verify(bare)
        assert want[0] == code, (base, want[1])
        for case, tamper in tampers:
            got = verify(tamper(prepare(copy.deepcopy(good))))
            assert "Traceback" not in got[1], (base, case)
            assert got == want, (base, case)


def test_random_rsdim_point_cap_exit_3(tmp_path):
    ini = """\
[task]
name = rsdim
source = random
points = 1000000
r = 2
s = 2
method = greedy

[output]
dir = r
"""
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 3, proc.stderr
    assert "resource cap" in proc.stderr


def test_the_cli_imports_no_thread_pool():
    # thread_map imports its pool only when threads > 1, so a child on one
    # thread never loads concurrent.futures (and the logging it imports)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, boxdim.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=cli_env())
    assert proc.stdout.split() == ["False"], proc.stderr


def test_missing_config_and_unknown_task(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "boxdim", "--config", str(tmp_path / "none.ini")],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2
    proc = run_cli(tmp_path, PROFILE_INI.replace("name = profile", "name = box"))
    assert proc.returncode == 2
    assert "unknown task" in proc.stderr
    # the on-disk graph cache, its flag and its task are gone
    proc = run_cli(tmp_path, PROFILE_INI, "--cache-dir", str(tmp_path / "cache"))
    assert proc.returncode == 2
    assert "--cache-dir" in proc.stderr
    proc = run_cli(tmp_path, "[task]\nname = cache_gc\nbudget = 0\n")
    assert proc.returncode == 2
    assert "unknown task" in proc.stderr


def test_growth_task_fits_line(tmp_path):
    ini = """\
[group]
kind = free_abelian
rank = 1

[task]
name = growth
r_max = 8

[output]
dir = g
"""
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "g" / "summary.json").read_text())
    assert summary["bound"] == {"C": "3", "d": 1, "validated_range": [1, 8]}
    assert summary["sizes"] == [1 + 2 * r for r in range(9)]
    rows = (tmp_path / "g" / "growth.csv").read_text().splitlines()
    assert rows[0] == "r,ball_size" and rows[1] == "0,1"


def test_growth_radius_refused_by_the_ball_size_lower_bound(tmp_path):
    # B(e, r) of a torsion-free group holds g^k for |k| <= r: on Z that is
    # exactly 2r + 1 elements, so r_max = 50 is past state_cap = 100
    ini = """\
[group]
kind = free_abelian
rank = 1

[task]
name = growth
r_max = {r_max}

[limits]
state_cap = 100

[output]
dir = g
"""
    proc = run_cli(tmp_path, ini.format(r_max=49))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "g" / "summary.json").read_text())
    assert summary["sizes"][-1] == 99
    proc = run_cli(tmp_path, ini.format(r_max=50))
    assert proc.returncode == 3, proc.stderr
    assert "[task] r_max" in proc.stderr


def test_cover_and_families_tasks(tmp_path):
    ini = """\
[group]
kind = free_abelian
rank = 1

[filtration]
rule = powers
base = 2
count = 7

[task]
name = cover
r = 2
growth_c = 3
growth_d = 1

[output]
dir = c
"""
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["ok"] and summary["r_multiplicity"] <= summary["K"] == 5
    assert summary["diameters_exact"] is True
    header = (tmp_path / "c" / "cover.csv").read_text().splitlines()[0]
    assert header == "family,label,center_component,center_vertex,radius,n_points"

    wit = tmp_path / "fw.json"
    proc = run_cli(tmp_path, ini.replace("name = cover", "name = families"),
                   "--export-witness", str(wit))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["ok"] and summary["n_families"] <= summary["multiplicity_bound"]
    ok = run_cli(tmp_path, ini, "--verify-witness", str(wit))
    assert ok.returncode == 0, ok.stderr


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_families_task_verifies_the_regrouping_once(tmp_path, monkeypatch):
    # cover_prop41's check, the regrouping's proximity graph and its one
    # verify_cover: three dilation passes where there were four
    calls = {"_near_sets": 0, "verify_cover": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in ((covers, "_near_sets"), (covers, "verify_cover"),
                         (cli, "verify_cover")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--config", str(BENCH / "configs" / "heisenberg_families.ini")]) == 0
    assert calls == {"_near_sets": 3, "verify_cover": 2}
    # the outputs are the bytes the benchmark's reference digests name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    want = json.loads(bench.REFERENCE.read_text())["heisenberg_cover"][0]
    out = tmp_path / "heisenberg_families"
    assert {f.name: bench._digest(f) for f in sorted(out.iterdir())} == want


def test_families_task_exits_4_on_a_bad_regrouping(tmp_path, monkeypatch, capsys):
    # every set in family 0: the overlapping packing balls are close pairs
    monkeypatch.setattr(covers, "first_fit_colors", lambda n, a, b: np.zeros(n, dtype=np.int64))
    cfg = tmp_path / "run.ini"
    cfg.write_text(COVER_INI.replace("name = cover", "name = families"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--config", str(cfg)]) == 4
    assert "regrouped family 0 is not 2-disjoint: (" in capsys.readouterr().err


# keys of the cover task, and k_list of isoradius, under tasks that do not
# read all of them; the first unknown key in sorted order is named
OTHER_TASKS_KEYS = "r = 2\ngrowth_c = 3\ngrowth_d = 1\nk_list = 1\n"


@pytest.mark.parametrize("ini, key", [
    pytest.param(RANDOM_RSDIM + "max_dist = 3", "[task] max_dist", id="task max_dist"),
    pytest.param(COVER_INI.replace("rank = 1", "rank = 1\nrnak = 2"), "[group] rnak",
                 id="group rnak"),
    pytest.param(COVER_INI + "\n[limit]\nstate_cap = 100\n", "[limit]", id="limit section"),
    pytest.param("[DEFAULT]\nr = 2\n\n" + COVER_INI, "[DEFAULT] r", id="DEFAULT section"),
    *(pytest.param(Z_BOX + f"[task]\nname = {task}\n" + OTHER_TASKS_KEYS, f"[task] {key}",
                   id=f"{task} with other tasks' keys")
      for task, key in (("boxspace", "growth_c"), ("quotient", "growth_c"),
                        ("cover", "k_list"), ("isoradius", "growth_c"))),
])
def test_unknown_ini_keys_and_sections_exit_2(tmp_path, ini, key):
    # each used to be ignored without a word
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert key in proc.stderr


def test_bench_configs_hold_only_known_keys():
    configs = sorted((BENCH / "configs").glob("*.ini"))
    assert len(configs) == 6
    for path in configs:
        cfg = cli.load_config(path)
        assert set(cfg["task"]) <= cli.INI_KEYS["task"][cfg["task"]["name"]], path.name
        cli._check_keys(cfg)


@pytest.mark.parametrize("ini, missing", [
    pytest.param(COVER_INI.replace("growth_c = 3\n", ""), "growth_c", id="cover growth_d alone"),
    pytest.param(Z_BOX + "[task]\nname = profile\nr_list = 2\ns_cap = 8\nmode = prop41\n"
                 "growth_c = 3\n", "growth_d", id="profile growth_c alone"),
])
def test_half_an_explicit_growth_bound_exits_2(tmp_path, ini, missing):
    # each used to fit a bound of free degree instead, without a word
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 2, proc.stderr
    assert f"[task] {missing} is missing" in proc.stderr


# one small run per task; each README key of its sections is set to each
# malformed value in turn
MALFORMED_VALUES = ("", "-1", "0", "abc", "1.5")
Z_SECTIONS = {"group": {"kind": "free_abelian", "rank": "1"}, "filtration": {"moduli": "2 4"}}
UT3_SECTIONS = {"group": {"kind": "unitriangular", "size": "3"}, "filtration": {"moduli": "2"}}
SMALL_RUNS = {
    "growth": (UT3_SECTIONS, {"r_max": "4", "growth_d": "4"}),
    "quotient": (Z_SECTIONS, {}),
    "boxspace": (Z_SECTIONS, {}),
    "isoradius": (UT3_SECTIONS, {"k_list": "1 2"}),
    "cover": (Z_SECTIONS, {"r": "1", "growth_c": "3", "growth_d": "1", "growth_r_max": "4"}),
    "families": (Z_SECTIONS, {"r": "1", "growth_c": "3", "growth_d": "1", "growth_r_max": "4"}),
    "rsdim": (Z_SECTIONS, {"source": "component", "r": "1", "s": "2", "method": "exact",
                           "component": "0", "points": "4", "max_distance": "3"}),
    "rsdim random": (Z_SECTIONS, {"source": "random", "r": "1", "s": "2", "method": "exact",
                                  "component": "0", "points": "4", "max_distance": "3"}),
    "profile": (Z_SECTIONS, {"r_list": "1", "s_cap": "4", "mode": "prop41", "growth_c": "3",
                             "growth_d": "1", "growth_r_max": "4"}),
    "transfer": (Z_SECTIONS, {"r": "2", "s": "3", "r0": "1", "radii": "6 8"}),
}


def ini_text(sections):
    """The INI text of {section: {key: value}}."""
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                     for name, items in sections.items())


@pytest.mark.parametrize("run", SMALL_RUNS)
def test_malformed_values_of_every_key_exit_cleanly(tmp_path, monkeypatch, capsys, run):
    # none of these values builds anything large, so they run in-process
    task = run.split()[0]
    heads, task_keys = SMALL_RUNS[run]
    base = {**heads, "task": {"name": task, **task_keys}, "limits": {}, "output": {"dir": "out"}}
    assert set(task_keys) | {"name"} == cli.INI_KEYS["task"][task]
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.ini"
    for section in base:
        for key in sorted(cli.INI_KEYS[section] if section != "task"
                          else cli.INI_KEYS["task"][task]):
            for value in MALFORMED_VALUES:
                sections = {**base, section: {**base[section], key: value}}
                cfg.write_text(ini_text(sections))
                code = cli.main(["--config", str(cfg)])
                assert code in (0, 2, 3, 4), (section, key, value, capsys.readouterr().err)
    # every pair of task keys at once, each -1 or 0
    for pair in combinations(sorted(task_keys), 2):
        for values in product(("-1", "0"), repeat=2):
            cfg.write_text(ini_text({**base, "task": {**base["task"], **dict(zip(pair, values))}}))
            code = cli.main(["--config", str(cfg)])
            assert code in (0, 2, 3, 4), (pair, values, capsys.readouterr().err)


def test_truncated_witness_exits_2(tmp_path):
    wit = tmp_path / "wit.json"
    assert run_cli(tmp_path, COVER_INI, "--export-witness", str(wit)).returncode == 0
    text = wit.read_bytes()
    cut = tmp_path / "cut.json"
    for end in (1, len(text) // 2, len(text) - 2):
        cut.write_bytes(text[:end])
        proc = run_cli(tmp_path, COVER_INI, "--verify-witness", str(cut))
        assert proc.returncode == 2, (end, proc.stderr)
        assert "cannot read witness" in proc.stderr, end


Z_248_INI = ini_text({"group": Z_SECTIONS["group"], "filtration": {"moduli": "2 4 8"},
                      "output": {"dir": "out"}})


def test_a_witness_part_with_no_ids_exits_2(tmp_path):
    # four sets, each its own family; an empty part on component 0 lists
    # no point there, and counting A as meeting component 0 would read its
    # diameter as 1 + 4 = 5 > S
    sets = {"A": [[2, [0, 1, 2]]], "B": [[2, [3, 4, 5]]], "C": [[2, [6, 7]]],
            "D": [[0, [0, 1]], [1, [0, 1, 2, 3]]]}
    doc = {"kind": "cover-witness", "group": "free_abelian(1)", "moduli": [2, 4, 8],
           "nested": True, "R": 4, "S": 4, "check_disjoint": True,
           "families": [[{"label": k, "parts": p, "center": None, "radius": None}]
                        for k, p in sets.items()]}
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps(doc))
    assert run_cli(tmp_path, Z_248_INI, "--verify-witness", str(wit)).returncode == 0
    doc["families"][0][0]["parts"].append([0, []])
    wit.write_text(json.dumps(doc))
    proc = run_cli(tmp_path, Z_248_INI, "--verify-witness", str(wit))
    assert proc.returncode == 2, proc.stderr
    assert "set 'A' has no ids on component 0" in proc.stderr


# each field of a witness is replaced by each of these in turn, then deleted
WITNESS_VALUES = (None, True, 1.5, "x", [], {}, [[]], -1, 2 ** 70, [[0, [1]], [2]])
DELETED = object()


def witness_row(doc):
    return doc["rows"][0] if doc["kind"] == "profile-witness" else doc


def witness_fields(doc):
    """(owner, key) for every field of a cover or profile witness: the top
    level, the first row of a profile witness, its first set and that
    set's first part (component and ids)."""
    row = witness_row(doc)
    return ([(lambda d: d, key) for key in doc]
            + ([(witness_row, key) for key in row] if row is not doc else [])
            + [(lambda d: witness_row(d)["families"][0][0], key)
               for key in row["families"][0][0]]
            + [(lambda d: witness_row(d)["families"][0][0]["parts"][0], i) for i in (0, 1)])


@pytest.mark.parametrize("task", ["cover", "profile"])
def test_malformed_witness_shapes_exit_cleanly(tmp_path, monkeypatch, capsys, task):
    # every field of an exported witness, replaced by each malformed value
    # or deleted, is verified in-process: exit 0, 2 or 4 and no exception
    heads, task_keys = SMALL_RUNS[task]
    sections = {**heads, "task": {"name": task, **task_keys}, "output": {"dir": "out"}}
    monkeypatch.chdir(tmp_path)
    cfg, wit, bad = tmp_path / "run.ini", tmp_path / "wit.json", tmp_path / "bad.json"
    cfg.write_text(ini_text(sections))
    assert cli.main(["--config", str(cfg), "--export-witness", str(wit)]) == 0
    good = json.loads(wit.read_text())
    fields = witness_fields(good)
    assert {key for _, key in fields} == {
        "kind", "group", "moduli", "nested", "R", "S", "check_disjoint", "families",
        "label", "parts", "center", "radius", 0, 1} | ({"rows"} if task == "profile" else set())
    for owner, key in fields:
        for value in WITNESS_VALUES + (DELETED,):
            doc = copy.deepcopy(good)
            if value is DELETED:
                del owner(doc)[key]
            else:
                owner(doc)[key] = value
            bad.write_text(json.dumps(doc))
            code = cli.main(["--config", str(cfg), "--verify-witness", str(bad)])
            assert code in (0, 2, 4), (task, key, value, capsys.readouterr().err)


def test_a_profile_witness_with_no_rows_exits_2(tmp_path, monkeypatch, capsys):
    # no rows would verify no cover at all
    heads, task_keys = SMALL_RUNS["profile"]
    monkeypatch.chdir(tmp_path)
    cfg, wit = tmp_path / "run.ini", tmp_path / "wit.json"
    cfg.write_text(ini_text({**heads, "task": {"name": "profile", **task_keys},
                             "output": {"dir": "out"}}))
    assert cli.main(["--config", str(cfg), "--export-witness", str(wit)]) == 0
    doc = json.loads(wit.read_text())
    assert doc["kind"] == "profile-witness" and doc["rows"]
    doc["rows"] = []
    wit.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "--verify-witness", str(wit)]) == 2
    assert "malformed witness: 'rows' must be a non-empty list" in capsys.readouterr().err


def test_rsdim_component_and_random(tmp_path):
    ini = """\
[group]
kind = free_abelian
rank = 1

[filtration]
moduli = 12 24

[task]
name = rsdim
r = 2
s = 3
component = 0
method = exact

[output]
dir = r
"""
    wit = tmp_path / "rw.json"
    proc = run_cli(tmp_path, ini, "--export-witness", str(wit))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["n"] == 1 and summary["n_points"] == 12
    rows = (tmp_path / "r" / "rsdim.csv").read_text().splitlines()
    assert rows[0] == "point,family" and len(rows) == 13
    assert run_cli(tmp_path, ini, "--verify-witness", str(wit)).returncode == 0

    rand_ini = """\
[group]
kind = free_abelian
rank = 1

[task]
name = rsdim
source = random
points = 7
max_distance = 5
r = 2
s = 4
method = exhaustive

[output]
dir = r
csv = rand.csv
summary = rand.json
"""
    a = run_cli(tmp_path, rand_ini, "--seed", "7")
    csv_a = (tmp_path / "r" / "rand.csv").read_text()
    b = run_cli(tmp_path, rand_ini, "--seed", "7")
    csv_b = (tmp_path / "r" / "rand.csv").read_text()
    assert a.returncode == 0 and b.returncode == 0
    assert csv_a == csv_b


# the rsdim step of the word_search benchmark workload (word_rsdim.ini)
WORD_RSDIM_INI = """\
[group]
kind = unitriangular
size = 3

[filtration]
moduli = 3

[task]
name = rsdim
source = component
component = 0
r = 2
s = 2
method = exact

[output]
dir = word_rsdim
"""


def test_word_rsdim_step_writes_the_old_first_coloring(tmp_path):
    # a reordered search changes these rows before it changes a bench digest
    proc = run_cli(tmp_path, WORD_RSDIM_INI)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "word_rsdim" / "rsdim.csv").read_text().splitlines()
    g = build_quotient_cayley(CongruenceQuotient(unitriangular(3), 3))
    n, coloring, _ = old_rs_dim_exact(g, 2, 2)
    assert rows == ["point,family"] + [f"{v},{c}" for v, c in enumerate(coloring)]
    summary = json.loads((tmp_path / "word_rsdim" / "summary.json").read_text())
    assert summary["n"] == n == 2 and not summary["exceeded_cap"]


def test_transfer_task(tmp_path):
    ini = """\
[group]
kind = free_abelian
rank = 1

[task]
name = transfer
r = 2
s = 3
r0 = 4
radii = 10 15 20 25 30

[output]
dir = t
"""
    proc = run_cli(tmp_path, ini)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert summary["surviving_radii"] == [10, 15, 20, 25, 30]
    assert summary["n_points"] == 9
    short = run_cli(tmp_path, ini.replace("radii = 10 15 20 25 30", "radii = 8"))
    assert short.returncode == 2
