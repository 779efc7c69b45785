"""Acceptance gate: nine criteria, each printing one PASS/FAIL line.

Every criterion asserts its stated tolerances and wall-time limit; the
line goes to the real terminal so it shows up even under pytest capture.
"""
import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from boxdim.boxspace import build_box_space, isometry_profile, isometry_radius, verify_ball_isometry
from boxdim.cayley import GrowthBound, build_quotient_cayley, fit_growth, growth_profile
from boxdim.covers import (
    assemble_box_families,
    cover_prop41,
    diagonal_transfer,
    families_from_multiplicity_cover,
)
from boxdim.dimension import (
    FiniteMetricSpace,
    asdim_profile,
    random_metric_space,
    rs_dim,
)
from boxdim.errors import InsufficientInputError, VerificationError
from boxdim.groups import CongruenceQuotient, Filtration, free_abelian, unitriangular
from conftest import cli_env


@contextmanager
def criterion(capsys, number, desc, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({desc}): FAIL")
        raise
    dt = time.perf_counter() - t0
    status = "PASS" if dt <= limit_s else "FAIL (over time limit)"
    with capsys.disabled():
        print(f"criterion {number} ({desc}): {status} [{dt:.2f}s / {limit_s:.0f}s]")
    assert dt <= limit_s, f"criterion {number} took {dt:.2f}s > {limit_s}s"


def z_box_1024():
    return build_box_space(Filtration(free_abelian(1),
                                      tuple(2 ** t for t in range(1, 11))))


GROWTH_Z = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 0))
GROWTH_Z2 = GrowthBound(C=Fraction(5), d=2, validated_range=(1, 0))


def test_criterion_1_multiplicity_bounded_covers(capsys):
    with criterion(capsys, 1, "Z box covers, multiplicity <= 5 at R in 1,2,4,8", 5.0):
        box = z_box_1024()
        for R in (1, 2, 4, 8):
            cover, report = cover_prop41(box, R, GROWTH_Z)
            assert report.params.K == 5
            assert report.is_cover
            assert report.r_multiplicity <= 5
            assert report.diameters_exact
            assert report.max_set_diameter <= report.S
            assert report.S <= max(report.params.S_0, R)


def test_criterion_2_plane_covers_and_packings(capsys):
    with criterion(capsys, 2, "Z^2 box covers, multiplicity and packing counts <= 17", 30.0):
        box = build_box_space(Filtration(free_abelian(2), (2, 4, 8, 16, 32, 64)))
        for R in (2, 4):
            cover, report = cover_prop41(box, R, GROWTH_Z2)
            assert report.params.K == 17
            assert report.is_cover
            assert report.r_multiplicity <= 17
            for count in report.packing_counts:
                assert count is None or count <= 17


def test_criterion_3_dimension_profiles(capsys):
    with criterion(capsys, 3, "profiles: Z -> 1, Z^2 -> 2, unitriangular <= 6", 120.0):
        table = asdim_profile(z_box_1024(), (2, 4, 8), S_cap=64, mode="structured")
        assert [r.n_achieved for r in table.rows] == [1, 1, 1]
        assert all(r.s_achieved <= 64 for r in table.rows)

        plane = build_box_space(Filtration(free_abelian(2), (4, 16, 64, 256)))
        table = asdim_profile(plane, (2, 4, 8), S_cap=64, mode="structured")
        assert [r.n_achieved for r in table.rows] == [2, 2, 2]
        assert all(r.s_achieved <= 64 for r in table.rows)

        ut_box = build_box_space(Filtration(unitriangular(3), (2, 4, 8)))
        table = asdim_profile(ut_box, (2,), S_cap=16, mode="greedy")
        assert table.rows[0].n_achieved is not None
        assert table.rows[0].n_achieved <= 6

        small = FiniteMetricSpace.from_graph(
            build_quotient_cayley(CongruenceQuotient(unitriangular(3), 2)))
        assert rs_dim(small, 2, 2, "exact").n == rs_dim(small, 2, 2, "exhaustive").n


def test_criterion_4_exact_solver_agreement(capsys):
    with criterion(capsys, 4, "exact = exhaustive on 200 random spaces + graphs", 60.0):
        rng = random.Random(987654321)
        for trial in range(200):
            space = random_metric_space(rng, rng.randint(4, 10), max_distance=6)
            R = rng.randint(1, 3)
            S = rng.randint(2, 6)
            got = rs_dim(space, R, S, "exact", n_cap=10)
            want = rs_dim(space, R, S, "exhaustive")
            assert got.n == want.n, (trial, R, S, space.dist_matrix.tolist())

        for m in range(4, 13):
            g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), m))
            space = FiniteMetricSpace.from_graph(g)
            for R, S in itertools.product((2, 3), (2, 4)):
                assert rs_dim(space, R, S, "exact").n == rs_dim(space, R, S, "exhaustive").n
        for n in range(2, 13):
            idx = np.arange(n)
            space = FiniteMetricSpace.from_matrix(np.abs(idx[:, None] - idx[None, :]))
            for R, S in itertools.product((2, 3), (2, 4)):
                assert rs_dim(space, R, S, "exact").n == rs_dim(space, R, S, "exhaustive").n

        cyc12 = FiniteMetricSpace.from_graph(
            build_quotient_cayley(CongruenceQuotient(free_abelian(1), 12)))
        assert rs_dim(cyc12, 2, 3, "exact").n == 1
        assert rs_dim(cyc12, 3, cyc12.diameter, "exact").n == 0
        clique = FiniteMetricSpace.from_matrix(
            np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
        assert rs_dim(clique, 2, 0, "exact").n == 4


def test_criterion_5_isometry_radii(capsys):
    with criterion(capsys, 5, "isometry radii exact and sharp", 30.0):
        for m in (4, 8, 16, 32, 64):
            q = CongruenceQuotient(free_abelian(1), m)
            r = isometry_radius(q)
            assert r.exact and r.radius == (m - 1) // 2
            assert verify_ball_isometry(q, r.radius)
            assert not verify_ball_isometry(q, r.radius + 1)
        for m in (2, 3, 4, 5, 6):
            q = CongruenceQuotient(unitriangular(3), m)
            r = isometry_radius(q)
            assert r.exact
            assert verify_ball_isometry(q, r.radius)
            assert not verify_ball_isometry(q, r.radius + 1)


def test_criterion_6_growth(capsys):
    with criterion(capsys, 6, "growth: line, plane, and fitted unitriangular degree", 60.0):
        line = growth_profile(free_abelian(1), 12)
        assert list(line.sizes) == [2 * r + 1 for r in range(13)]
        plane = growth_profile(free_abelian(2), 10)
        assert list(plane.sizes) == [2 * r * r + 2 * r + 1 for r in range(11)]

        ut = growth_profile(unitriangular(3), 10)
        bound = fit_growth(ut)
        # homogeneous degree 4 against Hirsch length 3: reported separately
        assert 3.5 <= bound.slope <= 4.5
        assert bound.d == 4
        assert all(bound.check(r, s) for r, s in enumerate(ut.sizes) if r >= 1)
        from boxdim.groups import hirsch_length
        assert hirsch_length(unitriangular(3)) == 3
        with capsys.disabled():
            print(f"  growth of unitriangular(3): fitted degree {bound.d} "
                  f"(slope {bound.slope:.3f}), Hirsch length 3")


def test_criterion_7_family_assembly(capsys):
    with criterion(capsys, 7, "scale assembly verified; bad threshold caught", 30.0):
        box = z_box_1024()
        profile = isometry_profile(box)
        covers = {}
        for k in (1, 2, 3):
            base, _ = cover_prop41(box, k, GROWTH_Z)
            covers[k], _ = families_from_multiplicity_cover(base, k)
        asm = assemble_box_families(box, covers, profile)
        assert asm.report.ok
        assert asm.report.subtraction_ok
        assert all(d is None for _, _, d in asm.report.disjointness)
        # windows forced to start at components 3, 4 and 0; the assembly
        # asks for each at the radius max(k, S_k)
        radius = {k: max(k, d) for k, d in asm.scale_diameters.items()}
        bad = SimpleNamespace(threshold={radius[k]: i for k, i in {1: 3, 2: 4, 3: 0}.items()}.get)
        with pytest.raises(VerificationError):
            assemble_box_families(box, covers, bad)


def _striped(radius, stripe=4):
    return {(x,): (x // stripe) % 2 for x in range(-radius, radius + 1)}


def test_criterion_8_diagonal_transfer(capsys):
    with criterion(capsys, 8, "transfer stitches verified coloring of B(e, 4)", 10.0):
        Z = free_abelian(1)
        res = diagonal_transfer(Z, [(r, _striped(r)) for r in (10, 15, 20, 25, 30)],
                                R=2, S=3, r0=4, n=1)
        assert sorted(res.coloring) == [(x,) for x in range(-4, 5)]
        assert res.surviving_radii == (10, 15, 20, 25, 30)
        for (x,), fam in res.coloring.items():
            assert fam == (x // 4) % 2

        partial = {v: f for v, f in _striped(10).items() if v[0] >= 0}
        with pytest.raises(InsufficientInputError):
            diagonal_transfer(Z, [(10, partial)], R=2, S=3, r0=4)
        with pytest.raises(InsufficientInputError):
            diagonal_transfer(Z, [], R=2, S=3, r0=4)


COVER_Z_INI = """\
[group]
kind = free_abelian
rank = 1

[filtration]
rule = powers
base = 2
count = 10

[task]
name = cover
r = 2
growth_c = 3
growth_d = 1

[output]
dir = {out}
"""

COVER_Z2_INI = """\
[group]
kind = free_abelian
rank = 2

[filtration]
moduli = 2 4 8 16 32 64

[task]
name = cover
r = 2
growth_c = 5
growth_d = 2

[output]
dir = {out}
"""

PROFILE_Z_INI = """\
[group]
kind = free_abelian
rank = 1

[filtration]
rule = powers
base = 2
count = 10

[task]
name = profile
r_list = 2 4 8
s_cap = 64
mode = structured

[output]
dir = {out}
"""

PROFILE_Z2_INI = """\
[group]
kind = free_abelian
rank = 2

[filtration]
moduli = 4 16 64 256

[task]
name = profile
r_list = 2 4 8
s_cap = 64
mode = structured

[output]
dir = {out}
"""


def _run_pipeline(tmp_path, tag, ini_template, threads):
    out = tmp_path / f"{tag}_t{threads}"
    cfg = tmp_path / f"{tag}_t{threads}.ini"
    cfg.write_text(ini_template.format(out=out))
    proc = subprocess.run(
        [sys.executable, "-m", "boxdim", "--config", str(cfg),
         "--threads", str(threads)],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    return out


def _stable_outputs(outdir):
    """CSV rows with any wall_time column dropped, plus the summary text."""
    results = {}
    for path in sorted(outdir.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            rows = [line.split(",") for line in text.splitlines()]
            if "wall_time_ms" in rows[0]:
                drop = rows[0].index("wall_time_ms")
                rows = [row[:drop] + row[drop + 1:] for row in rows]
            results[path.name] = rows
        else:
            results[path.name] = text
    return results


def test_criterion_9_thread_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "thread counts do not change any output", 120.0):
        pipelines = [
            ("cover_z", COVER_Z_INI),
            ("cover_z2", COVER_Z2_INI),
            ("profile_z", PROFILE_Z_INI),
            ("profile_z2", PROFILE_Z2_INI),
        ]
        for tag, template in pipelines:
            serial = _stable_outputs(_run_pipeline(tmp_path, tag, template, 1))
            threaded = _stable_outputs(_run_pipeline(tmp_path, tag, template, 8))
            assert serial == threaded, f"pipeline {tag} differs across thread counts"
