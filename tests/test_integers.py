"""Every count, scale and radius the library takes is read by one helper,
errors.check_int: a value operator.index refuses (2.5, 2.0, "3", None) is a
ConfigError naming the argument, never a TypeError, an AttributeError, a
KeyError or a numpy error, and a numpy integer runs as the int it holds.
Vertex ids follow the same rule through cayley.checked_ids: a float, a
string, None, an id past 64 bits or a ragged list is a ShapeMismatchError
naming it, and integer and boolean arrays pass."""
import ast
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from boxdim import cli
from boxdim.boxspace import (
    FiniteMetricSpace,
    ball_space,
    build_box_space,
    coarse_union_of_balls,
)
from boxdim.cayley import build_quotient_cayley, enumerate_ball, fit_growth, growth_profile
from boxdim.covers import (
    Cover,
    CoverParams,
    assemble_box_families,
    cover_prop41,
    families_from_multiplicity_cover,
    family_violations,
    maximal_packing,
    packing_count_max,
    r_multiplicity,
    verify_cover,
)
from boxdim.dimension import (
    asdim_profile,
    box_witness_cover,
    grid_families,
    interval_families,
    random_metric_space,
    rs_dim,
    s_ladder,
)
from boxdim.errors import ConfigError, ShapeMismatchError, check_int
from boxdim.groups import CongruenceQuotient, Filtration, free_abelian, unitriangular

SRC = Path(__file__).resolve().parent.parent / "src" / "boxdim"
NOT_INTEGERS = (2.5, 2.0, "3", None)

Z = free_abelian(1)
BOX = build_box_space(Filtration(Z, (4, 16)))
COVER = box_witness_cover(BOX, 2, 8, "structured")[0]
Z16, Z8 = BOX.components[1], build_quotient_cayley(CongruenceQuotient(Z, 8))
GROWTH = fit_growth(growth_profile(Z, 8))


def run_cli_threads(tmp_path, threads):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[group]\nkind = free_abelian\nrank = 1\n\n[filtration]\nmoduli = 4 8\n\n"
                   "[task]\nname = profile\nr_list = 2\ns_cap = 8\nmode = structured\n\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n")
    args = cli.build_parser().parse_args(["--config", str(cfg)])
    args.threads = threads
    return cli.run(args)


# (name in the message, call with the value in place, an integer it runs with)
TABLE = {
    "free_abelian rank": ("free_abelian rank", free_abelian, 2),
    "unitriangular size": ("unitriangular size", unitriangular, 3),
    "modulus": ("modulus", lambda m: CongruenceQuotient(Z, m), 4),
    "filtration modulus": ("modulus", lambda m: Filtration(Z, (m, 8)), 4),
    "identity_ball_ids": ("ball radius", Z16.identity_ball_ids, 2),
    "ball_ids": ("ball radius", lambda r: Z16.ball_ids(3, r), 2),
    "ball_size": ("ball radius", Z16.ball_size, 2),
    "enumerate_ball r_max": ("r_max", lambda r: enumerate_ball(Z, r), 2),
    "growth_profile r_max": ("r_max", lambda r: growth_profile(Z, r), 2),
    "ball_space": ("ball radius", lambda r: ball_space(Z, r, 100), 2),
    "coarse_union_of_balls": ("ball radius", lambda r: coarse_union_of_balls(Z, (1, r)), 2),
    "CoverParams R": ("R", lambda R: CoverParams.from_growth(R, GROWTH), 2),
    "cover_prop41 R": ("R", lambda R: cover_prop41(BOX, R, GROWTH), 2),
    "maximal_packing": ("packing radius", lambda r: maximal_packing(Z16, r), 2),
    "verify_cover R": ("R", lambda R: verify_cover(COVER, R, 8), 2),
    "r_multiplicity R": ("R", lambda R: r_multiplicity(COVER, R), 2),
    "family_violations R": ("R", lambda R: family_violations(BOX, COVER.families[0], R), 2),
    "regrouping R": ("R", lambda R: families_from_multiplicity_cover(COVER, R), 2),
    # assemble_box_families reads only profile.threshold
    "assembly scale": ("scale", lambda k: assemble_box_families(
        BOX, {k: COVER}, SimpleNamespace(threshold=lambda r: 0)), 2),
    "rs_dim R": ("R", lambda R: rs_dim(Z8, R, 3), 2),
    "rs_dim S": ("S", lambda S: rs_dim(Z8, 2, S), 3),
    "rs_dim n_cap": ("n_cap", lambda n: rs_dim(Z8, 2, 3, n_cap=n), 4),
    "rs_dim point_cap": ("point_cap", lambda n: rs_dim(Z8, 2, 3, point_cap=n), 8),
    "exhaustive point_cap": ("point_cap",
                             lambda n: rs_dim(Z8, 2, 3, "exhaustive", point_cap=n), 8),
    "greedy R": ("R", lambda R: rs_dim(Z8, R, 3, "greedy"), 2),
    "box_witness_cover R": ("R", lambda R: box_witness_cover(BOX, R, 8, "greedy"), 2),
    "box_witness_cover S": ("S", lambda S: box_witness_cover(BOX, 2, S, "exact"), 8),
    "interval_families R": ("R", lambda R: interval_families(16, R, 8), 2),
    "grid_families S": ("S", lambda S: grid_families(16, 2, S), 8),
    "s_ladder R": ("R", lambda R: s_ladder(R, 16), 2),
    "s_ladder S_cap": ("S_cap", lambda S: s_ladder(2, S), 16),
    "asdim_profile R": ("R", lambda R: asdim_profile(BOX, [4, R], 8, "structured"), 2),
    "asdim_profile S_cap": ("S_cap", lambda S: asdim_profile(BOX, [2], S, "structured"), 8),
    "random_metric_space n_points": ("n_points",
                                     lambda n: random_metric_space(random.Random(0), n), 4),
    "random_metric_space max_distance": ("max_distance",
                                         lambda d: random_metric_space(random.Random(0), 4, d), 3),
}


@pytest.mark.parametrize("case", sorted(TABLE))
def test_a_non_integer_is_refused_by_name(case):
    name, call, good = TABLE[case]
    for value in NOT_INTEGERS:
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            call(value)
    call(np.int64(good))
    call(good)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_the_cli_reads_threads_with_check_int(tmp_path, value):
    with pytest.raises(ConfigError, match=f"^--threads must be an integer, got {value!r}$"):
        run_cli_threads(tmp_path, value)
    with pytest.raises(ConfigError, match="^--threads must be >= 1, got 0$"):
        run_cli_threads(tmp_path, np.int64(0))
    assert run_cli_threads(tmp_path, np.int64(2)) == 0


def test_check_int_reads_with_operator_index():
    assert check_int("n", np.int64(3), 1) == 3 and type(check_int("n", np.int64(3), 1)) is int
    assert check_int("n", True, 1) == 1 and type(check_int("n", True, 1)) is int
    assert check_int("n", 2 ** 70, 0) == 2 ** 70
    for value in (*NOT_INTEGERS, np.float64(2.0), np.bool_(True), [1]):
        with pytest.raises(ConfigError, match=r"^n must be an integer, got "):
            check_int("n", value, 0)
    with pytest.raises(ConfigError, match=r"^n must be >= 1, got 0$"):
        check_int("n", np.int32(0), 1)


def test_one_reader_spells_an_integer_refusal():
    # every "must be >=" or "must be an integer" refusal is check_int's, and
    # no int() truncates an argument or an item of one
    raises, truncations = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and "ConfigError" in ast.unparse(node)
                    and re.search(r"must be (>=|an integer)", ast.unparse(node))):
                raises.append((path.name, node.lineno))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            # the parameters, then the targets of loops over one
            names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            loops = [node for node in ast.walk(fn)
                     if isinstance(node, (ast.For, ast.comprehension))
                     and isinstance(node.iter, ast.Name) and node.iter.id in names]
            names |= {t.id for node in loops for t in ast.walk(node.target)
                      if isinstance(t, ast.Name)}
            truncations += [(path.name, node.lineno) for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "int" and len(node.args) == 1
                            and isinstance(node.args[0], ast.Name) and node.args[0].id in names]
    check = next(node for node in ast.walk(ast.parse((SRC / "errors.py").read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "check_int")
    assert sorted(raises) == sorted(("errors.py", node.lineno) for node in ast.walk(check)
                                    if isinstance(node, ast.Raise))
    assert truncations == []


def test_regrouping_takes_the_cover_once(monkeypatch):
    # the proximity graph reads the cover's own layout with every set in
    # family 0; only the regrouped cover is built
    takes = []
    take = Cover.take

    def counted(self, *args):
        takes.append(len(args[0]))
        return take(self, *args)

    monkeypatch.setattr(Cover, "take", counted)
    cover, _ = cover_prop41(BOX, 2, GROWTH)
    out, report = families_from_multiplicity_cover(cover, 2)
    assert takes == [cover.n_sets()] and report.ok


# ids that are not integers in [0, n), each with the text its refusal names
BAD_IDS = (([1.5], "1.5"), ([2.0], "2.0"), (np.array([3.0, 1.5]), "3.0"),
           ([2 ** 63], str(2 ** 63)), ([10 ** 30], str(10 ** 30)), (["a"], "'a'"),
           ([[0, 1], [2]], "[[0, 1], [2]]"), (None, "None"), ([0, None], "None"))


def id_readers(comp):
    """Every library call that reads vertex ids, as one-argument calls."""
    return {"distances_from": lambda ids: comp.distances_from(0, ids),
            "distances_to": comp.distances_to,
            "distance": lambda ids: comp.distance(0, ids),
            "row_diameters": lambda ids: comp.row_diameters(ids, 100),
            "packing_count_max": lambda ids: packing_count_max(comp, ids, 1),
            "source": lambda v: comp.distances_from(v, [0]),
            "ball center": lambda v: comp.ball_ids(v, 1)}


@pytest.mark.parametrize("kind", ["cayley", "matrix"])
def test_vertex_ids_are_read_exactly_or_refused(kind):
    # numpy would read 1.5 as vertex 1, and raise a bare OverflowError past
    # 64 bits, a ValueError on "a" or a ragged list and a TypeError on None;
    # a source or center of 1.5 would pass a range check into an IndexError
    comp = Z8 if kind == "cayley" else FiniteMetricSpace.from_graph(Z8)
    for name, call in id_readers(comp).items():
        if kind == "matrix" and name in ("packing_count_max", "ball center"):
            continue
        for ids, text in BAD_IDS:
            with pytest.raises(ShapeMismatchError, match=re.escape(text)):
                call(ids)
    # a source or a center is one id: a list of ids is refused, not read as
    # several sources
    readers = id_readers(comp)
    for name in ("source", "ball center") if kind == "cayley" else ("source",):
        for v in ([1, 2], [3], np.array([1])):
            with pytest.raises(ShapeMismatchError, match="not a single id"):
                readers[name](v)
    # integer and boolean arrays and an empty list pass, as check_int lets True pass
    assert Z8.distances_from(0, [True, 3]).tolist() == [1, 3]
    assert Z8.distances_from(0, np.array([2, 3], dtype=np.uint8)).tolist() == [2, 3]
    assert Z8.distances_from(0, []).size == 0 and Z8.distances_to([]).tolist() == [-1] * 8
    assert comp.distance(0, True) == 1
