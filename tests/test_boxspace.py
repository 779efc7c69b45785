"""Box space assembly, the coarse metric, and ball-isometry radii."""
import ast
import itertools
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from boxdim import boxspace as boxspace_module
from boxdim.boxspace import (
    IsometryProfile,
    IsometryRadius,
    build_box_space,
    check_points,
    coarse_union_of_balls,
    isometry_profile,
    isometry_radius,
    thread_map,
    verify_ball_isometry,
)
from boxdim.errors import ConfigError, ResourceCapError, ShapeMismatchError
from boxdim.groups import CongruenceQuotient, Filtration, free_abelian, unitriangular
from scalar_oracle import reduce_mod


def test_thread_map_keeps_the_order_of_items():
    # the first item finishes last, on a pool of two threads
    threads = set()

    def square(x):
        threads.add(threading.get_ident())
        time.sleep(0.05 if x == 0 else 0)
        return x * x

    assert thread_map(square, range(8), threads=2) == [x * x for x in range(8)]
    assert len(threads) == 2
    assert thread_map(square, range(8), threads=1) == [x * x for x in range(8)]


def test_build_small_box():
    box = build_box_space(Filtration(free_abelian(1), (2, 4)))
    assert box.component_count == 2
    assert [g.n_vertices for g in box.components] == [2, 4]
    assert box.diameters == (1, 2)


def test_build_power_chain():
    f = Filtration(free_abelian(1), tuple(2 ** i for i in range(1, 11)))
    box = build_box_space(f)
    assert box.component_count == 10
    assert [g.n_vertices for g in box.components] == [2 ** i for i in range(1, 11)]


def test_build_ut3_orders():
    box = build_box_space(Filtration(unitriangular(3), (2, 4, 8)))
    assert [g.n_vertices for g in box.components] == [8, 64, 512]


def test_threaded_build_is_identical():
    f = Filtration(unitriangular(3), (2, 4, 8))
    a = build_box_space(f, threads=1)
    b = build_box_space(f, threads=3)
    for ga, gb in zip(a.components, b.components):
        assert np.array_equal(ga.adjacency, gb.adjacency)
        assert np.array_equal(ga.dist, gb.dist)


def test_box_distance_examples():
    box = build_box_space(Filtration(free_abelian(1), (2, 4)))
    assert box.distance((0, 0), (1, 1)) == 3   # 1 + 2 across components
    assert box.distance((1, 0), (1, 2)) == 2   # antipodal in C_4
    assert box.distance((1, 3), (1, 3)) == 0
    with pytest.raises(ShapeMismatchError):
        box.distance((0, 0), (2, 0))
    with pytest.raises(ShapeMismatchError):
        box.distance((0, 5), (1, 0))


def test_box_distance_is_a_metric():
    box = build_box_space(Filtration(free_abelian(1), (2, 4, 8)))
    pts = list(box.points())
    assert len(pts) == 14
    d = {(p, q): box.distance(p, q) for p in pts for q in pts}
    for p in pts:
        assert d[(p, p)] == 0
    for p, q in itertools.combinations(pts, 2):
        assert d[(p, q)] == d[(q, p)] > 0
    for p, q, r in itertools.product(pts, repeat=3):
        assert d[(p, r)] <= d[(p, q)] + d[(q, r)]


# --- isometry radii ---------------------------------------------------------

def test_isometry_radius_z_mod_12():
    # shortest non-trivial kernel word is 12, so floor(11/2) = 5
    r = isometry_radius(CongruenceQuotient(free_abelian(1), 12))
    assert (r.radius, r.exact) == (5, True)


def test_isometry_radius_z2_mod_6():
    # shortest kernel vector is (+-6, 0) at word length 6: floor(5/2) = 2
    r = isometry_radius(CongruenceQuotient(free_abelian(2), 6))
    assert (r.radius, r.exact) == (2, True)


def test_isometry_radius_ut3_mod_4():
    # x^4 hits the kernel at word length 4 and nothing shorter does:
    # a length <= 3 word with both superdiagonal entries zero has even
    # length and its corner entry is then at most 1 in absolute value
    r = isometry_radius(CongruenceQuotient(unitriangular(3), 4))
    assert (r.radius, r.exact) == (1, True)


def test_isometry_radius_budget_lower_bound():
    r = isometry_radius(CongruenceQuotient(free_abelian(1), 100), budget=10)
    assert not r.exact
    assert 1 <= r.radius < 49
    full = isometry_radius(CongruenceQuotient(free_abelian(1), 100))
    assert (full.radius, full.exact) == (49, True)


def test_verify_ball_isometry_examples():
    q = CongruenceQuotient(free_abelian(1), 12)
    assert verify_ball_isometry(q, 0)
    assert verify_ball_isometry(q, 5)
    assert not verify_ball_isometry(q, 6)
    q2 = CongruenceQuotient(free_abelian(2), 6)
    assert verify_ball_isometry(q2, 2)
    assert not verify_ball_isometry(q2, 3)


def test_verify_matches_radius_across_filtrations():
    cases = [
        Filtration(free_abelian(1), (4, 8, 16)),
        Filtration(free_abelian(2), (2, 6)),
        Filtration(unitriangular(3), (2, 4)),
    ]
    for f in cases:
        for q in f.quotients():
            k = isometry_radius(q)
            assert k.exact
            assert verify_ball_isometry(q, k.radius)
            if f.spec.kind != "unitriangular":
                assert not verify_ball_isometry(q, k.radius + 1)


def test_isometry_profile_thresholds():
    box = build_box_space(Filtration(free_abelian(1), (2, 4, 8, 16)))
    prof = isometry_profile(box)
    assert [r.radius for r in prof.radii] == [0, 1, 3, 7]
    assert all(r.exact for r in prof.radii)
    assert prof.effective_radii == (0, 1, 3, 7)
    assert prof.threshold(0) == 0
    assert prof.threshold(1) == 1
    assert prof.threshold(2) == 2
    assert prof.threshold(4) == 3
    assert prof.threshold(8) is None
    # non-decreasing and cofinal over the truncation
    eff = prof.effective_radii
    assert all(a <= b for a, b in zip(eff, eff[1:]))


def test_effective_radii_absorb_budget_cuts():
    prof = IsometryProfile(radii=(
        isometry_radius(CongruenceQuotient(free_abelian(1), 64)),
        isometry_radius(CongruenceQuotient(free_abelian(1), 128), budget=5),
    ))
    assert prof.radii[0].exact and not prof.radii[1].exact
    assert prof.effective_radii[1] >= prof.effective_radii[0] == 31


def test_effective_radii_of_a_non_nested_family_are_its_own_radii():
    # listed after Z mod 16, Z mod 4 keeps its own radius 1: a running
    # maximum would claim 7, and B(e, 2) of Z already wraps mod 4
    box = build_box_space(Filtration(free_abelian(1), (16, 4), nested=False))
    prof = isometry_profile(box)
    assert [r.radius for r in prof.radii] == [7, 1]
    assert prof.effective_radii == (7, 1)
    # Z mod 4 after Z mod 16 cannot stand in for B(e, 2), so no suffix of
    # the filtration does
    assert (prof.threshold(1), prof.threshold(2), prof.threshold(8)) == (0, None, None)
    radii = (IsometryRadius(7, True), IsometryRadius(1, True))
    assert IsometryProfile(radii, nested=False).effective_radii == (7, 1)
    assert IsometryProfile(radii).effective_radii == (7, 7)


# --- coarse unions of balls -------------------------------------------------

def test_union_of_balls_z():
    u = coarse_union_of_balls(free_abelian(1), (1, 2, 3))
    assert [c.n_vertices for c in u.components] == [3, 5, 7]
    assert u.diameters == (2, 4, 6)
    assert u.distance((0, 0), (1, 0)) == 6   # 2 + 4 across components
    # identity is always local id 0
    assert all(c.elements[0] == (0,) for c in u.components)


def test_union_of_balls_z2():
    u = coarse_union_of_balls(free_abelian(2), (1, 2))
    assert [c.n_vertices for c in u.components] == [5, 13]


def test_union_ball_metric_is_induced_path_metric():
    u = coarse_union_of_balls(free_abelian(1), (3,))
    c = u.components[0]
    # a ball of Z is an interval; its word metric is plain difference
    for i, a in enumerate(c.elements):
        for j, b in enumerate(c.elements):
            assert c.distance(i, j) == abs(a[0] - b[0])


def test_union_of_balls_validation():
    with pytest.raises(ConfigError):
        coarse_union_of_balls(free_abelian(1), ())
    with pytest.raises(ConfigError):
        coarse_union_of_balls(free_abelian(1), (3, 3))
    with pytest.raises(ConfigError, match=r"^ball radius must be >= 0, got -1$"):
        coarse_union_of_balls(free_abelian(1), (-1, 2))
    # a radius is read as an integer, never truncated or parsed
    for radii in ((2.7,), ("3",), (1, 2.0), (None,)):
        with pytest.raises(ConfigError, match=r"^ball radius must be an integer, got "):
            coarse_union_of_balls(free_abelian(1), radii)
    assert coarse_union_of_balls(free_abelian(1), (np.int64(2),)).n_points == 5


def assert_balls_embed(box, radii):
    """Each ball of coarse_union_of_balls maps injectively into its
    component, and its distances are the quotient distances of the images."""
    union = coarse_union_of_balls(box.spec, radii)
    for ball, comp in zip(union.components, box.components):
        key = {tuple(int(x) for x in comp.coords[v]): v for v in range(comp.n_vertices)}
        image = np.array([key[reduce_mod(comp.quotient, e)] for e in ball.elements])
        assert len(set(image.tolist())) == ball.n_vertices
        for i in range(ball.n_vertices):
            assert ball.dist_matrix[i].tolist() == comp.distances_from(image[i], image).tolist()


def test_balls_embed_in_components_at_quarter_modulus():
    # at radius floor(m/4) every pairwise distance in the ball is at most
    # m/2, which a cyclic quotient reproduces exactly; this is the honest
    # subspace-embedding check (at the full isometry radius the restricted
    # metrics genuinely differ: opposite ends of the interval wrap around)
    box = build_box_space(Filtration(free_abelian(1), (8, 16, 32)))
    assert_balls_embed(box, tuple(m // 4 for m in box.moduli))
    # UT(3): with B(e, rho) injective, u^-1 v of u, v in B(e, rho // 2) has
    # the same length in G and in the quotient, so the ball carries G's word
    # metric; the path metric of the subgraph it spans is longer on some pairs
    box = build_box_space(Filtration(unitriangular(3), (16, 32)))
    radii = tuple(r // 2 for r in isometry_profile(box).effective_radii)
    assert radii == (3, 5)
    assert_balls_embed(box, radii)


def test_wraparound_breaks_the_full_radius_embedding():
    # documents why the quarter-modulus radius is the right one above
    box = build_box_space(Filtration(free_abelian(1), (12,)))
    comp = box.components[0]
    union = coarse_union_of_balls(free_abelian(1), (5,))
    ball = union.components[0]
    i = ball.elements.index((-5,))
    j = ball.elements.index((5,))
    assert ball.distance(i, j) == 10
    key = {tuple(int(x) for x in comp.coords[v]): v for v in range(comp.n_vertices)}
    q = comp.quotient
    assert comp.distance(key[reduce_mod(q, (-5,))], key[reduce_mod(q, (5,))]) == 2


def test_check_points_reads_the_graph_cap_at_each_call(monkeypatch):
    check_points(4096)
    with pytest.raises(ResourceCapError, match=r"^4097 points exceeds the cap 4096$"):
        check_points(4097)
    check_points(60, 60)
    with pytest.raises(ResourceCapError, match=r"^61 points exceeds the cap 60$"):
        check_points(61, 60)
    monkeypatch.setattr(boxspace_module, "GRAPH_POINT_CAP", 5)
    check_points(6, 6)
    with pytest.raises(ResourceCapError, match=r"^6 points exceeds the cap 5$"):
        check_points(6)


def test_one_raise_spells_the_point_cap_refusal():
    # every point cap is refused through check_points: one wording, and
    # one GRAPH_POINT_CAP for tests to patch
    src = Path(__file__).resolve().parent.parent / "src" / "boxdim"
    raises = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and "points exceeds the cap" in ast.unparse(node):
                raises.append((path.name, node.lineno))
    tree = ast.parse((src / "boxspace.py").read_text())
    check = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "check_points")
    assert raises == [("boxspace.py", node.lineno) for node in ast.walk(check)
                      if isinstance(node, ast.Raise)]


def uses_in_src(name):
    """(file, top-level definition) of each use of name in src/boxdim: a
    call, or the name passed on as a value."""
    src = Path(__file__).resolve().parent.parent / "src" / "boxdim"
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Name) and node.id == name
                      or isinstance(node, ast.Attribute) and node.attr == name]
    return found


def test_one_builder_spells_the_metric_of_a_ball_of_g():
    # every B_G(e, r) as a metric space comes from ball_space, and no
    # per-point BFS runs outside the quotient Cayley graphs
    assert uses_in_src("word_distances") == [("boxspace.py", "ball_space")]
    assert {f for f, _ in uses_in_src("breadth_first_distances")} == {"cayley.py"}
