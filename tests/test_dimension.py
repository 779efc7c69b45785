"""Dimension solver tests.

The exhaustive enumerator is the oracle for the branch-and-bound; a third,
even dumber itertools.product check guards both on tiny spaces.
"""
import itertools
import random
import signal
import subprocess
import sys

import numpy as np
import pytest

from conftest import cap_address_space, cli_env

from boxdim import boxspace as boxspace_module
from boxdim import covers as covers_module
from boxdim import dimension as dimension_module
from boxdim.boxspace import build_box_space
from boxdim.cayley import GrowthBound, build_quotient_cayley, sorted_distinct
from boxdim.covers import (
    Cover,
    CoverSet,
    close_clusters,
    cover_prop41,
    verify_cover,
)
from boxdim.dimension import (
    FiniteMetricSpace,
    ProfileRow,
    asdim_profile,
    box_witness_cover,
    grid_families,
    interval_families,
    random_metric_space,
    rs_dim,
    s_ladder,
    structured_component_families,
)
from boxdim.errors import ConfigError, ResourceCapError, VerificationError
from boxdim.groups import (
    CongruenceQuotient,
    Filtration,
    direct_product,
    free_abelian,
    unitriangular,
)
from fractions import Fraction


def cycle_space(m):
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), m))
    return FiniteMetricSpace.from_graph(g)


def path_space(n):
    idx = np.arange(n)
    return FiniteMetricSpace.from_matrix(np.abs(idx[:, None] - idx[None, :]))


def product_oracle(space, R, S):
    """Smallest valid color count by raw enumeration of every function."""
    n = space.n_vertices
    D = space.dist_matrix

    def valid(coloring):
        for color in set(coloring):
            pts = [i for i in range(n) if coloring[i] == color]
            comp = {i: i for i in pts}

            def find(x):
                while comp[x] != x:
                    x = comp[x]
                return x

            for i in pts:
                for j in pts:
                    if i < j and D[i, j] < R:
                        comp[find(i)] = find(j)
            groups = {}
            for i in pts:
                groups.setdefault(find(i), []).append(i)
            for g in groups.values():
                for i in g:
                    for j in g:
                        if D[i, j] > S:
                            return False
        return True

    for k in range(1, n + 1):
        if any(valid(c) for c in itertools.product(range(k), repeat=n)):
            return k - 1
    raise AssertionError("unreachable")


# --- solver anchors -------------------------------------------------------------

def test_cycle_twelve_needs_two_families():
    res = rs_dim(cycle_space(12), 2, 3, "exact")
    assert res.n == 1
    assert rs_dim(cycle_space(12), 2, 3, "exhaustive").n == 1


def test_path_five():
    res = rs_dim(path_space(5), 2, 2, "exact")
    assert res.n == 1


def test_large_s_is_trivial():
    for space in (cycle_space(12), path_space(7)):
        assert rs_dim(space, 3, space.diameter, "exact").n == 0


def test_all_close_space_forces_singletons():
    m = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
    space = FiniteMetricSpace.from_matrix(m)
    # every pair is <2-connected, S = 0 forbids any pair: five singletons
    assert rs_dim(space, 2, 0, "exact").n == 4
    assert rs_dim(space, 2, 0, "exhaustive").n == 4


def test_n_cap_reports_exceeded():
    res = rs_dim(cycle_space(12), 2, 3, "exact", n_cap=0)
    assert res.exceeded_cap
    assert res.n is None and res.cover is None


def test_point_caps():
    with pytest.raises(ResourceCapError):
        rs_dim(cycle_space(12), 2, 3, "exact", point_cap=10)
    with pytest.raises(ResourceCapError):
        rs_dim(cycle_space(14), 2, 3, "exhaustive")


def test_parameter_validation():
    with pytest.raises(ConfigError):
        rs_dim(cycle_space(6), 0, 3, "exact")
    with pytest.raises(ConfigError):
        rs_dim(cycle_space(6), 2, -1, "exhaustive")
    with pytest.raises(ConfigError):
        rs_dim(cycle_space(6), 2, 3, method="nope")


def test_witness_cover_structure():
    res = rs_dim(cycle_space(12), 2, 3, "exact")
    assert res.n_families == 2 == len(res.cover.families)
    got = sorted(v for _, s in res.cover.all_sets() for _, ids in s.parts for v in ids)
    assert got == list(range(12))
    report = verify_cover(res.cover, R=2, S=3)
    assert report.ok


def test_exact_is_deterministic():
    a = rs_dim(cycle_space(10), 2, 4, "exact")
    b = rs_dim(cycle_space(10), 2, 4, "exact")
    assert a.coloring == b.coloring and a.n == b.n


# --- oracle agreement ------------------------------------------------------------

def test_exact_matches_exhaustive_random_spaces():
    rng = random.Random(20260815)
    for trial in range(60):
        space = random_metric_space(rng, rng.randint(4, 10), max_distance=6)
        R = rng.randint(1, 3)
        S = rng.randint(2, 6)
        got = rs_dim(space, R, S, "exact", n_cap=10)
        want = rs_dim(space, R, S, "exhaustive")
        assert got.n == want.n, (trial, R, S, space.dist_matrix.tolist())


def test_exact_matches_product_oracle_tiny():
    rng = random.Random(424242)
    for trial in range(25):
        space = random_metric_space(rng, rng.randint(3, 6), max_distance=5)
        R = rng.randint(1, 3)
        S = rng.randint(1, 5)
        got = rs_dim(space, R, S, "exact", n_cap=6)
        assert got.n == product_oracle(space, R, S), (trial, R, S)


def test_exact_matches_exhaustive_cycles_and_paths():
    for m in (5, 8, 12):
        space = cycle_space(m)
        for R in (2, 3):
            for S in (2, 4):
                assert rs_dim(space, R, S, "exact").n == rs_dim(space, R, S, "exhaustive").n
    for n in (6, 9):
        space = path_space(n)
        for R in (2, 3):
            for S in (2, 3):
                assert rs_dim(space, R, S, "exact").n == rs_dim(space, R, S, "exhaustive").n


def test_monotonicity_in_s_and_r():
    rng = random.Random(99)
    for _ in range(12):
        space = random_metric_space(rng, rng.randint(5, 9), max_distance=6)
        ns = [rs_dim(space, 2, S, "exact").n for S in (1, 2, 4, 6)]
        assert all(a >= b for a, b in zip(ns, ns[1:])), ns
        nr = [rs_dim(space, R, 3, "exact").n for R in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(nr, nr[1:])), nr


def test_greedy_upper_bounds_exact():
    rng = random.Random(7)
    for _ in range(15):
        space = random_metric_space(rng, rng.randint(5, 10), max_distance=6)
        R = rng.randint(1, 3)
        S = rng.randint(2, 6)
        greedy = rs_dim(space, R, S, "greedy")
        exact = rs_dim(space, R, S, "exact", n_cap=10)
        assert greedy.n >= exact.n
        assert verify_cover(greedy.cover, R, S).ok


def test_greedy_cycle_frozen():
    res = rs_dim(cycle_space(12), 2, 3, "greedy")
    # carving radius 1 yields four three-point arcs in a cycle, 2-colorable
    assert res.n == 1
    assert verify_cover(res.cover, R=2, S=3).ok


def union_find_clusters(n, close):
    """Components of the graph with an edge i - j wherever close(i, j),
    i < j, by a per-pair union-find: the clustering the greedy witness
    used before it stopped building the full distance matrix."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if close(i, j):
                parent[find(i)] = find(j)
    out = {}
    for i in range(n):
        out.setdefault(find(i), []).append(i)
    return list(out.values())


def dense_greedy(space, R, S):
    """The greedy witness by the dense path: BFS distance rows for the
    carving, the full distance matrix, and union-find clusters per color.
    Returns the coloring and the families of the witness cover."""
    n = space.n_vertices
    rows = [space.distances_to([v]) for v in range(n)]
    D = np.stack(rows)
    assigned = np.full(n, -1)
    nearest = np.full(n, np.iinfo(np.int32).max, dtype=np.int64)
    clusters = []
    while (assigned < 0).any():
        free = np.flatnonzero(assigned < 0)
        center = int(free[np.argmax(nearest[free])])
        cluster = free[D[center, free] <= S // 2]
        assigned[cluster] = len(clusters)
        clusters.append(cluster)
        nearest = np.minimum(nearest, D[center])
    colors = []
    for i, cluster in enumerate(clusters):
        near = set(assigned[(D[cluster] < R).any(axis=0)].tolist()) - {i}
        used = {colors[j] for j in near if j < i}
        colors.append(min(set(range(len(used) + 1)) - used))
    coloring = [colors[a] for a in assigned]
    families = []
    for c in sorted(set(coloring)):
        pts = [v for v in range(n) if coloring[v] == c]
        found = union_find_clusters(len(pts), lambda i, j: D[pts[i], pts[j]] < R)
        families.append(tuple(
            CoverSet(label=f"f{c}.s{k}", parts=((0, tuple(pts[i] for i in members)),))
            for k, members in enumerate(found)))
    return coloring, tuple(families)


def greedy_spaces():
    for spec, m in ((unitriangular(3), 4), (unitriangular(3), 8),
                    (free_abelian(2), 16), (free_abelian(1), 12)):
        yield f"{spec.describe()}/{m}", build_quotient_cayley(CongruenceQuotient(spec, m))
    yield "matrix UT(3)/4", FiniteMetricSpace.from_graph(
        build_quotient_cayley(CongruenceQuotient(unitriangular(3), 4)))
    yield "random", random_metric_space(random.Random(11), 40, max_distance=5)


@pytest.mark.parametrize("name, space", list(greedy_spaces()))
def test_greedy_matches_dense_path(name, space):
    for R in (1, 2, 3, 4):
        for S in (0, 2, 4, 8):
            coloring, families = dense_greedy(space, R, S)
            res = rs_dim(space, R, S, "greedy")
            assert list(res.coloring) == coloring, (name, R, S)
            assert res.cover.families == families, (name, R, S)


@pytest.mark.parametrize("name, space", list(greedy_spaces())[:3])
def test_greedy_matches_dense_path_in_small_blocks(monkeypatch, name, space):
    # 40-row blocks split the dilations of the clusters and of the points,
    # and send larger clusters to the distance-field branch
    monkeypatch.setattr(covers_module, "ROW_BLOCK", 40)
    for R in (1, 3):
        for S in (2, 8):
            coloring, families = dense_greedy(space, R, S)
            res = rs_dim(space, R, S, "greedy")
            assert list(res.coloring) == coloring, (name, R, S)
            assert res.cover.families == families, (name, R, S)


def all_points_greedy(space, R, S):
    """rs_dim_greedy as it was before carving read only the free points:
    each carve takes the distance table to every point, marks its cluster
    in assigned, and takes the minimum over all |V| points."""
    n_pts = space.n_vertices
    carve = S // 2
    assigned = np.full(n_pts, -1, dtype=np.int64)
    nearest = np.full(n_pts, np.iinfo(np.int32).max, dtype=np.int64)
    clusters = []
    while (assigned < 0).any():
        free = np.flatnonzero(assigned < 0)
        center = int(free[np.argmax(nearest[free])])
        d = space.distances_from(center, np.arange(n_pts)).astype(np.int64)
        cluster = free[d[free] <= carve]
        assigned[cluster] = len(clusters)
        clusters.append(cluster)
        nearest = np.minimum(nearest, d)

    n_cl = len(clusters)
    keys = [np.zeros(0, dtype=np.int64)]
    parts = covers_module._parts(space, np.concatenate(clusters), list(map(len, clusters)))
    for a, v, _ in covers_module._dilation(parts, R - 1):
        b = assigned[v]
        keys.append(sorted_distinct((a * n_cl + b)[b < a]))
    a, b = np.divmod(sorted_distinct(np.concatenate(keys)), n_cl)
    bounds = np.searchsorted(a, np.arange(n_cl + 1)).tolist()
    # first fit in cluster order: the smallest color no neighbour b < a has
    cluster_color = []
    for i in range(n_cl):
        used = {cluster_color[j] for j in b[bounds[i]:bounds[i + 1]].tolist()}
        c = 0
        while c in used:
            c += 1
        cluster_color.append(c)
    return np.array(cluster_color)[assigned].tolist()


def carving_spaces():
    for spec, m in ((unitriangular(3), 2), (unitriangular(3), 4), (free_abelian(2), 8),
                    (free_abelian(1), 9), (direct_product(free_abelian(1), unitriangular(3)), 2)):
        g = build_quotient_cayley(CongruenceQuotient(spec, m))
        yield f"{spec.describe()}/{m}", g
        yield f"matrix {spec.describe()}/{m}", FiniteMetricSpace.from_graph(g)
    rng = random.Random(17)
    for n, top in ((1, 1), (7, 3), (30, 6)):
        yield f"random {n}", random_metric_space(rng, n, max_distance=top)


@pytest.mark.parametrize("name, space", list(carving_spaces()))
def test_greedy_carving_matches_the_all_points_loop(name, space):
    for R in (1, 2, 3, 4):
        for S in (0, 1, 2, 3, 5, 8, 16):
            assert dimension_module.rs_dim_greedy(space, R, S) == \
                all_points_greedy(space, R, S), (name, R, S)


def test_greedy_refuses_more_than_4096_points():
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), 5000))
    with pytest.raises(ResourceCapError, match="^5000 points exceeds the cap 4096$"):
        rs_dim(g, 1, 2, "greedy")


def test_close_clusters_match_union_find():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 60)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        # the edges arrive in blocks, in both orientations, self-loops included
        edges = sorted(edges)
        blocks = [(np.array([e[0] for e in edges[lo:lo + 5]], dtype=np.int64),
                   np.array([e[1] for e in edges[lo:lo + 5]], dtype=np.int64))
                  for lo in range(0, len(edges), 5)]
        got = [c.tolist() for c in close_clusters(n, blocks)]
        want = union_find_clusters(
            n, lambda i, j: (i, j) in edges or (j, i) in edges)
        assert got == want
    assert close_clusters(0, []) == []


@pytest.mark.parametrize("row_block", [covers_module.ROW_BLOCK, 40])
def test_point_dilation_lists_the_pairs_within_r(monkeypatch, row_block):
    # _coloring_to_cover reads its pairs from this dilation of one-point
    # parts: every ordered pair within r, once, at its exact distance
    monkeypatch.setattr(covers_module, "ROW_BLOCK", row_block)
    g = build_quotient_cayley(CongruenceQuotient(unitriangular(3), 4))
    twin = FiniteMetricSpace.from_graph(g)
    D = np.stack([g.distances_to([v]) for v in range(g.n_vertices)])
    for r in range(0, g.diameter + 2):
        u, v = np.nonzero(D <= r)
        want = sorted(zip(u.tolist(), v.tolist(), D[u, v].tolist()))
        for space in (g, twin):
            points = covers_module._parts(space, np.arange(g.n_vertices))
            got = sorted(row for block in covers_module._dilation(points, r)
                         for row in zip(*(x.tolist() for x in block)))
            assert got == want, (r, space)


@pytest.mark.parametrize("row_block", [covers_module.ROW_BLOCK, 40])
@pytest.mark.parametrize("spec, m", [(free_abelian(1), 12), (unitriangular(3), 2),
                                     (unitriangular(3), 4)])
def test_matrix_dilation_of_mixed_parts_equals_the_graph(monkeypatch, row_block, spec, m):
    # one-point parts on a matrix are read in row blocks (ROW_BLOCK // n of
    # them a block at 40), the others from their distance field; both must
    # give the graph branch's rows
    monkeypatch.setattr(covers_module, "ROW_BLOCK", row_block)
    g = build_quotient_cayley(CongruenceQuotient(spec, m))
    twin = FiniteMetricSpace.from_graph(g)
    rng = random.Random(f"{spec.describe()}/{m}")
    for _ in range(3):
        ids = rng.sample(range(g.n_vertices), g.n_vertices)
        lengths = []
        while sum(lengths) < len(ids):
            lengths.append(min(rng.choice((1, 1, 1, 2, 3)), len(ids) - sum(lengths)))
        on_both = [covers_module._parts(space, ids, lengths) for space in (g, twin)]
        for r in range(0, g.diameter + 2):
            want, got = (sorted(row for block in covers_module._dilation(parts, r)
                                for row in zip(*(x.tolist() for x in block)))
                         for parts in on_both)
            assert got == want, (r, lengths)


# --- metric space plumbing --------------------------------------------------------

def test_from_matrix_validation():
    with pytest.raises(ConfigError):
        FiniteMetricSpace.from_matrix([[0, 1], [2, 0]])
    with pytest.raises(ConfigError):
        FiniteMetricSpace.from_matrix([[1]])
    with pytest.raises(ConfigError):
        FiniteMetricSpace.from_matrix([[0, 0], [0, 0]])
    with pytest.raises(ConfigError):
        FiniteMetricSpace.from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(ConfigError):
        FiniteMetricSpace.from_matrix([[0, 1, 2], [1, 0, 1]])
    # ragged rows used to raise numpy's "inhomogeneous shape" ValueError
    for matrix in ([[0, 1], [1]], [[0, [1]], [1, 0]]):
        with pytest.raises(ConfigError, match="ragged"):
            FiniteMetricSpace.from_matrix(matrix)
    # entries that are not integers used to be truncated, or to raise
    # numpy's UFuncTypeError
    nan, inf = float("nan"), float("inf")
    for matrix in ([[0, 1.5, 2.5], [1.5, 0, 1.5], [2.5, 1.5, 0]],
                   np.array([[0, 1.5], [1.5, 0]], dtype=np.float32),
                   [[0, nan], [nan, 0]], [[0, inf], [inf, 0]], [[0, -inf], [1, 0]],
                   [["0", "1"], ["1", "0"]], [[0, "a"], [1, 0]], [[0, None], [None, 0]],
                   [[0, 10 ** 20], [1.5, 0]], [[0, 1 + 0j], [1 + 0j, 0]]):
        with pytest.raises(ConfigError, match="entries must be integers"):
            FiniteMetricSpace.from_matrix(matrix)
    for matrix in ([[0, 2.0], [2.0, 0]], np.array([[0, 2], [2, 0]], dtype=np.float32),
                   np.array([[0, 2], [2, 0]], dtype=object)):
        assert FiniteMetricSpace.from_matrix(matrix).dist_matrix.tolist() == [[0, 2], [2, 0]]


def test_distances_past_int32_are_refused():
    # distances are stored as int32; these used to wrap, or to raise
    # OverflowError, instead of a ConfigError
    for matrix in ([[0, 3 * 10 ** 9], [3 * 10 ** 9, 0]], [[0, 10 ** 20], [10 ** 20, 0]],
                   [[0, -10 ** 20], [1, 0]]):
        with pytest.raises(ConfigError, match=r"2\*\*31 - 1"):
            FiniteMetricSpace.from_matrix(matrix)
    with pytest.raises(ConfigError, match=r"max_distance <= 2\*\*31 - 1"):
        random_metric_space(random.Random(0), 4, 3 * 10 ** 9)
    top = 2 ** 31 - 1
    assert FiniteMetricSpace.from_matrix([[0, top], [top, 0]]).diameter == top
    assert random_metric_space(random.Random(0), 4, top).diameter > 0


def test_random_metric_space_is_metric():
    rng = random.Random(5150)
    for _ in range(20):
        space = random_metric_space(rng, rng.randint(2, 12), max_distance=7)
        FiniteMetricSpace.from_matrix(space.dist_matrix)   # revalidates


def test_from_matrix_accepts_exactly_the_triangle_inequality():
    # symmetric draws with a zero diagonal, half of them metrics with one
    # entry then shortened; from_matrix must agree with every triple
    rng = random.Random(404)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        m = np.zeros((n, n), dtype=np.int64)
        for i, j in itertools.combinations(range(n), 2):
            m[i, j] = m[j, i] = rng.randint(1, 6)
        if rng.random() < 0.5:
            m = random_metric_space(rng, n, max_distance=6).dist_matrix.astype(np.int64)
            if n > 1:
                i, j = rng.sample(range(n), 2)
                m[i, j] = m[j, i] = rng.randint(1, m[i, j])
        metric = all(m[i, j] <= m[i, k] + m[k, j]
                     for i, j, k in itertools.product(range(n), repeat=3))
        try:
            FiniteMetricSpace.from_matrix(m)
            accepted = True
        except ConfigError as exc:
            assert str(exc) == "distance matrix violates the triangle inequality"
            accepted = False
        assert accepted == metric, m.tolist()
        seen.add(accepted)
    assert seen == {True, False}


def test_from_matrix_validates_1024_points_in_1_gib():
    # the triangle check once built an (n, n, n) array, about 8.6 GB here
    code = ("import numpy as np\n"
            "from boxdim.boxspace import FiniteMetricSpace\n"
            "i = np.arange(1024)\n"
            "print(FiniteMetricSpace.from_matrix(abs(i[:, None] - i[None, :])).diameter)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1023\n"


def test_from_graph_matches_graph_distances():
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(2), 4))
    space = FiniteMetricSpace.from_graph(g)
    assert space.n_vertices == 16
    for u, v in ((0, 5), (3, 12), (1, 1)):
        assert space.distance(u, v) == g.distance(u, v)


# --- structured patterns -----------------------------------------------------------

def nested(flat):
    """Flat (set_family, offsets, ids) families as lists of id lists, after
    checking the flat form: families non-decreasing from 0 with none
    empty, offsets running from 0 to the end of ids."""
    if flat is None:
        return None
    family, offsets, ids = (a.tolist() for a in flat)
    assert sorted(set(family)) == list(range(max(family) + 1)) and family == sorted(family)
    assert offsets[0] == 0 and offsets[-1] == len(ids) and len(offsets) == len(family) + 1
    out = [[] for _ in range(max(family) + 1)]
    for k, j in enumerate(family):
        out[j].append(ids[offsets[k]:offsets[k + 1]])
    return out


def test_interval_families_single_set_when_diameter_fits():
    assert nested(interval_families(9, 2, 8)) == [[list(range(9))]]


def test_interval_families_alternate_and_verify():
    box = build_box_space(Filtration(free_abelian(1), (256,)))
    fams = nested(interval_families(256, 8, 64))
    assert len(fams) == 2
    cover = Cover(space=box, families=tuple(
        tuple(CoverSet(label=f"f{j}.s{i}", parts=((0, tuple(ids)),))
              for i, ids in enumerate(fam))
        for j, fam in enumerate(fams)))
    report = verify_cover(cover, R=8, S=64)
    assert report.ok


def old_interval_families(m, R, S):
    """interval_families as it was: arcs built as Python lists."""
    if m - 1 <= S:
        return [[list(range(m))]]
    count = max(2, -(-m // (S + 1)))
    if count % 2:
        count += 1
    while count * R <= m:
        base, rem = divmod(m, count)
        hi = base + (1 if rem else 0)
        if base >= R and hi <= S + 1:
            sizes = [base + 1] * rem + [base] * (count - rem)
            arcs = []
            at = 0
            for s in sizes:
                arcs.append(list(range(at, at + s)))
                at += s
            return [[arcs[i] for i in range(count) if i % 2 == 0],
                    [arcs[i] for i in range(count) if i % 2 == 1]]
        count += 2
    return None


def test_interval_families_match_the_old_arcs():
    built = 0
    for m in range(1, 70):
        for R in (1, 2, 3, 5, 8):
            for S in range(0, 24):
                want = old_interval_families(m, R, S)
                assert nested(interval_families(m, R, S)) == want, (m, R, S)
                built += want is not None
    assert built > 1000


def test_interval_families_infeasible():
    assert interval_families(7, 3, 2) is None


def test_grid_families_verify_on_torus():
    box = build_box_space(Filtration(free_abelian(2), (16,)))
    comp = box.components[0]
    fams = nested(structured_component_families(comp, R=2, S=4))
    assert len(fams) == 3
    cover = Cover(space=box, families=tuple(
        tuple(CoverSet(label=f"f{j}.s{i}", parts=((0, tuple(ids)),))
              for i, ids in enumerate(fam))
        for j, fam in enumerate(fams)))
    report = verify_cover(cover, R=2, S=4)
    assert report.ok
    assert report.is_cover


def test_grid_families_infeasible_when_no_block_fits():
    assert grid_families(8, 8, 100) is None


def old_grid_families(m, R, S):
    """grid_families as it was: points labelled u * m + v."""
    t1 = -(-R // 2)
    t2 = 2 * t1
    L = None
    cand = 1
    while cand <= m:
        if (m % cand == 0 and cand >= R + 2 * t2 - 2 and cand >= 2 * t2
                and 2 * (cand - 2 * t1) <= S):
            L = cand
            break
        cand *= 2
    if L is None:
        return None
    corner, edge, core = {}, {}, {}
    for u in range(m):
        pu = u % L
        du = min(pu, L - pu)
        for v in range(m):
            pv = v % L
            dv = min(pv, L - pv)
            vid = u * m + v
            if du < t2 and dv < t2:
                cu = (u - pu) % m if pu < t2 else (u + L - pu) % m
                cv = (v - pv) % m if pv < t2 else (v + L - pv) % m
                corner.setdefault((cu, cv), []).append(vid)
            elif dv < t1:
                edge.setdefault(("h", u // L, (v - pv) % m if pv < t1
                                 else (v + L - pv) % m), []).append(vid)
            elif du < t1:
                edge.setdefault(("v", (u - pu) % m if pu < t1
                                 else (u + L - pu) % m, v // L), []).append(vid)
            else:
                core.setdefault((u // L, v // L), []).append(vid)
    return [[sorted(ids) for _, ids in sorted(corner.items())],
            [sorted(ids) for _, ids in sorted(edge.items())],
            [sorted(ids) for _, ids in sorted(core.items())]]


def old_structured_grid_families(comp, R, S):
    """The old rank-2 branch: grid labels converted to vertex ids set by set."""
    fams = old_grid_families(comp.modulus, R, S)
    if fams is None:
        return None
    m = comp.modulus
    out = []
    for fam in fams:
        conv = []
        for ids in fam:
            uv = np.asarray(ids, dtype=np.int64)
            coords = np.stack([uv // m, uv % m], axis=1)
            conv.append(sorted(int(x) for x in coords @ m ** np.arange(2)))
        out.append(conv)
    return out


def test_grid_families_emit_the_old_converted_ids():
    # every modulus and every (R, S) rung of a plane profile up to S = 64
    built = 0
    for m in (4, 8, 16, 32, 64, 128, 256):
        comp = build_quotient_cayley(CongruenceQuotient(free_abelian(2), m))
        for R in (1, 2, 4, 8):
            for S in s_ladder(R, 64):
                want = old_structured_grid_families(comp, R, S)
                assert nested(structured_component_families(comp, R, S)) == want, (m, R, S)
                built += want is not None
    assert built > 40


def test_structured_unavailable_elsewhere():
    q = CongruenceQuotient(unitriangular(3), 4)
    g = build_quotient_cayley(q)
    assert structured_component_families(g, 2, 8) is None


# --- profiles ----------------------------------------------------------------------

def test_s_ladder():
    assert s_ladder(2, 64) == [4, 8, 16, 32, 64]
    assert s_ladder(8, 64) == [16, 32, 64]
    assert s_ladder(8, 10) == [10]


@pytest.mark.parametrize("R, S_cap", [(0, 8), (-1, 8), (2, 0), (2, -1)])
def test_scales_below_one_are_config_errors(R, S_cap):
    # R = 0 used to double 0 forever; S_cap = -1 divided by S + 1 = 0
    with pytest.raises(ConfigError):
        s_ladder(R, S_cap)
    box = build_box_space(Filtration(free_abelian(1), (4, 8)))
    for mode in ("structured", "greedy"):
        with pytest.raises(ConfigError):
            asdim_profile(box, (2, R), S_cap=S_cap, mode=mode)


def test_box_witness_cover_merges_small_components():
    box = build_box_space(Filtration(free_abelian(1), (2, 4, 256)))
    got = box_witness_cover(box, R=4, S=16, mode="structured")
    assert got is not None
    cover, report = got
    assert report.ok
    labels0 = {s.label for s in cover.families[0]}
    assert "F" in labels0
    assert len(cover.families) == 2


def old_box_witness_families(box, R, S, mode):
    """box_witness_cover's families as it assembled them from CoverSets."""
    small = [ci for ci, d in enumerate(box.diameters) if d <= S // 2]
    medium = [ci for ci, d in enumerate(box.diameters) if S // 2 < d <= S]
    large = [ci for ci, d in enumerate(box.diameters) if d > S]
    solved = []
    for ci in large:
        comp = box.components[ci]
        if mode == "structured":
            solved.append(nested(structured_component_families(comp, R, S)))
        else:
            res = rs_dim(comp, R, S, "greedy")
            solved.append([[list(s.parts[0][1]) for s in fam] for fam in res.cover.families])
    if any(f is None for f in solved):
        return None
    n_fam = max([len(f) for f in solved], default=0)
    n_fam = max(n_fam, 1 if (small or medium) else 0)
    families = [[] for _ in range(n_fam)]
    if small:
        parts = tuple((ci, tuple(range(box.components[ci].n_vertices))) for ci in small)
        families[0].append(CoverSet(label="F", parts=parts))
    for ci in medium:
        families[0].append(CoverSet(
            label=f"w{ci}", parts=((ci, tuple(range(box.components[ci].n_vertices))),)))
    for ci, fams in zip(large, solved):
        for j, fam in enumerate(fams):
            for si, ids in enumerate(fam):
                families[j].append(CoverSet(label=f"c{ci}.f{j}.s{si}",
                                            parts=((ci, tuple(ids)),)))
    return tuple(tuple(f) for f in families)


@pytest.mark.parametrize("spec, moduli, mode", [
    (free_abelian(1), (2, 4, 16, 64), "structured"),
    (free_abelian(2), (4, 16, 64), "structured"),
    (unitriangular(3), (2, 4, 8), "greedy"),
])
def test_box_witness_cover_matches_the_coverset_assembly(spec, moduli, mode):
    # labels, set order and ids of the array-built cover, rung by rung
    box = build_box_space(Filtration(spec, moduli))
    built = 0
    for R in (1, 2, 4):
        for S in s_ladder(R, 32):
            want = old_box_witness_families(box, R, S, mode)
            got = box_witness_cover(box, R, S, mode)
            if got is not None:
                assert got[0].families == want, (R, S)
                built += 1
    assert built >= 3


def test_profile_structured_line_box():
    box = build_box_space(Filtration(free_abelian(1),
                                     tuple(2 ** t for t in range(1, 11))))
    table = asdim_profile(box, (2, 4, 8), S_cap=64, mode="structured")
    assert [row.R for row in table.rows] == [2, 4, 8]
    for row in table.rows:
        assert row.n_achieved == 1
        assert row.s_achieved <= 64
        assert row.note == ""
        assert row.hirsch_length == 1
        assert row.component_count == 10


def test_profile_structured_plane_box():
    box = build_box_space(Filtration(free_abelian(2), (4, 16, 64)))
    table = asdim_profile(box, (2,), S_cap=16, mode="structured")
    row = table.rows[0]
    assert row.n_achieved == 2
    assert row.hirsch_length == 2
    assert verify_cover(row.cover, 2, row.s_achieved).ok


def test_profile_greedy_unitriangular_box():
    box = build_box_space(Filtration(unitriangular(3), (2, 4)))
    table = asdim_profile(box, (2,), S_cap=4, mode="greedy")
    row = table.rows[0]
    assert row.n_achieved is not None
    assert row.s_achieved <= 4
    assert row.hirsch_length == 3


def test_profile_exact_mode():
    box = build_box_space(Filtration(free_abelian(1), (16, 32)))
    table = asdim_profile(box, (2,), S_cap=8, mode="exact")
    row = table.rows[0]
    assert row.n_achieved == 1


def test_profile_prop41_mode():
    box = build_box_space(Filtration(free_abelian(1),
                                     tuple(2 ** t for t in range(1, 8))))
    growth = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 10 ** 7))
    table = asdim_profile(box, (2,), S_cap=64, mode="prop41", growth=growth)
    row = table.rows[0]
    assert row.n_achieved == verify_cover(row.cover, 2, check_disjoint=False).r_multiplicity - 1
    assert row.n_achieved <= 4
    # doubling stabilizes at radius R, so the measured sets stay small
    assert row.s_achieved <= 64 and row.note == ""
    tight = asdim_profile(box, (2,), S_cap=4, mode="prop41", growth=growth)
    assert tight.rows[0].note == "S_cap exhausted"
    assert tight.rows[0].s_achieved > 4
    with pytest.raises(ConfigError):
        asdim_profile(box, (2,), S_cap=64, mode="prop41")


def test_profile_flags_unreachable_s_cap():
    box = build_box_space(Filtration(free_abelian(2), (8,)))
    table = asdim_profile(box, (8,), S_cap=4, mode="structured")
    row = table.rows[0]
    assert row.n_achieved is None and row.s_achieved is None
    assert row.note == "S_cap exhausted"


def test_profile_threads_match():
    box = build_box_space(Filtration(free_abelian(1),
                                     tuple(2 ** t for t in range(1, 9))))
    t1 = asdim_profile(box, (2, 4), S_cap=32, mode="structured", threads=1)
    t4 = asdim_profile(box, (2, 4), S_cap=32, mode="structured", threads=4)
    strip = lambda rows: [(r.R, r.s_achieved, r.n_achieved, r.mode) for r in rows]
    assert strip(t1.rows) == strip(t4.rows)


def test_profile_csv_rows():
    box = build_box_space(Filtration(free_abelian(1), (16, 64)))
    table = asdim_profile(box, (2,), S_cap=16, mode="structured")
    rows = list(table.as_csv_rows())
    assert rows[0] == ProfileRow.CSV_FIELDS
    assert len(rows) == 2
    assert rows[1][0] == "2"


def old_profile_rows(box, R_list, S_cap, mode, growth=None, rung_n=None):
    """asdim_profile's rows as its loop gave them when every rung that
    built a cover was verified: (R, s_achieved, n_achieved, families).
    Given a dict rung_n, each rung's own family count (or None) is stored
    there under (R, S)."""
    out = []
    for R in sorted(set(R_list)):
        if mode == "prop41":
            cover, report = cover_prop41(box, R, growth)
            out.append((R, report.max_set_diameter, report.r_multiplicity - 1,
                        cover.families))
            continue
        best = None
        for S in s_ladder(R, S_cap):
            got = box_witness_cover(box, R, S, mode)
            if rung_n is not None:
                rung_n[R, S] = None if got is None else len([f for f in got[0].families if f]) - 1
            if got is None:
                continue
            cover, report = got
            n = len([f for f in cover.families if f]) - 1
            if best is None or n < best[0]:
                best = (n, report.max_set_diameter, cover.families)
        out.append((R, None, None, None) if best is None else (R, best[1], best[0], best[2]))
    return out


def branch_and_bound_rungs(diameters, R_list, S_cap, rung_n):
    """How many rungs the profile's walk tries, replayed from each rung's
    own family count.  A rung's lower bound is 1 at R >= 2 with a component
    wider than S, else 0.  The walk tries first the lowest rung with bound
    0 (the first rung at R = 1, or if none has it), then the others in
    ascending order, skipping a rung whose bound is at least the best
    count so far."""
    tried = 0
    for R in sorted(set(R_list)):
        ladder = s_ladder(R, S_cap)
        lb = {S: int(R >= 2 and max(diameters) > S) for S in ladder}
        first = next((S for S in ladder if lb[S] == 0), ladder[0])
        best = None
        for S in [first] + [S for S in ladder if S != first]:
            if best is not None and lb[S] >= best:
                continue
            tried += 1
            if rung_n[R, S] is not None and (best is None or rung_n[R, S] < best):
                best = rung_n[R, S]
    return tried


PROFILE_CASES = {
    "structured Z": (free_abelian(1), tuple(2 ** t for t in range(1, 9)), (1, 2, 4, 8), 64,
                     "structured"),
    "structured Z2": (free_abelian(2), (4, 16, 64), (1, 2, 4, 8), 64, "structured"),
    "greedy UT3": (unitriangular(3), (2, 4, 8), (1, 2, 4), 16, "greedy"),
    # S_cap below every diameter at R >= 2: the bound prunes no rung
    "greedy Z2 below": (free_abelian(2), (16, 32), (2, 4), 15, "greedy"),
    "exact Z": (free_abelian(1), (2, 4, 8, 16), (1, 2, 4), 16, "exact"),
    "prop41 Z": (free_abelian(1), (4, 8, 16, 32), (1, 2, 4), 64, "prop41"),
}


@pytest.mark.parametrize("name", sorted(PROFILE_CASES))
def test_profile_rows_match_verifying_every_rung(monkeypatch, name):
    # a rung that cannot beat the best family count is neither verified
    # nor, when its lower bound rules it out, tried; the rows and their
    # covers stay the same
    spec, moduli, R_list, S_cap, mode = PROFILE_CASES[name]
    box = build_box_space(Filtration(spec, moduli))
    growth = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 10 ** 7))
    calls = {"rungs": 0, "verify": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dimension_module, "verify_cover",
                        counted("verify", dimension_module.verify_cover))
    rung_n = {}
    want = old_profile_rows(box, R_list, S_cap, mode, growth, rung_n)
    old_verify, calls["verify"] = calls["verify"], 0
    monkeypatch.setattr(dimension_module, "box_witness_cover",
                        counted("rungs", dimension_module.box_witness_cover))
    table = asdim_profile(box, R_list, S_cap=S_cap, mode=mode, growth=growth)
    got = [(r.R, r.s_achieved, r.n_achieved, None if r.cover is None else r.cover.families)
           for r in table.rows]
    assert got == want
    if mode != "prop41":
        assert calls["rungs"] == branch_and_bound_rungs(box.diameters, R_list, S_cap, rung_n)
        assert calls["verify"] < old_verify
    if name == "greedy Z2 below":
        assert calls["rungs"] == sum(len(s_ladder(R, S_cap)) for R in R_list)
    assert any(row[1] is not None for row in want)


def count_solver_calls(monkeypatch):
    """Wrap both solvers of the profile; return the list their calls
    append to, as (method, points, R, S)."""
    calls = []
    for method in ("exact", "greedy"):
        def counted(space, R, S, method=method, solver=getattr(dimension_module,
                                                                f"rs_dim_{method}")):
            calls.append((method, space.n_vertices, R, S))
            return solver(space, R, S)
        monkeypatch.setattr(dimension_module, f"rs_dim_{method}", counted)
    return calls


def test_profile_rows_match_every_rung_on_random_boxes(monkeypatch):
    # seeded sweep over small boxes, scales and the three solver modes.
    # Where the oracle refuses, each R is checked alone: at R >= 2 with
    # S_cap past every diameter the row is n = 0 and no solver runs, and
    # otherwise the refusal comes with the oracle's error and message
    calls = count_solver_calls(monkeypatch)
    rng = random.Random(21)
    boxes = [(free_abelian(1), (2, 4, 8, 16, 32)), (free_abelian(1), (3, 6, 12)),
             (free_abelian(2), (2, 4, 8)), (free_abelian(2), (4, 8)),
             (unitriangular(3), (2, 4)), (unitriangular(3), (3,))]
    seen = set()
    for _ in range(150):
        spec, moduli = rng.choice(boxes)
        moduli = tuple(sorted(rng.sample(moduli, rng.randint(1, len(moduli)))))
        box = build_box_space(Filtration(spec, moduli))
        R_list = rng.sample(range(1, 6), rng.randint(1, 3))
        S_cap = rng.randint(1, 2 * max(box.diameters) + 2)
        mode = rng.choice(["exact", "greedy", "structured"])
        try:
            old_profile_rows(box, R_list, S_cap, mode)
        except ResourceCapError:
            R_lists = [[R] for R in R_list]
        else:
            R_lists = [R_list]
        for Rs in R_lists:
            try:
                want = old_profile_rows(box, Rs, S_cap, mode)
            except ResourceCapError as exc:
                (R,) = Rs
                if R >= 2 and S_cap >= max(box.diameters):
                    calls.clear()
                    (row,) = asdim_profile(box, Rs, S_cap=S_cap, mode=mode).rows
                    assert row.n_achieved == 0 and calls == [], (spec, moduli, R, S_cap)
                    seen.add("settled")
                else:
                    with pytest.raises(ResourceCapError, match=f"^{exc}$"):
                        asdim_profile(box, Rs, S_cap=S_cap, mode=mode)
                    seen.add("refused")
                continue
            table = asdim_profile(box, Rs, S_cap=S_cap, mode=mode)
            got = [(r.R, r.s_achieved, r.n_achieved,
                    None if r.cover is None else r.cover.families) for r in table.rows]
            assert got == want, (spec, moduli, Rs, S_cap, mode)
            seen.update((mode, row[2]) for row in want)
    assert {"refused", "settled", ("exact", 0), ("greedy", 1), ("structured", None)} <= seen


def test_greedy_heisenberg_profile_verifies_two_rungs_and_runs_no_solver(monkeypatch):
    # the heisenberg_profile bench box: at S = 16 every component is one
    # set, and no lower rung can reach n = 0 at R = 2 or 4
    box = build_box_space(Filtration(unitriangular(3), (2, 4, 8, 16)))
    calls, solved = [], []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return verify_cover(*args, **kwargs)

    monkeypatch.setattr(dimension_module, "verify_cover", counted)
    monkeypatch.setattr(dimension_module, "rs_dim_greedy",
                        lambda space, R, S: solved.append((R, S)))
    table = asdim_profile(box, (2, 4), S_cap=16, mode="greedy")
    assert calls == [(2, 16), (4, 16)]
    assert solved == []
    assert [(row.s_achieved, row.n_achieved) for row in table.rows] == [(16, 0), (16, 0)]


@pytest.mark.parametrize("mode, spec, moduli, S_cap", [
    pytest.param("greedy", unitriangular(3), (2, 4, 8), 16, id="greedy UT3 2 4 8"),
    pytest.param("exact", free_abelian(1), (8, 64), 32, id="exact Z 8 64"),
])
def test_profile_past_every_diameter_runs_no_solver(monkeypatch, mode, spec, moduli, S_cap):
    # the first rung, 4, would hand each wider component (greedy: 64 and
    # 512 points, with the cap lowered to 10; exact: Z mod 64, past 60) to
    # a solver that refuses it; but S_cap is past every diameter, and the
    # rung at the widest diameter settles R = 2 at n = 0 with no solver
    monkeypatch.setattr(boxspace_module, "GRAPH_POINT_CAP", 10)
    calls = count_solver_calls(monkeypatch)
    box = build_box_space(Filtration(spec, moduli))
    assert max(box.diameters) <= S_cap
    (row,) = asdim_profile(box, (2,), S_cap=S_cap, mode=mode).rows
    assert (row.s_achieved, row.n_achieved) == (max(box.diameters), 0)
    assert verify_cover(row.cover, 2, S_cap).ok
    assert calls == []


@pytest.mark.parametrize("mode, spec, moduli, R, S_cap, message", [
    pytest.param("greedy", unitriangular(3), (2, 4, 8), 2, 6, "64 points exceeds the cap 10",
                 id="greedy UT3 2 4 8 below"),
    pytest.param("exact", free_abelian(1), (8, 64), 2, 16, "64 points exceeds the cap 60",
                 id="exact Z 8 64 below"),
    pytest.param("exact", free_abelian(1), (8, 64), 1, 32, "64 points exceeds the cap 60",
                 id="exact Z 8 64 at R 1"),
])
def test_profile_refuses_a_component_past_the_solver_cap(monkeypatch, mode, spec, moduli,
                                                          R, S_cap, message):
    # S_cap is below the widest diameter, or R = 1 (where no rung has a
    # lower bound of 1), so the first rung the walk runs is 4 or 2; it
    # hands each wider component to the solver, which refuses the first
    # past its cap (greedy's lowered to 10)
    monkeypatch.setattr(boxspace_module, "GRAPH_POINT_CAP", 10)
    box = build_box_space(Filtration(spec, moduli))
    assert R == 1 or max(box.diameters) > S_cap
    with pytest.raises(ResourceCapError, match=f"^{message}$"):
        asdim_profile(box, (R,), S_cap=S_cap, mode=mode)


@pytest.mark.parametrize("mode, spec, moduli", [
    ("greedy", unitriangular(3), (2, 4, 8, 16)),
    ("exact", free_abelian(1), (2, 4, 8, 16, 32)),
])
def test_bad_solver_coloring_raises_as_rs_dim_does(monkeypatch, mode, spec, moduli):
    # one color for every point: each large component is one cluster past S
    monkeypatch.setattr(dimension_module, f"rs_dim_{mode}",
                        lambda space, R, S: [0] * space.n_vertices)
    box = build_box_space(Filtration(spec, moduli))
    with pytest.raises(VerificationError) as got:
        asdim_profile(box, (2,), S_cap=4, mode=mode)
    large = next(c for c, d in zip(box.components, box.diameters) if d > 4)
    with pytest.raises(VerificationError) as want:
        rs_dim(large, 2, 4, mode)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{mode} produced an invalid witness at R=2, S=4: ")


@pytest.mark.parametrize("mode", ["greedy", "exact"])
def test_geometry_only_failure_returns_none(mode):
    # F (moduli 2 and 4) and w2 (modulus 8) sit at 1 + 4 = 5 < R; the
    # solver's cover of Z/16 is valid on its own
    box = build_box_space(Filtration(free_abelian(1), (2, 4, 8, 16)))
    assert box_witness_cover(box, 6, 4, mode) is None
    assert rs_dim(box.components[3], 6, 4, mode).cover is not None


# the first scale out of range, as check_int names it
BAD_SCALES = {(0, -2): "R must be >= 1, got 0", (1, -1): "S must be >= 0, got -1"}


@pytest.mark.parametrize("mode", ["structured", "greedy", "exact"])
@pytest.mark.parametrize("R, S", list(BAD_SCALES))
def test_box_witness_cover_refuses_bad_scales_up_front(mode, R, S):
    # structured mode once looped forever at R = 0, S = -2 and divided by
    # zero at S = -1; an alarm fails the test rather than hang it
    box = build_box_space(Filtration(free_abelian(1), (4, 16)))

    def hang(signum, frame):
        raise AssertionError(f"box_witness_cover still running after 20 s ({mode}, {R}, {S})")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        with pytest.raises(ConfigError, match=rf"^{BAD_SCALES[R, S]}$"):
            box_witness_cover(box, R, S, mode)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("pattern", [interval_families, grid_families])
@pytest.mark.parametrize("R, S", list(BAD_SCALES))
def test_patterns_refuse_bad_scales(pattern, R, S):
    # interval_families once looped forever at R = 0, S = -2 and divided by
    # zero at S = -1; an alarm fails the test rather than hang it

    def hang(signum, frame):
        raise AssertionError(f"{pattern.__name__} still running after 20 s ({R}, {S})")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        with pytest.raises(ConfigError, match=rf"^{BAD_SCALES[R, S]}$"):
            pattern(16, R, S)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_box_witness_cover_refuses_unknown_mode_up_front():
    # both components have diameter <= S, so no component is ever solved
    box = build_box_space(Filtration(free_abelian(1), (4, 8)))
    with pytest.raises(ConfigError, match="^unknown witness mode 'magic'$"):
        box_witness_cover(box, 1, 8, "magic")


def test_profile_rejects_unknown_mode():
    box = build_box_space(Filtration(free_abelian(1), (8,)))
    with pytest.raises(ConfigError):
        asdim_profile(box, (2,), S_cap=8, mode="magic")


def ix_search(space, R, S, n_cap=8):
    """The branch and bound of rs_dim_exact as it was with one np.ix_
    cluster-diameter check per tried color: the coloring it finds."""
    n_pts = space.n_vertices
    D = FiniteMetricSpace.from_graph(space).dist_matrix
    order = sorted(range(n_pts), key=lambda v: (int(D[0, v]), v))

    def solve(kmax):
        color, clusters, point_cid, counter = {}, {}, {}, [0]

        def assign(idx):
            if idx == n_pts:
                return True
            p = order[idx]
            used = 1 + max(color.values(), default=-1)
            for c in range(min(used + 1, kmax)):
                near = {point_cid[q] for q in color if color[q] == c and D[p, q] < R}
                members = [p]
                diam = 0
                for cid in near:
                    members.extend(clusters[cid][0])
                if len(members) > 1:
                    diam = int(D[np.ix_(members, members)].max())
                    if diam > S:
                        continue
                cid_new = counter[0]
                counter[0] += 1
                stash = [(cid, clusters.pop(cid)) for cid in near]
                moved = [(q, point_cid[q]) for q in members if q != p]
                clusters[cid_new] = (tuple(members), diam)
                for q in members:
                    point_cid[q] = cid_new
                color[p] = c
                point_cid[p] = cid_new
                if assign(idx + 1):
                    return True
                del color[p]
                del point_cid[p]
                del clusters[cid_new]
                for cid, data in stash:
                    clusters[cid] = data
                for q, cid in moved:
                    point_cid[q] = cid
            return False

        return tuple(color[v] for v in range(n_pts)) if assign(0) else None

    for k in range(1, min(n_pts, n_cap + 1) + 1):
        coloring = solve(k)
        if coloring is not None:
            return coloring
    return None


def exact_search_spaces():
    yield pytest.param(build_quotient_cayley(CongruenceQuotient(unitriangular(3), 3)),
                       [(2, 2), (1, 0), (2, 4)], id="UT3/3")
    yield pytest.param(build_quotient_cayley(CongruenceQuotient(free_abelian(2), 4)),
                       [(1, 0), (2, 1), (2, 2), (3, 2), (2, 3)], id="Z2/4")
    for m in (5, 8, 12):
        yield pytest.param(cycle_space(m), [(1, 0), (2, 1), (2, 3), (3, 2), (4, 5)],
                           id=f"C{m}")
    for n in (4, 7, 10):
        yield pytest.param(path_space(n), [(1, 0), (2, 1), (2, 2), (3, 4)], id=f"P{n}")
    rng = random.Random(2024)
    for i in range(12):
        space = random_metric_space(rng, rng.randint(4, 14), max_distance=6)
        yield pytest.param(space, [(2, 2), (3, 3), (4, 2), (5, 6)], id=f"random{i}")


@pytest.mark.parametrize("space,params", list(exact_search_spaces()))
def test_exact_coloring_matches_ix_search(space, params):
    for R, S in params:
        got = rs_dim(space, R, S, "exact")
        assert got.coloring == ix_search(space, R, S), (R, S)
