"""Cayley graph and growth tests.

Distances are cross-checked against networkx shortest paths on graphs built
independently from tuple arithmetic, and growth values against lattice-point
counts and a word-products oracle.
"""
import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from boxdim import boxspace as boxspace_module
from boxdim import covers as covers_module
from boxdim.boxspace import FiniteMetricSpace
from boxdim.cayley import (
    CayleyGraph,
    GrowthProfile,
    breadth_first_distances,
    build_quotient_cayley,
    coords_invert,
    coords_multiply,
    enumerate_ball,
    fit_growth,
    growth_profile,
    loglog_slope,
    product_ids,
    quotient_coords,
    sorted_distinct,
    _work_dtype,
)
from boxdim.errors import ConfigError, GrowthBoundError, ResourceCapError, ShapeMismatchError
from boxdim.groups import (
    CongruenceQuotient,
    direct_product,
    flatten,
    free_abelian,
    identity,
    invert,
    multiply,
    unflatten,
    unitriangular,
)
from scalar_oracle import reduce_mod

# Heisenberg ball sizes r = 0..12, from an independent word-products
# enumeration with raw matrix arithmetic (frozen).
UT3_BALL_SIZES = (1, 5, 17, 53, 135, 299, 593, 1069, 1793, 2845, 4309, 6281, 8871)


def nx_cayley(spec, m):
    """Independent graph: BFS over coordinate tuples with tuple arithmetic."""
    q = CongruenceQuotient(spec, m)
    gens = list(spec.generators)
    gens = gens + [invert(spec, g) for g in gens]
    start = identity(spec)
    graph = nx.Graph()
    graph.add_node(start)
    todo = [start]
    seen = {start}
    while todo:
        v = todo.pop()
        for g in gens:
            w = reduce_mod(q, multiply(spec, v, g))
            graph.add_edge(v, w)
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return graph


def ids_by_tuple(graph):
    return {tuple(int(c) for c in graph.coords[v]): v for v in range(graph.n_vertices)}


def test_cycle_c5():
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), 5))
    assert g.n_vertices == 5
    assert g.degree == 2
    assert list(g.adjacency[0]) == [1, 4]
    assert g.diameter == 2
    assert g.dist.tolist() == [0, 1, 2, 2, 1]


def test_torus_mod3():
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(2), 3))
    assert g.n_vertices == 9
    assert g.degree == 4
    assert g.diameter == 2


def test_ut3_mod2():
    g = build_quotient_cayley(CongruenceQuotient(unitriangular(3), 2))
    assert g.n_vertices == 8
    assert g.degree == 4
    # mod 2 each generator equals its inverse, so rows hold parallel edges
    assert sorted(set(g.adjacency[0])) == [1, 2]
    assert g.diameter == 4


def test_complete_graph_on_5():
    q = CongruenceQuotient(free_abelian(1, [(1,), (2,)]), 5)
    g = build_quotient_cayley(q)
    assert g.degree == 4
    for u in range(5):
        for v in range(5):
            assert g.distance(u, v) == (0 if u == v else 1)


def test_balls_on_c12():
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), 12))
    assert g.ball_size(3) == 7
    assert g.ball_size(6) == 12
    assert g.diameter == 6
    assert g.ball_ids(4, 3).tolist() == [1, 2, 3, 4, 5, 6, 7]


def test_ut3_mod5_ball_of_radius_2():
    g = build_quotient_cayley(CongruenceQuotient(unitriangular(3), 5))
    assert g.ball_size(2) == 17


def test_diameters():
    assert build_quotient_cayley(CongruenceQuotient(free_abelian(2), 4)).diameter == 4
    assert build_quotient_cayley(CongruenceQuotient(unitriangular(3), 4)).diameter == 6


def test_distances_match_networkx():
    rng = random.Random(515)
    cases = [(free_abelian(1), 12), (free_abelian(2), 4), (unitriangular(3), 3)]
    for spec, m in cases:
        g = build_quotient_cayley(CongruenceQuotient(spec, m))
        ref = nx_cayley(spec, m)
        key = ids_by_tuple(g)
        tuples = list(ref.nodes)
        for _ in range(50):
            a, b = rng.choice(tuples), rng.choice(tuples)
            ia, ib = key[flatten(spec, a)], key[flatten(spec, b)]
            assert g.distance(ia, ib) == nx.shortest_path_length(ref, a, b)
        # whole distance field from a random vertex
        a = rng.choice(tuples)
        ia = key[flatten(spec, a)]
        field = g.distances_from(ia, np.arange(g.n_vertices))
        for b, d in nx.single_source_shortest_path_length(ref, a).items():
            assert field[key[flatten(spec, b)]] == d


def test_ball_translation_matches_networkx():
    rng = random.Random(99)
    spec, m = unitriangular(3), 3
    g = build_quotient_cayley(CongruenceQuotient(spec, m))
    ref = nx_cayley(spec, m)
    key = ids_by_tuple(g)
    tuples = list(ref.nodes)
    for _ in range(10):
        c = rng.choice(tuples)
        r = rng.randint(0, 4)
        lengths = nx.single_source_shortest_path_length(ref, c)
        expect = sorted(key[flatten(spec, b)] for b, d in lengths.items() if d <= r)
        got = g.ball_ids(key[flatten(spec, c)], r).tolist()
        assert got == expect


def test_sphere_sizes_are_vertex_independent():
    rng = random.Random(7)
    g = build_quotient_cayley(CongruenceQuotient(unitriangular(3), 4))
    base = g.sphere_sizes()
    for _ in range(5):
        v = rng.randrange(g.n_vertices)
        d = g.distances_from(v, np.arange(g.n_vertices))
        assert np.array_equal(np.bincount(d, minlength=len(base)), base)


@pytest.mark.parametrize("spec, m", [(unitriangular(3), 4), (free_abelian(2), 5),
                                     (direct_product(free_abelian(1), unitriangular(3)), 3)])
def test_distances_from_reads_only_the_ids_asked_for(spec, m):
    # both component kinds against the BFS table from v, indexed at ids:
    # the identity, a scalar id, repeated ids, unsorted ids and no ids
    g = build_quotient_cayley(CongruenceQuotient(spec, m))
    rng = np.random.default_rng(3)
    n = g.n_vertices
    for comp in (g, FiniteMetricSpace.from_graph(g)):
        for v in (g.identity_id, 1, n - 1, int(rng.integers(n))):
            table = g.distances_to([v])
            for ids in (np.arange(n), rng.integers(0, n, 40), np.array([v, v, 0, v]),
                        [n - 1, 0], np.zeros(0, dtype=np.int64)):
                got = comp.distances_from(v, ids)
                assert got.shape == np.shape(ids)
                assert np.array_equal(got, table[ids]), (type(comp), v, ids)
            x = int(rng.integers(n))
            assert int(comp.distances_from(v, x)) == table[x] == comp.distance(v, x)
        with pytest.raises(ShapeMismatchError):
            comp.distances_from(n, [0])
        with pytest.raises(ShapeMismatchError):
            comp.distance(0, n)


@pytest.mark.parametrize("kind", ["cayley", "matrix"])
@pytest.mark.parametrize("method", ["distances_from", "distances_to", "row_diameters"])
@pytest.mark.parametrize("bad", [-1, 8, 2 ** 40])
def test_component_methods_refuse_ids_out_of_range(kind, method, bad):
    # numpy would read -1 as the last vertex and raise a bare IndexError at 8
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), 8))
    comp = g if kind == "cayley" else FiniteMetricSpace.from_graph(g)
    call = {"distances_from": lambda ids: comp.distances_from(0, ids),
            "distances_to": comp.distances_to,
            "row_diameters": lambda ids: comp.row_diameters(np.atleast_2d(ids), 50_000)}[method]
    assert np.asarray(call([0, 3, 7])).size
    for ids in ([bad], [0, bad, 3], np.array([bad, 7])):
        with pytest.raises(ShapeMismatchError, match=f"vertex id {bad} out of range"):
            call(ids)


def test_encode_roundtrip():
    # vertex v has the coordinates whose mixed-radix id is v
    g = build_quotient_cayley(CongruenceQuotient(unitriangular(3), 4))
    assert encoded(g.coords, 4).tolist() == list(range(g.n_vertices))


def test_multi_source_bfs_cap():
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), 12))
    d = breadth_first_distances(g.adjacency, [0, 6], cap=2)
    assert d[0] == 0 and d[6] == 0
    assert d[1] == 1 and d[7] == 1
    assert d[3] == -1  # beyond the cap


# --- growth ----------------------------------------------------------------

def lattice_ball(dim, r):
    return sum(1 for p in itertools.product(range(-r, r + 1), repeat=dim)
               if sum(abs(x) for x in p) <= r)


def test_growth_matches_lattice_counts():
    for dim in (1, 2, 3):
        prof = growth_profile(free_abelian(dim), 8)
        assert prof.sizes[0] == 1
        for r in range(9):
            assert prof.sizes[r] == lattice_ball(dim, r)


def test_growth_ut3_matches_word_oracle():
    # independent oracle: multiply raw matrix tuples (a, b, c)
    def mul(p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    sizes = [1]
    for _ in range(6):
        nxt = []
        for v in frontier:
            for g in gens:
                w = mul(v, g)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        sizes.append(len(seen))
    assert tuple(sizes) == UT3_BALL_SIZES[:7]
    prof = growth_profile(unitriangular(3), 6)
    assert prof.sizes == UT3_BALL_SIZES[:7]


def test_growth_of_product():
    prof = growth_profile(direct_product(free_abelian(1), free_abelian(1)), 5)
    for r in range(6):
        assert prof.sizes[r] == lattice_ball(2, r)


def test_quotient_ball_sizes_match_infinite_group_at_small_radii():
    # below half the shortest kernel word, the quotient map is injective
    # on balls, so the counts agree
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(2), 8))
    prof = growth_profile(free_abelian(2), 3)
    for r in range(4):
        assert g.ball_size(r) == prof.sizes[r]
    g2 = build_quotient_cayley(CongruenceQuotient(unitriangular(3), 5))
    assert g2.ball_size(2) == UT3_BALL_SIZES[2]


def old_quotient_coords(quotient):
    """The per-column mixed-radix decode quotient_coords replaced."""
    m = quotient.modulus
    acc = np.arange(quotient.order, dtype=np.int64)
    coords = np.empty((quotient.order, len(flatten(quotient.spec, identity(quotient.spec)))),
                      dtype=np.int64)
    for i in range(coords.shape[1]):
        coords[:, i] = acc % m
        acc = acc // m
    return coords


def test_quotient_coords_equal_the_column_decode():
    for spec, m in ((free_abelian(2), 256), (unitriangular(3), 32),
                    (direct_product(free_abelian(1), unitriangular(3)), 12),
                    (unitriangular(4), 3)):
        q = CongruenceQuotient(spec, m)
        got = quotient_coords(q)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, old_quotient_coords(q)), (spec, m)


def test_enumerate_ball_cap():
    with pytest.raises(ResourceCapError):
        enumerate_ball(free_abelian(3), 20, state_cap=100)


def test_fit_growth_z():
    prof = growth_profile(free_abelian(1), 8)
    bound = fit_growth(prof)
    assert bound.d == 1
    assert bound.C == Fraction(3)
    assert violations(bound, prof.sizes) == []


def test_fit_growth_z2():
    prof = growth_profile(free_abelian(2), 20)
    bound = fit_growth(prof)
    assert bound.d == 2
    assert bound.C == Fraction(5)  # (2r^2+2r+1)/r^2 peaks at r=1
    assert 1.5 <= bound.slope <= 2.25
    assert violations(bound, prof.sizes) == []


def test_fit_growth_ut3():
    prof = growth_profile(unitriangular(3), 12)
    bound = fit_growth(prof)
    # degree-4 growth; the degree exceeds the Hirsch length 3
    assert bound.d == 4
    assert 3.5 <= bound.slope <= 4.5
    assert bound.C == Fraction(5)
    assert violations(bound, prof.sizes) == []


def test_fit_growth_explicit_degree():
    prof = growth_profile(free_abelian(1), 8)
    bound = fit_growth(prof, d=2)
    assert bound.d == 2
    assert bound.C == Fraction(3)  # still peaks at r=1
    assert bound.check(4, 48)
    assert not bound.check(4, 49)


def test_fit_growth_past_the_size_bits_is_the_unit_ball():
    # once 2^d passes every ball size, sizes[r] / r^d < 1 for r >= 2, and
    # C is |B(e, 1)| without computing r^d
    for spec, r_max in ((free_abelian(1), 8), (free_abelian(2), 10), (unitriangular(3), 9)):
        prof = growth_profile(spec, r_max)
        top = max(prof.sizes).bit_length()
        for d in range(max(0, top - 3), top + 3):
            want = max(Fraction(prof.sizes[r], r ** d) for r in range(1, r_max + 1))
            assert fit_growth(prof, d=d).C == want, (spec, d)
        assert fit_growth(prof, d=10 ** 20).C == prof.sizes[1]


def test_fit_growth_errors():
    prof = growth_profile(free_abelian(1), 3)
    with pytest.raises(GrowthBoundError):
        fit_growth(prof)
    good = growth_profile(free_abelian(1), 8)
    # log-log slope about 20: past every degree 0..MAX_DEGREE
    exponential = GrowthProfile(spec=free_abelian(1),
                                sizes=tuple(10 ** r for r in range(13)))
    with pytest.raises(GrowthBoundError, match="no candidate degree"):
        fit_growth(exponential)
    with pytest.raises(GrowthBoundError):
        fit_growth(good, d=-1)


def violations(bound, sizes):
    """(r, size) pairs with sizes[r] > C r^d, r >= 1."""
    return [(r, s) for r, s in enumerate(sizes) if r >= 1 and not bound.check(r, s)]


def test_growth_bound_violations_reported():
    prof = growth_profile(free_abelian(1), 8)
    bound = fit_growth(prof)
    doctored = list(prof.sizes)
    doctored[4] = 100
    assert violations(bound, doctored) == [(4, 100)]


# --- build validation ------------------------------------------------------

def test_build_errors():
    def quotient(generators):
        return CongruenceQuotient(free_abelian(1, generators), 4)

    with pytest.raises(ConfigError, match="does not generate"):
        build_quotient_cayley(quotient([(2,)]))  # generates only evens
    with pytest.raises(ConfigError, match="identity"):
        build_quotient_cayley(quotient([(0,)]))
    with pytest.raises(ConfigError, match="empty"):
        build_quotient_cayley(quotient([]))
    with pytest.raises(ShapeMismatchError):
        free_abelian(1, [(1, 0)])
    with pytest.raises(ResourceCapError):
        build_quotient_cayley(CongruenceQuotient(free_abelian(2), 40), vertex_cap=100)


def test_overflow_guard_switches_to_exact_integers():
    spec = unitriangular(3)
    assert _work_dtype(spec, 100) is np.int64
    big = 2 ** 40
    assert _work_dtype(spec, big) is object
    a = np.array([big - 1, big - 2, big - 3], dtype=object)
    b = np.array([big - 5, big - 7, big - 11], dtype=object)
    got = coords_multiply(spec, a, b, big)
    ta = tuple(int(x) for x in a)
    tb = tuple(int(x) for x in b)
    q = CongruenceQuotient(spec, big)
    assert tuple(int(x) for x in got) == reduce_mod(q, multiply(spec, ta, tb))
    inv = coords_invert(spec, a, big)
    assert tuple(int(x) for x in inv) == reduce_mod(q, invert(spec, ta))


# --- fused product ids and pairwise distance blocks --------------------------

ID_SPECS = {
    "Z": (free_abelian(1), 7),
    "Z2": (free_abelian(2), 5),
    "UT3": (unitriangular(3), 6),
    "UT4": (unitriangular(4), 3),
    "ZxUT3": (direct_product(free_abelian(1), unitriangular(3)), 4),
}


def encoded(coords, m):
    """Mixed-radix ids of coordinate rows, in exact Python integers."""
    coords = np.asarray(coords, dtype=object)
    return sum(coords[..., i] * m ** i for i in range(coords.shape[-1]))


@pytest.mark.parametrize("name", sorted(ID_SPECS))
def test_product_ids_match_encoded_products(name):
    spec, m = ID_SPECS[name]
    k = len(flatten(spec, identity(spec)))
    rng = np.random.default_rng(len(name))
    a = rng.integers(0, m, size=(9, k))
    b = rng.integers(0, m, size=(6, k))
    shapes = ((a[0], b), (a, b[0]), (a[0], b[0]),
              (a[:, None, :], b[None, :, :]))
    for x, y in shapes:
        got = product_ids(spec, x, y, m)
        want = encoded(coords_multiply(spec, x, y, m), m)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tolist() == np.asarray(want).tolist()
    # the all-pairs block against the scalar tuple arithmetic
    q = CongruenceQuotient(spec, m)
    block = product_ids(spec, a[:, None, :], b[None, :, :], m)
    for r, u in enumerate(a.tolist()):
        for c, v in enumerate(b.tolist()):
            w = reduce_mod(q, multiply(spec, unflatten(spec, u), unflatten(spec, v)))
            assert block[r, c] == encoded(flatten(spec, w), m)


@pytest.mark.parametrize("m", [2 ** 11 + 1, 2 ** 40])
def test_product_ids_exact_beyond_int32(m):
    # UT(3) ids pass int32 at 2^11 + 1; at 2^40 the products and the ids
    # pass int64, and exact integers take over
    spec = unitriangular(3)
    a = np.array([[m - 1, m - 2, m - 3], [1, 0, m - 1], [m // 2, m - 1, 7]], dtype=object)
    b = np.array([m - 5, m - 7, m - 11], dtype=object)
    got = product_ids(spec, a, b, m)
    q = CongruenceQuotient(spec, m)
    want = [sum(c * m ** i for i, c in enumerate(
        reduce_mod(q, multiply(spec, tuple(int(x) for x in row), tuple(int(x) for x in b)))))
        for row in a]
    assert got.tolist() == want


DIAMETER_GRAPHS = {
    "Z12": (free_abelian(1), 12),
    "Z2_8": (free_abelian(2), 8),
    "UT3_4": (unitriangular(3), 4),
}


@pytest.mark.parametrize("name", sorted(DIAMETER_GRAPHS))
@pytest.mark.parametrize("kind", ["cayley", "matrix"])
def test_row_diameters_match_brute_force(name, kind):
    # rows of one id and of several, repeated ids, at blocks of one pair,
    # of one row's sources (L), of one row (L^2) and the verifier's default
    spec, m = DIAMETER_GRAPHS[name]
    g = build_quotient_cayley(CongruenceQuotient(spec, m))
    comp = g if kind == "cayley" else FiniteMetricSpace.from_graph(g)
    D = np.stack([breadth_first_distances(g.adjacency, [v]) for v in range(g.n_vertices)])
    rng = np.random.default_rng(len(name))
    for L in (1, 2, 5, 17):
        rows = rng.integers(0, g.n_vertices, (9, L))
        rows[1] = rows[1, 0]                    # one id, L times
        rows[2, L // 2:] = rows[2, 0]           # the first id again
        want = [int(D[np.ix_(r, r)].max()) for r in rows]
        for block in (1, L, L * L, covers_module.ROW_BLOCK):
            got = comp.row_diameters(rows, block)
            assert got.tolist() == want, (L, block)
    # balls, the whole graph and nothing: every distance the graph holds
    for r in range(g.diameter + 1):
        rows = np.stack([g.ball_ids(c, r) for c in (0, g.n_vertices - 1)])
        want = [int(D[np.ix_(x, x)].max()) for x in rows]
        assert comp.row_diameters(rows, 7).tolist() == want == [min(2 * r, g.diameter)] * 2
    assert comp.row_diameters(np.zeros((3, 0), dtype=np.int64), 7).tolist() == [0, 0, 0]


@pytest.mark.parametrize("name", sorted(DIAMETER_GRAPHS))
@pytest.mark.parametrize("rows", [256, 1, 7])
def test_subset_diameter_matches_brute_force(name, rows):
    # the diameter of one set of ids, as one row of row_diameters, in
    # blocks of `rows` pairs
    spec, m = DIAMETER_GRAPHS[name]
    g = build_quotient_cayley(CongruenceQuotient(spec, m))
    D = np.stack([breadth_first_distances(g.adjacency, [v]) for v in range(g.n_vertices)])

    def brute(ids):
        return int(D[np.ix_(ids, ids)].max())

    def subset_diameter(ids):
        return int(g.row_diameters(np.asarray([ids], dtype=np.int64), rows)[0])

    rng = random.Random(f"{name}-{rows}")
    for _ in range(30):
        ids = rng.sample(range(g.n_vertices), rng.randint(1, min(20, g.n_vertices)))
        assert subset_diameter(ids) == brute(ids)
    # subsets of balls of radius < diameter / 2, with repeated ids, stay
    # below the graph's diameter
    for _ in range(30):
        ball = g.ball_ids(rng.randrange(g.n_vertices), (g.diameter - 1) // 2).tolist()
        ids = rng.sample(ball, rng.randint(1, min(20, len(ball))))
        ids += ids[:rng.randint(0, 2)]
        want = brute(ids)
        assert want < g.diameter
        assert subset_diameter(ids) == want
    for center in (0, g.n_vertices - 1, rng.randrange(g.n_vertices)):
        for r in range(g.diameter + 1):
            ids = g.ball_ids(center, r)
            assert subset_diameter(ids) == brute(ids), (center, r)


def test_blocked_distance_matrix_matches_bfs_rows(monkeypatch):
    # from_graph reads SLICE from boxspace and takes SLICE // n rows a
    # block: one and seven rows per block
    blocks = []
    pairs = CayleyGraph._pair_distances

    def counted(self, xs, ys):
        blocks.append(xs.size)
        return pairs(self, xs, ys)

    monkeypatch.setattr(CayleyGraph, "_pair_distances", counted)
    for (spec, m), rows in itertools.product(ID_SPECS.values(), (1, 7)):
        g = build_quotient_cayley(CongruenceQuotient(spec, m))
        monkeypatch.setattr(boxspace_module, "SLICE", rows * g.n_vertices)
        blocks.clear()
        got = FiniteMetricSpace.from_graph(g).dist_matrix
        want = np.stack([breadth_first_distances(g.adjacency, [v])
                         for v in range(g.n_vertices)])
        assert np.array_equal(got, want)
        assert sum(blocks) == g.n_vertices and max(blocks) == min(rows, g.n_vertices)


def test_loglog_slope_short_profile():
    with pytest.raises(GrowthBoundError):
        loglog_slope(GrowthProfile(spec=free_abelian(1), sizes=(1, 3)))


def test_bfs_seeds_with_repeated_and_unsorted_sources():
    g = build_quotient_cayley(CongruenceQuotient(free_abelian(1), 12))
    want = breadth_first_distances(g.adjacency, [0, 3, 6])
    for sources in ([6, 0, 6, 3, 0], np.array([3, 6, 6, 0, 3]), (6, 3, 0)):
        assert np.array_equal(breadth_first_distances(g.adjacency, sources), want)
    assert want.tolist() == [0, 1, 1, 0, 1, 1, 0, 1, 2, 3, 2, 1]
    assert np.array_equal(breadth_first_distances(g.adjacency, [5, 5], cap=1),
                          breadth_first_distances(g.adjacency, [5], cap=1))
    for empty in ([], np.array([], dtype=np.int64)):
        assert (breadth_first_distances(g.adjacency, empty) == -1).all()


def least_per_item(keys, shift):
    """For keys packed as item << shift | value: each item once, with its
    least value, in item order, from a dict."""
    least = {}
    for key in keys.tolist():
        item, value = key >> shift, key & ((1 << shift) - 1)
        least[item] = min(least.get(item, value), value)
    return [item << shift | value for item, value in sorted(least.items())]


@pytest.mark.parametrize("n", [0, 1, 2, 50, 2000])
@pytest.mark.parametrize("shift", [0, 1, 5, 20])
def test_sorted_distinct_keeps_the_least_value_per_item(n, shift):
    rng = np.random.default_rng(n * 31 + shift)
    items = rng.integers(0, max(1, n // 3), n)
    keys = items << shift | rng.integers(0, 1 << shift, n)
    keep = keys.copy()
    got = sorted_distinct(keys, shift)
    assert got.dtype == np.int64
    assert got.tolist() == least_per_item(keys, shift)
    assert np.array_equal(keys, keep)       # the input is left as it was
    if shift == 0:
        assert np.array_equal(got, np.unique(keys))
        objects = (keys.astype(object) << 70) - 3
        assert sorted_distinct(objects).tolist() == np.unique(objects).tolist()


def test_src_calls_np_unique_only_for_indices():
    # np.unique without index outputs imports numpy.ma on first use (about
    # 13 ms and 1.2 MB per process on numpy 2.4); sorted_distinct gives the
    # same values without it
    src = Path(__file__).resolve().parent.parent / "src" / "boxdim"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr == "unique"
                    and isinstance(f.value, ast.Name) and f.value.id == "np"
                    and not {k.arg for k in node.keywords} & {"return_index", "return_inverse"}):
                offenders.append((path.name, node.lineno))
    assert offenders == []
