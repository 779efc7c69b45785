"""The bitmask branch-and-bound against the search it replaced.

old_rs_dim_exact below is the list-and-dict search that rs_dim_exact ran
before its state became bitmasks with a forward check.  Both walk the
same points in the same order and try the same colors in the same order,
so the first coloring found, and with it every CSV row, witness and
digest, must be the same: the tests compare (n, coloring, exceeded_cap),
not only n.
"""
import random

import numpy as np
import pytest

from boxdim.boxspace import FiniteMetricSpace
from boxdim.cayley import build_quotient_cayley
from boxdim.dimension import random_metric_space, rs_dim
from boxdim.groups import CongruenceQuotient, free_abelian, unitriangular


def old_rs_dim_exact(space, R, S, n_cap=8):
    """(n, coloring, exceeded_cap) of the frozen list-and-dict search."""
    n_pts = space.n_vertices
    D = FiniteMetricSpace.from_graph(space).dist_matrix.tolist()
    order = sorted(range(n_pts), key=lambda v: (D[0][v], v))

    def fits(row, merged) -> bool:
        for i, members in enumerate(merged):
            if max(row[q] for q in members) > S:
                return False
            for other in merged[:i]:
                if max(D[a][b] for a in members for b in other) > S:
                    return False
        return True

    def solve(kmax: int):
        color = [0] * n_pts
        by_color = [[] for _ in range(kmax)]    # colored points, per color
        clusters = {}           # cid -> members tuple
        point_cid = {}
        counter = [0]

        def assign(idx: int, used: int) -> bool:
            if idx == n_pts:
                return True
            p = order[idx]
            row = D[p]
            for c in range(min(used + 1, kmax)):
                near = {point_cid[q] for q in by_color[c] if row[q] < R}
                merged = [clusters[cid] for cid in near]
                if merged and not fits(row, merged):
                    continue
                members = [p]
                for cluster in merged:
                    members.extend(cluster)
                cid_new = counter[0]
                counter[0] += 1
                stash = [(cid, clusters.pop(cid)) for cid in near]
                moved = [(q, point_cid[q]) for q in members if q != p]
                clusters[cid_new] = tuple(members)
                for q in members:
                    point_cid[q] = cid_new
                color[p] = c
                by_color[c].append(p)
                if assign(idx + 1, max(used, c + 1)):
                    return True
                by_color[c].pop()
                del point_cid[p]
                del clusters[cid_new]
                for cid, data in stash:
                    clusters[cid] = data
                for q, cid in moved:
                    point_cid[q] = cid
            return False

        return color if assign(0, 0) else None

    for k in range(1, min(n_pts, n_cap + 1) + 1):
        coloring = solve(k)
        if coloring is not None:
            return k - 1, tuple(coloring), False
    return None, None, True


def assert_same_search(space, R, S, n_cap=8):
    res = rs_dim(space, R, S, "exact", n_cap=n_cap)
    assert (res.n, res.coloring, res.exceeded_cap) == old_rs_dim_exact(space, R, S, n_cap), \
        (R, S, n_cap, FiniteMetricSpace.from_graph(space).dist_matrix.tolist())


def cycle(m):
    return build_quotient_cayley(CongruenceQuotient(free_abelian(1), m))


def path(n):
    idx = np.arange(n)
    return FiniteMetricSpace.from_matrix(np.abs(idx[:, None] - idx[None, :]))


def test_random_spaces_give_the_old_coloring():
    rng = random.Random(20170612)
    for _ in range(300):
        space = random_metric_space(rng, rng.randint(2, 12), rng.randint(1, 7))
        assert_same_search(space, rng.randint(1, 5), rng.randint(0, 7))


@pytest.mark.parametrize("n", range(2, 14))
def test_cycles_and_paths_give_the_old_coloring(n):
    for space in (cycle(n), path(n)):
        for R in (1, 2, 3, 4):
            for S in (0, 1, 2, 3, 5):
                assert_same_search(space, R, S)


@pytest.mark.parametrize("m", [2, 3])
def test_heisenberg_quotients_give_the_old_coloring(m):
    g = build_quotient_cayley(CongruenceQuotient(unitriangular(3), m))
    for R in (1, 2, 3):
        for S in (0, 2, 4):
            assert_same_search(g, R, S)
            assert_same_search(FiniteMetricSpace.from_graph(g), R, S)


def test_cap_and_clique_give_the_old_result():
    assert_same_search(cycle(12), 2, 3, n_cap=0)
    assert rs_dim(cycle(12), 2, 3, "exact", n_cap=0).exceeded_cap
    clique = FiniteMetricSpace.from_matrix(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    for n_cap in (3, 4, 8):
        assert_same_search(clique, 2, 0, n_cap=n_cap)
    assert rs_dim(clique, 2, 0, "exact").coloring == (0, 1, 2, 3, 4)
