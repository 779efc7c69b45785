"""The verifier's ball certificate and batched class diameters, against
pairwise maxima from one BFS per vertex.

A part that is exactly the ball its set's center and radius name is
certified without its pairs; every other part, hinted or not, must come
out as if it had no hint.
"""
import random

import numpy as np
import pytest

from boxdim import cayley as cayley_module
from boxdim import covers as covers_module
from boxdim.boxspace import CoarseUnion
from boxdim.cayley import build_quotient_cayley, product_ids
from boxdim.covers import Cover, verify_cover
from boxdim.groups import CongruenceQuotient, direct_product, free_abelian, unitriangular

GROUPS = {
    "Z/17": (free_abelian(1), 17),
    "Z2/7": (free_abelian(2), 7),
    "UT3/4": (unitriangular(3), 4),
    "ZxUT3/3": (direct_product(free_abelian(1), unitriangular(3)), 3),
}


def component(name):
    spec, m = GROUPS[name]
    return build_quotient_cayley(CongruenceQuotient(spec, m))


def bfs_diameter(comp):
    """The diameter of a list of ids, from every vertex's BFS distances."""
    D = np.stack([comp.distances_to([v]) for v in range(comp.n_vertices)])
    return lambda ids: int(D[np.ix_(ids, ids)].max())


def one_set_cover(space, ci, ids, center=None, radius=None):
    centers = {} if center is None else {0: center}
    radii = {} if radius is None else {0: radius}
    return Cover.from_arrays(space, 1, [0], ["s"], [0], [ci], [len(ids)],
                             np.asarray(ids, dtype=np.int64), centers, radii)


def hinted_parts(rng, comp):
    """(case, ids, center, radius, certified) rows on component 0; certified
    says whether the hint names exactly the part's distinct ids."""
    n, diam = comp.n_vertices, comp.diameter
    rows = []
    for r in [0, diam, diam + 3, 2 ** 70] + [rng.randint(1, max(1, diam - 1)) for _ in range(4)]:
        c = rng.randrange(n)
        ball = comp.ball_ids(c, min(r, diam))
        rows.append(("ball", ball, (0, c), r, True))
        rows.append(("shuffled ball with repeats",
                     rng.sample(ball.tolist(), ball.size) + ball[:3].tolist(), (0, c), r, True))
        rows.append(("ball without a hint", ball, None, None, False))
        other = (c + 1) % n
        if not np.array_equal(comp.ball_ids(other, min(r, diam)), ball):
            rows.append(("wrong center", ball, (0, other), r, False))
        if ball.size > 1:
            drop = rng.randrange(ball.size)
            rows.append(("ball minus a point", np.delete(ball, drop), (0, c), r, False))
        if ball.size < n:
            extra = rng.choice(np.setdiff1d(np.arange(n), ball).tolist())
            rows.append(("ball plus a point", np.append(ball, extra), (0, c), r, False))
        if r >= 1 and ball.size < n:
            rows.append(("lying radius", ball, (0, c), r + 1, False))
            rows.append(("lying smaller radius", ball, (0, c), r - 1, False))
        for case, center, radius in [("center of three", (0, c, 0), r),
                                     ("center on another component", (1, c), r),
                                     ("center past the vertices", (0, n), r),
                                     ("negative center", (0, -1), r),
                                     ("string center", ("0", c), r),
                                     ("scalar center", c, r),
                                     ("negative radius", (0, c), -1),
                                     ("fractional radius", (0, c), 0.5)]:
            rows.append((case, ball, center, radius, False))
    return rows


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("pair_cap", [covers_module.PAIR_CAP, 50])
def test_ball_certificate_matches_pairwise_diameters(monkeypatch, name, pair_cap):
    # a 50-comparison cap sends unhinted parts of 8 or more ids to the bound
    monkeypatch.setattr(covers_module, "PAIR_CAP", pair_cap)
    comp = component(name)
    space = CoarseUnion((comp, component("Z/17")))
    rng = random.Random(f"ball-{name}")
    diameter = bfs_diameter(comp)
    for case, ids, center, radius, certified in hinted_parts(rng, comp):
        ids = np.asarray(ids, dtype=np.int64)
        want = diameter(ids)
        cover = one_set_cover(space, 0, ids, center, radius)
        got, got_exact = covers_module._set_diameters(cover.layout, 1, cover.centers,
                                                      cover.radii)
        got = int(got[0])
        whole = np.unique(ids).size == comp.n_vertices
        exact = certified or whole or ids.size ** 2 <= pair_cap
        assert got_exact == exact, (case, center, radius)
        if exact:
            assert got == want, (case, center, radius)
        else:
            assert got >= want, (case, center, radius)
        # the hint never changes what an unhinted verification reports
        bare = one_set_cover(space, 0, ids)
        if not certified:
            assert verify_cover(cover, 1) == verify_cover(bare, 1), case


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("row_block", [covers_module.ROW_BLOCK, 40])
def test_batched_class_diameters_match_pairwise(monkeypatch, name, row_block):
    # a 40-pair block measures parts of 7 or more ids in slices of sources
    monkeypatch.setattr(covers_module, "ROW_BLOCK", row_block)
    comp = component(name)
    rng = random.Random(f"class-{name}")
    lengths = sorted({min(L, comp.n_vertices - 1) for L in (2, 3, 6, 7, 12, 45, 60)})
    parts = []
    for L in lengths:
        for _ in range(4):
            ids = rng.sample(range(comp.n_vertices), L)
            parts.append(ids)
            # a left translate is the same class, a right one usually not
            h = comp.coords[rng.randrange(comp.n_vertices)]
            for left in (True, False):
                a, b = (h, comp.coords[ids]) if left else (comp.coords[ids], h)
                moved = product_ids(comp.spec, a, b, comp.modulus)
                parts.append(np.asarray(moved, dtype=np.int64).tolist())
    space = CoarseUnion((comp,))
    cover = Cover.from_arrays(space, 1, np.zeros(len(parts)), [f"s{k}" for k in range(len(parts))],
                              np.arange(len(parts)), np.zeros(len(parts)),
                              [len(p) for p in parts], np.concatenate(parts))
    want = list(map(bfs_diameter(comp), parts))
    sizes = []

    def counted(*args):
        out = product_ids(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(cayley_module, "product_ids", counted)
    got, exact = covers_module._set_diameters(cover.layout, cover.n_sets())
    assert got.tolist() == want
    assert exact
    # a block holds at most ROW_BLOCK ids or pairs, or one part's worth
    assert max(sizes) <= max(row_block, max(lengths))
