"""Property tests: the vectorised arithmetic equals the scalar tuple
arithmetic of boxdim.groups on random elements, the sphere sizes of
ball_levels equal a scalar BFS for random generating sets, the exact (R, S)
solver equals the exhaustive one on random metric spaces and finds the
frozen search's first coloring, the verifier's multiplicity and close
pairs equal brute force on random covers, and the dilation by translation
class equals the direct kernel on random parts."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from boxdim import covers as covers_module  # noqa: E402
from boxdim.boxspace import FiniteMetricSpace, build_box_space  # noqa: E402
from boxdim.cayley import (  # noqa: E402
    ball_levels,
    build_quotient_cayley,
    coords_invert,
    coords_multiply,
    product_ids,
)
from boxdim.covers import Cover, CoverSet, r_multiplicity, verify_cover  # noqa: E402
from boxdim.dimension import rs_dim  # noqa: E402
from boxdim.groups import (  # noqa: E402
    CongruenceQuotient,
    Filtration,
    direct_product,
    flatten,
    free_abelian,
    identity,
    invert,
    multiply,
    num_coordinates,
    unflatten,
    unitriangular,
)
from scalar_oracle import reduce_mod  # noqa: E402
from test_covers import brute_multiplicity  # noqa: E402
from test_exact_solver import old_rs_dim_exact  # noqa: E402

SPECS = [
    free_abelian(1),
    free_abelian(3),
    unitriangular(3),
    unitriangular(4),
    direct_product(free_abelian(1), unitriangular(3)),
    direct_product(unitriangular(3), free_abelian(2), unitriangular(4)),
]

# moduli below and far beyond the int64 bound of _overflow_bound
MODULI = st.one_of(st.integers(2, 50), st.integers(2 ** 20, 2 ** 40),
                   st.just(2 ** 62 + 3))


@st.composite
def operands(draw):
    spec = draw(st.sampled_from(SPECS))
    m = draw(MODULI)
    k = num_coordinates(spec)
    n = draw(st.integers(1, 4))
    rows = st.lists(st.lists(st.integers(0, m - 1), min_size=k, max_size=k),
                    min_size=n, max_size=n)
    return spec, m, draw(rows), draw(rows)


def scalar(spec, m, elt):
    return flatten(spec, reduce_mod(CongruenceQuotient(spec, m), elt))


@settings(max_examples=200, deadline=None)
@given(operands())
def test_vectorised_arithmetic_equals_scalar(case):
    spec, m, a, b = case
    a_elts = [unflatten(spec, row) for row in a]
    b_elts = [unflatten(spec, row) for row in b]
    a_arr = np.array(a, dtype=np.int64)
    b_arr = np.array(b, dtype=np.int64)
    prod = coords_multiply(spec, a_arr, b_arr, m)
    inv = coords_invert(spec, a_arr, m)
    for i in range(len(a)):
        want = scalar(spec, m, multiply(spec, a_elts[i], b_elts[i]))
        assert tuple(int(c) for c in prod[i]) == want
        assert tuple(int(c) for c in inv[i]) == scalar(spec, m, invert(spec, a_elts[i]))


@st.composite
def generated_groups(draw):
    """Z^1..Z^3 or UT(3) with one to three generators of small entries
    (the identity and repeats allowed), and a radius keeping balls small."""
    make = draw(st.sampled_from([lambda g: free_abelian(1, g), lambda g: free_abelian(2, g),
                                 lambda g: free_abelian(3, g), lambda g: unitriangular(3, g)]))
    k = num_coordinates(make(None))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=3))
    return make(gens), draw(st.integers(0, 4 if len(gens) < 3 else 3))


@settings(max_examples=60, deadline=None)
@given(generated_groups())
def test_ball_levels_sphere_sizes_equal_scalar_bfs(case):
    spec, r = case
    steps = list(spec.generators) + [invert(spec, g) for g in spec.generators]
    seen, sphere, sizes = {identity(spec)}, [identity(spec)], []
    for _ in range(r + 1):
        sizes.append(len(sphere))
        nxt = {multiply(spec, v, g) for v in sphere for g in steps} - seen
        seen |= nxt
        sphere = list(nxt)
    got = [rows.shape[0] for _, rows in zip(range(r + 1), ball_levels(spec))]
    # a finite group runs out of spheres after its first empty one
    assert got == sizes[:len(got)] and not any(sizes[len(got):])


@st.composite
def metric_spaces(draw):
    """Integer metrics on 1..9 points: symmetric draws in 1..6 closed under
    shortest paths."""
    n = draw(st.integers(1, 9))
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n, 1)] = draw(st.lists(st.integers(1, 6), min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    m += m.T
    for k in range(n):
        m = np.minimum(m, m[:, k:k + 1] + m[k:k + 1, :])
    return FiniteMetricSpace(m)


@settings(max_examples=100, deadline=None)
@given(metric_spaces(), st.integers(1, 4), st.integers(0, 6))
def test_exact_solver_equals_exhaustive(space, R, S):
    # 9 points have Bell(9) = 21,147 colorings, so the oracle stays fast
    assert rs_dim(space, R, S, "exact").n == rs_dim(space, R, S, "exhaustive").n


@settings(max_examples=150, deadline=None)
@given(metric_spaces(), st.integers(1, 4), st.integers(0, 6), st.integers(0, 8))
def test_exact_solver_finds_the_old_first_coloring(space, R, S, n_cap):
    # the forward check may only cut subtrees without a solution, so the
    # first coloring found, not just n, is the frozen search's
    res = rs_dim(space, R, S, "exact", n_cap=n_cap)
    assert (res.n, res.coloring, res.exceeded_cap) == old_rs_dim_exact(space, R, S, n_cap)


BOXES = [build_box_space(Filtration(spec, moduli)) for spec, moduli in (
    (free_abelian(1), (2, 4, 8)),
    (free_abelian(2), (2, 4)),
    (unitriangular(3), (2,)),
    (direct_product(free_abelian(1), unitriangular(3)), (2,)),
)]


@st.composite
def covers(draw):
    """Overlapping sets of one to three families on a small box: one or two
    components each, ids drawn with repeats."""
    box = draw(st.sampled_from(BOXES))
    n_families = draw(st.integers(1, 3))
    families = [[] for _ in range(n_families)]
    for k in range(draw(st.integers(1, 6))):
        comps = draw(st.lists(st.integers(0, box.component_count - 1),
                              min_size=1, max_size=2, unique=True))
        parts = tuple((ci, tuple(draw(st.lists(
            st.integers(0, box.components[ci].n_vertices - 1), min_size=1, max_size=10))))
            for ci in sorted(comps))
        families[draw(st.integers(0, n_families - 1))].append(CoverSet(f"s{k}", parts))
    return Cover(box, tuple(map(tuple, families)))


def brute_close_pairs(cover, R):
    """(family, label_a, label_b, distance) for every pair of sets of one
    family closer than R, from every pair of their points."""
    space, out = cover.space, []
    for j, fam in enumerate(cover.families):
        for x, a in enumerate(fam):
            for b in fam[x + 1:]:
                d = min(space.distance(p, q) for p in a.points() for q in b.points())
                if d < R:
                    out.append((j, *sorted((a.label, b.label)), d))
    return sorted(out)


@settings(max_examples=40, deadline=None)
@given(covers())
def test_multiplicity_and_close_pairs_equal_brute_force(cover):
    # R up to 8 passes the sum of two component diameters on the boxes
    # with several components
    for R in range(9):
        close = brute_close_pairs(cover, R)
        report = verify_cover(cover, R)
        assert r_multiplicity(cover, R) == report.r_multiplicity == brute_multiplicity(cover, R)
        assert list(report.close_pair_witnesses) == close
        assert report.family_min_distances == tuple(
            min((d for f, _, _, d in close if f == j), default=None)
            for j in range(cover.n_families))


CLASS_GROUPS = [build_quotient_cayley(CongruenceQuotient(spec, m)) for spec, m in (
    (free_abelian(2), 5),
    (unitriangular(3), 3),
    (direct_product(free_abelian(1), unitriangular(3)), 2),
)]


@st.composite
def translated_parts(draw):
    """Parts on one Cayley component: left translates of a few shapes (ids
    in the shape's order, repeats kept) and some random parts; parts may
    overlap or repeat."""
    comp = draw(st.sampled_from(CLASS_GROUPS))
    ids = st.integers(0, comp.n_vertices - 1)
    shapes = draw(st.lists(st.lists(ids, min_size=1, max_size=6), min_size=1, max_size=3))
    parts = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            shape = draw(st.sampled_from(shapes))
            h = comp.coords[draw(ids)]
            parts.append(product_ids(comp.spec, h, comp.coords[shape], comp.modulus).tolist())
        else:
            parts.append(draw(st.lists(ids, min_size=1, max_size=6)))
    r = draw(st.integers(0, comp.diameter + 1))
    return comp, parts, r, draw(st.sampled_from([covers_module.ROW_BLOCK, 12, 40]))


def dilation_rows(blocks):
    rows = [tuple(x) for k, v, d in blocks for x in zip(k.tolist(), v.tolist(), d.tolist())]
    assert len(rows) == len(set(rows))
    return sorted(rows)


@settings(max_examples=150, deadline=None)
@given(translated_parts())
def test_class_dilation_equals_the_direct_kernel(case):
    # one (part, vertex, least distance) row each, from r = 0 past the
    # diameter; 12- and 40-row blocks key parts of 3 and 10 ids or more
    # in all and split the class keys and the translates
    comp, parts, r, row_block = case
    saved = covers_module.ROW_BLOCK
    covers_module.ROW_BLOCK = row_block
    try:
        parts = covers_module._parts(comp, np.concatenate(parts), [len(p) for p in parts])
        got = dilation_rows(covers_module._class_dilation(parts, r))
        want = dilation_rows(covers_module._dilation(parts, r))
    finally:
        covers_module.ROW_BLOCK = saved
    assert got == want
