"""The frontier BFS of the infinite group against a scalar tuple oracle.

The oracles below are the tuple-arithmetic loops that ball enumeration,
isometry radii and ball-isometry checks used before they were rebuilt on
cayley.ball_levels, and the word metric of a ball read from scalar
products; every result must agree exactly, including cap errors.  isometry_radius now tests injectivity on B(e, k)
sphere by sphere, so the old kernel walk over B(e, 2k) is an independent
check of its exact radii, and a scalar injectivity walk checks its budget
cuts.
"""
import random
import tracemalloc
from itertools import count, islice

import numpy as np
import pytest

from boxdim import boxspace as boxspace_module
from boxdim import cayley as cayley_module
from boxdim.boxspace import (
    ball_space,
    coarse_union_of_balls,
    isometry_radius,
    verify_ball_isometry,
)
from boxdim.cayley import (
    ball_levels,
    build_quotient_cayley,
    enumerate_ball,
    growth_profile,
)
from boxdim.errors import ConfigError, ResourceCapError
from boxdim.groups import (
    CongruenceQuotient,
    direct_product,
    flatten,
    free_abelian,
    identity,
    invert,
    multiply,
    unitriangular,
)
from scalar_oracle import is_kernel_element, reduce_mod


def old_enumerate_ball(spec, r_max, state_cap=10 ** 7):
    gens = list(spec.generators) + [invert(spec, g) for g in spec.generators]
    dist = {identity(spec): 0}
    frontier = [identity(spec)]
    for level in range(1, r_max + 1):
        nxt = []
        for v in frontier:
            for g in gens:
                w = multiply(spec, v, g)
                if w not in dist:
                    dist[w] = level
                    nxt.append(w)
                    if len(dist) > state_cap:
                        raise ResourceCapError(
                            f"ball enumeration exceeded {state_cap} elements "
                            f"at radius {level}")
        frontier = nxt
    return dist


def old_isometry_radius(quotient, budget=10 ** 7):
    spec = quotient.spec
    gens = list(spec.generators) + [invert(spec, g) for g in spec.generators]
    e = identity(spec)
    seen = {e}
    frontier = [e]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for g in gens:
                w = multiply(spec, v, g)
                if w in seen:
                    continue
                if is_kernel_element(quotient, w):
                    return ((level - 1) // 2, True)
                seen.add(w)
                nxt.append(w)
        if len(seen) > budget:
            return (level // 2, False)
        frontier = nxt
    raise ConfigError("group exhausted")


def injective_radius(quotient, budget=10 ** 7):
    """The first k whose ball B(e, k) holds two elements with one reduced
    image gives (k - 1, exact); else |B(e, k)| > budget at k >= 1 gives
    (k, cut).  A ball that stops growing has exhausted the group."""
    size = 0
    for k in count():
        ball = old_enumerate_ball(quotient.spec, k)
        if len({reduce_mod(quotient, v) for v in ball}) < len(ball):
            return (k - 1, True)
        if k and len(ball) > budget:
            return (k, False)
        if len(ball) == size:
            raise ConfigError("group exhausted")
        size = len(ball)


def old_verify_ball_isometry(quotient, k, state_cap=10 ** 7):
    ball = old_enumerate_ball(quotient.spec, k, state_cap)
    return len({reduce_mod(quotient, v) for v in ball}) == len(ball)


def scalar_word_metric(spec, r):
    """B(e, r) sorted by (word length, coordinates) and its word metric
    |u^-1 v|, each length read from the scalar B(e, 2r)."""
    lengths = old_enumerate_ball(spec, 2 * r)
    ball = sorted((v for v in lengths if lengths[v] <= r),
                  key=lambda v: (lengths[v], flatten(spec, v)))
    return [[lengths[multiply(spec, invert(spec, u), v)] for v in ball] for u in ball], ball


BIG = 2 ** 61
HUGE = 2 ** 31

# name -> (spec, r_max for ball comparisons)
SPECS = {
    "Z1": (free_abelian(1), 12),
    "Z2": (free_abelian(2), 9),
    "Z3": (free_abelian(3), 6),
    "UT3": (unitriangular(3), 9),
    "UT4": (unitriangular(4), 5),
    "ZxUT3": (direct_product(free_abelian(1), unitriangular(3)), 6),
    "Z_gen_2_3": (free_abelian(1, [(2,), (3,)]), 10),
    "Z2_skew": (free_abelian(2, [(1, 2), (3, -1)]), 6),
    # products fit int64, keys do not: object keys
    "UT3_gen_2^20": (unitriangular(3, [(2 ** 20, 0, 0), (0, 2 ** 20, 0)]), 5),
    # neither products nor keys fit int64: object arithmetic
    "Z_gen_2^61": (free_abelian(1, [(BIG,)]), 6),
    "UT3_gen_2^31": (unitriangular(3, [(HUGE, 0, 0), (0, HUGE, 0)]), 5),
    "Z2_gen_2^61_and_1": (free_abelian(2, [(BIG, 0), (1, 1)]), 4),
}


@pytest.mark.parametrize("name", SPECS)
def test_ball_and_growth_match_scalar_bfs(name):
    spec, r = SPECS[name]
    old = old_enumerate_ball(spec, r)
    assert enumerate_ball(spec, r) == old
    sizes = [sum(1 for L in old.values() if L <= s) for s in range(r + 1)]
    assert growth_profile(spec, r).sizes == tuple(sizes)


@pytest.mark.parametrize("name", SPECS)
def test_levels_are_sorted_spheres(name):
    spec, r = SPECS[name]
    old = old_enumerate_ball(spec, r)
    for L, rows in zip(range(r + 1), ball_levels(spec)):
        flat = [tuple(row) for row in rows.tolist()]
        assert flat == sorted(flatten(spec, v) for v, d in old.items() if d == L)


@pytest.mark.parametrize("name", ["Z2", "UT3", "ZxUT3", "UT3_gen_2^20"])
def test_spheres_of_several_slices_build_each_slice_once(monkeypatch, name):
    spec, r = SPECS[name]
    steps = cayley_module._steps(spec, spec.generators)
    monkeypatch.setattr(cayley_module, "SLICE", 2 * steps.size)   # two rows a slice
    calls, product_keys = [], cayley_module._product_keys

    def counted(spec, a, b, span):
        calls.append(a.shape[0])
        return product_keys(spec, a, b, span)

    monkeypatch.setattr(cayley_module, "_product_keys", counted)
    old = old_enumerate_ball(spec, r)
    spheres = [rows for _, rows in zip(range(r + 1), ball_levels(spec))]
    for L, rows in enumerate(spheres):
        flat = [tuple(row) for row in rows.tolist()]
        assert flat == sorted(flatten(spec, v) for v, d in old.items() if d == L)
    # spheres 0..r-1 were expanded, one _product_keys call per slice of two rows
    assert calls == [min(2, rows.shape[0] - lo) for rows in spheres[:-1]
                     for lo in range(0, rows.shape[0], 2)]


def test_object_path_is_taken_for_huge_generators():
    spec, _ = SPECS["Z_gen_2^61"]
    levels = list(zip(range(4), ball_levels(spec)))
    assert levels[3][1].dtype == object
    assert levels[3][1].tolist() == [[-3 * BIG], [3 * BIG]]
    # products in int64, keys (2^41 + 1)^3 past int64
    spec, _ = SPECS["UT3_gen_2^20"]
    assert cayley_module._work_dtype(spec, 2 ** 21) is np.int64
    assert [rows.dtype for _, rows in zip(range(3), ball_levels(spec))][1:] == [object] * 2
    spec, _ = SPECS["UT3"]
    assert all(rows.dtype == np.int64 for _, rows in zip(range(8), ball_levels(spec)))


def test_finite_group_stops_after_the_empty_sphere():
    spec = free_abelian(1, [(0,)])
    assert [rows.shape[0] for rows in ball_levels(spec)] == [1, 0]
    assert growth_profile(spec, 4).sizes == (1, 1, 1, 1, 1)
    assert enumerate_ball(spec, 4) == old_enumerate_ball(spec, 4)
    # an empty sphere adds nothing, so it cannot pass the cap
    assert enumerate_ball(spec, 4, state_cap=0) == old_enumerate_ball(spec, 4, 0)


@pytest.mark.parametrize("name,r,caps", [
    ("Z3", 20, (0, 1, 6, 7, 24, 25, 100, 1000)),
    ("UT3", 12, (0, 4, 5, 16, 17, 50, 2000)),
    ("ZxUT3", 8, (10, 300)),
    ("Z_gen_2^61", 30, (3, 4, 9)),
])
def test_state_cap_raises_at_the_same_radius(name, r, caps):
    spec, _ = SPECS[name]
    for cap in caps:
        with pytest.raises(ResourceCapError) as old:
            old_enumerate_ball(spec, r, state_cap=cap)
        with pytest.raises(ResourceCapError) as new:
            enumerate_ball(spec, r, state_cap=cap)
        assert str(new.value) == str(old.value)
        with pytest.raises(ResourceCapError) as prof:
            growth_profile(spec, r, state_cap=cap)
        assert str(prof.value) == str(old.value)


@pytest.mark.parametrize("name", ["Z3", "UT3", "Z_gen_2^61"])
def test_radii_past_the_state_cap_raise_the_same_error(name):
    # the ball of radius max(state_cap, 1) already passes the cap, so any
    # larger radius, even past sys.maxsize, fails at the same sphere with
    # the same message
    spec, _ = SPECS[name]
    q = CongruenceQuotient(spec, 7)
    for cap in (-1, 0, 1, 5, 40):
        calls = (lambda r: enumerate_ball(spec, r, state_cap=cap),
                 lambda r: growth_profile(spec, r, state_cap=cap),
                 lambda r: verify_ball_isometry(q, r, state_cap=cap),
                 lambda r: ball_space(spec, r, cap))
        for call in calls:
            with pytest.raises(ResourceCapError) as want:
                call(max(cap, 1))
            for r in (max(cap, 1) + 1, 10 ** 20):
                with pytest.raises(ResourceCapError) as got:
                    call(r)
                assert str(got.value) == str(want.value), (cap, r)
    finite = free_abelian(1, [(0,)])
    assert enumerate_ball(finite, 10 ** 20, state_cap=0) == {(0,): 0}


def test_state_cap_not_reached():
    spec = free_abelian(2)
    assert enumerate_ball(spec, 3, state_cap=25) == old_enumerate_ball(spec, 3, 25)
    assert enumerate_ball(spec, 0, state_cap=0) == {(0, 0): 0}


ISO_CASES = [
    ("Z1", range(2, 20)),
    ("Z2", range(2, 12)),
    ("UT3", range(2, 17)),
    ("UT4", range(2, 6)),
    ("ZxUT3", range(2, 8)),
    ("Z_gen_2_3", range(2, 14)),
    ("Z2_skew", range(2, 9)),
    ("Z_gen_2^61", (2, 3, 5, 7)),
    ("UT3_gen_2^31", (2, 3, 5)),
]


def check_against_oracles(q, budget):
    """Exact where the kernel walk is exact, the injectivity walk's answer
    everywhere, and never a smaller radius than the kernel walk's."""
    r = isometry_radius(q, budget=budget)
    got, old = (r.radius, r.exact), old_isometry_radius(q, budget)
    if old[1]:
        assert got == old, (q.modulus, budget)
    assert got[0] >= old[0], (q.modulus, budget)
    assert got == injective_radius(q, budget), (q.modulus, budget)
    return got


@pytest.mark.parametrize("name,moduli", ISO_CASES)
def test_isometry_radius_matches_scalar_bfs(name, moduli):
    spec, _ = SPECS[name]
    for m in moduli:
        q = CongruenceQuotient(spec, m)
        for budget in (0, 1, 2, 5, 20, 100, 10 ** 7):
            check_against_oracles(q, budget)


@pytest.mark.parametrize("name,moduli", ISO_CASES)
def test_isometry_radius_matches_quotient_ball_sizes(name, moduli):
    # the quotient map sends B_G(e, k) onto B_Q(e, k), so it is injective
    # on B_G(e, k) exactly when the two balls have the same size
    spec, _ = SPECS[name]
    for m in moduli:
        q = CongruenceQuotient(spec, m)
        try:
            graph = build_quotient_cayley(q, vertex_cap=10 ** 5)
        except ResourceCapError:
            continue
        except ConfigError as e:
            # generators whose images do not generate, say 2^61 mod 2
            assert "does not generate the quotient" in str(e)
            continue
        r = isometry_radius(q)
        assert r.exact
        sizes = growth_profile(spec, r.radius + 1).sizes
        same = [sizes[k] == graph.ball_size(k) for k in range(r.radius + 2)]
        assert same == [True] * (r.radius + 1) + [False], m


def test_isometry_radius_budget_cuts_are_inexact():
    q = CongruenceQuotient(unitriangular(3), 32)
    assert check_against_oracles(q, 1000) == (7, False)


def test_isometry_radius_on_a_finite_group():
    q = CongruenceQuotient(free_abelian(1, [(0,)]), 5)
    for radius in (isometry_radius, old_isometry_radius, injective_radius):
        with pytest.raises(ConfigError):
            radius(q)
    assert check_against_oracles(q, 0) == (1, False)


@pytest.mark.parametrize("name,moduli", [
    ("Z2", (3, 6, 10)),
    ("UT3", (2, 4, 5, 9)),
    ("UT4", (3,)),
    ("ZxUT3", (4,)),
    ("Z_gen_2_3", (7, 12)),
    ("Z_gen_2^61", (3, 5)),
    ("UT3_gen_2^20", (3,)),
])
def test_verify_ball_isometry_matches_scalar_bfs(name, moduli):
    spec, r = SPECS[name]
    for m in moduli:
        q = CongruenceQuotient(spec, m)
        for k in range(r + 1):
            assert verify_ball_isometry(q, k) == old_verify_ball_isometry(q, k), (m, k)
    q = CongruenceQuotient(spec, moduli[0])
    with pytest.raises(ResourceCapError) as old:
        old_verify_ball_isometry(q, r, state_cap=3)
    with pytest.raises(ResourceCapError) as new:
        verify_ball_isometry(q, r, state_cap=3)
    assert str(new.value) == str(old.value)


def test_verify_ball_isometry_with_keys_beyond_int64():
    # m^k >= 2^62: the reduced keys are exact object integers
    q = CongruenceQuotient(unitriangular(3), 2 ** 21 + 1)
    for k in (0, 3, 6):
        assert verify_ball_isometry(q, k) == old_verify_ball_isometry(q, k)


@pytest.mark.parametrize("name,radii", [
    ("Z1", (0, 1, 4)),
    ("Z2", (0, 1, 2, 3)),
    ("UT3", (0, 1, 2, 3, 4)),
    ("UT4", (0, 1, 2)),
    ("ZxUT3", (0, 1, 2)),
    ("Z_gen_2_3", (3,)),
    ("Z2_skew", (2,)),
    ("UT3_gen_2^20", (2,)),
    ("Z_gen_2^61", (3,)),
    ("UT3_gen_2^31", (2,)),
])
def test_induced_ball_matches_scalar_tables(name, radii):
    # B(e, r) with the metric induced from G: its word metric, not the path
    # metric of the subgraph it spans (on UT(3) the two differ from r = 3)
    spec, _ = SPECS[name]
    for r in radii:
        ball = ball_space(spec, r, 10 ** 6)
        want, elements = scalar_word_metric(spec, r)
        assert ball.elements == tuple(elements)
        assert ball.dist_matrix.tolist() == want


@pytest.mark.parametrize("name", SPECS)
def test_word_distances_match_scalar_products(name):
    # int64 products and keys, object keys, and object arithmetic
    spec, r_max = SPECS[name]
    r = min(3, r_max // 2)
    want, _ = scalar_word_metric(spec, r)
    levels = list(islice(ball_levels(spec), 2 * r + 1))
    assert cayley_module.word_distances(spec, levels, r).tolist() == want


def test_word_distances_in_row_blocks(monkeypatch):
    # blocks of SLICE // n rows: seven here
    spec = unitriangular(3)
    levels = list(islice(ball_levels(spec), 5))
    want, ball = scalar_word_metric(spec, 2)
    assert len(ball) > 7
    monkeypatch.setattr(cayley_module, "SLICE", 7 * len(ball))
    assert cayley_module.word_distances(spec, levels, 2).tolist() == want


def test_word_distances_of_a_larger_ball_match_the_scalar_pairs(monkeypatch):
    # B(e, 4) of UT(3), 135 points in ragged blocks of 50 rows, against the
    # scalar pairwise oracle: each d(u, v) is the scalar length of u^-1 v
    spec = unitriangular(3)
    levels = list(islice(ball_levels(spec), 9))
    want, ball = scalar_word_metric(spec, 4)
    assert len(ball) == 135
    monkeypatch.setattr(cayley_module, "SLICE", 50 * 135)
    assert cayley_module.word_distances(spec, levels, 4).tolist() == want


def stacked_products(spec, a, b):
    """The stacked _raw_multiply columns as (rows, k) coordinates, which
    _product_keys no longer builds: products in _work_dtype at the
    operands' largest |coordinate|."""
    c = max(cayley_module._abs_max(a), cayley_module._abs_max(b))
    dtype = cayley_module._work_dtype(spec, c + 1)
    cols = cayley_module._raw_multiply(spec, a.astype(dtype), b.astype(dtype))
    prod = np.stack(np.broadcast_arrays(*cols), axis=-1)
    return prod.reshape(-1, prod.shape[-1])


@pytest.mark.parametrize("name", SPECS)
def test_product_keys_match_keys_of_the_stacked_products(name):
    # Z, Z^2, UT(3), UT(4), Z x UT(3) in int64, and the huge-generator specs
    # on object keys or object arithmetic
    spec, r = SPECS[name]
    rows = np.concatenate(list(islice(ball_levels(spec), min(r, 4) + 1)))
    steps = cayley_module._steps(spec, spec.generators)
    k, top = rows.shape[1], cayley_module._abs_max(rows)
    rng = random.Random(name)
    rand = [np.array([[rng.randint(-top, top) for _ in range(k)] for _ in range(30)],
                     dtype=object) for _ in range(2)]
    inv = cayley_module._raw_invert(spec, rows, object)
    for a, b in [(rows[:, None], steps[None]),      # ball_levels' slices
                 (inv[:, None], rows[None]),        # word_distances' blocks
                 (rand[0], rand[1]),                # random rows, row by row
                 (rand[0][:, None], rand[1][None])]:
        prod = stacked_products(spec, a, b)
        span = cayley_module._abs_max(prod)
        for s in (span, span + 3):
            want = cayley_module.row_keys(prod, -s, 2 * s + 1)
            got = cayley_module._product_keys(spec, a, b, s)
            assert got.dtype == want.dtype
            assert got.ravel().tolist() == want.tolist()


def traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peaks_of_growth_and_ball_space():
    # products go straight into keys: a (rows, steps or points, k) block of
    # coordinates would be seen here.  The traced peaks are 2.86 MiB and
    # 44.1 MiB (31 MiB of it the 2,845 x 2,845 int32 matrix); stacking the
    # products took them to 3.63 and 89.8 MiB, and word_distances' blocks
    # of a fixed 256 rows, not SLICE // n, the second to 62.5 MiB.
    spec = unitriangular(3)
    assert traced_peak(lambda: growth_profile(spec, 22)) < 3.3 * 2 ** 20
    assert traced_peak(lambda: ball_space(spec, 9, 10 ** 6)) < 51 * 2 ** 20


def test_induced_ball_refuses_past_the_point_cap(monkeypatch):
    # B(e, 10) of UT(3) has 4,309 points, past GRAPH_POINT_CAP = 4096
    with pytest.raises(ResourceCapError, match=r"^4309 points exceeds the cap 4096$"):
        coarse_union_of_balls(unitriangular(3), [10])
    # the cap is inclusive: B(e, 2) of UT(3) has 17 points
    monkeypatch.setattr(boxspace_module, "GRAPH_POINT_CAP", 17)
    assert ball_space(unitriangular(3), 2, 10 ** 6).n_vertices == 17
    monkeypatch.setattr(boxspace_module, "GRAPH_POINT_CAP", 16)
    with pytest.raises(ResourceCapError, match=r"^17 points exceeds the cap 16$"):
        ball_space(unitriangular(3), 2, 10 ** 6)
