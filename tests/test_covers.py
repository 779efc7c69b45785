"""Cover engine tests.

The naive reference implementations live at the top and everything fast is
checked against them on spaces small enough to brute-force.
"""
import ast
import random
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from boxdim import covers as covers_module
from boxdim.boxspace import (
    CoarseUnion,
    FiniteMetricSpace,
    build_box_space,
    isometry_profile,
    verify_ball_isometry,
)
from boxdim.cayley import (
    PAIR_CAP,
    CayleyGraph,
    GrowthBound,
    build_quotient_cayley,
    coords_invert,
    coords_multiply,
    fit_growth,
    growth_profile,
)
from boxdim.covers import (
    Cover,
    CoverParams,
    CoverSet,
    assemble_box_families,
    cover_prop41,
    diagonal_transfer,
    doubling_radius,
    families_from_multiplicity_cover,
    family_violations,
    first_fit_colors,
    maximal_packing,
    packing_count_max,
    r_multiplicity,
    verify_cover,
)
from boxdim.dimension import box_witness_cover, rs_dim
from boxdim.errors import (
    ConfigError,
    GrowthBoundError,
    InsufficientInputError,
    ShapeMismatchError,
    VerificationError,
)
from boxdim.groups import (
    CongruenceQuotient,
    Filtration,
    direct_product,
    free_abelian,
    unitriangular,
)


# --- reference implementations ------------------------------------------------

def brute_multiplicity(cover, R):
    """Per-point count of sets meeting the R-ball, by raw distance loops."""
    space = cover.space
    sets = [set(s.points()) for _, s in cover.all_sets()]
    best = 0
    for p in space.points():
        c = sum(1 for pts in sets
                if any(space.distance(p, q) <= R for q in pts))
        best = max(best, c)
    return best


def brute_set_distance(space, a, b):
    return min(space.distance(p, q) for p in a.points() for q in b.points())


def brute_family_min(space, family):
    pairs = [(family[i], family[j])
             for i in range(len(family)) for j in range(i + 1, len(family))]
    if not pairs:
        return None
    return min(brute_set_distance(space, a, b) for a, b in pairs)


def brute_set_diameter(space, s):
    pts = list(s.points())
    if len(pts) < 2:
        return 0
    return max(space.distance(pts[i], pts[j])
               for i in range(len(pts)) for j in range(i + 1, len(pts)))


def z_box(*moduli):
    return build_box_space(Filtration(free_abelian(1), tuple(moduli)))


def cycle(m):
    return build_quotient_cayley(CongruenceQuotient(free_abelian(1), m))


def arc_set(label, ci, ids):
    return CoverSet(label=label, parts=((ci, tuple(ids)),))


# --- parameters ----------------------------------------------------------------

def test_params_line_growth():
    p = CoverParams.from_growth(2, GrowthBound(C=Fraction(3), d=1, validated_range=(1, 20)))
    assert p.K == 5
    assert p.m == 9
    assert p.S_0 == 4 ** 10 * 2
    # m is minimal for (K/4^d)^m >= C R^d
    ratio = Fraction(p.K, 4 ** p.d)
    assert ratio ** p.m >= p.C * p.R ** p.d
    assert ratio ** (p.m - 1) < p.C * p.R ** p.d


def test_params_minimality_sweep():
    for d in (1, 2, 4):
        for R in (1, 2, 8):
            for C in (Fraction(3), Fraction(5), Fraction(7, 2)):
                p = CoverParams.from_growth(R, GrowthBound(C=C, d=d, validated_range=(1, 10)))
                assert p.K == 4 ** d + 1
                ratio = Fraction(p.K, 4 ** d)
                assert ratio ** p.m >= C * R ** d
                assert p.m == 0 or ratio ** (p.m - 1) < C * R ** d
                assert p.S_0 == 4 ** (p.m + 1) * R
                assert p.S_0 >= 4 * R


def test_params_rejects_bad_input():
    g = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 4))
    with pytest.raises(ConfigError):
        CoverParams.from_growth(0, g)
    with pytest.raises(ConfigError):
        CoverParams.from_growth(2, GrowthBound(C=Fraction(-1), d=1, validated_range=(1, 4)))


def ladders_by_steps(C, d, radii):
    """m for each of the increasing radii as the old from_growth loop found
    it: multiply (K/4^d) in until the product reaches C R^d.  Both sides
    are cross-multiplied into integers, and one pass serves every R."""
    K = 4 ** d + 1
    num, den, m, out = 1, 1, 0, []
    for R in radii:
        target = C * R ** d
        while num * target.denominator < target.numerator * den:
            num, den, m = num * K, den << 2 * d, m + 1
        out.append(m)
    return out


def test_params_ladder_equals_the_stepwise_search():
    radii = range(1, 17)
    for d in range(6):
        for C in (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2), Fraction(100)):
            got = [CoverParams.from_growth(R, GrowthBound(C=C, d=d, validated_range=(1, 4))).m
                   for R in radii]
            assert got == ladders_by_steps(C, d, radii), (d, C)


def test_params_refuse_a_ladder_past_a_million_rungs():
    # d = 9 needs more than 10^6 rungs; d = 10^9 used to run out of memory
    # computing 4^d before the loop started
    for d in (9, 10 ** 9):
        with pytest.raises(ConfigError, match="did not converge"):
            CoverParams.from_growth(2, GrowthBound(C=Fraction(3), d=d, validated_range=(1, 4)))


# --- doubling radius -----------------------------------------------------------

def test_doubling_radius_line():
    g = cycle(100)
    p = CoverParams.from_growth(2, GrowthBound(C=Fraction(3), d=1, validated_range=(1, 50)))
    # first rung already doubles: |B(8)| = 17 <= 5 * |B(2)| = 25
    assert g.ball_size(8) == 17
    assert g.ball_size(2) == 5
    assert doubling_radius(g, p) == 2


def test_doubling_radius_torus():
    q = CongruenceQuotient(free_abelian(2), 32)
    g = build_quotient_cayley(q)
    p = CoverParams.from_growth(2, GrowthBound(C=Fraction(5), d=2, validated_range=(1, 20)))
    assert g.ball_size(8) == 145
    assert g.ball_size(2) == 13
    assert p.K == 17
    assert doubling_radius(g, p) == 2


def test_doubling_radius_saturates_at_diameter():
    g = cycle(12)
    p = CoverParams.from_growth(6, GrowthBound(C=Fraction(3), d=1, validated_range=(1, 12)))
    # R = diameter: both balls are the whole vertex set
    assert doubling_radius(g, p) == 6


def test_doubling_radius_rejects_false_growth_claim():
    g = cycle(12)
    p = CoverParams.from_growth(2, GrowthBound(C=Fraction(1), d=1, validated_range=(1, 12)))
    with pytest.raises(GrowthBoundError):
        doubling_radius(g, p)


def test_doubling_invariant_sweep():
    for m in (12, 16, 48, 64):
        g = cycle(m)
        for R in (1, 2, 8):
            p = CoverParams.from_growth(R, GrowthBound(C=Fraction(3), d=1, validated_range=(1, m)))
            rn = doubling_radius(g, p)
            assert rn in {4 ** i * R for i in range(p.m + 1)}
            assert g.ball_size(4 * rn) <= p.K * g.ball_size(rn)


# --- packings ------------------------------------------------------------------

def test_packing_cycle_unit_radius():
    g = cycle(12)
    assert maximal_packing(g, 1).tolist() == [0, 3, 6, 9]


def test_packing_cycle_saturated():
    g = cycle(12)
    assert maximal_packing(g, 6).tolist() == [0]


def test_packing_dense_generators():
    q = CongruenceQuotient(free_abelian(1, ((1,), (2,))), 5)
    g = build_quotient_cayley(q)
    # all distances are 1, so one ball blocks everything
    assert maximal_packing(g, 1).tolist() == [0]


def test_packing_invariants_random():
    rng = random.Random(2218)
    for _ in range(25):
        m = rng.randrange(8, 70)
        g = cycle(m)
        rn = rng.randrange(1, 6)
        centers = maximal_packing(g, rn)
        # pairwise ball disjointness <=> centers more than 2 rn apart
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                assert g.distance(int(centers[i]), int(centers[j])) > 2 * rn
        # maximality: everything is blocked
        blocked = np.zeros(m, dtype=bool)
        for c in centers:
            blocked[g.ball_ids(int(c), 2 * rn)] = True
        assert blocked.all()


def test_packing_count_matches_brute_force(monkeypatch):
    rng = random.Random(515)
    for _ in range(10):
        m = rng.randrange(10, 40)
        g = cycle(m)
        rn = rng.randrange(1, 4)
        centers = maximal_packing(g, rn)
        got = packing_count_max(g, centers, rn)
        want = max(sum(1 for c in centers if g.distance(z, int(c)) <= 3 * rn)
                   for z in range(m))
        assert got == want
    # non-abelian and planar graphs; a 40-row block splits the centers'
    # dilation and sends every center whose ball passes it to the BFS branch
    for spec, m in ((unitriangular(3), 8), (free_abelian(2), 16)):
        g = build_quotient_cayley(CongruenceQuotient(spec, m))
        for row_block in (covers_module.ROW_BLOCK, 40):
            monkeypatch.setattr(covers_module, "ROW_BLOCK", row_block)
            for rn in (1, 2, 3):
                centers = maximal_packing(g, rn)
                D = np.stack([g.distances_to([int(c)]) for c in centers])
                want = int((D <= 3 * rn).sum(axis=0).max())
                assert packing_count_max(g, centers, rn) == want, (spec, rn, row_block)


@pytest.mark.parametrize("center", [-1, 99])
def test_packing_count_refuses_centers_out_of_range(center):
    # -1 once counted the ball of vertex 7, and 99 raised a bare IndexError
    g = cycle(8)
    assert packing_count_max(g, np.array([7]), 1) == 1
    with pytest.raises(ShapeMismatchError, match=rf"^vertex id {center} out of range \[0, 8\)$"):
        packing_count_max(g, np.array([center]), 1)


# --- multiplicity --------------------------------------------------------------

def test_multiplicity_hand_checked_arcs():
    # packing {0,3,6,9} on the 12-cycle, balls of radius 2 around each:
    # five-point arcs at stride three; a radius-2 ball spans nine points
    # and meets exactly three arcs (point 1 sees the arcs at 0, 3, and 9)
    box = z_box(12)
    g = box.components[0]
    assert maximal_packing(g, 1).tolist() == [0, 3, 6, 9]
    sets = tuple(arc_set(f"b{c}", 0, g.ball_ids(c, 2)) for c in (0, 3, 6, 9))
    cover = Cover(space=box, families=(sets,))
    assert sorted(sets[0].parts[0][1]) == [0, 1, 2, 10, 11]
    assert r_multiplicity(cover, 2) == 3
    assert brute_multiplicity(cover, 2) == 3
    assert r_multiplicity(cover, 0) == 2   # overlaps alone
    assert r_multiplicity(cover, 1) == 3


def test_multiplicity_against_brute_force_random():
    rng = random.Random(90125)
    box = z_box(4, 8, 16)
    for _ in range(12):
        sets = []
        for k in range(rng.randrange(2, 6)):
            ci = rng.randrange(3)
            m = box.components[ci].n_vertices
            start = rng.randrange(m)
            size = rng.randrange(1, 5)
            ids = tuple(sorted((start + t) % m for t in range(size)))
            sets.append(arc_set(f"s{k}", ci, ids))
        cover = Cover(space=box, families=(tuple(sets),))
        for R in (0, 1, 2, 3, 7):
            assert r_multiplicity(cover, R) == brute_multiplicity(cover, R)


def test_multiplicity_counts_cross_component_reach():
    # a set in the 2-component is within R = 3 of every point of the
    # 4-component (cross distance 1 + 2 = 3), and vice versa
    box = z_box(2, 4)
    cover = Cover(space=box, families=((arc_set("a", 0, (0, 1)),
                                        arc_set("b", 1, (0,))),))
    assert r_multiplicity(cover, 3) == brute_multiplicity(cover, 3) == 2
    assert r_multiplicity(cover, 2) == brute_multiplicity(cover, 2) == 1


# --- batched kernels against per-set references ---------------------------------

KERNEL_BOXES = {
    "Z": (free_abelian(1), (4, 8, 16)),
    "Z2": (free_abelian(2), (2, 4, 8)),
    "UT3": (unitriangular(3), (2, 4)),
}


def translate(comp, ids, h, side):
    """The part h * ids or ids * h, in the order of ids; only left
    translation is an isometry."""
    a, b = comp.coords[list(ids)], comp.coords[h]
    moved = coords_multiply(comp.spec, *((b, a) if side == "left" else (a, b)),
                            comp.modulus)
    return tuple((moved @ comp.modulus ** np.arange(moved.shape[1])).tolist())


def random_cover(rng, box, n_sets):
    """Overlapping random sets: some on two components, some a whole
    component, some listing a vertex twice, some a left or right translate
    of an earlier set."""
    sets = []
    for k in range(n_sets):
        if sets and rng.random() < 0.3:
            (ci, ids), = rng.choice(sets).parts[:1]
            comp = box.components[ci]
            moved = translate(comp, ids, rng.randrange(comp.n_vertices),
                              rng.choice(("left", "right")))
            sets.append(CoverSet(label=f"s{k}", parts=((ci, moved),)))
            continue
        comps = sorted(rng.sample(range(box.component_count), rng.choice((1, 1, 1, 2))))
        parts = []
        for ci in comps:
            n = box.components[ci].n_vertices
            shape = rng.random()
            if shape < 0.1:
                ids = list(range(n))
            elif shape < 0.2:
                ids = list(range(1, n)) + [1]   # n ids, not the whole component
            else:
                ids = rng.sample(range(n), rng.randint(1, min(n, 12)))
                if rng.random() < 0.2:
                    ids.append(ids[0])
            parts.append((ci, tuple(sorted(ids))))
        sets.append(CoverSet(label=f"s{k}", parts=tuple(parts)))
    return Cover(space=box, families=(tuple(sets[::2]), tuple(sets[1::2])))


def per_set_diameters(box, cover):
    """Set diameters part by part, the way a per-set verifier measures them:
    exact pairwise maxima from one BFS per vertex, the whole-component
    diameter, or the flagged 2 * eccentricity bound for parts past PAIR_CAP
    comparisons."""
    bfs = [np.stack([g.distances_to([v]) for v in range(g.n_vertices)])
           for g in box.components]
    out, exact = [], True
    for _, s in cover.all_sets():
        best = 0
        for ci, ids in s.parts:
            comp, ids = box.components[ci], np.asarray(ids)
            if len(ids) <= 1:
                d = 0
            elif len(set(ids.tolist())) == comp.n_vertices:
                d = box.diameters[ci]
            elif len(ids) ** 2 > covers_module.PAIR_CAP:
                exact = False
                d = 2 * int(comp.distances_from(int(ids[0]), ids).max())
            else:
                d = int(bfs[ci][np.ix_(ids, ids)].max())
            best = max(best, d)
        comps = [ci for ci, _ in s.parts]
        for a in range(len(comps)):
            for b in range(a + 1, len(comps)):
                best = max(best, box.diameters[comps[a]] + box.diameters[comps[b]])
        out.append(best)
    return out, exact


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
@pytest.mark.parametrize("row_block", [covers_module.ROW_BLOCK, 40])
def test_batched_multiplicity_matches_brute_force(monkeypatch, name, row_block):
    # a 40-row block splits covers into many blocks and sends every part
    # whose expansion exceeds it through the BFS branch
    monkeypatch.setattr(covers_module, "ROW_BLOCK", row_block)
    spec, moduli = KERNEL_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    rng = random.Random(f"mult-{name}")
    for _ in range(3):
        cover = random_cover(rng, box, rng.randrange(3, 8))
        sets = [s for _, s in cover.all_sets()]
        for R in (0, 1, 2, 6):
            assert r_multiplicity(cover, R) == brute_multiplicity(cover, R), (name, R)
            # the per-vertex dilation counts behind the maximum
            for ci, parts in enumerate(cover.layout):
                comp = box.components[ci]
                got = np.zeros(comp.n_vertices, dtype=np.int64)
                for _, v, _ in covers_module._dilation(parts, R):
                    got += np.bincount(v, minlength=comp.n_vertices)
                want = [sum(1 for i in parts.sets
                            if any(comp.distance(v, u) <= R
                                   for u in dict(sets[i].parts)[ci]))
                        for v in range(comp.n_vertices)]
                assert got.tolist() == want, (name, R, ci)


DILATION_BOXES = dict(KERNEL_BOXES,
                      ZxUT3=(direct_product(free_abelian(1), unitriangular(3)), (2, 4)))


@pytest.mark.parametrize("name", sorted(DILATION_BOXES))
@pytest.mark.parametrize("row_block", [covers_module.ROW_BLOCK, 40])
def test_dilation_matches_distance_fields(monkeypatch, name, row_block):
    # every (part, vertex) pair within r, once, at its exact distance, on
    # the Cayley components and on their matrix twins; a 40-row block
    # splits covers and sends larger parts to the distance-field branch
    monkeypatch.setattr(covers_module, "ROW_BLOCK", row_block)
    spec, moduli = DILATION_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    rng = random.Random(f"dilation-{name}")
    for space in (box, matrix_twin(box)):
        for _ in range(3):
            cover = Cover(space, random_cover(rng, box, rng.randrange(3, 9)).families)
            for ci, parts in enumerate(cover.layout):
                comp = space.components[ci]
                for r in range(7):
                    got = np.concatenate([np.stack(block)
                                          for block in covers_module._dilation(parts, r)]
                                         + [np.zeros((3, 0), dtype=np.int64)], axis=1)
                    want = []
                    for k in range(len(parts.sets)):
                        d = comp.distances_to(parts.part(k), cap=r)
                        v = np.flatnonzero(d >= 0)
                        want.append(np.stack((np.full(v.size, k), v, d[v])))
                    want = np.concatenate(want + [np.zeros((3, 0), dtype=np.int64)], axis=1)
                    assert (got[:, np.lexsort(got[::-1])].tolist()
                            == want[:, np.lexsort(want[::-1])].tolist()), (name, ci, r)


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
@pytest.mark.parametrize("pair_cap", [covers_module.PAIR_CAP, 50])
def test_batched_diameters_match_per_set_reference(monkeypatch, name, pair_cap):
    # a 50-comparison cap sends parts of 8 or more points to the bound
    monkeypatch.setattr(covers_module, "PAIR_CAP", pair_cap)
    spec, moduli = KERNEL_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    rng = random.Random(f"diam-{name}")
    for _ in range(8):
        cover = random_cover(rng, box, rng.randrange(3, 10))
        want, exact = per_set_diameters(box, cover)
        S = sorted(want)[len(want) // 2]
        labels = [s.label for _, s in cover.all_sets()]
        first_over = next(((labels[i], d) for i, d in enumerate(want) if d > S), None)
        report = verify_cover(cover, R=1, S=S)
        got, got_exact = covers_module._set_diameters(cover.layout, cover.n_sets())
        assert (got.tolist(), got_exact) == (want, exact)
        assert report.max_set_diameter == max(want)
        assert report.oversized_witness == first_over
        assert report.diameters_exact == exact


def frozen_class_keys(comp, rows):
    """CayleyGraph.class_keys before classes were keyed as bytes: the
    distinct rows of sorted ids of x_0^-1 x, by np.unique(axis=0)."""
    inv_first = coords_invert(comp.spec, comp.coords[rows[:, 0]], comp.modulus)
    moved = covers_module.product_ids(comp.spec, inv_first[:, None, :], comp.coords[rows],
                                      comp.modulus)
    moved.sort(axis=1)
    keys, inverse = np.unique(moved, axis=0, return_inverse=True)
    return keys, inverse.reshape(-1)


class FrozenOracle:
    """The diameter oracle before the shared class pass, frozen as the
    reference: per-length key blocks and a memo of measured classes."""

    def __init__(self, space):
        self.space = space
        self._memo = {}
        self.exact = True

    def set_diameters(self, layout, n_sets, centers=None, radii=None):
        diams = self.space.diameters
        centers, radii = centers or {}, radii or {}
        hints = {i: (centers[i], radii[i]) for i in centers.keys() & radii.keys()}
        out = np.zeros(n_sets, dtype=np.int64)
        top = np.full((2, n_sets), -1, dtype=np.int64)
        for ci, parts in enumerate(layout):
            s = parts.sets
            balls = {k: hints[i] for k, i in enumerate(s.tolist()) if i in hints}
            out[s] = np.maximum(out[s], self._part_diameters(ci, parts, balls))
            top[1, s] = np.maximum(top[1, s], np.minimum(top[0, s], diams[ci]))
            top[0, s] = np.maximum(top[0, s], diams[ci])
        return np.maximum(out, np.where(top[1] >= 0, top[0] + top[1], 0))

    def _part_diameters(self, ci, parts, balls):
        comp = self.space.components[ci]
        lengths = parts.lengths
        out = np.zeros(len(lengths), dtype=np.int64)
        todo = lengths > 1
        whole = todo & (lengths >= comp.n_vertices)
        for k in np.flatnonzero(whole):
            whole[k] = np.unique(parts.part(k)).size == comp.n_vertices
        out[whole] = self.space.diameters[ci]
        todo &= ~whole
        if not isinstance(comp, CayleyGraph):
            for k in np.flatnonzero(todo):
                ids = parts.part(k)
                out[k] = comp.dist_matrix[np.ix_(ids, ids)].max()
            return out
        for k, (center, radius) in balls.items():
            if todo[k]:
                d = covers_module._ball_diameter(ci, comp, parts.part(k), center, radius)
                if d is not None:
                    out[k], todo[k] = d, False
        big = todo & (lengths ** 2 > covers_module.PAIR_CAP)
        for k in np.flatnonzero(big):
            self.exact = False
            ids = parts.part(k)
            out[k] = int(comp.distances_from(int(ids[0]), ids).max()) * 2
        todo &= ~big
        for L in np.unique(lengths[todo]).tolist():
            ks = np.flatnonzero(todo & (lengths == L))
            step = max(1, covers_module.ROW_BLOCK // L)
            blocks, new = [], {}
            for lo in range(0, len(ks), step):
                block = ks[lo:lo + step]
                keys, inverse = frozen_class_keys(comp, parts.ids[parts.offsets[block][:, None]
                                                                  + np.arange(L)])
                names = [(ci, key.tobytes()) for key in keys]
                new.update((n, key) for n, key in zip(names, keys) if n not in self._memo)
                blocks.append((block, names, inverse))
            if new:
                rows = np.array(list(new.values()))
                self._memo.update(zip(new, comp.row_diameters(rows, covers_module.ROW_BLOCK)))
            for block, names, inverse in blocks:
                out[block] = np.array([self._memo[n] for n in names], dtype=np.int64)[inverse]
        return out


def with_ball_hints(rng, cover):
    """The cover with a (center, radius) hint on about half its sets: the
    one-part sets that are balls get their own, the others a lie."""
    centers, radii = {}, {}
    bounds = cover.set_parts()
    for i in range(cover.n_sets()):
        if rng.random() < 0.5:
            ci = int(cover.part_comp[bounds[i]])
            comp = cover.space.components[ci]
            c, r = rng.randrange(comp.n_vertices), rng.randrange(3)
            centers[i], radii[i] = (ci, c), r
    # a ball listed as it is, with its true hint, at the end
    comp = cover.space.components[0]
    c, r = rng.randrange(comp.n_vertices), rng.randrange(1, 3)
    ball = comp.ball_ids(c, r)
    n = cover.n_sets()
    centers[n], radii[n] = (0, c), r
    return Cover.from_arrays(
        cover.space, 1, np.zeros(n + 1), cover.labels + ["ball"],
        np.append(cover.part_set, n), np.append(cover.part_comp, 0),
        np.append(np.diff(cover.offsets), ball.size), np.concatenate((cover.ids, ball)),
        centers, radii)


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
@pytest.mark.parametrize("pair_cap", [PAIR_CAP, 50])
@pytest.mark.parametrize("row_block", [covers_module.ROW_BLOCK, 40])
def test_verify_cover_diameters_equal_the_frozen_oracle(monkeypatch, name, pair_cap, row_block):
    # the shared class pass measures what the per-length key blocks did,
    # with and without ball hints, exact or bounded alike; a 40-row block
    # keys components of 10 ids or more, the default none of these
    monkeypatch.setattr(covers_module, "PAIR_CAP", pair_cap)
    monkeypatch.setattr(covers_module, "ROW_BLOCK", row_block)
    spec, moduli = KERNEL_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    rng = random.Random(f"frozen-{name}")
    for _ in range(6):
        bare = random_cover(rng, box, rng.randrange(3, 12))
        for cover in (bare, with_ball_hints(rng, bare)):
            frozen = FrozenOracle(box)
            want = frozen.set_diameters(cover.layout, cover.n_sets(), cover.centers, cover.radii)
            got, exact = covers_module._set_diameters(cover.layout, cover.n_sets(),
                                                      cover.centers, cover.radii)
            assert (got.tolist(), exact) == (want.tolist(), frozen.exact)
            S = int(np.median(want))
            over = np.flatnonzero(want > S)
            report = verify_cover(cover, 1, S)
            assert report.max_set_diameter == int(want.max())
            assert report.diameters_exact == frozen.exact
            assert report.oversized_witness == (
                (cover.labels[over[0]], int(want[over[0]])) if over.size else None)


@pytest.mark.parametrize("name", sorted(DILATION_BOXES))
def test_class_keys_partition_rows_as_unique_rows(name):
    # the byte keys split rows exactly as np.unique(axis=0) on the sorted
    # translated rows, on int32 product ids too, and name each class's
    # first row
    spec, moduli = DILATION_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    rng = random.Random(f"keys-{name}")
    for comp in box.components:
        for L in (1, 2, 3, 5):
            shapes = [rng.choices(range(comp.n_vertices), k=L) for _ in range(3)]
            rows = [translate(comp, rng.choice(shapes), rng.randrange(comp.n_vertices), "left")
                    for _ in range(20)]
            rows = np.asarray(rows + [rng.choices(range(comp.n_vertices), k=L)
                                      for _ in range(5)], dtype=np.int64)
            assert covers_module.product_ids(comp.spec, comp.coords[rows[:1, :1]],
                                             comp.coords[rows], comp.modulus).dtype == np.int32
            first, inverse = comp.class_keys(rows)
            _, want = frozen_class_keys(comp, rows)
            assert len(first) == want.max() + 1
            assert want[first[inverse]].tolist() == want.tolist()
            assert first.tolist() == [np.flatnonzero(inverse == c)[0] for c in range(len(first))]


def test_one_class_pass_per_verify(monkeypatch):
    # the oracle and the dilation read one class pass: one class_keys call
    # per component and length held by several parts, none for a lone
    # length; a 2,000-row block keys components of 500 ids or more, each
    # length in one block
    monkeypatch.setattr(covers_module, "ROW_BLOCK", 2000)
    box = build_box_space(Filtration(free_abelian(2), (16, 32)))
    sets, want = [], 0
    for ci, comp in enumerate(box.components):
        shape = (0, 1, comp.modulus)
        for k, h in enumerate(range(0, comp.n_vertices, 3)):
            sets.append(CoverSet(f"c{ci}.t{k}", ((ci, translate(comp, shape, h, "left")),)))
        sets.append(CoverSet(f"c{ci}.pair", ((ci, (0, 5)), (1 - ci, (2, 3)))))
        sets.append(CoverSet(f"c{ci}.all", ((ci, tuple(range(comp.n_vertices))),)))
        want += 2       # lengths 3 and 2; the whole component's length is lone
    cover = Cover(box, (tuple(sets),))
    calls = []
    keys = CayleyGraph.class_keys

    def counted(self, rows):
        calls.append(rows.shape)
        return keys(self, rows)

    kernel, dilated = covers_module._dilation, []

    def dilation(parts, r):
        dilated.append(len(parts.sets))
        return kernel(parts, r)

    monkeypatch.setattr(CayleyGraph, "class_keys", counted)
    monkeypatch.setattr(covers_module, "_dilation", dilation)
    report = verify_cover(cover, 2, check_disjoint=True)
    assert report.is_cover
    assert len(calls) == want, calls
    assert all(L in (2, 3) for _, L in calls)
    # the kernel dilates one part per class: the translates, two pairs, the
    # whole component
    assert dilated == [4, 4]
    # parts of fewer than 500 ids in all (component 0), like a lone part
    # (component 1), are each their own class, keyed by nothing: the
    # kernel sees every part
    calls.clear()
    dilated.clear()
    small = Cover(box, ((CoverSet("a", ((0, tuple(range(256))),)),
                         CoverSet("b", ((1, tuple(range(1024))),)),
                         CoverSet("c", ((0, (0, 1)),)), CoverSet("d", ((0, (2, 3)),))),))
    assert verify_cover(small, 2).is_cover
    assert (calls, dilated) == ([], [3, 1])


def test_set_diameters_key_classes_only_for_parts_left_after_the_hints(monkeypatch):
    # four balls of 5 ids share one length; a 40-row block keys parts of
    # 10 ids or more in all, all four in one block.  Honest hints certify
    # every ball and leave the classes unkeyed; one ball without its hint
    # needs the class pass, once
    monkeypatch.setattr(covers_module, "ROW_BLOCK", 40)
    box = build_box_space(Filtration(free_abelian(2), (16,)))
    comp = box.components[0]
    centers = (0, 50, 100, 200)
    balls = [comp.ball_ids(c, 1) for c in centers]
    calls = []
    keys = CayleyGraph.class_keys

    def counted(self, rows):
        calls.append(rows.shape)
        return keys(self, rows)

    monkeypatch.setattr(CayleyGraph, "class_keys", counted)
    for hinted, want in ((4, []), (3, [(4, 5)])):
        cover = Cover.from_arrays(box, 1, np.zeros(4), [f"b{c}" for c in centers],
                                  np.arange(4), np.zeros(4), [b.size for b in balls],
                                  np.concatenate(balls),
                                  {i: (0, c) for i, c in enumerate(centers[:hinted])},
                                  dict.fromkeys(range(hinted), 1))
        calls.clear()
        got, exact = covers_module._set_diameters(cover.layout, cover.n_sets(),
                                                  cover.centers, cover.radii)
        assert (got.tolist(), exact) == ([2] * 4, True)
        assert calls == want, hinted


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_flat_family_violations_match_brute_force(name):
    spec, moduli = KERNEL_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    rng = random.Random(f"fam-{name}")
    for _ in range(6):
        fam = [s for f in random_cover(rng, box, rng.randrange(2, 6)).families for s in f]
        want = brute_family_min(box, fam)
        for R in (1, 2, 4, 9):
            viol = family_violations(box, tuple(fam), R)
            if want is not None and want < R:
                assert min(d for _, _, d in viol) == want
            else:
                assert viol == []




@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_family_violations_list_every_close_pair(name):
    spec, moduli = KERNEL_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    rng = random.Random(f"pairs-{name}")
    for _ in range(6):
        fam = [s for f in random_cover(rng, box, rng.randrange(2, 7)).families for s in f]
        dists = {tuple(sorted((a.label, b.label))): brute_set_distance(box, a, b)
                 for i, a in enumerate(fam) for b in fam[i + 1:]}
        for R in (1, 2, 4, 9):
            want = sorted((a, b, d) for (a, b), d in dists.items() if d < R)
            assert family_violations(box, tuple(fam), R) == want, (name, R)

# --- the two component kinds ----------------------------------------------------

def matrix_twin(box):
    """The same coarse union with every component an explicit distance matrix."""
    return CoarseUnion(FiniteMetricSpace.from_graph(g) for g in box.components)


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_cover_reports_agree_on_cayley_and_matrix_components(name):
    # the Cayley fast paths (diameter memo, ball translation, owner
    # propagation) against the matrix fallbacks, field by field
    spec, moduli = KERNEL_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    twin = matrix_twin(box)
    rng = random.Random(f"twin-{name}")
    for _ in range(4):
        cover = random_cover(rng, box, rng.randrange(3, 9))
        on_matrix = Cover(space=twin, families=cover.families)
        for R in range(4):
            for check_disjoint in (True, False):
                want = verify_cover(cover, R, S=4, check_disjoint=check_disjoint)
                got = verify_cover(on_matrix, R, S=4, check_disjoint=check_disjoint)
                assert got == want, (name, R, check_disjoint)


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_greedy_coloring_agrees_on_cayley_and_matrix_components(name):
    spec, moduli = KERNEL_BOXES[name]
    for g in build_box_space(Filtration(spec, moduli)).components:
        twin = FiniteMetricSpace.from_graph(g)
        for R, S in ((1, 2), (2, 3), (3, 6)):
            want, got = rs_dim(g, R, S, "greedy"), rs_dim(twin, R, S, "greedy")
            assert got.coloring == want.coloring, (name, g.modulus, R, S)
            assert got.cover.families == want.cover.families

@pytest.mark.parametrize("kind", ["matrix", "cayley"])
def test_part_with_repeated_ids_is_not_the_whole_component(kind):
    # as many ids as the component has vertices, but not all of them
    if kind == "matrix":
        space = CoarseUnion((FiniteMetricSpace.from_matrix(
            [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),))
        sets = (arc_set("a", 0, (0, 1, 1)), arc_set("b", 0, (2,)))
    else:
        space = z_box(4)
        sets = (arc_set("a", 0, (0, 0, 1, 1)), arc_set("b", 0, (2, 3)))
    report = verify_cover(Cover(space=space, families=(sets,)), R=1, S=1)
    assert report.max_set_diameter == 1
    assert report.oversized_witness is None
    assert report.diameters_exact


# --- verify_cover ---------------------------------------------------------------

def four_arc_cover(box):
    arcs = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    fam0 = tuple(arc_set(f"a{i}", 0, arcs[i]) for i in (0, 2))
    fam1 = tuple(arc_set(f"a{i}", 0, arcs[i]) for i in (1, 3))
    return Cover(space=box, families=(fam0, fam1))


def test_verify_cover_valid_two_families():
    box = z_box(12)
    cover = four_arc_cover(box)
    report = verify_cover(cover, R=4, S=2)
    assert report.ok
    assert report.is_cover and report.uncovered_witness is None
    assert report.max_set_diameter == 2 and report.diameters_exact
    assert report.family_min_distances == (None, None)
    assert report.close_pair_witnesses == ()
    assert report.r_multiplicity == brute_multiplicity(cover, 4)


def test_verify_cover_reports_close_pairs():
    box = z_box(12)
    cover = four_arc_cover(box)
    report = verify_cover(cover, R=5, S=2)
    assert not report.ok
    assert report.family_min_distances == (4, 4)
    assert ("a0", "a2") in {(a, b) for _, a, b, _ in report.close_pair_witnesses}
    # the distance claims in the witnesses are exact
    labels = {s.label: s for _, s in cover.all_sets()}
    for _, a, b, d in report.close_pair_witnesses:
        assert brute_set_distance(box, labels[a], labels[b]) == d


def test_verify_cover_detects_uncovered_point():
    box = z_box(12)
    fam = (arc_set("a", 0, (0, 1, 2, 3, 4, 5)),)
    report = verify_cover(Cover(space=box, families=(fam,)), R=1, S=5)
    assert not report.is_cover
    assert report.uncovered_witness == (0, 6)


def test_verify_cover_flags_oversized_set():
    box = z_box(12)
    cover = four_arc_cover(box)
    report = verify_cover(cover, R=4, S=1)
    assert report.oversized_witness is not None
    label, diam = report.oversized_witness
    assert diam == 2
    assert not report.ok


def test_verify_cover_singletons_and_whole_space():
    box = z_box(8)
    singles = tuple(arc_set(f"p{v}", 0, (v,)) for v in range(8))
    rep = verify_cover(Cover(space=box, families=(singles,)), R=0, S=0)
    assert rep.ok and rep.r_multiplicity == 1 and rep.max_set_diameter == 0
    whole = (arc_set("all", 0, tuple(range(8))),)
    rep = verify_cover(Cover(space=box, families=(whole,)), R=3, S=4)
    assert rep.is_cover and rep.r_multiplicity == 1
    assert rep.max_set_diameter == 4


def test_verify_cover_rejects_malformed():
    box = z_box(8)
    with pytest.raises(ConfigError):
        verify_cover(Cover(space=box, families=((arc_set("x", 0, ()),),)), 1, 1)
    with pytest.raises(ConfigError):
        verify_cover(Cover(space=box, families=((arc_set("x", 1, (0,)),),)), 1, 1)
    with pytest.raises(ConfigError):
        verify_cover(Cover(space=box, families=((arc_set("x", 0, (9,)),),)), 1, 1)
    dup = (arc_set("x", 0, (0,)), arc_set("x", 0, (1,)))
    with pytest.raises(ConfigError):
        verify_cover(Cover(space=box, families=(dup,)), 1, 1)
    twice = CoverSet(label="x", parts=((0, (0,)), (0, (1,))))
    with pytest.raises(ConfigError, match="component twice"):
        verify_cover(Cover(space=box, families=((twice,),)), 1, 1)
    with pytest.raises(ConfigError, match="vertex -1 of component 0"):
        verify_cover(Cover(space=box, families=((arc_set("y", 0, (3, -1)),),)), 1, 1)


def test_verify_cover_refuses_a_part_with_no_ids():
    # the empty part lists no point, and counting A as meeting component
    # 0 would read its diameter as 1 + 4 = 5 and raise the multiplicity
    box = z_box(2, 4, 8)
    sets = [arc_set("A", 2, (0, 1, 2)), arc_set("B", 2, (3, 4, 5)), arc_set("C", 2, (6, 7)),
            CoverSet("D", ((0, (0, 1)), (1, (0, 1, 2, 3))))]
    assert verify_cover(Cover(space=box, families=[(s,) for s in sets]), 4, 10).ok
    sets[0] = CoverSet("A", ((2, (0, 1, 2)), (0, ())))
    with pytest.raises(ConfigError, match="set 'A' has no ids on component 0"):
        verify_cover(Cover(space=box, families=[(s,) for s in sets]), 4, 10)


def test_cover_arrays_and_views():
    # CoverSets in, flat arrays stored, CoverSet views with plain ints out
    box = z_box(4, 8)
    fams = ((arc_set("a", 0, np.array([0, 1])),
             CoverSet("b", ((0, (2, 3)), (1, (0,))), center=(0, 2), radius=1)),
            (),
            (arc_set("c", 1, range(1, 8)),))
    cover = Cover(space=box, families=fams)
    plain = tuple(tuple(CoverSet(s.label, tuple((ci, tuple(int(v) for v in ids))
                                                 for ci, ids in s.parts), s.center, s.radius)
                        for s in fam) for fam in fams)
    assert cover.families == plain
    assert all(type(v) is int for _, s in cover.all_sets() for _, ids in s.parts for v in ids)
    assert (cover.n_sets(), cover.n_families) == (3, 3)
    assert cover.labels == ["a", "b", "c"]
    assert cover.set_family.tolist() == [0, 0, 2]
    assert cover.part_set.tolist() == [0, 1, 1, 2]
    assert cover.part_comp.tolist() == [0, 0, 1, 1]
    assert cover.offsets.tolist() == [0, 2, 4, 5, 12]
    assert cover.set_sizes().tolist() == [2, 3, 7]
    assert cover.set_parts().tolist() == [0, 1, 3, 4]
    assert (cover.centers, cover.radii) == ({1: (0, 2)}, {1: 1})
    # a family alone, and sets taken out in another order and grouping
    assert cover.take([0, 1], [0, 0], 1).families == (plain[0],)
    taken = cover.take([1, 2], [0, 2], 3)
    assert taken.families == ((plain[0][1],), (), (plain[2][0],))
    assert (taken.centers, taken.radii) == ({0: (0, 2)}, {0: 1})
    layout = cover.layout
    assert [p.sets.tolist() for p in layout] == [[0, 1], [1, 2]]
    assert [p.ids.tolist() for p in layout] == [[0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6, 7]]
    assert [p.owner.tolist() for p in layout] == [[0, 0, 1, 1], [1] + [2] * 7]
    assert verify_cover(cover, R=1, S=20).is_cover


def test_take_orders_sets_stably_by_family():
    box = z_box(4, 8)
    sets = (arc_set("a", 0, (0, 1)),
            CoverSet("b", ((0, (2, 3)), (1, (0,))), center=(0, 2), radius=1),
            arc_set("c", 1, range(1, 8)),
            CoverSet("d", ((1, (4, 5, 6)),), center=(1, 5), radius=1),
            arc_set("e", 1, (3,)))
    cover = Cover(space=box, families=(sets,))
    picked, family = np.array([4, 1, 3, 0, 2]), np.array([2, 0, 2, 1, 0])
    order = np.argsort(family, kind="stable")
    got = cover.take(picked, family, 3)
    want = cover.take(picked[order], family[order], 3)
    assert got.labels == want.labels == ["b", "c", "a", "e", "d"]
    assert got.set_family.tolist() == want.set_family.tolist() == [0, 0, 1, 2, 2]
    for name in ("part_set", "part_comp", "offsets", "ids"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert (got.centers, got.radii) == (want.centers, want.radii) == (
        {0: (0, 2), 4: (1, 5)}, {0: 1, 4: 1})
    assert got.families == ((sets[1], sets[2]), (sets[0],), (sets[4], sets[3]))


def test_verify_cover_diameters_match_brute_force():
    rng = random.Random(777)
    box = z_box(4, 8, 16)
    for _ in range(8):
        sets = []
        for k in range(rng.randrange(1, 5)):
            parts = []
            for ci in sorted(rng.sample(range(3), rng.randrange(1, 3))):
                m = box.components[ci].n_vertices
                start = rng.randrange(m)
                ids = tuple(sorted({(start + t) % m for t in range(rng.randrange(1, 5))}))
                parts.append((ci, ids))
            sets.append(CoverSet(label=f"s{k}", parts=tuple(parts)))
        cover = Cover(space=box, families=(tuple(sets),))
        report = verify_cover(cover, R=1, S=100)
        assert report.diameters_exact
        assert report.max_set_diameter == max(brute_set_diameter(box, s) for s in sets)


def test_family_min_distance_matches_brute_force():
    rng = random.Random(31337)
    box = z_box(8, 16)
    for _ in range(12):
        fam = []
        for k in range(rng.randrange(2, 5)):
            ci = rng.randrange(2)
            m = box.components[ci].n_vertices
            start = rng.randrange(m)
            ids = tuple(sorted({(start + t) % m for t in range(rng.randrange(1, 4))}))
            fam.append(arc_set(f"s{k}", ci, ids))
        for R in (1, 2, 4, 9, 26):
            viol = family_violations(box, tuple(fam), R)
            want = brute_family_min(box, fam)
            if want is not None and want < R:
                assert min(d for _, _, d in viol) == want
            else:
                assert viol == []


# --- the packing cover ----------------------------------------------------------

GROWTH_Z = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 10 ** 7))


def test_prop41_cover_line_box():
    box = z_box(*[2 ** t for t in range(1, 9)])
    cover, report = cover_prop41(box, R=8, growth=GROWTH_Z)
    assert report.ok
    assert report.r_multiplicity <= report.params.K == 5
    assert report.max_set_diameter <= max(report.params.S_0, 8)
    assert report.is_cover
    # one collective set spans every component of diameter <= R
    labels = [s.label for _, s in cover.all_sets()]
    assert labels.count("F_R") == 1
    f_r = next(s for _, s in cover.all_sets() if s.label == "F_R")
    assert tuple(ci for ci, _ in f_r.parts) == tuple(
        ci for ci, d in enumerate(box.diameters) if d <= 8)
    for ci, rn in enumerate(report.doubling_radii):
        if box.diameters[ci] > 8:
            assert rn is not None
            assert report.packing_counts[ci] <= report.params.K


def test_prop41_multiplicity_within_bound_at_large_radius():
    # at R = 64 six small components sit pairwise within reach; a cover
    # with one set per small component would exceed K = 5, the collective
    # set keeps the count at one
    box = z_box(*[2 ** t for t in range(1, 11)])
    cover, report = cover_prop41(box, R=64, growth=GROWTH_Z)
    assert report.params.K == 5
    assert report.r_multiplicity <= 5
    assert report.ok


def test_prop41_exact_multiplicity_small_box():
    box = z_box(4, 8, 32)
    cover, report = cover_prop41(box, R=2, growth=GROWTH_Z)
    assert report.r_multiplicity == brute_multiplicity(cover, 2)
    assert report.r_multiplicity <= 5


def test_prop41_threaded_build_identical():
    box = z_box(*[2 ** t for t in range(1, 8)])
    c1, r1 = cover_prop41(box, R=4, growth=GROWTH_Z, threads=1)
    c2, r2 = cover_prop41(box, R=4, growth=GROWTH_Z, threads=4)
    assert [s.label for _, s in c1.all_sets()] == [s.label for _, s in c2.all_sets()]
    assert [s.parts for _, s in c1.all_sets()] == [s.parts for _, s in c2.all_sets()]
    assert r1.r_multiplicity == r2.r_multiplicity
    assert r1.doubling_radii == r2.doubling_radii


def test_prop41_all_components_small():
    box = z_box(4, 8)
    cover, report = cover_prop41(box, R=10, growth=GROWTH_Z)
    assert cover.n_sets() == 1
    assert report.r_multiplicity == 1
    assert report.max_set_diameter == 2 + 4


def test_prop41_torus_box():
    growth = GrowthBound(C=Fraction(5), d=2, validated_range=(1, 10 ** 7))
    small = build_box_space(Filtration(free_abelian(2), (4, 8)))
    cover, report = cover_prop41(small, R=2, growth=growth)
    assert report.ok
    assert report.params.K == 17
    assert report.r_multiplicity == brute_multiplicity(cover, 2)
    big = build_box_space(Filtration(free_abelian(2), (4, 8, 16)))
    cover, report = cover_prop41(big, R=2, growth=growth)
    assert report.ok
    assert report.r_multiplicity <= 17


@pytest.mark.parametrize("spec, moduli", [(free_abelian(2), (4, 8, 16)),
                                          (unitriangular(3), (2, 4, 8))])
def test_prop41_ball_diameters_are_exact_past_the_pair_cap(monkeypatch, spec, moduli):
    box = build_box_space(Filtration(spec, moduli))
    growth = fit_growth(growth_profile(spec, 8))
    # any window will do: only the measured scale diameter is compared
    window = SimpleNamespace(threshold=lambda radius: box.component_count - 1)
    base = cover_prop41(box, R=2, growth=growth)[0]
    want, exact = per_set_diameters(box, base)
    assert exact
    scale_diameters = assemble_box_families(
        box, {2: families_from_multiplicity_cover(base, 2)[0]}, window).scale_diameters
    # every ball has 8 or more points: past a 50-comparison cap only its
    # ball certificate keeps the diameter exact
    monkeypatch.setattr(covers_module, "PAIR_CAP", 50)
    cover, report = cover_prop41(box, R=2, growth=growth)
    sizes = cover.set_sizes()[[i for i in range(cover.n_sets()) if i in cover.centers]]
    assert sizes.size and sizes.min() ** 2 > 50
    assert report.diameters_exact
    assert report.max_set_diameter == max(want)
    assert covers_module._set_diameters(
        cover.layout, cover.n_sets(), cover.centers, cover.radii)[0].tolist() == want
    # the regrouped sets keep their hints, so the assembly measures the same
    assert assemble_box_families(
        box, {2: families_from_multiplicity_cover(cover, 2)[0]},
        window).scale_diameters == scale_diameters


# --- regrouping into disjoint families -------------------------------------------

def test_regroup_hand_checked_cycle():
    box = z_box(12)
    g = box.components[0]
    sets = tuple(arc_set(f"b{c}", 0, g.ball_ids(c, 2)) for c in (0, 3, 6, 9))
    cover = Cover(space=box, families=(sets,))
    out, _ = families_from_multiplicity_cover(cover, R=2)
    # the proximity graph is the 4-cycle b0-b3-b6-b9-b0: two families
    assert len(out.families) == 2
    assert {s.label for s in out.families[0]} == {"b0", "b6"}
    assert {s.label for s in out.families[1]} == {"b3", "b9"}
    report = verify_cover(out, R=2, S=4)
    assert report.family_min_distances == (None, None)


def test_regroup_preserves_sets_and_is_disjoint():
    box = z_box(*[2 ** t for t in range(1, 7)])
    cover, _ = cover_prop41(box, R=2, growth=GROWTH_Z)
    out, _ = families_from_multiplicity_cover(cover, R=2)
    assert sorted(s.label for _, s in out.all_sets()) == sorted(
        s.label for _, s in cover.all_sets())
    for fam in out.families:
        assert family_violations(box, fam, 2) == []


def test_regroup_overlapping_sets_get_distinct_families():
    box = z_box(8)
    a = arc_set("a", 0, (0, 1, 2))
    b = arc_set("b", 0, (2, 3, 4))
    out, _ = families_from_multiplicity_cover(Cover(space=box, families=((a, b),)), R=1)
    fams = {s.label: j for j, fam in enumerate(out.families) for s in fam}
    assert fams["a"] != fams["b"]


def test_first_fit_colors_takes_the_smallest_free_color():
    # the pairs come in either order, repeated, or of an index with itself;
    # index 5 is in no pair
    a = np.array([0, 2, 1, 2, 3, 1, 0, 2, 4])
    b = np.array([1, 0, 2, 1, 1, 0, 4, 2, 1])
    assert first_fit_colors(6, a, b).tolist() == [0, 1, 2, 0, 2, 0]
    assert first_fit_colors(3, [1, 2], [0, 0]).tolist() == [0, 1, 1]
    assert first_fit_colors(0, [], []).tolist() == []
    assert first_fit_colors(2, [], []).tolist() == [0, 0]


def old_regroup(cover, R):
    """families_from_multiplicity_cover as it was: a label-keyed proximity
    graph, both directions of every edge, and its own first-fit loop."""
    space = cover.space
    sets = [s for _, s in cover.all_sets()]
    index = {s.label: i for i, s in enumerate(sets)}
    edges = {i: set() for i in range(len(sets))}
    per_comp = {}
    for s in sets:
        for ci, ids in s.parts:
            per_comp.setdefault(ci, []).append((s.label, ids))
    for ci, groups in per_comp.items():
        comp = space.components[ci]
        point_sets = {}
        for label, ids in groups:
            for v in ids:
                point_sets.setdefault(v, []).append(label)
        for label, ids in groups:
            ids = np.asarray(ids, dtype=np.int64)
            near = np.flatnonzero(comp.distances_to(ids, cap=R - 1) >= 0) if R >= 1 else ids
            i = index[label]
            for v in near:
                for other in point_sets.get(int(v), ()):
                    if other != label:
                        edges[i].add(index[other])
                        edges[index[other]].add(i)
    diams = space.diameters
    comp_list = sorted(per_comp)
    for x in range(len(comp_list)):
        for y in range(x + 1, len(comp_list)):
            i, j = comp_list[x], comp_list[y]
            if diams[i] + diams[j] < R:
                for la, _ in per_comp[i]:
                    for lb, _ in per_comp[j]:
                        if la != lb:
                            edges[index[la]].add(index[lb])
                            edges[index[lb]].add(index[la])
    colors = {}
    for i in range(len(sets)):
        used = {colors[j] for j in edges[i] if j in colors}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    n_fam = max(colors.values()) + 1 if colors else 1
    return tuple(tuple(s for i, s in enumerate(sets) if colors[i] == j)
                 for j in range(n_fam))


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_regroup_matches_the_label_keyed_graph(name):
    # overlapping, repeated-id, whole-component and two-component sets, on
    # Cayley and matrix components, R = 0..7: on the Z and Z^2 boxes R = 7
    # passes the sum of two diameters, so sets on different components
    # are neighbours
    spec, moduli = KERNEL_BOXES[name]
    box = build_box_space(Filtration(spec, moduli))
    twin = matrix_twin(box)
    rng = random.Random(f"regroup-{name}")
    covers = [cover_prop41(box, R=1, growth=GrowthBound(C=Fraction(100), d=3,
                                                        validated_range=(1, 64)))[0]]
    covers += [random_cover(rng, box, rng.randrange(3, 12)) for _ in range(6)]
    for cover in covers:
        for space in (box, twin):
            on_space = Cover(space=space, families=cover.families)
            for R in range(8):
                try:
                    got = families_from_multiplicity_cover(on_space, R)[0].families
                except VerificationError as e:
                    got = str(e)
                assert got == old_regroup(on_space, R), (name, R)


# --- per-scale assembly -----------------------------------------------------------

def eight_component_box():
    return z_box(*[2 ** t for t in range(1, 9)])


def scale_covers(box):
    """Scale 1: alternating arcs of two; scale 4: arcs of eight on the large
    components plus whole-component sets on the two smallest."""
    def arcs(ci, size):
        m = box.components[ci].n_vertices
        chunks = [tuple(range(a, a + size)) for a in range(0, m, size)]
        fam0 = tuple(arc_set(f"k{size}.c{ci}.a{i}", ci, chunks[i])
                     for i in range(0, len(chunks), 2))
        fam1 = tuple(arc_set(f"k{size}.c{ci}.a{i}", ci, chunks[i])
                     for i in range(1, len(chunks), 2))
        return fam0, fam1

    c1_f0, c1_f1 = [], []
    for ci in range(1, 8):
        f0, f1 = arcs(ci, 2)
        c1_f0.extend(f0)
        c1_f1.extend(f1)
    cover1 = Cover(space=box, families=(tuple(c1_f0), tuple(c1_f1)))

    c4_f0 = [CoverSet(label="whole0", parts=((0, (0, 1)),)),
             CoverSet(label="whole1", parts=((1, tuple(range(4))),))]
    c4_f1 = []
    for ci in range(4, 8):
        f0, f1 = arcs(ci, 8)
        c4_f0.extend(f0)
        c4_f1.extend(f1)
    cover4 = Cover(space=box, families=(tuple(c4_f0), tuple(c4_f1)))
    return {1: cover1, 4: cover4}


def test_assembly_pipeline():
    box = eight_component_box()
    profile = isometry_profile(box)
    covers = scale_covers(box)
    asm = assemble_box_families(box, covers, profile)
    assert asm.report.ok
    assert asm.scales == (1, 4)
    # scale 1 sets have diameter 1, scale 4 arcs have diameter 7
    assert asm.scale_diameters == {1: 1, 4: 7}
    # thresholds: first component whose balls of radius max(k, S_k) are
    # genuine copies; radii along this box are floor((m - 1) / 2)
    assert asm.thresholds == {1: 1, 4: 3}
    assert asm.finite_parts == {1: (0,), 4: (0, 1, 2)}
    # whole-component sets at scale 4 sit below the window and are dropped
    labels4 = {s.label for fam in asm.families[4].families for s in fam}
    assert "whole0" not in labels4 and "whole1" not in labels4
    # subtraction identity held exactly
    assert asm.report.subtraction_ok
    # scale-1 assembled family includes the kept scale-4 sets
    labels1 = {s.label for fam in asm.families[1].families for s in fam}
    assert any(lbl.startswith("k8.") for lbl in labels1)


# the windows {1: 1, 4: 0} of scale_covers, asked for at the radii
# max(k, S_k) = 1 and 7 (S_1 = 1, S_4 = 7)
BAD_THRESHOLDS = SimpleNamespace(threshold={1: 1, 7: 0}.get)


def test_assembly_corrupted_threshold_is_witnessed():
    box = eight_component_box()
    profile = isometry_profile(box)
    covers = scale_covers(box)
    honest = assemble_box_families(box, covers, profile)
    assert honest.report.ok
    # forcing the scale-4 window down to component 0 pulls the two
    # whole-component sets into one family at distance 1 + 2 = 3 < 4
    bad = assemble_box_families(box, covers, BAD_THRESHOLDS)
    assert not bad.report.ok
    pairs = {(a, b): d for _, _, a, b, d in bad.report.violations}
    assert pairs.get(("whole0", "whole1")) == 3


def test_assembly_rejects_straddler_in_window():
    box = eight_component_box()
    profile = isometry_profile(box)
    covers = scale_covers(box)
    straddler = CoverSet(label="bad", parts=((4, (0, 1)), (5, (0, 1))))
    fam0 = covers[4].families[0] + (straddler,)
    covers = {1: covers[1], 4: Cover(space=box, families=(fam0, covers[4].families[1]))}
    with pytest.raises(VerificationError):
        assemble_box_families(box, covers, profile)


def test_assembly_rejects_straddler_reaching_the_window_start():
    # the scale-4 window starts at component 3; a set on components 1 and 3
    # reaches into it
    box = eight_component_box()
    profile = isometry_profile(box)
    covers = scale_covers(box)
    straddler = CoverSet(label="edge", parts=((1, (0, 1)), (3, (0, 1))))
    fam0 = covers[4].families[0] + (straddler,)
    covers = {1: covers[1], 4: Cover(space=box, families=(fam0, covers[4].families[1]))}
    with pytest.raises(VerificationError, match=r"'edge' straddles components \[1, 3\]"):
        assemble_box_families(box, covers, profile)


def test_assembly_tolerates_straddler_below_window():
    box = eight_component_box()
    profile = isometry_profile(box)
    covers = scale_covers(box)
    low = CoverSet(label="low", parts=((0, (0, 1)), (1, (0, 1))))
    fam0 = covers[4].families[0] + (low,)
    covers = {1: covers[1], 4: Cover(space=box, families=(fam0, covers[4].families[1]))}
    asm = assemble_box_families(box, covers, profile)
    assert asm.report.ok
    assert all(s.label != "low" for fam in asm.families[4].families for s in fam)


def test_assembly_needs_usable_truncation():
    box = z_box(2, 4)
    profile = isometry_profile(box)
    cover = Cover(space=box, families=((arc_set("a", 1, tuple(range(4))),),))
    with pytest.raises(ConfigError):
        assemble_box_families(box, {5: cover}, profile)


def test_assembly_refuses_a_window_past_a_smaller_radius():
    # non-nested Z mod 16 then Z mod 4, radii [7, 1]: the first component
    # reaching radius 2 is Z mod 16, but Z mod 4 after it holds no copy of
    # B(e, 2), so no window at scale 1 (S_1 = 2) is admissible
    box = build_box_space(Filtration(free_abelian(1), (16, 4), nested=False))
    covers = {k: box_witness_cover(box, k, 3, "greedy")[0] for k in (1, 2)}
    with pytest.raises(ConfigError, match=r"no component usable at scale 1 "
                                          r"\(needs ball-isometry radius >= 2\)"):
        assemble_box_families(box, covers, isometry_profile(box))


def random_filtrations(seed):
    """Nested divisibility chains and non-nested moduli in any order, on Z
    (moduli up to 40) and Z^2 (up to 12)."""
    rng = random.Random(seed)
    for spec, top in ((free_abelian(1), 40), (free_abelian(2), 12)):
        for _ in range(4):
            m, chain = rng.randint(2, 4), []
            while m <= top:
                chain.append(m)
                m *= rng.randint(2, 3)
            yield Filtration(spec, tuple(chain))
            moduli = rng.sample(range(2, top + 1), rng.randint(2, 4))
            yield Filtration(spec, tuple(moduli), nested=False)


@pytest.mark.parametrize("budget", [10 ** 7, 3], ids=["exact radii", "budget-cut radii"])
def test_assembly_windows_hold_copies_of_the_balls(budget):
    # an admissibility oracle that does not read threshold: every component
    # from i_k on maps B(e, max(k, S_k)) injectively, and with exact radii
    # component i_k - 1 does not (or no component qualifies at all)
    assembled = 0
    for filtration in random_filtrations(budget):
        box = build_box_space(filtration)
        quotients = [g.quotient for g in box.components]
        profile = isometry_profile(box, budget)
        exact = all(r.exact for r in profile.radii)
        for k in range(1, 5):
            i = profile.threshold(k)
            ok = [verify_ball_isometry(q, k) for q in quotients]
            if i is not None:
                assert all(ok[i:]), (filtration, k)
            j = len(ok) if i is None else i     # the component before i_k holds no copy
            if exact and j:
                assert not ok[j - 1], (filtration, k)
        covers = {}
        for k in (1, 2):
            cover = next((c for S in range(k + 1, 4 * k + 2)
                          if (c := box_witness_cover(box, k, S, "greedy")) is not None), None)
            if cover is not None:
                covers[k] = cover[0]
        try:
            asm = assemble_box_families(box, covers, profile)
        except ConfigError as e:
            assert "no component usable" in str(e)
            continue
        assembled += 1
        assert asm.report.ok
        for k in asm.scales:
            i, radius = asm.thresholds[k], max(k, asm.scale_diameters[k])
            assert all(verify_ball_isometry(q, radius) for q in quotients[i:]), (filtration, k)
            if exact and i:
                assert not verify_ball_isometry(quotients[i - 1], radius)
            kept = asm.families[k].part_comp
            assert (kept >= i).all()
    assert assembled >= 4


def view_assembly(box, covers_by_scale, profile):
    """assemble_box_families as it was, on honest inputs: the kept sets
    merged as CoverSet views, family_violations per (scale, family), and
    the subtraction identity on Covers rebuilt from the views."""
    scales = sorted(covers_by_scale)
    n_fam = max(covers_by_scale[k].n_families for k in scales)
    oracle_diam = {}
    for k in scales:
        cover = covers_by_scale[k]
        diameters = covers_module._set_diameters(
            cover.layout, cover.n_sets(), cover.centers, cover.radii)[0]
        one_part = np.bincount(cover.part_set, minlength=cover.n_sets()) == 1
        oracle_diam[k] = int(diameters[one_part].max(initial=0))
    i_k = {k: profile.threshold(max(k, oracle_diam[k])) for k in scales}
    upper = {k: (i_k[scales[idx + 1]] if idx + 1 < len(scales) else box.component_count)
             for idx, k in enumerate(scales)}
    buckets = {}
    for k in scales:
        cover = covers_by_scale[k]
        low = np.full(cover.n_sets(), box.component_count)
        high = np.full(cover.n_sets(), -1)
        np.minimum.at(low, cover.part_set, cover.part_comp)
        np.maximum.at(high, cover.part_set, cover.part_comp)
        keep = np.flatnonzero((low == high) & (i_k[k] <= low) & (low < upper[k]))
        buckets[k] = cover.take(keep, cover.set_family[keep], n_fam).families
    families = {}
    for idx, k in enumerate(scales):
        fams = []
        for j in range(n_fam):
            merged = []
            for k2 in scales[idx:]:
                merged.extend(buckets[k2][j])
            fams.append(tuple(merged))
        families[k] = tuple(fams)
    disjointness, violations = [], []
    for k in scales:
        for j, fam in enumerate(families[k]):
            viol = family_violations(box, fam, k)
            if viol:
                disjointness.append((k, j, min(d for _, _, d in viol)))
                violations.extend((k, j, a, b, d) for a, b, d in viol)
            else:
                disjointness.append((k, j, None))

    def point_sets(fam, lo=None):
        c = Cover(box, (fam,))
        first = c.set_parts()
        comp, bounds = c.part_comp[first[:-1]].tolist(), c.offsets[first].tolist()
        return {(comp[i], np.unique(c.ids[a:b]).tobytes())
                for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
                if lo is None or (comp[i] >= lo and b > a)}

    subtraction_ok = all(point_sets(families[scales[0]][j], i_k[k]) == point_sets(families[k][j])
                         for k in scales for j in range(n_fam))
    report = covers_module.AssemblyReport(tuple(disjointness), tuple(violations), subtraction_ok)
    return covers_module.FamilyAssembly(tuple(scales), i_k, oracle_diam, families,
                                        {k: tuple(range(i_k[k])) for k in scales}, report)


def prop41_scale_covers(box):
    """Criterion 7's inputs: the regrouped packing covers at k = 1, 2, 3."""
    growth = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 0))
    return {k: families_from_multiplicity_cover(cover_prop41(box, k, growth)[0], k)[0]
            for k in (1, 2, 3)}


def with_low_straddler(box):
    covers = scale_covers(box)
    low = CoverSet(label="low", parts=((0, (0, 1)), (1, (0, 1))))
    fam0 = covers[4].families[0] + (low,)
    return {1: covers[1], 4: Cover(space=box, families=(fam0, covers[4].families[1]))}


@pytest.mark.parametrize("moduli, make, profile", [
    ((2, 4, 8, 16, 32, 64, 128, 256), scale_covers, None),
    ((2, 4, 8, 16, 32, 64, 128, 256), scale_covers, BAD_THRESHOLDS),
    ((2, 4, 8, 16, 32, 64, 128, 256), with_low_straddler, None),
    (tuple(2 ** t for t in range(1, 11)), prop41_scale_covers, None),
], ids=["honest", "bad threshold", "straddler below window", "criterion 7"])
def test_assembly_matches_the_view_assembly(moduli, make, profile):
    box = z_box(*moduli)
    profile = profile or isometry_profile(box)
    covers = make(box)
    got = assemble_box_families(box, covers, profile)
    want = view_assembly(box, covers, profile)
    assert {k: c.families for k, c in got.families.items()} == want.families
    assert (got.scales, got.thresholds, got.scale_diameters, got.finite_parts, got.report) == (
        want.scales, want.thresholds, want.scale_diameters, want.finite_parts, want.report)
    assert all(c.space is box for c in got.families.values())


@pytest.mark.parametrize("extra, message", [
    (arc_set("empty", 5, ()), "empty set 'empty'"),
    (arc_set("far", 5, (10 ** 6,)), "set 'far' references vertex 1000000 of component 5"),
    (arc_set("off", 9, (0,)), "set 'off' references component 9"),
    (arc_set("k8.c4.a0", 6, (0,)), "duplicate set label 'k8.c4.a0'"),
], ids=["empty set", "vertex past the component", "component past the box", "repeated label"])
def test_assembly_refuses_malformed_scale_covers(extra, message):
    # each was trusted: a failed subtraction identity with no violation, a
    # bare IndexError, a straddler "on components [9]", a second set measured
    box = eight_component_box()
    covers = scale_covers(box)
    fam0 = covers[4].families[0] + (extra,)
    covers[4] = Cover(space=box, families=(fam0, covers[4].families[1]))
    with pytest.raises(ConfigError, match=re.escape(message)):
        assemble_box_families(box, covers, isometry_profile(box))


def test_assembly_refuses_a_part_with_no_ids():
    box = eight_component_box()
    covers = scale_covers(box)
    hollow = CoverSet("hollow", ((5, (0,)), (6, ())))
    covers[4] = Cover(space=box, families=(covers[4].families[0] + (hollow,),
                                           covers[4].families[1]))
    with pytest.raises(ConfigError, match="set 'hollow' has no ids on component 6"):
        assemble_box_families(box, covers, isometry_profile(box))


def test_src_builds_no_cover_views():
    # CoverSet views are the API's; the library works on Cover arrays, and
    # only family_violations converts a sequence of views on entry
    src = Path(__file__).resolve().parent.parent / "src" / "boxdim"
    allowed = {("covers.py", "Cover"), ("covers.py", "CoverSet"),
               ("covers.py", "family_violations", "Cover(")}
    offenders = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", None))
            if where in allowed:
                continue
            for node in ast.walk(top):
                f = node.func if isinstance(node, ast.Call) else None
                if isinstance(node, ast.Attribute) and node.attr == "families":
                    use = ".families"
                elif isinstance(f, ast.Attribute) and f.attr == "all_sets":
                    use = ".all_sets()"
                elif isinstance(f, ast.Name) and f.id in ("Cover", "CoverSet"):
                    use = f.id + "("
                else:
                    continue
                if (*where, use) not in allowed:
                    offenders.append((*where, use, node.lineno))
    assert offenders == []


def test_bad_regrouping_still_raises(monkeypatch):
    box = z_box(12)
    g = box.components[0]
    cover = Cover(space=box, families=(tuple(arc_set(f"b{c}", 0, g.ball_ids(c, 2))
                                             for c in (0, 3, 6, 9)),))
    monkeypatch.setattr(covers_module, "first_fit_colors",
                        lambda n, a, b: np.zeros(n, dtype=np.int64))
    with pytest.raises(VerificationError,
                       match=re.escape("regrouped family 0 is not 2-disjoint: ('b0', 'b3', 0)")):
        families_from_multiplicity_cover(cover, R=2)


# --- diagonal transfer ------------------------------------------------------------

Z = free_abelian(1)


def striped(radius, flip=False):
    out = {}
    for x in range(-radius, radius + 1):
        fam = (x // 4) % 2
        out[(x,)] = 1 - fam if flip else fam
    return out


def test_transfer_agreeing_inputs():
    inputs = [(r, striped(r)) for r in (10, 15, 20, 25, 30)]
    res = diagonal_transfer(Z, inputs, R=2, S=3, r0=4)
    assert len(res.coloring) == 9
    assert res.surviving_radii == (10, 15, 20, 25, 30)
    assert res.discarded_radii == ()
    for x in range(-4, 5):
        assert res.coloring[(x,)] == (x // 4) % 2


def test_transfer_majority_discards_disagreement():
    inputs = [(10, striped(10)), (15, striped(15, flip=True)), (20, striped(20))]
    res = diagonal_transfer(Z, inputs, R=2, S=3, r0=4)
    assert res.discarded_radii == (15,)
    for x in range(-4, 5):
        assert res.coloring[(x,)] == (x // 4) % 2


def test_transfer_single_input_is_restriction():
    res = diagonal_transfer(Z, [(10, striped(10))], R=2, S=3, r0=4)
    assert res.surviving_radii == (10,)
    assert res.coloring == {(x,): (x // 4) % 2 for x in range(-4, 5)}


def test_transfer_monochrome_needs_large_s():
    inputs = [(12, {(x,): 0 for x in range(-12, 13)})]
    res = diagonal_transfer(Z, inputs, R=2, S=8, r0=2)
    assert set(res.coloring.values()) == {0}


def test_transfer_invalid_input_raises_designated_error():
    # a single monochrome cover with S too small: the restriction is one
    # <2-connected cluster of diameter 8 > 3, so the stitched coloring
    # cannot verify and the designated error is raised
    inputs = [(10, {(x,): 0 for x in range(-10, 11)})]
    with pytest.raises(InsufficientInputError):
        diagonal_transfer(Z, inputs, R=2, S=3, r0=4)


def test_transfer_missing_element_raises():
    partial = {(x,): (x // 4) % 2 for x in range(0, 11)}
    with pytest.raises(InsufficientInputError):
        diagonal_transfer(Z, [(10, partial)], R=2, S=3, r0=4)


def test_transfer_validates_preconditions():
    with pytest.raises(ConfigError):
        diagonal_transfer(Z, [(8, striped(8))], R=2, S=3, r0=4)
    with pytest.raises(ConfigError):
        diagonal_transfer(Z, [(10, striped(10)), (10, striped(10))], R=2, S=3, r0=4)
    with pytest.raises(ConfigError):
        diagonal_transfer(Z, [(10, {(x,): 5 for x in range(-10, 11)})],
                          R=2, S=3, r0=2, n=1)
    with pytest.raises(InsufficientInputError):
        diagonal_transfer(Z, [], R=2, S=3, r0=4)


def test_transfer_result_is_valid_coloring():
    # independent check of the (R, S) property on the output
    res = diagonal_transfer(Z, [(r, striped(r)) for r in (10, 14)], R=2, S=3, r0=4)
    pts = sorted(res.coloring)
    for color in set(res.coloring.values()):
        run = [x for (x,) in pts if res.coloring[(x,)] == color]
        # clusters are maximal runs of consecutive integers
        cluster = [run[0]]
        for x in run[1:]:
            if x - cluster[-1] < 2:
                cluster.append(x)
            else:
                assert cluster[-1] - cluster[0] <= 3
                cluster = [x]
        assert cluster[-1] - cluster[0] <= 3
