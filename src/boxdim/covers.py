"""Bounded-multiplicity covers of box spaces and the family machinery.

The constructive core: a doubling-radius search over the geometric ladder
4^i R, greedy maximal packings, the packing-ball cover whose R-multiplicity
is at most K = 4^d + 1, exact verification of covers (coverage, diameters,
R-disjointness, multiplicity), regrouping a bounded-multiplicity cover into
R-disjoint families, the per-scale family assembly over a box space, and
the diagonal transfer of covers from large balls onto a small one.

Everything here is exact: rational arithmetic for the parameter ladder,
integer BFS for every distance, and every certified bound is re-derived
from the data rather than trusted from the construction.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import chain

import numpy as np

from .boxspace import BoxSpace, CoarseUnion, ball_space, thread_map
from .cayley import (
    PAIR_CAP,
    CayleyGraph,
    GrowthBound,
    checked_ids,
    coords_invert,
    coords_multiply,
    product_ids,
    sorted_distinct,
)
from .errors import (
    ConfigError,
    GrowthBoundError,
    InsufficientInputError,
    VerificationError,
    check_int,
)
from .groups import GroupSpec

# Rows per batched verifier block: translated ball points for multiplicity,
# set points for diameter keys.  It bounds the verifier's extra memory, so it
# is a memory decision, not a speed knob.
ROW_BLOCK = 50_000


@dataclass(frozen=True)
class CoverParams:
    """Exact parameter ladder for the packing cover at scale R.

    K = 4^d + 1; m is the smallest integer with (K/4^d)^m >= C R^d; the
    diameter budget is S_0 = 4^(m+1) R.  m is confirmed by exact integer
    comparisons, so the ladder is reproducible bit for bit.
    """

    R: int
    C: Fraction
    d: int
    m: int
    S_0: int

    @property
    def K(self) -> int:
        """4^d + 1, built only where it is compared or reported."""
        return 4 ** self.d + 1

    @classmethod
    def from_growth(cls, R: int, growth: GrowthBound) -> "CoverParams":
        R = check_int("R", R, 1)
        C = Fraction(growth.C)
        d = int(growth.d)
        if C <= 0 or d < 0:
            raise ConfigError("invalid growth bound: need C > 0 and d >= 0")
        # m = log(C R^d) / log(1 + 4^-d) in floats, then confirmed exactly
        # as the least m with K^m C.den >= C.num R^d 2^(2dm)
        step = math.log1p(0.25 ** d)
        log_target = math.log(C.numerator) - math.log(C.denominator) + d * math.log(R)
        if log_target > 0 and not log_target <= step * (10 ** 6 + 1):
            raise ConfigError("parameter ladder did not converge")

        def holds(m):
            # K^m, never built at m = 0: there a huge d reaches the growth check
            K_m = (4 ** d + 1) ** m if m else 1
            return K_m * C.denominator >= C.numerator * R ** d << (2 * d * m)

        m = math.ceil(log_target / step) if log_target > 0 else 0
        while m > 0 and holds(m - 1):
            m -= 1
        while not holds(m):
            m += 1
        if m > 10 ** 6:
            raise ConfigError("parameter ladder did not converge")
        return cls(R=R, C=C, d=d, m=m, S_0=4 ** (m + 1) * R)


def check_growth_bound(graph, growth: GrowthBound, up_to: int | None = None) -> None:
    """Assert |B(e, r)| <= C r^d on the quotient for 1 <= r <= up_to.

    Ball sizes saturate at |V| once r reaches the diameter, so checking up
    to the diameter covers every larger radius as well.
    """
    limit = graph.diameter if up_to is None else min(up_to, graph.diameter)
    sizes = np.cumsum(graph.sphere_sizes())
    for r in range(1, limit + 1):
        if not growth.check(r, int(sizes[r])):
            raise GrowthBoundError(
                f"growth bound |B(e, r)| <= C r^d fails on modulus "
                f"{graph.modulus} at r={r}: |B(e,{r})| = {int(sizes[r])} > C r^d")


def doubling_radius(graph, params: CoverParams) -> int:
    """Smallest R_n = 4^i R (i <= m) with |B(4 R_n)| <= K |B(R_n)|.

    The growth precondition makes failure of every rung impossible: the
    sizes would then multiply past C S_0^d.  A defensive error remains for
    the unreachable branch.
    """
    check_growth_bound(graph, GrowthBound(C=params.C, d=params.d,
                                          validated_range=(1, params.S_0)),
                       up_to=params.S_0)
    for i in range(params.m + 1):
        r = 4 ** i * params.R
        if graph.ball_size(4 * r) <= params.K * graph.ball_size(r):
            return r
    raise VerificationError(
        "no doubling radius on the ladder; the growth precondition must "
        "have been violated")


def maximal_packing(graph, radius: int) -> np.ndarray:
    """Greedy maximal set of centers whose radius-balls are pairwise disjoint.

    Scans vertex ids in ascending order; a vertex is taken unless its ball
    would meet an earlier chosen ball, i.e. unless it lies within 2*radius
    of a chosen center.  Ascending order makes the packing canonical.
    """
    check_int("packing radius", radius, 1)
    blocked = np.zeros(graph.n_vertices, dtype=bool)
    centers = []
    for v in range(graph.n_vertices):
        if not blocked[v]:
            centers.append(v)
            blocked[graph.ball_ids(v, 2 * radius)] = True
    return np.array(centers, dtype=np.int64)


def packing_count_max(graph, centers: np.ndarray, radius: int) -> int:
    """max_z |B(z, 3*radius) ∩ centers|, counted on one dilation of the centers."""
    n = graph.n_vertices
    counts = np.zeros(n, dtype=np.int64)
    for _, v, _ in _dilation(_parts(graph, checked_ids(centers, n)), 3 * radius):
        counts += np.bincount(v, minlength=n)
    return int(counts.max())


# --- cover data model --------------------------------------------------------

@dataclass(frozen=True)
class CoverSet:
    """One set of a cover as the API shows it: vertex ids grouped by
    component.  center/radius are bookkeeping for ball sets; label is unique
    within a cover and is what witnesses refer to.  A Cover stores its sets
    as flat arrays and builds CoverSets only when asked for them.
    """

    label: str
    parts: tuple                 # ((component_index, tuple_of_ids), ...)
    center: tuple | None = None
    radius: int | None = None

    def n_points(self) -> int:
        return sum(len(ids) for _, ids in self.parts)

    def points(self):
        for ci, ids in self.parts:
            for v in ids:
                yield (ci, v)


def _ranges(lo, hi) -> np.ndarray:
    """np.arange(lo[k], hi[k]) for every k, concatenated."""
    n = np.asarray(hi, dtype=np.int64) - lo
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum(), dtype=np.int64)


class Cover:
    """Families of sets covering space, stored flat in all_sets() order.

    Per set: set_family (non-decreasing) and labels.  Per part: part_set
    (non-decreasing) and part_comp; part k lists ids[offsets[k]:offsets[k +
    1]].  centers and radii map the indices of the sets that have one.
    Cover(space, families) converts tuples of CoverSets once;
    Cover.from_arrays takes the arrays, with part lengths for offsets.
    families and all_sets() build CoverSet views with plain ints on demand.
    """

    def __init__(self, space, families):
        sets = [(j, s) for j, fam in enumerate(families) for s in fam]
        parts = [(i, ci, ids) for i, (_, s) in enumerate(sets) for ci, ids in s.parts]
        self._assign(space, len(families), [j for j, _ in sets], [s.label for _, s in sets],
                     [i for i, _, _ in parts], [ci for _, ci, _ in parts],
                     [len(ids) for *_, ids in parts],
                     np.fromiter(chain.from_iterable(ids for *_, ids in parts), np.int64),
                     {i: s.center for i, (_, s) in enumerate(sets) if s.center is not None},
                     {i: s.radius for i, (_, s) in enumerate(sets) if s.radius is not None})

    @classmethod
    def from_arrays(cls, space, n_families, set_family, labels, part_set, part_comp,
                    lengths, ids, centers=None, radii=None) -> "Cover":
        cover = cls.__new__(cls)
        cover._assign(space, n_families, set_family, labels, part_set, part_comp,
                      lengths, ids, centers or {}, radii or {})
        return cover

    def _assign(self, space, n_families, set_family, labels, part_set, part_comp,
                lengths, ids, centers, radii):
        self.space, self.n_families = space, n_families
        self.set_family = np.asarray(set_family, dtype=np.int64)
        self.labels = list(labels)
        self.part_set = np.asarray(part_set, dtype=np.int64)
        self.part_comp = np.asarray(part_comp, dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        self.ids = np.asarray(ids, dtype=np.int64)
        self.centers, self.radii = centers, radii

    def n_sets(self) -> int:
        return len(self.labels)

    def set_parts(self) -> np.ndarray:
        """Set i has the parts set_parts()[i]:set_parts()[i + 1]."""
        return np.searchsorted(self.part_set, np.arange(self.n_sets() + 1))

    def set_sizes(self) -> np.ndarray:
        """Ids listed per set, repeats included."""
        return np.bincount(self.part_set, np.diff(self.offsets),
                           minlength=self.n_sets()).astype(np.int64)

    def all_sets(self):
        ids, off = self.ids.tolist(), self.offsets.tolist()
        comps, bounds = self.part_comp.tolist(), self.set_parts().tolist()
        for i, j in enumerate(self.set_family.tolist()):
            parts = tuple((comps[k], tuple(ids[off[k]:off[k + 1]]))
                          for k in range(bounds[i], bounds[i + 1]))
            yield j, CoverSet(self.labels[i], parts, self.centers.get(i), self.radii.get(i))

    @property
    def families(self) -> tuple:
        sets = list(self.all_sets())
        return tuple(tuple(s for i, s in sets if i == j) for j in range(self.n_families))

    def take(self, sets, set_family, n_families: int) -> "Cover":
        """The cover made of the given sets in the given families, stably
        ordered by family."""
        order = np.argsort(set_family, kind="stable")
        sets = np.asarray(sets, dtype=np.int64)[order]
        set_family = np.asarray(set_family)[order]
        bounds = self.set_parts()
        parts = _ranges(bounds[sets], bounds[sets + 1])
        pos = dict(zip(sets.tolist(), range(len(sets))))
        return Cover.from_arrays(
            self.space, n_families, set_family, [self.labels[i] for i in sets.tolist()],
            np.repeat(np.arange(len(sets)), bounds[sets + 1] - bounds[sets]),
            self.part_comp[parts], np.diff(self.offsets)[parts],
            self.ids[_ranges(self.offsets[parts], self.offsets[parts + 1])],
            {pos[i]: c for i, c in self.centers.items() if i in pos},
            {pos[i]: r for i, r in self.radii.items() if i in pos})

    @property
    def layout(self) -> list:
        """One _Parts per component of the space, split from the arrays on
        each access; parts on other component indices are dropped."""
        lengths = np.diff(self.offsets)
        row_comp = np.repeat(self.part_comp, lengths)
        out = []
        for ci, comp in enumerate(self.space.components):
            on = self.part_comp == ci
            out.append(_parts(comp, self.ids[row_comp == ci], lengths[on], self.part_set[on]))
        return out


@dataclass(frozen=True)
class _Parts:
    """The parts of a sequence of sets on one component, concatenated in set
    order.  Each set has at most one part per component (validate_cover
    rejects a repeated component), so set indices identify parts."""

    comp: object                 # the component the ids are vertices of
    ids: np.ndarray              # int64 vertex ids
    owner: np.ndarray            # int64 index of the set each id belongs to
    sets: np.ndarray             # int64 index of the set of each part, increasing
    offsets: np.ndarray          # part k is ids[offsets[k]:offsets[k + 1]]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def part(self, k: int) -> np.ndarray:
        return self.ids[self.offsets[k]:self.offsets[k + 1]]

    @cached_property
    def classes(self):
        """The translation classes of the parts: (cls, first), part k in
        class cls[k] and class c's first part first[c], its smallest index.
        Every part Q of the class of P is the translate t P, repeated ids
        alike, for t = x_Q x_P^-1 with x a part's first id, so Q's diameter
        and dilation are P's translated.  Computed on first use.

        Classes come from the ids alone.  A length held by one part is its own
        class; the parts of each other length are keyed by class_keys in blocks
        of at most ROW_BLOCK ids, and a class met in several blocks is one
        class per block.  Parts holding fewer than ROW_BLOCK // 4 ids in all,
        less than one block of translated rows, are each their own class: on
        so few the keys and translations cost more than the kernel saves.  On
        a component other than a Cayley graph each part is its own class.
        """
        lengths = self.lengths
        if self.ids.size < ROW_BLOCK // 4 or not isinstance(self.comp, CayleyGraph):
            return np.arange(len(lengths)), np.arange(len(lengths))
        order = np.argsort(lengths, kind="stable")
        cls = np.empty(len(lengths), dtype=np.int64)
        first = [np.zeros(0, dtype=np.int64)]
        n = 0
        for ks in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
            L = int(lengths[ks[0]]) if ks.size else 0
            step = max(1, ROW_BLOCK // max(L, 1))
            for lo in range(0, len(ks), step):
                block = ks[lo:lo + step]
                if block.size == 1 or not L:
                    at = inverse = np.arange(block.size)
                else:
                    at, inverse = self.comp.class_keys(self.ids[self.offsets[block][:, None]
                                                                + np.arange(L)])
                cls[block] = inverse + n
                first.append(block[at])
                n += at.size
        return cls, np.concatenate(first)


def _parts(comp, ids, lengths=None, sets=None) -> _Parts:
    """The _Parts on comp of the sets named by sets (0, 1, ... when None),
    set sets[k] listing the next lengths[k] of ids; one id per set when
    lengths is None."""
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.ones(ids.size, dtype=np.int64) if lengths is None else np.asarray(lengths)
    sets = np.arange(len(lengths)) if sets is None else sets
    return _Parts(comp, ids=ids, owner=np.repeat(sets, lengths), sets=sets,
                  offsets=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))))


def validate_cover(cover: Cover, layout: list) -> None:
    """Reject malformed covers; layout is cover.layout.  The checks run in
    turn over all sets: unique labels, no empty set or part, component
    indices in range and not repeated within a set, then vertex ids in
    range."""
    labels, ps, pc = cover.labels, cover.part_set, cover.part_comp
    if len(set(labels)) != len(labels):
        seen = set()
        raise ConfigError("duplicate set label "
                          f"{next(x for x in labels if x in seen or seen.add(x))!r}")
    empty = np.flatnonzero(cover.set_sizes() == 0)
    if empty.size:
        raise ConfigError(f"empty set {labels[empty[0]]!r}")
    hollow = np.flatnonzero(np.diff(cover.offsets) == 0)
    if hollow.size:
        raise ConfigError(f"set {labels[ps[hollow[0]]]!r} has no ids on "
                          f"component {pc[hollow[0]]}")
    bad = np.flatnonzero((pc < 0) | (pc >= len(cover.space.components)))
    if bad.size:
        raise ConfigError(f"set {labels[ps[bad[0]]]!r} references component {pc[bad[0]]}")
    o = np.lexsort((pc, ps))
    twice = np.flatnonzero((np.diff(ps[o]) == 0) & (np.diff(pc[o]) == 0))
    if twice.size:
        raise ConfigError(f"set {labels[ps[o[twice[0]]]]!r} lists a component twice")
    for ci, parts in enumerate(layout):
        n = parts.comp.n_vertices
        if parts.ids.size and (parts.ids.min() < 0 or parts.ids.max() >= n):
            k = int(np.flatnonzero((parts.ids < 0) | (parts.ids >= n))[0])
            raise ConfigError(f"set {labels[parts.owner[k]]!r} references vertex "
                              f"{parts.ids[k]} of component {ci}")


@dataclass(frozen=True)
class CoverReport:
    """Verification outcome; witness fields are None/empty exactly when the
    corresponding property holds."""

    R: int
    S: int | None
    is_cover: bool
    uncovered_witness: tuple | None
    max_set_diameter: int
    diameters_exact: bool
    oversized_witness: tuple | None          # (label, diameter)
    family_min_distances: tuple              # per family: int < R, or None (>= R verified)
    close_pair_witnesses: tuple              # (family, label_a, label_b, distance)
    r_multiplicity: int
    doubling_radii: tuple | None = None      # packing-cover extras
    packing_counts: tuple | None = None
    params: CoverParams | None = None

    @property
    def ok(self) -> bool:
        return (self.is_cover and self.oversized_witness is None
                and not self.close_pair_witnesses)


# --- exact geometry helpers --------------------------------------------------

def _set_diameters(layout, n_sets: int, centers=None, radii=None):
    """(diameters, exact): the diameter of every set the layout was built
    from, by set index, and whether none is a bound.  centers and radii
    are the cover's ball hints, by set index.  A component's classes are
    computed only if a part is left to measure after the hints.

    A set with parts on several components has diameter at least the
    cross distance of any two of them, the sum of their diameters; the
    largest such sum is that of its two largest component diameters.
    """
    centers, radii = centers or {}, radii or {}
    hints = {i: (centers[i], radii[i]) for i in centers.keys() & radii.keys()}
    out = np.zeros(n_sets, dtype=np.int64)
    top = np.full((2, n_sets), -1, dtype=np.int64)
    exact = True
    for ci, parts in enumerate(layout):
        s = parts.sets
        balls = {k: hints[i] for k, i in enumerate(s.tolist()) if i in hints} if hints else {}
        d, ok = _part_diameters(ci, parts, balls)
        out[s] = np.maximum(out[s], d)
        exact = exact and ok
        top[1, s] = np.maximum(top[1, s], np.minimum(top[0, s], parts.comp.diameter))
        top[0, s] = np.maximum(top[0, s], parts.comp.diameter)
    return np.maximum(out, np.where(top[1] >= 0, top[0] + top[1], 0)), exact


def _part_diameters(ci: int, parts: _Parts, balls: dict):
    """(diameters, exact) of the parts on component ci; balls maps part
    indices to their sets' (center, radius) hints.

    On a Cayley graph a part that is exactly the ball B(c, r) its set's
    center and radius name has diameter min(2r, diam) (CayleyGraph.is_ball);
    the hint is only a candidate.  There a part past PAIR_CAP comparisons
    gets a bound, and exact is False.  Every other part's diameter depends
    only on its translation class (_Parts.classes): each class some part
    still needs is measured once, on its first part, by row_diameters.
    """
    comp, lengths = parts.comp, parts.lengths
    out = np.zeros(len(lengths), dtype=np.int64)
    todo = lengths > 1
    exact = True
    # the whole component; vertex transitivity gives the diameter
    whole = todo & (lengths >= comp.n_vertices)
    for k in np.flatnonzero(whole):
        whole[k] = sorted_distinct(parts.part(k)).size == comp.n_vertices
    out[whole] = comp.diameter
    todo &= ~whole
    if isinstance(comp, CayleyGraph):
        for k, (center, radius) in balls.items():
            if todo[k]:
                d = _ball_diameter(ci, comp, parts.part(k), center, radius)
                if d is not None:
                    out[k], todo[k] = d, False
        big = todo & (lengths ** 2 > PAIR_CAP)
        exact = not big.any()
        for k in np.flatnonzero(big):
            # certified upper bound via the triangle inequality through any
            # fixed member; flagged, never silently treated as exact
            ids = parts.part(k)
            out[k] = int(comp.distances_from(int(ids[0]), ids).max()) * 2
        todo &= ~big
    if not todo.any():
        return out, exact
    cls, first = parts.classes
    need = sorted_distinct(cls[todo])
    diam, need_lengths = np.zeros(len(first), dtype=np.int64), lengths[first[need]]
    for L in sorted_distinct(need_lengths).tolist():
        at = need[need_lengths == L]
        diam[at] = comp.row_diameters(parts.ids[parts.offsets[first[at]][:, None]
                                                + np.arange(L)], ROW_BLOCK)
    out[todo] = diam[cls[todo]]
    return out, exact


def _ball_diameter(ci: int, comp: CayleyGraph, ids, center, radius):
    """min(2r, diam) when the distinct ids are B(c, r) for center = (ci, c)
    and radius = r >= 0, else None; a malformed hint is None too."""
    try:
        cc, c = center
        cc, c, r = operator.index(cc), operator.index(c), operator.index(radius)
    except (TypeError, ValueError):
        return None
    if cc != ci or not 0 <= c < comp.n_vertices or r < 0 or not comp.is_ball(ids, c, r):
        return None
    return min(2 * r, comp.diameter)


def _dilation(parts: _Parts, r: int):
    """Blocks (part, vertex, distance) of int64 arrays: one row for each
    part k of parts and vertex v with d(part k, v) <= r, the distance exact.

    On a Cayley graph B(v, r) = v B(e, r), so a part P reaches v through its
    own ids (distance 0) and the identity ball translated onto its edge
    points, the points of P with a neighbour outside P; each ball point
    carries its distance from e.  This is exact: a geodesic from P to v
    last leaves P at an edge point a, and then d(a, v) = d(P, v).  Parts
    are expanded in blocks of at most ROW_BLOCK rows, and one sort of
    (part, vertex, d) packed into one integer keeps the smallest distance
    per (part, vertex).  A part whose expansion alone passes a block, and
    every part of several points on another kind of component, is read from
    its distance field; there one-point parts read whole matrix rows, about
    ROW_BLOCK distances a block.
    """
    comp, lengths = parts.comp, parts.lengths
    n, r = comp.n_vertices, min(r, comp.diameter)
    big = lengths != 1
    if isinstance(comp, CayleyGraph):
        ball = comp.identity_ball_ids(r)
        # the owner table names one set per vertex; where sets overlap, edge
        # may hold extra points, which only adds rows
        vowner = np.full(n, -1, dtype=np.int64)
        vowner[parts.ids] = parts.owner
        edge = np.zeros(len(parts.ids), dtype=bool)
        for column in comp.adjacency.T:
            edge |= vowner[column[parts.ids]] != parts.owner
        n_edge = np.diff(np.concatenate(([0], np.cumsum(edge)))[parts.offsets])
        rows = lengths + n_edge * ball.size
        big = rows > ROW_BLOCK
    for k in np.flatnonzero(big):
        d = comp.distances_to(parts.part(k), cap=r)
        v = np.flatnonzero(d >= 0)
        yield np.full(v.size, k), v, d[v].astype(np.int64)
    if not isinstance(comp, CayleyGraph):
        one = np.flatnonzero(~big)
        step = max(1, ROW_BLOCK // n)
        for lo in range(0, one.size, step):
            d = comp.dist_matrix[parts.ids[parts.offsets[one[lo:lo + step]]]]
            k, v = np.nonzero(d <= r)
            yield one[lo + k], v, d[k, v].astype(np.int64)
        return
    if big.all():
        return

    at = np.repeat(~big, lengths)
    ids, part, edge = parts.ids[at], np.repeat(np.arange(len(lengths)), lengths)[at], edge[at]
    bounds = np.concatenate(([0], np.cumsum(lengths[~big])))
    ends = np.cumsum(rows[~big])
    ball_coords, ball_d = comp.coords[ball][None, :, :], comp.dist[ball].astype(np.int64)
    # a part here has |B(e, r)| <= ROW_BLOCK, or no edge point and V <= ROW_BLOCK:
    # its index and r stay below 2^16, so the packed key fits while V < 2^31
    vb, db = (n - 1).bit_length(), r.bit_length()
    lo = 0
    while lo < len(ends):
        hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + ROW_BLOCK,
                                 side="right"))
        v, p, e = (a[bounds[lo]:bounds[hi]] for a in (ids, part, edge))
        p0 = p[0]
        p = p - p0
        # one key array per block, decoded in place: few block-sized temporaries
        n_moved = int(np.count_nonzero(e)) * ball.size
        keys = np.empty(n_moved + v.size, dtype=np.int64)
        moved = keys[:n_moved].reshape(-1, ball.size)
        np.add(product_ids(comp.spec, comp.coords[v[e]][:, None, :], ball_coords, comp.modulus),
               p[e][:, None] << vb, out=moved, casting="unsafe")
        moved <<= db
        moved |= ball_d
        del moved                   # so the array dies when the dedup replaces it
        keys[n_moved:] = (p << vb | v) << db
        keys = sorted_distinct(keys, db)
        d = keys & ((1 << db) - 1)
        keys >>= db
        v = keys & ((1 << vb) - 1)
        keys >>= vb
        keys += p0
        yield keys, v, d
        lo = hi


def _class_dilation(parts: _Parts, r: int):
    """The rows of _dilation(parts, r), from the kernel run on the first
    part of each class (_Parts.classes) only.

    A part Q = t P of the class of P has the rows (Q, t v, d) for P's rows
    (P, v, d): left translation is an isometry, so d(tP, tv) = d(P, v).
    The translates are built per class in blocks of at most ROW_BLOCK // 4
    rows (one part's rows at least), with one product_ids each and no sort
    or dedup.  Where no class has two parts, as on a component other than
    a Cayley graph, every part goes through the kernel.
    """
    cls, first = parts.classes
    if len(first) == len(cls):
        yield from _dilation(parts, r)
        return
    comp = parts.comp
    reps = _parts(comp, parts.ids[_ranges(parts.offsets[first], parts.offsets[first + 1])],
                  parts.lengths[first], parts.sets[first])
    # class c's parts are order[bounds[c]:bounds[c + 1]], its first part first
    order = np.argsort(cls, kind="stable")
    bounds = np.searchsorted(cls[order], np.arange(len(first) + 1))
    spec, m = comp.spec, comp.modulus
    for c, v, d in _dilation(reps, r):
        yield first[c], v, d
        # the kernel's rows come sorted by part: class c[lo] has the rows lo:hi
        lo = np.flatnonzero(np.diff(c, prepend=-1))
        hi = np.append(lo[1:], c.size)
        c, n_members = c[lo], bounds[c[lo] + 1] - bounds[c[lo]] - 1
        # the other parts Q of these classes, each with t = x_Q x_P^-1 for
        # the class's first part P; class c[h] has those of end[h - 1]:end[h]
        q = order[_ranges(bounds[c] + 1, bounds[c + 1])]
        x = comp.coords[parts.ids[parts.offsets[np.stack((q, first[cls[q]]))]]]
        t = coords_multiply(spec, x[0], coords_invert(spec, x[1], m), m)
        end = np.cumsum(n_members)
        for e, n, i, j in zip(*(a[n_members > 0].tolist() for a in (end, n_members, lo, hi))):
            reached = comp.coords[v[i:j]][None, :, :]
            step = max(1, ROW_BLOCK // 4 // (j - i))
            for a in range(e - n, e, step):
                b = min(a + step, e)
                yield (np.repeat(q[a:b], j - i),
                       product_ids(spec, t[a:b, None, :], reached, m).astype(np.int64).ravel(),
                       np.tile(d[i:j], b - a))


def _near_sets(space, layout: list, fam, R: int, disjoint: bool = True):
    """(R-multiplicity, close pairs) of a cover of space from one _dilation
    pass per component at radius R, by translation class (_class_dilation);
    layout is the cover's layout and fam[i] the family of its set i.

    The multiplicity is the max over points of the number of sets meeting
    B(point, R).  A set reaches the whole of component cj through another
    of its components ci whenever diam(ci) + diam(cj) <= R; otherwise it
    reaches the R-dilation of its part on cj, if it has one.

    The close pairs, when disjoint, are arrays (a, b, d): every pair a < b
    of sets of one family closer than R, with the exact distance.  The
    dilation rows with d < R are joined against the sets holding their
    vertex, looked up by vertex (a binary search per row measured slower);
    a pair on several components keeps its smallest distance, and sets on
    two components sit at the sum of their diameters.
    """
    R = check_int("R", R, 0)
    N = len(fam)
    diams = np.asarray(space.diameters, dtype=np.int64)
    member = np.zeros((len(layout), N), dtype=bool)
    for ci, parts in enumerate(layout):
        member[ci, parts.sets] = True
    # a close pair (a, b) at distance d is packed as (a * N + b) << db | d
    db = int(min(R, 2 * diams.max(initial=0) + 1)).bit_length()
    best, found = 0, []
    for cj, parts in enumerate(layout):
        n = parts.comp.n_vertices
        via = diams + diams[cj] <= R
        via[cj] = False
        cross = member[via].any(axis=0)
        keep = ~cross[parts.sets]
        # the sets holding vertex v are holders[first[v]:first[v + 1]]
        holders = parts.owner[np.argsort(parts.ids, kind="stable")]
        first = np.concatenate(([0], np.cumsum(np.bincount(parts.ids, minlength=n))))
        counts = np.zeros(n, dtype=np.int64)
        for k, v, d in _class_dilation(parts, R):
            counts += np.bincount(v[keep[k]], minlength=n)
            if disjoint:
                near = d < R
                a, v, d = parts.sets[k[near]], v[near], d[near]
                lo, hi = first[v], first[v + 1]
                a, d, b = np.repeat(a, hi - lo), np.repeat(d, hi - lo), holders[_ranges(lo, hi)]
                pair = (a < b) & (fam[a] == fam[b])
                found.append(sorted_distinct((a * N + b)[pair] << db | d[pair], db))
        best = max(best, int(counts.max()) + int(np.count_nonzero(cross)))
    if not disjoint:
        return best, None
    for ci in range(len(layout)):
        for cj in range(ci + 1, len(layout)):
            if diams[ci] + diams[cj] < R:
                a, b = np.meshgrid(layout[ci].sets, layout[cj].sets, indexing="ij")
                a, b = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
                pair = (fam[a] == fam[b]) & (a != b)
                found.append((a * N + b)[pair] << db | (diams[ci] + diams[cj]))
    found = sorted_distinct(np.concatenate(found + [np.zeros(0, dtype=np.int64)]), db)
    return best, (*np.divmod(found >> db, N), found & ((1 << db) - 1))


def _witnesses(cover: Cover, pairs):
    """(close, mins) for the close pairs of _near_sets: close lists them as
    (family, label_a, label_b, distance), label_a < label_b, sorted, and
    mins[j] is the least distance in family j, or None."""
    fam, labels = cover.set_family.tolist(), cover.labels
    close = sorted((fam[a], *sorted((labels[a], labels[b])), d)
                   for a, b, d in zip(*(x.tolist() for x in pairs)))
    return close, [min((d for f, _, _, d in close if f == j), default=None)
                   for j in range(cover.n_families)]


def family_violations(space, family, R: int):
    """(label_a, label_b, distance) for every pair of sets of one family
    closer than R, with the exact distance; an empty list certifies
    R-disjointness.  family is a one-family Cover or a sequence of
    CoverSets."""
    if not isinstance(family, Cover):
        family = Cover(space, (tuple(family),))
    _, pairs = _near_sets(family.space, family.layout, family.set_family, R)
    return [w[1:] for w in _witnesses(family, pairs)[0]]


def r_multiplicity(cover: Cover, R: int) -> int:
    """max over points of the number of cover sets meeting B(point, R)."""
    return _near_sets(cover.space, cover.layout, cover.set_family, R, disjoint=False)[0]


def verify_cover(cover: Cover, R: int, S: int | None = None,
                 check_disjoint: bool = True) -> CoverReport:
    """Exact verification: coverage, set diameters, per-family R-disjointness,
    and R-multiplicity.  Failures are report content with witnesses.

    All four checks run on the cover's flat per-component layout, and one
    dilation pass (_near_sets) gives both the multiplicity and the close
    pairs of every family.  check_disjoint=False skips the close pairs;
    covers bounded by multiplicity instead of disjointness (one family of
    overlapping balls) are verified that way.
    """
    layout = cover.layout
    validate_cover(cover, layout)
    uncovered = None
    for ci, parts in enumerate(layout):
        covered = np.zeros(parts.comp.n_vertices, dtype=bool)
        covered[parts.ids] = True
        missing = np.flatnonzero(~covered)
        if missing.size:
            uncovered = (ci, int(missing[0]))
            break

    diameters, exact = _set_diameters(layout, cover.n_sets(), cover.centers, cover.radii)
    max_diam = int(diameters.max(initial=0))
    oversized = None
    if S is not None:
        over = np.flatnonzero(diameters > S)
        if over.size:
            oversized = (cover.labels[over[0]], int(diameters[over[0]]))

    multiplicity, pairs = _near_sets(cover.space, layout, cover.set_family, R, check_disjoint)
    close, fam_mins = _witnesses(cover, pairs) if check_disjoint else ([], [])

    return CoverReport(R=R, S=S,
                       is_cover=uncovered is None,
                       uncovered_witness=uncovered,
                       max_set_diameter=max_diam,
                       diameters_exact=exact,
                       oversized_witness=oversized,
                       family_min_distances=tuple(fam_mins),
                       close_pair_witnesses=tuple(close),
                       r_multiplicity=multiplicity)


# --- the packing cover -------------------------------------------------------

def cover_prop41(box: BoxSpace, R: int, growth: GrowthBound,
                 threads: int = 1):
    """Packing-ball cover with certified R-multiplicity <= K = 4^d + 1.

    Components with diameter <= R are collected into one set: they are the
    only sets a point of a small component can see within R (its whole ball
    stays among small components), so they contribute multiplicity exactly 1,
    and the set's diameter is at most 2R <= S_0.  Every large component
    gets the balls B(x, 2 R_n) around a maximal packing.  The report is
    re-derived from the data and the quantitative bounds are asserted.
    """
    params = CoverParams.from_growth(R, growth)
    small = [ci for ci, d in enumerate(box.diameters) if d <= R]
    large = [ci for ci, d in enumerate(box.diameters) if d > R]

    def work(ci):
        comp = box.components[ci]
        rn = doubling_radius(comp, params)
        centers = maximal_packing(comp, rn)
        pc = packing_count_max(comp, centers, rn)
        return rn, centers, pc

    results = thread_map(work, large, threads)

    # F_R's parts come first, then one part per ball
    labels, part_comp = ["F_R"] if small else [], list(small)
    balls = [np.arange(box.components[ci].n_vertices) for ci in small]
    centers, radii = {}, {0: R} if small else {}
    doubling, packing_counts = {}, {}
    for ci, (rn, ball_centers, pc) in zip(large, results):
        doubling[ci] = rn
        packing_counts[ci] = pc
        if pc > params.K:
            raise VerificationError(
                f"packing count {pc} exceeds K={params.K} on component {ci}")
        comp = box.components[ci]
        for c in ball_centers.tolist():
            centers[len(labels)], radii[len(labels)] = (ci, c), 2 * rn
            labels.append(f"c{ci}.b{c}")
            part_comp.append(ci)
            balls.append(comp.ball_ids(c, 2 * rn))

    part_set = [0] * len(small) + list(range(bool(small), len(labels)))
    cover = Cover.from_arrays(box, 1, np.zeros(len(labels)), labels, part_set, part_comp,
                              [len(b) for b in balls], np.concatenate(balls or [[]]),
                              centers, radii)
    report = verify_cover(cover, R, check_disjoint=False)
    s_bound = max(params.S_0, R)
    report = replace(report, S=s_bound,
                     doubling_radii=tuple(doubling.get(ci) for ci in range(box.component_count)),
                     packing_counts=tuple(packing_counts.get(ci) for ci in range(box.component_count)),
                     params=params)
    if not report.is_cover:
        raise VerificationError(f"cover misses point {report.uncovered_witness}")
    if report.max_set_diameter > s_bound:
        raise VerificationError(
            f"set diameter {report.max_set_diameter} exceeds max(S_0, R) = {s_bound}")
    if report.r_multiplicity > params.K:
        raise VerificationError(
            f"R-multiplicity {report.r_multiplicity} exceeds K = {params.K}")
    return cover, report


def families_from_multiplicity_cover(cover: Cover, R: int):
    """Regroup a cover's sets into R-disjoint families by greedy coloring.

    Two sets closer than R (in particular overlapping ones) get different
    families.  The family count is whatever the proximity graph forces.
    Returns (cover, report), report being the one verify_cover(cover, R)
    of the result, R >= 0; a family that is not R-disjoint raises.
    """
    # every set in family 0; R = 0 still separates overlapping sets
    n, R = cover.n_sets(), check_int("R", R, 0)
    a, b, _ = _near_sets(cover.space, cover.layout, np.zeros(n), max(R, 1))[1]
    colors = first_fit_colors(n, a, b)
    out = cover.take(np.arange(n), colors, int(colors.max(initial=0)) + 1)
    report = verify_cover(out, R)
    if report.close_pair_witnesses:
        j, *viol = report.close_pair_witnesses[0]
        raise VerificationError(f"regrouped family {j} is not {R}-disjoint: {tuple(viol)}")
    return out, report


# --- per-scale family assembly ----------------------------------------------

@dataclass(frozen=True)
class AssemblyReport:
    disjointness: tuple          # ((scale, family, min_distance_or_None), ...)
    violations: tuple            # ((scale, family, label_a, label_b, distance), ...)
    subtraction_ok: bool

    @property
    def ok(self) -> bool:
        return self.subtraction_ok and not self.violations


@dataclass(frozen=True)
class FamilyAssembly:
    scales: tuple
    thresholds: dict             # scale k -> first admissible component i_k
    scale_diameters: dict        # scale k -> max set diameter of its cover
    families: dict               # scale k -> Cover of the n_fam assembled families
    finite_parts: dict           # scale k -> tuple of component indices below i_k
    report: AssemblyReport


def assemble_box_families(box: BoxSpace, covers_by_scale: dict, profile) -> FamilyAssembly:
    """Per-scale family assembly over a truncated box space.

    For each scale k the admissible window starts at i_k, the least i
    such that every component from i on has balls of radius max(k, S_k)
    that are exact copies of the group's (S_k = the scale's max set
    diameter); sets of the scale-k cover
    that sit inside a single component of the window [i_k, i_(k+1)) are
    kept.  The assembled family at scale k is the union over scales >= k;
    k-disjointness of every family and the subtraction identity against the
    finite part F_k are verified exactly.  families[k] is one Cover: the
    sets kept at scales >= k, stably ordered by family.  i_k is
    profile.threshold(max(k, S_k)), the only thing read of profile.
    """
    scales = sorted(check_int("scale", k, 1) for k in covers_by_scale)
    if not scales:
        raise ConfigError("need at least one scale")
    covers = [covers_by_scale[k] for k in scales]
    for k, cover in zip(scales, covers):
        if cover.space is not box:
            raise ConfigError(f"cover at scale {k} is not over the given box space")
        validate_cover(cover, cover.layout)

    # every scale's sets in one Cover, in scale order, each scale's set
    # indices shifted past the sets before
    n_sets = [c.n_sets() for c in covers]
    first = np.cumsum([0] + n_sets).tolist()
    centers, radii = {}, {}
    for c, f in zip(covers, first):
        centers.update((i + f, x) for i, x in c.centers.items())
        radii.update((i + f, r) for i, r in c.radii.items())
    joined = Cover.from_arrays(
        box, 1, np.zeros(first[-1]), [x for c in covers for x in c.labels],
        np.concatenate([c.part_set + f for c, f in zip(covers, first)]),
        np.concatenate([c.part_comp for c in covers]),
        np.concatenate([np.diff(c.offsets) for c in covers]),
        np.concatenate([c.ids for c in covers]), centers, radii)
    fam = np.concatenate([c.set_family for c in covers])
    scale = np.repeat(scales, n_sets)
    # validated, every set has parts, each on its own component
    starts = joined.set_parts()[:-1]
    low = np.minimum.reduceat(joined.part_comp, starts)
    high = np.maximum.reduceat(joined.part_comp, starts)
    diameters = _set_diameters(joined.layout, first[-1], centers, radii)[0]

    oracle_diam, i_k = {}, {}
    for k in scales:
        # straddling sets never enter the admissible window, so the scale
        # diameter is taken over the single-component sets only
        oracle_diam[k] = int(diameters[(scale == k) & (low == high)].max(initial=0))
        i_k[k] = profile.threshold(max(k, oracle_diam[k]))
        if i_k[k] is None:
            raise ConfigError(f"truncation has no component usable at scale {k} "
                              f"(needs ball-isometry radius >= {max(k, oracle_diam[k])})")

    # the window of set i's scale is [start[i], stop[i])
    start = np.repeat([i_k[k] for k in scales], n_sets)
    stop = np.repeat([i_k[k] for k in scales[1:]] + [box.component_count], n_sets)
    straddlers = np.flatnonzero((low < high) & (high >= start))
    if straddlers.size:
        i = straddlers[0]
        comps = sorted(joined.part_comp[joined.part_set == i].tolist())
        raise VerificationError(f"scale {scale[i]}: set {joined.labels[i]!r} straddles "
                                f"components {comps} inside the admissible window")
    kept = (low == high) & (start <= low) & (low < stop)

    n_fam = max(c.n_families for c in covers)
    families, disjointness, violations = {}, [], []
    for k in scales:
        at = np.flatnonzero(kept & (scale >= k))
        cover = joined.take(at, fam[at], n_fam)
        families[k] = cover
        pairs = _near_sets(cover.space, cover.layout, cover.set_family, k)[1]
        close, mins = _witnesses(cover, pairs)
        disjointness += [(k, j, d) for j, d in enumerate(mins)]
        violations += [(k, *w) for w in close]

    # the subtraction identity: the scale-k families are the first scale's
    # sets on components >= i_k, compared as (family, component, distinct ids)
    at = np.flatnonzero(kept)
    bounds, set_comp, set_scale = joined.offsets.tolist(), low[at].tolist(), scale[at].tolist()
    keys = [(j, c, sorted_distinct(joined.ids[bounds[p]:bounds[p + 1]]).tobytes())
            for j, c, p in zip(fam[at].tolist(), set_comp, starts[at].tolist())]
    subtraction_ok = all({x for x, c in zip(keys, set_comp) if c >= i_k[k]}
                         == {x for x, s in zip(keys, set_scale) if s >= k} for k in scales)
    report = AssemblyReport(tuple(disjointness), tuple(violations), subtraction_ok)
    return FamilyAssembly(scales=tuple(scales), thresholds=i_k, scale_diameters=oracle_diam,
                          families=families, report=report,
                          finite_parts={k: tuple(range(i_k[k])) for k in scales})


# --- diagonal transfer -------------------------------------------------------

@dataclass(frozen=True)
class TransferResult:
    coloring: dict               # group element -> family index
    surviving_radii: tuple
    discarded_radii: tuple


def diagonal_transfer(spec: GroupSpec, inputs, R: int, S: int, r0: int,
                      n: int | None = None,
                      state_cap: int = 10 ** 6) -> TransferResult:
    """Stitch colorings of large balls into a verified coloring of B(e, r0).

    inputs: (radius, coloring dict element -> family) pairs with strictly
    increasing radii, each coloring covering B(e, radius).  Elements of
    B(e, r0), its ball_levels rows, are processed in (word length,
    coordinates) order; each gets the family most of the still-live input
    radii assign it (ties to the smallest family index), and radii that
    disagree are discarded.  Radii surviving to the end agreed with every
    choice, so on honest inputs the output restricts one of them; its
    (R, S) validity is nevertheless re-checked by verify_cover over
    B(e, r0) with G's word metric (ball_space, which refuses a B(e, r0)
    past check_points' cap), and failure raises.
    """
    if not inputs:
        raise InsufficientInputError("insufficient input radii: none provided")
    inputs = sorted(inputs, key=lambda p: p[0])
    radii = [r for r, _ in inputs]
    if len(set(radii)) != len(radii):
        raise ConfigError("input radii must be distinct")
    if r0 + R + S > radii[0]:
        raise ConfigError(
            f"need r0 + R + S <= smallest input radius, got {r0}+{R}+{S} > {radii[0]}")
    if n is not None:
        for r, coloring in inputs:
            bad = [v for v in coloring.values() if not (0 <= v <= n)]
            if bad:
                raise ConfigError(f"radius {r}: family index {bad[0]} outside 0..{n}")

    space = ball_space(spec, r0, state_cap)
    live = list(range(len(inputs)))
    coloring = {}
    for elt in space.elements:
        voters = {}
        for idx in live:
            val = inputs[idx][1].get(elt)
            if val is not None:
                voters.setdefault(val, []).append(idx)
        if not voters:
            raise InsufficientInputError(
                f"insufficient input radii: no live cover contains {elt!r}")
        top = max(map(len, voters.values()))
        choice = min(v for v, idxs in voters.items() if len(idxs) == top)
        coloring[elt] = choice
        live = voters[choice]

    palette = {c: i for i, c in enumerate(dict.fromkeys(coloring.values()))}
    cover = _coloring_to_cover(space, [palette[c] for c in coloring.values()], R)
    # no pair is closer than R <= 0, and a set has diameter > S for S < 0
    # exactly when it does for S = 0: when it has two points
    if not verify_cover(cover, max(R, 0), max(S, 0)).ok:
        raise InsufficientInputError(
            "insufficient input radii: stitched coloring fails the "
            f"(R={R}, S={S}) check")
    surviving = tuple(radii[i] for i in live)
    discarded = tuple(r for r in radii if r not in surviving)
    return TransferResult(coloring=coloring, surviving_radii=surviving,
                          discarded_radii=discarded)


def close_clusters(n: int, pairs) -> list:
    """Connected components of the graph on 0..n-1 whose edges are given
    as an iterable of (i, j) index-array blocks.  Each component is an
    increasing int64 array; the list is ordered by smallest member.

    Every label starts as its own vertex and only decreases: each pass
    hooks the larger root of every edge whose ends differ onto the smaller
    one, then jumps pointers until every label is a root.  A label is
    always a vertex of its own component, so at the fixpoint each
    component is labelled by its smallest member.  Blocks are merged into
    the labels one at a time.
    """
    if n == 0:
        return []
    lab = np.arange(n, dtype=np.int64)
    for i, j in pairs:
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        while True:
            li, lj = lab[i], lab[j]
            differ = li != lj
            if not differ.any():
                break
            li, lj = li[differ], lj[differ]
            np.minimum.at(lab, np.maximum(li, lj), np.minimum(li, lj))
            while True:
                up = lab[lab]
                if np.array_equal(up, lab):
                    break
                lab = up
    order = np.argsort(lab, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(lab[order])) + 1)


def _coloring_to_cover(space, coloring, R: int) -> Cover:
    """One family per color; its sets are the color's <R-connected
    clusters, ordered by smallest member, from the same-color pairs of one
    dilation of every point at R - 1 (none when R < 1)."""
    colors = np.asarray(coloring, dtype=np.int64)

    def same_color_pairs():
        for u, v, _ in _dilation(_parts(space, np.arange(len(colors))), R - 1) if R > 0 else ():
            keep = colors[u] == colors[v]
            yield u[keep], v[keep]

    clusters = close_clusters(len(colors), same_color_pairs())
    values, family = np.unique(colors[[c[0] for c in clusters]], return_inverse=True)
    order = np.argsort(family, kind="stable")
    family = family[order]
    rank = np.arange(len(order)) - np.searchsorted(family, family)
    values = values.tolist()
    sets = [clusters[i] for i in order]
    return Cover.from_arrays(CoarseUnion((space,)), len(values), family,
                             [f"f{values[j]}.s{r}" for j, r in zip(family.tolist(), rank.tolist())],
                             np.arange(len(sets)), np.zeros(len(sets)),
                             [len(s) for s in sets], np.concatenate(sets or [[]]))


def first_fit_colors(n: int, a, b) -> np.ndarray:
    """Greedy coloring of 0..n-1 in index order: index i takes the smallest
    color that no j < i paired with it has.  The pairs are (a[k], b[k]), in
    either order; a repeated pair, or one of an index with itself, is
    harmless."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(hi, kind="stable")
    lo, bounds = lo[order].tolist(), np.searchsorted(hi[order], np.arange(n + 1)).tolist()
    colors = []
    for i in range(n):
        used = {colors[j] for j in lo[bounds[i]:bounds[i + 1]] if j < i}
        c = 0
        while c in used:
            c += 1
        colors.append(c)
    return np.array(colors, dtype=np.int64)
