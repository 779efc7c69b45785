"""(R, S)-dimension of finite metric spaces and box-space profiles.

The dimension is phrased through colorings: a coloring of the points with
n + 1 colors is an (R, S)-witness when every monochromatic <R-connected
cluster has diameter at most S; expanding the clusters into sets gives
n + 1 families of R-disjoint sets of diameter at most S covering the
space, and conversely.  Three solvers share that reformulation: an exact
branch-and-bound, a brute-force enumerator used as its oracle, and a
greedy ball-carving heuristic that scales to whole components.

asdim_profile sweeps box spaces across scales R and records the smallest
witness family count found for each, against the Hirsch length of the
underlying group.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .boxspace import (
    MATRIX_POINT_CAP,
    BoxSpace,
    FiniteMetricSpace,
    check_points,
    metric_closure,
    thread_map,
)
from .cayley import GrowthBound, sorted_distinct
from .covers import (
    Cover,
    _coloring_to_cover,
    _dilation,
    _parts,
    _ranges,
    close_clusters,
    cover_prop41,
    first_fit_colors,
    verify_cover,
)
from .errors import ConfigError, VerificationError, check_int
from .groups import FREE_ABELIAN, hirsch_length


def random_metric_space(rng: random.Random, n_points: int,
                        max_distance: int = 6) -> FiniteMetricSpace:
    """Random integer metric: symmetric draws closed under shortest paths."""
    n_points = check_int("n_points", n_points, 1)
    if check_int("max_distance", max_distance, 1) > np.iinfo(np.int32).max:
        raise ConfigError(f"need max_distance <= 2**31 - 1 (int32), got {max_distance}")
    check_points(n_points, MATRIX_POINT_CAP)
    m = np.zeros((n_points, n_points), dtype=np.int64)
    for i in range(n_points):
        for j in range(i + 1, n_points):
            m[i, j] = m[j, i] = rng.randint(1, max_distance)
    return FiniteMetricSpace(metric_closure(m))


@dataclass(frozen=True)
class RSDimResult:
    n: int | None                # smallest n found; None if the cap was hit
    R: int
    S: int
    method: str
    coloring: tuple | None = None   # per point, in the space's own indexing
    cover: Cover | None = None      # expanded witness over CoarseUnion((space,))
    exceeded_cap: bool = False

    @property
    def n_families(self) -> int | None:
        return None if self.n is None else self.n + 1


def _check_rs(R: int, S: int) -> tuple:
    """(R, S) as ints: the scales every witness needs, R >= 1 and S >= 0."""
    return check_int("R", R, 1), check_int("S", S, 0)


def _check(cover: Cover, R: int, S: int, method: str) -> None:
    """verify_cover at (R, S); a failure is the solver's fault."""
    report = verify_cover(cover, R, S)
    if not report.ok:
        raise VerificationError(
            f"{method} produced an invalid witness at R={R}, S={S}: "
            f"{report.oversized_witness or report.close_pair_witnesses}")


def rs_dim_exact(space, R: int, S: int, n_cap: int = 8,
                 point_cap: int = 60) -> list | None:
    """A coloring with the fewest colors that is an (R, S)-witness, by
    branch and bound; None when more than n_cap + 1 colors are needed.

    Points are processed in breadth-first order from point 0; colors obey
    the restricted-growth convention (a new color only when all smaller
    ones appear earlier), which removes color permutations from the search.
    The state is Python-int bitmasks: per color its points; per colored
    point its cluster (equal-colored points merged below distance R) and
    the OR of its members' far masks (points farther than S).  A point
    joins a color by merging the clusters it is near, and fits when no
    member is far from another.  Once every color is in use, a branch dies
    when an uncolored point near the new cluster fits no color.  Only those
    points' fit changed, and fit only shrinks as points are colored, so no
    solution is cut and the first coloring found is unchanged.
    """
    n_pts = space.n_vertices
    check_points(n_pts, check_int("point_cap", point_cap, 0))
    R, S = _check_rs(R, S)
    n_cap = check_int("n_cap", n_cap, 0)
    D = FiniteMetricSpace.from_graph(space).dist_matrix
    order = np.argsort(D[0], kind="stable").tolist() if n_pts else []
    # per point, as bitmasks: the other points closer than R, the points farther than S
    near, far = ([sum(1 << q for q in np.flatnonzero(row).tolist()) for row in table]
                 for table in ((D < R) & ~np.eye(n_pts, dtype=bool), D > S))
    later = [sum(1 << q for q in order[i + 1:]) for i in range(n_pts)]   # after order[i]

    for kmax in range(1, min(n_pts, n_cap + 1) + 1):
        color, of_color = [0] * n_pts, [0] * kmax
        cluster, cluster_far = [0] * n_pts, [0] * n_pts

        def join(p: int, points: int):
            """(members, far) of p's cluster in the color of points; None past S."""
            members, acc = 1 << p, far[p]
            touch = near[p] & points
            while touch:
                q = (touch & -touch).bit_length() - 1
                members |= cluster[q]
                acc |= cluster_far[q]
                touch &= ~cluster[q]
            return None if members & acc else (members, acc)

        def fits_some_color(u: int) -> bool:
            for points in of_color:
                if join(u, points):
                    return True
            return False

        def assign(idx: int, used: int) -> bool:
            if idx == n_pts:
                return True
            p = order[idx]
            for c in range(min(used + 1, kmax)):
                got = join(p, of_color[c])
                if got is None:
                    continue
                saved, reach, rest = [], 0, got[0]
                while rest:
                    q = (rest & -rest).bit_length() - 1
                    saved.append((q, cluster[q], cluster_far[q]))
                    cluster[q], cluster_far[q] = got
                    reach |= near[q]
                    rest &= rest - 1
                of_color[c] |= 1 << p
                color[p] = c
                top = max(used, c + 1)
                threatened = reach & later[idx] if top == kmax else 0
                while threatened:
                    u = (threatened & -threatened).bit_length() - 1
                    if not fits_some_color(u):
                        break
                    threatened &= threatened - 1
                if not threatened and assign(idx + 1, top):
                    return True
                of_color[c] ^= 1 << p
                for q, m, a in saved:
                    cluster[q], cluster_far[q] = m, a
            return False

        if assign(0, 0):
            return color
    return None


def _restricted_growth_strings(n: int, kmax: int):
    """All colorings of n points using colors 0..kmax-1 with color c first
    appearing only after c-1; yields lists reused in place."""
    seq = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield seq
            return
        for c in range(min(used + 1, kmax)):
            seq[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def rs_dim_exhaustive(space, R: int, S: int, point_cap: int = 12) -> list:
    """Reference solver: tries every coloring, smallest color count first.

    Deliberately shares nothing with the branch-and-bound beyond the
    definition; its validity test re-derives clusters from each complete
    coloring.
    """
    n_pts = space.n_vertices
    check_points(n_pts, check_int("point_cap", point_cap, 0))
    R, S = _check_rs(R, S)
    D = FiniteMetricSpace.from_graph(space).dist_matrix

    def valid(coloring) -> bool:
        by_color = {}
        for v, c in enumerate(coloring):
            by_color.setdefault(c, []).append(v)
        for pts in map(np.array, by_color.values()):
            # every <R-connected cluster of the color within diameter S
            for c in close_clusters(len(pts), [np.nonzero(D[np.ix_(pts, pts)] < R)]):
                if D[np.ix_(pts[c], pts[c])].max() > S:
                    return False
        return True

    for k in range(1, n_pts + 1):
        for seq in _restricted_growth_strings(n_pts, k):
            if max(seq) == k - 1 and valid(seq):
                return list(seq)
    raise VerificationError("no valid coloring found; unreachable for k = n")


def rs_dim_greedy(space, R: int, S: int) -> list:
    """Heuristic witness: farthest-point ball carving at radius S//2, then
    greedy coloring of the cluster proximity graph.  Upper bound only."""
    n_pts = space.n_vertices
    check_points(n_pts)
    R, S = _check_rs(R, S)
    # free lists the uncarved points in increasing order, and nearest[i] is
    # the distance from free[i] to the nearest center carved so far
    free = np.arange(n_pts)
    nearest = np.full(n_pts, np.iinfo(np.int32).max, dtype=np.int64)
    clusters = []
    while free.size:
        d = space.distances_from(int(free[np.argmax(nearest)]), free)
        near = d <= S // 2
        clusters.append(free[near])
        free, nearest = free[~near], np.minimum(nearest[~near], d[~near])
    members, sizes = np.concatenate(clusters), list(map(len, clusters))
    n_cl = len(clusters)
    assigned = np.empty(n_pts, dtype=np.int64)
    assigned[members] = np.repeat(np.arange(n_cl), sizes)

    # clusters a and b are neighbours when some pair of their points is
    # closer than R: a row (a, v) of the clusters' dilation at R - 1 joins
    # a and b = assigned[v]; each pair is kept once, as b < a
    keys = [np.zeros(0, dtype=np.int64)]
    for a, v, _ in _dilation(_parts(space, members, sizes), R - 1):
        b = assigned[v]
        keys.append(sorted_distinct((a * n_cl + b)[b < a]))
    a, b = np.divmod(sorted_distinct(np.concatenate(keys)), n_cl)
    return first_fit_colors(n_cl, a, b)[assigned].tolist()


def rs_dim(space, R: int, S: int, method: str = "exact", **kwargs) -> RSDimResult:
    """The method's coloring (kwargs: n_cap, point_cap) as a verified cover."""
    solver = {"exact": rs_dim_exact, "exhaustive": rs_dim_exhaustive,
              "greedy": rs_dim_greedy}.get(method)
    if solver is None:
        raise ConfigError(f"unknown method {method!r}")
    R, S = _check_rs(R, S)
    coloring = solver(space, R, S, **kwargs)
    if coloring is None:
        return RSDimResult(None, R, S, method, exceeded_cap=True)
    cover = _coloring_to_cover(space, coloring, R)
    _check(cover, R, S, method)
    return RSDimResult(n=cover.n_families - 1, R=R, S=S, method=method,
                       coloring=tuple(coloring), cover=cover)


# --- structured witnesses for cycles and square tori -------------------------

def interval_families(m: int, R: int, S: int):
    """Alternating arcs on the m-cycle: an even number of arcs with sizes in
    [R, S+1], neighbors in different families.  None if infeasible.

    Families come flat, as (set_family, offsets, ids): set k belongs to
    family set_family[k] (non-decreasing, every family non-empty) and lists
    ids[offsets[k]:offsets[k + 1]].
    """
    R, S = _check_rs(R, S)
    if m - 1 <= S:
        return np.zeros(1, np.int64), np.array([0, m]), np.arange(m)
    count = max(2, -(-m // (S + 1)))
    if count % 2:
        count += 1
    while count * R <= m:
        base, rem = divmod(m, count)
        hi = base + (1 if rem else 0)
        if base >= R and hi <= S + 1:
            ends = np.cumsum([base + 1] * rem + [base] * (count - rem))
            arcs = np.r_[0:count:2, 1:count:2]
            sizes = np.diff(ends, prepend=0)[arcs]
            return (arcs % 2, np.concatenate(([0], np.cumsum(sizes))),
                    _ranges(ends[arcs] - sizes, ends[arcs]))
        count += 2
    return None


# grid zone by how close v (row) and u (column) are to a block line:
# below t1, below t2, or neither; 0 corner, 1 and 2 edges, 3 core
_GRID_ZONES = np.array([[0, 0, 1], [0, 0, 3], [2, 3, 3]])


def grid_families(m: int, R: int, S: int):
    """Three-family zone pattern on the m x m torus, m a power of two.

    The torus is tiled by L x L blocks; points near a block corner form the
    corner family, points near a block edge (but away from corners) the
    edge family, and the rest per-block cores.  Corner reach T2 doubles the
    edge reach T1 = ceil(R/2), which is what keeps horizontal and vertical
    edge zones R-separated from each other.  None if no block size L | m
    satisfies the separation and diameter constraints.

    The point (u, v) is listed as v * m + u, its vertex id in the
    mixed-radix order of quotient_coords.  All points are classified
    at once: the zone from u % L and v % L, then an integer set key ordered
    as the tuples corner (cu, cv) < edge ("h", u // L, cv) < edge ("v", cu,
    v // L) < core (u // L, v // L).  One stable sort by key lists the sets
    in that order, each with its ids increasing.  Families come flat, as in
    interval_families.
    """
    R, S = _check_rs(R, S)
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

    n = m * m
    line = np.arange(m, dtype=np.int64)
    p = line % L
    block = line // L

    def anchor(t):
        """Per coordinate, the block line it is within t of (if it is)."""
        return np.where(p < t, line - p, line + L - p) % m

    # per zone, the key terms of u and of v
    ku = np.stack([anchor(t2) * m, n + block * m, 2 * n + anchor(t1) * m, 3 * n + block * m])
    kv = np.stack([anchor(t2), anchor(t1), block, block])
    d = np.minimum(p, L - p)
    near = (d >= t1).astype(np.int64) + (d >= t2)
    zone = _GRID_ZONES[near[:, None], near[None, :]]
    key = (ku[zone, line] + kv[zone, line[:, None]]).ravel()
    ids = np.argsort(key, kind="stable")
    key = key[ids]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    return np.searchsorted([n, 3 * n], key[starts], side="right"), np.append(starts, n), ids


def structured_component_families(comp, R: int, S: int):
    """Dispatch the pattern constructions by group shape; None if there is
    no structured pattern for this component or these parameters.  The
    families come flat, as (set_family, offsets, ids)."""
    spec = comp.spec
    if spec.kind == FREE_ABELIAN and spec.rank == 1:
        return interval_families(comp.modulus, R, S)
    if spec.kind == FREE_ABELIAN and spec.rank == 2:
        return grid_families(comp.modulus, R, S)
    return None


# --- asymptotic dimension profile across scales ------------------------------

PROFILE_MODES = ("exact", "greedy", "structured", "prop41")


@dataclass(frozen=True)
class ProfileRow:
    R: int
    s_achieved: int | None
    n_achieved: int | None
    mode: str
    component_count: int
    hirsch_length: int
    wall_time_ms: float
    note: str = ""
    cover: Cover | None = None

    CSV_FIELDS = ("R", "s_achieved", "n_achieved", "mode", "component_count",
                  "hirsch_length", "wall_time_ms")

    def csv_values(self):
        blank = lambda x: "" if x is None else x
        return (self.R, blank(self.s_achieved), blank(self.n_achieved),
                self.mode, self.component_count, self.hirsch_length,
                f"{self.wall_time_ms:.3f}")


@dataclass(frozen=True)
class ProfileTable:
    rows: tuple

    def as_csv_rows(self):
        yield ProfileRow.CSV_FIELDS
        for row in self.rows:
            yield tuple(str(v) for v in row.csv_values())


def s_ladder(R: int, S_cap: int):
    """Candidate diameter budgets: 2R, 4R, ... capped at S_cap."""
    check_int("R", R, 1)
    check_int("S_cap", S_cap, 1)
    out = []
    v = 2 * R
    while v < S_cap:
        out.append(v)
        v *= 2
    out.append(S_cap)
    return out


def box_witness_cover(box: BoxSpace, R: int, S: int, mode: str,
                      threads: int = 1, n_best: int | None = None):
    """One uniform-scale witness cover of a box space, or None.

    Components of diameter <= S // 2 merge into a single set (pairwise sums
    of their diameters stay within S); components of diameter in
    (S // 2, S] become whole-component sets; every larger component is
    solved per mode.  Any two sets from different components of diameter
    > S // 2 sit at distance > S >= R, so per-component family indices can
    be shared across components.  The assembled cover is verified once; if
    it fails, a solver cover that fails on its own component raises as in
    rs_dim, else None is returned.  Given n_best, a cover of n_best + 1 or
    more non-empty families could not improve on it, and None is returned
    before it is built.
    """
    R, S = _check_rs(R, S)
    solver = {"exact": rs_dim_exact, "greedy": rs_dim_greedy}.get(mode)
    if solver is None and mode != "structured":
        raise ConfigError(f"unknown witness mode {mode!r}")
    small = [ci for ci, d in enumerate(box.diameters) if d <= S // 2]
    medium = [ci for ci, d in enumerate(box.diameters) if S // 2 < d <= S]
    large = [ci for ci, d in enumerate(box.diameters) if d > S]

    def solve(ci):
        comp = box.components[ci]
        if mode == "structured":
            return structured_component_families(comp, R, S)
        coloring = solver(comp, R, S)
        if coloring is None:
            return None
        cover = _coloring_to_cover(comp, coloring, R)
        return cover.set_family, cover.offsets, cover.ids, cover

    solved = thread_map(solve, large, threads)
    if any(f is None for f in solved):
        return None
    # every set in component order (F, the w sets, then each large
    # component's sets); take orders them stably by family
    whole = small + medium
    labels = (["F"] if small else []) + [f"w{ci}" for ci in medium]
    family = np.concatenate([np.zeros(len(labels), np.int64)] + [f[0] for f in solved])
    if n_best is not None and sorted_distinct(family).size - 1 >= n_best:
        return None
    for ci, (fam, *_) in zip(large, solved):
        rank = np.arange(len(fam)) - np.searchsorted(fam, fam)
        labels += [f"c{ci}.f{j}.s{si}" for j, si in zip(fam.tolist(), rank.tolist())]
    sizes = np.array([box.components[ci].n_vertices for ci in whole], dtype=np.int64)
    cover = Cover.from_arrays(
        box, int(family.max(initial=-1)) + 1, family, labels,
        np.r_[np.zeros(len(small), np.int64), bool(small):len(labels)],
        np.repeat(whole + large, [1] * len(whole) + [len(f[0]) for f in solved]),
        np.concatenate([sizes] + [np.diff(f[1]) for f in solved]),
        np.concatenate([np.arange(n) for n in sizes] + [f[2] for f in solved] + [sizes[:0]]))
    cover = cover.take(np.arange(len(labels)), family, cover.n_families)
    report = verify_cover(cover, R, S)
    if not report.ok:
        if mode != "structured":
            for f in solved:
                _check(f[3], R, S, mode)
        return None
    return cover, report


def asdim_profile(box: BoxSpace, R_list, S_cap: int, mode: str,
                  growth: GrowthBound | None = None, threads: int = 1) -> ProfileTable:
    """Scale sweep: for each R, the smallest witness family count found
    with set diameters within S_cap, next to the group's Hirsch length.

    Outside prop41 mode each R's S-ladder is walked by branch and bound
    over lb(S): 1 at R >= 2 when a component is wider than S (it meets two
    sets at distance 1 < R, which share no family), else 0.  The lowest
    rung with lb = 0 goes first, then the others in ascending order, each
    skipped when lb(S) >= n, the best count so far.  The row is the first
    rung that reaches the smallest n, as a sweep of every rung finds it.
    A solver refuses a component past its point cap only when a rung the
    walk runs hands it that component.
    """
    if mode not in PROFILE_MODES:
        raise ConfigError(f"mode must be one of {PROFILE_MODES}, got {mode!r}")
    if mode == "prop41" and growth is None:
        raise ConfigError("prop41 mode needs a growth bound")
    R_list = sorted({check_int("R", r, 1) for r in R_list})
    check_int("S_cap", S_cap, 1)
    h = hirsch_length(box.spec)
    widest = max(box.diameters, default=0)
    rows = []
    for R in R_list:
        t0 = time.perf_counter()
        if mode == "prop41":
            cover, report = cover_prop41(box, R, growth, threads=threads)
            s, n = report.max_set_diameter, report.r_multiplicity - 1
            note = "S_cap exhausted" if s > S_cap else ""
        else:
            ladder = s_ladder(R, S_cap)
            lb = lambda S: int(R >= 2 and widest > S)
            first = next((S for S in ladder if not lb(S)), ladder[0])
            n = s = cover = None
            for S in [first] + [S for S in ladder if S != first]:
                if n is not None and lb(S) >= n:
                    continue
                got = box_witness_cover(box, R, S, mode, threads=threads, n_best=n)
                if got is not None:
                    cover, report = got
                    n, s = sorted_distinct(cover.set_family).size - 1, report.max_set_diameter
            note = "S_cap exhausted" if cover is None else ""
        rows.append(ProfileRow(R=R, s_achieved=s, n_achieved=n, mode=mode,
                               component_count=box.component_count, hirsch_length=h,
                               wall_time_ms=(time.perf_counter() - t0) * 1000.0,
                               note=note, cover=cover))
    return ProfileTable(rows=tuple(rows))
