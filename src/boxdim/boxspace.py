"""Finite truncations of box spaces and the coarse metric between components.

A box space here is a prefix of the infinite object: one Cayley graph per
modulus of a filtration, with the coarse disjoint-union metric (CoarseUnion).
Within a component distances are graph distances; between components
i != j the distance is exactly diameters[i] + diameters[j].

Also provided: ball-isometry radii (the largest k such that B(e, k) of the
infinite group maps injectively into the quotient) and balls of the
infinite group as subspaces of it: ball_space gives B(e, r) with G's word
metric, the one metric space per ball that coarse_union_of_balls and the
diagonal transfer both read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from numbers import Integral

import numpy as np

from .errors import ConfigError, ResourceCapError, ShapeMismatchError, check_int
from .cayley import (
    SLICE,
    CayleyGraph,
    Component,
    _ball,
    ball_levels,
    build_quotient_cayley,
    checked_ids,
    row_keys,
    sorted_distinct,
    word_distances,
)
from .groups import Filtration, GroupSpec, unflatten


def thread_map(fn, items, threads: int) -> list:
    """list(map(fn, items)), on a pool of threads when threads > 1 and
    there is more than one item; results keep the order of items.  The
    pool is imported here, so a run on one thread never loads it."""
    items = list(items)
    if threads > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


class CoarseUnion:
    """Coarse disjoint union of finite metric spaces.

    Points are (component_index, vertex_id).  Each component offers
    n_vertices, diameter, check_vertex, distance, distances_from(v, ids)
    and the two verifier methods distances_to (a multi-source distance
    field) and row_diameters(rows, block) (the exact diameter of each row
    of ids); CayleyGraph and FiniteMetricSpace both do.
    """

    def __init__(self, components):
        self.components = tuple(components)

    @property
    def diameters(self) -> tuple:
        return tuple(g.diameter for g in self.components)

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def n_points(self) -> int:
        return sum(g.n_vertices for g in self.components)

    def check_point(self, p) -> None:
        ci, v = p
        if not (0 <= ci < len(self.components)):
            raise ShapeMismatchError(f"component index {ci} out of range")
        self.components[ci].check_vertex(v)

    def points(self):
        for ci, g in enumerate(self.components):
            for v in range(g.n_vertices):
                yield (ci, v)

    def distance(self, p, q) -> int:
        self.check_point(p)
        self.check_point(q)
        if p[0] == q[0]:
            return self.components[p[0]].distance(p[1], q[1])
        return self.diameters[p[0]] + self.diameters[q[0]]


@dataclass
class BoxSpace(CoarseUnion):
    """The quotient Cayley graphs of a filtration, in filtration order."""

    filtration: Filtration
    components: tuple

    @property
    def spec(self) -> GroupSpec:
        return self.filtration.spec

    @property
    def moduli(self) -> tuple:
        return tuple(g.modulus for g in self.components)


MATRIX_POINT_CAP = 1024     # largest explicit matrix validated or drawn at random
GRAPH_POINT_CAP = 4096      # check_points' default: from_graph, greedy, ball_space


def check_points(n: int, cap: int | None = None) -> None:
    """Refuse n points past cap; None means GRAPH_POINT_CAP, read here at
    each call."""
    cap = GRAPH_POINT_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(f"{n} points exceeds the cap {cap}")


def metric_closure(m: np.ndarray) -> np.ndarray:
    """Shortest-path closure of a non-negative distance matrix, by
    Floyd-Warshall in n x n memory; a metric is its own closure."""
    for k in range(m.shape[0]):
        m = np.minimum(m, m[:, k:k + 1] + m[k:k + 1, :])
    return m


class FiniteMetricSpace(Component):
    """A finite metric space backed by an explicit integer distance matrix.

    elements names the points of a ball of the group (ball_space) and is
    None otherwise.
    """

    def __init__(self, dist_matrix: np.ndarray, elements: tuple | None = None):
        self.dist_matrix = np.asarray(dist_matrix, dtype=np.int32)
        self.n_vertices = self.dist_matrix.shape[0]
        self.elements = elements

    @cached_property
    def diameter(self) -> int:
        # dist_matrix is never mutated after construction
        return int(self.dist_matrix.max())

    def distances_from(self, v: int, ids) -> np.ndarray:
        """d(v, x) for each x in ids."""
        self.check_vertex(v)
        return self.dist_matrix[v, checked_ids(ids, self.n_vertices)]

    def distances_to(self, ids, cap: int | None = None) -> np.ndarray:
        """Distance from every point to the nearest of ids; -1 beyond cap."""
        d = self.dist_matrix[checked_ids(ids, self.n_vertices)].min(axis=0)
        return d if cap is None else np.where(d <= cap, d, -1)

    def _pair_distances(self, xs, ys) -> np.ndarray:
        return self.dist_matrix[xs[:, :, None], ys[:, None, :]]

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteMetricSpace":
        try:
            m = np.asarray(matrix)
        except ValueError:      # numpy's "inhomogeneous shape"
            raise ConfigError("distance matrix rows are ragged") from None
        if m.dtype.kind not in "biu" and not all(
                isinstance(x, Integral) or isinstance(x, (float, np.floating)) and x.is_integer()
                for x in m.flat):
            raise ConfigError("distance matrix entries must be integers")
        if m.size and abs(m).max() > np.iinfo(np.int32).max:    # stored as int32
            raise ConfigError("distance matrix has an entry past ±(2**31 - 1)")
        m = m.astype(np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"distance matrix must be square, got {m.shape}")
        n = m.shape[0]
        check_points(n, MATRIX_POINT_CAP)
        if (m.diagonal() != 0).any():
            raise ConfigError("distance matrix has a nonzero diagonal entry")
        if (m != m.T).any():
            raise ConfigError("distance matrix is not symmetric")
        off = m[~np.eye(n, dtype=bool)]
        if n > 1 and (off <= 0).any():
            raise ConfigError("off-diagonal distances must be positive")
        if (metric_closure(m) != m).any():
            raise ConfigError("distance matrix violates the triangle inequality")
        return cls(m)

    @classmethod
    def from_graph(cls, graph) -> "FiniteMetricSpace":
        """The full distance matrix of any component within check_points'
        cap; a Cayley graph's is d(u, v) = d(e, u^-1 v), built in blocks
        of SLICE // n rows, as word_distances builds G's."""
        n = graph.n_vertices
        check_points(n)
        if not isinstance(graph, CayleyGraph):
            return cls(graph.dist_matrix)
        ids, per = np.arange(n)[None], max(1, SLICE // n)
        return cls(np.concatenate([graph._pair_distances(ids[:, lo:lo + per], ids)[0]
                                   for lo in range(0, n, per)]))


def build_box_space(filtration: Filtration, vertex_cap: int = 10 ** 6,
                    threads: int = 1) -> BoxSpace:
    def build(q):
        return build_quotient_cayley(q, vertex_cap=vertex_cap)

    return BoxSpace(filtration=filtration,
                    components=tuple(thread_map(build, filtration.quotients(), threads)))


# --- ball-isometry radii ----------------------------------------------------

@dataclass(frozen=True)
class IsometryRadius:
    """Largest verified k with B_G(e, k) mapping injectively into the quotient;
    exact=False means the budget ran out first, so k is a certified lower bound."""

    radius: int
    exact: bool


def _injective(quotient, levels):
    """Yield (rows, ok) per sphere of levels, outward from e: ok holds while
    the ball so far maps injectively into the quotient, compared on reduced
    keys (coordinates mod m read as one base-m integer).  Only the last two
    spheres' keys are kept: if B(e, k-1) maps injectively, the kernel meets
    B(e, 2k-2) only at e, so x != y of lengths k and j with one image give
    x^-1 y in the kernel with length <= k + j, hence j >= k - 1."""
    m, ok, last = quotient.modulus, True, []
    for rows in levels:
        if ok:
            keys = row_keys(rows % m, 0, m)
            near = np.concatenate(last + [keys])
            ok, last = sorted_distinct(near).size == near.size, [keys]
        yield rows, ok


def isometry_radius(quotient, budget: int = 10 ** 7) -> IsometryRadius:
    """Walk the spheres until sphere k collides in the quotient: the exact
    radius is k - 1.  Past budget elements (e included) after sphere k >= 1,
    B(e, k) is certified and k is a lower bound."""
    total = 0
    for k, (rows, ok) in enumerate(_injective(quotient, ball_levels(quotient.spec))):
        if not ok:
            return IsometryRadius(radius=k - 1, exact=True)
        total += rows.shape[0]
        if k and total > budget:
            return IsometryRadius(radius=k, exact=False)
    raise ConfigError("group exhausted without a collision in the quotient; "
                      "generators do not generate an infinite group")


def verify_ball_isometry(quotient, k: int, state_cap: int = 10 ** 7) -> bool:
    """True iff the quotient map is injective on B_G(e, k).

    Injectivity makes the rooted, generator-labeled ball of the quotient an
    exact copy of the ball of G: edges and labels are preserved by any
    homomorphism, so injectivity is the entire content.  Every sphere is
    read, so a ball past state_cap raises ResourceCapError."""
    return [ok for _, ok in _injective(quotient, _ball(quotient.spec, k, state_cap))][-1]


@dataclass(frozen=True)
class IsometryProfile:
    """Per-component isometry radii of a box space and the scale thresholds.

    On a nested filtration effective_radii is the running maximum of the
    computed radii: kernels shrink along the filtration, so a radius
    certified for component i is also valid for every later component even
    when a budget cut the later computation short.  Otherwise each
    component keeps its own radius.
    """

    radii: tuple                 # of IsometryRadius, one per component
    nested: bool = True

    @property
    def effective_radii(self) -> tuple:
        radii = (r.radius for r in self.radii)
        return tuple(accumulate(radii, max) if self.nested else radii)

    def threshold(self, k: int):
        """Smallest component index i such that every component from i on
        has a ball of radius k that is a copy of the ball of G, or None if
        the last component has none.  On a nested profile that is the first
        component whose effective radius reaches k."""
        radii = self.effective_radii
        i = len(radii)
        while i and radii[i - 1] >= k:
            i -= 1
        return i if i < len(radii) else None


def isometry_profile(box: BoxSpace, budget: int = 10 ** 7) -> IsometryProfile:
    return IsometryProfile(radii=tuple(
        isometry_radius(g.quotient, budget) for g in box.components),
        nested=box.filtration.nested)


# --- coarse unions of balls of the infinite group ---------------------------

def ball_space(spec: GroupSpec, radius: int, state_cap: int) -> FiniteMetricSpace:
    """B_G(e, radius) as a subspace of G, with the word metric |u^-1 v|.

    elements names the points, by word length, then lexicographically.  The
    spheres of B(e, 2 radius) are read lazily: a ball past check_points'
    cap is refused before the rest is built."""
    radius = check_int("ball radius", radius, 0)
    levels = _ball(spec, 2 * radius, state_cap)
    ball = [rows for _, rows in zip(range(radius + 1), levels)]
    check_points(sum(rows.shape[0] for rows in ball))
    elements = tuple(unflatten(spec, row) for row in np.concatenate(ball).tolist())
    return FiniteMetricSpace(word_distances(spec, ball + list(levels), radius),
                             elements=elements)


def coarse_union_of_balls(spec: GroupSpec, radii,
                          state_cap: int = 10 ** 6) -> CoarseUnion:
    """The balls B_G(e, r), r in radii, as one coarse disjoint union."""
    radii = tuple(check_int("ball radius", r, 0) for r in radii)
    if not radii:
        raise ConfigError("need at least one radius")
    for a, b in zip(radii, radii[1:]):
        if b <= a:
            raise ConfigError(f"radii must be strictly increasing, got {a} then {b}")
    return CoarseUnion(ball_space(spec, r, state_cap) for r in radii)
