"""Cayley graphs of congruence quotients, and growth of the infinite group.

Quotient graphs are stored as flat numpy arrays: vertex ids are mixed-radix
encodings of the coordinate tuple (identity is always id 0), adjacency is a
dense (V, 2g) table whose first g columns are the generators in order and
last g columns their inverses, and distances are a single BFS table from the
identity.  Vertex transitivity turns that one table into an O(1) oracle for
arbitrary pairs: d(u, v) = d(e, u^-1 v).

Coordinate arithmetic on whole arrays is done in int64 when a worst-case
bound proves no intermediate can overflow, and falls back to exact
object-dtype integers otherwise, so results are always exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import log

import numpy as np

from .errors import ConfigError, GrowthBoundError, ResourceCapError, ShapeMismatchError
from .groups import (
    DIRECT_PRODUCT,
    FREE_ABELIAN,
    UNITRIANGULAR,
    CongruenceQuotient,
    GroupSpec,
    _ut_entries,
    _ut_index,
    flatten,
    identity,
    invert,
    multiply,
    num_coordinates,
    reduce_mod,
    validate_element,
)

_INT64_SAFE = 2 ** 62
PAIR_CAP = 4 * 10 ** 6      # max pairwise comparisons for an exact set diameter
PAIR_ROWS = 256             # rows per block of pairwise distances


def _overflow_bound(spec: GroupSpec, m: int) -> int:
    """Worst-case absolute value of any intermediate produced by one
    multiply or invert on coordinates in [0, m).  Exact Python integers."""
    c = m - 1
    if spec.kind == FREE_ABELIAN:
        return 2 * c
    if spec.kind == UNITRIANGULAR:
        n = spec.size
        mul_bound = 2 * c + max(0, n - 2) * c * c
        # invert fills diagonals in order; v[d] bounds entries on diagonal d
        v = c
        for _ in range(2, n):
            v = c + max(0, n - 2) * c * v
        return max(mul_bound, v)
    return max(_overflow_bound(f, m) for f in spec.factors)


def _work_dtype(spec: GroupSpec, m: int):
    return np.int64 if _overflow_bound(spec, m) < _INT64_SAFE else object


def _id_dtype(spec: GroupSpec, m: int):
    """Narrowest dtype in which one product and its mixed-radix id are exact."""
    top = max(_overflow_bound(spec, m), m ** num_coordinates(spec))
    if top < 2 ** 31:
        return np.int32
    return np.int64 if top < _INT64_SAFE else object


def coords_multiply(spec: GroupSpec, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Row-wise group product of flat coordinate arrays, reduced mod m.

    a and b broadcast against each other ((V, k) with (k,) is the common
    case).  Returns int64 coordinates in [0, m).
    """
    dtype = _work_dtype(spec, m)
    cols = _raw_multiply(spec, np.asarray(a).astype(dtype, copy=False),
                         np.asarray(b).astype(dtype, copy=False))
    out = np.stack(np.broadcast_arrays(*cols), axis=-1)
    return (out % m).astype(np.int64)


def product_ids(spec: GroupSpec, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Vertex ids of the row-wise products a·b mod m, for coordinates in
    [0, m) broadcast as in coords_multiply: equal to encoding its result,
    without building it.

    Each product column is reduced and added into the mixed-radix id as it
    is produced, in the narrowest dtype _id_dtype proves exact: int32 when
    the overflow bound and m^k fit, else int64, else exact object integers.
    """
    dtype = _id_dtype(spec, m)
    a = np.asarray(a).astype(dtype, copy=False)
    b = np.asarray(b).astype(dtype, copy=False)
    ids = None
    for i, col in enumerate(_raw_multiply(spec, a, b)):
        col %= m
        if i:
            col *= m ** i
            ids += col
        else:
            ids = col
    return ids


def coords_invert(spec: GroupSpec, a: np.ndarray, m: int) -> np.ndarray:
    """Row-wise group inverse of flat coordinate arrays, reduced mod m."""
    out = _raw_invert(spec, np.asarray(a), _work_dtype(spec, m))
    return (out % m).astype(np.int64)


def _raw_multiply(spec, a, b):
    """The columns of the row-wise products a·b, unreduced, in coordinate
    order; a and b are already in the working dtype.  Every column is a
    fresh array (or scalar) the caller may modify."""
    if spec.kind == FREE_ABELIAN:
        for i in range(spec.rank):
            yield a[..., i] + b[..., i]
        return
    if spec.kind == UNITRIANGULAR:
        n = spec.size
        idx = _ut_index(n)
        for (i, j) in _ut_entries(n):
            s = a[..., idx[(i, j)]] + b[..., idx[(i, j)]]
            for k in range(i + 1, j):
                s = s + a[..., idx[(i, k)]] * b[..., idx[(k, j)]]
            yield s
        return
    pos = 0
    for f in spec.factors:
        k = num_coordinates(f)
        yield from _raw_multiply(f, a[..., pos:pos + k], b[..., pos:pos + k])
        pos += k


def _raw_invert(spec, a, dtype):
    a = a.astype(dtype, copy=False)
    if spec.kind == FREE_ABELIAN:
        return -a
    if spec.kind == UNITRIANGULAR:
        n = spec.size
        idx = _ut_index(n)
        out = {}
        for d in range(1, n):
            for i in range(n - d):
                j = i + d
                s = -a[..., idx[(i, j)]]
                for k in range(i + 1, j):
                    s = s - a[..., idx[(i, k)]] * out[(k, j)]
                out[(i, j)] = s
        return np.stack(np.broadcast_arrays(*[out[p] for p in _ut_entries(n)]), axis=-1)
    pos = 0
    parts = []
    for f in spec.factors:
        k = num_coordinates(f)
        parts.append(_raw_invert(f, a[..., pos:pos + k], dtype))
        pos += k
    return np.concatenate(parts, axis=-1)


@dataclass
class CayleyGraph:
    """Cayley graph of a congruence quotient with a fixed generator order.

    adjacency column j < g is "multiply by generators[j] on the right";
    column g + j is the inverse.  Parallel edges are kept (a generator can
    coincide with an inverse in small quotients), so degree is always 2g.
    """

    quotient: CongruenceQuotient
    generators: tuple
    coords: np.ndarray          # (V, k) int64, row v = coordinates of vertex v
    adjacency: np.ndarray       # (V, 2g) int32
    dist: np.ndarray            # (V,) int32, distance from the identity

    identity_id = 0

    @property
    def spec(self) -> GroupSpec:
        return self.quotient.spec

    @property
    def modulus(self) -> int:
        return self.quotient.modulus

    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def degree(self) -> int:
        return self.adjacency.shape[1]

    @cached_property
    def diameter(self) -> int:
        # eccentricity of the identity; equals the diameter by transitivity.
        # dist is never mutated after construction, so the value is cached.
        return int(self.dist.max())

    def _powers(self) -> np.ndarray:
        m = self.modulus
        k = self.coords.shape[1]
        return np.array([m ** i for i in range(k)], dtype=np.int64)

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """Mixed-radix vertex ids of a (V, k) or (k,) coordinate array."""
        return np.asarray(coords, dtype=np.int64) @ self._powers()

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n_vertices):
            raise ShapeMismatchError(f"vertex id {v} out of range [0, {self.n_vertices})")

    def distances_from(self, v: int) -> np.ndarray:
        """Distance table from v, via the translation d(v, x) = d(e, v^-1 x)."""
        self.check_vertex(v)
        if v == self.identity_id:
            return self.dist
        inv_v = coords_invert(self.spec, self.coords[v], self.modulus)
        return self.dist[product_ids(self.spec, inv_v, self.coords, self.modulus)]

    def distance(self, u: int, v: int) -> int:
        self.check_vertex(u)
        self.check_vertex(v)
        inv_u = coords_invert(self.spec, self.coords[u], self.modulus)
        w = product_ids(self.spec, inv_u, self.coords[v], self.modulus)
        return int(self.dist[int(w)])

    def identity_ball_ids(self, r: int) -> np.ndarray:
        if r < 0:
            raise ConfigError(f"ball radius must be >= 0, got {r}")
        return np.flatnonzero(self.dist <= r)

    def ball_ids(self, center: int, r: int) -> np.ndarray:
        """Sorted vertex ids of B(center, r), by translating the identity ball."""
        self.check_vertex(center)
        base = self.identity_ball_ids(r)
        if center == self.identity_id:
            return base
        out = product_ids(self.spec, self.coords[center], self.coords[base],
                          self.modulus).astype(np.int64)
        out.sort()
        return out

    def distances_to(self, ids, cap: int | None = None) -> np.ndarray:
        """Distance from every vertex to the nearest of ids; -1 beyond cap."""
        return breadth_first_distances(self.adjacency, ids, cap)

    def distance_blocks(self, rows, cols):
        """d(u, v) for u in rows and v in cols, as d(e, u^-1 v): one
        (block, len(cols)) matrix per block of PAIR_ROWS consecutive rows
        (fewer when a block would pass PAIR_CAP pairs)."""
        rows = np.asarray(rows, dtype=np.int64)
        col_coords = self.coords[np.asarray(cols, dtype=np.int64)][None, :, :]
        step = max(1, min(PAIR_ROWS, PAIR_CAP // max(1, col_coords.shape[1])))
        for lo in range(0, len(rows), step):
            inv = coords_invert(self.spec, self.coords[rows[lo:lo + step]], self.modulus)
            yield self.dist[product_ids(self.spec, inv[:, None, :], col_coords,
                                        self.modulus)]

    def subset_diameter(self, ids) -> int:
        """Exact diameter of a vertex subset, the max over distance_blocks.

        The scan stops once the running max reaches the graph diameter,
        which bounds the diameter of every subset.
        """
        best = 0
        for d in self.distance_blocks(ids, ids):
            best = max(best, int(d.max()))
            if best == self.diameter:
                break
        return best

    def ball_size(self, r: int) -> int:
        """|B(v, r)|, independent of v by vertex transitivity."""
        if r < 0:
            raise ConfigError(f"ball radius must be >= 0, got {r}")
        return int(np.count_nonzero(self.dist <= r))

    def sphere_sizes(self) -> np.ndarray:
        return np.bincount(self.dist, minlength=self.diameter + 1)


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, flattened.

    Equal to np.unique(a), by one sort and a neighbour compare.  np.unique
    takes a hash-based path for plain integer arrays in numpy 2.x; with
    numpy 2.4 on a 2-core Xeon it measured about 25x slower than this on
    50k int64 values.
    """
    s = np.sort(a, axis=None)
    if s.size > 1:
        keep = np.empty(s.size, dtype=bool)
        keep[0] = True
        np.not_equal(s[1:], s[:-1], out=keep[1:])
        s = s[keep]
    return s


def breadth_first_distances(adjacency: np.ndarray, sources, cap: int | None = None) -> np.ndarray:
    """Multi-source BFS over a dense adjacency table; -1 where unreached.

    If cap is given the search stops after finishing level cap; entries
    farther than cap stay -1.
    """
    n = adjacency.shape[0]
    dist = np.full(n, -1, dtype=np.int32)
    frontier = np.asarray(sorted(set(int(s) for s in sources)), dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size and (cap is None or level < cap):
        level += 1
        nxt = adjacency[frontier].ravel()
        nxt = nxt[dist[nxt] < 0]
        if nxt.size == 0:
            break
        nxt = sorted_distinct(nxt)
        dist[nxt] = level
        frontier = nxt
    return dist


def quotient_coords(quotient: CongruenceQuotient) -> np.ndarray:
    """(V, k) coordinates of the vertex ids 0..V-1, decoded mixed-radix."""
    m = quotient.modulus
    acc = np.arange(quotient.order, dtype=np.int64)
    coords = np.empty((quotient.order, num_coordinates(quotient.spec)), dtype=np.int64)
    for i in range(coords.shape[1]):
        coords[:, i] = acc % m
        acc = acc // m
    return coords


def build_quotient_cayley(quotient: CongruenceQuotient,
                          generators=None,
                          vertex_cap: int = 10 ** 6,
                          cache=None) -> CayleyGraph:
    """Enumerate all m^k coordinate tuples and wire the generator edges.

    The vertex order is the mixed-radix order of coordinate tuples, which
    makes every downstream greedy algorithm deterministic.  When a cache is
    supplied, adjacency and distance tables are loaded from it on a key hit
    and stored after a fresh build.
    """
    spec = quotient.spec
    m = quotient.modulus
    if generators is None:
        generators = spec.generators
    generators = tuple(generators)
    if cache is not None:
        cached = cache.load(quotient, generators)
        if cached is not None:
            return cached
    if not generators:
        raise ConfigError("empty generating set")
    e = identity(spec)
    for g in generators:
        validate_element(spec, g)
        if g == e:
            raise ConfigError("identity is not allowed as a generator")
    n = quotient.order
    if n > vertex_cap:
        raise ResourceCapError(
            f"quotient order {n} exceeds the vertex cap {vertex_cap}")

    coords = quotient_coords(quotient)
    # generator coordinates are reduced first, so the product's operands
    # lie in [0, m) as the overflow bound assumes
    steps = list(generators) + [invert(spec, g) for g in generators]
    adjacency = np.stack(
        [product_ids(spec, coords, np.array(flatten(spec, reduce_mod(quotient, g)),
                                            dtype=np.int64), m)
         for g in steps], axis=1).astype(np.int32, copy=False)

    dist = breadth_first_distances(adjacency, [0])
    if (dist < 0).any():
        raise ConfigError("generating set does not generate the quotient "
                          f"({int((dist < 0).sum())} unreachable vertices)")
    graph = CayleyGraph(quotient=quotient, generators=generators,
                        coords=coords, adjacency=adjacency, dist=dist)
    if cache is not None:
        cache.store(graph)
    return graph


# --- growth of the infinite group ------------------------------------------

def enumerate_ball(spec: GroupSpec, r_max: int, state_cap: int = 10 ** 7):
    """BFS ball of the infinite group: dict element -> word length <= r_max.

    Exact tuple arithmetic throughout; raises ResourceCapError if more than
    state_cap elements would be stored.
    """
    if r_max < 0:
        raise ConfigError(f"r_max must be >= 0, got {r_max}")
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


@dataclass(frozen=True)
class GrowthProfile:
    """Ball sizes of the infinite group: sizes[r] = |B_G(e, r)|."""

    spec: GroupSpec
    sizes: tuple

    @property
    def r_max(self) -> int:
        return len(self.sizes) - 1


def growth_profile(spec: GroupSpec, r_max: int, state_cap: int = 10 ** 7) -> GrowthProfile:
    dist = enumerate_ball(spec, r_max, state_cap)
    counts = [0] * (r_max + 1)
    for d in dist.values():
        counts[d] += 1
    sizes = []
    total = 0
    for c in counts:
        total += c
        sizes.append(total)
    return GrowthProfile(spec=spec, sizes=tuple(sizes))


@dataclass(frozen=True)
class GrowthBound:
    """Certified polynomial bound |B(e, r)| <= C r^d on validated_range.

    C is an exact rational so the defining inequality can be checked with
    no rounding anywhere.
    """

    C: Fraction
    d: int
    validated_range: tuple
    slope: float | None = None

    def check(self, r: int, size: int) -> bool:
        return size <= self.C * Fraction(r) ** self.d

    def violations(self, sizes) -> list:
        """(r, size) pairs with sizes[r] > C r^d, r >= 1."""
        return [(r, s) for r, s in enumerate(sizes)
                if r >= 1 and not self.check(r, s)]


def loglog_slope(profile: GrowthProfile) -> float:
    """Least-squares slope of log |B(r)| against log r over the top half
    of the profiled range."""
    r_max = profile.r_max
    lo = max(1, (r_max + 1) // 2)
    pts = [(log(r), log(profile.sizes[r])) for r in range(lo, r_max + 1)]
    if len(pts) < 2:
        raise GrowthBoundError("profile too short for a slope estimate")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    xbar = xs.mean()
    denom = ((xs - xbar) ** 2).sum()
    if denom == 0:
        raise GrowthBoundError("degenerate radius range")
    return float(((xs - xbar) * (ys - ys.mean())).sum() / denom)


SLOPE_MARGIN = 0.25


def fit_growth(profile: GrowthProfile, d_candidates=None, d: int | None = None) -> GrowthBound:
    """Pick the degree and the exact optimal constant for it.

    With an explicit d, only C is computed.  Otherwise d is the smallest
    candidate whose value is within SLOPE_MARGIN above the measured log-log
    slope; the returned constant C = max_r sizes[r]/r^d makes the bound
    tight and valid on the whole profiled range by construction.
    """
    if profile.r_max < 4:
        raise GrowthBoundError("need a profile out to radius >= 4 to fit")
    slope = loglog_slope(profile)
    if d is None:
        if d_candidates is None:
            d_candidates = range(0, 13)
        d_candidates = sorted(set(int(x) for x in d_candidates))
        if not d_candidates:
            raise GrowthBoundError("empty candidate list")
        chosen = None
        for cand in d_candidates:
            if cand < 0:
                raise GrowthBoundError(f"degree candidates must be >= 0, got {cand}")
            if slope <= cand + SLOPE_MARGIN:
                chosen = cand
                break
        if chosen is None:
            raise GrowthBoundError(
                f"no candidate degree fits the measured slope {slope:.3f}")
        d = chosen
    elif d < 0:
        raise GrowthBoundError(f"degree must be >= 0, got {d}")
    C = max(Fraction(profile.sizes[r], r ** d) for r in range(1, profile.r_max + 1))
    return GrowthBound(C=C, d=d, validated_range=(1, profile.r_max), slope=slope)
