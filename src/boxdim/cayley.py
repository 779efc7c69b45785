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
from itertools import accumulate, islice
from math import log

import numpy as np

from .errors import ConfigError, GrowthBoundError, ResourceCapError, ShapeMismatchError, check_int
from .groups import (
    FREE_ABELIAN,
    UNITRIANGULAR,
    CongruenceQuotient,
    GroupSpec,
    _ut_entries,
    _ut_index,
    flatten,
    identity,
    num_coordinates,
    unflatten,
)

_INT64_SAFE = 2 ** 62
PAIR_CAP = 4 * 10 ** 6      # max pairwise comparisons for an exact set diameter
SLICE = 2 ** 18             # coordinates per slice of a sphere's candidate products


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
                s += a[..., idx[(i, k)]] * b[..., idx[(k, j)]]
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
        # cast: on one row these are ints, and 2**63 beside -1 stacks as float64
        return np.stack([np.asarray(out[p], dtype) for p in _ut_entries(n)], axis=-1)
    pos = 0
    parts = []
    for f in spec.factors:
        k = num_coordinates(f)
        parts.append(_raw_invert(f, a[..., pos:pos + k], dtype))
        pos += k
    return np.concatenate(parts, axis=-1)


def _steps(spec: GroupSpec, generators) -> np.ndarray:
    """(2g, k) exact object rows: the generators, then their inverses."""
    gens = np.array([flatten(spec, g) for g in generators], dtype=object)
    gens = gens.reshape(-1, num_coordinates(spec))
    return np.concatenate([gens, _raw_invert(spec, gens, object)])


class Component:
    """What both component kinds share: CayleyGraph and the matrix-backed
    FiniteMetricSpace each give n_vertices, distances_from(v, ids) and
    _pair_distances(xs, ys), the (b, s, L) distances from the sources xs
    (b, s) of b rows of ids to the ids ys (b, L) of their row."""

    def check_vertex(self, v: int) -> None:
        if checked_ids(v, self.n_vertices).ndim:
            raise ShapeMismatchError(f"vertex id {v!r} is not a single id")

    def distance(self, u: int, v: int) -> int:
        return int(self.distances_from(u, v))

    def row_diameters(self, rows, block: int) -> np.ndarray:
        """The exact diameter of each row of ids, in blocks of at most block
        pairs: whole rows at a time, or one row's sources in slices when a
        row is longer."""
        rows = checked_ids(rows, self.n_vertices)
        n, L = rows.shape
        per = max(1, block // max(L, 1))         # sources per block
        step = max(1, per // max(L, 1))          # rows per block
        out = np.zeros(n, dtype=np.int64)
        for lo in range(0, n, step):
            ys = rows[lo:lo + step]
            for a in range(0, L, per):
                d = self._pair_distances(ys[:, a:a + per], ys)
                out[lo:lo + step] = np.maximum(out[lo:lo + step], d.max(axis=(1, 2)))
        return out


@dataclass
class CayleyGraph(Component):
    """Cayley graph of a congruence quotient with a fixed generator order.

    adjacency column j < g is "multiply by spec.generators[j] on the right";
    column g + j is the inverse.  Parallel edges are kept (a generator can
    coincide with an inverse in small quotients), so degree is always 2g.
    """

    quotient: CongruenceQuotient
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

    @cached_property
    def _by_distance(self) -> np.ndarray:
        return np.argsort(self.dist, kind="stable")

    @cached_property
    def _ball_sizes(self) -> np.ndarray:
        return np.cumsum(self.sphere_sizes())

    def distances_from(self, v: int, ids) -> np.ndarray:
        """d(v, x) for each x in ids, via the translation d(v, x) = d(e, v^-1 x)."""
        self.check_vertex(v)
        inv_v = coords_invert(self.spec, self.coords[v], self.modulus)
        ids = checked_ids(ids, self.n_vertices)
        return self.dist[product_ids(self.spec, inv_v, self.coords[ids], self.modulus)]

    def identity_ball_ids(self, r: int) -> np.ndarray:
        return self.ball_ids(self.identity_id, r)

    def ball_ids(self, center: int, r: int) -> np.ndarray:
        """Sorted ids of B(center, r): the first |B(e, r)| ids by distance from e, moved."""
        self.check_vertex(center)
        ball = self._by_distance[:self.ball_size(r)]
        if center != self.identity_id:
            ball = product_ids(self.spec, self.coords[center], self.coords[ball],
                               self.modulus).astype(np.int64)
        return np.sort(ball)

    def distances_to(self, ids, cap: int | None = None) -> np.ndarray:
        """Distance from every vertex to the nearest of ids; -1 beyond cap."""
        return breadth_first_distances(self.adjacency, checked_ids(ids, self.n_vertices), cap)

    def is_ball(self, ids, center: int, r: int) -> bool:
        """Whether the distinct ids are exactly B(center, r), r >= 0: as many as it
        holds, all within r.  Its diameter is then min(2r, diam): B(e, r)^-1 B(e, r) =
        B(e, 2r) for symmetric generators, and e's BFS levels have no gaps up to diam."""
        ids = sorted_distinct(ids)
        return ids.size == self.ball_size(r) and self.distances_from(center, ids).max() <= r

    def class_keys(self, rows: np.ndarray):
        """The translation classes of equal-length subsets, one per row:
        (first, inverse), class c's first row first[c] and row i's class
        inverse[i].  A row's key is the sorted ids of x_0^-1 x, compared
        byte for byte; left translation is an isometry, so a class fixes
        the diameter."""
        inv_first = coords_invert(self.spec, self.coords[rows[:, 0]], self.modulus)
        # ids are below vertex_cap <= 2^31 - 1, so int64 holds any id dtype exactly
        moved = product_ids(self.spec, inv_first[:, None, :], self.coords[rows],
                            self.modulus).astype(np.int64)
        moved.sort(axis=1)
        keys = moved.view(np.dtype((np.void, moved.itemsize * moved.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return first, inverse

    def _pair_distances(self, xs, ys) -> np.ndarray:
        """|x^-1 y| for each source x and id y of a row (Component)."""
        inv = coords_invert(self.spec, self.coords[xs], self.modulus)
        return self.dist[product_ids(self.spec, inv[:, :, None, :],
                                     self.coords[ys][:, None, :, :], self.modulus)]

    def ball_size(self, r: int) -> int:
        """|B(v, r)|, independent of v by vertex transitivity."""
        return int(self._ball_sizes[min(check_int("ball radius", r, 0), self.diameter)])

    def sphere_sizes(self) -> np.ndarray:
        return np.bincount(self.dist, minlength=self.diameter + 1)


def checked_ids(ids, n: int) -> np.ndarray:
    """ids as int64, or a ShapeMismatchError naming an id that is not an integer
    (bools count) in [0, n): numpy would read 1.5 as 1 and -1 from the end."""
    try:
        ids = np.asarray(ids)
    except ValueError:                  # a ragged list
        raise ShapeMismatchError(f"vertex ids {ids!r} are not an array") from None
    # floats, strings, None and integers past 64 bits are read one by one
    bad = ids.dtype.kind not in "iub" and [x for x in ids.ravel().tolist()
                                           if not isinstance(x, int)]
    if bad:
        raise ShapeMismatchError(f"vertex id {bad[0]!r} is not an integer")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)].flat[0]
        raise ShapeMismatchError(f"vertex id {bad} out of range [0, {n})")
    return ids.astype(np.int64, copy=False)


def sorted_distinct(a: np.ndarray, shift: int = 0, overwrite: bool = False) -> np.ndarray:
    """The sorted distinct values of an integer array, flattened; with a
    shift, for keys packed as item << shift | value, each item once with
    its least value.  With overwrite, a caller that owns a contiguous a
    lets it be sorted in place instead of a copy.

    At shift 0 this equals np.unique(a), by one sort and a neighbour
    compare.  np.unique takes a hash-based path for plain integer arrays in
    numpy 2.x; with numpy 2.4 on a 2-core Xeon it measured about 25x slower
    than this on 50k int64 values.
    """
    if overwrite:
        s = a.reshape(-1)
        s.sort()
    else:
        s = np.sort(a, axis=None)
    if s.size > 1:
        item = s >> shift if shift else s
        keep = np.empty(s.size, dtype=bool)
        keep[0] = True
        np.not_equal(item[1:], item[:-1], out=keep[1:])
        del item                    # before the copy: three arrays at most
        s = s[keep]
    return s


def breadth_first_distances(adjacency: np.ndarray, sources, cap: int | None = None) -> np.ndarray:
    """Multi-source BFS over a dense adjacency table; -1 where unreached.

    If cap is given the search stops after finishing level cap; entries
    farther than cap stay -1.
    """
    n = adjacency.shape[0]
    dist = np.full(n, -1, dtype=np.int32)
    frontier = sorted_distinct(np.asarray(sources, dtype=np.int64))
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
    """(V, k) coordinates of the vertex ids 0..V-1, decoded mixed-radix:
    the first coordinate is the least significant digit."""
    rows = _key_rows(np.arange(quotient.order, dtype=np.int64), 0, quotient.modulus,
                     num_coordinates(quotient.spec))
    return np.ascontiguousarray(rows[:, ::-1])


def build_quotient_cayley(quotient: CongruenceQuotient,
                          vertex_cap: int = 10 ** 6) -> CayleyGraph:
    """Enumerate all m^k coordinate tuples and wire the edges of the
    spec's generators, which its constructor has validated.

    The vertex order is the mixed-radix order of coordinate tuples, which
    makes every downstream greedy algorithm deterministic.
    """
    spec = quotient.spec
    m = quotient.modulus
    if not spec.generators:
        raise ConfigError("empty generating set")
    if identity(spec) in spec.generators:
        raise ConfigError("identity is not allowed as a generator")
    n = quotient.order
    if n > vertex_cap:
        # m^k can pass the 4,300 digits str() prints
        raise ResourceCapError(f"quotient order {n if n < 2 ** 64 else 'past 2**64'} "
                               f"exceeds the vertex cap {vertex_cap}")

    coords = quotient_coords(quotient)
    # generator coordinates are reduced first, so the product's operands
    # lie in [0, m) as the overflow bound assumes
    steps = (_steps(spec, spec.generators) % m).astype(np.int64)
    adjacency = np.stack([product_ids(spec, coords, g, m) for g in steps],
                         axis=1).astype(np.int32, copy=False)

    dist = breadth_first_distances(adjacency, [0])
    if (dist < 0).any():
        raise ConfigError("generating set does not generate the quotient "
                          f"({int((dist < 0).sum())} unreachable vertices)")
    return CayleyGraph(quotient=quotient, coords=coords, adjacency=adjacency, dist=dist)


# --- growth of the infinite group ------------------------------------------

def _abs_max(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def row_keys(rows: np.ndarray, lo: int, base: int) -> np.ndarray:
    """Mixed-radix keys of (n, k) coordinate rows with entries in
    [lo, lo + base).  The first coordinate is the most significant digit,
    so keys sort like the rows, lexicographically.  int64 when base^k
    fits, else exact object integers."""
    k = rows.shape[1]
    dtype = np.int64 if base ** k < _INT64_SAFE else object
    rows = rows.astype(dtype, copy=False)
    keys = np.zeros(rows.shape[0], dtype=dtype)
    for i in range(k):
        keys *= base
        keys += rows[:, i] - lo
    return keys


def _key_rows(keys: np.ndarray, lo: int, base: int, k: int) -> np.ndarray:
    """The rows of row_keys, decoded."""
    rows = np.empty((keys.size, k), dtype=keys.dtype)
    for i in range(k - 1, -1, -1):
        rows[:, i] = keys % base
        keys = keys // base
    rows += lo
    return rows


def _row_index(keys: np.ndarray):
    """find(q) for distinct keys: the index in keys of each key of q, else
    -1, by a searchsorted on the sorted keys.  keys may be empty only if q
    is."""
    order = np.argsort(keys)
    keys = keys[order]

    def find(q: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(keys, q)
        np.minimum(pos, keys.size - 1, out=pos)
        at = order[pos]
        at[keys[pos] != q] = -1
        return at
    return find


def _product_keys(spec: GroupSpec, a: np.ndarray, b: np.ndarray, span: int) -> np.ndarray:
    """row_keys(p, -span, 2 span + 1) of the row-wise products p = a·b, for
    a and b broadcast as in coords_multiply and products with entries in
    [-span, span], without building p: each product column is added into
    the keys as it is produced, in the dtype row_keys picks.  Products are
    exact: int64 where _work_dtype proves it at the operands' largest
    |coordinate|, else object integers."""
    base = 2 * span + 1
    dtype = np.int64 if base ** num_coordinates(spec) < _INT64_SAFE else object
    work = _work_dtype(spec, max(_abs_max(a), _abs_max(b)) + 1)
    keys = None
    for col in _raw_multiply(spec, a.astype(work, copy=False), b.astype(work, copy=False)):
        col = col.astype(dtype, copy=False)     # exact: every entry is within span
        col += span
        if keys is None:
            keys = col
        else:
            keys *= base
            keys += col
    return keys


def ball_levels(spec: GroupSpec, state_cap: int | None = None):
    """The spheres of the infinite group's Cayley graph, outward from e.

    Yields, for word length L = 0, 1, 2, ..., the (n_L, k) coordinate rows
    of the elements of length exactly L, in lexicographic row order; stops
    after the first empty sphere (never, for an infinite group).  Each
    sphere is the product of the previous one with every generator and
    inverse, deduplicated on mixed-radix keys.  The generating set is
    symmetric, so every neighbour of sphere L lies in sphere L-1, L or L+1:
    a candidate is new unless it is in sphere L or L-1, and only those two
    spheres are kept.  Arithmetic is exact: int64 where the overflow bound
    at the sphere's largest coordinate proves it, object integers
    elsewhere.  Raises ResourceCapError once a sphere takes the ball past
    state_cap elements.

    The candidates' keys are built in slices of at most SLICE coordinates
    (at least one element's products), straight from the products'
    columns (_product_keys), and only each slice's new keys are kept.
    Their keys' span is bounded before any slice is built: a product
    coordinate is a polynomial with coefficients +1 in the operands'
    coordinates, so at the column maxima of |sphere| and |steps| it bounds
    that coordinate of every candidate.
    """
    k = num_coordinates(spec)
    steps = _steps(spec, spec.generators)
    step_max = np.abs(steps).max(axis=0)
    per = max(1, SLICE // steps.size)           # sphere rows per slice
    steps = steps[None]

    prev = np.zeros((0, k), dtype=np.int64)
    level = np.zeros((1, k), dtype=np.int64)
    total = 1
    radius = 0
    while True:
        yield level
        if not level.shape[0]:
            return
        radius += 1
        level_max = np.abs(level).max(axis=0).astype(object)
        span = max(_abs_max(prev), *map(int, _raw_multiply(spec, level_max, step_max)))
        base = 2 * span + 1
        new, known = [], None
        for lo in range(0, level.shape[0], per):
            keys = sorted_distinct(_product_keys(spec, level[lo:lo + per, None], steps, span),
                                   overwrite=True)
            if known is None:   # built once the first slice's keys are deduplicated
                known = np.sort(np.concatenate([row_keys(level, -span, base),
                                                row_keys(prev, -span, base)]))
            pos = np.minimum(np.searchsorted(known, keys), known.size - 1)
            new.append(keys[known[pos] != keys])
        keys = new[0] if len(new) == 1 else sorted_distinct(np.concatenate(new), overwrite=True)
        prev, level = level, _key_rows(keys, -span, base, k)
        total += keys.size
        if keys.size and state_cap is not None and total > state_cap:
            raise ResourceCapError(
                f"ball enumeration exceeded {state_cap} elements at radius {radius}")


def _ball(spec: GroupSpec, r_max: int, state_cap: int):
    """The spheres of ball_levels out to word length r_max.  A ball of radius
    L >= 1 with no empty sphere has over L elements, so ball_levels ends or
    raises by length max(state_cap, 1); no larger r_max changes anything."""
    r_max = check_int("r_max", r_max, 0)
    return islice(ball_levels(spec, state_cap), min(r_max, max(state_cap, 1)) + 1)


def word_distances(spec: GroupSpec, levels: list, r: int) -> np.ndarray:
    """(n, n) int32 word distances d(u, v) = |u^-1 v| in G between the n
    elements of B(e, r), in ball_levels order.

    levels are the spheres of B(e, 2r), which holds every u^-1 v; its
    length is the index of the sphere that holds it, found by the
    product's key (_product_keys) among the keys of B(e, 2r).  Products go
    in blocks of about SLICE pairs, in int64 where _work_dtype proves it at
    the ball's largest |coordinate|, else in object integers.
    """
    rows = np.concatenate(levels)
    lengths = np.repeat(np.arange(len(levels), dtype=np.int32), [s.shape[0] for s in levels])
    span = _abs_max(rows)
    find = _row_index(row_keys(rows, -span, 2 * span + 1))
    ball = rows[:sum(s.shape[0] for s in levels[:r + 1])]
    dtype = _work_dtype(spec, _abs_max(ball) + 1)
    n = ball.shape[0]
    out = np.empty((n, n), dtype=np.int32)
    per = max(1, SLICE // n)                    # rows per block
    for lo in range(0, n, per):
        inv = _raw_invert(spec, ball[lo:lo + per], dtype)
        at = find(_product_keys(spec, inv[:, None], ball[None], span))
        assert (at >= 0).all()
        out[lo:lo + per] = lengths[at]
    return out


def enumerate_ball(spec: GroupSpec, r_max: int, state_cap: int = 10 ** 7):
    """BFS ball of the infinite group: dict element -> word length <= r_max.

    Exact arithmetic throughout (ball_levels); raises ResourceCapError if
    more than state_cap elements would be stored.
    """
    return {unflatten(spec, row): L
            for L, rows in enumerate(_ball(spec, r_max, state_cap))
            for row in rows.tolist()}


@dataclass(frozen=True)
class GrowthProfile:
    """Ball sizes of the infinite group: sizes[r] = |B_G(e, r)|."""

    spec: GroupSpec
    sizes: tuple

    @property
    def r_max(self) -> int:
        return len(self.sizes) - 1


def growth_profile(spec: GroupSpec, r_max: int, state_cap: int = 10 ** 7) -> GrowthProfile:
    """Ball sizes out to r_max, summed from the sphere sizes of ball_levels."""
    sizes = list(accumulate(rows.shape[0] for rows in _ball(spec, r_max, state_cap)))
    # a finite group runs out of spheres; its ball sizes stay constant
    sizes += sizes[-1:] * (r_max + 1 - len(sizes))
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
MAX_DEGREE = 12


def fit_growth(profile: GrowthProfile, d: int | None = None) -> GrowthBound:
    """Pick the degree and the exact optimal constant for it.

    With an explicit d, only C is computed.  Otherwise d is the smallest
    degree in 0..MAX_DEGREE within SLOPE_MARGIN above the measured log-log
    slope; the returned constant C = max_r sizes[r]/r^d makes the bound
    tight and valid on the whole profiled range by construction.
    """
    if profile.r_max < 4:
        raise GrowthBoundError("need a profile out to radius >= 4 to fit")
    slope = loglog_slope(profile)
    if d is None:
        d = next((c for c in range(MAX_DEGREE + 1) if slope <= c + SLOPE_MARGIN), None)
        if d is None:
            raise GrowthBoundError(
                f"no candidate degree fits the measured slope {slope:.3f}")
    elif d < 0:
        raise GrowthBoundError(f"degree must be >= 0, got {d}")
    # once 2^d passes every size, sizes[r] / r^d < 1 <= sizes[1] for r >= 2
    top = 1 if d >= max(profile.sizes).bit_length() else profile.r_max
    C = max(Fraction(profile.sizes[r], r ** d) for r in range(1, top + 1))
    return GrowthBound(C=C, d=d, validated_range=(1, profile.r_max), slope=slope)
