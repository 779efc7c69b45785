"""diagonal_transfer against a copy of its scalar implementation.

old_diagonal_transfer below is the transfer as it stood on the scalar
tuple arithmetic: the ball from the enumerate_ball dict, pair distances
from the scalar oracle's multiply/invert, and its own pairwise (R, S)
check.  The ported transfer must return the same coloring and radii, and
raise the same error type with the same message, on every input.
"""
import random

import numpy as np
import pytest

from boxdim import boxspace as boxspace_module
from boxdim.cayley import enumerate_ball
from boxdim.covers import close_clusters, diagonal_transfer
from boxdim.errors import ConfigError, InsufficientInputError, ResourceCapError
from boxdim.groups import direct_product, flatten, free_abelian, unitriangular
from scalar_oracle import invert, multiply


def old_partition_valid(points, dist, coloring, R, S):
    by_color = {}
    for p in points:
        by_color.setdefault(coloring[p], []).append(p)
    for pts in by_color.values():
        close = [(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))
                 if dist(pts[a], pts[b]) < R]
        pairs = np.array(close, dtype=np.int64).reshape(-1, 2).T
        for members in close_clusters(len(pts), [pairs]):
            members = members.tolist()
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    if dist(pts[members[a]], pts[members[b]]) > S:
                        return False
    return True


def old_diagonal_transfer(spec, inputs, R, S, r0, n=None, state_cap=10 ** 6):
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

    lengths = enumerate_ball(spec, 2 * r0, state_cap)
    ball = [v for v, L in lengths.items() if L <= r0]
    ball.sort(key=lambda v: (lengths[v], flatten(spec, v)))

    live = list(range(len(inputs)))
    coloring = {}
    for elt in ball:
        votes = {}
        voters = {}
        for idx in live:
            val = inputs[idx][1].get(elt)
            if val is None:
                continue
            votes[val] = votes.get(val, 0) + 1
            voters.setdefault(val, []).append(idx)
        if not votes:
            raise InsufficientInputError(
                f"insufficient input radii: no live cover contains {elt!r}")
        top = max(votes.values())
        choice = min(v for v, c in votes.items() if c == top)
        coloring[elt] = choice
        live = voters[choice]

    def dist(u, v):
        return lengths[multiply(spec, invert(spec, u), v)]

    if not old_partition_valid(ball, dist, coloring, R, S):
        raise InsufficientInputError(
            "insufficient input radii: stitched coloring fails the "
            f"(R={R}, S={S}) check")
    surviving = tuple(radii[i] for i in live)
    discarded = tuple(r for r in radii if r not in surviving)
    return coloring, surviving, discarded


def outcome(fn, *args, **kwargs):
    """The result as (coloring, surviving, discarded), or the error raised
    as (type, message)."""
    try:
        res = fn(*args, **kwargs)
    except (ConfigError, InsufficientInputError, ResourceCapError) as e:
        return type(e), str(e)
    if isinstance(res, tuple):
        return res
    return res.coloring, res.surviving_radii, res.discarded_radii


def striped(radius, flip=False):
    out = {}
    for x in range(-radius, radius + 1):
        fam = (x // 4) % 2
        out[(x,)] = 1 - fam if flip else fam
    return out


def test_demo_inputs_match_the_scalar_transfer():
    Z = free_abelian(1)
    partial = {v: f for v, f in striped(10).items() if v[0] >= 0}
    cases = [
        ([(r, striped(r)) for r in (10, 15, 20, 25, 30)], 1),
        ([(10, striped(10)), (15, striped(15, flip=True)), (20, striped(20))], 1),
        ([(10, partial)], None),
    ]
    for inputs, n in cases:
        want = outcome(old_diagonal_transfer, Z, inputs, R=2, S=3, r0=4, n=n)
        assert outcome(diagonal_transfer, Z, inputs, R=2, S=3, r0=4, n=n) == want


SPECS = {
    "Z": free_abelian(1),
    "Z2": free_abelian(2),
    "UT3": unitriangular(3),
    "ZxUT3": direct_product(free_abelian(1), unitriangular(3)),
}


def random_case(rng, spec):
    """Stitched inputs for a random (R, S, r0): restrictions of one random
    coloring of B(e, r0 + 1), each input perturbed (some colors changed,
    some elements dropped) when the case is dishonest; sometimes too small
    or repeated radii, or a family bound n that an index breaks."""
    r0 = rng.randint(0, 3)
    R, S = rng.randint(0, 3), rng.randint(0, 4)
    n_colors = rng.randint(1, 4)
    elements = list(enumerate_ball(spec, r0 + 1))
    truth = {v: rng.randrange(n_colors) for v in elements}
    honest = rng.random() < 0.5
    radii = rng.sample(range(r0 + R + S, r0 + R + S + 8), rng.randint(1, 4))
    if rng.random() < 0.1:
        radii[0] -= 1
    if rng.random() < 0.1:
        radii.append(radii[0])
    inputs = []
    for r in radii:
        coloring = dict(truth)
        if not honest:
            for v in rng.sample(elements, rng.randint(0, len(elements) // 3)):
                if rng.random() < 0.2:
                    del coloring[v]
                else:
                    coloring[v] = rng.randrange(n_colors + 1)
        inputs.append((r, coloring))
    n = rng.choice((None, None, n_colors - 1, n_colors))
    return inputs, dict(R=R, S=S, r0=r0, n=n)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_random_stitched_inputs_match_the_scalar_transfer(name):
    spec = SPECS[name]
    rng = random.Random(f"transfer-{name}")
    kinds = set()
    for _ in range(40):
        inputs, kw = random_case(rng, spec)
        want = outcome(old_diagonal_transfer, spec, inputs, **kw)
        assert outcome(diagonal_transfer, spec, inputs, **kw) == want, kw
        kinds.add(want[0] if isinstance(want[0], type) else "ok")
        if want[0] is InsufficientInputError and "check" in want[1]:
            kinds.add("failed check")
    # the cases reach a result, the (R, S) check failing and the input errors
    assert {"ok", "failed check", ConfigError} <= kinds, kinds


def test_transfer_negative_r_and_s_match_the_scalar_transfer():
    # R < 0 puts no pair within R; S < 0 fails exactly the clusters of two
    # or more points
    spec = free_abelian(1)
    for coloring in (striped(12), {(x,): x % 2 for x in range(-12, 13)},
                     {(x,): 0 for x in range(-12, 13)}):
        for R, S in ((-1, 3), (2, -1), (1, -1), (-2, -2), (0, 0)):
            inputs = [(12, coloring)]
            want = outcome(old_diagonal_transfer, spec, inputs, R=R, S=S, r0=3)
            assert outcome(diagonal_transfer, spec, inputs, R=R, S=S, r0=3) == want


def test_transfer_family_values_need_only_be_hashable_and_ordered():
    # family values are compared for equality and ordered for ties, never
    # read as integers
    spec = free_abelian(1)
    names = ("north", "south", "east")
    for R, S in ((2, 3), (1, 0), (3, 2)):
        inputs = [(r, {(x,): names[(x // 4) % 3] for x in range(-r, r + 1)})
                  for r in (10, 12)]
        want = outcome(old_diagonal_transfer, spec, inputs, R=R, S=S, r0=4)
        assert outcome(diagonal_transfer, spec, inputs, R=R, S=S, r0=4) == want


def test_transfer_refuses_a_ball_past_the_point_cap(monkeypatch):
    # B(e, 45) of Z^2 has 2 * 45^2 + 2 * 45 + 1 = 4141 points; the refusal
    # comes before the inputs are read
    with pytest.raises(ResourceCapError, match=r"^4141 points exceeds the cap 4096$"):
        diagonal_transfer(free_abelian(2), [(50, {})], R=1, S=1, r0=45)
    # at the cap itself the transfer runs: B(e, 4) of Z^2 has 41 points
    monkeypatch.setattr(boxspace_module, "GRAPH_POINT_CAP", 41)
    spec = free_abelian(2)
    coloring = {v: 0 for v in enumerate_ball(spec, 4)}
    res = diagonal_transfer(spec, [(20, coloring)], R=1, S=0, r0=4)
    assert len(res.coloring) == 41
    with pytest.raises(ResourceCapError, match=r"^61 points exceeds the cap 41$"):
        diagonal_transfer(spec, [(20, coloring)], R=1, S=0, r0=5)


def test_transfer_state_cap_error_is_unchanged():
    spec = free_abelian(3)
    inputs = [(40, {})]
    want = outcome(old_diagonal_transfer, spec, inputs, R=1, S=1, r0=6, state_cap=100)
    assert want[0] is ResourceCapError
    assert outcome(diagonal_transfer, spec, inputs, R=1, S=1, r0=6, state_cap=100) == want

