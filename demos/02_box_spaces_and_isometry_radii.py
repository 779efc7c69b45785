"""Box spaces and ball-isometry radii.

A box space is the disjoint union of the Cayley graphs of a filtration's
quotients, with cross-component distance diam_i + diam_j.  Larger
components look locally more and more like the infinite group; the
isometry radius makes that quantitative, and the profile's thresholds say
where in the filtration a given locality radius is first reached.
"""
from boxdim import (
    CongruenceQuotient,
    Filtration,
    build_box_space,
    free_abelian,
    isometry_profile,
    isometry_radius,
    verify_ball_isometry,
)

# The box space of Z along the powers-of-two filtration.
filtration = Filtration(free_abelian(1), tuple(2 ** t for t in range(1, 9)))
box = build_box_space(filtration)
print(f"components: {box.moduli}")
print(f"diameters:  {box.diameters}")

# Distances inside a component follow the cycle metric; distances across
# components are the sum of the two diameters, so components are far apart
# exactly when they are large.
p, q = (2, 0), (2, 4)
print(f"d({p}, {q}) = {box.distance(p, q)}   (same component)")
p, q = (2, 0), (5, 10)
print(f"d({p}, {q}) = {box.distance(p, q)}   (cross component: 4 + 32)")
print()

# The isometry radius of Z mod m is (m - 1) // 2: the largest k for which
# the ball B(e, k) of Z maps injectively onto the quotient.
for m in (4, 16, 64):
    q = CongruenceQuotient(free_abelian(1), m)
    r = isometry_radius(q)
    print(f"Z mod {m:3d}: isometry radius {r.radius:2d} "
          f"(injective at {r.radius}: {verify_ball_isometry(q, r.radius)}, "
          f"at {r.radius + 1}: {verify_ball_isometry(q, r.radius + 1)})")
print()

# The profile collects the radii across the box space; threshold(k) is the
# first component from which on every component's balls of radius k are
# exact copies of the group's (on a nested filtration, the first to reach k).
profile = isometry_profile(box)
print(f"effective radii: {profile.effective_radii}")
for k in (1, 4, 16, 60):
    print(f"threshold({k:2d}) = {profile.threshold(k)}")
