"""Dimension at a single scale, and profiles across scales.

A space has (R, S)-dimension at most n when it splits into n + 1 families
of R-disjoint sets of diameter at most S.  The exact solver proves the
minimum on small components; greedy and structured constructions scale to
the full box space, and every witness is verified before it is reported.
"""
from boxdim import (
    CongruenceQuotient,
    Filtration,
    FiniteMetricSpace,
    asdim_profile,
    build_box_space,
    build_quotient_cayley,
    free_abelian,
    rs_dim,
    unitriangular,
)

# On the 12-cycle with R = 2, S = 3 the exact branch-and-bound proves that
# one family is not enough and two suffice (alternating short arcs).
cyc = FiniteMetricSpace.from_graph(
    build_quotient_cayley(CongruenceQuotient(free_abelian(1), 12)))
exact = rs_dim(cyc, 2, 3, "exact")
print(f"12-cycle, R=2, S=3: n = {exact.n} "
      f"({exact.n_families} families, method {exact.method})")
print(f"  brute-force enumeration agrees: "
      f"n = {rs_dim(cyc, 2, 3, 'exhaustive').n}")
greedy = rs_dim(cyc, 2, 3, "greedy")
print(f"  greedy witness uses {greedy.n_families} families (upper bound)")
print()

# Profiles sweep R and report the smallest verified family count with set
# diameters below a cap.  For the box space of Z the answer is 1 at every
# scale; for the box space of Z^2 it is 2. Both match the asymptotic
# dimension, which equals the Hirsch length for these groups.
zbox = build_box_space(Filtration(free_abelian(1),
                                  tuple(2 ** t for t in range(1, 11))))
table = asdim_profile(zbox, (2, 4, 8), S_cap=64, mode="structured")
print("box space of Z, structured witnesses:")
for row in table.rows:
    print(f"  R = {row.R}: n = {row.n_achieved} with S = {row.s_achieved} "
          f"(Hirsch length {row.hirsch_length})")
print()

z2box = build_box_space(Filtration(free_abelian(2), (4, 16, 64)))
table = asdim_profile(z2box, (2, 4), S_cap=32, mode="structured")
print("box space of Z^2, structured witnesses:")
for row in table.rows:
    print(f"  R = {row.R}: n = {row.n_achieved} with S = {row.s_achieved}")
print()

# When no witness fits under the cap the row says so instead of guessing.
tight = asdim_profile(z2box, (8,), S_cap=4, mode="structured")
row = tight.rows[0]
print(f"S_cap too small: n = {row.n_achieved}, note = {row.note!r}")
print()

# The greedy mode handles components where nothing structured applies,
# such as unitriangular quotients.
utbox = build_box_space(Filtration(unitriangular(3), (2, 4)))
table = asdim_profile(utbox, (2,), S_cap=4, mode="greedy")
row = table.rows[0]
print(f"unitriangular(3) box, greedy: R = {row.R}, n = {row.n_achieved}, "
      f"S = {row.s_achieved}")
