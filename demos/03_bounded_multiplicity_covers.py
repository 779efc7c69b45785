"""Bounded-multiplicity covers from doubling and packing.

For a group of polynomial growth degree d, every component splits into
balls B(c, 2 R_n) around a maximal R_n-packing, where R_n <= 4^m R is a
doubling radius.  At most K = 4^d + 1 of those balls meet any single
R-ball, giving a cover of R-multiplicity K whose sets have uniformly
bounded diameter.  Everything here is verified exactly, not estimated.
"""
from fractions import Fraction

from boxdim import (
    Filtration,
    GrowthBound,
    build_box_space,
    cover_prop41,
    families_from_multiplicity_cover,
    free_abelian,
)

# |B(e, r)| = 2r + 1 <= 3 r for the line, so C = 3, d = 1 and K = 5.
growth = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 0))
box = build_box_space(Filtration(free_abelian(1),
                                 tuple(2 ** t for t in range(1, 9))))

cover, report = cover_prop41(box, R=4, growth=growth)
print(f"R = {report.R}: parameters K = {report.params.K}, m = {report.params.m}, "
      f"S_0 = {report.params.S_0}")
print(f"doubling radii per component: {report.doubling_radii}")
print(f"packing counts per component: {report.packing_counts}  (each <= K)")
print(f"cover: {cover.n_sets()} sets, is_cover = {report.is_cover}, "
      f"R-multiplicity = {report.r_multiplicity} <= {report.params.K}")
print(f"max set diameter = {report.max_set_diameter} <= S = {report.S}")
print()

# Components small enough to fit inside one set are merged into a single
# set spanning all of them; its label is F_R.
f_sets = [s for _, s in cover.all_sets() if len(s.parts) > 1]
for s in f_sets:
    print(f"small components merged into {s.label!r}: "
          f"components {tuple(ci for ci, _ in s.parts)}")
print()

# The same cover regrouped into R-disjoint families: sets that come within
# distance R of each other get different family indices, so the number of
# families needed is at most the multiplicity.  This is the bridge from
# multiplicity-style covers to family-style dimension witnesses.  The
# regrouped cover comes back with its one verification report.
regrouped, check = families_from_multiplicity_cover(cover, R=4)
print(f"regrouped into {len(regrouped.families)} families "
      f"of sizes {[len(f) for f in regrouped.families]}")
print(f"verified: cover = {check.is_cover}, families R-separated = "
      f"{not check.close_pair_witnesses}, min distances = "
      f"{check.family_min_distances}")
