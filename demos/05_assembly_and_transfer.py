"""Assembling families across scales, and the diagonal transfer trick.

Assembly: one cover per scale k is restricted to the window of components
whose balls are exact copies of the group at radius max(k, S_k); the union
over scales >= k forms the scale-k families, and both k-disjointness and
the subtraction identity against the finite part are re-verified.

Transfer: valid colorings of larger and larger balls of the group are
stitched into a coloring of a fixed ball by majority vote; input radii
that disagree with a committed choice are discarded.
"""
from fractions import Fraction
from types import SimpleNamespace

from boxdim import (
    Filtration,
    GrowthBound,
    InsufficientInputError,
    VerificationError,
    assemble_box_families,
    build_box_space,
    cover_prop41,
    diagonal_transfer,
    families_from_multiplicity_cover,
    free_abelian,
    isometry_profile,
)

growth = GrowthBound(C=Fraction(3), d=1, validated_range=(1, 0))
box = build_box_space(Filtration(free_abelian(1),
                                 tuple(2 ** t for t in range(1, 11))))
profile = isometry_profile(box)

covers = {}
for k in (1, 2, 3):
    base, _ = cover_prop41(box, k, growth)
    covers[k], _ = families_from_multiplicity_cover(base, k)

asm = assemble_box_families(box, covers, profile)
print(f"scales: {asm.scales}")
print(f"window starts (thresholds): {asm.thresholds}")
print(f"per-scale max set diameter: {asm.scale_diameters}")
print(f"k-disjointness verified: {asm.report.ok}, "
      f"subtraction identity: {asm.report.subtraction_ok}")
for k in asm.scales:
    sizes = [len(f) for f in asm.families[k].families]
    print(f"  scale {k}: families of sizes {sizes}, "
          f"finite part = components {list(asm.finite_parts[k])}")
print()

# A threshold pushed below its sound value is caught, not absorbed: the
# merged small-component set would straddle components inside the window.
# The assembly reads one threshold per scale k, at the radius max(k, S_k),
# so a profile object forces the windows {1: 3, 2: 4, 3: 0}.
radius = {k: max(k, d) for k, d in asm.scale_diameters.items()}
bad = SimpleNamespace(threshold={radius[k]: i for k, i in {1: 3, 2: 4, 3: 0}.items()}.get)
try:
    assemble_box_families(box, covers, bad)
except VerificationError as e:
    print(f"bad threshold rejected: {e}")
print()

# Diagonal transfer.  Each input is a valid (2, 3)-coloring of an interval
# [-r, r] of Z (stripes of width 4); the output is a verified coloring of
# the ball of radius 4 that survives restriction from every input.
def striped(radius, flip=False):
    out = {}
    for x in range(-radius, radius + 1):
        fam = (x // 4) % 2
        out[(x,)] = 1 - fam if flip else fam
    return out

inputs = [(r, striped(r)) for r in (10, 15, 20, 25, 30)]
res = diagonal_transfer(free_abelian(1), inputs, R=2, S=3, r0=4, n=1)
print(f"agreeing inputs: surviving radii {res.surviving_radii}")
print(f"coloring of B(e, 4): "
      f"{[res.coloring[(x,)] for x in range(-4, 5)]}")

# A flipped input is outvoted and discarded; the rest survive.
inputs = [(10, striped(10)), (15, striped(15, flip=True)), (20, striped(20))]
res = diagonal_transfer(free_abelian(1), inputs, R=2, S=3, r0=4, n=1)
print(f"one dissenting input: surviving {res.surviving_radii}, "
      f"discarded {res.discarded_radii}")

# Inputs that do not even cover the ball leave nothing to vote with.
partial = {v: f for v, f in striped(10).items() if v[0] >= 0}
try:
    diagonal_transfer(free_abelian(1), [(10, partial)], R=2, S=3, r0=4)
except InsufficientInputError as e:
    print(f"unusable inputs rejected: {e}")
