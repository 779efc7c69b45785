"""Exact arithmetic for the built-in groups and their congruence quotients.

Three group families are supported, all torsion-free finitely generated
nilpotent, represented by integer coordinate tuples:

* free abelian of rank d: elements are tuples of d integers;
* unitriangular n x n integer matrices (strictly upper triangular part):
  elements are tuples of n(n-1)/2 integers listing the entries by diagonal,
  superdiagonal first, each diagonal read top to bottom.  For n = 3 the
  tuple (a, b, c) means the matrix [[1, a, c], [0, 1, b], [0, 0, 1]];
* direct products of the above: elements are tuples of factor elements.

multiply and invert run cayley's vectorised kernels, the package's one
arithmetic in the group (imported on first use, as cayley imports this
module), on a row of native Python integers, which are arbitrary
precision, so coordinate overflow cannot occur.  Congruence quotients
reduce every coordinate mod m; coordinate-wise reduction is a
homomorphism for these groups because multiplication is polynomial with
integer coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ConfigError, ShapeMismatchError, check_int

FREE_ABELIAN = "free_abelian"
UNITRIANGULAR = "unitriangular"
DIRECT_PRODUCT = "direct_product"


@dataclass(frozen=True)
class GroupSpec:
    """Description of a concrete group together with its generating set.

    Do not construct directly; use free_abelian(), unitriangular() or
    direct_product().  generators holds one element per plus/minus pair,
    the inverses are implied.
    """

    kind: str
    rank: int = 0                      # free_abelian only
    size: int = 0                      # unitriangular only
    factors: tuple = ()                # direct_product only
    generators: tuple = field(default=(), compare=False)

    def describe(self) -> str:
        if self.kind == FREE_ABELIAN:
            return f"free_abelian({self.rank})"
        if self.kind == UNITRIANGULAR:
            return f"unitriangular({self.size})"
        inner = ", ".join(f.describe() for f in self.factors)
        return f"direct_product({inner})"


@lru_cache(maxsize=None)
def _ut_entries(n: int):
    """Matrix positions (i, j) of the strictly upper triangle, ordered by
    diagonal (j - i ascending) then row.  This is the coordinate order."""
    return tuple((i, i + d) for d in range(1, n) for i in range(n - d))


@lru_cache(maxsize=None)
def _ut_index(n: int):
    return {pos: t for t, pos in enumerate(_ut_entries(n))}


def _generated(spec: GroupSpec, generators, default: tuple) -> GroupSpec:
    """spec with the given generators, each validated, else the default ones."""
    if generators is not None:
        default = tuple(tuple(g) for g in generators)
        for g in default:
            validate_element(spec, g)
    object.__setattr__(spec, "generators", default)
    return spec


def free_abelian(rank: int, generators: Sequence[tuple] | None = None) -> GroupSpec:
    """Z^rank with word metric from +/- the standard basis by default."""
    rank = check_int("free_abelian rank", rank, 1)
    return _generated(GroupSpec(kind=FREE_ABELIAN, rank=rank), generators, tuple(
        tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)))


def unitriangular(size: int, generators: Sequence[tuple] | None = None) -> GroupSpec:
    """Upper unitriangular size x size integer matrices.

    Default generators are the elementary matrices e_{i,i+1}(1), so for
    size = 3 these are x = (1, 0, 0) and y = (0, 1, 0).
    """
    size = check_int("unitriangular size", size, 2)
    idx = _ut_index(size)
    return _generated(GroupSpec(kind=UNITRIANGULAR, size=size), generators, tuple(
        tuple(int(t == idx[(i, i + 1)]) for t in range(len(idx))) for i in range(size - 1)))


def direct_product(*factors: GroupSpec) -> GroupSpec:
    """Direct product; generators are the factor generators embedded
    alongside the identity of every other factor."""
    if len(factors) < 2:
        raise ConfigError("direct_product needs at least two factors")
    spec = GroupSpec(kind=DIRECT_PRODUCT, factors=tuple(factors))
    gens = []
    for fi, factor in enumerate(factors):
        for g in factor.generators:
            embedded = tuple(g if fj == fi else identity(other)
                             for fj, other in enumerate(factors))
            gens.append(embedded)
    object.__setattr__(spec, "generators", tuple(gens))
    return spec


def identity(spec: GroupSpec):
    if spec.kind == FREE_ABELIAN:
        return (0,) * spec.rank
    if spec.kind == UNITRIANGULAR:
        return (0,) * (spec.size * (spec.size - 1) // 2)
    return tuple(identity(f) for f in spec.factors)


def num_coordinates(spec: GroupSpec) -> int:
    """Number of integer slots in a flattened element."""
    if spec.kind == FREE_ABELIAN:
        return spec.rank
    if spec.kind == UNITRIANGULAR:
        return spec.size * (spec.size - 1) // 2
    return sum(num_coordinates(f) for f in spec.factors)


def validate_element(spec: GroupSpec, elt) -> None:
    """Raise ShapeMismatchError unless elt has the coordinate layout of spec."""
    if spec.kind == DIRECT_PRODUCT:
        if not isinstance(elt, tuple) or len(elt) != len(spec.factors):
            raise ShapeMismatchError(
                f"expected {len(spec.factors)}-factor element for {spec.describe()}, got {elt!r}")
        for f, part in zip(spec.factors, elt):
            validate_element(f, part)
        return
    k = num_coordinates(spec)
    if (not isinstance(elt, tuple) or len(elt) != k
            or not all(isinstance(c, int) for c in elt)):
        raise ShapeMismatchError(
            f"expected {k} integer coordinates for {spec.describe()}, got {elt!r}")


def multiply(spec: GroupSpec, a, b):
    """Group product a * b, exact: cayley's row kernel on object integers."""
    from .cayley import _raw_multiply
    cols = _raw_multiply(spec, _object_row(spec, a), _object_row(spec, b))
    return unflatten(spec, [int(c) for c in cols])


def invert(spec: GroupSpec, a):
    """Group inverse, exact: cayley's row kernel on object integers."""
    from .cayley import _raw_invert
    return unflatten(spec, [int(c) for c in _raw_invert(spec, _object_row(spec, a), object)])


def _object_row(spec: GroupSpec, elt):
    """A validated element's coordinates as a row of exact integers."""
    import numpy as np
    validate_element(spec, elt)
    return np.array(flatten(spec, elt), dtype=object)


def flatten(spec: GroupSpec, elt) -> tuple:
    """Flat tuple of all integer coordinates (products are concatenated)."""
    if spec.kind == DIRECT_PRODUCT:
        out = []
        for f, part in zip(spec.factors, elt):
            out.extend(flatten(f, part))
        return tuple(out)
    return tuple(elt)


def unflatten(spec: GroupSpec, flat: Sequence[int]):
    if spec.kind == DIRECT_PRODUCT:
        parts = []
        pos = 0
        for f in spec.factors:
            k = num_coordinates(f)
            parts.append(unflatten(f, flat[pos:pos + k]))
            pos += k
        return tuple(parts)
    return tuple(flat)


def hirsch_length(spec: GroupSpec) -> int:
    """Length of any subnormal series with infinite cyclic quotients.

    Equals the rank for free abelian groups, n(n-1)/2 for unitriangular
    n x n, and is additive over direct products.  For these groups each
    coordinate spans one infinite cyclic factor of such a series (the
    coordinates are Mal'cev coordinates), so it is num_coordinates(spec).
    """
    return num_coordinates(spec)


@dataclass(frozen=True)
class CongruenceQuotient:
    """The finite quotient where every coordinate is read mod m.

    The kernel is the congruence subgroup of elements with all coordinates
    divisible by m, and the quotient has exactly m^k elements where k is
    the number of coordinates.
    """

    spec: GroupSpec
    modulus: int

    def __post_init__(self):
        check_int("modulus", self.modulus, 2)

    @property
    def order(self) -> int:
        return self.modulus ** num_coordinates(self.spec)


@dataclass(frozen=True)
class Filtration:
    """The moduli of a box space's components.

    Nested (the default): a divisibility chain m_1 | m_2 | ... defining
    nested congruence kernels, hence a box space.  nested=False: distinct
    moduli in any order, for free abelian specs only (where every finite
    quotient of the family embeds into a common congruence quotient); it
    emulates a full congruence family rather than a box space.
    """

    spec: GroupSpec
    moduli: tuple
    nested: bool = True

    def __post_init__(self):
        ms = self.moduli
        if len(ms) == 0:
            raise ConfigError("filtration needs at least one modulus")
        if not self.nested:
            if self.spec.kind != FREE_ABELIAN:
                raise ConfigError("non-nested modulus families are supported for "
                                  "free abelian groups only")
            if len(set(ms)) != len(ms):
                raise ConfigError("moduli must be distinct")
        self.quotients()        # each refuses a modulus below 2
        for a, b in zip(ms, ms[1:]):
            if self.nested and (b <= a or b % a != 0):
                raise ConfigError(
                    f"moduli must be strictly increasing and nested by divisibility, "
                    f"got {a} before {b}")

    def quotients(self):
        return [CongruenceQuotient(self.spec, m) for m in self.moduli]
