"""Scalar group arithmetic and the scalar quotient map, kept as an oracle
for the vectorised code.

Nothing in the package computes on single elements: groups.multiply and
invert run cayley's row kernels, and the quotient Cayley graphs and the
ball-isometry test work on coordinate rows.  These loops share none of
that code, not even the coordinate layout, which they spell out
themselves: the strictly upper triangle by diagonal, each read top to
bottom.
"""
from boxdim.groups import DIRECT_PRODUCT, FREE_ABELIAN, CongruenceQuotient, flatten


def _ut_positions(n):
    """(coordinate index by matrix position, positions in coordinate order)."""
    entries = [(i, i + d) for d in range(1, n) for i in range(n - d)]
    return {pos: t for t, pos in enumerate(entries)}, entries


def multiply(spec, a, b):
    """Group product a * b, exact."""
    if spec.kind == FREE_ABELIAN:
        return tuple(x + y for x, y in zip(a, b))
    if spec.kind == DIRECT_PRODUCT:
        return tuple(multiply(f, x, y) for f, x, y in zip(spec.factors, a, b))
    idx, entries = _ut_positions(spec.size)
    out = []
    for (i, j) in entries:
        s = a[idx[(i, j)]] + b[idx[(i, j)]]
        for k in range(i + 1, j):
            s += a[idx[(i, k)]] * b[idx[(k, j)]]
        out.append(s)
    return tuple(out)


def invert(spec, a):
    """Group inverse, exact."""
    if spec.kind == FREE_ABELIAN:
        return tuple(-x for x in a)
    if spec.kind == DIRECT_PRODUCT:
        return tuple(invert(f, x) for f, x in zip(spec.factors, a))
    # back-substitution on (I + A) X = I, filling short diagonals first
    idx, entries = _ut_positions(spec.size)
    out = {}
    for (i, j) in entries:
        s = -a[idx[(i, j)]]
        for k in range(i + 1, j):
            s -= a[idx[(i, k)]] * out[(k, j)]
        out[(i, j)] = s
    return tuple(out[pos] for pos in entries)


def reduce_mod(quotient: CongruenceQuotient, elt):
    """Image of elt in the quotient, coordinates in [0, m)."""
    m = quotient.modulus

    def red(spec, e):
        if spec.kind == DIRECT_PRODUCT:
            return tuple(red(f, p) for f, p in zip(spec.factors, e))
        return tuple(c % m for c in e)

    return red(quotient.spec, elt)


def is_kernel_element(quotient: CongruenceQuotient, elt) -> bool:
    """True iff every coordinate of elt is divisible by the modulus."""
    return all(c % quotient.modulus == 0 for c in flatten(quotient.spec, elt))
