"""The scalar quotient map, kept as an oracle for the vectorised code.

Nothing in the package reduces single elements: the quotient Cayley
graphs and the ball-isometry test work on coordinate rows.
"""
from boxdim.groups import DIRECT_PRODUCT, CongruenceQuotient, flatten


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
