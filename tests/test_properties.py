"""Property tests: the vectorised arithmetic equals the scalar tuple
arithmetic of boxdim.groups on random elements, and the exact (R, S)
solver equals the exhaustive one on random metric spaces."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from boxdim.boxspace import FiniteMetricSpace  # noqa: E402
from boxdim.cayley import coords_invert, coords_multiply  # noqa: E402
from boxdim.dimension import rs_dim_exact, rs_dim_exhaustive  # noqa: E402
from boxdim.groups import (  # noqa: E402
    CongruenceQuotient,
    direct_product,
    flatten,
    free_abelian,
    invert,
    multiply,
    num_coordinates,
    reduce_mod,
    unflatten,
    unitriangular,
)

SPECS = [
    free_abelian(1),
    free_abelian(3),
    unitriangular(3),
    unitriangular(4),
    direct_product(free_abelian(1), unitriangular(3)),
    direct_product(unitriangular(3), free_abelian(2), unitriangular(4)),
]

# moduli below and far beyond the int64 bound of _overflow_bound
MODULI = st.one_of(st.integers(2, 50), st.integers(2 ** 20, 2 ** 40),
                   st.just(2 ** 62 + 3))


@st.composite
def operands(draw):
    spec = draw(st.sampled_from(SPECS))
    m = draw(MODULI)
    k = num_coordinates(spec)
    n = draw(st.integers(1, 4))
    rows = st.lists(st.lists(st.integers(0, m - 1), min_size=k, max_size=k),
                    min_size=n, max_size=n)
    return spec, m, draw(rows), draw(rows)


def scalar(spec, m, elt):
    return flatten(spec, reduce_mod(CongruenceQuotient(spec, m), elt))


@settings(max_examples=200, deadline=None)
@given(operands())
def test_vectorised_arithmetic_equals_scalar(case):
    spec, m, a, b = case
    a_elts = [unflatten(spec, row) for row in a]
    b_elts = [unflatten(spec, row) for row in b]
    a_arr = np.array(a, dtype=np.int64)
    b_arr = np.array(b, dtype=np.int64)
    prod = coords_multiply(spec, a_arr, b_arr, m)
    inv = coords_invert(spec, a_arr, m)
    for i in range(len(a)):
        want = scalar(spec, m, multiply(spec, a_elts[i], b_elts[i]))
        assert tuple(int(c) for c in prod[i]) == want
        assert tuple(int(c) for c in inv[i]) == scalar(spec, m, invert(spec, a_elts[i]))


@st.composite
def metric_spaces(draw):
    """Integer metrics on 1..9 points: symmetric draws in 1..6 closed under
    shortest paths."""
    n = draw(st.integers(1, 9))
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n, 1)] = draw(st.lists(st.integers(1, 6), min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    m += m.T
    for k in range(n):
        m = np.minimum(m, m[:, k:k + 1] + m[k:k + 1, :])
    return FiniteMetricSpace(m)


@settings(max_examples=100, deadline=None)
@given(metric_spaces(), st.integers(1, 4), st.integers(0, 6))
def test_exact_solver_equals_exhaustive(space, R, S):
    # 9 points have Bell(9) = 21,147 colorings, so the oracle stays fast
    assert rs_dim_exact(space, R, S).n == rs_dim_exhaustive(space, R, S).n
