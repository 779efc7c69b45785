"""Group arithmetic tests.

The unitriangular expectations are checked against an independent in-test
matrix oracle (build the full integer matrix, multiply/invert it, read the
entries back) before any trust is placed in the package's own arithmetic.
"""
import ast
import random
from pathlib import Path

import pytest

from boxdim.errors import ConfigError, ShapeMismatchError
from boxdim.groups import (
    CongruenceQuotient,
    Filtration,
    direct_product,
    flatten,
    free_abelian,
    hirsch_length,
    identity,
    invert,
    multiply,
    num_coordinates,
    unflatten,
    unitriangular,
)
from scalar_oracle import is_kernel_element, reduce_mod


# --- independent matrix oracle -------------------------------------------

def ut_entry_order(n):
    # superdiagonal first, each diagonal top to bottom; must match the package
    return [(i, i + d) for d in range(1, n) for i in range(n - d)]


def coords_to_matrix(n, coords):
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), c in zip(ut_entry_order(n), coords):
        mat[i][j] = c
    return mat


def matrix_to_coords(n, mat):
    return tuple(mat[i][j] for (i, j) in ut_entry_order(n))


def mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def mat_inv_unitriangular(A):
    # Solve A X = I by Gaussian back-substitution; exact over the integers
    # because the diagonal is all ones.
    n = len(A)
    X = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        for row in range(n - 2, -1, -1):
            s = X[row][col]
            for k in range(row + 1, n):
                s -= A[row][k] * X[k][col]
            X[row][col] = s if row != col else 1
    # rows below the diagonal stay zero, diagonal stays one
    for row in range(n):
        X[row][row] = 1
        for col in range(row):
            X[row][col] = 0
    return X


def test_matrix_oracle_is_sane():
    n = 3
    x = coords_to_matrix(n, (1, 0, 0))
    assert x == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(x, mat_inv_unitriangular(x)) == ident


# --- multiply -------------------------------------------------------------

def test_free_abelian_multiply():
    g = free_abelian(2)
    assert multiply(g, (1, 0), (0, 1)) == (1, 1)
    assert multiply(g, (3, -1), (-3, 1)) == (0, 0)


def test_unitriangular_multiply_anchors():
    h = unitriangular(3)
    x = (1, 0, 0)
    y = (0, 1, 0)
    # oracle first
    assert matrix_to_coords(3, mat_mul(coords_to_matrix(3, x),
                                       coords_to_matrix(3, y))) == (1, 1, 1)
    assert matrix_to_coords(3, mat_mul(coords_to_matrix(3, y),
                                       coords_to_matrix(3, x))) == (1, 1, 0)
    assert multiply(h, x, y) == (1, 1, 1)
    assert multiply(h, y, x) == (1, 1, 0)


def test_unitriangular_multiply_matches_matrix_oracle():
    rng = random.Random(20260801)
    for n in (3, 4, 5):
        h = unitriangular(n)
        k = num_coordinates(h)
        for _ in range(200):
            a = tuple(rng.randint(-5, 5) for _ in range(k))
            b = tuple(rng.randint(-5, 5) for _ in range(k))
            expect = matrix_to_coords(n, mat_mul(coords_to_matrix(n, a),
                                                 coords_to_matrix(n, b)))
            assert multiply(h, a, b) == expect


def test_direct_product_multiply_componentwise():
    g = direct_product(free_abelian(1), unitriangular(3))
    a = ((2,), (1, 0, 0))
    b = ((3,), (0, 1, 0))
    assert multiply(g, a, b) == ((5,), (1, 1, 1))


# --- invert ---------------------------------------------------------------

def test_invert_anchors():
    g = free_abelian(2)
    assert invert(g, (3, -1)) == (-3, 1)
    h = unitriangular(3)
    assert matrix_to_coords(
        3, mat_inv_unitriangular(coords_to_matrix(3, (1, 1, 1)))) == (-1, -1, 0)
    assert invert(h, (1, 1, 1)) == (-1, -1, 0)
    assert invert(h, identity(h)) == identity(h)


def test_invert_randomized():
    rng = random.Random(7)
    groups = [free_abelian(3), unitriangular(3), unitriangular(4),
              direct_product(free_abelian(2), unitriangular(3))]
    for g in groups:
        e = identity(g)
        k = num_coordinates(g)
        for _ in range(100):
            a = unflatten(g, [rng.randint(-9, 9) for _ in range(k)])
            assert multiply(g, a, invert(g, a)) == e
            assert multiply(g, invert(g, a), a) == e


def test_associativity_randomized():
    rng = random.Random(99)
    groups = [free_abelian(2), unitriangular(3), unitriangular(4),
              direct_product(free_abelian(1), unitriangular(3))]
    for g in groups:
        k = num_coordinates(g)
        for _ in range(100):
            a, b, c = (unflatten(g, [rng.randint(-6, 6) for _ in range(k)])
                       for _ in range(3))
            assert multiply(g, a, multiply(g, b, c)) == multiply(g, multiply(g, a, b), c)


# --- quotients ------------------------------------------------------------

def test_reduce_mod_examples():
    z = free_abelian(1)
    q = CongruenceQuotient(z, 12)
    assert reduce_mod(q, (17,)) == (5,)
    assert reduce_mod(q, (0,)) == (0,)
    h = unitriangular(3)
    q2 = CongruenceQuotient(h, 2)
    prod = multiply(h, (1, 1, 1), (1, 1, 1))
    assert reduce_mod(q2, prod) == tuple(c % 2 for c in prod)


def test_reduce_mod_is_homomorphism():
    rng = random.Random(4242)
    groups = [free_abelian(2), unitriangular(3), unitriangular(4),
              direct_product(free_abelian(1), unitriangular(3))]
    for g in groups:
        k = num_coordinates(g)
        for m in range(2, 17):
            q = CongruenceQuotient(g, m)
            for _ in range(25):
                a = unflatten(g, [rng.randint(-20, 20) for _ in range(k)])
                b = unflatten(g, [rng.randint(-20, 20) for _ in range(k)])
                lhs = reduce_mod(q, multiply(g, a, b))
                rhs = reduce_mod(q, multiply(g, reduce_mod(q, a), reduce_mod(q, b)))
                assert lhs == rhs


def test_kernel_characterization_and_normality():
    rng = random.Random(333)
    g = unitriangular(3)
    e = identity(g)
    for m in (2, 3, 4, 8):
        q = CongruenceQuotient(g, m)
        for _ in range(50):
            a = tuple(rng.randint(-20, 20) for _ in range(3))
            assert (reduce_mod(q, a) == e) == is_kernel_element(q, a)
        # kernel is a normal subgroup: closed under products and conjugation
        for _ in range(50):
            n1 = tuple(m * rng.randint(-4, 4) for _ in range(3))
            n2 = tuple(m * rng.randint(-4, 4) for _ in range(3))
            w = tuple(rng.randint(-6, 6) for _ in range(3))
            assert is_kernel_element(q, multiply(g, n1, n2))
            conj = multiply(g, multiply(g, w, n1), invert(g, w))
            assert is_kernel_element(q, conj)


def test_quotient_order():
    assert CongruenceQuotient(free_abelian(1), 12).order == 12
    assert CongruenceQuotient(free_abelian(2), 3).order == 9
    assert CongruenceQuotient(unitriangular(3), 4).order == 64
    with pytest.raises(ConfigError):
        CongruenceQuotient(free_abelian(1), 1)


# --- hirsch length --------------------------------------------------------

def test_hirsch_length():
    assert hirsch_length(free_abelian(3)) == 3
    assert hirsch_length(unitriangular(3)) == 3
    assert hirsch_length(unitriangular(4)) == 6
    assert hirsch_length(direct_product(free_abelian(1), unitriangular(3))) == 4


# --- spec validation ------------------------------------------------------

def test_filtration_validation():
    z = free_abelian(1)
    f = Filtration(z, (2, 4, 8))
    assert [q.modulus for q in f.quotients()] == [2, 4, 8]
    with pytest.raises(ConfigError):
        Filtration(z, (3, 4))
    with pytest.raises(ConfigError):
        Filtration(z, (4, 4))
    with pytest.raises(ConfigError):
        Filtration(z, ())
    with pytest.raises(ConfigError):
        Filtration(z, (1, 2))


def test_quotient_family_non_nested():
    z2 = free_abelian(2)
    fam = Filtration(z2, (5, 2, 3), nested=False)
    assert [q.order for q in fam.quotients()] == [25, 4, 9]
    with pytest.raises(ConfigError, match="free abelian"):
        Filtration(unitriangular(3), (2, 3), nested=False)
    for bad in ((2, 2), (), (1, 3)):
        with pytest.raises(ConfigError):
            Filtration(z2, bad, nested=False)


def test_validate_shapes():
    g = unitriangular(3)
    with pytest.raises(ShapeMismatchError):
        multiply_checked(g, (1, 0), (0, 1, 0))


def multiply_checked(spec, a, b):
    from boxdim.groups import validate_element
    validate_element(spec, a)
    validate_element(spec, b)
    return multiply(spec, a, b)


def test_generators():
    assert free_abelian(2).generators == ((1, 0), (0, 1))
    assert unitriangular(3).generators == ((1, 0, 0), (0, 1, 0))
    prod = direct_product(free_abelian(1), unitriangular(3))
    assert prod.generators == (((1,), (0, 0, 0)),
                               ((0,), (1, 0, 0)),
                               ((0,), (0, 1, 0)))
    with pytest.raises(ConfigError):
        free_abelian(0)
    with pytest.raises(ConfigError):
        unitriangular(1)


def test_flatten_roundtrip():
    g = direct_product(free_abelian(2), unitriangular(3))
    a = ((4, -1), (2, 0, 7))
    assert unflatten(g, flatten(g, a)) == a
    assert flatten(g, a) == (4, -1, 2, 0, 7)


def test_only_groups_imports_the_scalar_arithmetic():
    # the vectorised kernels in cayley serve src; the scalar multiply and
    # invert stay in groups as the tests' oracle
    src = Path(__file__).resolve().parent.parent / "src" / "boxdim"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module, node.level) in (("groups", 1), ("boxdim.groups", 0))):
                offenders += [(path.name, a.name) for a in node.names
                              if a.name in ("multiply", "invert")]
    assert offenders == []
