import random

from burniat.linalg import (bits_add, gf2_echelon, gf2_nullspace, gf2_solve,
                            hnf_with_transform, lattice_index, left_kernel)


def test_hnf_transform_invariant():
    rng = random.Random(1)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        h, u = hnf_with_transform(rows, n)
        # U @ rows == H
        for i in range(m):
            got = [sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(n)]
            assert got == h[i]
        # unimodularity of U: integer inverse exists, i.e. det = +-1;
        # check via index of the row span of U
        assert lattice_index(u, m) == 1


def test_lattice_index_known():
    assert lattice_index([[1, 0], [0, 1]], 2) == 1
    assert lattice_index([[2, 0], [0, 2]], 2) == 4
    assert lattice_index([[1, 2], [3, 4]], 2) == 2
    assert lattice_index([[1, 2]], 2) is None
    assert lattice_index([[2, 4], [1, 2]], 2) is None


def test_left_kernel():
    rows = [[1, 0], [2, 0], [0, 1]]
    kern = left_kernel(rows, 2)
    assert len(kern) == 1
    x = kern[0]
    assert [sum(x[k] * rows[k][j] for k in range(3)) for j in range(2)] == [0, 0]


def test_gf2_echelon_and_nullspace():
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    ech = gf2_echelon(rows)
    assert len(ech) == 2
    null = gf2_nullspace(rows, 3)
    assert len(null) == 1
    v = null[0]
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) & 1 == 0


def test_gf2_solve():
    rows = [(1, 0, 1), (0, 1, 1), (1, 1, 1)]
    target = (0, 0, 1)
    sol = gf2_solve(rows, target)
    assert sol is not None
    acc = (0, 0, 0)
    for c, r in zip(sol, rows):
        if c:
            acc = bits_add(acc, r)
    assert acc == target
    assert gf2_solve([(1, 1, 0)], (1, 0, 0)) is None
