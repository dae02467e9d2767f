import itertools
import random

from burniat.linalg import gf2_nullspace, gf2_solve, hnf_with_transform, lattice_index


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


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions & 1 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_lattice_index_is_the_absolute_determinant():
    # a square matrix spans a sublattice of index |det|, or of infinite
    # index when det = 0
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = leibniz_det(rows)
        assert lattice_index(rows, n) == (abs(det) if det else None)


def test_gf2_nullspace_example():
    rows = [0b110, 0b011, 0b101]
    null = gf2_nullspace(rows, 3)
    assert len(null) == 1
    v = null[0]
    for r in rows:
        assert (r & v).bit_count() & 1 == 0


def test_gf2_solve():
    rows = [0b101, 0b011, 0b111]
    target = 0b001
    sol = gf2_solve(rows, target)
    assert sol is not None
    acc = 0
    for i in sol:
        acc ^= rows[i]
    assert acc == target
    assert gf2_solve([0b110], 0b100) is None


# --- the GF(2) routines against brute force -------------------------------------
# Vectors are 6-bit ints, coordinate 0 most significant.  The brute force
# names a subset of rows by a bitmask with bit i set for row i.

def _combo(sol):
    return sum(1 << i for i in sol)


def _subset_sums(rows):
    """The XOR of every subset of rows, indexed by the subset's bitmask."""
    sums = [0]
    for r in rows:
        sums += [s ^ r for s in sums]
    return sums


def _is_basis_of(basis, space):
    return set(_subset_sums(basis)) == space and 2 ** len(basis) == len(space)


def _random_rows(rng):
    n = rng.randint(0, 6)
    if rng.random() < 0.5:
        return [rng.randrange(64) for _ in range(n)]
    # rows from a random subspace of low rank, so that dependencies are common
    gens = [rng.randrange(64) for _ in range(rng.randint(1, 3))]
    return [rng.choice(_subset_sums(gens)) for _ in range(n)]


def test_gf2_routines_against_brute_force():
    rng = random.Random(41)
    for _ in range(300):
        rows = _random_rows(rng)
        sums = _subset_sums(rows)
        span = set(sums)
        # right null space over all 64 vectors
        null = {v for v in range(64)
                if all((v & r).bit_count() % 2 == 0 for r in rows)}
        assert _is_basis_of(gf2_nullspace(rows, 6), null)
        # every target: a combination summing to it exactly when it is in the span
        for target in range(64):
            sol = gf2_solve(rows, target)
            if target in span:
                assert sol is not None and sums[_combo(sol)] == target
            else:
                assert sol is None
