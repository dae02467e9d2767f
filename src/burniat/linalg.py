"""Exact linear algebra over Z and GF(2).

Everything here works on plain Python ints (arbitrary precision), so there is
no floating point anywhere.  Integer matrices are lists of row tuples/lists;
over Z this module gives the row Hermite normal form and the index of a row
span.  Over GF(2) one elimination serves the null space and the solve.  A
GF(2) vector of length n is one n-bit int with coordinate 0 as its most
significant bit, the encoding of the 6-bit torsion masks of picard; a
combination of rows comes back as the tuple of its row indices.
"""
from __future__ import annotations

from math import prod


# ---------------------------------------------------------------------------
# Integer row Hermite normal form
# ---------------------------------------------------------------------------

def hnf_with_transform(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with transformation matrix.

    Returns (H, U) with U unimodular and U @ rows == H.  H has nonnegative
    pivots, zeros below each pivot and reduced entries above it; zero rows
    are collected at the bottom.
    """
    a = [list(r) for r in rows]
    m = len(a)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def rowsub(i: int, j: int, q: int) -> None:
        # a[i] -= q*a[j], same on u
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def rowswap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    pivot_row = 0
    for col in range(ncols):
        pr = next((r for r in range(pivot_row, m) if a[r][col] != 0), None)
        if pr is None:
            continue
        rowswap(pivot_row, pr)
        # euclidean elimination below the pivot
        for r in range(pivot_row + 1, m):
            while a[r][col] != 0:
                q = a[pivot_row][col] // a[r][col]
                rowsub(pivot_row, r, q)
                rowswap(pivot_row, r)
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        # reduce entries above the pivot
        p = a[pivot_row][col]
        for r in range(pivot_row):
            q = a[r][col] // p
            if q:
                rowsub(r, pivot_row, q)
        pivot_row += 1
    return a, u


def lattice_index(rows: list[list[int]], ncols: int) -> int | None:
    """Index in Z^ncols of the sublattice spanned by the rows.

    None when the span has deficient rank (infinite index).
    """
    h = [r for r in hnf_with_transform(rows, ncols)[0] if any(r)]
    if len(h) < ncols:
        return None
    # ncols positive pivots in strictly increasing columns: row i's is h[i][i]
    return prod(h[i][i] for i in range(ncols))


# ---------------------------------------------------------------------------
# GF(2): a vector of length n is an n-bit int, coordinate 0 most significant
# ---------------------------------------------------------------------------

def gf2_eliminate(rows: list[int]) -> dict[int, tuple[int, int]]:
    """Gauss-Jordan elimination over GF(2), rows in order.

    Maps the highest set bit (the first coordinate) of each row of the
    reduced echelon basis of the span to (row, combo), where combo has bit i
    set for each input row i summing to that row.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for i, r in enumerate(rows):
        c = 1 << i
        for lead, (b, bc) in pivots.items():
            if r & lead:
                r, c = r ^ b, c ^ bc
        if not r:  # r is a sum of earlier rows
            continue
        lead = 1 << (r.bit_length() - 1)
        for k, (b, bc) in pivots.items():
            if b & lead:
                pivots[k] = (b ^ r, bc ^ c)
        pivots[lead] = (r, c)
    return pivots


def gf2_nullspace(rows: list[int], n: int) -> list[int]:
    """Echelon basis of {v in GF(2)^n : rows @ v == 0}."""
    pivots = gf2_eliminate(rows)
    out = []
    for f in range(n - 1, -1, -1):  # the bit of coordinate n - 1 - f
        v = 1 << f
        if v in pivots:
            continue
        for lead, (b, _) in pivots.items():
            if b >> f & 1:
                v |= lead
        out.append(v)
    return out


def gf2_solve(rows: list[int], target: int) -> tuple[int, ...] | None:
    """Indices of rows summing to target, or None."""
    pivots = gf2_eliminate(rows)
    t, c = target, 0
    for lead, (b, bc) in pivots.items():
        if t & lead:
            t, c = t ^ b, c ^ bc
    return None if t else tuple(i for i in range(c.bit_length()) if c >> i & 1)
