"""Exact linear algebra over Z and GF(2).

Everything here works on plain Python ints (arbitrary precision), so there is
no floating point anywhere.  Matrices are lists of row tuples/lists.
"""
from __future__ import annotations


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
    det = 1
    col = 0
    for r in h:
        while col < ncols and r[col] == 0:
            # a skipped column means the profile is not full triangular
            return None
        det *= r[col]
        col += 1
    return abs(det)


def left_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {x : x @ rows == 0} as rows of integers."""
    h, u = hnf_with_transform(rows, ncols)
    return [u[i] for i in range(len(h)) if not any(h[i])]


# ---------------------------------------------------------------------------
# GF(2) vectors: tuples of 0/1 outside, int bitmasks in the elimination
# ---------------------------------------------------------------------------

def bits_add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((a + b) & 1 for a, b in zip(x, y))


def _mask(v: tuple[int, ...]) -> int:
    """Bitmask with bit i set for each odd entry v[i]."""
    return sum(1 << i for i, x in enumerate(v) if x & 1)


def _bits(m: int, n: int) -> tuple[int, ...]:
    return tuple((m >> i) & 1 for i in range(n))


def gf2_eliminate(rows: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Gauss-Jordan elimination over GF(2) on int bitmasks, rows in order.

    Returns (pivots, null).  pivots maps the lowest set bit of each row of
    the reduced echelon basis of the span to (row, combo), where combo is
    the bitmask of input rows summing to that row.  null holds, for each
    input row that reduces to zero, the bitmask of input rows summing to 0.
    """
    pivots: dict[int, tuple[int, int]] = {}
    null: list[int] = []
    for i, r in enumerate(rows):
        c = 1 << i
        for lead, (b, bc) in pivots.items():
            if r & lead:
                r, c = r ^ b, c ^ bc
        if not r:
            null.append(c)
            continue
        lead = r & -r
        for k, (b, bc) in pivots.items():
            if b & lead:
                pivots[k] = (b ^ r, bc ^ c)
        pivots[lead] = (r, c)
    return pivots, null


def gf2_echelon(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Reduced row echelon basis of the span (deterministic)."""
    if not rows:
        return []
    pivots, _ = gf2_eliminate([_mask(r) for r in rows])
    return [_bits(b, len(rows[0])) for _, (b, _) in sorted(pivots.items())]


def gf2_nullspace(rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Echelon basis of {v in GF(2)^n : rows @ v == 0}."""
    pivots, _ = gf2_eliminate([_mask(r) for r in rows])
    out = []
    for f in range(n):
        if 1 << f in pivots:
            continue
        v = 1 << f
        for lead, (b, _) in pivots.items():
            if b >> f & 1:
                v |= lead
        out.append(_bits(v, n))
    return out


def gf2_left_null(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Basis of {t : sum_i t_i rows_i == 0} over GF(2)."""
    _, null = gf2_eliminate([_mask(r) for r in rows])
    return [_bits(c, len(rows)) for c in null]


def gf2_solve(rows: list[tuple[int, ...]], target: tuple[int, ...]) -> tuple[int, ...] | None:
    """x with sum_i x_i * rows_i == target, or None.  len(x) == len(rows)."""
    pivots, _ = gf2_eliminate([_mask(r) for r in rows])
    t, c = _mask(target), 0
    for lead, (b, bc) in pivots.items():
        if t & lead:
            t, c = t ^ b, c ^ bc
    return None if t else _bits(c, len(rows))
