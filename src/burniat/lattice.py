"""Picard lattices of blowups of the projective plane.

A class n_h*h + n_1*e_1 + ... + n_k*e_k is stored as the integer tuple
(n_h, n_1, ..., n_k); the intersection form is diagonal with h.h = +1 and
e_i.e_i = -1.  The canonical class is normalised as K = -3h + e_1 + ... + e_k.
subgroup_index measures a subgroup of Z^r x (Z/2)^m given by its generators
as plain integer rows, the (Z/2)-coordinates last.

All values are immutable and all operations are pure, so everything in this
module can be shared freely.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from .linalg import lattice_index


class DimensionError(ValueError):
    """Classes from lattices of different rank were combined."""


class YClass(NamedTuple):
    """Divisor class on Bl_k P^2, coefficients (n_h, n_1, ..., n_k)."""

    coeffs: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "YClass") -> "YClass":
        return self._combine(other, 1)

    def __sub__(self, other: "YClass") -> "YClass":
        return self._combine(other, -1)

    def __radd__(self, other: object) -> "YClass":
        # tuple + YClass would concatenate: the reflected sum runs first
        raise TypeError(f"a YClass combines only with a YClass, "
                        f"not {type(other).__name__}")

    def __neg__(self) -> "YClass":
        return YClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "YClass":
        return YClass(tuple(n * a for a in self.coeffs))

    __mul__ = None  # n * D scales; D * n must not repeat the tuple

    def dot(self, other: "YClass") -> int:
        self._check(other)
        s = self.coeffs[0] * other.coeffs[0]
        return s - sum(a * b for a, b in zip(self.coeffs[1:], other.coeffs[1:]))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _combine(self, other: "YClass", sign: int) -> "YClass":
        """self + sign * other."""
        self._check(other)
        return YClass(tuple(a + sign * b for a, b in zip(self.coeffs, other.coeffs)))

    def _check(self, other: "YClass") -> None:
        if not isinstance(other, YClass):
            raise TypeError(f"a YClass combines only with a YClass, "
                            f"not {type(other).__name__}")
        if len(self.coeffs) != len(other.coeffs):
            raise DimensionError(f"rank {len(self.coeffs)} vs {len(other.coeffs)}")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        names = ["h"] + [f"e{i}" for i in range(1, len(self.coeffs))]
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


class SurfaceLattice(NamedTuple):
    """Pic(Bl_k P^2) with its fixed orthogonal basis h, e_1, ..., e_k."""

    k: int

    def zero(self) -> YClass:
        return YClass((0,) * (self.k + 1))

    def h(self) -> YClass:
        return YClass((1,) + (0,) * self.k)

    def e(self, i: int) -> YClass:
        if not 1 <= i <= self.k:
            raise DimensionError(f"e_{i} not in Bl_{self.k}")
        c = [0] * (self.k + 1)
        c[i] = 1
        return YClass(tuple(c))


def canonical_class(lat: SurfaceLattice) -> YClass:
    return YClass((-3,) + (1,) * lat.k)


def arithmetic_genus(d: YClass) -> int:
    """p_a(D) = D(D+K)/2 + 1, always an integer on these lattices.

    On the coefficients: D.D = n_h^2 - sum n_i^2 and D.K = -3n_h - sum n_i."""
    nh, *ns = d.coeffs
    twice = nh * nh - sum(n * n for n in ns) - 3 * nh - sum(ns)
    if twice % 2:
        raise ValueError(f"D.(D+K) = {twice} is odd for {d}")
    return twice // 2 + 1


def negative_curves(lat: SurfaceLattice, selfint: int) -> list[YClass]:
    """All classes C with C.C = selfint (-1 or -2) and the matching K-degree.

    Bounded coefficient search over |n_h| <= 3, |n_i| <= 2; the bound covers
    every blowup of the plane with k <= 6 points (checked against the known
    line counts for small k).
    """
    if selfint not in (-1, -2):
        raise ValueError("selfint must be -1 or -2")
    if lat.k > 6:
        raise ValueError("search bound only validated for k <= 6")
    k_cls = canonical_class(lat)
    k_degree = -(2 + selfint)  # adjunction with p_a = 0
    found = []
    for nh in range(-3, 4):
        for ni in itertools.product(range(-2, 3), repeat=lat.k):
            c = YClass((nh,) + ni)
            if c.dot(c) == selfint and c.dot(k_cls) == k_degree:
                found.append(c)
    found.sort(key=lambda c: c.coeffs)
    return found


# ---------------------------------------------------------------------------
# Finitely generated groups Z^r x (Z/2)^m
# ---------------------------------------------------------------------------

def subgroup_index(rows: list[tuple[int, ...]], torsion_rank: int) -> int | None:
    """Index of the subgroup of Z^r x (Z/2)^m generated by the rows, or None
    when it is infinite.

    The last m = torsion_rank entries of each row are its (Z/2)-coordinates.
    Each is encoded as an extra Z-coordinate together with a relation row
    2*unit; the index is then read off the Hermite normal form of the stacked
    integer rows.
    """
    n = len(rows[0])
    rels = [[2 if j == i else 0 for j in range(n)] for i in range(n - torsion_rank, n)]
    return lattice_index([*rows, *rels], n)
