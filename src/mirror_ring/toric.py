"""Character-lattice geometry: w-points, the shear automorphism, and the
unbounded region Delta whose lattice points index graded sections.

Points live in coordinates (x; y_0..y_{n-1}) for the basis (f, e_0..e_{n-1}).
The basis of e's is indexed 0..n-1 throughout this package.  The fan itself
is infinite and never materialized; this module holds the point type, the
two structure maps (w_point, tau_apply) and the membership test for Delta.
No module of the package reads them: w_point is the Fraction reference
for the moduli chart's integer exponents in the tests, and the shift and
the region are checked against each other by the acceptance tests.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .plgeom import phi


class MPoint(namedtuple("MPoint", "x y")):
    """Lattice (or rational) point x*f + sum_j y[j]*e_j: x a Fraction, y a
    tuple of Fractions."""

    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(cls, Fraction(x), tuple(Fraction(v) for v in y))

    @classmethod
    def _make(cls, iterable):  # namedtuple's skips __new__; _replace calls it
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.y)


def w_point(p, n: int) -> MPoint:
    """Distinguished point with x = -p and y_j = n*phi((j-p)/n)."""
    p = Fraction(p)
    return MPoint(-p, tuple(n * phi(Fraction(j - p, n)) for j in range(n)))


def tau_apply(v: MPoint) -> MPoint:
    """The affine automorphism: shifts x by 1 and shears/rotates the y's.

    On the basis it acts by e_j -> e_{j-1}, f -> f + e_{n-1}, followed by
    translation by f.  In coordinates: x' = x + 1, y'_j = y_{j+1} for
    j < n-1, and y'_{n-1} = x + y_0.  Satisfies tau(w_p) = w_{p-1}.
    """
    n = v.n
    y = tuple(v.y[j + 1] for j in range(n - 1)) + (v.x + v.y[0],)
    return MPoint(v.x + 1, y)


def in_delta(v: MPoint, n: int) -> bool:
    """Membership in the convex region y_j >= n*phi((x+j)/n) for all j."""
    if v.n != n:
        raise ValueError(f"point has {v.n} y-coordinates, expected {n}")
    return all(v.y[j] >= n * phi(Fraction(v.x + j, n)) for j in range(n))
