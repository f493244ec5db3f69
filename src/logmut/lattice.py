"""Exact arithmetic on the oriented rank-2 lattice.

Vectors are plain integer pairs ``(x, y)``.  Python integers are
arbitrary-precision, so all arithmetic here is exact by construction; there is
no overflow path.  The orientation is fixed by ``sform((1,0),(0,1)) == 1``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .errors import ZeroVector

Vec = tuple[int, int]


def sform(a: Vec, b: Vec) -> int:
    """Symplectic (determinant) pairing {a, b} = a.x*b.y - a.y*b.x."""
    return a[0] * b[1] - a[1] * b[0]


def vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def primitive_split(e: Vec) -> tuple[int, Vec]:
    """Write e = length * direction with direction primitive and length = gcd.

    Raises ZeroVector on (0,0): the zero vector has no direction.
    """
    if e == (0, 0):
        raise ZeroVector("the zero vector has no primitive direction")
    g = gcd(abs(e[0]), abs(e[1]))
    return g, (e[0] // g, e[1] // g)


@dataclass(frozen=True)
class UnimodularMap:
    """An element [[a, b], [c, d]] of SL(2, Z), acting on vectors by rows:

    (x, y) -> (a*x + b*y, c*x + d*y).

    Orientation-preserving by the determinant invariant, so it commutes with
    sform: sform(Av, Aw) == sform(v, w).
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"determinant must be +1, got {det}")

    def apply(self, v: Vec) -> Vec:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def compose(self, other: "UnimodularMap") -> "UnimodularMap":
        """self after other: (self.compose(other)).apply(v) == self.apply(other.apply(v))."""
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "UnimodularMap":
        return UnimodularMap(self.d, -self.b, -self.c, self.a)


def shear_map(m: int) -> UnimodularMap:
    """[[1, m], [0, 1]]: fixes the x-axis pointwise."""
    return UnimodularMap(1, m, 0, 1)


def to_east(u: Vec) -> UnimodularMap:
    """Some SL(2,Z) map sending the primitive vector u to (1, 0).

    Any two such maps differ by a left shear; callers needing a canonical
    choice compose with the shear normalizing a second direction.
    """
    p, q = u
    if gcd(p, q) != 1:
        raise ValueError(f"{u} is not primitive")
    # a*p + b*q == 1, so [[a, b], [-q, p]] has determinant 1 and sends
    # (p, q) to (1, 0); for q == 0, p == a == +-1.
    if q:
        a = pow(p, -1, q)
        b = (1 - a * p) // q
    else:
        a, b = p, 0
    return UnimodularMap(a, b, -q, p)


def _upper(x: int, y: int) -> bool:
    """Whether the counterclockwise angle of (x, y) from (1, 0) is in [0, pi)."""
    return y > 0 or (y == 0 and x > 0)


def sort_ccw(items: Iterable, direction_of) -> list:
    """Sort items by the counterclockwise angle of direction_of(item) in
    [0, 2pi) from (1, 0): the east-first order.

    Directions must be pairwise non-parallel or equal; equal directions sort
    stably together (the caller detects duplicates separately).  Exact, in
    integers only: an insertion sort keyed by (in the lower half-plane?, x,
    y), where the sign of the cross product decides within one half-plane
    (its directions are less than a half turn apart); linear on input that
    is nearly sorted already, as the data that mutation produces are.
    """
    out: list = []
    keys: list[tuple[bool, int, int]] = []
    for item in items:
        x, y = direction_of(item)
        if x == y == 0:
            raise ZeroVector("the zero vector has no angle")
        low = not _upper(x, y)
        k = len(keys)
        while k:  # step back past every entry that (x, y) strictly precedes
            klow, kx, ky = keys[k - 1]
            if klow < low or (klow == low and kx * y - ky * x >= 0):
                break
            k -= 1
        keys.insert(k, (low, x, y))
        out.insert(k, item)
    return out
