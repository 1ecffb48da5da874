"""Intersection lattices of rational surfaces, exactly.

Two families of surface are modelled: the product of two spheres (basis B, F
with B.B = F.F = 0, B.F = 1) and the plane blown up in k points, 0 <= k <= 9
(basis H, E_1..E_k with H.H = 1, E_i.E_i = -1, mixed products 0).  Everything
downstream — sphere-class enumeration, wall crossings, stability verdicts —
reduces to sign computations in these lattices, so all arithmetic here is
exact: integer coordinates for homology classes, `fractions.Fraction` for
symplectic (area) classes.  No floats anywhere.  A symplectic class is
cleared of denominators once (`integral_dual`), and the kernel's sign
tests and reduction moves run in integers on that scaled area vector.

Conventions.  A class is a coordinate vector in the basis above.  For blow-ups
the familiar curve notation dH - m_1 E_1 - ... corresponds to coordinates
(d, -m_1, ...).  Symplectic classes are usually displayed by their area vector
(u.H; u.E_1, ..., u.E_k), written (nu; c_1, ..., c_k), or (u.B, u.F) on the
product.  "Forward" means u.u > 0 and u.K < 0 where K is the canonical class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import ValidationError

Coord = Union[int, Fraction]

PRODUCT = "product"
BLOWUP = "blowup"

MAX_BLOWUPS = 9  # Euler characteristic cap: chi = 3 + k <= 12


@dataclass(frozen=True, order=True)
class SurfaceModel:
    """A rational surface: the sphere product or a k-fold blow-up of the plane."""

    kind: str
    k: int = 0

    @property
    def rank(self) -> int:
        return 2 if self.kind == PRODUCT else 1 + self.k

    @property
    def euler_characteristic(self) -> int:
        return 4 if self.kind == PRODUCT else 3 + self.k

    @property
    def canonical(self) -> "LatticeClass":
        if self.kind == PRODUCT:
            return LatticeClass((-2, -2))
        return LatticeClass((-3,) + (1,) * self.k)

    @property
    def canonical_square(self) -> int:
        return 8 if self.kind == PRODUCT else 9 - self.k

    def basis(self) -> tuple["LatticeClass", ...]:
        """The standard basis (B, F) or (H, E_1, ..., E_k) as classes."""
        n = self.rank
        return tuple(
            LatticeClass(tuple(1 if i == j else 0 for i in range(n))) for j in range(n)
        )

    def describe(self) -> str:
        if self.kind == PRODUCT:
            return "S2xS2 (sphere product)"
        if self.k == 0:
            return "CP2"
        return f"CP2 # {self.k} CP2-bar (blow-up of the plane in {self.k} points)"


def product() -> SurfaceModel:
    return SurfaceModel(PRODUCT)


def blow_up(k: int) -> SurfaceModel:
    if not 0 <= k <= MAX_BLOWUPS:
        raise ValidationError(
            f"blow-up count k={k} out of range 0..{MAX_BLOWUPS} "
            f"(Euler characteristic must stay <= 12)"
        )
    return SurfaceModel(BLOWUP, k)


@dataclass(frozen=True, order=True)
class LatticeClass:
    """An integral homology class, stored as basis coordinates."""

    coords: tuple[int, ...]

    def __neg__(self) -> "LatticeClass":
        return LatticeClass(tuple(-c for c in self.coords))


@dataclass(frozen=True, order=True)
class SymplecticClass:
    """A rational cohomology class, usually a symplectic form's class."""

    coords: tuple[Fraction, ...]


ClassLike = Union[LatticeClass, SymplecticClass]


def _coords(x: ClassLike | Sequence[Coord]) -> Sequence[Coord]:
    return x.coords if isinstance(x, (LatticeClass, SymplecticClass)) else x


def _check_rank(surface: SurfaceModel, *xs: ClassLike) -> None:
    for x in xs:
        if len(_coords(x)) != surface.rank:
            raise ValidationError(
                f"class has {len(_coords(x))} coordinates, "
                f"surface rank is {surface.rank}"
            )


def lattice_class(surface: SurfaceModel, coords: Iterable[int]) -> LatticeClass:
    c = tuple(int(v) for v in coords)
    out = LatticeClass(c)
    _check_rank(surface, out)
    return out


def symplectic_class(surface: SurfaceModel, coords: Iterable[Coord]) -> SymplecticClass:
    c = tuple(Fraction(v) for v in coords)
    out = SymplecticClass(c)
    _check_rank(surface, out)
    return out


def from_areas(surface: SurfaceModel, areas: Sequence[Coord]) -> SymplecticClass:
    """Build a symplectic class from its area vector.

    Blow-up: (nu; c_1, ..., c_k) with nu = u.H and c_i = u.E_i.
    Product: (u.B, u.F).
    """
    vals = [Fraction(v) for v in areas]
    if len(vals) != surface.rank:
        raise ValidationError(
            f"expected {surface.rank} areas for {surface.describe()}, got {len(vals)}"
        )
    if surface.kind == PRODUCT:
        b_area, f_area = vals
        return SymplecticClass((f_area, b_area))
    return SymplecticClass((vals[0],) + tuple(-v for v in vals[1:]))


def areas(surface: SurfaceModel, u: ClassLike) -> tuple[Fraction, ...]:
    """Area vector of u: pairings with the standard basis classes."""
    w, den = integral_dual(surface, u)
    return tuple(Fraction(c, den) for c in w)


def integral_dual(surface: SurfaceModel, x: ClassLike) -> tuple[tuple[int, ...], int]:
    """The area vector of x cleared of denominators: (w, L), w = L areas(x).

    L > 0 is the lcm of the denominators of x's int or Fraction coordinates:
    w is L (x_0, -x_1, ..., -x_k) on blow-ups, L (x_1, x_0) on the product.
    Areas are pairings with the basis, so w . A = L (x.A) for every integral
    class A: a plain dot product with w has the sign of the exact pairing.
    """
    cs = _coords(x)
    _check_rank(surface, cs)
    den = 1
    for i, c in enumerate(cs):
        if not isinstance(c, (int, Fraction)):
            raise ValidationError(
                f"coordinate {i} of the class is {c!r} ({type(c).__name__}); "
                f"coordinates must be integers or fractions"
            )
        den = lcm(den, c.denominator)
    s = [c.numerator * (den // c.denominator) for c in cs]
    if surface.kind == PRODUCT:
        return (s[1], s[0]), den
    return (s[0],) + tuple(-c for c in s[1:]), den


def scaled_invariants(surface: SurfaceModel, w: Sequence[int]) -> tuple[int, int]:
    """(L^2 u.u, L u.K) from the scaled area vector w = L areas(u)."""
    if surface.kind == PRODUCT:
        return 2 * w[0] * w[1], -2 * (w[0] + w[1])
    return w[0] * w[0] - sum(c * c for c in w[1:]), sum(w[1:]) - 3 * w[0]


def pairing(surface: SurfaceModel, a: ClassLike, b: ClassLike):
    """Intersection pairing a.b; exact (int or Fraction depending on inputs)."""
    _check_rank(surface, a, b)
    x, y = _coords(a), _coords(b)
    if surface.kind == PRODUCT:
        return x[0] * y[1] + x[1] * y[0]
    acc = x[0] * y[0]
    for xi, yi in zip(x[1:], y[1:]):
        acc -= xi * yi
    return acc


def square(surface: SurfaceModel, a: ClassLike):
    return pairing(surface, a, a)


def adjunction_defect(surface: SurfaceModel, a: LatticeClass) -> int:
    """K.A + A.A + 2; zero exactly for (rational) sphere-class candidates."""
    if all(c == 0 for c in a.coords):
        raise ValidationError("adjunction defect undefined for the zero class")
    return pairing(surface, surface.canonical, a) + square(surface, a) + 2


def is_sphere_candidate(surface: SurfaceModel, a: LatticeClass) -> bool:
    """True when A is nonzero and satisfies the adjunction constraint."""
    if all(c == 0 for c in a.coords):
        return False
    return adjunction_defect(surface, a) == 0


def cod(surface: SurfaceModel, a: LatticeClass) -> int:
    """Codimension weight 2(-A.A - 1) of a negative-square sphere class."""
    s = square(surface, a)
    if s >= 0:
        raise ValidationError(
            f"codimension weight needs negative square, got A.A = {s}"
        )
    return 2 * (-s - 1)


def is_forward(surface: SurfaceModel, u: SymplecticClass) -> bool:
    uu, uk = scaled_invariants(surface, integral_dual(surface, u)[0])
    return uu > 0 and uk < 0


def forward_dual(surface: SurfaceModel, u: SymplecticClass) -> tuple[tuple[int, ...], int]:
    """`integral_dual` of u, after checking that u is forward."""
    w, den = integral_dual(surface, u)
    uu, uk = scaled_invariants(surface, w)
    if uu <= 0 or uk >= 0:
        why = (f"square {square(surface, u)} <= 0" if uu <= 0
               else "pairing with the canonical class is >= 0")
        raise ValidationError(f"class {render(surface, u)} is not forward: {why}")
    return w, den


def validate_forward(surface: SurfaceModel, u: SymplecticClass) -> None:
    forward_dual(surface, u)


# ---------------------------------------------------------------------------
# Roots, reflections and reduction


def is_root(surface: SurfaceModel, r: LatticeClass) -> bool:
    """A root is a square -2 class orthogonal to the canonical class."""
    return (
        square(surface, r) == -2
        and pairing(surface, surface.canonical, r) == 0
    )


def reflect(surface: SurfaceModel, x: ClassLike, root: LatticeClass) -> ClassLike:
    """Reflection x -> x + (x.root) root in a (-2)-root; fixes K."""
    _check_rank(surface, x, root)
    if not is_root(surface, root):
        raise ValidationError(
            f"{render(surface, root)} is not a root (need square -2 and "
            f"K-orthogonality)"
        )
    t = pairing(surface, x, root)
    coords = tuple(c + t * r for c, r in zip(_coords(x), root.coords))
    if isinstance(x, SymplecticClass):
        return SymplecticClass(tuple(Fraction(c) for c in coords))
    return LatticeClass(tuple(int(c) for c in coords))


@dataclass(frozen=True)
class WeylMove:
    """One reduction step: a basis swap or a Cremona triple.

    Indices are 1-based blow-up indices (E_i).  A swap on the product surface
    exchanges B and F and carries no indices.
    """

    kind: str  # "swap" | "cremona"
    indices: tuple[int, ...] = ()

    def root(self, surface: SurfaceModel) -> LatticeClass:
        n = surface.rank
        if self.kind == "swap":
            if surface.kind == PRODUCT:
                return LatticeClass((1, -1))
            i, j = self.indices
            c = [0] * n
            c[i], c[j] = 1, -1
            return LatticeClass(tuple(c))
        i, j, l = self.indices
        c = [0] * n
        c[0] = 1
        c[i] = c[j] = c[l] = -1
        return LatticeClass(tuple(c))


WeylWord = tuple[WeylMove, ...]


def apply_move(surface: SurfaceModel, move: WeylMove, x: ClassLike) -> ClassLike:
    return reflect(surface, x, move.root(surface))


def apply_word(surface: SurfaceModel, word: Iterable[WeylMove], x: ClassLike) -> ClassLike:
    for move in word:
        x = apply_move(surface, move, x)
    return x


def invert_word(word: Iterable[WeylMove]) -> WeylWord:
    """Reflections are involutions, so the inverse word is the reverse."""
    return tuple(reversed(list(word)))


def is_reduced(surface: SurfaceModel, u: SymplecticClass) -> bool:
    a = integral_dual(surface, u)[0]
    if surface.kind == PRODUCT:
        return a[0] >= a[1]
    cs = a[1:] + (0,)  # non-increasing down to an appended 0: all areas >= 0
    return all(x >= y for x, y in zip(cs, cs[1:])) and a[0] >= sum(cs[:3])


def reduce(surface: SurfaceModel, u: SymplecticClass) -> tuple[SymplecticClass, WeylWord]:
    """Bring a forward class to reduced form, returning the Weyl word used.

    Reduced means: blow-up areas sorted non-increasing, nonnegative, and
    nu >= c_1 + c_2 + c_3 (zero-padded below three indices); on the product,
    B-area >= F-area.  Moves act on the integer areas of `integral_dual`: a
    swap exchanges two, Cremona(1, 2, 3) adds delta = nu - c_1 - c_2 - c_3
    < 0 to nu, c_1, c_2, c_3, so the loop ends (nu stays a positive integer).
    Classes in chambers the Weyl group cannot reach (some blow-up area forced
    negative) are rejected.
    """
    validate_forward(surface, u)
    a, den = integral_dual(surface, u)
    a = list(a)
    word: list[WeylMove] = []

    def current() -> SymplecticClass:
        return from_areas(surface, [Fraction(c, den) for c in a]) if word else u

    if surface.kind == PRODUCT:
        if a[0] < a[1]:
            a.reverse()
            word.append(WeylMove("swap"))
        return current(), tuple(word)

    k = surface.k
    swaps = [WeylMove("swap", (i, i + 1)) for i in range(1, k)]
    cremona = WeylMove("cremona", (1, 2, 3))
    while True:
        # Sort blow-up areas descending with recorded adjacent swaps.
        changed = True
        while changed:
            changed = False
            for i in range(1, k):
                if a[i] < a[i + 1]:
                    a[i], a[i + 1] = a[i + 1], a[i]
                    word.append(swaps[i - 1])
                    changed = True
        delta = a[0] - sum(a[1:4])
        if delta >= 0:
            break
        if k < 3:
            raise ValidationError(
                f"class {render(surface, current())} cannot be reduced: "
                f"nu < c_1 + c_2 + c_3 but fewer than three blow-up indices "
                f"exist, so no Cremona move is available"
            )
        for i in range(4):
            a[i] += delta
        word.append(cremona)
    if any(c < 0 for c in a[1:]):
        raise ValidationError(
            f"class {render(surface, u)} lies outside the standard symplectic "
            f"cone: reduction ends with a negative blow-up area "
            f"({render_areas(surface, current())})"
        )
    return current(), tuple(word)


# ---------------------------------------------------------------------------
# Display and canonical forms


def primitive_signed(coords: Sequence[int]) -> tuple[int, ...]:
    """Divide out the gcd and orient so the first nonzero entry is positive."""
    g = 0
    for c in coords:
        g = gcd(g, abs(c))
    g = g or 1
    out = [c // g for c in coords]
    for c in out:
        if c != 0:
            if c < 0:
                out = [-v for v in out]
            break
    return tuple(out)


def render(surface: SurfaceModel, x: ClassLike) -> str:
    """Curve-style rendering: H-E_1-E_2, 2H-E_1, B-3F, (-1)H+2E_1, ..."""
    names = (
        ["B", "F"]
        if surface.kind == PRODUCT
        else ["H"] + [f"E_{i}" for i in range(1, surface.rank)]
    )
    cs = _coords(x)
    parts: list[str] = []
    for c, name in zip(cs, names):
        if c == 0:
            continue
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{c}{name}"
        if parts and not term.startswith("-"):
            parts.append(f"+{term}")
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


def render_areas(surface: SurfaceModel, u: ClassLike) -> str:
    a = areas(surface, u)
    if surface.kind == PRODUCT:
        return f"({a[0]}, {a[1]})"
    inner = ", ".join(str(v) for v in a[1:])
    return f"({a[0]}; {inner})" if inner else f"({a[0]})"
