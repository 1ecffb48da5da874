"""Ball-packing stability: blow-up classes and critical capacity profiles.

Packing m disjoint balls of capacities c_1..c_m corresponds to passing to a
blow-up surface whose new exceptional classes carry areas c_i.  Growing the
capacities along a fixed-weight ray, the homotopy type of the space of ball
embeddings can only change where the area of a negative sphere class of the
blow-up vanishes, so the profile of those sign changes is the object of
interest.

Along the ray the class is u_c = u_0 - c * D with u_0 the zero-capacity
blow-up class and D the weighted direction; D pairs to zero with u_0, so
u_c . u_c = u_0 . u_0 - c^2 * sum(w_i^2) exactly.  For a product base the
first ball is absorbed by the standard identification of the once-blown-up
product with the twice-blown-up plane, whose new-ball class is H-E_1-E_2;
further balls are ordinary blow-ups.

Critical values are reported for certified classes only (exceptional
classes and roots, all of square -1 or -2).  Deeper candidates have no
geometric certificate, and whole families of them can change sign along a
ray, so promoting them to critical values would bury the certified walls in
noise; they are surfaced separately as flagged sign changes down to a
configurable square floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import ValidationError
from .lattice import (
    PRODUCT,
    LatticeClass,
    SurfaceModel,
    SymplecticClass,
    areas,
    blow_up,
    from_areas,
    integral_dual,
    pairing,
    render,
    scaled_invariants,
    square,
    validate_forward,
)
from .spheres import (
    CANDIDATE_TIER,
    CERTIFIED_TIER,
    EnumerationBounds,
    enumerate_candidates,
    is_certified,
    signed_candidates,
    zero_square_candidates,
)

DEFAULT_FLAG_DEPTH = 4


@dataclass(frozen=True)
class BallConfig:
    """Ball data: capacities, or ray weights when ray_mode is set."""

    capacities: tuple[Fraction, ...]
    ray_mode: bool = False

    def __post_init__(self) -> None:
        if not self.capacities:
            raise ValidationError("at least one ball is required")
        object.__setattr__(
            self, "capacities", tuple(Fraction(c) for c in self.capacities)
        )
        if any(c <= 0 for c in self.capacities):
            raise ValidationError(
                "capacities and ray weights must be positive rationals"
            )


@dataclass(frozen=True)
class CriticalWall:
    value: Fraction
    classes: tuple[LatticeClass, ...]


@dataclass(frozen=True)
class FlaggedFlip:
    """An uncertified candidate changing sign: reported, never critical."""

    wall_class: LatticeClass
    value: Fraction


@dataclass(frozen=True)
class CapacityInterval:
    """An open capacity interval between consecutive critical values.

    `forward` means u_c stays a forward class on the whole interval;
    `certification` drops to the candidate tier when a flagged flip falls
    inside, since an unknown deeper wall might then subdivide the interval.
    """

    lower: Fraction
    upper: Fraction
    forward: bool
    certification: str


@dataclass(frozen=True)
class CapacityProfile:
    base: SurfaceModel
    target: SurfaceModel
    weights: tuple[Fraction, ...]
    u_start: SymplecticClass
    direction: SymplecticClass
    c_max: Fraction
    c_max_source: str
    critical_values: tuple[Fraction, ...]
    walls: tuple[CriticalWall, ...]
    flagged: tuple[FlaggedFlip, ...]
    intervals: tuple[CapacityInterval, ...]
    notes: tuple[str, ...]


def _target_surface(base: SurfaceModel, m: int) -> SurfaceModel:
    if base.kind == PRODUCT:
        if 1 + m > 9:
            raise ValidationError(
                f"{m} balls on the sphere product exceed the blow-up cap "
                f"(1 + m <= 9 required)"
            )
        return blow_up(1 + m)
    if base.k + m > 9:
        raise ValidationError(
            f"{m} balls on a {base.k}-fold blow-up exceed the blow-up cap "
            f"(k + m <= 9 required)"
        )
    return blow_up(base.k + m)


def _start_and_direction(
    base: SurfaceModel,
    u: SymplecticClass,
    weights: Sequence[Fraction],
) -> tuple[SurfaceModel, SymplecticClass, SymplecticClass]:
    """Zero-capacity class u_0 and ray direction D on the target surface."""
    m = len(weights)
    target = _target_surface(base, m)
    if base.kind == PRODUCT:
        b_area, f_area = areas(base, u)
        u0 = from_areas(
            target, (b_area + f_area, b_area, f_area) + (Fraction(0),) * (m - 1)
        )
        d_coords = [Fraction(0)] * target.rank
        d_coords[0] += weights[0]
        d_coords[1] -= weights[0]
        d_coords[2] -= weights[0]
        for j in range(1, m):
            d_coords[2 + j] += weights[j]
        direction = SymplecticClass(tuple(d_coords))
    else:
        u0 = SymplecticClass(u.coords + (Fraction(0),) * m)
        d_coords = [Fraction(0)] * target.rank
        for j in range(m):
            d_coords[base.rank + j] += weights[j]
        direction = SymplecticClass(tuple(d_coords))
    return target, u0, direction


def blowup_class(
    base: SurfaceModel,
    u: SymplecticClass,
    config: BallConfig,
    bounds: Optional[EnumerationBounds] = None,
) -> tuple[SurfaceModel, SymplecticClass]:
    """The blow-up surface and class whose new exceptional areas are the capacities.

    Validity requires more than forwardness: every certified exceptional
    class of the target must keep positive area, and the first one violated
    (in canonical order) is named in the rejection.  On a 9-fold target the
    exceptional scan needs a coefficient box; without one only forwardness
    is checked and the result should be treated as partially validated.
    """
    validate_forward(base, u)
    caps = config.capacities
    m = len(caps)
    target = _target_surface(base, m)
    if base.kind == PRODUCT:
        b_area, f_area = areas(base, u)
        c1 = caps[0]
        new_areas = (
            b_area + f_area - c1,
            b_area - c1,
            f_area - c1,
        ) + tuple(caps[1:])
        u_c = from_areas(target, new_areas)
    else:
        u_c = from_areas(target, areas(base, u) + caps)
    w = integral_dual(target, u_c)[0]
    uu, uk = scaled_invariants(target, w)
    if uu <= 0 or uk >= 0:
        why = (f"has square {square(target, u_c)} <= 0" if uu <= 0
               else "pairs nonnegatively with the canonical class")
        raise ValidationError(f"capacities too large: the blow-up class {why}")
    if target.k == 9 and (bounds is None or bounds.coefficient_box is None):
        return target, u_c
    for a in enumerate_candidates(target, -1, bounds).classes:
        if not is_certified(target, a):
            continue
        if sum(map(mul, w, a.coords)) <= 0:
            raise ValidationError(
                f"capacities too large: exceptional class "
                f"{render(target, a)} has area "
                f"{pairing(target, u_c, a)} <= 0"
            )
    return target, u_c


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    p, d = q.numerator, q.denominator
    rp, rd = isqrt(p), isqrt(d)
    if rp * rp == p and rd * rd == d:
        return Fraction(rp, rd)
    return None


def critical_capacities(
    base: SurfaceModel,
    u: SymplecticClass,
    config: BallConfig,
    bounds: Optional[EnumerationBounds] = None,
) -> CapacityProfile:
    """Profile of certified wall crossings along a weighted capacity ray.

    c_max is the least of three cone-exit bounds, each exactly rational:
    the capacity where the class stops pairing negatively with the
    canonical class, the first vanishing of a positively-paired square-0
    fiber class, and the volume root sqrt(u_0.u_0 / sum w^2) when that
    happens to be rational (an irrational volume root is instead visible as
    non-forward intervals).  Interior critical values come from certified
    classes whose area changes sign strictly inside (0, c_max); uncertified
    candidate flips down to the square floor (bounds.square_min, default
    -4) are flagged but excluded from the critical list.
    """
    if not config.ray_mode:
        raise ValidationError(
            "critical_capacities needs ray_mode: capacities act as ray weights"
        )
    validate_forward(base, u)
    weights = config.capacities
    target, u0, direction = _start_and_direction(base, u, weights)
    notes: list[str] = []
    if base.euler_characteristic > 11:
        notes.append(
            "base surface has Euler characteristic > 11: the per-interval "
            "stability conclusion is not backed at this size"
        )

    sum_w = sum(weights)
    sum_w2 = sum(w * w for w in weights)
    uk = pairing(target, u0, target.canonical)
    u0_sq = square(target, u0)

    # On one integer scale m, w0 . A = m (u_0 . A) and wd . A = m (D . A).
    m = lcm(*(c.denominator for c in u0.coords + direction.coords))
    w0, wd = (
        integral_dual(target, SymplecticClass(tuple(m * c for c in x.coords)))[0]
        for x in (u0, direction)
    )

    constraints: list[tuple[Fraction, str]] = []
    constraints.append(((-uk) / sum_w, "canonical-pairing bound"))
    for a in zero_square_candidates(target, bounds):
        da = sum(map(mul, wd, a.coords))
        if da <= 0:
            continue
        p0 = sum(map(mul, w0, a.coords))
        if p0 < 0:
            continue
        if p0 == 0:
            raise ValidationError(
                f"degenerate ray: fiber class {render(target, a)} has zero "
                f"area already at capacity 0"
            )
        constraints.append(
            (Fraction(p0, da), f"fiber-class bound ({render(target, a)})")
        )
    vol = _rational_sqrt(u0_sq / sum_w2)
    if vol is not None:
        constraints.append((vol, "volume bound"))
    else:
        notes.append(
            "volume root sqrt(u0.u0 / sum w^2) is irrational; forwardness is "
            "tracked per interval instead of capping c_max"
        )
    c_max = min(v for v, _ in constraints)
    c_max_source = "; ".join(
        sorted(src for v, src in constraints if v == c_max)
    )
    if c_max <= 0:
        raise ValidationError("the capacity ray exits the cone immediately")

    flag_depth = DEFAULT_FLAG_DEPTH
    if bounds is not None and bounds.square_min is not None:
        flag_depth = max(flag_depth, -bounds.square_min)
    # u_end = u_0 - c_max D is the far end of the ray.  A strict sign change
    # along the ray is a class positive at one end and negative at the other,
    # at capacity u_0.A / D.A.
    w_end = tuple(
        c_max.denominator * a - c_max.numerator * b for a, b in zip(w0, wd)
    )
    walls_by_value: dict[Fraction, list[LatticeClass]] = {}
    flagged: list[FlaggedFlip] = []
    for w_pos, w_neg in ((w0, w_end), (w_end, w0)):
        for a in signed_candidates(target, w_pos, flag_depth, bounds, least=1)[0]:
            if sum(map(mul, w_neg, a.coords)) >= 0:
                continue
            value = Fraction(
                sum(map(mul, w0, a.coords)), sum(map(mul, wd, a.coords))
            )
            if is_certified(target, a):
                walls_by_value.setdefault(value, []).append(a)
            else:
                flagged.append(FlaggedFlip(a, value))
    flagged.sort(key=lambda f: (f.value, f.wall_class.coords))
    critical_values = tuple(sorted(walls_by_value))
    walls = tuple(
        CriticalWall(v, tuple(sorted(walls_by_value[v]))) for v in critical_values
    )

    cuts = [Fraction(0), *critical_values, c_max]
    intervals = []
    flips = [f.value for f in flagged]  # ascending
    i = 0
    for lo, hi in zip(cuts, cuts[1:]):
        fwd = u0_sq - hi * hi * sum_w2 >= 0
        while i < len(flips) and flips[i] <= lo:
            i += 1
        tier = CERTIFIED_TIER
        if i < len(flips) and flips[i] < hi:
            tier = CANDIDATE_TIER
        intervals.append(CapacityInterval(lo, hi, fwd, tier))

    if flagged:
        notes.append(
            f"{len(flagged)} uncertified candidate sign changes (square <= -3, "
            f"floor -{flag_depth}) are flagged, not critical: no finite "
            f"certificate of geometric representability exists at that depth"
        )
    notes.append(
        "c_max is a cone bound, not a packing bound; the profile is valid on "
        "a possibly conservative range"
    )
    if target.k == 9:
        notes.append(
            "9-fold target: enumeration is box-truncated and the wall list "
            "may be incomplete"
        )
    return CapacityProfile(
        base=base,
        target=target,
        weights=tuple(weights),
        u_start=u0,
        direction=direction,
        c_max=c_max,
        c_max_source=c_max_source,
        critical_values=critical_values,
        walls=walls,
        flagged=tuple(flagged),
        intervals=tuple(intervals),
        notes=tuple(notes),
    )
