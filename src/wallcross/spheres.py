"""Enumeration of sphere classes and area-positive sphere-class sets.

A *candidate* is a nonzero integral class A with K.A + A.A + 2 = 0.  For a
fixed square s these are enumerated exactly.  On the sphere product there is
a closed form.  On a blow-up of the plane in k <= 8 points the count is
finite: writing A = dH + sum a_i E_i, the adjunction constraint pins
sum a_i = s + 2 - 3d and sum a_i^2 = d^2 - s, and Cauchy-Schwarz between the
two forces

    (9 - k) d^2 - 6 (s + 2) d + (s + 2)^2 + k s <= 0,

which bounds d to a finite window whenever k <= 8.  For k = 9 the window
degenerates (already the square-(-2) classes form an infinite affine root
system), so enumeration there demands an explicit coefficient box and the
result is flagged incomplete.

Given a forward class u, the sphere-class set at depth n collects the
candidates A with -n <= A.A <= -1 and u.A > 0.  Candidates of square >= 0
are excluded deliberately: for A.A >= 0 the sign of u.A is the same for
every forward u (light-cone sign lemma), so such classes never distinguish
two forward classes and carry no wall data.  Squares below a computable
depth cannot pair positively with u either (see `full_search_depth`), which
is what makes the depth-unbounded queries decidable away from the 9-fold
blow-up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import ceil, isqrt, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

from .errors import MissingBoundsError, ValidationError
from .lattice import (
    BLOWUP,
    PRODUCT,
    LatticeClass,
    SurfaceModel,
    SymplecticClass,
    adjunction_defect,
    is_root,
    pairing,
    square,
    validate_forward,
)

CANDIDATE_TIER = "candidate"
CERTIFIED_TIER = "cremona_certified"

STATUS_EXCEPTIONAL = "exceptional"
STATUS_ROOT = "root"
STATUS_CANDIDATE = "candidate"


@dataclass(frozen=True, order=True)
class EnumerationBounds:
    """Optional truncation data for enumeration queries.

    square_min: most negative square (<= -1) to include in unbounded-depth
        queries.  Mandatory on the 9-fold blow-up, where no finiteness
        certificate exists; elsewhere it overrides the certified depth.
    coefficient_box: bound N restricting basis coordinates to |c| <= N.
        Mandatory on the 9-fold blow-up, optional (and then usually
        redundant) elsewhere.
    """

    square_min: Optional[int] = None
    coefficient_box: Optional[int] = None

    def __post_init__(self) -> None:
        if self.square_min is not None and self.square_min > -1:
            raise ValidationError(
                f"square_min must be <= -1, got {self.square_min}"
            )
        if self.coefficient_box is not None and self.coefficient_box < 1:
            raise ValidationError(
                f"coefficient_box must be >= 1, got {self.coefficient_box}"
            )


@dataclass(frozen=True)
class EnumerationResult:
    """All candidates of one square, with a completeness flag."""

    surface: SurfaceModel
    sq: int
    classes: tuple[LatticeClass, ...]
    complete: bool


@dataclass(frozen=True)
class SphereClassSet:
    """Candidates of square in [-square_floor, -1] pairing positively with u.

    `full` records that the depth came from (or reaches) the finiteness
    certificate, so the set provably misses no negative-square candidate for
    this u.  `complete` is False when a coefficient box may have truncated
    the per-square enumeration.  At the certified tier, `status` grades each
    member "exceptional", "root" or "candidate"; members of square <= -3
    admit no certificate from lattice data alone and always stay candidates.
    """

    surface: SurfaceModel
    u: SymplecticClass
    square_floor: int
    classes: tuple[LatticeClass, ...]
    certification: str
    status: tuple[tuple[LatticeClass, str], ...]
    full: bool
    complete: bool

    def by_square(self) -> dict[int, tuple[LatticeClass, ...]]:
        out: dict[int, list[LatticeClass]] = {}
        for a in self.classes:
            out.setdefault(square(self.surface, a), []).append(a)
        return {s: tuple(v) for s, v in sorted(out.items(), reverse=True)}

    def __contains__(self, a: LatticeClass) -> bool:
        return a in set(self.classes)


# ---------------------------------------------------------------------------
# Per-square enumeration


def _multisets(
    sigma: int, q: int, r: int, vmax: int, vmin: Optional[int]
) -> Iterator[tuple[int, ...]]:
    """Non-increasing r-tuples with entry max vmax, sum sigma, square sum q."""
    if q < 0:
        return
    if r == 0:
        if sigma == 0 and q == 0:
            yield ()
        return
    if sigma * sigma > r * q:
        return
    root_q = isqrt(q)
    if sigma > r * vmax or sigma < -r * root_q:
        return
    hi = min(vmax, root_q)
    lo = -(-sigma // r)  # ceil(sigma / r): the largest entry is at least the mean
    if vmin is not None:
        lo = max(lo, vmin)
    for v in range(hi, lo - 1, -1):
        for rest in _multisets(sigma - v, q - v * v, r - 1, v, vmin):
            yield (v,) + rest


def _distinct_permutations(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    counts = Counter(values)
    support = sorted(counts)
    n = len(values)
    slot: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(slot) == n:
            yield tuple(slot)
            return
        for v in support:
            if counts[v]:
                counts[v] -= 1
                slot.append(v)
                yield from rec()
                slot.pop()
                counts[v] += 1

    yield from rec()


def _product_candidates(
    s: int, box: Optional[int]
) -> tuple[tuple[LatticeClass, ...], bool]:
    # A = xB + yF solves adjunction iff (x-1)(y-1) = 0, with square 2xy.
    if s % 2 != 0:
        return (), True
    m = s // 2
    raw = {(1, m), (m, 1)}
    classes = []
    complete = True
    for x, y in sorted(raw):
        if box is not None and (abs(x) > box or abs(y) > box):
            complete = False
            continue
        classes.append(LatticeClass((x, y)))
    return tuple(classes), complete


def _blowup_candidates(
    k: int, s: int, box: Optional[int]
) -> tuple[tuple[LatticeClass, ...], bool]:
    if k == 9 and box is None:
        raise MissingBoundsError(
            "enumeration on the 9-fold blow-up is infinite; "
            "supply bounds.coefficient_box"
        )
    if k == 9:
        d_range = range(-box, box + 1)
        complete = False
    else:
        # Integer window for d from the Cauchy-Schwarz inequality; the window
        # edges get re-checked exactly below, so isqrt slack is harmless.
        disc = 36 * (s + 2) ** 2 - 4 * (9 - k) * ((s + 2) ** 2 + k * s)
        if disc < 0:
            return (), True
        r = isqrt(disc)
        lo = (6 * (s + 2) - r) // (2 * (9 - k)) - 1
        hi = -((-(6 * (s + 2) + r)) // (2 * (9 - k))) + 1
        d_range = range(lo, hi + 1)
        complete = True
        if box is not None:
            inside = lo >= -box and hi <= box
            for d in d_range:
                if inside and isqrt(max(d * d - s, 0)) > box:
                    inside = False
            if not inside:
                complete = False
            d_range = range(max(lo, -box), min(hi, box) + 1)
    vmin = -box if box is not None else None
    out: list[LatticeClass] = []
    for d in d_range:
        if k != 9:
            if (9 - k) * d * d - 6 * (s + 2) * d + (s + 2) ** 2 + k * s > 0:
                continue
        sigma = s + 2 - 3 * d
        q = d * d - s
        if q < 0:
            continue
        vmax = isqrt(q)
        if box is not None:
            vmax = min(vmax, box)
        for mult in _multisets(sigma, q, k, vmax, vmin):
            for tail in _distinct_permutations(mult):
                out.append(LatticeClass((d,) + tail))
    return tuple(sorted(set(out))), complete


@lru_cache(maxsize=None)
def _candidates(
    surface: SurfaceModel, s: int, bounds: Optional[EnumerationBounds]
) -> tuple[tuple[LatticeClass, ...], bool]:
    box = bounds.coefficient_box if bounds is not None else None
    if surface.kind == PRODUCT:
        return _product_candidates(s, box)
    return _blowup_candidates(surface.k, s, box)


def enumerate_candidates(
    surface: SurfaceModel, s: int, bounds: Optional[EnumerationBounds] = None
) -> EnumerationResult:
    """All candidates A with A.A = s < 0, sorted by coordinates."""
    if s >= 0:
        raise ValidationError(
            f"candidate enumeration is restricted to negative squares, got {s}"
        )
    classes, complete = _candidates(surface, s, bounds)
    return EnumerationResult(surface, s, classes, complete)


@lru_cache(maxsize=None)
def _negative_candidates(
    surface: SurfaceModel, depth: int, bounds: Optional[EnumerationBounds]
) -> tuple[tuple[LatticeClass, ...], bool]:
    """Candidates with -depth <= A.A <= -1, pooled over squares.

    The pool is ordered by square descending, then by coordinates: the
    member order of a sphere-class set, which therefore needs no sort.
    """
    pool: list[LatticeClass] = []
    complete = True
    for s in range(-1, -depth - 1, -1):
        classes, ok = _candidates(surface, s, bounds)
        pool.extend(classes)
        complete = complete and ok
    return tuple(pool), complete


# ---------------------------------------------------------------------------
# Finiteness depth


def candidate_pool(
    surface: SurfaceModel, depth: int, bounds: Optional[EnumerationBounds] = None
) -> tuple[LatticeClass, ...]:
    """All candidates with square in [-depth, -1], independent of any u."""
    pool, _ = _negative_candidates(surface, depth, bounds)
    return pool


def zero_square_candidates(
    surface: SurfaceModel, bounds: Optional[EnumerationBounds] = None
) -> tuple[LatticeClass, ...]:
    """Adjunction classes of square 0 (fiber-type classes).

    Their pairing sign with a forward class is the same across the whole
    forward cone, so they never enter sphere-class sets; they matter as
    cone-boundary markers, e.g. when a capacity ray exits the cone.
    """
    classes, _ = _candidates(surface, 0, bounds)
    return classes


def full_search_depth(surface: SurfaceModel, u: SymplecticClass) -> int:
    """Certified depth n: no candidate with A.A < -n has u.A > 0.

    Split a candidate A into its component along u and a remainder in the
    orthogonal complement, where the pairing is negative definite (the form
    has signature (1, rank-1)).  With x = -A.A >= 3, adjunction gives
    K.A = x - 2, and Cauchy-Schwarz in the complement turns u.A > 0 into

        (x - 2)^2 < beta(u) * x,   beta(u) = ((u.K)^2 - u.u K.K) / u.u,

    valid because K.K >= 0 on every modelled surface.  The least integer x0
    past the parabola's vertex with x0^2 - (4 + beta) x0 + 4 >= 0 therefore
    caps the achievable squares, and n = max(2, x0 - 1) is a sound depth.
    The cap is tight: there are inputs where a candidate of square -(x0 - 1)
    pairs positively while the extremal class of square -x0 has pairing
    exactly zero.

    On the 9-fold blow-up per-square counts are already infinite, so no
    depth makes the full set computable and the caller must truncate
    explicitly.
    """
    validate_forward(surface, u)
    if surface.kind == BLOWUP and surface.k == 9:
        raise MissingBoundsError(
            "the 9-fold blow-up has no finite full sphere-class set; "
            "supply bounds.square_min (and a coefficient box)"
        )
    k_class = surface.canonical
    uu = square(surface, u)
    uk = pairing(surface, u, k_class)
    beta = Fraction(uk * uk - uu * surface.canonical_square, uu)
    x = max(3, ceil(Fraction(4 + beta, 2)))
    while x * x - (4 + beta) * x + 4 < 0:
        x += 1
    return max(2, x - 1)


def pair_search_depth(
    surface: SurfaceModel, u: SymplecticClass, v: SymplecticClass
) -> int:
    """Depth covering every candidate that pairs positively with u or v."""
    return max(full_search_depth(surface, u), full_search_depth(surface, v))


# ---------------------------------------------------------------------------
# Certification


def is_exceptional_class(surface: SurfaceModel, a: LatticeClass) -> bool:
    """Certify a square -1 candidate by reduction to a blow-up basis class.

    Repeatedly applies the quadratic basis change on the three largest
    multiplicities (padding with zero multiplicities below three indices)
    while their sum exceeds the degree; each step drops the degree, and
    genuine exceptional classes terminate at a basis class E_i.  Anything
    else, in particular a negative running degree, fails.
    """
    if square(surface, a) != -1 or adjunction_defect(surface, a) != 0:
        return False
    if surface.kind == PRODUCT:
        return False  # squares on the product are even
    d = a.coords[0]
    m = [-c for c in a.coords[1:]]
    while len(m) < 3:
        m.append(0)
    while True:
        if d < 0:
            return False
        m.sort(reverse=True)
        t = m[0] + m[1] + m[2]
        if t <= d:
            break
        m[0], m[1], m[2] = d - m[1] - m[2], d - m[0] - m[2], d - m[0] - m[1]
        d = 2 * d - t
    return d == 0 and sorted(m) == [-1] + [0] * (len(m) - 1)


def classify(surface: SurfaceModel, a: LatticeClass) -> str:
    """Certification status: "exceptional", "root", or bare "candidate"."""
    s = square(surface, a)
    if s == -1 and is_exceptional_class(surface, a):
        return STATUS_EXCEPTIONAL
    if s == -2 and is_root(surface, a):
        return STATUS_ROOT
    return STATUS_CANDIDATE


def is_certified(surface: SurfaceModel, a: LatticeClass) -> bool:
    return classify(surface, a) != STATUS_CANDIDATE


# ---------------------------------------------------------------------------
# Sphere-class sets


def integral_dual(surface: SurfaceModel, u: SymplecticClass) -> tuple[int, ...]:
    """Integer vector w with w . A = L (u.A) for every integral class A.

    L > 0 is the lcm of the denominators of u's coordinates, and the metric
    is twisted into the coordinates: (x_0, -x_1, ..., -x_k) on blow-ups,
    (x_1, x_0) on the product.  The plain dot product with w therefore has
    the sign of the exact pairing with u, so filtering a candidate pool needs
    integer arithmetic only.  The caller checks u's rank.
    """
    den = 1
    for c in u.coords:
        den = lcm(den, c.denominator)
    x = [c.numerator * (den // c.denominator) for c in u.coords]
    if surface.kind == PRODUCT:
        return (x[1], x[0])
    return (x[0],) + tuple(-c for c in x[1:])


def _sort_key(surface: SurfaceModel):
    def key(a: LatticeClass):
        return (-square(surface, a), a.coords)

    return key


def _resolve_depth(
    surface: SurfaceModel,
    classes: Sequence[SymplecticClass],
    n: Optional[int],
    bounds: Optional[EnumerationBounds],
) -> tuple[int, bool]:
    """Effective depth and whether it reaches the certified full depth.

    The certified depth is the largest of the classes' own, so it bounds the
    search for every one of them.
    """
    if n is not None:
        if n < 1:
            raise ValidationError(f"depth must be >= 1, got {n}")
        depth = n
    elif bounds is not None and bounds.square_min is not None:
        depth = -bounds.square_min
    else:
        return max(full_search_depth(surface, c) for c in classes), True
    if surface.kind == BLOWUP and surface.k == 9:
        return depth, False
    return depth, depth >= max(full_search_depth(surface, c) for c in classes)


def spherical_set(
    surface: SurfaceModel,
    u: SymplecticClass,
    n: Optional[int] = None,
    bounds: Optional[EnumerationBounds] = None,
    certification: str = CANDIDATE_TIER,
) -> SphereClassSet:
    """Collect the candidates with square in [-n, -1] and u.A > 0.

    n = None means unbounded depth: the certified depth for u is used when
    it exists, else `bounds.square_min` must truncate; on the 9-fold blow-up
    only the truncated form is available and the set is never full.
    """
    if certification not in (CANDIDATE_TIER, CERTIFIED_TIER):
        raise ValidationError(f"unknown certification tier {certification!r}")
    validate_forward(surface, u)
    depth, full = _resolve_depth(surface, (u,), n, bounds)
    pool, complete = _negative_candidates(surface, depth, bounds)
    w = integral_dual(surface, u)
    members = [a for a in pool if sum(map(mul, w, a.coords)) > 0]
    status: tuple[tuple[LatticeClass, str], ...] = ()
    if certification == CERTIFIED_TIER:
        status = tuple((a, classify(surface, a)) for a in members)
    return SphereClassSet(
        surface=surface,
        u=u,
        square_floor=depth,
        classes=tuple(members),
        certification=certification,
        status=status,
        full=full,
        complete=complete,
    )


def set_difference(
    sa: SphereClassSet, sb: SphereClassSet
) -> tuple[SphereClassSet, SphereClassSet]:
    """(members only in sa, members only in sb) as sets; depths must agree."""
    if sa.surface != sb.surface:
        raise ValidationError("sphere-class sets live on different surfaces")
    if sa.square_floor != sb.square_floor:
        raise ValidationError(
            f"sphere-class sets were cut at different depths "
            f"({sa.square_floor} vs {sb.square_floor}); recompute at a "
            f"common one"
        )
    left = set(sa.classes)
    right = set(sb.classes)
    key = _sort_key(sa.surface)

    def restrict(parent: SphereClassSet, keep: set) -> SphereClassSet:
        kept = tuple(sorted(keep, key=key))
        status = tuple((a, st) for a, st in parent.status if a in keep)
        return replace(parent, classes=kept, status=status)

    return restrict(sa, left - right), restrict(sb, right - left)


def symmetric_difference(
    surface: SurfaceModel,
    u: SymplecticClass,
    v: SymplecticClass,
    n: Optional[int] = None,
    bounds: Optional[EnumerationBounds] = None,
    certification: str = CANDIDATE_TIER,
) -> tuple[SphereClassSet, SphereClassSet]:
    """Classes separating u from v at a common depth.

    With n = None the depth is certified jointly: any separating class pairs
    positively with one endpoint, so the larger of the two certified depths
    covers the whole difference.
    """
    validate_forward(surface, u)
    validate_forward(surface, v)
    depth, _ = _resolve_depth(surface, (u, v), n, bounds)
    sa = spherical_set(surface, u, depth, bounds, certification)
    sb = spherical_set(surface, v, depth, bounds, certification)
    return set_difference(sa, sb)

