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

Per (surface, square, box) the candidates are tabulated lazily as blocks: a
degree d from the window and the non-increasing tuples a_1 >= ... >= a_k
solving both constraints.  Each tuple stands for its distinct permutations,
which are built only when a query needs them and then shared by every
later query (`_expand`).

Queries against an integer weight vector w = (w_0, w_1, ..., w_k), such as
`integral_dual(u)`, prune whole tuples before building any permutation.
By the rearrangement inequality (Hardy, Littlewood and Polya), the largest
value of w_0 d + sum w_i a_{pi(i)} over permutations pi pairs the tuple
with the weights w_1..w_k sorted in decreasing order, and the smallest pairs
it with them sorted in increasing order.  If the largest value is below the
threshold, no permutation qualifies and the tuple is skipped; if the
smallest reaches it, every permutation qualifies unseen.  Only tuples
straddling the threshold have their permutations tested one by one, so a
query costs about the size of its answer, not of the candidate pool.  On
the product a class xB + yF is the block (x, (y,)), where both bounds are
its exact value.

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

from dataclasses import dataclass, replace
from functools import lru_cache
from math import isqrt
from operator import attrgetter, mul
from typing import Iterator, Optional, Sequence

from .errors import MissingBoundsError, ValidationError
from .lattice import (
    BLOWUP,
    PRODUCT,
    LatticeClass,
    SurfaceModel,
    SymplecticClass,
    adjunction_defect,
    forward_dual,
    is_root,
    scaled_invariants,
    square,
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


def _distinct_permutations(values: Sequence[int]) -> list[tuple[int, ...]]:
    """Distinct permutations of values, in lexicographic order."""
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): [()]}

    def rec(vals: tuple[int, ...]) -> list[tuple[int, ...]]:
        # vals is sorted, so each distinct leading value is taken once, in
        # increasing order; sub-multisets recur and are built once.
        got = memo.get(vals)
        if got is None:
            got = []
            for i, v in enumerate(vals):
                if i == 0 or v != vals[i - 1]:
                    got.extend([(v,) + p for p in rec(vals[:i] + vals[i + 1:])])
            memo[vals] = got
        return got

    return rec(tuple(sorted(values)))


Blocks = tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
_by_coords = attrgetter("coords")


def _product_table(s: int, box: Optional[int]) -> tuple[Blocks, bool]:
    # A = xB + yF solves adjunction iff (x-1)(y-1) = 0, with square 2xy.
    if s % 2 != 0:
        return (), True
    m = s // 2
    blocks = []
    complete = True
    for x, y in sorted({(1, m), (m, 1)}):
        if box is not None and (abs(x) > box or abs(y) > box):
            complete = False
            continue
        blocks.append((x, ((y,),)))
    return tuple(blocks), complete


def _blowup_table(k: int, s: int, box: Optional[int]) -> tuple[Blocks, bool]:
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
    blocks = []
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
        tails = tuple(_multisets(sigma, q, k, vmax, vmin))
        if tails:
            blocks.append((d, tails))
    return tuple(blocks), complete


@lru_cache(maxsize=None)
def _table(
    surface: SurfaceModel, s: int, box: Optional[int]
) -> tuple[Blocks, bool]:
    """Candidates of square s as blocks (d, tails), d ascending.

    The candidates of a block are the classes (d; p) for p a distinct
    permutation of one of its non-increasing tails; on the product a class
    xB + yF is the block (x, ((y,),)).  Built on first use, never at import.
    """
    if surface.kind == PRODUCT:
        return _product_table(s, box)
    return _blowup_table(surface.k, s, box)


@lru_cache(maxsize=None)
def _expand(d: int, tail: tuple[int, ...]) -> tuple[LatticeClass, ...]:
    """The classes (d; p), p a distinct permutation of tail, in coordinate order.

    Every enumeration path reads its classes from here, so a class is built
    once and shared by all the queries that touch it.
    """
    return tuple(LatticeClass((d,) + p) for p in _distinct_permutations(tail))


def _box(bounds: Optional[EnumerationBounds]) -> Optional[int]:
    return bounds.coefficient_box if bounds is not None else None


@lru_cache(maxsize=None)
def _candidates(
    surface: SurfaceModel, s: int, box: Optional[int]
) -> tuple[tuple[LatticeClass, ...], bool]:
    blocks, complete = _table(surface, s, box)
    classes = [a for d, tails in blocks for t in tails for a in _expand(d, t)]
    classes.sort(key=_by_coords)
    return tuple(classes), complete


def enumerate_candidates(
    surface: SurfaceModel, s: int, bounds: Optional[EnumerationBounds] = None
) -> EnumerationResult:
    """All candidates A with A.A = s < 0, sorted by coordinates."""
    if s >= 0:
        raise ValidationError(
            f"candidate enumeration is restricted to negative squares, got {s}"
        )
    classes, complete = _candidates(surface, s, _box(bounds))
    return EnumerationResult(surface, s, classes, complete)


def candidate_pool(
    surface: SurfaceModel, depth: int, bounds: Optional[EnumerationBounds] = None
) -> tuple[LatticeClass, ...]:
    """All candidates with square in [-depth, -1], independent of any u.

    The pool is ordered by square descending, then by coordinates: the
    member order of a sphere-class set.
    """
    box = _box(bounds)
    return tuple(
        a for s in range(-1, -depth - 1, -1) for a in _candidates(surface, s, box)[0]
    )


def signed_candidates(
    surface: SurfaceModel,
    w: Sequence[int],
    depth: int,
    bounds: Optional[EnumerationBounds] = None,
    least: int = 0,
) -> tuple[tuple[LatticeClass, ...], bool]:
    """Candidates with square in [-depth, -1] and w . A >= least, in set order.

    w is an integer weight vector such as `integral_dual`; the flag is False
    when a coefficient box may have truncated some square.  Whole multisets
    are kept or dropped by the rearrangement bounds of the module notes, so
    only the permutations of multisets that straddle `least` are tested.
    """
    box = _box(bounds)
    w0 = w[0]
    down = sorted(w[1:], reverse=True)
    up = down[::-1]
    members: list[LatticeClass] = []
    complete = True
    for s in range(-1, -depth - 1, -1):
        blocks, ok = _table(surface, s, box)
        complete = complete and ok
        part: list[LatticeClass] = []
        for d, tails in blocks:
            base = w0 * d
            for t in tails:
                if base + sum(map(mul, t, down)) < least:
                    continue
                classes = _expand(d, t)
                if base + sum(map(mul, t, up)) >= least:
                    part.extend(classes)
                else:
                    part.extend(
                        a for a in classes if sum(map(mul, w, a.coords)) >= least
                    )
        part.sort(key=_by_coords)
        members.extend(part)
    return tuple(members), complete


def zero_square_candidates(
    surface: SurfaceModel, bounds: Optional[EnumerationBounds] = None
) -> tuple[LatticeClass, ...]:
    """Adjunction classes of square 0 (fiber-type classes).

    Their pairing sign with a forward class is the same across the whole
    forward cone, so they never enter sphere-class sets; they matter as
    cone-boundary markers, e.g. when a capacity ray exits the cone.
    """
    classes, _ = _candidates(surface, 0, _box(bounds))
    return classes


# ---------------------------------------------------------------------------
# Finiteness depth


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
    exactly zero.  beta has degree 0 in u, so the test runs on the integer
    u of `integral_dual` as u.u (x^2 + 4) >= (4 u.u + (u.K)^2 - u.u K.K) x.

    On the 9-fold blow-up per-square counts are already infinite, so no
    depth makes the full set computable and the caller must truncate
    explicitly.
    """
    return _certified_depth(surface, forward_dual(surface, u)[0])


def _certified_depth(surface: SurfaceModel, w: Sequence[int]) -> int:
    """`full_search_depth` of the forward class with scaled area vector w."""
    if surface.kind == BLOWUP and surface.k == 9:
        raise MissingBoundsError(
            "the 9-fold blow-up has no finite full sphere-class set; "
            "supply bounds.square_min (and a coefficient box)"
        )
    uu, uk = scaled_invariants(surface, w)
    b = 4 * uu + uk * uk - uu * surface.canonical_square
    x = max(3, -(-b // (2 * uu)))
    while uu * (x * x + 4) < b * x:
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


def _sort_key(surface: SurfaceModel):
    def key(a: LatticeClass):
        return (-square(surface, a), a.coords)

    return key


def _resolve_depth(
    surface: SurfaceModel,
    duals: Sequence[Sequence[int]],
    n: Optional[int],
    bounds: Optional[EnumerationBounds],
) -> tuple[int, bool]:
    """Effective depth and whether it reaches the certified full depth.

    duals are scaled area vectors of forward classes.  The certified depth
    is the largest of the classes' own, so it bounds the search for each.
    """
    if n is not None:
        if n < 1:
            raise ValidationError(f"depth must be >= 1, got {n}")
        depth = n
    elif bounds is not None and bounds.square_min is not None:
        depth = -bounds.square_min
    else:
        return max(_certified_depth(surface, w) for w in duals), True
    if surface.kind == BLOWUP and surface.k == 9:
        return depth, False
    return depth, depth >= max(_certified_depth(surface, w) for w in duals)


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
    w = forward_dual(surface, u)[0]
    depth, full = _resolve_depth(surface, (w,), n, bounds)
    members, complete = signed_candidates(surface, w, depth, bounds, least=1)
    status: tuple[tuple[LatticeClass, str], ...] = ()
    if certification == CERTIFIED_TIER:
        status = tuple((a, classify(surface, a)) for a in members)
    return SphereClassSet(
        surface=surface,
        u=u,
        square_floor=depth,
        classes=members,
        certification=certification,
        status=status,
        full=full,
        complete=complete,
    )


def set_difference(
    sa: SphereClassSet, sb: SphereClassSet
) -> tuple[SphereClassSet, SphereClassSet]:
    """(members only in sa, members only in sb) as sets; depths must agree.

    Each side keeps the member order of its parent, which is set order.
    """
    if sa.surface != sb.surface:
        raise ValidationError("sphere-class sets live on different surfaces")
    if sa.square_floor != sb.square_floor:
        raise ValidationError(
            f"sphere-class sets were cut at different depths "
            f"({sa.square_floor} vs {sb.square_floor}); recompute at a "
            f"common one"
        )
    def restrict(parent: SphereClassSet, other: set) -> SphereClassSet:
        kept = tuple(a for a in parent.classes if a not in other)
        status = tuple((a, st) for a, st in parent.status if a not in other)
        return replace(parent, classes=kept, status=status)

    return restrict(sa, set(sb.classes)), restrict(sb, set(sa.classes))


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
    duals = (forward_dual(surface, u)[0], forward_dual(surface, v)[0])
    depth, _ = _resolve_depth(surface, duals, n, bounds)
    sa = spherical_set(surface, u, depth, bounds, certification)
    sb = spherical_set(surface, v, depth, bounds, certification)
    return set_difference(sa, sb)

