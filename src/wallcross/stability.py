"""Wall crossings between forward classes and the resulting stability verdicts.

The segment from u to u' meets the wall of a separating sphere class A at the
single parameter t* = u.A / (u.A - u'.A).  Crossing walls one at a time and
comparing sphere-class sets on either side yields a chain of one-sided
inclusions, and the depth to which the two endpoint sets agree translates
into a range of degrees where the homotopy groups of the two
symplectomorphism groups are isomorphic.  This module computes the walls,
restores genericity by a deterministic rational perturbation when several
hyperplanes collide, samples a point per chamber, verifies the chain
link by link, and emits the verdict.

Verdicts are decisions, not computations of homotopy groups: the emitted
ranges are the ones the chamber combinatorics certifies, and each verdict
carries prose naming exactly what was checked.  A wall of a root class (a
square -2 class orthogonal to the canonical class) is crossed by the class
and its negative simultaneously, so such a link is two-sided rather than an
inclusion; the corresponding verdicts never claim more than the empty range
that depth supports, which keeps the chain sound.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import (
    ConsistencyError,
    DegenerateSegmentError,
    ValidationError,
)
from .lattice import (
    LatticeClass,
    SurfaceModel,
    SymplecticClass,
    forward_dual,
    integral_dual,
    is_forward,
    primitive_signed,
    render,
    square,
)
from .spheres import (
    CANDIDATE_TIER,
    CERTIFIED_TIER,
    EnumerationBounds,
    _resolve_depth,
    is_certified,
    set_difference,
    signed_candidates,
    spherical_set,
)

MODE_FULL = "full"
MODE_LEVEL = "level"
MODE_NONE = "none"

DIRECTION_LOST = "lost"
DIRECTION_GAINED = "gained"

RELATION_EQUAL = "equal"
RELATION_SUBSET = "subset"
RELATION_SUPERSET = "superset"
RELATION_TWO_SIDED = "two_sided"

_MAX_EPS_HALVINGS = 64

_NO_PERTURBATION = (
    "no basis perturbation repairs the segment: the left endpoint lies "
    "on a wall of its own chamber (degenerate input)"
)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of comparing two forward classes.

    mode "full": the sets coincide at every negative square; all positive
    degrees transfer and pi0_equal asserts matching component counts of the
    symplectomorphism subgroup of the identity diffeomorphism component.
    mode "level": agreement holds down to square -level only; iso_range is
    [1, 2*level - 3] and None when that interval is empty (level < 2).
    mode "none": the sets differ already at square -1.
    """

    mode: str
    level: Optional[int]
    iso_range: Optional[tuple[int, int]]
    pi0_equal: bool
    justification: tuple[str, ...]
    certification_tier: str
    square_floor: int
    s_diff: Optional[int]


@dataclass(frozen=True)
class WallCrossing:
    """One separating class with its crossing parameter on the segment."""

    wall_class: LatticeClass
    t_star: Fraction
    direction: str


@dataclass(frozen=True)
class PerturbationRecord:
    """A deterministic replacement for a degenerate left endpoint.

    The replacement keeps the sphere-class set of the original exactly,
    verified down to witness_depth; absent an explicit truncation that depth
    is the certified one covering all negative squares for both classes.
    """

    original: SymplecticClass
    replacement: SymplecticClass
    epsilon: Fraction
    direction: LatticeClass
    witness_depth: int


@dataclass(frozen=True)
class ChainLink:
    """One adjacent sample pair with its verified set relation."""

    left: SymplecticClass
    right: SymplecticClass
    relation: str
    lost: tuple[LatticeClass, ...]
    gained: tuple[LatticeClass, ...]
    justification: str


@dataclass(frozen=True)
class StabilityCertificate:
    surface: SurfaceModel
    u: SymplecticClass
    u_prime: SymplecticClass
    walls: tuple[WallCrossing, ...]
    generic: bool
    perturbation: Optional[PerturbationRecord]
    samples: tuple[SymplecticClass, ...]
    chain: tuple[ChainLink, ...]
    verdict: StabilityVerdict
    square_floor: int


# ---------------------------------------------------------------------------
# Helpers


def _blend(u: SymplecticClass, v: SymplecticClass, t: Fraction) -> SymplecticClass:
    return SymplecticClass(
        tuple((1 - t) * a + t * b for a, b in zip(u.coords, v.coords))
    )


# What one call knows about a segment: the validated endpoints u, v with
# their scaled forms (w, L) of `integral_dual`, the joint depth, whether the
# search there is truncated, and the classes separating u from v, in set order.
_Segment = namedtuple("_Segment", "u v wu lu wv lv depth truncated only_u only_v")


def _segment(
    surface: SurfaceModel, u: SymplecticClass, v: SymplecticClass,
    bounds: Optional[EnumerationBounds], n: Optional[int],
) -> _Segment:
    """The symmetric difference of u and v, built once for verdict and walls."""
    wu, lu = forward_dual(surface, u)
    wv, lv = forward_dual(surface, v)
    depth, full = _resolve_depth(surface, (wu, wv), n, bounds)
    su, complete = signed_candidates(surface, wu, depth, bounds, least=1)
    sv = signed_candidates(surface, wv, depth, bounds, least=1)[0]
    left, right = set(su), set(sv)
    return _Segment(
        u, v, wu, lu, wv, lv, depth, not (full and complete),
        tuple(a for a in su if a not in right),
        tuple(a for a in sv if a not in left),
    )


# ---------------------------------------------------------------------------
# Verdicts


def _range_for(level: int) -> Optional[tuple[int, int]]:
    return (1, 2 * level - 3) if level >= 2 else None


def max_stable_level(
    surface: SurfaceModel,
    u: SymplecticClass,
    v: SymplecticClass,
    bounds: Optional[EnumerationBounds] = None,
    n: Optional[int] = None,
) -> StabilityVerdict:
    """Decide how deeply the sphere-class sets of u and v agree.

    Empty difference at a certified depth gives the full verdict.  Otherwise
    the decisive square is the one closest to zero among separating classes:
    agreement holds exactly for depths below it, and the verdict's range
    follows.  A truncated search (explicit depth, or the 9-fold blow-up)
    can certify a level but never fullness.
    """
    return _verdict(surface, _segment(surface, u, v, bounds, n))


def _verdict(surface: SurfaceModel, seg: _Segment) -> StabilityVerdict:
    depth = seg.depth
    diff = seg.only_u + seg.only_v
    s_diff: Optional[int] = None
    tier = CERTIFIED_TIER
    if not diff and not seg.truncated:
        mode, level = MODE_FULL, None
        just = (
            f"the full sphere-class sets coincide (no separating class "
            f"down to the certified square floor -{depth})",
            "both classes lie in one chamber of the wall arrangement: "
            "homotopy groups of the symplectomorphism groups agree in "
            "every positive degree, and the component counts of the "
            "symplectomorphism subgroup of the identity diffeomorphism "
            "component agree as well",
        )
    elif not diff:
        mode, level = MODE_LEVEL, depth
        just = (
            f"sphere-class sets coincide at every explored square >= -{depth}; "
            f"deeper squares were not searched (truncated query, no "
            f"finiteness certificate applies)",
            _range_sentence(level, _range_for(level)),
        )
    else:
        s_diff = max(square(surface, a) for a in diff)
        witness = next(a for a in diff if square(surface, a) == s_diff)
        if not all(is_certified(surface, a) for a in diff):
            tier = CANDIDATE_TIER
        tier_note = (
            "every separating class is a certified exceptional or root class"
            if tier == CERTIFIED_TIER
            else "some separating classes are uncertified candidates (square <= -3); "
            "their geometric status is conjectural"
        )
        if s_diff == -1:
            mode, level = MODE_NONE, None
            just = (
                f"the sets differ already among square -1 classes "
                f"(e.g. {render(surface, witness)}); no stability range is certified",
                tier_note,
            )
        else:
            mode, level = MODE_LEVEL, -s_diff - 1
            just = (
                f"sphere-class sets coincide at squares >= -{level} and first differ "
                f"at square {s_diff} (e.g. {render(surface, witness)})",
                _range_sentence(level, _range_for(level)),
                tier_note,
            )
    return StabilityVerdict(
        mode=mode,
        level=level,
        iso_range=_range_for(level) if mode == MODE_LEVEL else None,
        pi0_equal=mode == MODE_FULL,
        justification=just,
        certification_tier=tier,
        square_floor=depth,
        s_diff=s_diff,
    )


def _range_sentence(level: int, rng: Optional[tuple[int, int]]) -> str:
    if rng is None:
        return (
            f"agreement depth {level} is too shallow to certify any positive "
            f"degree (the certified interval [1, 2n-3] is empty for n < 2)"
        )
    return (
        f"agreement to depth {level} certifies isomorphic homotopy groups of "
        f"the symplectomorphism groups in degrees {rng[0]}..{rng[1]}"
    )


# ---------------------------------------------------------------------------
# Walls and genericity


def segment_walls(
    surface: SurfaceModel,
    u: SymplecticClass,
    v: SymplecticClass,
    bounds: Optional[EnumerationBounds] = None,
    n: Optional[int] = None,
) -> tuple[WallCrossing, ...]:
    """One crossing per separating class, sorted by crossing parameter.

    Classes in both endpoint sets keep positive area on the whole segment by
    convexity, so only the separating classes produce crossings.  A class
    whose wall contains an endpoint (crossing parameter 0 or 1), or contains
    the entire segment, is degenerate input and rejected by name.
    """
    return _walls(surface, _segment(surface, u, v, bounds, n), bounds)


def _walls(
    surface: SurfaceModel, seg: _Segment, bounds: Optional[EnumerationBounds]
) -> tuple[WallCrossing, ...]:
    # A class on the walls of both endpoints belongs to neither set, so the
    # degeneracy scan runs over every candidate with u.A >= 0, not just the
    # members.
    wu, wv = seg.wu, seg.wv
    for a in signed_candidates(surface, wu, seg.depth, bounds)[0]:
        if sum(map(mul, wu, a.coords)) == 0 and sum(map(mul, wv, a.coords)) == 0:
            raise DegenerateSegmentError(
                f"both endpoints lie on the wall of {render(surface, a)}; "
                f"the segment runs inside that hyperplane"
            )
    crossings: list[WallCrossing] = []
    sides = ((DIRECTION_LOST, seg.only_u), (DIRECTION_GAINED, seg.only_v))
    for direction, side in sides:
        for a in side:
            # w.A = L (x.A), so these are Lu Lv u.A and Lu Lv v.A
            pu = sum(map(mul, wu, a.coords)) * seg.lv
            pv = sum(map(mul, wv, a.coords)) * seg.lu
            t_star = Fraction(pu, pu - pv)
            if t_star == 0 or t_star == 1:
                endpoint = "u" if t_star == 0 else "u'"
                raise DegenerateSegmentError(
                    f"endpoint {endpoint} lies on the wall of "
                    f"{render(surface, a)} (crossing parameter {t_star}); "
                    f"perturb or move the endpoint"
                )
            crossings.append(WallCrossing(a, t_star, direction))
    crossings.sort(key=lambda w: (w.t_star, w.wall_class.coords))
    return tuple(crossings)


def is_generic(walls: Sequence[WallCrossing]) -> bool:
    """True iff distinct hyperplanes cross at distinct parameters.

    A root class and its negative span the same hyperplane and always cross
    together; such a pair does not violate genericity.  Classes are reduced
    to a primitive signed normal before comparing.
    """
    seen: dict[Fraction, tuple[int, ...]] = {}
    for w in walls:
        normal = primitive_signed(w.wall_class.coords)
        prior = seen.get(w.t_star)
        if prior is not None and prior != normal:
            return False
        seen[w.t_star] = normal
    return True


# ---------------------------------------------------------------------------
# Perturbation


def _ready(
    surface: SurfaceModel, seg: _Segment, bounds: Optional[EnumerationBounds]
) -> Optional[tuple[WallCrossing, ...]]:
    """The walls of a segment, or None when they are degenerate or not generic."""
    try:
        walls = _walls(surface, seg, bounds)
    except DegenerateSegmentError:
        return None
    return walls if is_generic(walls) else None


def _perturb_detail(
    surface: SurfaceModel, seg: _Segment,
    bounds: Optional[EnumerationBounds], n: Optional[int],
) -> tuple[_Segment, tuple[WallCrossing, ...], Optional[PerturbationRecord]]:
    """The segment to sample from, its generic walls and the perturbation."""
    walls = _ready(surface, seg, bounds)
    if walls is not None:
        return seg, walls, None
    # Square -2 candidates are roots.  If u lies on the wall of a root R in
    # the pool, neither R nor -R is in set(u), so a replacement keeping
    # set(u) lies on that wall as well, and the wall meets its segment to v
    # at t* = 0 or contains it: no basis direction can succeed.
    u, wu = seg.u, seg.wu
    if seg.depth >= 2 and any(
        sum(map(mul, wu, r.coords)) == 0 and square(surface, r) == -2
        for r in signed_candidates(surface, wu, 2, bounds)[0]
    ):
        raise ValidationError(_NO_PERTURBATION)
    # The witness depth of u and a candidate is the larger of their own;
    # kept holds set(u) per witness depth.
    own_depth = _resolve_depth(surface, (wu,), n, bounds)[0]
    kept: dict[int, tuple[LatticeClass, ...]] = {}
    basis = surface.basis()
    for j in range(_MAX_EPS_HALVINGS + 1):
        eps = Fraction(1, 2**j)
        for b in basis:
            cand = SymplecticClass(
                tuple(c + eps * e for c, e in zip(u.coords, b.coords))
            )
            if not is_forward(surface, cand):
                continue
            wc = integral_dual(surface, cand)[0]
            depth = max(own_depth, _resolve_depth(surface, (wc,), n, bounds)[0])
            if depth not in kept:
                kept[depth] = signed_candidates(surface, wu, depth, bounds, least=1)[0]
            if signed_candidates(surface, wc, depth, bounds, least=1)[0] != kept[depth]:
                continue
            moved = _segment(surface, cand, seg.v, bounds, n)
            moved_walls = _ready(surface, moved, bounds)
            if moved_walls is None:
                continue
            return moved, moved_walls, PerturbationRecord(
                original=u,
                replacement=cand,
                epsilon=eps,
                direction=b,
                witness_depth=depth,
            )
    raise ValidationError(_NO_PERTURBATION)


def perturb(
    surface: SurfaceModel,
    u: SymplecticClass,
    v: SymplecticClass,
    bounds: Optional[EnumerationBounds] = None,
    n: Optional[int] = None,
) -> SymplecticClass:
    """Replace u by a chamber-equivalent nearby class making the segment generic.

    Deterministic: epsilon runs through 1, 1/2, 1/4, ... and the direction
    cycles through the basis classes in coordinate order; the first
    candidate that (a) stays forward, (b) keeps the sphere-class set of u
    exactly, and (c) yields a non-degenerate generic segment to v wins.
    Safety comes from check (b), which is exact, not from epsilon being
    small.  Already-generic input returns u unchanged.
    """
    return _perturb_detail(surface, _segment(surface, u, v, bounds, n), bounds, n)[0].u


# ---------------------------------------------------------------------------
# Certificates


def certify(
    surface: SurfaceModel,
    u: SymplecticClass,
    v: SymplecticClass,
    bounds: Optional[EnumerationBounds] = None,
    n: Optional[int] = None,
) -> StabilityCertificate:
    """Build and verify the full wall-crossing certificate for a segment.

    The endpoints are validated and scaled once, and one symmetric
    difference and one wall scan per segment give its walls and the direct
    verdict.  The left endpoint is perturbed first if those walls are
    degenerate or not generic; the walls then come from the perturbed
    segment, the verdict still from (u, v).  Samples consist of the
    (possibly perturbed) left endpoint, the midpoint of every interior
    chamber interval, and the right endpoint.  For each adjacent sample
    pair the sphere-class sets are recomputed independently through
    `spherical_set`, and their difference must consist of exactly the wall
    classes crossed between the two samples; any mismatch, or a verdict
    differing from the direct set-difference verdict, raises a consistency
    error since it can only be an implementation bug.
    """
    seg = _segment(surface, u, v, bounds, n)
    base, walls, record = _perturb_detail(surface, seg, bounds, n)
    if not is_generic(walls):
        raise ConsistencyError(
            "segment still not generic after perturbation; this is a bug"
        )

    t_values = sorted({w.t_star for w in walls})
    mids = [(a + b) / 2 for a, b in zip(t_values, t_values[1:])]
    sample_ts = [Fraction(0), *mids, Fraction(1)]
    samples = tuple(_blend(base.u, v, t) for t in sample_ts)

    sets = [spherical_set(surface, s, base.depth, bounds) for s in samples]
    chain: list[ChainLink] = []
    for i in range(len(samples) - 1):
        lost, gained = (s.classes for s in set_difference(sets[i], sets[i + 1]))
        lo, hi = sample_ts[i], sample_ts[i + 1]
        between = [(w.direction, w.wall_class) for w in walls if lo < w.t_star < hi]
        expect_lost = sorted(a for d, a in between if d == DIRECTION_LOST)
        expect_gained = sorted(a for d, a in between if d == DIRECTION_GAINED)
        if sorted(lost) != expect_lost or sorted(gained) != expect_gained:
            raise ConsistencyError(
                f"chain link {i}: sample sets differ by "
                f"{[render(surface, a) for a in lost + gained]} but the wall "
                f"list predicts "
                f"{[render(surface, a) for a in expect_lost + expect_gained]}"
            )
        if not lost and not gained:
            relation = RELATION_EQUAL
            note = "no wall between these samples; the sets agree"
        elif not gained:
            relation = RELATION_SUPERSET
            note = (
                "the left set strictly contains the right set; a one-sided "
                "inclusion transfers the stable range across this wall"
            )
        elif not lost:
            relation = RELATION_SUBSET
            note = (
                "the left set is strictly contained in the right set; a "
                "one-sided inclusion transfers the stable range across this wall"
            )
        else:
            relation = RELATION_TWO_SIDED
            note = (
                "a root-class wall: the class and its negative swap sides "
                "simultaneously, so no inclusion holds; only the depth-1 "
                "(empty-range) conclusion survives this link"
            )
        chain.append(
            ChainLink(
                left=samples[i],
                right=samples[i + 1],
                relation=relation,
                lost=lost,
                gained=gained,
                justification=note,
            )
        )

    verdict = _verdict(surface, seg)
    crossed = tuple(w.wall_class for w in walls)
    if crossed:
        chain_s_diff = max(square(surface, a) for a in crossed)
        chain_level = -chain_s_diff - 1
        expected_mode = MODE_NONE if chain_level == 0 else MODE_LEVEL
        if verdict.mode != expected_mode or (
            verdict.mode == MODE_LEVEL and verdict.level != chain_level
        ):
            raise ConsistencyError(
                f"verdict {verdict.mode}/{verdict.level} disagrees with the "
                f"chain-derived level {chain_level}; this is a bug"
            )
    elif verdict.mode == MODE_LEVEL and verdict.s_diff is not None:
        raise ConsistencyError(
            "walls empty but the direct difference is not; this is a bug"
        )

    return StabilityCertificate(
        surface=surface,
        u=u,
        u_prime=v,
        walls=walls,
        generic=True,
        perturbation=record,
        samples=samples,
        chain=tuple(chain),
        verdict=verdict,
        square_floor=base.depth,
    )
