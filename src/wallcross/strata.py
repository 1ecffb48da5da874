"""Combinatorial index of the stratification attached to a forward class.

A finite set of distinct negative-square candidates with pairwise
nonnegative intersections is *admissible*; it labels a stratum whose
codimension is the sum of the per-class weights 2(-A.A - 1).  The index at
an even level collects every admissible label of codimension strictly below
the level, together with the record that everything else sits in
codimension at least the level.  Only the labels and their codimensions are
computed here: whether a given stratum is actually nonempty is a question
about spaces of almost complex structures that no lattice computation can
settle, so the index never claims nonemptiness.

Square -1 classes pass the admissibility test but are excluded from label
generation: their weight is 0, so including them would inflate the index by
infinite families of labels that cannot change any codimension count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ValidationError
from .lattice import (
    LatticeClass,
    SurfaceModel,
    SymplecticClass,
    adjunction_defect,
    cod,
    pairing,
    render,
    square,
)
from .spheres import EnumerationBounds, _sort_key, spherical_set


@dataclass(frozen=True)
class AdmissibleSet:
    """A stratum label: pairwise-nonnegative negative classes with codim."""

    surface: SurfaceModel
    classes: tuple[LatticeClass, ...]
    codim: int


@dataclass(frozen=True)
class StratificationIndex:
    """All admissible labels below one even level, for one forward class.

    residual_codim repeats the level: the part of the decomposition not
    carried by a listed label has codimension at least that, which is the
    only thing the combinatorics certifies about it.
    """

    level: int
    strata: tuple[AdmissibleSet, ...]
    residual_codim: int


def _validate_member(surface: SurfaceModel, a: LatticeClass) -> None:
    if all(c == 0 for c in a.coords):
        raise ValidationError("the zero class cannot enter an admissible set")
    if square(surface, a) >= 0:
        raise ValidationError(
            f"admissible sets take negative squares only; "
            f"{render(surface, a)} has square {square(surface, a)}"
        )
    if adjunction_defect(surface, a) != 0:
        raise ValidationError(
            f"{render(surface, a)} fails the sphere adjunction constraint "
            f"(defect {adjunction_defect(surface, a)})"
        )


def is_admissible(surface: SurfaceModel, classes: Sequence[LatticeClass]) -> bool:
    """True iff all pairwise intersections of the (valid) classes are >= 0."""
    seen = set()
    for a in classes:
        _validate_member(surface, a)
        if a in seen:
            raise ValidationError(
                f"duplicate class {render(surface, a)} in admissible-set input"
            )
        seen.add(a)
    cl = list(classes)
    for i in range(len(cl)):
        for j in range(i + 1, len(cl)):
            if pairing(surface, cl[i], cl[j]) < 0:
                return False
    return True


def admissible_set(
    surface: SurfaceModel, classes: Sequence[LatticeClass]
) -> AdmissibleSet:
    """Build a validated label; rejects non-admissible inputs."""
    if not is_admissible(surface, classes):
        raise ValidationError(
            "classes are not admissible (some pairwise intersection is negative)"
        )
    ordered = tuple(sorted(classes, key=_sort_key(surface)))
    return AdmissibleSet(surface, ordered, sum(cod(surface, a) for a in ordered))


def enumerate_admissible(
    surface: SurfaceModel,
    u: SymplecticClass,
    level: int,
    bounds: Optional[EnumerationBounds] = None,
) -> StratificationIndex:
    """All admissible labels of codimension < level drawn from the u-set.

    The level must be even and >= 2.  A label member of weight < level has
    square >= -level/2, so the sphere-class set at that depth feeds the
    search; weight-0 members (square -1) are skipped by design.  The empty
    label (codimension 0) is always present.
    """
    if level < 2 or level % 2 != 0:
        raise ValidationError(f"level must be an even integer >= 2, got {level}")
    depth = level // 2
    pool = [
        a
        for a in spherical_set(surface, u, depth, bounds).classes
        if square(surface, a) <= -2 and cod(surface, a) < level
    ]
    weights = [cod(surface, a) for a in pool]
    found: list[AdmissibleSet] = []
    chosen: list[int] = []

    def dfs(start: int, total: int) -> None:
        found.append(
            AdmissibleSet(
                surface, tuple(pool[i] for i in chosen), total
            )
        )
        for i in range(start, len(pool)):
            w = total + weights[i]
            if w >= level:
                continue
            if any(pairing(surface, pool[j], pool[i]) < 0 for j in chosen):
                continue
            chosen.append(i)
            dfs(i + 1, w)
            chosen.pop()

    dfs(0, 0)
    found.sort(key=lambda st: (st.codim, tuple(a.coords for a in st.classes)))
    return StratificationIndex(level=level, strata=tuple(found), residual_codim=level)


def compare_levels(
    surface: SurfaceModel,
    u: SymplecticClass,
    v: SymplecticClass,
    level: int,
    bounds: Optional[EnumerationBounds] = None,
) -> bool:
    """True iff the two indexes carry identical labels and codimensions."""
    iu = enumerate_admissible(surface, u, level, bounds)
    iv = enumerate_admissible(surface, v, level, bounds)
    label = lambda idx: [(st.classes, st.codim) for st in idx.strata]
    return label(iu) == label(iv)
