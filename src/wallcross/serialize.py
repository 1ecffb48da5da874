"""Exact, byte-deterministic JSON for every result object.

Rationals never pass through floats: an integral value serializes as a JSON
integer, anything else as the string "p/q".  Homology classes are arrays of
integer coordinates, symplectic classes arrays of rationals, in the basis
order of their surface (B, F on the product; H, E_1, ..., E_k on blow-ups).
Every top-level document carries "schema": 1 so readers can detect format
drift, and `dumps` fixes key order and separators so identical requests
produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any

from .errors import ValidationError
from .lattice import (
    BLOWUP,
    PRODUCT,
    LatticeClass,
    SurfaceModel,
    SymplecticClass,
    blow_up,
    is_sphere_candidate,
    lattice_class,
    pairing,
    product,
    render,
    square,
    symplectic_class,
)
from .packing import CapacityProfile
from .spheres import (
    CANDIDATE_TIER,
    CERTIFIED_TIER,
    EnumerationResult,
    SphereClassSet,
    _sort_key,
    classify,
)
from .stability import StabilityCertificate
from .strata import StratificationIndex

SCHEMA_VERSION = 1

# JSON keys that differ from their dataclass field names.
_KEYS = {
    "square_floor": "floor",
    "s_diff": "square_diff",
    "certification_tier": "certification",
    "t_star": "t",
    "wall_class": "class",
    "sq": "square",
}

# Top-level documents carry "schema" and name their surface; a record nested
# in a document (a stratum label) leaves the surface to the document.
_DOCUMENTS = (EnumerationResult, SphereClassSet, StabilityCertificate, CapacityProfile)

# Field values that are written as they are.
_PLAIN = (int, str, bool, type(None))

# (field, key) pairs per record type, built on first use.
_PLANS: dict[type, tuple[tuple[str, str], ...]] = {}


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Rationals


def parse_rational(text: str) -> Fraction:
    t = text.strip()
    if "." in t:
        raise ValidationError(
            f"decimal notation {text!r} is not exact; write 5/2 style rationals"
        )
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(
            f"cannot parse {text!r} as a rational; write an integer or p/q"
        ) from None


def rational_to_json(value) -> int | str:
    q = Fraction(value)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def rational_from_json(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValidationError(
        f"expected an integer or a 'p/q' string, got {value!r} "
        f"(floats are not exact and are rejected)"
    )


# ---------------------------------------------------------------------------
# Writing


def to_json(obj: Any) -> Any:
    """The JSON value of a result, a class, a surface, a rational or a tuple.

    A result record becomes an object with one key per field, named as in
    `_KEYS`; tuples become arrays.  Two records add to their fields: an
    enumeration gives its "count", and a sphere-class set lists its status
    labels only at the certified tier.
    """
    return _encode(obj)


def _encode(obj: Any) -> Any:
    # Recursion stays here, so a wrapper around the public names (a
    # profiler's, say) sees one call per document.  Class arrays and plain
    # fields are the bulk of large documents (a strata index holds ~10^5
    # labels), so neither costs a call per item.
    if isinstance(obj, LatticeClass):
        return list(obj.coords)
    if isinstance(obj, (tuple, list)):
        return [list(x.coords) if type(x) is LatticeClass else _encode(x) for x in obj]
    cls = type(obj)
    plan = _PLANS.get(cls)
    if plan is None:
        if obj is None or isinstance(obj, (str, int)):
            return obj
        if isinstance(obj, Fraction):
            return rational_to_json(obj)
        if isinstance(obj, SymplecticClass):
            return [rational_to_json(c) for c in obj.coords]
        if isinstance(obj, SurfaceModel):
            if obj.kind == PRODUCT:
                return {"kind": PRODUCT}
            return {"kind": BLOWUP, "k": obj.k}
        plan = _PLANS[cls] = tuple(
            (f.name, _KEYS.get(f.name, f.name))
            for f in fields(cls)
            if f.name != "surface" or cls in _DOCUMENTS
        )
    doc = {}
    for name, key in plan:
        value = getattr(obj, name)
        doc[key] = value if type(value) in _PLAIN else _encode(value)
    if cls in _DOCUMENTS:
        doc["schema"] = SCHEMA_VERSION
        if cls is EnumerationResult:
            doc["count"] = len(obj.classes)
        elif cls is SphereClassSet:
            if obj.certification == CERTIFIED_TIER:
                doc["status"] = [st for _, st in obj.status]
            else:
                del doc["status"]
    return doc


# The per-type writers of earlier releases, kept as names of `to_json`.
surface_to_json = class_to_json = symplectic_to_json = to_json
enumeration_to_json = sphere_set_to_json = verdict_to_json = to_json
walls_to_json = certificate_to_json = profile_to_json = to_json


def strata_to_json(
    surface: SurfaceModel, u: SymplecticClass, index: StratificationIndex
) -> dict:
    """The strata document; the index itself holds neither surface nor u."""
    doc = {"schema": SCHEMA_VERSION, "surface": to_json(surface), "u": to_json(u)}
    return {**doc, **to_json(index)}


# ---------------------------------------------------------------------------
# Reading


def surface_from_json(doc: Any) -> SurfaceModel:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError(f"not a surface document: {doc!r}")
    kind = doc["kind"]
    if kind == PRODUCT:
        return product()
    if kind == BLOWUP:
        k = doc.get("k")
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValidationError(f"blow-up surface needs an integer k, got {k!r}")
        return blow_up(k)
    raise ValidationError(f"unknown surface kind {kind!r}")


def class_from_json(surface: SurfaceModel, doc: Any) -> LatticeClass:
    if not isinstance(doc, list):
        raise ValidationError(f"not a class document: {doc!r}")
    vals = []
    for v in doc:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValidationError(
                f"homology class coordinates must be integers, got {v!r}"
            )
        vals.append(v)
    return lattice_class(surface, vals)


def symplectic_from_json(surface: SurfaceModel, doc: Any) -> SymplecticClass:
    if not isinstance(doc, list):
        raise ValidationError(f"not a symplectic class document: {doc!r}")
    return symplectic_class(surface, [rational_from_json(v) for v in doc])


def sphere_set_from_json(doc: Any) -> SphereClassSet:
    if not isinstance(doc, dict):
        raise ValidationError("not a sphere-class set document")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema version {doc.get('schema')!r}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    try:
        surface = surface_from_json(doc["surface"])
        u = symplectic_from_json(surface, doc["u"])
        floor = doc["floor"]
        classes = tuple(class_from_json(surface, c) for c in doc["classes"])
        certification = doc["certification"]
        full = doc["full"]
        complete = doc["complete"]
    except KeyError as exc:
        raise ValidationError(
            f"sphere-class set document is missing key {exc.args[0]!r}"
        ) from None
    if not isinstance(floor, int) or isinstance(floor, bool) or floor < 1:
        raise ValidationError(f"floor must be a positive integer, got {floor!r}")
    if certification not in (CANDIDATE_TIER, CERTIFIED_TIER):
        raise ValidationError(f"unknown certification tier {certification!r}")
    status: tuple[tuple[LatticeClass, str], ...] = ()
    if certification == CERTIFIED_TIER:
        labels = doc.get("status")
        if not isinstance(labels, list) or len(labels) != len(classes):
            raise ValidationError(
                "certified-tier document needs a status array parallel to classes"
            )
        status = tuple(zip(classes, labels))
    for key, flag in (("full", full), ("complete", complete)):
        if not isinstance(flag, bool):
            raise ValidationError(f"{key} must be true or false, got {flag!r}")
    _check_members(surface, u, floor, classes, status)
    return SphereClassSet(
        surface=surface,
        u=u,
        square_floor=floor,
        classes=classes,
        certification=certification,
        status=status,
        full=full,
        complete=complete,
    )


def _check_members(
    surface: SurfaceModel,
    u: SymplecticClass,
    floor: int,
    classes: tuple[LatticeClass, ...],
    status: tuple[tuple[LatticeClass, str], ...],
) -> None:
    """Reject members that `spherical_set` could not have produced."""
    key = _sort_key(surface)
    for i, a in enumerate(classes):
        if not is_sphere_candidate(surface, a):
            problem = "is not a sphere-class candidate"
        elif not -floor <= square(surface, a) <= -1:
            problem = f"has a square outside [-{floor}, -1]"
        elif pairing(surface, u, a) <= 0:
            problem = "does not pair positively with u"
        elif i and key(classes[i - 1]) >= key(a):
            problem = "is repeated or out of set order"
        elif status and status[i][1] != classify(surface, a):
            problem = f"is labelled {status[i][1]!r}, not {classify(surface, a)!r}"
        else:
            continue
        raise ValidationError(f"set member {render(surface, a)} {problem}")
