"""Command-line front end.

Eight subcommands: surface, enumerate, sets, diff, strata, stability,
certify, capacities.  Inputs are exact rationals ("5/2"; decimals are
rejected), symplectic classes are given by their area vectors, and output is
either a human-readable report or byte-deterministic JSON (--format json,
default from the WALLCROSS_FORMAT environment variable).  A JSON config file
(--config) supplies default flag values; explicit flags win over the config,
which wins over built-in defaults.

Exit codes: 0 success, 2 invalid input (bad rationals, non-forward classes,
degenerate segments, missing bounds), 3 internal consistency failure, which
means a certificate check caught a bug and the output must not be trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import serialize as ser
from .errors import ConsistencyError, ValidationError
from .lattice import (
    PRODUCT,
    SurfaceModel,
    SymplecticClass,
    areas,
    blow_up,
    from_areas,
    product,
    render,
    render_areas,
    square,
)
from .packing import BallConfig, blowup_class, critical_capacities
from .spheres import (
    CANDIDATE_TIER,
    CERTIFIED_TIER,
    EnumerationBounds,
    enumerate_candidates,
    spherical_set,
    set_difference,
    symmetric_difference,
)
from .stability import (
    MODE_FULL,
    MODE_LEVEL,
    certify,
    max_stable_level,
)
from .strata import compare_levels, enumerate_admissible

ENV_FORMAT = "WALLCROSS_FORMAT"
FORMAT_TEXT = "text"
FORMAT_JSON = "json"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSISTENCY = 3


# ---------------------------------------------------------------------------
# Input parsing


def _parse_surface(spec: str) -> SurfaceModel:
    s = spec.strip().lower()
    if s == PRODUCT:
        return product()
    if s.startswith("blowup"):
        _, sep, num = s.partition(":")
        if not sep:
            raise ValidationError(
                f"surface {spec!r} needs a blow-up count; write blowup:3"
            )
        try:
            k = int(num)
        except ValueError:
            raise ValidationError(
                f"blow-up count {num!r} is not an integer"
            ) from None
        return blow_up(k)
    raise ValidationError(
        f"unknown surface {spec!r}; use product or blowup:k"
    )


def _parse_rationals(text: str) -> list[Fraction]:
    items = [p.strip() for p in text.split(",")]
    items = [p for p in items if p]
    if not items:
        raise ValidationError("empty rational vector")
    return [ser.parse_rational(p) for p in items]


def _parse_area_class(surface: SurfaceModel, text: str) -> SymplecticClass:
    return from_areas(surface, _parse_rationals(text))


def _bounds_from(ns: argparse.Namespace) -> Optional[EnumerationBounds]:
    square_min = getattr(ns, "square_min", None)
    box = getattr(ns, "box", None)
    if square_min is None and box is None:
        return None
    return EnumerationBounds(square_min=square_min, coefficient_box=box)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} must contain a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns the text report lines when `text` is set,
# else the JSON document, and builds only that one


def _cmd_surface(ns: argparse.Namespace, text: bool):
    surface = _parse_surface(ns.surface)
    k_class = surface.canonical
    if text:
        return [
            surface.describe(),
            f"rank {surface.rank}, Euler characteristic "
            f"{surface.euler_characteristic}",
            "basis: " + ", ".join(render(surface, b) for b in surface.basis()),
            f"canonical class {render(surface, k_class)} of square "
            f"{surface.canonical_square}",
        ]
    return {
        "schema": ser.SCHEMA_VERSION,
        "surface": ser.surface_to_json(surface),
        "description": surface.describe(),
        "rank": surface.rank,
        "euler_characteristic": surface.euler_characteristic,
        "basis": [ser.class_to_json(b) for b in surface.basis()],
        "canonical": ser.class_to_json(k_class),
        "canonical_square": surface.canonical_square,
    }


def _cmd_enumerate(ns: argparse.Namespace, text: bool):
    surface = _parse_surface(ns.surface)
    result = enumerate_candidates(surface, ns.square, _bounds_from(ns))
    if not text:
        return ser.enumeration_to_json(result)
    suffix = "" if result.complete else " (truncated by the coefficient box)"
    lines = [
        f"{len(result.classes)} classes of square {ns.square} on "
        f"{surface.describe()}{suffix}"
    ]
    lines.extend(f"  {render(surface, a)}" for a in result.classes)
    return lines


def _set_report(s, heading: str) -> list[str]:
    surface = s.surface
    scope = "certified full" if s.full else "truncated"
    if not s.complete:
        scope += ", box-limited"
    lines = [heading, f"floor: squares >= -{s.square_floor} ({scope})"]
    status = dict(s.status)
    for sq, classes in s.by_square().items():
        names = []
        for a in classes:
            label = render(surface, a)
            if status:
                label += f" [{status[a]}]"
            names.append(label)
        lines.append(f"square {sq}: " + ", ".join(names))
    if not s.classes:
        lines.append("(empty set)")
    return lines


def _cmd_sets(ns: argparse.Namespace, text: bool):
    surface = _parse_surface(ns.surface)
    u = _parse_area_class(surface, ns.u)
    s = spherical_set(
        surface, u, ns.floor, _bounds_from(ns), certification=ns.tier
    )
    if not text:
        return ser.sphere_set_to_json(s)
    heading = (
        f"sphere-class set for u = {render_areas(surface, u)} on "
        f"{surface.describe()}"
    )
    return _set_report(s, heading)


def _cmd_diff(ns: argparse.Namespace, text: bool):
    file_mode = ns.sets_a is not None or ns.sets_b is not None
    if file_mode:
        if ns.sets_a is None or ns.sets_b is None:
            raise ValidationError("--sets-a and --sets-b must be given together")
        if ns.u is not None or ns.v is not None:
            raise ValidationError(
                "give either --sets-a/--sets-b or --u/--v, not both"
            )
        sa = ser.sphere_set_from_json(_load_json_file(ns.sets_a))
        sb = ser.sphere_set_from_json(_load_json_file(ns.sets_b))
        only_a, only_b = set_difference(sa, sb)
    else:
        if ns.surface is None or ns.u is None or ns.v is None:
            raise ValidationError(
                "diff needs --surface, --u and --v (or two set files)"
            )
        surface = _parse_surface(ns.surface)
        u = _parse_area_class(surface, ns.u)
        v = _parse_area_class(surface, ns.v)
        only_a, only_b = symmetric_difference(
            surface, u, v, ns.floor, _bounds_from(ns), certification=ns.tier
        )
    if not text:
        return {
            "schema": ser.SCHEMA_VERSION,
            "only_u": ser.sphere_set_to_json(only_a),
            "only_v": ser.sphere_set_to_json(only_b),
        }
    surface = only_a.surface
    lines = [
        f"separating classes at floor -{only_a.square_floor} on "
        f"{surface.describe()}"
    ]
    for side, part in (("u", only_a), ("v", only_b)):
        names = ", ".join(render(surface, a) for a in part.classes) or "(none)"
        lines.append(f"only on the {side} side: {names}")
    if not only_a.classes and not only_b.classes:
        lines.append("the sphere-class sets agree at this floor")
    return lines


def _cmd_strata(ns: argparse.Namespace, text: bool):
    surface = _parse_surface(ns.surface)
    u = _parse_area_class(surface, ns.u)
    bounds = _bounds_from(ns)
    if ns.v is not None:
        v = _parse_area_class(surface, ns.v)
        equal = compare_levels(surface, u, v, ns.level, bounds)
        if not text:
            return {
                "schema": ser.SCHEMA_VERSION,
                "surface": ser.surface_to_json(surface),
                "u": ser.symplectic_to_json(u),
                "v": ser.symplectic_to_json(v),
                "level": ns.level,
                "equal": equal,
            }
        word = "identical" if equal else "different"
        return [
            f"stratification indexes at level {ns.level} are {word} for "
            f"u = {render_areas(surface, u)} and v = {render_areas(surface, v)}"
        ]
    index = enumerate_admissible(surface, u, ns.level, bounds)
    if not text:
        return ser.strata_to_json(surface, u, index)
    lines = [
        f"stratification at level {index.level} for "
        f"u = {render_areas(surface, u)} on {surface.describe()}"
    ]
    for stratum in index.strata:
        label = (
            ", ".join(render(surface, a) for a in stratum.classes)
            or "(empty label)"
        )
        lines.append(f"codim {stratum.codim}: {label}")
    lines.append(
        f"residual stratum: codimension >= {index.residual_codim}"
    )
    return lines


def _verdict_lines(surface: SurfaceModel, verdict) -> list[str]:
    if verdict.mode == MODE_FULL:
        lines = ["verdict: Full (one chamber, all degrees transfer)"]
    elif verdict.mode == MODE_LEVEL:
        lines = [f"verdict: Level({verdict.level})"]
        if verdict.iso_range:
            a, b = verdict.iso_range
            lines.append(
                f"isomorphic homotopy groups of the symplectomorphism groups "
                f"in degrees {a}..{b}"
            )
        else:
            lines.append("no positive degree is certified at this level")
    else:
        lines = ["verdict: None (the sets differ already at square -1)"]
    lines.append(f"certification: {verdict.certification_tier}")
    lines.extend(f"note: {j}" for j in verdict.justification)
    return lines


def _cmd_stability(ns: argparse.Namespace, text: bool):
    surface = _parse_surface(ns.surface)
    u = _parse_area_class(surface, ns.u)
    v = _parse_area_class(surface, ns.v)
    verdict = max_stable_level(surface, u, v, _bounds_from(ns), ns.floor)
    if not text:
        return {
            "schema": ser.SCHEMA_VERSION,
            "surface": ser.surface_to_json(surface),
            "u": ser.symplectic_to_json(u),
            "u_prime": ser.symplectic_to_json(v),
            "verdict": ser.verdict_to_json(verdict),
        }
    lines = [
        f"stability of {render_areas(surface, u)} against "
        f"{render_areas(surface, v)} on {surface.describe()}"
    ]
    lines.extend(_verdict_lines(surface, verdict))
    return lines


def _cmd_certify(ns: argparse.Namespace, text: bool):
    surface = _parse_surface(ns.surface)
    u = _parse_area_class(surface, ns.u)
    v = _parse_area_class(surface, ns.v)
    cert = certify(surface, u, v, _bounds_from(ns), ns.floor)
    if not text:
        return ser.certificate_to_json(cert)
    lines = [
        f"wall-crossing certificate for {render_areas(surface, u)} -> "
        f"{render_areas(surface, v)} on {surface.describe()}"
    ]
    if cert.perturbation is not None:
        p = cert.perturbation
        lines.append(
            f"perturbed left endpoint to {render_areas(surface, p.replacement)} "
            f"(epsilon {p.epsilon} along {render(surface, p.direction)}; "
            f"sphere-class set preserved to depth {p.witness_depth})"
        )
    lines.append(
        f"walls crossed: {len(cert.walls)} (generic segment, "
        f"{len(cert.samples)} sample points)"
    )
    if ns.emit_walls:
        for w in cert.walls:
            lines.append(
                f"  t* = {w.t_star}: {w.direction} {render(surface, w.wall_class)} "
                f"(square {square(surface, w.wall_class)})"
            )
    lines.append(
        "chain: " + (", ".join(link.relation for link in cert.chain) or "(single chamber)")
    )
    lines.extend(_verdict_lines(surface, cert.verdict))
    return lines


def _cmd_capacities(ns: argparse.Namespace, text: bool):
    surface = _parse_surface(ns.surface)
    u = _parse_area_class(surface, ns.u)
    bounds = _bounds_from(ns)
    if ns.capacities is not None and ns.weights is not None:
        raise ValidationError(
            "give fixed --capacities or ray --weights, not both"
        )
    if ns.capacities is not None:
        caps = _parse_rationals(ns.capacities)
        if ns.balls is not None and ns.balls != len(caps):
            raise ValidationError(
                f"--balls {ns.balls} disagrees with {len(caps)} capacities"
            )
        target, u_c = blowup_class(surface, u, BallConfig(tuple(caps)), bounds)
        if not text:
            return {
                "schema": ser.SCHEMA_VERSION,
                "base": ser.surface_to_json(surface),
                "target": ser.surface_to_json(target),
                "u": ser.symplectic_to_json(u),
                "capacities": [ser.rational_to_json(c) for c in caps],
                "class": ser.symplectic_to_json(u_c),
                "areas": [ser.rational_to_json(a) for a in areas(target, u_c)],
            }
        return [
            f"blow-up class for {len(caps)} balls on {surface.describe()}",
            f"target surface: {target.describe()}",
            f"class areas: {render_areas(target, u_c)}",
            "forward, with every certified exceptional area positive",
        ]
    if ns.weights is not None:
        weights = _parse_rationals(ns.weights)
        if ns.balls is not None and ns.balls != len(weights):
            raise ValidationError(
                f"--balls {ns.balls} disagrees with {len(weights)} weights"
            )
    elif ns.balls is not None:
        weights = [Fraction(1)] * ns.balls
    else:
        raise ValidationError(
            "capacities needs --weights (or --balls for equal weights), "
            "or fixed --capacities"
        )
    profile = critical_capacities(
        surface, u, BallConfig(tuple(weights), ray_mode=True), bounds
    )
    if not text:
        return ser.profile_to_json(profile)
    target = profile.target
    weight_text = ", ".join(str(w) for w in profile.weights)
    lines = [
        f"capacity profile for {len(weights)} balls (weights {weight_text}) "
        f"on {surface.describe()}",
        f"target surface: {target.describe()}",
        f"c_max = {profile.c_max} ({profile.c_max_source})",
    ]
    if profile.critical_values:
        lines.append(
            "critical values: "
            + ", ".join(str(c) for c in profile.critical_values)
        )
        if ns.emit_walls:
            for wall in profile.walls:
                names = ", ".join(render(target, a) for a in wall.classes)
                lines.append(f"  c = {wall.value}: {names}")
    else:
        lines.append("no interior critical values")
    if profile.flagged:
        lines.append(
            f"flagged uncertified sign changes: {len(profile.flagged)}"
        )
        if ns.emit_walls:
            for f in profile.flagged:
                lines.append(
                    f"  c = {f.value}: {render(target, f.wall_class)} "
                    f"(square {square(target, f.wall_class)}, candidate only)"
                )
    for iv in profile.intervals:
        fwd = "forward" if iv.forward else "not forward"
        lines.append(
            f"interval ({iv.lower}, {iv.upper}): {fwd}, {iv.certification}"
        )
    lines.extend(f"note: {n}" for n in profile.notes)
    return lines


_HANDLERS = {
    "surface": _cmd_surface,
    "enumerate": _cmd_enumerate,
    "sets": _cmd_sets,
    "diff": _cmd_diff,
    "strata": _cmd_strata,
    "stability": _cmd_stability,
    "certify": _cmd_certify,
    "capacities": _cmd_capacities,
}


# ---------------------------------------------------------------------------
# Parser construction and config layering


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=(FORMAT_TEXT, FORMAT_JSON),
        default=None,
        help="output format (default: WALLCROSS_FORMAT env var, then text)",
    )
    common.add_argument(
        "--config",
        metavar="FILE",
        default=None,
        help="JSON object of default flag values; explicit flags win",
    )

    bounds_p = argparse.ArgumentParser(add_help=False)
    bounds_p.add_argument(
        "--square-min",
        type=int,
        default=None,
        help="most negative square to search (<= -1); truncates depth",
    )
    bounds_p.add_argument(
        "--box",
        type=int,
        default=None,
        help="coefficient box |c| <= N (mandatory on blowup:9)",
    )

    tier_p = argparse.ArgumentParser(add_help=False)
    tier_p.add_argument(
        "--tier",
        choices=(CANDIDATE_TIER, CERTIFIED_TIER),
        default=CANDIDATE_TIER,
        help="candidate: adjunction only; cremona_certified: grade each class",
    )

    parser = argparse.ArgumentParser(
        prog="wallcross",
        description=(
            "Exact wall-crossing combinatorics for sphere classes on "
            "rational surfaces: sets, strata, stability verdicts, ball "
            "packing profiles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    submap = {}

    def surface_arg(p, required=True):
        p.add_argument(
            "--surface",
            required=required,
            default=None,
            help="product or blowup:k (0 <= k <= 9)",
        )

    p = sub.add_parser(
        "surface", parents=[common], help="describe a surface model"
    )
    surface_arg(p)
    submap["surface"] = p

    p = sub.add_parser(
        "enumerate",
        parents=[common, bounds_p],
        help="all sphere-class candidates of one negative square",
    )
    surface_arg(p)
    p.add_argument("--square", type=int, required=True, help="square (< 0)")
    submap["enumerate"] = p

    p = sub.add_parser(
        "sets",
        parents=[common, bounds_p, tier_p],
        help="area-positive sphere-class set of a forward class",
    )
    surface_arg(p)
    p.add_argument("--u", required=True, help="area vector, e.g. 5/2,1")
    p.add_argument(
        "--floor", type=int, default=None,
        help="depth n (squares >= -n); default: certified full depth",
    )
    submap["sets"] = p

    p = sub.add_parser(
        "diff",
        parents=[common, bounds_p, tier_p],
        help="separating classes between two forward classes or two set files",
    )
    surface_arg(p, required=False)
    p.add_argument("--u", default=None, help="left area vector")
    p.add_argument("--v", default=None, help="right area vector")
    p.add_argument("--floor", type=int, default=None, help="common depth n")
    p.add_argument("--sets-a", default=None, metavar="FILE",
                   help="JSON sphere-class set (output of `sets`)")
    p.add_argument("--sets-b", default=None, metavar="FILE",
                   help="JSON sphere-class set (output of `sets`)")
    submap["diff"] = p

    p = sub.add_parser(
        "strata",
        parents=[common, bounds_p],
        help="admissible stratification labels below a codimension level",
    )
    surface_arg(p)
    p.add_argument("--u", required=True, help="area vector")
    p.add_argument("--v", default=None,
                   help="second area vector: compare indexes instead")
    p.add_argument("--level", type=int, required=True,
                   help="even codimension level 2n >= 2")
    submap["strata"] = p

    p = sub.add_parser(
        "stability",
        parents=[common, bounds_p],
        help="stability verdict for a pair of forward classes",
    )
    surface_arg(p)
    p.add_argument("--u", required=True, help="left area vector")
    p.add_argument("--v", required=True, help="right area vector")
    p.add_argument("--floor", type=int, default=None, help="depth override")
    submap["stability"] = p

    p = sub.add_parser(
        "certify",
        parents=[common, bounds_p],
        help="verified chamber-by-chamber wall-crossing certificate",
    )
    surface_arg(p)
    p.add_argument("--u", required=True, help="left area vector")
    p.add_argument("--v", required=True, help="right area vector")
    p.add_argument("--floor", type=int, default=None, help="depth override")
    p.add_argument("--emit-walls", action="store_true",
                   help="list each wall crossing in the text report")
    submap["certify"] = p

    p = sub.add_parser(
        "capacities",
        parents=[common, bounds_p],
        help="ball-packing blow-up classes and critical capacity profiles",
    )
    surface_arg(p)
    p.add_argument("--u", required=True, help="area vector of the base class")
    p.add_argument("--balls", type=int, default=None,
                   help="number of balls (equal weights unless --weights)")
    p.add_argument("--weights", default=None,
                   help="ray weights w1,w2,... for the capacity profile")
    p.add_argument("--capacities", default=None,
                   help="fixed capacities c1,c2,...: report the blow-up class")
    p.add_argument("--emit-walls", action="store_true",
                   help="list wall classes per critical value")
    submap["capacities"] = p

    return parser, submap


def _load_config(argv: Sequence[str]) -> dict:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    ns, _ = pre.parse_known_args(argv)
    if ns.config is None:
        return {}
    doc = _load_json_file(ns.config)
    out = {}
    for key, value in doc.items():
        name = str(key).replace("-", "_")
        if name in ("command", "config") or not name.isidentifier():
            continue
        out[name] = value
    return out


def _apply_config(config: dict, parser, submap) -> None:
    if not config:
        return
    parser.set_defaults(**config)
    for p in submap.values():
        p.set_defaults(**config)


def _resolve_format(ns: argparse.Namespace) -> str:
    fmt = getattr(ns, "format", None)
    if fmt is None:
        fmt = os.environ.get(ENV_FORMAT) or FORMAT_TEXT
    if fmt not in (FORMAT_TEXT, FORMAT_JSON):
        raise ValidationError(
            f"unknown output format {fmt!r}; use {FORMAT_TEXT} or {FORMAT_JSON}"
        )
    return fmt


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(args)
        parser, submap = _build_parser()
        _apply_config(config, parser, submap)
        try:
            ns = parser.parse_args(args)
        except SystemExit as exc:
            return int(exc.code or 0)
        fmt = _resolve_format(ns)
        text = fmt == FORMAT_TEXT
        out = _HANDLERS[ns.command](ns, text)
        print("\n".join(out) if text else ser.dumps(out))
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
