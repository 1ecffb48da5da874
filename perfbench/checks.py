"""Output checks, each against `oracle` or a property the method must have.

Every check takes plain data (tuples, Fractions, parsed JSON) and returns a
list of problems; an empty list means the output passed.  None of them
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

import oracle

SCHEMA = 1


def rational(value) -> Fraction:
    """A schema-1 rational: a JSON integer or a "p/q" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a schema-1 rational: {value!r}")
    return Fraction(value)


# ---------------------------------------------------------------------------
# Certificates (in-process `certify` and the `certify` subcommand)


def certificate_from_json(doc: dict) -> dict:
    """The fields `check_certificate` reads, from a schema-1 certificate."""
    k = doc["surface"]["k"]
    u = tuple(rational(c) for c in doc["u"])
    base = u
    if doc["perturbation"] is not None:
        base = tuple(rational(c) for c in doc["perturbation"]["replacement"])
    return {
        "k": k,
        "u": u,
        "v": tuple(rational(c) for c in doc["u_prime"]),
        "base": base,
        "walls": [
            (tuple(w["class"]), rational(w["t"]), w["direction"])
            for w in doc["walls"]
        ],
        "mode": doc["verdict"]["mode"],
        "level": doc["verdict"]["level"],
    }


def check_certificate(rec: dict) -> list[str]:
    """Verdict and walls against the oracle's sets at the certified depth.

    `base` is the left endpoint the walls were computed from: u itself, or
    its perturbed replacement, whose sphere-class set equals u's.
    """
    k, u, v, base = rec["k"], rec["u"], rec["v"], rec["base"]
    problems = []
    mode, level, only_u, only_v = oracle.verdict(k, u, v)
    if (rec["mode"], rec["level"]) != (mode, level):
        problems.append(
            f"verdict {rec['mode']}/{rec['level']}, oracle {mode}/{level}"
        )
    lost = {a for a, _, d in rec["walls"] if d == "lost"}
    gained = {a for a, _, d in rec["walls"] if d == "gained"}
    if lost != only_u or gained != only_v:
        problems.append("wall classes differ from the oracle's separating classes")
    for a, t, direction in rec["walls"]:
        pu, pv = oracle.pairing(u, a), oracle.pairing(v, a)
        if direction == "lost":
            ok = pu > 0 > pv
        elif direction == "gained":
            ok = pv > 0 > pu
        else:
            ok = False
        if not ok:
            problems.append(f"wall {a} ({direction}) pairs {pu} with u, {pv} with v")
            continue
        pb = oracle.pairing(base, a)
        if t != pb / (pb - pv):
            problems.append(f"wall {a}: t* = {t}, expected {pb / (pb - pv)}")
        if not 0 < t < 1:
            problems.append(f"wall {a}: t* = {t} outside (0, 1)")
    ts = [t for _, t, _ in rec["walls"]]
    if ts != sorted(ts):
        problems.append("walls are not sorted by t*")
    return problems


def check_scaling(rec: dict, scaled: dict) -> list[str]:
    """Scaling both endpoints by one factor keeps the verdict and the wall
    classes.  The t* may move when the left endpoint had to be perturbed,
    since the perturbation steps do not scale with it."""
    problems = []
    if (rec["mode"], rec["level"]) != (scaled["mode"], scaled["level"]):
        problems.append(
            f"verdict {rec['mode']}/{rec['level']} becomes "
            f"{scaled['mode']}/{scaled['level']} under scaling"
        )
    walls = {(a, d) for a, _, d in rec["walls"]}
    if walls != {(a, d) for a, _, d in scaled["walls"]}:
        problems.append("wall classes change under scaling")
    return problems


# ---------------------------------------------------------------------------
# Weyl reduction


def check_reduction(k: int, start, moved, reduced, word) -> list[str]:
    """`reduce(moved)` must give back `start`, by a word that replays."""
    problems = []
    if tuple(reduced) != tuple(start):
        problems.append(f"reduced to {reduced}, expected {start}")
    if oracle.apply_word(k, word, moved) != tuple(reduced):
        problems.append("replaying the returned word does not reach the result")
    if oracle.square(reduced) != oracle.square(moved):
        problems.append("square not preserved")
    if oracle.pairing(reduced, oracle.canonical(k)) != oracle.pairing(
        moved, oracle.canonical(k)
    ):
        problems.append("pairing with K not preserved")
    return problems


# ---------------------------------------------------------------------------
# Command-line documents


def parse_document(text: str) -> tuple[dict | None, list[str]]:
    """One schema-1 JSON object from a request's standard output."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return None, ["output is not a schema-1 document"]
    return doc, []


def set_members(doc: dict) -> set:
    return {tuple(a) for a in doc["classes"]}


def check_members(doc: dict, other=None) -> list[str]:
    """Each member of a sphere-class set document is a candidate of square in
    [-floor, -1] with u.A > 0, listed once; with `other`, also other.A <= 0."""
    k = doc["surface"]["k"]
    u = oracle.integral(tuple(rational(c) for c in doc["u"]))
    other = None if other is None else oracle.integral(other)
    floor = doc["floor"]
    problems = []
    members = [tuple(a) for a in doc["classes"]]
    for a in members:
        if oracle.adjunction_defect(k, a) != 0:
            problems.append(f"member {a} has nonzero adjunction defect")
        if not -floor <= oracle.square(a) <= -1:
            problems.append(f"member {a} has square {oracle.square(a)}")
        if oracle.pairing(u, a) <= 0:
            problems.append(f"member {a} does not pair positively with u")
        if other is not None and oracle.pairing(other, a) > 0:
            problems.append(f"member {a} also pairs positively with the other side")
    if len(set(members)) != len(members):
        problems.append("repeated members")
    if doc["certification"] == "cremona_certified":
        # On k <= 8 every candidate of square -1 is exceptional and every one
        # of square -2 is a root; deeper ones stay bare candidates.
        grade = {-1: "exceptional", -2: "root"}
        want = [grade.get(oracle.square(a), "candidate") for a in members]
        if doc.get("status") != want:
            problems.append("status labels differ from the grades of the squares")
    return problems


def check_sphere_set(doc: dict, depth: int) -> list[str]:
    """A `sets` document: valid members, and down to square -depth exactly
    the oracle's set."""
    k = doc["surface"]["k"]
    u = tuple(rational(c) for c in doc["u"])
    problems = check_members(doc)
    depth = min(depth, doc["floor"])
    got = {a for a in set_members(doc) if oracle.square(a) >= -depth}
    expect = oracle.sphere_set(k, u, depth)
    if got != expect:
        problems.append(
            f"members of square >= -{depth} differ from the oracle's: "
            f"{len(got - expect)} extra, {len(expect - got)} missing"
        )
    return problems


def check_diff(doc: dict) -> list[str]:
    """A `diff` document: each side is exactly the oracle's set difference."""
    side_u, side_v = doc["only_u"], doc["only_v"]
    k, depth = side_u["surface"]["k"], side_u["floor"]
    u = tuple(rational(c) for c in side_u["u"])
    v = tuple(rational(c) for c in side_v["u"])
    problems = check_members(side_u, v) + check_members(side_v, u)
    su, sv = oracle.sphere_set(k, u, depth), oracle.sphere_set(k, v, depth)
    if set_members(side_u) != su - sv or set_members(side_v) != sv - su:
        problems.append("separating classes differ from the oracle's")
    return problems


def check_equivariance(k: int, word, doc_u: dict, doc_gu: dict) -> list[str]:
    """set(g.u) = g.set(u) for the Weyl word g."""
    moved = {oracle.apply_word(k, word, a) for a in set_members(doc_u)}
    if moved != set_members(doc_gu) or doc_u["floor"] != doc_gu["floor"]:
        return ["the set of g.u is not the image of the set of u"]
    return []


def check_enumeration(doc: dict) -> list[str]:
    """All candidates of one square: the oracle's, closed under reflections."""
    k, s = doc["surface"]["k"], doc["square"]
    classes = set_members(doc)
    problems = []
    if doc["count"] != len(doc["classes"]) or len(classes) != len(doc["classes"]):
        problems.append("count disagrees with the class list")
    if classes != set(oracle.candidates(k, s)):
        problems.append("classes differ from the oracle's enumeration")
    for r in oracle.simple_roots(k):
        if any(oracle.reflect(a, r) not in classes for a in classes):
            problems.append(f"not closed under the reflection in {r}")
    return problems


def check_diff_stability(diff: dict, stability: dict) -> list[str]:
    """`square_diff` is the highest square among the separating classes, and
    the verdict is the one that square implies."""
    sep = set_members(diff["only_u"]) | set_members(diff["only_v"])
    top = max((oracle.square(a) for a in sep), default=None)
    verdict = stability["verdict"]
    if top is None:
        want = ("full", None)
    elif top == -1:
        want = ("none", None)
    else:
        want = ("level", -top - 1)
    problems = []
    if verdict["square_diff"] != top:
        problems.append(f"square_diff {verdict['square_diff']}, separating classes give {top}")
    if (verdict["mode"], verdict["level"]) != want:
        problems.append(f"verdict {verdict['mode']}/{verdict['level']}, expected {want}")
    return problems


def check_strata(doc: dict) -> list[str]:
    """Labels are pairwise nonnegative, with codim = sum 2(-A.A - 1) < level,
    and draw on candidates of square <= -2 with u.A > 0."""
    k, level = doc["surface"]["k"], doc["level"]
    u = oracle.integral(tuple(rational(c) for c in doc["u"]))
    problems = []
    labels = set()
    members = set()
    for st in doc["strata"]:
        label = tuple(tuple(a) for a in st["classes"])
        labels.add(label)
        members.update(label)
        codim = sum(2 * (-oracle.square(a) - 1) for a in label)
        if st["codim"] != codim or codim >= level:
            problems.append(f"label {label}: codim {st['codim']}, level {level}")
        for i, a in enumerate(label):
            for b in label[i + 1:]:
                if oracle.pairing(a, b) < 0:
                    problems.append(f"label {label} pairs {a} and {b} negatively")
    for a in members:
        if oracle.square(a) > -2 or oracle.adjunction_defect(k, a) or oracle.pairing(u, a) <= 0:
            problems.append(f"label member {a} is not in the u-set below square -1")
    if len(labels) != len(doc["strata"]) or () not in labels:
        problems.append("labels repeat, or the empty label is missing")
    return problems


def critical_values(k_base: int, u, weights) -> tuple[Fraction, list[Fraction]]:
    """c_max and the certified critical values of the ray u_0 - c D.

    u_0 is u with zero areas on the new classes, D carries the weights on
    them, so u_c has area c w_j on E_{k_base + j}.  On k <= 8 every candidate
    of square -1 is exceptional and every one of square -2 is a root, so the
    certified classes are the candidates of those two squares.
    """
    k = k_base + len(weights)
    u0 = tuple(u) + (0,) * len(weights)
    d = (0,) * (k_base + 1) + tuple(weights)
    sum_w = sum(weights)
    sum_w2 = sum(w * w for w in weights)
    bounds = [Fraction(-oracle.pairing(u0, oracle.canonical(k))) / sum_w]
    for a in oracle.candidates(k, 0):
        da, p0 = oracle.pairing(d, a), oracle.pairing(u0, a)
        if da > 0 and p0 > 0:
            bounds.append(p0 / da)
    vol = Fraction(oracle.square(u0)) / sum_w2
    p, q = vol.numerator, vol.denominator
    if isqrt(p) ** 2 == p and isqrt(q) ** 2 == q:
        bounds.append(Fraction(isqrt(p), isqrt(q)))
    c_max = min(bounds)
    values = set()
    for a in oracle.candidates(k, -1) + oracle.candidates(k, -2):
        da = oracle.pairing(d, a)
        if da == 0:
            continue
        p0 = oracle.pairing(u0, a)
        if p0 * (p0 - c_max * da) < 0:
            values.add(p0 / da)
    return c_max, sorted(values)


def check_capacities(doc: dict, k_base: int, u, weights) -> list[str]:
    c_max, values = critical_values(k_base, u, weights)
    problems = []
    if rational(doc["c_max"]) != c_max:
        problems.append(f"c_max {doc['c_max']}, recomputed {c_max}")
    if [rational(c) for c in doc["critical_values"]] != values:
        problems.append("critical values differ from the recomputation")
    return problems


def check_blowup_class(doc: dict, u, caps) -> list[str]:
    """The class with the capacities as new areas, every exceptional area positive."""
    k = len(u) - 1 + len(caps)
    want = oracle.flip_areas(oracle.flip_areas(u) + tuple(caps))
    got = tuple(rational(c) for c in doc["class"])
    problems = []
    if doc["target"]["k"] != k or got != want:
        problems.append(f"blow-up class {got} on k={doc['target']['k']}, expected {want}")
    if not oracle.is_forward(k, got) or any(
        oracle.pairing(got, a) <= 0 for a in oracle.candidates(k, -1)
    ):
        problems.append("blow-up class is not forward or has an exceptional area <= 0")
    return problems
