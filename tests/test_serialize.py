import json
import re
from fractions import Fraction

import pytest

import wallcross as wc
from wallcross import ValidationError
from wallcross.serialize import (
    class_from_json,
    class_to_json,
    dumps,
    enumeration_to_json,
    parse_rational,
    profile_to_json,
    rational_from_json,
    rational_to_json,
    sphere_set_from_json,
    sphere_set_to_json,
    strata_to_json,
    surface_from_json,
    surface_to_json,
    symplectic_from_json,
    symplectic_to_json,
    verdict_to_json,
)

P = wc.product()


def test_rational_round_trip():
    assert rational_to_json(Fraction(5, 2)) == "5/2"
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_to_json(Fraction(-1, 3)) == "-1/3"
    for doc in (7, "5/2", "-9/4", 0):
        assert rational_to_json(rational_from_json(doc)) == doc


def test_rational_from_json_rejects_floats_and_bools():
    with pytest.raises(ValidationError):
        rational_from_json(2.5)
    with pytest.raises(ValidationError):
        rational_from_json(True)
    with pytest.raises(ValidationError):
        rational_from_json(None)


def test_parse_rational():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("-3") == Fraction(-3)
    with pytest.raises(ValidationError) as exc:
        parse_rational("2.5")
    assert "write 5/2" in str(exc.value)
    with pytest.raises(ValidationError):
        parse_rational("x")


def test_surface_round_trip():
    for s in (P, wc.blow_up(0), wc.blow_up(5)):
        assert surface_from_json(surface_to_json(s)) == s
    assert surface_to_json(P) == {"kind": "product"}
    assert surface_to_json(wc.blow_up(3)) == {"kind": "blowup", "k": 3}
    with pytest.raises(ValidationError):
        surface_from_json({"kind": "k3"})
    with pytest.raises(ValidationError):
        surface_from_json({"kind": "blowup"})
    with pytest.raises(ValidationError):
        surface_from_json(["product"])


def test_class_round_trip():
    a = wc.LatticeClass((1, -2, 0))
    s = wc.blow_up(2)
    assert class_to_json(a) == [1, -2, 0]
    assert class_from_json(s, [1, -2, 0]) == a
    with pytest.raises(ValidationError):
        class_from_json(s, [1, -2])  # rank mismatch
    with pytest.raises(ValidationError):
        class_from_json(s, [1.0, -2, 0])
    with pytest.raises(ValidationError):
        class_from_json(s, "H-2E_1")


def test_symplectic_round_trip():
    u = wc.from_areas(P, (Fraction(5, 2), 1))
    doc = symplectic_to_json(u)
    assert doc == [1, "5/2"]
    assert symplectic_from_json(P, doc) == u


def test_enumeration_doc_shape():
    doc = enumeration_to_json(wc.enumerate_candidates(wc.blow_up(2), -1))
    assert doc == {
        "schema": 1,
        "surface": {"kind": "blowup", "k": 2},
        "square": -1,
        "classes": [[0, 0, 1], [0, 1, 0], [1, -1, -1]],
        "count": 3,
        "complete": True,
    }


def test_sphere_set_round_trip():
    s = wc.blow_up(1)
    u = wc.from_areas(s, (1, Fraction(3, 4)))
    for tier in (wc.CANDIDATE_TIER, wc.CERTIFIED_TIER):
        ss = wc.spherical_set(s, u, certification=tier)
        doc = sphere_set_to_json(ss)
        assert doc["schema"] == 1
        assert doc["full"] is True
        back = sphere_set_from_json(doc)
        assert back == ss
        assert json.loads(dumps(doc)) == doc


def test_sphere_set_doc_validation():
    s = wc.blow_up(1)
    u = wc.from_areas(s, (1, Fraction(3, 4)))
    doc = sphere_set_to_json(wc.spherical_set(s, u))

    bad_schema = dict(doc, schema=2)
    with pytest.raises(ValidationError):
        sphere_set_from_json(bad_schema)

    missing = dict(doc)
    del missing["floor"]
    with pytest.raises(ValidationError):
        sphere_set_from_json(missing)

    bad_tier = dict(doc, certification="verified")
    with pytest.raises(ValidationError):
        sphere_set_from_json(bad_tier)

    graded = sphere_set_to_json(
        wc.spherical_set(s, u, certification=wc.CERTIFIED_TIER)
    )
    short_status = dict(graded, status=graded["status"][:-1])
    with pytest.raises(ValidationError):
        sphere_set_from_json(short_status)


def test_strata_doc():
    u = wc.from_areas(P, (Fraction(5, 2), 1))
    doc = strata_to_json(P, u, wc.enumerate_admissible(P, u, 4))
    assert doc["level"] == 4
    assert doc["residual_codim"] == 4
    assert doc["strata"] == [
        {"classes": [], "codim": 0},
        {"classes": [[1, -1]], "codim": 2},
    ]


def test_verdict_doc():
    u = wc.from_areas(P, (Fraction(5, 2), 1))
    v = wc.from_areas(P, (Fraction(7, 2), 1))
    doc = verdict_to_json(wc.max_stable_level(P, u, v))
    assert doc["mode"] == "level"
    assert doc["level"] == 5
    assert doc["iso_range"] == [1, 7]
    assert doc["pi0_equal"] is False
    assert doc["square_diff"] == -6
    assert doc["certification"] == "candidate"
    assert isinstance(doc["justification"], list)


def test_profile_doc():
    u = wc.from_areas(P, (1, 1))
    prof = wc.critical_capacities(
        P, u, wc.BallConfig((Fraction(1),), ray_mode=True)
    )
    doc = profile_to_json(prof)
    assert doc["schema"] == 1
    assert doc["c_max"] == 4
    assert doc["critical_values"] == [1]
    assert doc["walls"] == [{"value": 1, "classes": [[0, 0, 1], [0, 1, 0]]}]
    assert doc["intervals"][0] == {
        "lower": 0,
        "upper": 1,
        "forward": True,
        "certification": "cremona_certified",
    }
    assert doc["flagged"] == [
        {"class": [0, -2, 0], "value": 1},
        {"class": [0, 0, -2], "value": 1},
    ]


def test_dumps_is_deterministic_and_compact():
    doc = {"b": Fraction(1, 2) and "1/2", "a": [1, 2], "c": {"y": 1, "x": 2}}
    out = dumps(doc)
    assert out == '{"a":[1,2],"b":"1/2","c":{"x":2,"y":1}}'
    assert dumps(json.loads(out)) == out


def _certified_set_doc():
    s = wc.blow_up(3)
    u = wc.from_areas(s, (10, 4, 3, 2))
    return sphere_set_to_json(
        wc.spherical_set(s, u, 3, certification=wc.CERTIFIED_TIER)
    )


@pytest.mark.parametrize("key", ["full", "complete"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_sphere_set_flags_must_be_json_booleans(key, value):
    doc = dict(_certified_set_doc(), **{key: value})
    with pytest.raises(ValidationError, match=f"{key} must be true or false"):
        sphere_set_from_json(doc)


def _with_member(doc, coords, label="candidate"):
    return dict(
        doc, classes=doc["classes"] + [coords], status=doc["status"] + [label]
    )


def _reversed(doc):
    return dict(doc, classes=doc["classes"][::-1], status=doc["status"][::-1])


@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param(
            lambda d: _with_member(d, [0, 0, 0, 0]),
            "not a sphere-class candidate",
            id="zero",
        ),
        # 2E_1 has square -4 and adjunction defect -4
        pytest.param(
            lambda d: _with_member(d, [0, 2, 0, 0]),
            "not a sphere-class candidate",
            id="adjunction",
        ),
        # H-E_1 has square 0; at floor 1 the roots lie below the floor
        pytest.param(
            lambda d: _with_member(d, [1, -1, 0, 0]),
            "square outside [-3, -1]",
            id="square-zero",
        ),
        pytest.param(
            lambda d: dict(d, floor=1), "square outside [-1, -1]", id="below-floor"
        ),
        # E_2-E_1 is a root on which u = (10, 4, 3, 2) has area -1
        pytest.param(
            lambda d: _with_member(d, [0, -1, 1, 0], "root"),
            "does not pair positively",
            id="negative-area",
        ),
        pytest.param(_reversed, "repeated or out of set order", id="order"),
        pytest.param(
            lambda d: _with_member(d, d["classes"][-1], "root"),
            "repeated or out of set order",
            id="repeated",
        ),
        pytest.param(
            lambda d: dict(d, status=["root"] + d["status"][1:]),
            "is labelled 'root', not 'exceptional'",
            id="status",
        ),
    ],
)
def test_sphere_set_rejects_impossible_members(tamper, message):
    doc = _certified_set_doc()
    sphere_set_from_json(doc)
    with pytest.raises(ValidationError, match=re.escape(message)):
        sphere_set_from_json(tamper(doc))
    # the same members without status labels, at the candidate tier
    if "labelled" not in message:
        bare = dict(tamper(doc), certification=wc.CANDIDATE_TIER)
        del bare["status"]
        with pytest.raises(ValidationError, match=re.escape(message)):
            sphere_set_from_json(bare)


def test_sphere_set_full_flag_needs_the_certified_depth():
    s = wc.blow_up(3)
    u = wc.from_areas(s, (10, 4, 3, 2))
    assert wc.full_search_depth(s, u) == 2
    cut = sphere_set_to_json(wc.spherical_set(s, u, 1))
    assert cut["full"] is False
    sphere_set_from_json(cut)
    with pytest.raises(
        ValidationError, match="floor 1 is below the certified depth 2"
    ):
        sphere_set_from_json(dict(cut, full=True))
    deep = sphere_set_to_json(wc.spherical_set(s, u, 2))
    assert sphere_set_from_json(deep).full is True


def test_sphere_set_is_never_full_on_the_nine_fold_blowup():
    s = wc.blow_up(9)
    u = wc.from_areas(s, (10, 3, 3, 2, 1, 1, 1, 1, 1, 1))
    bounds = wc.EnumerationBounds(coefficient_box=2)
    doc = sphere_set_to_json(wc.spherical_set(s, u, 2, bounds))
    assert doc["full"] is False
    sphere_set_from_json(doc)
    with pytest.raises(ValidationError, match="9-fold blow-up"):
        sphere_set_from_json(dict(doc, full=True))
