"""The benchmark's output checks pass on real output and fail on corrupted output.

No timing: every case runs the program in-process on small inputs.

    python -m pytest perfbench/tests -q
"""

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

import checks
import inputs
import oracle
import wallcross as wc
from wallcross import serialize as ser


def certificate_record(k, u, v):
    cert = wc.certify(wc.blow_up(k), wc.SymplecticClass(u), wc.SymplecticClass(v))
    return checks.certificate_from_json(ser.certificate_to_json(cert))


@pytest.fixture(scope="module")
def records():
    makeup = {(3, 4, False): 15, (5, 5, False): 15, (5, 0, True): 1}
    return [certificate_record(k, u, v) for k, u, v in inputs.certify_pairs(7, makeup, draws=0)]


def test_certificate_check_passes_on_program_output(records):
    assert any(rec["base"] != rec["u"] for rec in records)  # a perturbed one
    for rec in records:
        assert checks.check_certificate(rec) == []


def test_certificate_check_catches_shifted_t_star(records):
    rec = copy.deepcopy(next(r for r in records if r["walls"]))
    a, t, direction = rec["walls"][0]
    rec["walls"][0] = (a, t + Fraction(1, 1000), direction)
    assert checks.check_certificate(rec)


def test_certificate_check_catches_level_off_by_one(records):
    rec = copy.deepcopy(next(r for r in records if r["mode"] == "level"))
    rec["level"] += 1
    assert checks.check_certificate(rec)


def test_certificate_check_catches_dropped_wall(records):
    rec = copy.deepcopy(next(r for r in records if r["walls"]))
    rec["walls"].pop()
    assert checks.check_certificate(rec)


def test_scaling_check_catches_changed_verdict(records):
    rec = next(r for r in records if r["mode"] == "level")
    assert checks.check_scaling(rec, copy.deepcopy(rec)) == []
    changed = dict(rec, level=rec["level"] + 1)
    assert checks.check_scaling(rec, changed)


def test_reduction_check_catches_wrong_class_and_word():
    for k, start, _word, moved in inputs.weyl_cases(3, 30):
        reduced, word = wc.reduce(wc.blow_up(k), wc.SymplecticClass(moved))
        word = [(m.kind, m.indices) for m in word]
        assert checks.check_reduction(k, start, moved, reduced.coords, word) == []
        wrong = (reduced.coords[0] + 1,) + reduced.coords[1:]
        assert checks.check_reduction(k, start, moved, wrong, word)
        if word:
            assert checks.check_reduction(k, start, moved, reduced.coords, word[:-1])


def test_weyl_cases_have_one_make_up_on_every_seed():
    def make_up(seed):
        return Counter((k, len(word)) for k, _, word, _ in inputs.weyl_cases(seed, 60))

    every_cell_twice = Counter({(k, n): 2 for k in range(3, 9) for n in range(1, 6)})
    assert make_up(1) == make_up(2) == every_cell_twice


def sets_doc(k, u, tier=wc.CANDIDATE_TIER):
    s = wc.spherical_set(wc.blow_up(k), wc.SymplecticClass(u), certification=tier)
    return ser.sphere_set_to_json(s)


def test_sets_check_catches_dropped_member():
    u = inputs.class_at_depth(random.Random(1), 5, 4)
    for tier in (wc.CANDIDATE_TIER, wc.CERTIFIED_TIER):
        doc = sets_doc(5, u, tier)
        assert checks.check_sphere_set(doc, doc["floor"]) == []
        for sq in (-1, -3):
            bad = copy.deepcopy(doc)
            i = next(i for i, a in enumerate(bad["classes"]) if oracle.square(a) == sq)
            del bad["classes"][i]
            if "status" in bad:
                del bad["status"][i]
            assert checks.check_sphere_set(bad, bad["floor"])


def test_sets_check_catches_foreign_member():
    u = inputs.class_at_depth(random.Random(2), 5, 4)
    doc = sets_doc(5, u)
    outside = next(
        a for a in oracle.candidates(5, -2) if oracle.pairing(u, a) < 0
    )
    doc["classes"].append(list(outside))
    assert checks.check_sphere_set(doc, 2)


def test_equivariance_check_catches_dropped_member():
    rng = random.Random(3)
    u = inputs.class_at_depth(rng, 6, 4)
    word = inputs.weyl_word(rng, 6, 4)
    doc_u, doc_gu = sets_doc(6, u), sets_doc(6, oracle.apply_word(6, word, u))
    assert checks.check_equivariance(6, word, doc_u, doc_gu) == []
    del doc_gu["classes"][-1]
    assert checks.check_equivariance(6, word, doc_u, doc_gu)


def test_truncated_document_is_rejected():
    doc = sets_doc(4, inputs.class_at_depth(random.Random(4), 4, 3))
    text = ser.dumps(doc)
    assert checks.parse_document(text) == (doc, [])
    parsed, problems = checks.parse_document(text[: len(text) // 2])
    assert parsed is None and problems
    assert checks.parse_document(ser.dumps(dict(doc, schema=2)))[1]


def diff_and_stability(k, u, v):
    s, a, b = wc.blow_up(k), wc.SymplecticClass(u), wc.SymplecticClass(v)
    only_u, only_v = wc.symmetric_difference(s, a, b)
    diff = {"schema": 1, "only_u": ser.sphere_set_to_json(only_u),
            "only_v": ser.sphere_set_to_json(only_v)}
    stability = {"schema": 1, "verdict": ser.verdict_to_json(wc.max_stable_level(s, a, b))}
    return diff, stability


def test_diff_checks_catch_dropped_class_and_wrong_square_diff():
    rng = random.Random(5)
    while True:
        u, v = inputs.pair_at_depth(rng, 5, 4)
        diff, stability = diff_and_stability(5, u, v)
        if diff["only_u"]["classes"] and stability["verdict"]["mode"] == "level":
            break
    assert checks.check_diff(diff) == []
    assert checks.check_diff_stability(diff, stability) == []
    bad = copy.deepcopy(diff)
    del bad["only_u"]["classes"][0]
    assert checks.check_diff(bad)
    bad = copy.deepcopy(stability)
    bad["verdict"]["square_diff"] -= 1
    assert checks.check_diff_stability(diff, bad)


def test_strata_check_catches_wrong_codim_and_negative_pair():
    s = wc.blow_up(6)
    u = inputs.class_at_depth(random.Random(6), 6, 4)
    index = wc.enumerate_admissible(s, wc.SymplecticClass(u), 6)
    doc = ser.strata_to_json(s, wc.SymplecticClass(u), index)
    assert checks.check_strata(doc) == []
    bad = copy.deepcopy(doc)
    bad["strata"][-1]["codim"] += 2
    assert checks.check_strata(bad)
    roots = [a for a in oracle.candidates(6, -2) if oracle.pairing(u, a) > 0]
    a, b = next((a, b) for a in roots for b in roots if oracle.pairing(a, b) < 0)
    bad = copy.deepcopy(doc)
    bad["strata"].append({"classes": [list(a), list(b)], "codim": 4})
    assert checks.check_strata(bad)


def test_enumeration_check_catches_dropped_class():
    doc = ser.enumeration_to_json(wc.enumerate_candidates(wc.blow_up(5), -3))
    assert checks.check_enumeration(doc) == []
    del doc["classes"][0]
    doc["count"] -= 1
    assert checks.check_enumeration(doc)


def test_capacity_checks_catch_wrong_values():
    rng = random.Random(8)
    weights = (2, 1)
    u = inputs.capacity_base(rng, 4, weights)
    base, cu = wc.blow_up(4), wc.SymplecticClass(u)
    doc = ser.profile_to_json(
        wc.critical_capacities(base, cu, wc.BallConfig(weights, ray_mode=True))
    )
    assert checks.check_capacities(doc, 4, u, weights) == []
    bad = copy.deepcopy(doc)
    bad["critical_values"] = bad["critical_values"][1:]
    assert checks.check_capacities(bad, 4, u, weights)

    caps = inputs.fixed_capacities(rng, u)
    target, uc = wc.blowup_class(base, cu, wc.BallConfig(caps))
    doc = {"target": ser.surface_to_json(target), "class": ser.symplectic_to_json(uc)}
    assert checks.check_blowup_class(doc, u, caps) == []
    doc["class"][-1] = ser.rational_to_json(Fraction(doc["class"][-1]) - 1)
    assert checks.check_blowup_class(doc, u, caps)
