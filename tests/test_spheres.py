import json
from fractions import Fraction
from pathlib import Path

import pytest

import wallcross as wc
from wallcross import MissingBoundsError, ValidationError, spheres
from wallcross.serialize import sphere_set_from_json
from wallcross.spheres import _sort_key

from _support import box_candidates, oracle_radius

GOLDEN = Path(__file__).parent / "golden"
SET_FILES = (GOLDEN / "sets_floor3_a.json", GOLDEN / "sets_floor3_b.json")


def classes(surface, s, bounds=None):
    return wc.enumerate_candidates(surface, s, bounds).classes


def test_exceptional_classes_k3():
    s = wc.blow_up(3)
    got = {a.coords for a in classes(s, -1)}
    want = {
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1),
    }
    assert got == want


def test_roots_k3():
    s = wc.blow_up(3)
    got = {a.coords for a in classes(s, -2)}
    ei_minus_ej = {
        (0, 1, -1, 0), (0, -1, 1, 0), (0, 1, 0, -1),
        (0, -1, 0, 1), (0, 0, 1, -1), (0, 0, -1, 1),
    }
    want = ei_minus_ej | {(1, -1, -1, -1), (-1, 1, 1, 1)}
    assert got == want
    assert all(wc.is_root(s, a) for a in classes(s, -2))


def test_product_candidates():
    p = wc.product()
    assert {a.coords for a in classes(p, -2)} == {(1, -1), (-1, 1)}
    assert {a.coords for a in classes(p, -6)} == {(1, -3), (-3, 1)}
    assert classes(p, -3) == ()  # odd squares cannot occur
    assert classes(p, -1) == ()


def test_plane_has_no_negative_candidates():
    s = wc.blow_up(0)
    assert classes(s, -1) == ()
    assert classes(s, -2) == ()


def test_nonnegative_square_rejected():
    with pytest.raises(ValidationError):
        wc.enumerate_candidates(wc.product(), 0)
    with pytest.raises(ValidationError):
        wc.enumerate_candidates(wc.blow_up(3), 2)


def test_zero_square_candidates():
    assert {a.coords for a in wc.zero_square_candidates(wc.product())} == {
        (1, 0), (0, 1)
    }
    assert {a.coords for a in wc.zero_square_candidates(wc.blow_up(2))} == {
        (1, -1, 0), (1, 0, -1)
    }


def test_nine_fold_blowup_needs_box():
    s = wc.blow_up(9)
    with pytest.raises(MissingBoundsError):
        wc.enumerate_candidates(s, -2)
    result = wc.enumerate_candidates(
        s, -2, wc.EnumerationBounds(coefficient_box=2)
    )
    assert not result.complete
    assert wc.LatticeClass((0, 1, -1) + (0,) * 7) in result.classes
    # the box truly truncates: a wider box finds strictly more roots
    wider = wc.enumerate_candidates(
        s, -2, wc.EnumerationBounds(coefficient_box=4)
    )
    assert len(wider.classes) > len(result.classes)


def test_coefficient_box_truncates_and_flags():
    s = wc.blow_up(6)
    full = classes(s, -1)
    boxed = wc.enumerate_candidates(s, -1, wc.EnumerationBounds(coefficient_box=1))
    assert not boxed.complete
    assert set(boxed.classes) < set(full)


def test_bounds_validation():
    with pytest.raises(ValidationError):
        wc.EnumerationBounds(square_min=0)
    with pytest.raises(ValidationError):
        wc.EnumerationBounds(coefficient_box=0)


def test_enumerator_matches_box_oracle_spot():
    for k in (2, 4):
        s = wc.blow_up(k)
        for sq in (-1, -3, -5):
            got = {a.coords for a in classes(s, sq)}
            assert got == box_candidates(s, sq, oracle_radius(sq))


def test_full_search_depth_product():
    p = wc.product()
    u = wc.from_areas(p, (Fraction(5, 2), 1))
    # beta = 9/5 here, and the first square past the cutoff is -5
    assert wc.full_search_depth(p, u) == 4


def test_full_search_depth_is_tight_on_blowup():
    s = wc.blow_up(1)
    u = wc.from_areas(s, (1, Fraction(3, 4)))
    depth = wc.full_search_depth(s, u)
    assert depth == 6
    # the extremal candidate of square -7 pairs to exactly zero, so no
    # deeper class can enter the set
    extremal = wc.LatticeClass((-3, 4))
    assert wc.square(s, extremal) == -7
    assert wc.pairing(s, u, extremal) == 0
    deep = wc.spherical_set(s, u, n=9)
    certified = wc.spherical_set(s, u)
    assert set(deep.classes) == set(certified.classes)


def test_spherical_set_frozen_blowup():
    s = wc.blow_up(1)
    u = wc.from_areas(s, (1, Fraction(3, 4)))
    full = wc.spherical_set(s, u)
    assert full.full and full.complete
    assert {a.coords for a in full.classes} == {(0, 1), (-1, 2), (-2, 3)}
    assert full.by_square() == {
        -1: (wc.LatticeClass((0, 1)),),
        -3: (wc.LatticeClass((-1, 2)),),
        -5: (wc.LatticeClass((-2, 3)),),
    }
    assert wc.LatticeClass((0, 1)) in full
    assert wc.LatticeClass((1, 0)) not in full


def test_spherical_set_product_wall_family():
    p = wc.product()
    for mu in (Fraction(5, 2), Fraction(4), Fraction(23, 4)):
        u = wc.from_areas(p, (mu, 1))
        got = {a.coords for a in wc.spherical_set(p, u).classes}
        want = {(1, -m) for m in range(1, 100) if m < mu}
        assert got == want, mu


def test_spherical_set_depth_and_bounds():
    p = wc.product()
    u = wc.from_areas(p, (Fraction(5, 2), 1))
    shallow = wc.spherical_set(p, u, n=2)
    assert shallow.square_floor == 2
    assert not shallow.full
    assert {a.coords for a in shallow.classes} == {(1, -1)}

    via_bounds = wc.spherical_set(
        p, u, bounds=wc.EnumerationBounds(square_min=-2)
    )
    assert via_bounds.classes == shallow.classes

    with pytest.raises(ValidationError):
        wc.spherical_set(p, u, n=0)


def test_certification_tier_statuses():
    s = wc.blow_up(1)
    u = wc.from_areas(s, (1, Fraction(3, 4)))
    graded = wc.spherical_set(s, u, certification=wc.CERTIFIED_TIER)
    status = dict(graded.status)
    assert status[wc.LatticeClass((0, 1))] == "exceptional"
    assert status[wc.LatticeClass((-1, 2))] == "candidate"
    assert status[wc.LatticeClass((-2, 3))] == "candidate"

    plain = wc.spherical_set(s, u)
    assert plain.status == ()
    with pytest.raises(ValidationError):
        wc.spherical_set(s, u, certification="verified")


def test_cremona_certification():
    assert wc.is_exceptional_class(wc.blow_up(2), wc.LatticeClass((1, -1, -1)))
    s5 = wc.blow_up(5)
    assert wc.is_exceptional_class(s5, wc.LatticeClass((2, -1, -1, -1, -1, -1)))
    assert not wc.is_exceptional_class(s5, wc.LatticeClass((0, 1, -1, 0, 0, 0)))
    # all square -1 candidates on k <= 8 certify
    for k in range(1, 9):
        s = wc.blow_up(k)
        assert all(wc.is_exceptional_class(s, a) for a in classes(s, -1))


def test_classify():
    s = wc.blow_up(3)
    assert wc.classify(s, wc.LatticeClass((0, 1, 0, 0))) == "exceptional"
    assert wc.classify(s, wc.LatticeClass((0, 1, -1, 0))) == "root"
    assert wc.classify(s, wc.LatticeClass((-1, 2, 0, 0))) == "candidate"
    assert not wc.is_certified(s, wc.LatticeClass((-1, 2, 0, 0)))


def test_set_difference_depth_mismatch():
    p = wc.product()
    u = wc.from_areas(p, (Fraction(5, 2), 1))
    v = wc.from_areas(p, (Fraction(7, 2), 1))
    sa = wc.spherical_set(p, u, n=2)
    sb = wc.spherical_set(p, v, n=4)
    with pytest.raises(ValidationError):
        wc.set_difference(sa, sb)


def _in_set_order(surface, classes):
    return list(classes) == sorted(classes, key=_sort_key(surface))


def test_set_difference_keeps_set_order():
    s = wc.blow_up(2)
    u = wc.from_areas(s, (7, 5, 2))
    v = wc.from_areas(s, (12, 3, 4))
    sa, sb = wc.spherical_set(s, u, n=6), wc.spherical_set(s, v, n=6)
    only_u, only_v = wc.set_difference(sa, sb)
    # both sides span several squares, and coordinate order alone differs
    for side in (only_u, only_v):
        assert len({wc.square(s, a) for a in side.classes}) >= 2
        assert _in_set_order(s, side.classes)
        assert list(side.classes) != sorted(side.classes)
    # the set files read by `diff --sets-a/--sets-b`
    sa, sb = (sphere_set_from_json(json.loads(f.read_text())) for f in SET_FILES)
    only_a, only_b = wc.set_difference(sa, sb)
    assert only_a.classes and only_b.classes
    for side in (only_a, only_b):
        assert _in_set_order(sa.surface, side.classes)
        assert [a for a, _ in side.status] == list(side.classes)


def test_set_difference_makes_no_pairing(monkeypatch):
    from wallcross import lattice

    s = wc.blow_up(2)
    sa = wc.spherical_set(s, wc.from_areas(s, (7, 5, 2)), n=6)
    sb = wc.spherical_set(s, wc.from_areas(s, (12, 3, 4)), n=6)
    calls = []
    real = lattice.pairing

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (wc, lattice, spheres):
        if getattr(module, "pairing", None) is real:
            monkeypatch.setattr(module, "pairing", counting)
    only_u, only_v = wc.set_difference(sa, sb)
    assert only_u.classes and only_v.classes
    assert calls == []


def test_symmetric_difference_covers_both_endpoints():
    p = wc.product()
    u = wc.from_areas(p, (Fraction(5, 2), 1))
    v = wc.from_areas(p, (Fraction(7, 2), 1))
    only_u, only_v = wc.symmetric_difference(p, u, v)
    assert only_u.classes == ()
    assert {a.coords for a in only_v.classes} == {(1, -3)}
    # the joint depth covers the -6 square even though u alone certifies 4
    assert only_v.square_floor == 6


def test_sort_order_is_square_then_coords():
    s = wc.blow_up(1)
    u = wc.from_areas(s, (1, Fraction(3, 4)))
    squares = [wc.square(s, a) for a in wc.spherical_set(s, u).classes]
    assert squares == sorted(squares, reverse=True)


def _exact_members(surface, u, depth):
    pool = wc.candidate_pool(surface, depth)
    return [a for a in pool if wc.pairing(surface, u, a) > 0]


def _assert_matches_exact_filter(surface, u):
    got = wc.spherical_set(surface, u)
    want = _exact_members(surface, u, got.square_floor)
    assert set(got.classes) == set(want)
    assert list(got.classes) == sorted(
        want, key=lambda a: (-wc.square(surface, a), a.coords)
    )
    return got


def test_spherical_set_matches_exact_pairing_filter():
    # mixed denominators 2, 3, 5 and 12 in one class
    p = wc.product()
    _assert_matches_exact_filter(
        p, wc.from_areas(p, (Fraction(37, 12), Fraction(2, 5)))
    )
    _assert_matches_exact_filter(p, wc.SymplecticClass((3, 5)))
    c = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 12),
         Fraction(1, 3))
    for k in range(1, 6):
        s = wc.blow_up(k)
        _assert_matches_exact_filter(
            s, wc.from_areas(s, (Fraction(37, 12),) + c[:k])
        )
        # plain int coordinates, not Fractions
        _assert_matches_exact_filter(
            s, wc.SymplecticClass((11,) + tuple(-j for j in range(k, 0, -1)))
        )


def test_spherical_set_leaves_out_a_class_on_its_wall():
    s = wc.blow_up(2)
    u = wc.from_areas(s, (Fraction(17, 12), Fraction(5, 6), Fraction(7, 12)))
    wall = wc.LatticeClass((1, -1, -1))
    assert wc.pairing(s, u, wall) == 0
    got = _assert_matches_exact_filter(s, u)
    assert wall in wc.candidate_pool(s, got.square_floor)
    assert wall not in got
