"""The signed enumerator behind sets, walls and capacity profiles.

Each u-dependent query is compared with a test-local oracle: every candidate
of each square from `enumerate_candidates`, filtered by the exact pairing
`wc.pairing`.  Sets are also checked against the independent box oracle of
`_support.py` on small surfaces.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

import wallcross as wc
from wallcross import DegenerateSegmentError, MissingBoundsError, render, spheres

from _support import box_candidates, oracle_radius, random_forward

P = wc.product()
BOX = wc.EnumerationBounds(coefficient_box=2)


def oracle_pool(surface, depth, bounds=None):
    return [
        a
        for s in range(-1, -depth - 1, -1)
        for a in wc.enumerate_candidates(surface, s, bounds).classes
    ]


def oracle_set(surface, u, depth, bounds=None):
    return tuple(
        a for a in oracle_pool(surface, depth, bounds) if wc.pairing(surface, u, a) > 0
    )


def oracle_walls(surface, u, v, depth, bounds=None):
    """Sorted (class, t*, direction) triples, or the class a degeneracy names."""
    pool = oracle_pool(surface, depth, bounds)
    for a in pool:
        if wc.pairing(surface, u, a) == 0 and wc.pairing(surface, v, a) == 0:
            return a
    walls = []
    for direction, sign in (("lost", 1), ("gained", -1)):
        for a in pool:
            pu, pv = wc.pairing(surface, u, a), wc.pairing(surface, v, a)
            if (pu > 0) == (pv > 0) or (pu > 0) != (sign > 0):
                continue
            t = Fraction(pu) / (pu - pv)
            if t in (0, 1):
                return a
            walls.append((a, t, direction))
    return sorted(walls, key=lambda w: (w[1], w[0].coords))


def surfaces_and_depths():
    yield P, 6
    for k in range(1, 9):
        yield wc.blow_up(k), {7: 3, 8: 3}.get(k, 4)


def random_classes(rng, surface, count):
    return [random_forward(rng, surface) for _ in range(count)]


@pytest.mark.parametrize("bounds", [None, wc.EnumerationBounds(coefficient_box=1), BOX])
def test_spherical_set_matches_the_exact_filter(bounds):
    rng = random.Random(8101)
    for surface, depth in surfaces_and_depths():
        for u in random_classes(rng, surface, 3):
            got = wc.spherical_set(surface, u, depth, bounds)
            assert got.classes == oracle_set(surface, u, depth, bounds)
            want_complete = all(
                wc.enumerate_candidates(surface, -s, bounds).complete
                for s in range(1, depth + 1)
            )
            assert got.complete == want_complete


def test_spherical_set_matches_the_box_oracle():
    rng = random.Random(8102)
    for surface in (P, wc.blow_up(1), wc.blow_up(2), wc.blow_up(3), wc.blow_up(4)):
        for u in random_classes(rng, surface, 3):
            got = wc.spherical_set(surface, u, 3)
            want = {
                coords
                for s in (-1, -2, -3)
                for coords in box_candidates(surface, s, oracle_radius(s))
                if wc.pairing(surface, u, wc.LatticeClass(coords)) > 0
            }
            assert {a.coords for a in got.classes} == want


def test_nine_fold_blowup_with_a_box():
    s = wc.blow_up(9)
    rng = random.Random(8103)
    for box in (1, 2, 3):
        bounds = wc.EnumerationBounds(coefficient_box=box)
        for u in random_classes(rng, s, 3):
            got = wc.spherical_set(s, u, 3, bounds)
            assert got.classes == oracle_set(s, u, 3, bounds)
            assert not got.full and not got.complete


def test_nine_fold_blowup_without_a_box_keeps_its_error():
    s = wc.blow_up(9)
    u = wc.from_areas(s, (10, 3, 3, 2, 1, 1, 1, 1, 1, 1))
    message = (
        "enumeration on the 9-fold blow-up is infinite; "
        "supply bounds.coefficient_box"
    )
    with pytest.raises(MissingBoundsError) as exc:
        wc.spherical_set(s, u, 2)
    assert str(exc.value) == message
    with pytest.raises(MissingBoundsError) as exc:
        spheres.signed_candidates(s, wc.lattice.integral_dual(s, u)[0], 2)
    assert str(exc.value) == message


def test_signed_candidates_keeps_the_nonnegative_classes():
    rng = random.Random(8104)
    for surface, depth in surfaces_and_depths():
        u = random_forward(rng, surface)
        w = wc.lattice.integral_dual(surface, u)[0]
        for least in (0, 1):
            got, _ = spheres.signed_candidates(surface, w, depth, least=least)
            # w . A = L (u . A) with L > 0, so w . A >= 1 iff u . A > 0
            want = tuple(
                a
                for a in oracle_pool(surface, depth)
                if (wc.pairing(surface, u, a) > 0 if least else wc.pairing(surface, u, a) >= 0)
            )
            assert got == want


def test_segment_walls_match_the_exact_oracle():
    rng = random.Random(8105)
    for surface, depth in surfaces_and_depths():
        for _ in range(3):
            u, v = random_classes(rng, surface, 2)
            want = oracle_walls(surface, u, v, depth)
            if isinstance(want, wc.LatticeClass):
                with pytest.raises(DegenerateSegmentError, match=re.escape(render(surface, want))):
                    wc.segment_walls(surface, u, v, n=depth)
                continue
            got = wc.segment_walls(surface, u, v, n=depth)
            assert [(w.wall_class, w.t_star, w.direction) for w in got] == want


def test_segment_walls_reject_root_wall_endpoints():
    s = wc.blow_up(4)
    u = wc.from_areas(s, (12, 4, 4, 2, 1))  # on the wall of E_1-E_2 only
    v = wc.from_areas(s, (12, Fraction(9, 2), 4, 2, 1))
    w = wc.from_areas(s, (13, 4, 4, 2, 1))  # on the same wall
    root = wc.LatticeClass((0, 1, -1, 0, 0))
    assert oracle_walls(s, u, v, 3) == root
    with pytest.raises(
        DegenerateSegmentError, match=re.escape(f"endpoint u lies on the wall of {render(s, root)} ")
    ):
        wc.segment_walls(s, u, v, n=3)
    # both endpoints on one wall: neither set holds the root or its negative,
    # and the scan over the nonnegative classes must still find them
    assert oracle_walls(s, u, w, 3) == -root
    for x in (u, w):
        assert not {root, -root} & set(wc.spherical_set(s, x, 3).classes)
    with pytest.raises(
        DegenerateSegmentError,
        match=re.escape(f"both endpoints lie on the wall of {render(s, -root)};"),
    ):
        wc.segment_walls(s, u, w, n=3)


def oracle_profile(profile, depth, bounds=None):
    target, u0, d = profile.target, profile.u_start, profile.direction
    walls, flagged = {}, []
    for a in oracle_pool(target, depth, bounds):
        da = wc.pairing(target, d, a)
        p0 = wc.pairing(target, u0, a)
        if da == 0 or p0 * (p0 - profile.c_max * da) >= 0:
            continue
        if wc.is_certified(target, a):
            walls.setdefault(p0 / da, []).append(a)
        else:
            flagged.append((a, p0 / da))
    return (
        [(v, tuple(sorted(walls[v]))) for v in sorted(walls)],
        sorted(flagged, key=lambda f: (f[1], f[0].coords)),
    )


@pytest.mark.parametrize(
    "base, areas, weights, square_min",
    [
        (P, (1, 1), (1,), None),
        (P, (Fraction(5, 2), 1), (1, 2), -5),
        (wc.blow_up(0), (1,), (1, 1), None),
        (wc.blow_up(2), (4, 1, 1), (1,), -5),
        (wc.blow_up(3), (Fraction(7, 2), 1, Fraction(2, 3), Fraction(1, 2)), (2, 1), -4),
        (wc.blow_up(4), (9, 3, 2, Fraction(3, 2), 1), (1, 2), -5),
    ],
)
def test_critical_capacities_match_the_exact_oracle(base, areas, weights, square_min):
    u = wc.from_areas(base, areas)
    bounds = None if square_min is None else wc.EnumerationBounds(square_min=square_min)
    config = wc.BallConfig(tuple(Fraction(w) for w in weights), ray_mode=True)
    profile = wc.critical_capacities(base, u, config, bounds)
    depth = max(4, -(square_min or -4))
    walls, flagged = oracle_profile(profile, depth)
    assert [(w.value, w.classes) for w in profile.walls] == walls
    assert [(f.wall_class, f.value) for f in profile.flagged] == flagged
    assert profile.critical_values == tuple(v for v, _ in walls)


def test_sets_share_the_classes_of_the_pool():
    s = wc.blow_up(5)
    pool = {a: a for a in wc.candidate_pool(s, 4)}
    u = wc.from_areas(s, (9, 3, 2, Fraction(3, 2), 1, Fraction(1, 2)))
    for a in wc.spherical_set(s, u, 4).classes:
        assert pool[a] is a


def test_a_deep_set_expands_only_multisets_it_touches(monkeypatch):
    s = wc.blow_up(8)
    pool_size = sum(
        factorial(len(t)) // prod(map(factorial, Counter(t).values()))
        for sq in range(1, 7)
        for _, tails in spheres._table(s, -sq, None)[0]
        for t in tails
    )
    assert pool_size == 422_400
    built = []
    real = spheres._distinct_permutations

    def counting(values):
        perms = real(values)
        built.append(len(perms))
        return perms

    monkeypatch.setattr(spheres, "_distinct_permutations", counting)
    spheres._expand.cache_clear()
    u = wc.from_areas(s, (17, 6, 5, 4, 3, 2, 2, 1, 1))
    got = wc.spherical_set(s, u, 6)
    assert len(got.classes) == 514
    assert sum(built) < pool_size // 100
