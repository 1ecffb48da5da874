"""Acceptance suite: the eight headline guarantees, one report line each.

Run with `pytest -s tests/test_acceptance.py` to see a PASS/FAIL line per
criterion.  Counts and verdicts are checked against an independent
brute-force oracle and against classical values where those exist; the
randomized suites use fixed seeds so a failure is reproducible.
"""

import random
import time
from fractions import Fraction

import wallcross as wc
from wallcross import spheres

from _support import (
    CLASSICAL_EXCEPTIONAL_COUNTS,
    CLASSICAL_ROOT_COUNTS,
    box_candidates,
    off_wall_pair,
    oracle_radius,
    random_forward,
    random_forward_blowup,
    random_forward_product,
    random_lattice_class,
    random_reduced_blowup,
)

P = wc.product()
N_PROPERTY = 10_000


def _check(n: int, desc: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    print(f"PASS criterion {n}: {desc}")


def test_criterion_1_exceptional_counts():
    def body():
        spheres._candidates.cache_clear()
        spheres._table.cache_clear()
        spheres._expand.cache_clear()
        for k in range(1, 8):
            got = wc.enumerate_candidates(wc.blow_up(k), -1).classes
            assert len(got) == CLASSICAL_EXCEPTIONAL_COUNTS[k], k
        start = time.perf_counter()
        k8 = wc.enumerate_candidates(wc.blow_up(8), -1).classes
        elapsed = time.perf_counter() - start
        assert len(k8) == CLASSICAL_EXCEPTIONAL_COUNTS[8]
        assert elapsed < 10.0, f"k=8 enumeration took {elapsed:.2f}s"
        for k in range(1, 9):
            s = wc.blow_up(k)
            got = {a.coords for a in wc.enumerate_candidates(s, -1).classes}
            assert got == box_candidates(s, -1, oracle_radius(-1)), k

    _check(
        1,
        "exceptional-class counts 1,3,6,10,16,27,56,240 for k=1..8 match the "
        "box oracle and classical del Pezzo line counts (k=8 under 10 s)",
        body,
    )


def test_criterion_2_root_counts():
    def body():
        for k in range(3, 9):
            s = wc.blow_up(k)
            roots = wc.enumerate_candidates(s, -2).classes
            assert len(roots) == CLASSICAL_ROOT_COUNTS[k], k
            assert all(wc.pairing(s, s.canonical, a) == 0 for a in roots)
            assert all(wc.is_root(s, a) for a in roots)
            got = {a.coords for a in roots}
            assert got == box_candidates(s, -2, oracle_radius(-2)), k

    _check(
        2,
        "root counts 8,20,40,72,126,240 for k=3..8 match the box oracle and "
        "the classical root system sizes, all with zero canonical pairing",
        body,
    )


def test_criterion_3_product_wall_structure():
    def body():
        for mu in (
            Fraction(5, 2), Fraction(4), Fraction(23, 4), Fraction(19, 3), Fraction(7)
        ):
            u = wc.from_areas(P, (mu, 1))
            got = {a.coords for a in wc.spherical_set(P, u).classes}
            want = {(1, -m) for m in range(1, int(mu) + 1) if m < mu}
            assert got == want, mu
        pairs = (
            (Fraction(5, 2), Fraction(9, 2)),
            (Fraction(4, 3), Fraction(13, 3)),
            (Fraction(7, 3), Fraction(11, 2)),
        )
        for mu, mu2 in pairs:
            u = wc.from_areas(P, (mu, 1))
            v = wc.from_areas(P, (mu2, 1))
            walls = wc.segment_walls(P, u, v)
            ints = [m for m in range(int(mu) + 1, int(mu2) + 1) if mu < m < mu2]
            assert [w.wall_class.coords for w in walls] == [(1, -m) for m in ints]
            assert [w.t_star for w in walls] == [
                (m - mu) / (mu2 - mu) for m in ints
            ]
            assert all(w.direction == wc.DIRECTION_GAINED for w in walls)
            back = wc.segment_walls(P, v, u)
            assert all(w.direction == wc.DIRECTION_LOST for w in back)
            assert len(back) == len(walls)
        no_int = wc.segment_walls(
            P,
            wc.from_areas(P, (Fraction(5, 2), 1)),
            wc.from_areas(P, (Fraction(27, 10), 1)),
        )
        assert no_int == ()

    _check(
        3,
        "sphere product: the u-set is {B-mF : 1 <= m < mu} and segment walls "
        "sit exactly at the integers strictly between the two mu values",
        body,
    )


def test_criterion_4_verdicts_and_bulk_certification():
    def body():
        full = wc.max_stable_level(
            P,
            wc.from_areas(P, (Fraction(5, 2), 1)),
            wc.from_areas(P, (Fraction(27, 10), 1)),
        )
        assert full.mode == wc.MODE_FULL
        level = wc.max_stable_level(
            P,
            wc.from_areas(P, (Fraction(5, 2), 1)),
            wc.from_areas(P, (Fraction(7, 2), 1)),
        )
        assert level.mode == wc.MODE_LEVEL
        assert level.level == 5
        assert level.iso_range == (1, 7)

        rng = random.Random(0xACCE55)
        start = time.perf_counter()
        for _ in range(1000):
            surface, u, v = off_wall_pair(rng, rng.randint(1, 5))
            cert = wc.certify(surface, u, v)
            assert cert.generic
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"1000 certificates took {elapsed:.1f}s"

    _check(
        4,
        "5/2 -> 27/10 is Full, 5/2 -> 7/2 is Level(5) with range [1, 7]; "
        "1000 random reduced pairs on k <= 5 certify with zero failures "
        "in under 60 s",
        body,
    )


def test_criterion_5_codimension_and_admissibility():
    def body():
        for surface in (P, wc.blow_up(3), wc.blow_up(5)):
            for a in wc.enumerate_candidates(surface, -2).classes:
                assert wc.cod(surface, a) == 2
        s3 = wc.blow_up(3)
        for a in wc.enumerate_candidates(s3, -3).classes:
            assert wc.cod(s3, a) == 4
        b_f = wc.LatticeClass((1, -1))
        b_2f = wc.LatticeClass((1, -2))
        assert wc.pairing(P, b_f, b_2f) == -3
        assert not wc.is_admissible(P, [b_f, b_2f])

    _check(
        5,
        "stratum codimension is 2 at square -2 and 4 at square -3, and "
        "admissibility rejects {B-F, B-2F} (mutual pairing -3)",
        body,
    )


def _interior_flips_by_hand(k: int, weights, c_max: Fraction) -> set:
    """Certified sign changes of u_c = u_0 - c*D, from oracle classes only.

    Raw tuple arithmetic on the blow-up Gram form; nothing from the packing
    module is reused, so this is an independent route to the critical set.
    """
    target = wc.blow_up(k)
    u0 = (1,) + (0,) * k
    d = (0,) + tuple(weights)
    flips = set()
    for s in (-1, -2):
        for coords in box_candidates(target, s, oracle_radius(s)):
            p0 = u0[0] * coords[0] - sum(u0[i] * coords[i] for i in range(1, k + 1))
            da = d[0] * coords[0] - sum(d[i] * coords[i] for i in range(1, k + 1))
            if da == 0:
                continue
            p_end = p0 - c_max * da
            if p0 * p_end < 0:
                flips.add(Fraction(p0, da))
    return flips


def test_criterion_6_packing_profiles():
    def body():
        cp2 = wc.blow_up(0)
        u = wc.from_areas(cp2, (1,))
        one = wc.critical_capacities(
            cp2, u, wc.BallConfig((Fraction(1),), ray_mode=True)
        )
        assert one.c_max == 1
        assert one.critical_values == ()
        assert _interior_flips_by_hand(1, (1,), one.c_max) == set()

        two = wc.critical_capacities(
            cp2, u, wc.BallConfig((Fraction(1), Fraction(1)), ray_mode=True)
        )
        assert two.critical_values == (Fraction(1, 2),)
        assert [a.coords for w in two.walls for a in w.classes] == [(1, -1, -1)]
        assert _interior_flips_by_hand(2, (1, 1), two.c_max) == {Fraction(1, 2)}

    _check(
        6,
        "one ball in the plane has no interior critical value on (0, 1); two "
        "equal balls have the single critical value 1/2 (oracle cross-check)",
        body,
    )


# --- criterion 7: the six randomized property suites -----------------------

_SURFACE_MIX = (
    P, wc.blow_up(1), wc.blow_up(2), wc.blow_up(3), wc.blow_up(5), wc.blow_up(6)
)


def _suite_pairing_symmetry():
    rng = random.Random(701)
    for _ in range(N_PROPERTY):
        surface = rng.choice(_SURFACE_MIX)
        a = random_lattice_class(rng, surface)
        b = random_lattice_class(rng, surface)
        c = random_lattice_class(rng, surface)
        assert wc.pairing(surface, a, b) == wc.pairing(surface, b, a)
        ab = wc.LatticeClass(tuple(x + y for x, y in zip(a.coords, b.coords)))
        assert wc.pairing(surface, ab, c) == (
            wc.pairing(surface, a, c) + wc.pairing(surface, b, c)
        )


def _suite_reflection():
    rng = random.Random(702)
    surfaces = (P, wc.blow_up(2), wc.blow_up(3), wc.blow_up(5))
    roots = {s: wc.enumerate_candidates(s, -2).classes for s in surfaces}
    for _ in range(N_PROPERTY):
        surface = rng.choice(surfaces)
        r = rng.choice(roots[surface])
        a = random_lattice_class(rng, surface)
        b = random_lattice_class(rng, surface)
        ra = wc.reflect(surface, a, r)
        rb = wc.reflect(surface, b, r)
        assert wc.reflect(surface, ra, r) == a
        assert wc.pairing(surface, ra, rb) == wc.pairing(surface, a, b)
        assert wc.reflect(surface, surface.canonical, r) == surface.canonical


def _random_word(rng: random.Random, k: int) -> tuple:
    word = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            word.append(wc.WeylMove("swap", tuple(rng.sample(range(1, k + 1), 2))))
        else:
            word.append(
                wc.WeylMove("cremona", tuple(rng.sample(range(1, k + 1), 3)))
            )
    return tuple(word)


def _suite_reduction_round_trip():
    rng = random.Random(703)
    for _ in range(N_PROPERTY):
        k = rng.randint(3, 5)
        surface = wc.blow_up(k)
        u0 = random_reduced_blowup(rng, k)
        word = _random_word(rng, k)
        v = wc.apply_word(surface, word, u0)
        red, back = wc.reduce(surface, v)
        assert red == u0  # the reduced representative is unique
        assert wc.apply_word(surface, back, v) == red
        assert wc.reduce(surface, red) == (red, ())


def _suite_light_cone():
    rng = random.Random(704)
    for _ in range(N_PROPERTY):
        surface = rng.choice(_SURFACE_MIX)
        u = random_forward(rng, surface)
        v = random_forward(rng, surface)
        assert wc.square(surface, u) > 0
        assert wc.pairing(surface, u, v) > 0


def _scaled(u: "wc.SymplecticClass", lam: Fraction) -> "wc.SymplecticClass":
    return wc.SymplecticClass(tuple(lam * c for c in u.coords))


def _suite_scale_invariance():
    rng = random.Random(705)
    lambdas = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(7))
    count = 0
    while count < N_PROPERTY:
        if rng.random() < 0.7:
            surface = P
            u = random_forward_product(rng)
            v = random_forward_product(rng)
        else:
            k = rng.randint(1, 3)
            surface = wc.blow_up(k)
            u = random_forward_blowup(rng, k)
            v = random_forward_blowup(rng, k)
        if wc.pair_search_depth(surface, u, v) > 8:
            continue
        lam = rng.choice(lambdas)
        base = wc.max_stable_level(surface, u, v)
        scaled = wc.max_stable_level(surface, _scaled(u, lam), _scaled(v, lam))
        assert (base.mode, base.level, base.iso_range, base.pi0_equal) == (
            scaled.mode, scaled.level, scaled.iso_range, scaled.pi0_equal
        )
        count += 1


def _off_wall_product_pair(rng: random.Random, depth_cap: int = 8):
    while True:
        u = random_forward_product(rng)
        v = random_forward_product(rng)
        if u == v:
            continue
        depth = wc.pair_search_depth(P, u, v)
        if depth > depth_cap:
            continue
        pool = wc.candidate_pool(P, depth)
        if any(
            wc.pairing(P, u, a) == 0 or wc.pairing(P, v, a) == 0 for a in pool
        ):
            continue
        return P, u, v


def _suite_certificate_agreement():
    rng = random.Random(706)
    count = 0
    while count < N_PROPERTY:
        if rng.random() < 0.7:
            surface, u, v = _off_wall_product_pair(rng)
        else:
            surface, u, v = off_wall_pair(rng, rng.randint(1, 2), depth_cap=6)
        cert = wc.certify(surface, u, v)
        assert cert.verdict == wc.max_stable_level(surface, u, v)
        count += 1


def test_criterion_7_property_suites():
    def body():
        _suite_pairing_symmetry()
        _suite_reflection()
        _suite_reduction_round_trip()
        _suite_light_cone()
        _suite_scale_invariance()
        _suite_certificate_agreement()

    _check(
        7,
        "six property suites (pairing symmetry, reflection isometry and "
        "involution, reduction round trip, light-cone positivity, verdict "
        "scale invariance, certificate/verdict agreement) at 10^4 seeded "
        "instances each, zero violations",
        body,
    )


def test_criterion_8_oracle_equivalence():
    def body():
        for sq in range(-1, -7, -1):
            got = {a.coords for a in wc.enumerate_candidates(P, sq).classes}
            assert got == box_candidates(P, sq, oracle_radius(sq)), ("product", sq)
        for k in range(0, 6):
            s = wc.blow_up(k)
            for sq in range(-1, -7, -1):
                got = {a.coords for a in wc.enumerate_candidates(s, sq).classes}
                assert got == box_candidates(s, sq, oracle_radius(sq)), (k, sq)

    _check(
        8,
        "the adjunction-constrained enumerator and the naive box search "
        "return identical class sets for k <= 5, squares -1..-6, and the "
        "sphere product",
        body,
    )
