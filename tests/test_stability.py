from fractions import Fraction

import pytest

import wallcross as wc
from wallcross import DegenerateSegmentError, ValidationError

P = wc.product()
UNREPAIRABLE = (
    r"^no basis perturbation repairs the segment: the left endpoint lies "
    r"on a wall of its own chamber \(degenerate input\)$"
)


def prod_u(mu):
    return wc.from_areas(P, (Fraction(mu), 1))


class TestVerdicts:
    def test_same_chamber_is_full(self):
        v = wc.max_stable_level(P, prod_u("5/2"), prod_u("27/10"))
        assert v.mode == wc.MODE_FULL
        assert v.level is None and v.iso_range is None
        assert v.pi0_equal is True
        assert v.s_diff is None
        assert v.certification_tier == wc.CERTIFIED_TIER

    def test_one_wall_apart(self):
        v = wc.max_stable_level(P, prod_u("5/2"), prod_u("7/2"))
        assert v.mode == wc.MODE_LEVEL
        assert v.level == 5
        assert v.iso_range == (1, 7)
        assert v.pi0_equal is False
        assert v.s_diff == -6
        assert v.square_floor == 6
        # B-3F is an uncertified candidate, so the verdict inherits that
        assert v.certification_tier == wc.CANDIDATE_TIER

    def test_exceptional_difference_gives_nothing(self):
        s = wc.blow_up(1)
        u = wc.SymplecticClass((1, Fraction(1, 4)))
        v = wc.from_areas(s, (1, Fraction(1, 4)))
        verdict = wc.max_stable_level(s, u, v)
        assert verdict.mode == wc.MODE_NONE
        assert verdict.s_diff == -1
        assert verdict.iso_range is None
        # crossing the wall of E_1 also swaps -2E_1 (same hyperplane,
        # square -4, uncertified), so the verdict is candidate-tier
        assert verdict.certification_tier == wc.CANDIDATE_TIER

    def test_root_difference_gives_level_one(self):
        s = wc.blow_up(2)
        u = wc.from_areas(s, (10, 4, 3))
        v = wc.from_areas(s, (10, 3, 4))
        verdict = wc.max_stable_level(s, u, v)
        assert verdict.mode == wc.MODE_LEVEL
        assert verdict.level == 1
        assert verdict.iso_range is None
        assert verdict.certification_tier == wc.CERTIFIED_TIER

    def test_truncated_query_never_full(self):
        v = wc.max_stable_level(P, prod_u("5/2"), prod_u("27/10"), n=1)
        assert v.mode == wc.MODE_LEVEL
        assert v.level == 1
        assert v.pi0_equal is False
        assert v.s_diff is None
        assert "truncated" in v.justification[0]

    def test_nine_fold_blowup_never_full(self):
        s = wc.blow_up(9)
        u = wc.from_areas(s, (4,) + (1,) * 9)
        verdict = wc.max_stable_level(
            s, u, u, n=3, bounds=wc.EnumerationBounds(coefficient_box=3)
        )
        assert verdict.mode == wc.MODE_LEVEL
        assert verdict.level == 3

    def test_rejects_non_forward_input(self):
        bad = wc.SymplecticClass((Fraction(1), Fraction(2)))  # square 4 > 0, K-pairing -6... fine
        anti = wc.SymplecticClass((-1, -1))
        with pytest.raises(ValidationError):
            wc.max_stable_level(P, anti, bad)


class TestWalls:
    def test_frozen_product_crossings(self):
        walls = wc.segment_walls(P, prod_u("5/2"), prod_u("9/2"))
        got = [(w.wall_class.coords, w.t_star, w.direction) for w in walls]
        assert got == [
            ((1, -3), Fraction(1, 4), wc.DIRECTION_GAINED),
            ((1, -4), Fraction(3, 4), wc.DIRECTION_GAINED),
        ]
        assert wc.is_generic(walls)

    def test_no_separating_class_no_walls(self):
        assert wc.segment_walls(P, prod_u("5/2"), prod_u("27/10")) == ()

    def test_endpoint_on_wall_is_rejected(self):
        s = wc.blow_up(2)
        u = wc.from_areas(s, (3, 1, 1))
        v = wc.from_areas(s, (3, Fraction(3, 2), Fraction(3, 2)))
        with pytest.raises(DegenerateSegmentError):
            wc.segment_walls(s, u, v)

    def test_segment_inside_hyperplane_is_rejected(self):
        s = wc.blow_up(3)
        u = wc.from_areas(s, (10, 3, 3, 2))
        v = wc.from_areas(s, (10, 2, 2, 4))
        with pytest.raises(DegenerateSegmentError) as exc:
            wc.segment_walls(s, u, v)
        assert "both endpoints" in str(exc.value)

    def test_genericity_ignores_sign_pairs(self):
        s = wc.blow_up(2)
        a = wc.LatticeClass((0, 1, -1))
        b = wc.LatticeClass((0, -1, 1))
        t = Fraction(1, 2)
        pair = (
            wc.WallCrossing(a, t, wc.DIRECTION_LOST),
            wc.WallCrossing(b, t, wc.DIRECTION_GAINED),
        )
        assert wc.is_generic(pair)
        clash = pair + (
            wc.WallCrossing(wc.LatticeClass((1, -1, -1)), t, wc.DIRECTION_LOST),
        )
        assert not wc.is_generic(clash)


class TestPerturbation:
    def test_generic_input_is_untouched(self):
        u = prod_u("5/2")
        assert wc.perturb(P, u, prod_u("7/2")) is u

    def test_triple_collision_is_repaired(self):
        s = wc.blow_up(3)
        u = wc.from_areas(s, (10, 4, 3, 2))
        v = wc.from_areas(s, (10, 2, 3, 4))
        # all three fiber-exchange walls meet the segment at t = 1/2
        assert not wc.is_generic(wc.segment_walls(s, u, v))
        moved = wc.perturb(s, u, v)
        assert wc.areas(s, moved) == (10, 4, 3, 1)
        walls = wc.segment_walls(s, moved, v)
        assert {w.t_star for w in walls} == {
            Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)
        }
        assert wc.is_generic(walls)

    def test_unrepairable_segment(self):
        s = wc.blow_up(3)
        u = wc.from_areas(s, (10, 3, 3, 2))
        v = wc.from_areas(s, (10, 2, 2, 4))
        with pytest.raises(ValidationError):
            wc.perturb(s, u, v)

    def test_root_wall_endpoint_is_rejected_without_search(self, monkeypatch):
        # E_1-E_2 is a root and u gives it area 0: no replacement that keeps
        # the set of u can leave its wall, so no candidate is tried.
        from wallcross import stability

        tried = []
        is_forward = stability.is_forward
        monkeypatch.setattr(
            stability, "is_forward", lambda *a: tried.append(a) or is_forward(*a)
        )
        s = wc.blow_up(3)
        u = wc.from_areas(s, (10, 3, 3, 2))
        v = wc.from_areas(s, (10, 2, 2, 4))
        with pytest.raises(ValidationError, match=UNREPAIRABLE):
            wc.perturb(s, u, v)
        assert tried == []
        # at depth 1 the root is not searched and the segment is ready as is
        assert wc.perturb(s, u, v, n=1) is u

    def test_root_wall_endpoint_on_eightfold_blowup(self):
        s = wc.blow_up(8)
        u = wc.from_areas(s, (24, 8, 7, 6, 5, 4, 3, 2, 2))
        v = wc.from_areas(s, (24, 8, 7, 6, 5, 4, 3, 2, 1))
        with pytest.raises(ValidationError, match=UNREPAIRABLE):
            wc.perturb(s, u, v)


class TestCertificates:
    def test_product_chain(self):
        cert = wc.certify(P, prod_u("5/2"), prod_u("9/2"))
        assert cert.generic and cert.perturbation is None
        assert [wc.areas(P, s)[0] for s in cert.samples] == [
            Fraction(5, 2), Fraction(7, 2), Fraction(9, 2)
        ]
        assert [link.relation for link in cert.chain] == [
            wc.RELATION_SUBSET, wc.RELATION_SUBSET
        ]
        assert cert.chain[0].gained == (wc.LatticeClass((1, -3)),)
        assert cert.chain[1].gained == (wc.LatticeClass((1, -4)),)
        assert cert.verdict.mode == wc.MODE_LEVEL
        assert cert.verdict.level == 5  # first separating square is -6

    def test_chain_with_perturbation(self):
        s = wc.blow_up(3)
        u = wc.from_areas(s, (10, 4, 3, 2))
        v = wc.from_areas(s, (10, 2, 3, 4))
        cert = wc.certify(s, u, v)
        rec = cert.perturbation
        assert rec is not None
        assert rec.original == u
        assert wc.areas(s, rec.replacement) == (10, 4, 3, 1)
        assert rec.epsilon == 1
        assert rec.direction.coords == (0, 0, 0, 1)
        assert len(cert.walls) == 6  # three root pairs
        assert all(
            link.relation == wc.RELATION_TWO_SIDED for link in cert.chain
        )
        assert cert.verdict.level == 1
        # the reported endpoints are the original ones
        assert cert.u == u and cert.u_prime == v
        assert cert.samples[0] == rec.replacement

    def test_equal_sets_certify_trivially(self):
        cert = wc.certify(P, prod_u("5/2"), prod_u("27/10"))
        assert cert.walls == ()
        assert cert.verdict.mode == wc.MODE_FULL
        assert len(cert.samples) == 2
        assert [link.relation for link in cert.chain] == [wc.RELATION_EQUAL]
