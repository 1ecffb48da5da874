"""The integer lattice kernel against its Fraction reference.

`reduce`, `validate_forward`, `is_reduced` and `full_search_depth` run on
the integer area vector of `lattice.integral_dual`.  The reference versions
below compute the same things the direct way, with `Fraction` pairings
against the basis and one reflection per Weyl move; the kernel must agree
with them on results, on Weyl words and on the exact error text.
"""

import random
from decimal import Decimal
from fractions import Fraction
from math import ceil

import pytest

import wallcross as wc
from wallcross import MissingBoundsError, ValidationError

from _support import random_forward_product, random_reduced_blowup

DENOMINATORS = (1, 2, 3, 5, 7, 12)


# ---------------------------------------------------------------------------
# Fraction reference


def ref_areas(surface, u):
    return tuple(Fraction(wc.pairing(surface, u, e)) for e in surface.basis())


def ref_render_areas(surface, u):
    a = ref_areas(surface, u)
    if surface.kind == wc.PRODUCT:
        return f"({a[0]}, {a[1]})"
    inner = ", ".join(str(v) for v in a[1:])
    return f"({a[0]}; {inner})" if inner else f"({a[0]})"


def ref_is_forward(surface, u):
    return (
        wc.square(surface, u) > 0
        and wc.pairing(surface, u, surface.canonical) < 0
    )


def ref_validate_forward(surface, u):
    if wc.square(surface, u) <= 0:
        raise ValidationError(
            f"class {wc.render(surface, u)} is not forward: square "
            f"{wc.square(surface, u)} <= 0"
        )
    if wc.pairing(surface, u, surface.canonical) >= 0:
        raise ValidationError(
            f"class {wc.render(surface, u)} is not forward: pairing with the "
            f"canonical class is >= 0"
        )


def ref_is_reduced(surface, u):
    a = ref_areas(surface, u)
    if surface.kind == wc.PRODUCT:
        return a[0] >= a[1]
    nu, cs = a[0], list(a[1:])
    if any(cs[i] < cs[i + 1] for i in range(len(cs) - 1)):
        return False
    if cs and cs[-1] < 0:
        return False
    padded = cs + [Fraction(0)] * (3 - len(cs))
    return nu >= padded[0] + padded[1] + padded[2]


def ref_reduce(surface, u):
    ref_validate_forward(surface, u)
    word = []
    if surface.kind == wc.PRODUCT:
        b_area, f_area = ref_areas(surface, u)
        if b_area < f_area:
            move = wc.WeylMove("swap")
            u = wc.apply_move(surface, move, u)
            word.append(move)
        return u, tuple(word)
    k = surface.k
    current = u
    while True:
        changed = True
        while changed:
            changed = False
            a = ref_areas(surface, current)
            for i in range(1, k):
                if a[i] < a[i + 1]:
                    move = wc.WeylMove("swap", (i, i + 1))
                    current = wc.apply_move(surface, move, current)
                    word.append(move)
                    a = ref_areas(surface, current)
                    changed = True
        a = ref_areas(surface, current)
        nu, cs = a[0], list(a[1:])
        padded = cs + [Fraction(0)] * (3 - len(cs))
        if nu >= padded[0] + padded[1] + padded[2]:
            break
        if k < 3:
            raise ValidationError(
                f"class {wc.render(surface, current)} cannot be reduced: "
                f"nu < c_1 + c_2 + c_3 but fewer than three blow-up indices "
                f"exist, so no Cremona move is available"
            )
        move = wc.WeylMove("cremona", (1, 2, 3))
        current = wc.apply_move(surface, move, current)
        word.append(move)
    a = ref_areas(surface, current)
    if any(c < 0 for c in a[1:]):
        raise ValidationError(
            f"class {wc.render(surface, u)} lies outside the standard symplectic "
            f"cone: reduction ends with a negative blow-up area "
            f"({ref_render_areas(surface, current)})"
        )
    return current, tuple(word)


def ref_full_search_depth(surface, u):
    ref_validate_forward(surface, u)
    if surface.kind == wc.BLOWUP and surface.k == 9:
        raise MissingBoundsError(
            "the 9-fold blow-up has no finite full sphere-class set; "
            "supply bounds.square_min (and a coefficient box)"
        )
    uu = wc.square(surface, u)
    uk = wc.pairing(surface, u, surface.canonical)
    beta = Fraction(uk * uk - uu * surface.canonical_square, uu)
    x = max(3, ceil(Fraction(4 + beta, 2)))
    while x * x - (4 + beta) * x + 4 < 0:
        x += 1
    return max(2, x - 1)


# ---------------------------------------------------------------------------
# Inputs


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValidationError, MissingBoundsError) as e:
        return type(e).__name__, str(e)


def random_class(rng, surface):
    """A class near the forward cone, with one denominator or int coordinates.

    The areas are mostly positive with nu of their size, and a tenth of the
    draws are negated, so the draw hits reducible classes, both kinds of
    non-forward class, classes outside the standard cone and, on k = 2,
    classes with nu < c_1 + c_2 and no Cremona move.
    """
    den = rng.choice(DENOMINATORS + (None,))
    scale = den or 1
    n = surface.rank
    areas = [rng.randint(-2 * scale, 9 * scale) for _ in range(n - 1)]
    top = sum(sorted(areas, reverse=True)[:3])
    nu = rng.randint(max(1, top // 3), max(2, top + 3 * scale))
    if surface.kind == wc.PRODUCT:
        # areas (u.B, u.F) are the coordinates (x_1, x_0)
        coords = [rng.randint(-2 * scale, 9 * scale), nu]
    else:
        coords = [nu] + [-a for a in areas]
    if rng.random() < 0.1:
        coords = [-c for c in coords]  # the backward cone: u.K > 0
    if den is not None:
        coords = [Fraction(c, den) for c in coords]
    return wc.SymplecticClass(tuple(coords))


def surfaces():
    return [wc.product()] + [wc.blow_up(k) for k in range(10)]


# ---------------------------------------------------------------------------
# Agreement


def test_kernel_matches_the_fraction_reference():
    rng = random.Random(8801)
    paths = dict.fromkeys(
        ("reduced", "square", "canonical", "no Cremona", "outside", "int only"), 0
    )
    for surface in surfaces():
        # Forward classes without a Cremona move exist only on k = 2.
        for _ in range(600 if surface == wc.blow_up(2) else 150):
            u = random_class(rng, surface)
            if all(isinstance(c, int) for c in u.coords):
                paths["int only"] += 1
            assert wc.is_forward(surface, u) == ref_is_forward(surface, u)
            assert outcome(wc.validate_forward, surface, u) == outcome(
                ref_validate_forward, surface, u
            )
            assert wc.is_reduced(surface, u) == ref_is_reduced(surface, u)
            assert wc.areas(surface, u) == ref_areas(surface, u)
            got = outcome(wc.reduce, surface, u)
            assert got == outcome(ref_reduce, surface, u)
            assert outcome(wc.full_search_depth, surface, u) == outcome(
                ref_full_search_depth, surface, u
            )
            if got[0] == "ok":
                paths["reduced"] += 1
                assert wc.is_reduced(surface, got[1][0])
            elif "not forward: square" in got[1]:
                paths["square"] += 1
            elif "not forward: pairing" in got[1]:
                paths["canonical"] += 1
            elif "no Cremona move" in got[1]:
                paths["no Cremona"] += 1
            elif "outside the standard" in got[1]:
                paths["outside"] += 1
    assert min(paths.values()) >= 20, paths


def test_reduce_keeps_the_input_object_when_no_move_is_needed():
    s = wc.blow_up(3)
    u = wc.SymplecticClass((10, -4, -3, -2))
    red, word = wc.reduce(s, u)
    assert red is u and word == ()
    p = wc.product()
    w = wc.SymplecticClass((1, 3))
    assert wc.reduce(p, w) == (w, ())


def random_word(rng, surface, length):
    indices = range(1, surface.k + 1)
    word = []
    for _ in range(length):
        cremona = surface.k >= 3 and rng.random() < 0.5
        picked = tuple(sorted(rng.sample(indices, 3 if cremona else 2)))
        word.append(wc.WeylMove("cremona" if cremona else "swap", picked))
    return word


def test_reduce_undoes_a_random_word():
    rng = random.Random(8802)
    p = wc.product()
    for _ in range(20):
        red, _ = wc.reduce(p, random_forward_product(rng))
        moved = wc.apply_word(p, [wc.WeylMove("swap")] * rng.randint(1, 3), red)
        back, word = wc.reduce(p, moved)
        assert back == red
        assert wc.apply_word(p, word, moved) == red
    for k in range(2, 10):
        s = wc.blow_up(k)
        for _ in range(25):
            red = random_reduced_blowup(rng, k)
            moved = wc.apply_word(s, random_word(rng, s, rng.randint(1, 6)), red)
            back, word = wc.reduce(s, moved)
            assert back == red
            assert wc.apply_word(s, word, moved) == red
            assert (back, word) == ref_reduce(s, moved)


# ---------------------------------------------------------------------------
# Coordinates that are not rational


@pytest.mark.parametrize("bad", [10.0, Decimal("10"), "10"])
def test_non_rational_coordinates_are_rejected_by_name(bad):
    s = wc.blow_up(3)
    u = wc.SymplecticClass((bad, 4, 3, 2))
    v = wc.from_areas(s, (10, 4, 3, 1))
    calls = [
        lambda: wc.validate_forward(s, u),
        lambda: wc.reduce(s, u),
        lambda: wc.full_search_depth(s, u),
        lambda: wc.spherical_set(s, u),
        lambda: wc.certify(s, u, v),
        lambda: wc.certify(s, v, u),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value).startswith(f"coordinate 0 of the class is {bad!r} ")
    u3 = wc.SymplecticClass((10, 4, bad, 2))
    with pytest.raises(ValidationError, match=r"^coordinate 2 "):
        wc.is_forward(s, u3)
