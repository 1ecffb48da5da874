"""Seeded input generators for the three workloads.

Everything is drawn from `random.Random(seed)` before any timing starts, and
uses only `oracle`, never the program, so the program receives nothing but
the generated classes and command lines.  `reduced_class` and
`off_wall_pair` draw in the same order as the criterion-4 generator of the
test suite, so `certify_pairs(0xACCE55)` is the criterion-4 population.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle

CERTIFY_SEED = 0xACCE55
CERTIFY_PAIRS = 1000  # the size of CERTIFY_MAKEUP
CERTIFY_DEPTH_CAP = 10
CERTIFY_DRAWS = 4000  # see certify_pairs
WEYL_CASES = 2000


def reduced_class(rng: random.Random, k: int) -> tuple:
    """A reduced forward class on blow_up(k) with small-denominator areas."""
    while True:
        nu = rng.randint(4, 12)
        cs = sorted(
            (
                Fraction(rng.randint(1, 3 * nu), 3 * rng.choice((1, 2, 3, 4, 5)))
                for _ in range(k)
            ),
            reverse=True,
        )
        top = sum(cs[:3]) if k >= 3 else sum(cs)
        if k >= 3 and nu < top:
            continue
        u = oracle.flip_areas((Fraction(nu), *cs))
        if oracle.is_forward(k, u) and oracle.is_reduced(u):
            return u


def off_wall(k: int, depth: int, *classes) -> bool:
    """True when no candidate down to square -depth has zero area on a class."""
    ws = [oracle.integral(u) for u in classes]
    return not any(
        oracle.pairing(w, a) == 0 for a in oracle.pool(k, depth) for w in ws
    )


def off_wall_pair(rng: random.Random, k: int, depth_cap: int = CERTIFY_DEPTH_CAP):
    """A reduced pair, distinct, of joint certified depth <= depth_cap, off all walls."""
    while True:
        u = reduced_class(rng, k)
        v = reduced_class(rng, k)
        if u == v:
            continue
        depth = oracle.pair_depth(k, u, v)
        if depth > depth_cap:
            continue
        if off_wall(k, depth, u, v):
            return u, v


def needs_perturbation(k: int, u, v) -> bool:
    """True when two different walls cross the segment at the same t*."""
    _, _, only_u, only_v = oracle.verdict(k, u, v)
    seen = {}
    for a in only_u | only_v:
        pu, pv = oracle.pairing(u, a), oracle.pairing(v, a)
        normal = oracle.primitive(a)
        if seen.setdefault(pu / (pu - pv), normal) != normal:
            return True
    return False


def stratum(k: int, u, v) -> tuple:
    """The class of a pair that sets most of its certify cost.

    The blow-up count, the certified depth (grouped where the cost hardly
    changes), and, on blowup:5, whether the segment must be perturbed first,
    which costs several times a plain pair there.
    """
    if k == 5 and needs_perturbation(k, u, v):
        return (5, 0, True)
    return (k, min(max(oracle.pair_depth(k, u, v), 3), 5 if k <= 3 else 7), False)


# Make-up of the first 1000 criterion-4 pairs (seed 0xACCE55) by stratum.
# Every seed draws this make-up, so runs on different seeds do the same
# amount of work; on the default seed the pairs are exactly the criterion-4
# ones, in order.  Regenerate with `python3 perfbench/inputs.py`.
CERTIFY_MAKEUP = {
    (1, 3, False): 178, (1, 4, False): 7, (1, 5, False): 10,
    (2, 3, False): 113, (2, 4, False): 78, (2, 5, False): 25,
    (3, 3, False): 33, (3, 4, False): 120, (3, 5, False): 58,
    (4, 3, False): 7, (4, 4, False): 69, (4, 5, False): 89,
    (4, 6, False): 8, (4, 7, False): 2,
    (5, 0, True): 5, (5, 4, False): 32, (5, 5, False): 111,
    (5, 6, False): 53, (5, 7, False): 2,
}


def certify_pairs(
    seed: int, makeup: dict = CERTIFY_MAKEUP, draws: int = CERTIFY_DRAWS
) -> list[tuple]:
    """(k, u, v) pairs on blow_up(1..5): of `draws` criterion-4 draws, the
    first of each stratum up to its quota in `makeup`, in draw order.

    Every seed makes the same number of draws, so set-up costs the same on
    every seed: filling the quotas alone took 1680 to 3158 draws over 20
    seeds, and set-up time moved with it.  Draws go on past `draws` only
    while a quota is still open.
    """
    rng = random.Random(seed)
    left = dict(makeup)
    count = sum(makeup.values())
    out = []
    made = 0
    while made < draws or len(out) < count:
        made += 1
        k = rng.randint(1, 5)
        u, v = off_wall_pair(rng, k)
        key = stratum(k, u, v)
        if left.get(key, 0) > 0:
            left[key] -= 1
            out.append((k, u, v))
    return out


def criterion4_makeup(count: int = CERTIFY_PAIRS) -> dict:
    """Strata of the first `count` criterion-4 pairs."""
    rng = random.Random(CERTIFY_SEED)
    makeup: dict = {}
    for _ in range(count):
        k = rng.randint(1, 5)
        key = stratum(k, *off_wall_pair(rng, k))
        makeup[key] = makeup.get(key, 0) + 1
    return dict(sorted(makeup.items()))


def weyl_word(rng: random.Random, k: int, length: int) -> tuple:
    """`length` moves, each a swap E_i <-> E_j or a Cremona move on i < j < l."""
    word = []
    for _ in range(length):
        if rng.random() < 0.5:
            word.append(("swap", tuple(sorted(rng.sample(range(1, k + 1), 2)))))
        else:
            word.append(("cremona", tuple(sorted(rng.sample(range(1, k + 1), 3)))))
    return tuple(word)


def weyl_cases(seed: int, count: int = WEYL_CASES) -> list[tuple]:
    """(k, reduced u, word g, g.u) on blow_up(3..8), words of 1 to 5 moves.

    The cases fill the 30 cells (blow-up count, word length) in turn, so
    every seed draws the same make-up: drawn at random, the number of k = 8
    cases moved from 312 to 369 over seeds 1..8, and the pass time with it.
    """
    rng = random.Random(seed)
    cells = [(k, length) for length in range(1, 6) for k in range(3, 9)]
    out = []
    for i in range(count):
        k, length = cells[i % len(cells)]
        u = reduced_class(rng, k)
        word = weyl_word(rng, k, length)
        out.append((k, u, word, oracle.apply_word(k, word, u)))
    return out


def class_at_depth(rng: random.Random, k: int, depth: int) -> tuple:
    """A reduced class of certified depth exactly `depth`."""
    while True:
        u = reduced_class(rng, k)
        if oracle.certified_depth(k, u) == depth:
            return u


def pair_at_depth(rng: random.Random, k: int, depth: int) -> tuple:
    """Two distinct reduced classes, each of certified depth `depth`."""
    while True:
        u = class_at_depth(rng, k, depth)
        v = class_at_depth(rng, k, depth)
        if u != v:
            return u, v


def area_text(u) -> str:
    """The CLI's area-vector argument for a class: nu,c_1,...,c_k."""
    return ",".join(str(Fraction(c)) for c in oracle.flip_areas(u))


def generic_off_wall_pair(rng: random.Random, k: int, depth: int) -> tuple:
    """A pair of certified depth `depth`, off all walls, needing no perturbation."""
    while True:
        u, v = pair_at_depth(rng, k, depth)
        if not off_wall(k, depth, u, v):
            continue
        if not needs_perturbation(k, u, v):
            return u, v


def capacity_base(rng: random.Random, k_base: int, weights) -> tuple:
    """A reduced class whose capacity ray meets no fiber class at capacity 0."""
    k = k_base + len(weights)
    d = (0,) * (k_base + 1) + tuple(weights)
    fibers = [a for a in oracle.candidates(k, 0) if oracle.pairing(d, a) > 0]
    while True:
        u = reduced_class(rng, k_base)
        u0 = u + (0,) * len(weights)
        if all(oracle.pairing(u0, a) != 0 for a in fibers):
            return u


def fixed_capacities(rng: random.Random, u) -> tuple:
    """Two ball capacities that keep every exceptional class of the target positive."""
    k_base = len(u) - 1
    smallest = oracle.flip_areas(u)[-1]
    while True:
        caps = tuple(smallest * Fraction(rng.randint(1, 6), 8) for _ in range(2))
        uc = oracle.flip_areas(oracle.flip_areas(u) + caps)
        if oracle.is_forward(k_base + 2, uc) and all(
            oracle.pairing(uc, a) > 0 for a in oracle.candidates(k_base + 2, -1)
        ):
            return caps


def cli_requests(seed: int) -> tuple[list[tuple[str, list[str]]], dict]:
    """The command lines of one pass, labelled, and what their checks need.

    Depths are fixed per request, so the seed changes the classes but not
    the size of the candidate pools each request builds.
    """
    rng = random.Random(seed)
    ctx = {}
    ctx["sets8"] = class_at_depth(rng, 8, 6)
    ctx["g8"] = weyl_word(rng, 8, rng.randint(1, 5))
    ctx["sets7"] = class_at_depth(rng, 7, 6)
    ctx["g7"] = weyl_word(rng, 7, rng.randint(1, 5))
    ctx["pair8"] = pair_at_depth(rng, 8, 5)
    ctx["pair7"] = pair_at_depth(rng, 7, 6)
    ctx["certify7"] = generic_off_wall_pair(rng, 7, 5)
    ctx["strata8"] = class_at_depth(rng, 8, 5)
    ctx["weights"] = (rng.randint(1, 3), rng.randint(1, 3))
    ctx["capacities6"] = capacity_base(rng, 6, ctx["weights"])
    ctx["caps"] = fixed_capacities(rng, ctx["capacities6"])

    t = area_text
    g8u = oracle.apply_word(8, ctx["g8"], ctx["sets8"])
    g7u = oracle.apply_word(7, ctx["g7"], ctx["sets7"])
    certified = ["--tier", "cremona_certified"]
    a8, b8 = ctx["pair8"]
    a7, b7 = ctx["pair7"]
    c7, d7 = ctx["certify7"]
    requests = [
        ("sets8", ["sets", "--surface", "blowup:8", "--u", t(ctx["sets8"])]),
        ("sets8g", ["sets", "--surface", "blowup:8", "--u", t(g8u)]),
        ("sets7", ["sets", "--surface", "blowup:7", "--u", t(ctx["sets7"]), *certified]),
        ("sets7g", ["sets", "--surface", "blowup:7", "--u", t(g7u), *certified]),
        ("diff8", ["diff", "--surface", "blowup:8", "--u", t(a8), "--v", t(b8)]),
        ("stability8", ["stability", "--surface", "blowup:8", "--u", t(a8), "--v", t(b8)]),
        ("diff7", ["diff", "--surface", "blowup:7", "--u", t(a7), "--v", t(b7)]),
        ("stability7", ["stability", "--surface", "blowup:7", "--u", t(a7), "--v", t(b7)]),
        ("certify7", ["certify", "--surface", "blowup:7", "--u", t(c7), "--v", t(d7)]),
        ("strata8", ["strata", "--surface", "blowup:8", "--u", t(ctx["strata8"]), "--level", "8"]),
        (
            "capacities6",
            [
                "capacities", "--surface", "blowup:6", "--u", t(ctx["capacities6"]),
                "--weights", ",".join(map(str, ctx["weights"])), "--square-min", "-5",
            ],
        ),
        (
            "blowup6",
            [
                "capacities", "--surface", "blowup:6", "--u", t(ctx["capacities6"]),
                "--capacities", ",".join(map(str, ctx["caps"])),
            ],
        ),
        ("enumerate8", ["enumerate", "--surface", "blowup:8", "--square", "-5"]),
    ]
    return [(label, argv + ["--format", "json"]) for label, argv in requests], ctx


if __name__ == "__main__":
    print(criterion4_makeup())
