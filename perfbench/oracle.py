"""Independent arithmetic for checking wallcross outputs.

Every workload of the benchmark lives on the plane blown up in k points.
Classes are plain tuples in the basis H, E_1, ..., E_k, so the curve
dH - m_1 E_1 - ... is (d, -m_1, ...), and a symplectic class with areas
(nu; c_1, ..., c_k) is (nu, -c_1, ..., -c_k).  Nothing here imports the
program: the candidates come from a coordinate-by-coordinate search inside
the Cauchy-Schwarz window for the degree, not from the program's
multiset-and-permutation enumerator, and every pairing is a plain integer
(or Fraction) sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, isqrt, lcm
from operator import mul


def pairing(x, y):
    """The blow-up form x0 y0 - x1 y1 - ... - xk yk."""
    return x[0] * y[0] - sum(map(mul, x[1:], y[1:]))


def square(x):
    return pairing(x, x)


def canonical(k: int) -> tuple[int, ...]:
    return (-3,) + (1,) * k


def adjunction_defect(k: int, a) -> int:
    return pairing(canonical(k), a) + square(a) + 2


def is_forward(k: int, u) -> bool:
    return square(u) > 0 and pairing(u, canonical(k)) < 0


def flip_areas(x):
    """Areas (nu; c_1, ...) to coordinates and back: the map is an involution."""
    return (x[0],) + tuple(-c for c in x[1:])


def is_reduced(u) -> bool:
    a = flip_areas(u)
    nu, cs = a[0], list(a[1:])
    if any(cs[i] < cs[i + 1] for i in range(len(cs) - 1)):
        return False
    if cs and cs[-1] < 0:
        return False
    padded = cs + [0] * (3 - len(cs))
    return nu >= padded[0] + padded[1] + padded[2]


def integral(u) -> tuple[int, ...]:
    """A positive integer multiple of a rational class."""
    den = 1
    for c in u:
        den = lcm(den, Fraction(c).denominator)
    return tuple(int(c * den) for c in u)


def certified_depth(k: int, u) -> int:
    """Least n such that no candidate of square below -n pairs positively with u.

    With x = -A.A >= 3 and K.A = x - 2, Cauchy-Schwarz in the complement of u
    turns u.A > 0 into (x - 2)^2 < beta x, beta = ((u.K)^2 - u.u K.K) / u.u.
    beta does not change when u is scaled, so it is computed in integers.
    """
    u = integral(u)
    uu = square(u)
    uk = pairing(u, canonical(k))
    beta = Fraction(uk * uk - uu * (9 - k), uu)
    x = max(3, ceil((4 + beta) / 2))
    while x * x - (4 + beta) * x + 4 < 0:
        x += 1
    return max(2, x - 1)


def primitive(a) -> tuple[int, ...]:
    """a divided by the gcd of its entries, first nonzero entry positive."""
    g = 0
    for c in a:
        g = gcd(g, c)
    a = tuple(c // g for c in a)
    return a if next(c for c in a if c) > 0 else tuple(-c for c in a)


def pair_depth(k: int, u, v) -> int:
    return max(certified_depth(k, u), certified_depth(k, v))


@lru_cache(maxsize=None)
def candidates(k: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Every class of square s <= 0 and adjunction defect 0 on blow_up(k), 1 <= k <= 8.

    The E-coordinates must sum to c - 3d and have square sum d^2 - s, where
    c = s + 2; Cauchy-Schwarz between the two confines d to the interval
    where (9 - k) d^2 - 6 c d + c^2 + k s <= 0.  Inside it each coordinate is
    chosen in turn from the box |a| <= sqrt(remaining square budget).
    """
    c = s + 2
    disc = 36 * c * c - 4 * (9 - k) * (c * c + k * s)
    if disc < 0:
        return ()
    r = isqrt(disc)
    lo = (6 * c - r) // (2 * (9 - k)) - 2
    hi = (6 * c + r) // (2 * (9 - k)) + 2
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def fill(d: int, slots: int, rem_sum: int, rem_sq: int) -> None:
        if slots == 2:
            # a + b = rem_sum and a^2 + b^2 = rem_sq: (a - b)^2 = 2 rem_sq - rem_sum^2
            gap2 = 2 * rem_sq - rem_sum * rem_sum
            if gap2 < 0:
                return
            gap = isqrt(gap2)
            if gap * gap != gap2 or (rem_sum + gap) % 2:
                return
            a, b = (rem_sum - gap) // 2, (rem_sum + gap) // 2
            out.append((d, *acc, a, b))
            if a != b:
                out.append((d, *acc, b, a))
            return
        if rem_sum * rem_sum > slots * rem_sq:
            return
        m = isqrt(rem_sq)
        for a in range(-m, m + 1):
            acc.append(a)
            fill(d, slots - 1, rem_sum - a, rem_sq - a * a)
            acc.pop()

    for d in range(lo, hi + 1):
        if (9 - k) * d * d - 6 * c * d + c * c + k * s > 0:
            continue
        q = d * d - s
        if k == 1:
            if (c - 3 * d) ** 2 == q:
                out.append((d, c - 3 * d))
            continue
        fill(d, k, c - 3 * d, q)
    return tuple(sorted(out))


def pool(k: int, depth: int) -> tuple[tuple[int, ...], ...]:
    """Candidates with square in [-depth, -1]."""
    out: list[tuple[int, ...]] = []
    for s in range(-1, -depth - 1, -1):
        out.extend(candidates(k, s))
    return tuple(out)


def sphere_set(k: int, u, depth: int) -> frozenset:
    """Candidates with square in [-depth, -1] and u.A > 0, by integer pairing."""
    w = integral(u)
    return frozenset(a for a in pool(k, depth) if pairing(w, a) > 0)


def verdict(k: int, u, v) -> tuple[str, int | None, frozenset, frozenset]:
    """(mode, level, only_u, only_v) at the certified depth of the pair."""
    depth = pair_depth(k, u, v)
    su = sphere_set(k, u, depth)
    sv = sphere_set(k, v, depth)
    only_u, only_v = su - sv, sv - su
    diff = only_u | only_v
    if not diff:
        return "full", None, only_u, only_v
    top = max(square(a) for a in diff)
    if top == -1:
        return "none", None, only_u, only_v
    return "level", -top - 1, only_u, only_v


def root(k: int, kind: str, indices) -> tuple[int, ...]:
    """The root of a swap E_i - E_j or of a Cremona move H - E_i - E_j - E_l."""
    r = [0] * (k + 1)
    if kind == "swap":
        i, j = indices
        r[i], r[j] = 1, -1
    else:
        r[0] = 1
        for i in indices:
            r[i] = -1
    return tuple(r)


def reflect(x, r):
    """x + (x.r) r for a root r (r.r = -2)."""
    t = pairing(x, r)
    return tuple(c + t * e for c, e in zip(x, r))


def apply_word(k: int, word, x):
    for kind, indices in word:
        x = reflect(x, root(k, kind, indices))
    return x


def simple_roots(k: int) -> list[tuple[int, ...]]:
    """E_i - E_{i+1} for 1 <= i < k and, when k >= 3, H - E_1 - E_2 - E_3."""
    out = [root(k, "swap", (i, i + 1)) for i in range(1, k)]
    if k >= 3:
        out.append(root(k, "cremona", (1, 2, 3)))
    return out
