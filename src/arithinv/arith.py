"""Exact and certified-approximate arithmetic primitives.

Integer polynomials are plain coefficient sequences, constant term
first, e.g. ``[-2, 0, 1]`` is x^2 - 2.  Exact work runs on ints: the
Sturm chain is a primitive pseudo-remainder sequence, the linear algebra
is one Bareiss fraction-free elimination (determinants, LDL^T pivots,
and Bezout cofactors from one elimination of an augmented system and an
exact back-substitution), and the characteristic polynomial is
Faddeev-LeVerrier on the integer multiple of a rational matrix, with no
resultant: norms and discriminants are determinants of multiplication
matrices in :mod:`arithinv.numfield`.  ``fractions.Fraction`` carries
only exact inputs and results.
Approximate work runs on fixed-point integers where it loops (root
polishing and the logarithm here, the AGM in :mod:`arithinv.analytic`),
with precisions from :mod:`arithinv.prec`; mpmath values and the double
root seeds, found on the Sturm count's split into real roots and conjugate
pairs, enter exactly, and the roots and logarithms leave as integers.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mpc

from . import prec
from .errors import FactorBudgetExceeded, NoConvergence, NotADiscriminant, NotSquarefree

# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, constant term first)


def poly_normalize(coeffs):
    """Strip trailing zero coefficients; [] is the zero polynomial."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_degree(coeffs):
    c = poly_normalize(coeffs)
    return len(c) - 1 if c else -1


def poly_deriv(coeffs):
    return [i * coeffs[i] for i in range(1, len(coeffs))]


def poly_eval(coeffs, x):
    """Horner evaluation; works for int/Fraction/mpf/mpc arguments."""
    acc = 0 * x
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def _sturm(coeffs):
    """(squarefree, number of distinct real roots) from one Sturm chain.

    The chain is a primitive pseudo-remainder sequence on integers: each
    division step is a <- |lc(b)| a - sign(lc(b)) lc(a) x^k b, and each
    remainder is divided by its content, so every member is a positive
    multiple of the one the exact chain over Q would give, with its signs.
    """
    chain = [poly_normalize(coeffs)]
    chain.append(poly_deriv(chain[0]))
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) >= len(b):
            k, top = len(a) - len(b), sign * a[-1]
            a = poly_normalize([lead * c - top * b[i - k] if i >= k else lead * c
                                for i, c in enumerate(a)])
        if not a:
            break
        g = math.gcd(*a)
        chain.append([-(c // g) for c in a])

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    at_plus = [1 if p[-1] > 0 else -1 for p in chain if p]
    at_minus = [(1 if p[-1] > 0 else -1) * (-1) ** poly_degree(p) for p in chain if p]
    squarefree = len(chain[-1]) == 1
    return squarefree, variations(at_minus) - variations(at_plus)


def real_root_count(coeffs):
    """The real roots of a squarefree integer polynomial, counted exactly."""
    squarefree, n_real = _sturm(coeffs)
    if not squarefree:
        raise NotSquarefree("polynomial has repeated roots")
    return n_real


# ---------------------------------------------------------------------------
# fixed point: an int n stands for n 2^-bits, and a pair (x, y) of ints for
# the Gaussian (x + iy) 2^-bits.  Float seeds enter and mpmath values
# leave exactly.


def to_fixed(x, bits):
    """round(x 2^bits) for a float, taken exactly; the magnitude is rounded
    half up."""
    num, den = x.as_integer_ratio()  # den is a power of 2
    negative, man, shift = num < 0, abs(num), bits + 1 - den.bit_length()
    n = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -n if negative else n


def from_fixed(n, bits):
    """The mpf n 2^-bits, exactly, whatever the working precision."""
    return mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(n, -bits))


def _atanh2(t, w):
    # 2 atanh(t 2^-w) 2^w for 0 <= t <= 2^w / 3 in K terms, each product and
    # quotient rounded down: short by less than 2K + 10 + 2.25 ln 2K units
    t2, s, k = t * t >> w, 0, 1
    while t:
        s, t, k = s + t // k, t * t2 >> w, k + 2
    return 2 * s


@functools.lru_cache(maxsize=None)
def _ln2(block):
    # ln 2 = 2 atanh(1/3) at 2^-(64 block) within one unit, one per block
    w = 64 * block
    g = w.bit_length() + 6
    return _atanh2((1 << w + g) // 3, w + g) + (1 << g - 1) >> g


def log_fixed(n, e, bits):
    """The int L with |L - 2^bits log(n 2^e)| < 1/2 + 1/32 for ints n > 0, e
    and bits >= 16, and < 1 for any bits.

    n 2^e = x 2^c, x in [1/sqrt 2, sqrt 2] from n's leading bits; log x = 2
    atanh((x - 1)/(x + 1)) in K <= w/5 + 2 terms at 2^-w, w = bits + g, g =
    bits.bit_length() + 6, plus c ln 2 from `_ln2`, which depends on bits and
    c alone.  At 2^-w the errors are below 1 (n cut), 2.1 (the rounded atanh
    argument), 2K + 10 + 2.25 ln 2K (the series) and 2 (c ln 2): less than
    2^(g - 5) for bits >= 16 and 2^(g - 1) for any, and rounding adds 1/2.
    """
    if n <= 0:
        raise ValueError("log of %d" % n)  # where the series would not end
    g = bits.bit_length() + 6
    w, m = bits + g, n.bit_length()
    x = (n << w + 1) >> m  # in [2^w, 2^(w+1))
    c, one = e + m - 1, 1 << w
    if x * x > one << w + 1:  # x > sqrt 2: read it as x/2 2^(c+1)
        one, c = one << 1, c + 1
    t = ((x - one) << w) // (x + one)
    s = _atanh2(t, w) if t >= 0 else -_atanh2(-t, w)
    block = -(-(w + c.bit_length()) // 64)
    return s + (c * _ln2(block) >> 64 * block - w) + (1 << g - 1) >> g


# ---------------------------------------------------------------------------
# certified root finding on integers at the fixed point 2^-P (poly_roots):
# one polish keeps real roots real and conjugate pairs exactly conjugate

ROOT_TOL = 1e-18  # the largest error radius poly_roots returns


class ComplexApprox(NamedTuple):
    """(x + iy) 2^-bits for ints x, y, with an absolute error radius err
    covering both parts.  real and imag, exact mpfs, and value, their mpc
    at the caller's working precision, are formed when read."""

    x: int
    y: int
    bits: int
    err: float
    real = property(lambda self: from_fixed(self.x, self.bits))
    imag = property(lambda self: from_fixed(self.y, self.bits))
    value = property(lambda self: mpc(self.real, self.imag))


def _fixed_point_bits(coeffs):
    return prec.bits() + 80 + 20 + max(abs(c).bit_length() for c in coeffs)


def _to_working(n):
    # n rounded to prec.bits() + 80 significant bits, the precision of the
    # returned roots; the rest of the fixed point is guard bits
    shift = n.bit_length() - prec.bits() - 80
    return n if shift <= 0 else ((n + (1 << (shift - 1))) >> shift) << shift


def _horner_fixed(coeffs, x, y, bits):
    # p((x + iy) 2^-bits) 2^(n bits), exactly, as a Gaussian integer
    n = len(coeffs) - 1
    re, im = coeffs[-1], 0
    for k in range(n - 1, -1, -1):
        re, im = re * x - im * y + (coeffs[k] << ((n - k) * bits)), re * y + im * x
    return re, im


def _ratio_up(num, den):
    # the least float >= num / den for ints num >= 0, den > 0; int / int
    # is correctly rounded in Python, so at most one step up is needed
    try:
        f = num / den
    except OverflowError:
        return math.inf
    a, b = f.as_integer_ratio()
    return f if a * den >= num * b else math.nextafter(f, math.inf)


def _root_radius(coeffs, dcoeffs, x, y, bits):
    # deg |p(z)| / |p'(z)| at z = (x + iy) 2^-bits from the exact values,
    # rounded up: |p(z)| = |V| 2^(-n bits) and |p'(z)| = |V'| 2^(-(n-1) bits)
    n = len(coeffs) - 1
    vr, vi = _horner_fixed(coeffs, x, y, bits)
    dr, di = _horner_fixed(dcoeffs, x, y, bits)
    den = (dr * dr + di * di) << (2 * bits)
    if not den:
        return math.inf
    return math.nextafter(math.sqrt(_ratio_up(n * n * (vr * vr + vi * vi), den)), math.inf)


def _apart(a, b, bits):
    # the closed discs (x, y, err) do not meet, decided exactly
    (x, y, e), (u, v, f) = a, b
    r = math.nextafter(e + f, math.inf)  # >= e + f, which rounds by half a unit
    if math.isinf(r):
        return False
    num, den = r.as_integer_ratio()
    return ((x - u) ** 2 + (y - v) ** 2) * den * den > (num * num) << (2 * bits)


def _fujiwara_scaled(coeffs):
    # (s, the doubles of p(2^s y) / (a_n 2^(s n))), whose roots all lie in
    # the unit disc by Fujiwara's bound |x| < 2^s: nothing overflows and no
    # large root is lost
    n = len(coeffs) - 1
    top = abs(coeffs[-1]).bit_length() - 1  # |a_n| >= 2^top
    s = 1 + max(
        (-((top - abs(coeffs[n - i]).bit_length()) // i) for i in range(1, n + 1) if coeffs[n - i]),
        default=0,
    )
    scaled = []
    for k in range(n - 1, -1, -1):  # highest power first, after the leading 1
        e = s * (n - k)
        scaled.append(coeffs[k] / (coeffs[-1] << e) if e >= 0 else (coeffs[k] << -e) / coeffs[-1])
    return s, scaled


def _double_seeds(coeffs, n_real, bits):
    # The split (real roots, pair representatives) for _durand_kerner, by
    # the same sweeps in doubles on _fujiwara_scaled(p), scaled back by 2^s.
    n, (s, scaled) = len(coeffs) - 1, _fujiwara_scaled(coeffs)
    # Start on circles whose radii are the slopes of the Newton polygon,
    # the upper convex hull of (k, log |a_k|), so roots of every size have
    # seeds near them (Bini, Numer. Algorithms 13, 1996); a zero constant
    # term is a simple root at 0.  Of the points at generic angles, the
    # n_real nearest the real axis move onto it, to their circle on their
    # side, and the pairs take those farthest from it.
    hull = []
    for k, c in enumerate(coeffs):
        if c:
            log_c = math.log(abs(c))
            while len(hull) > 1:
                (k0, log0), (k1, log1) = hull[-2:]
                if (k1 - k0) * (log_c - log0) < (log1 - log0) * (k - k0):
                    break
                hull.pop()
            hull.append((k, log_c))
    ys = [0j] * hull[0][0]
    for (k0, log0), (k1, log1) in zip(hull, hull[1:]):
        radius = math.exp(min((log0 - log1) / (k1 - k0) - s * math.log(2), 0.0))
        for j in range(k1 - k0):
            ys.append(radius * cmath.exp(1j * ((2 * math.pi * j + 1.9) / (k1 - k0) + 0.4 * k0)))
    ys.sort(key=lambda y: abs(y.imag) / abs(y) if y else 0.0)
    split = [math.copysign(abs(y), y.real) for y in ys[:n_real]] + [
        complex(y.real, abs(y.imag)) for y in ys[n_real + (n - n_real) // 2 :]
    ]
    noise = [n * 2.0**-50 * abs(c) for c in [1.0] + scaled][::-1]

    def sweep(ys, singles):
        # Sweeps as _durand_kerner's (ys[singles:] stand for pairs) until each
        # step is below 2^-26 of its seed, so the next would be below 2^-52,
        # or |p| is below its rounding bound n 2^-50 sum |a_k| |y|^k (clusters)
        for _ in range(100):
            done = True
            for k, y in enumerate(ys):
                num, den = 1.0, 1.0 if k < singles else 2j * y.imag
                for c in scaled:
                    num = num * y + c
                for j, u in enumerate(ys):
                    if j != k:
                        den *= y - u if j < singles else (y - u.real) ** 2 + u.imag**2
                step = num / den if abs(den) > 2.0**-1000 else 2.0**-20
                done = done and (abs(step) <= 2.0**-26 * abs(y) or abs(num) <= poly_eval(noise, abs(y)))
                y -= step
                if abs(y) > 1:  # back to the disc, which no root leaves
                    y /= abs(y)
                ys[k] = y if k < singles else complex(y.real, abs(y.imag))  # a pair by either member
            if done:
                return True
        return False

    if sweep(split, n_real):  # the reals in real arithmetic
        zs = [(to_fixed(y.real, s + bits), to_fixed(y.imag, s + bits)) for y in split]
        return [x for x, _ in zs[:n_real]], zs[n_real:]
    # Unsettled, as at some near-multiple roots: the n circle points sweep as
    # single seeds, move 2^-20 apart (in a generic direction) where within
    # 2^-20 relative, are polished as Gaussian integers and split to 16 units.
    sweep(ys, n)
    for k in range(1, n):
        if any(abs(ys[k] - y) <= 2.0**-20 * max(abs(ys[k]), abs(y)) for y in ys[:k]):
            ys[k] += 2.0**-20 * max(abs(ys[k]), 2.0**-20) * (0.4 + 0.9j) ** k
    zs = [(to_fixed(y.real, s + bits), to_fixed(y.imag, s + bits)) for y in ys]
    zs = _durand_kerner_complex(coeffs, zs, bits)
    reals = [x for x, y in zs if abs(y) <= 16]
    pairs = [(x, y) for x, y in zs if y > 16 and any(abs(x - u) <= 16 and abs(y + v) <= 16 for u, v in zs)]
    if len(reals) != n_real or n_real + 2 * len(pairs) != n:
        raise NoConvergence("root certificate: non-real seeds are not conjugate pairs")
    return reals, pairs


def _step(coeffs, x, y, wr, wi, bits):
    # p(z) / W at z = (x + iy) 2^-bits, W = (wr + i wi) 2^-((n-1) bits),
    # rounded to the nearest Gaussian integer
    den = wr * wr + wi * wi
    if not den:
        raise NoConvergence("root polish: two approximations met")
    vr, vi = _horner_fixed(coeffs, x, y, bits)
    return (2 * (vr * wr + vi * wi) + den) // (2 * den), (2 * (vi * wr - vr * wi) + den) // (2 * den)


def _durand_kerner_complex(coeffs, zs, bits):
    # Gauss-Seidel Weierstrass sweeps on Gaussian integers, W(z_k) = a_n
    # prod_j (z_k - z_j), until no step exceeds one unit in either part
    for _ in range(400):
        converged = True
        for k, (x, y) in enumerate(zs):
            wr, wi = coeffs[-1], 0
            for j, (u, v) in enumerate(zs):
                if j != k:
                    wr, wi = wr * (x - u) - wi * (y - v), wr * (y - v) + wi * (x - u)
            sr, si = _step(coeffs, x, y, wr, wi, bits)
            zs[k] = (x - sr, y - si)
            converged = converged and abs(sr) <= 1 and abs(si) <= 1
        if converged:
            return zs
    raise NoConvergence("root polish: Durand-Kerner did not converge")


def _durand_kerner(coeffs, reals, pairs, bits):
    # Gauss-Seidel Weierstrass sweeps on _double_seeds' split, in units of
    # 2^-bits, over the other real roots x_j and representatives w = u + iv:
    # W(x) = a_n prod (x - x_j) prod ((x - u)^2 + v^2) for a real x, and
    # W(z) = a_n (2iy) prod (z - x_j) prod (z - w)(z - conj w) for z = x +
    # iy.  Done once no step exceeds one unit.
    lead = coeffs[-1]
    for _ in range(400):
        converged = True
        for k, x in enumerate(reals):
            w = lead * math.prod(x - u for j, u in enumerate(reals) if j != k)
            w *= math.prod((x - u) ** 2 + v * v for u, v in pairs)
            if not w:
                raise NoConvergence("root polish: two approximations met")
            step = (2 * _horner_fixed(coeffs, x, 0, bits)[0] + w) // (2 * w)
            reals[k] = x - step
            converged = converged and abs(step) <= 1
        for k, (x, y) in enumerate(pairs):
            wr, wi = 0, 2 * lead * y
            for u in reals:
                wr, wi = wr * (x - u) - wi * y, wr * y + wi * (x - u)
            for j, (u, v) in enumerate(pairs):
                if j != k:  # (z - u)^2 + v^2
                    a, b = (x - u) ** 2 - y * y + v * v, 2 * (x - u) * y
                    wr, wi = wr * a - wi * b, wr * b + wi * a
            sr, si = _step(coeffs, x, y, wr, wi, bits)
            pairs[k] = (x - sr, abs(y - si))  # either member stands for the pair
            converged = converged and abs(sr) <= 1 and abs(si) <= 1
        if converged:
            return reals, pairs
    raise NoConvergence("root polish: Durand-Kerner did not converge")


def poly_roots(coeffs):
    """All complex roots of a squarefree integer polynomial, certified.

    Seed on the split: the exact Sturm count gives n_real real roots and
    (n - n_real)/2 conjugate pairs, and Durand-Kerner in double precision
    on the polynomial rescaled into the unit disc (Fujiwara's bound) runs
    on n_real real seeds in real arithmetic and one seed, Im > 0, per pair.
    Unsettled after 100 sweeps, all n start again as single complex seeds,
    nudged 2^-20 apart where they nearly meet, are polished as Gaussian
    integers and split at convergence.  Polish: Durand-Kerner on the split,
    real roots in real arithmetic and each pair once, at the fixed point
    2^-P, P the working precision + 80 + 20 guard bits + the largest
    coefficient's bit length, so the absolute stopping rule is relative to
    the largest root the Cauchy bound allows.  Certify: every radius is
    deg |p| / |p'| evaluated exactly at the returned dyadic point and
    rounded up, and the n discs are pairwise disjoint, so they hold n
    distinct roots.

    Returns ComplexApprox roots at 2^-P, each radius <= ROOT_TOL: the real
    ones ascending, then the conjugate pairs by real part, each as (its Im
    > 0 member, the exact conjugate).
    """
    coeffs = poly_normalize(coeffs)
    if len(coeffs) < 2:
        raise NoConvergence("degree must be >= 1")
    n_real = real_root_count(coeffs)
    bits = _fixed_point_bits(coeffs)
    return _certify_roots(coeffs, *_durand_kerner(coeffs, *_double_seeds(coeffs, n_real, bits), bits), bits)


def _certify_roots(coeffs, reals, pairs, bits):
    # each root is rounded to the working precision + 80 bits, then certified
    dcoeffs = poly_deriv(coeffs)
    discs = []
    for x, y, kind in [(x, 0, "real") for x in sorted(reals)] + [(*z, "complex") for z in sorted(pairs)]:
        x, y = _to_working(x), _to_working(y)
        err = _root_radius(coeffs, dcoeffs, x, y, bits)
        if not err <= ROOT_TOL:
            raise NoConvergence("root certificate: %s root radius %.3g > ROOT_TOL" % (kind, err))
        discs += [(x, y, err), (x, -y, err)] if kind == "complex" else [(x, 0, err)]  # y > 0 or they meet
    for a, b in itertools.combinations(discs, 2):
        if not _apart(a, b, bits):
            raise NoConvergence("root certificate: two root discs overlap")
    return [ComplexApprox(x, y, bits, err) for x, y, err in discs]


# ---------------------------------------------------------------------------
# primes and factorization

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), sieve))


_TRIAL_PRIMES = _primes_below(2**10)


def is_prime(n):
    """Miller-Rabin to the prime bases 2..41: deterministic below
    psi_13 = 3317044064679887385961981 (Sorenson-Webster, Math. Comp. 86,
    2017), a probable-prime test above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n, budget):
    # Brent's cycle variant; returns a nontrivial factor or None.
    if n % 2 == 0:
        return 2
    used = 0
    c = 1
    while used < budget:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g
        c += 1
    return None


RHO_BUDGET = 10**7


class Factorization(NamedTuple):
    sign: int
    factors: tuple  # ((prime, exponent), ...) sorted by prime


def factorize(n, rho_budget=RHO_BUDGET):
    """Factor a nonzero integer: trial division by the primes below 2^10,
    stopping once p^2 exceeds the cofactor; a cofactor below 1031^2 (1031
    the next prime) is then prime, and each larger one that is_prime
    rejects is split at its square root if it is a square, else by Brent's
    rho (BIT 20, 1980), whose steps rho_budget bounds per call."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    factors = {}
    v = abs(n)
    for p in _TRIAL_PRIMES:
        if p * p > v:
            break
        if v % p == 0:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            factors[p] = e
    stack = [v]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if v < 1031**2 or is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        r = math.isqrt(v)  # a square cofactor, as of p^4 in a discriminant, needs no rho
        g = r if r * r == v else _brent_rho(v, rho_budget)
        if g is None:
            raise FactorBudgetExceeded("rho budget exhausted on %d" % v)
        stack.extend([g, v // g])
    return Factorization(sign, tuple(sorted(factors.items())))


# ---------------------------------------------------------------------------
# fundamental units of real quadratic orders (continued fractions)


def pell_fundamental_solution(D):
    """(t, u) with (t + u sqrt D)/2 the fundamental unit > 1 of the real
    quadratic order of discriminant D: D > 1, 0 or 1 mod 4, not a square.

    Walks the continued fraction of omega = (s + sqrt D)/2, s = D mod 2
    (Cohen, GTM 138, Sec. 5.7); the first convergent p/q for which x + y
    omega = p - q conj(omega) has norm x^2 + sxy + y^2 (s - D)/4 = +-1
    gives it, with t = 2x + sy and u = y.
    """
    if D <= 1 or D % 4 > 1 or math.isqrt(D) ** 2 == D:
        raise NotADiscriminant("D = %d is not a non-square discriminant > 1 (0 or 1 mod 4)" % D)
    s, sq = D % 2, math.isqrt(D)
    pp, qq = s, 2  # the complete quotient (pp + sqrt D) / qq, from omega
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    limit = 20 * (sq + 2) * (D.bit_length() + 2) + 64
    for _ in range(limit):
        a = (pp + sq) // qq
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        pp = a * qq - pp
        qq = (D - pp * pp) // qq
        x, y = p_cur - s * q_cur, q_cur
        if abs(x * x + s * x * y + y * y * ((s - D) // 4)) == 1:
            return 2 * x + s * y, y
    raise NoConvergence("continued fraction period not found for D=%d" % D)


# ---------------------------------------------------------------------------
# exact linear algebra on integers


def _integer_rows(rows):
    """(d, d * rows), d the least common denominator of the entries: ints,
    Fractions or floats, each exactly as stored (floats are dyadic)."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    d = math.lcm(*(den for row in ratios for _, den in row))
    return d, [[num * (d // den) for num, den in row] for row in ratios]


def _bareiss(rows, exchange):
    """Leading principal minors of d * rows (`_integer_rows`) by Bareiss
    elimination, which carries an augmented column n + 1 along.

    Returns (d, sign, minors, a); from column k on, row k of a is the
    triangular system's k-th row, with pivot minors[k].  With exchange, a
    zero pivot is swapped for a later row, sign records the swaps, and the
    minors are those of the permuted matrix; without, or when no row is
    left to swap in, elimination stops at the zero pivot, which ends the
    list.
    """
    d, a = _integer_rows(rows)
    n = len(a)
    sign, prev, minors = 1, 1, []
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None) if exchange else None
            if swap is None:
                minors.append(0)
                break
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
        minors.append(pivot)
    return d, sign, minors, a


def frac_det(rows):
    """Exact determinant, by Bareiss elimination with row exchanges."""
    d, sign, minors, _ = _bareiss(rows, exchange=True)
    return Fraction(sign * minors[-1], d ** len(minors)) if minors else Fraction(1)


def ldl_pivots(rows):
    """Exact pivots d_1, d_2, ... of A = L D L^T for a symmetric matrix A.

    Every entry counts exactly as stored, so for a Gram matrix of floats
    this decides positive definiteness of the matrix the caller holds: it
    is positive definite iff every pivot is positive, and the product of
    the pivots is its determinant.  The k-th pivot is the ratio of the
    k-th and (k-1)-th leading principal minors.  The list ends early at a
    zero pivot, where no LDL^T factorization exists.
    """
    d, _, minors, _ = _bareiss(rows, exchange=False)
    return [Fraction(b, a * d) for a, b in zip([1] + minors, minors)]


def charpoly(rows):
    """Characteristic polynomial of a square rational matrix M, constant
    first and monic: [c_0, ..., c_{d-1}, 1].

    Faddeev-LeVerrier (Cohen, GTM 138, Sec. 2.2) on N = D M, D from
    `_integer_rows`: the integer e_(d-k) of charpoly(N) is -tr(N A_(k-1))/k,
    an exact division, with A_0 = I and A_k = N A_(k-1) + e_(d-k) I.
    charpoly(M)(x) = D^-d charpoly(N)(D x), so c_i = e_i / D^(d-i).
    """
    D, n = _integer_rows(rows)
    d = len(n)
    e = [0] * d + [1]
    aux = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        aux = [[sum(x * aux[t][j] for t, x in enumerate(row)) for j in range(d)] for row in n]
        e[d - k] = -sum(aux[i][i] for i in range(d)) // k
        for i in range(d):
            aux[i][i] += e[d - k]
    return [Fraction(c, D ** (d - i)) for i, c in enumerate(e)]


def bezout_cofactors(f, g):
    """Integer polynomials (A, B) and r = +-Res(f, g) with A*f + B*g = r.

    f and g must be coprime.  The coefficients of A*f + B*g in x^0, x^1,
    ... are a square linear system M in the unknowns A_0..A_{m-1},
    B_0..B_{n-1}, whose determinant r is +-Res(f, g).  The solution of
    M x = r e_0 is integral (by Cramer's rule, x_i is a minor of M): one
    Bareiss elimination of [M | e_0] gives r and a triangular system whose
    back-substitution divides exactly.  deg A < deg g and deg B < deg f;
    used for uniform lower bounds on max(|f(x)|, |g(x)|).
    """
    f = poly_normalize(f)
    g = poly_normalize(g)
    n, m = poly_degree(f), poly_degree(g)
    size = n + m
    rows = [
        [f[t - i] if 0 <= t - i <= n else 0 for i in range(m)]
        + [g[t - j] if 0 <= t - j <= m else 0 for j in range(n)]
        + [int(t == 0)]
        for t in range(size)
    ]
    _, sign, minors, a = _bareiss(rows, exchange=True)
    res = sign * minors[-1]
    if res == 0:
        raise ValueError("polynomials share a root")
    sol = [0] * size
    for k in reversed(range(size)):
        sol[k] = (res * a[k][size] - sum(a[k][j] * sol[j] for j in range(k + 1, size))) // a[k][k]
    return sol[:m], sol[m:], res
