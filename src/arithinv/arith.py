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
polishing here, the q-series and the AGM in :mod:`arithinv.analytic`),
with precisions derived from :mod:`arithinv.prec`; mpmath values and the
double-precision root seeds enter and leave exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mpc, mpf

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


# ---------------------------------------------------------------------------
# fixed point: an int n stands for n 2^-bits, and a pair (x, y) of ints for
# the Gaussian (x + iy) 2^-bits.  mpmath values enter and leave exactly.


def to_fixed(x, bits):
    """round(x 2^bits) for a real mpf or a float, taken exactly; the
    magnitude is rounded half up."""
    if isinstance(x, float):
        num, den = x.as_integer_ratio()  # den is a power of 2
        negative, man, shift = num < 0, abs(num), bits + 1 - den.bit_length()
    else:
        negative, man, exp, _ = (x if isinstance(x, mpf) else mpf(x))._mpf_
        shift = exp + bits
    n = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -n if negative else n


def from_fixed(n, bits):
    """The mpf n 2^-bits, exactly, whatever the working precision."""
    return mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(n, -bits))


def from_fixed_pair(x, y, bits):
    """The mpc (x + iy) 2^-bits, exactly, whatever the working precision."""
    return mpmath.mp.make_mpc(
        (mpmath.libmp.from_man_exp(x, -bits), mpmath.libmp.from_man_exp(y, -bits))
    )


# ---------------------------------------------------------------------------
# certified root finding on Gaussian integers at the fixed point 2^-P, P the
# working precision + 80 bits + 20 guard bits + the largest coefficient's
# bit length: double-precision Durand-Kerner seeds every root, Durand-Kerner
# sweeps polish them, real roots are Newton-polished on the real axis (the
# exact Sturm count says how many are real), and conjugate pairs are made
# exact.  p(z) 2^(nP) is an exact integer Horner, so each correction is one
# rounded Gaussian division, and each radius deg |p(z)| / |p'(z)| is
# evaluated exactly at the returned dyadic point and rounded up.  The discs
# must be pairwise disjoint, so the n discs hold n distinct roots.

ROOT_TOL = 1e-18  # the largest error radius poly_roots returns


class ComplexApprox(NamedTuple):
    """A complex value with an absolute error radius covering both parts."""

    real: mpf
    imag: mpf
    err: float

    @property
    def value(self):
        return mpc(self.real, self.imag)

    def __repr__(self):
        return "ComplexApprox(%s, %s, err=%.3g)" % (self.real, self.imag, self.err)


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


def _double_seeds(coeffs, bits):
    # Double-precision roots of p(2^s y) / (a_n 2^(s n)), scaled back by 2^s
    # exactly, as Gaussian integers at the fixed point 2^-bits.  By
    # Fujiwara's bound every root has |x| < 2^s, so the rescaled polynomial
    # is monic with every other coefficient of size < 1/2 and all its roots
    # in the unit disc: nothing overflows, no large root is lost, and
    # Durand-Kerner (Weierstrass) steps in Python complex run until every
    # step is below 2^-50 of its root.  A near-double root comes out as two
    # seeds about sqrt(eps) apart, often a conjugate pair straddling two real
    # roots (or two reals straddling a pair), from which the polish never
    # converges.  So a seed within 2^-20 relative of an earlier one moves by
    # 2^-20 of its size in a direction generic for each index, and the
    # iteration's repulsion separates the cluster.
    n = len(coeffs) - 1
    top = abs(coeffs[-1]).bit_length() - 1  # |a_n| >= 2^top
    s = 1 + max(
        (-((top - abs(coeffs[n - i]).bit_length()) // i) for i in range(1, n + 1) if coeffs[n - i]),
        default=0,
    )
    scaled = []
    for k in range(n, -1, -1):  # highest power first; each value has size <= 1
        e = s * (n - k)
        scaled.append(coeffs[k] / (coeffs[-1] << e) if e >= 0 else (coeffs[k] << -e) / coeffs[-1])
    # Start on circles whose radii are the slopes of the Newton polygon,
    # the upper convex hull of (k, log |a_k|), so roots of every size have
    # seeds near them (Bini, Numer. Algorithms 13, 1996); a zero constant
    # term is a simple root at 0.  The angles are generic, so no two seeds
    # are conjugate.
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
    for _ in range(100):  # sweeps; the integer polish goes on from any seeds
        converged = True
        for k, y in enumerate(ys):
            num = den = 1.0
            for c in scaled[1:]:
                num = num * y + c
            for j, other in enumerate(ys):
                if j != k:
                    den *= y - other
            step = num / den if abs(den) > 2.0**-1000 else 2.0**-20
            y -= step
            if abs(y) > 1:  # back to the disc, which no root leaves
                y /= abs(y)
            ys[k] = y
            converged = converged and abs(step) <= 2.0**-50 * abs(y)
        if converged:
            break
    for k in range(1, n):
        if any(abs(ys[k] - y) <= 2.0**-20 * max(abs(ys[k]), abs(y)) for y in ys[:k]):
            ys[k] += 2.0**-20 * max(abs(ys[k]), 2.0**-20) * (0.4 + 0.9j) ** k
    return [(to_fixed(y.real, s + bits), to_fixed(y.imag, s + bits)) for y in ys]


def _durand_kerner(coeffs, zs, bits):
    # Gauss-Seidel Weierstrass sweeps on Gaussian integers: the correction
    # p(z_k) / (a_n prod_j (z_k - z_j)) is V / (a_n D) in units of 2^-bits,
    # with V = p(z_k) 2^(n bits) and D = prod_j (z_k - z_j) 2^((n-1) bits),
    # rounded to the nearest Gaussian integer.  Done once no step exceeds
    # one unit in either part.
    lead = coeffs[-1]
    for _ in range(400):
        converged = True
        for k, (x, y) in enumerate(zs):
            wr, wi = lead, 0
            for j, (u, v) in enumerate(zs):
                if j != k:
                    wr, wi = wr * (x - u) - wi * (y - v), wr * (y - v) + wi * (x - u)
            den = wr * wr + wi * wi
            if not den:
                raise NoConvergence("root polish: two approximations met")
            vr, vi = _horner_fixed(coeffs, x, y, bits)
            sr = (2 * (vr * wr + vi * wi) + den) // (2 * den)
            si = (2 * (vi * wr - vr * wi) + den) // (2 * den)
            zs[k] = (x - sr, y - si)
            converged = converged and abs(sr) <= 1 and abs(si) <= 1
        if converged:
            return zs
    raise NoConvergence("root polish: Durand-Kerner did not converge")


def poly_roots(coeffs):
    """All complex roots of a squarefree integer polynomial, certified.

    Seed: Durand-Kerner in double precision on the polynomial rescaled by
    Fujiwara's root bound, which puts every root in the unit disc.  Polish:
    Durand-Kerner on Gaussian integers at the fixed point 2^-P, where P
    holds 20 guard bits plus the largest coefficient's bit length above the
    working precision + 80, so the absolute stopping rule is relative to the
    largest root the Cauchy bound allows.  Certify: the exact Sturm count
    splits the roots into real ones, which are Newton-polished, and
    conjugate pairs, which are made exact; every radius is deg |p| / |p'|
    evaluated exactly at the returned dyadic point and rounded up, and the
    n discs are pairwise disjoint, so they hold n distinct roots.

    Real roots come first (ascending), then conjugate pairs sorted by
    real part, each pair as (Im > 0 representative, its conjugate).
    Every returned error radius is <= ROOT_TOL.
    """
    coeffs = poly_normalize(coeffs)
    n = poly_degree(coeffs)
    if n < 1:
        raise NoConvergence("degree must be >= 1")
    squarefree, n_real = _sturm(coeffs)
    if not squarefree:
        raise NotSquarefree("polynomial has repeated roots")
    bits = _fixed_point_bits(coeffs)
    zs = _double_seeds(coeffs, bits)
    return _certify_roots(coeffs, _durand_kerner(coeffs, zs, bits), bits, n_real)


def _certify_roots(coeffs, pts, bits, n_real):
    # pts are Gaussian integers at the fixed point 2^-bits of poly_roots, and
    # the exact Sturm count splits them into real and complex.  Each root is
    # rounded to the working precision + 80 bits before its radius is
    # evaluated.
    dcoeffs = poly_deriv(coeffs)
    order = sorted(range(len(pts)), key=lambda i: abs(pts[i][1]))
    real_idx, cplx_idx = order[:n_real], order[n_real:]

    discs = []
    for x in sorted(pts[i][0] for i in real_idx):
        for _ in range(6):  # Newton polish on the real axis, to one unit
            dv = _horner_fixed(dcoeffs, x, 0, bits)[0]
            if dv == 0:
                break
            step = (2 * _horner_fixed(coeffs, x, 0, bits)[0] + dv) // (2 * dv)
            x -= step
            if abs(step) <= 1:
                break
        x = _to_working(x)
        err = _root_radius(coeffs, dcoeffs, x, 0, bits)
        if not err <= ROOT_TOL:
            raise NoConvergence("root certificate: real root radius %.3g > ROOT_TOL" % err)
        discs.append((x, 0, err))

    upper = sorted(pts[i] for i in cplx_idx if pts[i][1] > 0)
    lower = [pts[i] for i in cplx_idx if pts[i][1] <= 0]
    if 2 * len(upper) != len(cplx_idx):
        raise NoConvergence("root certificate: non-real seeds are not conjugate pairs")
    for x, y in upper:
        mate = min(lower, key=lambda v: (v[0] - x) ** 2 + (v[1] + y) ** 2)
        lower.remove(mate)
        x, y = _to_working((x + mate[0]) >> 1), _to_working((y - mate[1]) >> 1)
        # the pair (x, y), (x, -y) is exactly conjugate
        err = _root_radius(coeffs, dcoeffs, x, y, bits)
        if not err <= ROOT_TOL:
            raise NoConvergence("root certificate: complex root radius %.3g > ROOT_TOL" % err)
        discs += [(x, y, err), (x, -y, err)]
    for a, b in itertools.combinations(discs, 2):
        if not _apart(a, b, bits):
            raise NoConvergence("root certificate: two root discs overlap")
    return [ComplexApprox(from_fixed(x, bits), from_fixed(y, bits), err) for x, y, err in discs]


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
    stopping once p^2 exceeds the cofactor; each cofactor that is_prime
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
        if is_prime(v):
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
