"""Exact and certified-approximate arithmetic primitives.

Integer polynomials are plain coefficient sequences, constant term
first, e.g. ``[-2, 0, 1]`` is x^2 - 2.  Exact work runs on ints and
``fractions.Fraction``; its linear algebra is one Bareiss fraction-free
elimination (determinants, Bezout cofactors by Cramer's rule and LDL^T
pivots) and the Faddeev-LeVerrier characteristic polynomial, with no
resultant: norms and discriminants are determinants of multiplication
matrices in :mod:`arithinv.numfield`.  Approximate work runs on
fixed-point integers where it loops (root polishing here, the q-series
and the AGM in :mod:`arithinv.analytic`), with precisions derived from
:mod:`arithinv.prec`; mpmath values enter and leave exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from . import prec
from .errors import FactorBudgetExceeded, NoConvergence, NotSquarefree

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


def _frac_rem(a, b):
    """Remainder of exact division of Fraction polynomials a by b."""
    a = [Fraction(c) for c in a]
    b = poly_normalize([Fraction(c) for c in b])
    da, db = poly_degree(a), poly_degree(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead = b[-1]
    while da >= db:
        q = a[da] / lead
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        a = poly_normalize(a)
        da = poly_degree(a)
    return a


def _sturm(coeffs):
    """(squarefree, number of distinct real roots) from one Sturm chain."""
    chain = [poly_normalize([Fraction(c) for c in coeffs])]
    chain.append(poly_normalize([Fraction(c) for c in poly_deriv(chain[0])]))
    while poly_degree(chain[-1]) > 0:
        r = _frac_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    at_plus = [1 if p[-1] > 0 else -1 for p in chain if p]
    at_minus = [(1 if p[-1] > 0 else -1) * (-1) ** poly_degree(p) for p in chain if p]
    squarefree = bool(chain[-1]) and poly_degree(chain[-1]) == 0
    return squarefree, variations(at_minus) - variations(at_plus)


# ---------------------------------------------------------------------------
# fixed point: an int n stands for n 2^-bits, and a pair (x, y) of ints for
# the Gaussian (x + iy) 2^-bits.  mpmath values enter and leave exactly.


def to_fixed(x, bits):
    """round(x 2^bits) for a real mpf (or a float), taken exactly."""
    sign, man, exp, _ = (x if isinstance(x, mpf) else mpf(x))._mpf_
    shift = exp + bits
    n = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -n if sign else n


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


@dataclass(frozen=True)
class ComplexApprox:
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


def _double_seeds(coeffs):
    # Double-precision roots of p(2^s y) / (a_n 2^(s n)), scaled back by 2^s
    # in mpmath.  By Fujiwara's bound every root has |x| < 2^s, so the
    # rescaled polynomial is monic with every other coefficient of size
    # < 1/2 and all its roots in the unit disc: nothing overflows, no large
    # root is lost, and Durand-Kerner (Weierstrass) steps in Python complex
    # run until every step is below 2^-50 of its root.  A near-double root
    # comes out as two seeds about sqrt(eps) apart, often a conjugate pair
    # straddling two real roots (or two reals straddling a pair), from which
    # the polish never converges.  So a seed within 2^-20 relative of an
    # earlier one moves by 2^-20 of its size in a direction generic for each
    # index, and the iteration's repulsion separates the cluster.
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
    return [mpc(mpmath.ldexp(mpf(y.real), s), mpmath.ldexp(mpf(y.imag), s)) for y in ys]


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


def poly_roots(coeffs, tol):
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
    Every returned error radius is <= tol.
    """
    coeffs = poly_normalize(coeffs)
    n = poly_degree(coeffs)
    if n < 1:
        raise NoConvergence("degree must be >= 1")
    squarefree, n_real = _sturm(coeffs)
    if not squarefree:
        raise NotSquarefree("polynomial has repeated roots")
    bits = _fixed_point_bits(coeffs)
    zs = [(to_fixed(w.real, bits), to_fixed(w.imag, bits)) for w in _double_seeds(coeffs)]
    return _certify_roots(coeffs, _durand_kerner(coeffs, zs, bits), bits, n_real, tol)


def _certify_roots(coeffs, pts, bits, n_real, tol):
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
        if not err <= tol:
            raise NoConvergence("root certificate: real root radius %.3g > tol" % err)
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
        if not err <= tol:
            raise NoConvergence("root certificate: complex root radius %.3g > tol" % err)
        discs += [(x, y, err), (x, -y, err)]
    for a, b in itertools.combinations(discs, 2):
        if not _apart(a, b, bits):
            raise NoConvergence("root certificate: two root discs overlap")
    return [ComplexApprox(from_fixed(x, bits), from_fixed(y, bits), err) for x, y, err in discs]


# ---------------------------------------------------------------------------
# primes and factorization

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_PRIMES = tuple(
    p for p in range(2, 2**10) if all(p % q for q in range(2, math.isqrt(p) + 1))
)


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


@dataclass(frozen=True)
class Factorization:
    sign: int
    factors: tuple  # ((prime, exponent), ...) sorted by prime

    def recompose(self):
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


def factorize(n, rho_budget=RHO_BUDGET):
    """Factor a nonzero integer: trial division by the primes below 2^10,
    stopping once p^2 exceeds the cofactor, then Brent's rho (BIT 20,
    1980) on each cofactor that is_prime rejects; rho_budget bounds the
    steps of each rho call."""
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
        g = _brent_rho(v, rho_budget)
        if g is None:
            raise FactorBudgetExceeded("rho budget exhausted on %d" % v)
        stack.extend([g, v // g])
    return Factorization(sign, tuple(sorted(factors.items())))


def is_squarefree_int(m):
    if m in (0,):
        return False
    return all(e == 1 for _, e in factorize(m).factors)


# ---------------------------------------------------------------------------
# fundamental units of real quadratic fields (continued fractions)


@dataclass(frozen=True)
class PellUnit:
    """Fundamental unit a + b*omega of Q(sqrt(m)), omega the maximal-order generator."""

    m: int
    a: int
    b: int
    half: bool  # omega = (1+sqrt(m))/2 when m = 1 mod 4, else sqrt(m)
    norm: int

    def power_coeffs(self):
        """Coefficients (c0, c1) with unit = c0 + c1*sqrt(m)."""
        if self.half:
            return (Fraction(2 * self.a + self.b, 2), Fraction(self.b, 2))
        return (Fraction(self.a), Fraction(self.b))

    def value(self):
        c0, c1 = self.power_coeffs()
        with prec.working():
            return mpf(c0.numerator) / c0.denominator + (
                mpf(c1.numerator) / c1.denominator
            ) * mpmath.sqrt(self.m)


def _unit_norm(a, b, m, half):
    if half:
        # N(a + b*(1+sqrt m)/2) = a^2 + a*b + b^2*(1-m)/4
        return a * a + a * b + b * b * (1 - m) // 4
    return a * a - m * b * b


def pell_fundamental_solution(m):
    """Fundamental unit > 1 of the maximal order of Q(sqrt(m)), m squarefree > 1.

    Walks the continued fraction of the standard generator; the first
    convergent p/q for which p - q*conj(omega) has norm +-1 gives it.
    """
    if m <= 1 or not is_squarefree_int(m):
        raise NotSquarefree("m must be a squarefree integer > 1")
    half = m % 4 == 1
    sq = math.isqrt(m)
    if half:
        pp, qq = 1, 2  # omega = (1 + sqrt m)/2
    else:
        pp, qq = 0, 1  # omega = sqrt m
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    limit = 20 * (sq + 2) * (m.bit_length() + 2) + 64
    for _ in range(limit):
        a = (pp + sq) // qq
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        pp = a * qq - pp
        qq = (m - pp * pp) // qq
        # candidate unit p - q*conj(omega), written over the basis {1, omega}
        if half:
            ca, cb = p_cur - q_cur, q_cur
        else:
            ca, cb = p_cur, q_cur
        nrm = _unit_norm(ca, cb, m, half)
        if abs(nrm) == 1:
            return PellUnit(m, ca, cb, half, nrm)
    raise NoConvergence("continued fraction period not found for m=%d" % m)


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions


def _bareiss(rows, exchange):
    """Leading principal minors of d * rows, for the least integer d that
    makes every entry an integer, by fraction-free (Bareiss) elimination.

    Entries may be ints, Fractions or floats, each taken exactly as stored
    (a float is a dyadic rational, so d is a power of 2 for them).  Returns
    (d, sign, minors).  With exchange, a zero pivot is swapped for a later
    row, sign records the swaps, and the minors are those of the permuted
    matrix; without, or when no row is left to swap in, elimination stops
    at the zero pivot, which ends the list.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    d = math.lcm(*(den for row in ratios for _, den in row))
    a = [[num * (d // den) for num, den in row] for row in ratios]
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
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
        minors.append(pivot)
    return d, sign, minors


def frac_det(rows):
    """Exact determinant, by Bareiss elimination with row exchanges."""
    d, sign, minors = _bareiss(rows, exchange=True)
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
    d, _, minors = _bareiss(rows, exchange=False)
    return [Fraction(b, a * d) for a, b in zip([1] + minors, minors)]


def charpoly(rows):
    """Characteristic polynomial of a square Fraction matrix (Faddeev-LeVerrier).

    Returned constant-first and monic: [c_0, ..., c_{d-1}, 1].
    """
    m = [[Fraction(x) for x in row] for row in rows]
    d = len(m)
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    aux = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        prod = [
            [sum(m[i][t] * aux[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        ck = -sum(prod[i][i] for i in range(d)) / k
        coeffs[d - k] = ck
        aux = [
            [prod[i][j] + (ck if i == j else 0) for j in range(d)] for i in range(d)
        ]
    return coeffs


def bezout_cofactors(f, g):
    """Integer polynomials (A, B) and r = +-Res(f, g) with A*f + B*g = r.

    f and g must be coprime.  The coefficients of A*f + B*g in x^0, x^1,
    ... are a square linear system M in the unknowns A_0..A_{m-1},
    B_0..B_{n-1}, whose determinant is +-Res(f, g); by Cramer's rule the
    solution of M x = det(M) e_0 is x_i = det M_i, M_i being M with column
    i replaced by e_0, so every cofactor is an integer.  deg A < deg g and
    deg B < deg f; used for uniform lower bounds on max(|f(x)|, |g(x)|).
    """
    f = poly_normalize(f)
    g = poly_normalize(g)
    n, m = poly_degree(f), poly_degree(g)
    size = n + m
    rows = [
        [f[t - i] if 0 <= t - i <= n else 0 for i in range(m)]
        + [g[t - j] if 0 <= t - j <= m else 0 for j in range(n)]
        for t in range(size)
    ]
    res = int(frac_det(rows))
    if res == 0:
        raise ValueError("polynomials share a root")
    sol = [
        int(frac_det([row[:i] + [int(t == 0)] + row[i + 1 :] for t, row in enumerate(rows)]))
        for i in range(size)
    ]
    return sol[:m], sol[m:], res
