"""Exact and certified-approximate arithmetic primitives.

Integer polynomials are plain coefficient sequences, constant term
first, e.g. ``[-2, 0, 1]`` is x^2 - 2.  Exact work runs on ints and
``fractions.Fraction``; approximate work runs on mpmath at the
precision configured in :mod:`arithinv.prec`.
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


def is_squarefree_poly(coeffs):
    """gcd(p, p') is constant, i.e. the Sturm chain ends in a nonzero constant."""
    return _sturm(coeffs)[0]


def count_real_roots(coeffs):
    """Number of distinct real roots of a squarefree integer polynomial (Sturm)."""
    return _sturm(coeffs)[1]


# ---------------------------------------------------------------------------
# certified root finding: double-precision Durand-Kerner seeds every root,
# mpmath's Durand-Kerner polishes them, real roots are Newton-polished on
# the real axis (the exact Sturm count says how many are real), conjugate
# pairs are made exact, and each root gets a radius deg |p(z)| / |p'(z)|
# that also covers Horner's rounding error.  The discs must be pairwise
# disjoint, so the n discs hold n distinct roots.


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


def _root_error_bound(coeffs, dcoeffs, z, degree):
    # Some root of p lies within deg |p(z)| / |p'(z)| of z.  Horner's
    # computed value is off by at most c (n + 1) u sum |a_i| |z|^i (Higham,
    # Accuracy and Stability of Numerical Algorithms, Sec. 5.1; c = 8 covers
    # complex arithmetic), so that term is added to |p(z)| and taken from
    # |p'(z)|.  The float is rounded up.
    u = mpf(2) ** -mpmath.mp.prec
    az = abs(z)
    p_err = 8 * (degree + 1) * u * poly_eval([abs(c) for c in coeffs], az)
    d_err = 8 * degree * u * poly_eval([abs(c) for c in dcoeffs], az)
    den = abs(poly_eval(dcoeffs, z)) - d_err
    if den <= 0:
        return math.inf
    return math.nextafter(float(degree * (abs(poly_eval(coeffs, z)) + p_err) / den), math.inf)


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
    for _ in range(100):  # sweeps; the mpmath polish goes on from any seeds
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


def poly_roots(coeffs, tol):
    """All complex roots of a squarefree integer polynomial, certified.

    Seed: Durand-Kerner in double precision on the polynomial rescaled by
    Fujiwara's root bound, which puts every root in the unit disc.  Polish:
    Durand-Kerner (``mpmath.polyroots``) from those seeds, with guard bits of
    20 plus the largest coefficient's bit length, so its absolute stopping
    rule is relative to the largest root the Cauchy bound allows.  Certify: the
    exact Sturm count splits the roots into real ones, which are
    Newton-polished, and conjugate pairs, which are made exact; every
    radius bounds the distance to a root including rounding, and the n
    discs are pairwise disjoint, so they hold n distinct roots.

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
    guard = 20 + max(abs(c).bit_length() for c in coeffs)
    with prec.working(80):
        seeds = _double_seeds(coeffs)
        try:
            z = mpmath.polyroots(
                coeffs[::-1], maxsteps=400, extraprec=guard, cleanup=False, roots_init=seeds
            )
        except mpmath.libmp.NoConvergence:
            raise NoConvergence("root polish: mpmath.polyroots did not converge") from None
        return _certify_roots(coeffs, poly_deriv(coeffs), z, n, n_real, tol)


def _certify_roots(coeffs, dcoeffs, z, n, n_real, tol):
    # Split approximations into real / complex using the exact Sturm count.
    order = sorted(range(n), key=lambda i: abs(mpmath.im(z[i])))
    real_idx, cplx_idx = order[:n_real], order[n_real:]

    out = []
    ulp = mpf(2) ** -mpmath.mp.prec
    for i in sorted(real_idx, key=lambda i: mpmath.re(z[i])):
        x = mpmath.re(z[i])
        for _ in range(6):  # Newton polish on the real axis, to one ulp
            dv = poly_eval(dcoeffs, x)
            if dv == 0:
                break
            step = poly_eval(coeffs, x) / dv
            x -= step
            if abs(step) <= ulp * abs(x):
                break
        err = _root_error_bound(coeffs, dcoeffs, x, n)
        if not err <= tol:
            raise NoConvergence("root certificate: real root radius %.3g > tol" % err)
        out.append(ComplexApprox(x, mpf(0), err))

    upper = sorted(
        (z[i] for i in cplx_idx if mpmath.im(z[i]) > 0),
        key=lambda w: (mpmath.re(w), mpmath.im(w)),
    )
    lower = [z[i] for i in cplx_idx if mpmath.im(z[i]) <= 0]
    if 2 * len(upper) != len(cplx_idx):
        raise NoConvergence("root certificate: non-real seeds are not conjugate pairs")
    for w in upper:
        mate = min(lower, key=lambda v: abs(mpmath.conj(v) - w))
        lower.remove(mate)
        forced = (w + mpmath.conj(mate)) / 2  # exact conjugate pair
        err = _root_error_bound(coeffs, dcoeffs, forced, n)
        if not err <= tol:
            raise NoConvergence("root certificate: complex root radius %.3g > tol" % err)
        out.append(ComplexApprox(mpmath.re(forced), mpmath.im(forced), err))
        out.append(ComplexApprox(mpmath.re(forced), -mpmath.im(forced), err))
    for a, b in itertools.combinations(out, 2):
        if not abs(a.value - b.value) > a.err + b.err:
            raise NoConvergence("root certificate: two root discs overlap")
    return out


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


def frac_solve(rows, rhs):
    """Solve the square exact system rows * x = rhs over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    n = len(a)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    return [b[i] / a[i][i] for i in range(n)]


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


def sylvester_matrix(f, g):
    f = poly_normalize(f)
    g = poly_normalize(g)
    n, m = poly_degree(f), poly_degree(g)
    size = n + m
    rows = []
    frev = list(reversed(f))
    grev = list(reversed(g))
    for i in range(m):
        rows.append([0] * i + frev + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + grev + [0] * (size - m - 1 - i))
    return rows


def resultant(f, g):
    """Res(f, g); for monic f this is the product of g over the roots of f."""
    f = poly_normalize(f)
    g = poly_normalize(g)
    n, m = poly_degree(f), poly_degree(g)
    if n < 0 or m < 0:
        return Fraction(0)
    if m == 0:
        return Fraction(g[0]) ** n
    if n == 0:
        return Fraction(f[0]) ** m
    return frac_det(sylvester_matrix(f, g))


def bezout_cofactors(f, g):
    """Integer polynomials (A, B) with A*f + B*g = Res(f, g) (f, g coprime).

    deg A < deg g and deg B < deg f; used for uniform lower bounds on
    max(|f(x)|, |g(x)|).
    """
    f = poly_normalize(f)
    g = poly_normalize(g)
    n, m = poly_degree(f), poly_degree(g)
    res = resultant(f, g)
    if res == 0:
        raise ValueError("polynomials share a root")
    size = n + m
    # unknowns: A_0..A_{m-1}, B_0..B_{n-1}; rows: coefficient of x^t in A f + B g
    rows = []
    for t in range(size):
        row = []
        for i in range(m):
            k = t - i
            row.append(Fraction(f[k]) if 0 <= k <= n else Fraction(0))
        for j in range(n):
            k = t - j
            row.append(Fraction(g[k]) if 0 <= k <= m else Fraction(0))
        rows.append(row)
    rhs = [res] + [Fraction(0)] * (size - 1)
    sol = frac_solve(rows, rhs)
    acoef = [int(x) for x in sol[:m]]
    bcoef = [int(x) for x in sol[m:]]
    return acoef, bcoef, int(res)
