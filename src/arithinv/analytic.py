"""Upper-half-plane analytics: fundamental-domain reduction, the modular
discriminant q-series, AGM period lattices, injectivity diameter.

Only the single archimedean place of Q is ever needed: curves live over
Q, so their period lattices are rectangular (positive discriminant, two
real components) or rhombic (negative discriminant, one component), and
the rhombic case reduces to a real AGM after one complex step.  The hot
loops (the q-series, E4 and the AGM) run on fixed-point integers; mpmath
supplies exp, pi and log and holds the returned values.  The ledger's
scaled-discriminant term runs in doubles, within a stated bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from . import arith, prec
from .errors import AgmNoConvergence, NotUpperHalfPlane, TauNotReduced

SQRT3_HALF = math.sqrt(3) / 2
BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class Tau:
    value: mpc

    def __post_init__(self):
        if not mpmath.im(self.value) > 0:
            raise NotUpperHalfPlane("Im tau must be positive")


@dataclass(frozen=True)
class ReducedTau:
    value: mpc
    transform: tuple  # ((a, b), (c, d)) with det 1, value = (a*orig + b)/(c*orig + d)

    @property
    def im(self):
        return mpmath.im(self.value)

    @property
    def re(self):
        return mpmath.re(self.value)


def _as_value(tau):
    if isinstance(tau, (Tau, ReducedTau)):
        return tau.value
    if isinstance(tau, mpc):
        return tau  # keeps its own precision
    with prec.working():
        return mpc(tau)


def _matmul(m1, m2):
    (p, q), (r, s) = m1
    (a, b), (c, d) = m2
    return ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))


def moebius(matrix, z):
    (a, b), (c, d) = matrix
    return (a * z + b) / (c * z + d)


def reduce_to_fundamental_domain(tau):
    """Canonical SL2(Z) representative: |Re| <= 1/2, |tau| >= 1.

    Ties: Re in [-1/2, 1/2) off the unit circle; on the circle the
    representative with Re >= 0 is chosen (so the left corner maps to
    the right corner).
    """
    z = _as_value(tau)
    if not mpmath.im(z) > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    mat = ((1, 0), (0, 1))
    with prec.working(20):
        for _ in range(10000):
            n = int(mpmath.floor(mpmath.re(z) + mpf(1) / 2))
            if n != 0:
                z = z - n
                mat = _matmul(((1, -n), (0, 1)), mat)
            if abs(z) ** 2 < 1 - BOUNDARY_EPS:
                z = -1 / z
                mat = _matmul(((0, -1), (1, 0)), mat)
            else:
                break
        else:
            raise AgmNoConvergence("fundamental domain reduction did not terminate")
        if mpmath.re(z) >= mpf(1) / 2 - BOUNDARY_EPS and abs(abs(z) - 1) > BOUNDARY_EPS:
            z = z - 1
            mat = _matmul(((1, -1), (0, 1)), mat)
        if abs(abs(z) - 1) <= BOUNDARY_EPS and mpmath.re(z) < -BOUNDARY_EPS:
            z = -1 / z
            mat = _matmul(((0, -1), (1, 0)), mat)
    return ReducedTau(z, mat)


# ---------------------------------------------------------------------------
# q-series


def _cmul(ar, ai, br, bi, bits):
    # product of two fixed-point Gaussian integers, each part rounded down
    return (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits


def _fixed_q(z, bits):
    # q = exp(2 pi i z) in mpmath, as a fixed-point Gaussian integer within
    # one unit in each part (|q| < 1, so bits + 4 relative bits suffice)
    with mpmath.workprec(bits + 4):
        q = mpmath.exp(2j * mpmath.pi * z)
    return q, arith.to_fixed(q.real, bits), arith.to_fixed(q.imag, bits)


def delta_q_series(tau):
    """Modular discriminant for any Im tau > 0, by Euler's pentagonal series.

    delta = q (sum_k (-1)^k q^(k(3k-1)/2))^24 over all integers k (Cohen,
    A Course in Computational Algebraic Number Theory, Sec. 7.4).  The sum
    runs on fixed-point Gaussian integers and is multiplied by q in mpmath
    at the end, so its relative accuracy does not depend on |q|.  It is
    about prod (1 - q^n), of size about exp(-pi / (12 Im tau)) (the eta
    function), so the fixed point carries 0.38 / Im tau bits beyond the
    working precision + 40 against that cancellation.

    Each power q^e is a product tree of e copies of the fixed-point q
    (within one unit).  A product of two values of modulus < 1 adds their
    errors and rounds by less than 2 units, so q^e is within 4e units, and
    the summed powers give the rounding bound err.  The terms left after
    the smallest unsummed exponent e are bounded by tail = 2|q|^e / (1 -
    |q|); summing stops once 24 (tail + err) < 1e-19 (|partial sum| - tail
    - err), which bounds the relative error of the 24th power.
    """
    z = _as_value(tau)
    y = mpmath.im(z)
    if not y > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    if y < 1e-4:  # the sum would cancel to below 2^-3800
        raise AgmNoConvergence("q-series: Im tau below 1e-4")
    bits = prec.bits() + 40 + math.ceil(0.38 / float(y))
    q, qr, qi = _fixed_q(z, bits)
    # 1 / (1 - |q|) <= c / 2^32, with |q| = exp(-2 pi Im tau)
    c = int(2**32 / -math.expm1(-2 * math.pi * float(y)) * (1 + 2**-40)) + 1
    q2 = _cmul(qr, qi, qr, qi, bits)
    q3 = _cmul(*q2, qr, qi, bits)
    q4 = _cmul(*q2, *q2, bits)
    # q^(k(3k-1)/2), q^(k(3k+1)/2) and their steps q^(3k+1), q^(3k+2), from k = 1
    (lr, li), (hr, hi), (slr, sli), (shr, shi) = (qr, qi), q2, q4, _cmul(*q4, qr, qi, bits)
    tr, ti, err = 1 << bits, 0, 0
    for k in range(1, 200001):
        if k % 2:
            tr, ti = tr - lr - hr, ti - li - hi
        else:
            tr, ti = tr + lr + hr, ti + li + hi
        err += 12 * k * k  # 4 (k(3k-1)/2 + k(3k+1)/2)
        lr, li = _cmul(lr, li, slr, sli, bits)
        hr, hi = _cmul(hr, hi, shr, shi, bits)
        slr, sli = _cmul(slr, sli, *q3, bits)
        shr, shi = _cmul(shr, shi, *q3, bits)
        # (tail + err) 2^32 in units, with the unsummed q^e within 4e units,
        # against |partial sum| 2^32 from below
        e = (k + 1) * (3 * k + 2) // 2
        bound = 2 * (math.isqrt(lr * lr + li * li) + 1 + 4 * e) * c + (err << 32)
        if 24 * 10**19 * bound < (math.isqrt(tr * tr + ti * ti) << 32) - bound:
            break
    else:
        raise AgmNoConvergence("q-series truncation did not converge")
    with prec.working(30):
        return q * arith.from_fixed_pair(tr, ti, bits) ** 24


def modular_discriminant(tau):
    """delta(tau) for a reduced tau (Im >= sqrt(3)/2)."""
    z = _as_value(tau)
    if not mpmath.im(z) >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("modular discriminant wants a reduced tau")
    return delta_q_series(z)


def eisenstein_e4(tau):
    """E4 = 1 + 240 sum_n sigma_3(n) q^n, by Horner on fixed-point Gaussian integers.

    The term count N is fixed first: since sigma_3(n) < zeta(3) n^3 < 1.21
    n^3 and the terms n^3 r^n (r = |q|) fall by at least the ratio rho =
    ((N + 2)/(N + 1))^3 r beyond N, the tail is at most 240 * 1.21 (N +
    1)^3 r^(N + 1) / (1 - rho), and N is the least count that puts it below
    1e-19.  The sigma_3 values come from a divisor sieve up to N, and the
    Horner steps run at the fixed point 2^-(prec.bits() + 40).
    """
    log_r = -2 * math.pi * float(mpmath.im(_as_value(tau)))  # log |q|; never underflows
    for count in range(1, 200001):
        rho_log = 3 * math.log((count + 2) / (count + 1)) + log_r
        if rho_log < 0:
            tail = math.log(240 * 1.21) + 3 * math.log(count + 1) + (count + 1) * log_r
            if tail - math.log1p(-math.exp(rho_log)) < math.log(1e-19):
                break
    else:
        raise AgmNoConvergence("E4 q-series truncation did not converge")
    sigma3 = [0] * (count + 1)
    for d in range(1, count + 1):
        cube = d**3
        for multiple in range(d, count + 1, d):
            sigma3[multiple] += cube
    bits = prec.bits() + 40
    _, qr, qi = _fixed_q(_as_value(tau), bits)
    tr = ti = 0
    for n in range(count, 0, -1):
        tr, ti = _cmul(tr + (sigma3[n] << bits), ti, qr, qi, bits)
    return arith.from_fixed_pair((1 << bits) + 240 * tr, 240 * ti, bits)


def j_invariant_series(tau):
    """j = E4(tau)^3 / delta(tau), for a reduced tau."""
    z = _as_value(tau)
    if not mpmath.im(z) >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("j series wants a reduced tau")
    with prec.working(30):
        return eisenstein_e4(z) ** 3 / delta_q_series(z)


def log_scaled_discriminant(tau):
    """log(|delta(tau)| (2 Im tau)^6) for a reduced tau, in double precision.

    Since delta = q prod (1 - q^n)^24, the value is -2 pi Im tau + 24
    sum_n log|1 - q^n| + 6 log(2 Im tau) exactly; each log|1 - w| is
    log1p(|w|^2 - 2 Re w) / 2, so no term loses digits.  On the
    fundamental domain |q| <= exp(-pi sqrt(3)) < 0.0044, so the terms past
    n = 10 add less than 1e-25, and the rounding error of the double sum
    is below 2^-50 (2 pi Im tau + 6 |log(2 Im tau)| + 1).
    """
    z = complex(tau.value if isinstance(tau, (Tau, ReducedTau)) else tau)
    if not z.imag > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    if not z.imag >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("scaled discriminant wants a reduced tau")
    q = cmath.exp(2j * math.pi * z)
    terms = [math.log1p(abs(w) ** 2 - 2 * w.real) for w in (q**n for n in range(1, 11))]
    return -2 * math.pi * z.imag + 12 * math.fsum(terms) + 6 * math.log(2 * z.imag)


def injectivity_diameter(tau):
    """(Im tau)^(-1/2) for a reduced period ratio."""
    z = _as_value(tau)
    if not mpmath.im(z) >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("injectivity diameter wants a reduced tau")
    return float(1 / mpmath.sqrt(mpmath.im(z)))


# ---------------------------------------------------------------------------
# periods by the arithmetic-geometric mean


def optimal_agm(a, b):
    """AGM of two positive reals, on fixed-point integers.

    Both are scaled by one power of 2 that puts the smaller at 2^bits or
    more, bits = prec.bits() + 20; every iterate lies between the two
    inputs, so each rounding of (a + b) / 2 and of isqrt(ab) is relative.
    Stops once |a - b| <= 2^-(prec.bits() + 12) a.
    """
    bits = prec.bits() + 20
    scale = bits + 1 - mpmath.frexp(min(a, b))[1]  # min(a, b) 2^scale >= 2^bits
    a, b = arith.to_fixed(a, scale), arith.to_fixed(b, scale)
    for _ in range(300):
        if abs(a - b) << (prec.bits() + 12) <= a:
            return arith.from_fixed(a + b, scale + 1)
        a, b = (a + b) >> 1, math.isqrt(a * b)
    raise AgmNoConvergence("AGM did not converge")


@dataclass(frozen=True)
class PeriodData:
    omega1: mpf  # real period
    omega2: mpc  # second basis period, Im(omega2/omega1) > 0
    tau: ReducedTau
    roots: tuple  # arith.ComplexApprox roots of 4x^3 + b2 x^2 + 2 b4 x + b6
    delta: mpc  # delta(tau) by delta_q_series, summed once for the j check and h+


def _conjugate_pair_agm(w):
    # M(sqrt(w), sqrt(conj(w))) collapses to a real AGM after one step.
    root = mpmath.sqrt(mpc(w))
    return optimal_agm(mpmath.re(root), abs(root))


def agm_periods(curve):
    """Period lattice of the real embedding of an integral curve over Q.

    Positive discriminant gives a rectangular lattice from two real
    AGMs; negative discriminant gives a rhombic lattice whose imaginary
    part comes from the reflected (twisted) cubic.  The reduced tau is
    checked against the algebraic j-invariant to 1e-6 relative, through
    j = E4^3 / delta with the delta(tau) that the result carries.
    """
    b2, b4, b6 = int(curve.b2), int(curve.b4), int(curve.b6)
    cubic = [b6, 2 * b4, b2, 4]
    roots = arith.poly_roots(cubic, 1e-18)
    with prec.working(20):
        pi = mpmath.pi
        if curve.delta > 0:
            e3, e2, e1 = [r.real for r in roots]
            omega1 = pi / optimal_agm(
                mpmath.sqrt(e1 - e3), mpmath.sqrt(e1 - e2)
            )
            g = pi / optimal_agm(mpmath.sqrt(e1 - e3), mpmath.sqrt(e2 - e3))
            omega2 = mpc(0, 1) * g
        else:
            e1 = roots[0].value
            e2 = roots[1].value  # Im > 0 representative of the conjugate pair
            omega1 = pi / _conjugate_pair_agm(e1 - e2)
            g = pi / _conjugate_pair_agm(e2 - e1)
            omega2 = (omega1 + mpc(0, 1) * g) / 2
        omega1 = mpmath.re(omega1)
        tau = reduce_to_fundamental_domain(omega2 / omega1)

    delta = delta_q_series(tau)
    with prec.working(30):
        j_here = eisenstein_e4(tau) ** 3 / delta
    j_alg = curve.c4**3 / Fraction(curve.delta)
    scale = max(1.0, abs(float(j_alg)))
    if abs(j_here - mpf(j_alg.numerator) / j_alg.denominator) / scale > 1e-6:
        raise AgmNoConvergence(
            "period lattice does not reproduce the algebraic j-invariant"
        )
    return PeriodData(omega1, omega2, tau, tuple(roots), delta)
