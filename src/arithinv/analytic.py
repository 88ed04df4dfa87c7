"""Upper-half-plane analytics: fundamental-domain reduction, the modular
discriminant q-series, AGM period lattices, injectivity diameter.

Only the single archimedean place of Q is ever needed: curves live over
Q, so their period lattices are rectangular (positive discriminant, two
real components) or rhombic (negative discriminant, one component), and
the rhombic case reduces to two real AGMs after one complex square root.
From the certified roots to q (AGM inputs, AGM, tau and its reduction,
the delta series) the lattice runs on fixed-point integers; mpmath
supplies pi, exp and log and holds the returned values.  The lattice is
checked by its discriminant: (2 pi / omega1')^12 delta(tau) must give
the model's Delta.
The ledger's scaled-discriminant term runs in doubles, within a stated
bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf

from . import arith, prec
from .errors import AgmNoConvergence, NotUpperHalfPlane, TauNotReduced

SQRT3_HALF = math.sqrt(3) / 2
BOUNDARY_EPS = 1e-12


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


def _matmul(m1, m2):
    (p, q), (r, s) = m1
    (a, b), (c, d) = m2
    return ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))


def reduce_to_fundamental_domain(tau):
    """Canonical SL2(Z) representative: |Re| <= 1/2, |tau| >= 1 (Cohen,
    GTM 138, Alg. 7.4.2).

    Ties: Re in [-1/2, 1/2) off the unit circle; on the circle the
    representative with Re >= 0 is chosen (so the left corner maps to
    the right corner).  The walk runs on integers at 2^-F, F = prec.bits()
    + 40 + 2 ceil(log2(1 / Im tau))^+, which keeps prec + 20 relative bits
    through the inversions' amplification Im tau_final / Im tau.
    """
    if not isinstance(tau, mpc):  # an mpc keeps its own precision
        with prec.working():
            tau = mpc(tau)
    if not mpmath.im(tau) > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    bits = prec.bits() + 40 + 2 * max(0, 1 - mpmath.frexp(mpmath.im(tau))[1])
    return _reduce_fixed(arith.to_fixed(tau.real, bits), arith.to_fixed(tau.imag, bits), bits)


def _reduce_fixed(x, y, bits):
    # reduce_to_fundamental_domain on (x + iy) 2^-bits: comparisons with
    # eps = num / den are exact, -1/z = -conj(z) / |z|^2 rounds to nearest
    num, den = BOUNDARY_EPS.as_integer_ratio()
    one, mat = 1 << bits, ((1, 0), (0, 1))
    for _ in range(10000):
        n = (x + (one >> 1)) >> bits  # floor(Re + 1/2)
        if n != 0:
            x -= n << bits
            mat = _matmul(((1, -n), (0, 1)), mat)
        r = x * x + y * y  # |z|^2 2^(2 bits)
        if r * den >= (den - num) << 2 * bits:
            break
        x, y = ((-x << 2 * bits + 1) + r) // (2 * r), ((y << 2 * bits + 1) + r) // (2 * r)
        mat = _matmul(((0, -1), (1, 0)), mat)
    else:
        raise AgmNoConvergence("fundamental domain reduction did not terminate")
    # | |z| - 1 | <= eps, that is (1 - eps)^2 <= |z|^2 <= (1 + eps)^2
    on_circle = (den - num) ** 2 << 2 * bits <= r * den * den <= (den + num) ** 2 << 2 * bits
    if 2 * den * x >= (den - 2 * num) << bits and not on_circle:  # Re >= 1/2 - eps
        x -= one
        mat = _matmul(((1, -1), (0, 1)), mat)
    if on_circle and x * den < -(num << bits):  # Re < -eps
        x, y = ((-x << 2 * bits + 1) + r) // (2 * r), ((y << 2 * bits + 1) + r) // (2 * r)
        mat = _matmul(((0, -1), (1, 0)), mat)
    return ReducedTau(arith.from_fixed_pair(x, y, bits), mat)


# ---------------------------------------------------------------------------
# q-series


def _cmul(ar, ai, br, bi, bits):
    # product of two fixed-point Gaussian integers, each part rounded down
    return (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits


def delta_q_series(z):
    """Modular discriminant at z, Im z > 0, by Euler's pentagonal series.

    delta = q (sum_k (-1)^k q^(k(3k-1)/2))^24 over all integers k (Cohen,
    A Course in Computational Algebraic Number Theory, Sec. 7.4).  The sum
    runs on fixed-point Gaussian integers and is multiplied by q in mpmath
    at the end, so its relative accuracy does not depend on |q|.  It is
    about prod (1 - q^n), of size about exp(-pi / (12 Im z)) (the eta
    function), so the fixed point carries 0.38 / Im z bits beyond the
    working precision + 40 against that cancellation.

    Each power q^e is a product tree of e copies of the fixed-point q
    (within one unit).  A product of two values of modulus < 1 adds their
    errors and rounds by less than 2 units, so q^e is within 4e units, and
    the summed powers give the rounding bound err.  The terms left after
    the smallest unsummed exponent e are bounded by tail = 2|q|^e / (1 -
    |q|); summing stops once 24 (tail + err) < 2^-(prec.bits() + 8)
    (|partial sum| - tail - err).  That bounds the relative error of the
    24th power by 2^-(prec.bits() + 7), and the final product in mpmath
    at prec.bits() + 30 adds less than 2^-(prec.bits() + 25).

    q = exp(2 pi i z) is rounded to a fixed-point Gaussian integer within
    one unit in each part (|q| < 1, so bits + 4 relative bits suffice).
    """
    y = float(mpmath.im(z))
    bits = prec.bits() + 40 + math.ceil(0.38 / y)
    with mpmath.workprec(bits + 4):
        q = mpmath.exp(2j * mpmath.pi * z)
    qr, qi = arith.to_fixed(q.real, bits), arith.to_fixed(q.imag, bits)
    # 1 / (1 - |q|) <= c / 2^32, with |q| = exp(-2 pi Im tau)
    c = int(2**32 / -math.expm1(-2 * math.pi * y) * (1 + 2**-40)) + 1
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
        if (24 * bound) << (prec.bits() + 8) < (math.isqrt(tr * tr + ti * ti) << 32) - bound:
            break
    else:
        raise AgmNoConvergence("q-series truncation did not converge")
    with prec.working(30):
        return q * arith.from_fixed_pair(tr, ti, bits) ** 24


def log_scaled_discriminant(tau):
    """log(|delta(tau)| (2 Im tau)^6) for a reduced tau, in double precision.

    Since delta = q prod (1 - q^n)^24, the value is -2 pi Im tau + 24
    sum_n log|1 - q^n| + 6 log(2 Im tau) exactly; each log|1 - w| is
    log1p(|w|^2 - 2 Re w) / 2, so no term loses digits.  On the
    fundamental domain |q| <= exp(-pi sqrt(3)) < 0.0044, so the terms past
    n = 10 add less than 1e-25, and the rounding error of the double sum
    is below 2^-50 (2 pi Im tau + 6 |log(2 Im tau)| + 1).
    """
    z = complex(tau.value if isinstance(tau, ReducedTau) else tau)
    if not z.imag > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    if not z.imag >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("scaled discriminant wants a reduced tau")
    q = cmath.exp(2j * math.pi * z)
    terms = [math.log1p(abs(w) ** 2 - 2 * w.real) for w in (q**n for n in range(1, 11))]
    return -2 * math.pi * z.imag + 12 * math.fsum(terms) + 6 * math.log(2 * z.imag)


def injectivity_diameter(tau):
    """(Im tau)^(-1/2) for a ReducedTau."""
    return float(1 / mpmath.sqrt(tau.im))


# ---------------------------------------------------------------------------
# periods by the arithmetic-geometric mean


def _agm(a, b):
    # 2 M(a, b) for positive fixed-point integers a, b at one scale, the
    # smaller at least 2^(prec.bits() + 20) units.  Every iterate lies
    # between the two inputs, so each rounding of (a + b) / 2 and of
    # isqrt(ab) is relative; stops once |a - b| <= 2^-(prec.bits() + 12) a.
    for _ in range(300):
        if abs(a - b) << (prec.bits() + 12) <= a:
            return a + b
        a, b = (a + b) >> 1, math.isqrt(a * b)
    raise AgmNoConvergence("AGM did not converge")


@dataclass(frozen=True)
class PeriodData:
    omega1: mpf  # real period
    omega2: mpc  # second basis period, Im(omega2/omega1) > 0
    tau: ReducedTau
    roots: tuple  # arith.ComplexApprox roots of 4x^3 + b2 x^2 + 2 b4 x + b6
    delta: mpc  # delta(tau) by delta_q_series, summed once for the lattice check and h+


def agm_periods(curve):
    """Period lattice of the real embedding of an integral curve over Q.

    Delta > 0: omega1 = pi / M1, omega2 = i pi / M2, M1 = M(sqrt(e1 - e3),
    sqrt(e1 - e2)), M2 = M(sqrt(e1 - e3), sqrt(e2 - e3)), tau0 = i M1 / M2.
    Delta < 0: w = e1 - e2 (Im e2 > 0), M1 = M(Re sqrt(w), |sqrt(w)|), M2
    the same for -w, omega2 = (omega1 + i pi / M2) / 2, tau0 = 1/2 + i M1 /
    (2 M2) (Cremona, Algorithms for Modular Elliptic Curves, Sec. 3.7).
    The certified roots are dyadics, so all of it runs on integers, the
    smaller AGM input at 2^(prec.bits() + 21) units or more; the larger
    of Re sqrt(+-w) = sqrt((|w| +- Re w) / 2) is an isqrt, the other |Im
    w| / 2 over it.  With omega1' = c omega2 + d omega1, (c, d) the bottom
    row of tau.transform, (2 pi / omega1')^12 delta(tau) must match the
    model's Delta to 1e-6 relative; that checks omega1, omega2, the
    reduction and the q-series at once.
    """
    b2, b4, b6 = int(curve.b2), int(curve.b4), int(curve.b6)
    cubic = [b6, 2 * b4, b2, 4]
    roots = arith.poly_roots(cubic)
    B, p = arith._fixed_point_bits(cubic), prec.bits()
    if curve.delta > 0:
        e3, e2, e1 = (arith.to_fixed(r.real, B) for r in roots)
        t = max((B + 1) // 2, (2 * p + 44 + B - min(e1 - e2, e2 - e3).bit_length()) // 2)
        r13, r12, r23 = (math.isqrt(d << 2 * t - B) for d in (e1 - e3, e1 - e2, e2 - e3))
        m1, m2 = _agm(r13, r12), _agm(r13, r23)
        half, den = 0, m2  # Re tau0 = half / 2
    else:
        u = arith.to_fixed(roots[0].real, B) - arith.to_fixed(roots[1].real, B)
        v = arith.to_fixed(roots[1].imag, B)  # |Im w|
        t = max((B + 1) // 2, (2 * p + 48 + B + max(abs(u), v).bit_length()) // 2 - v.bit_length())
        u, v = u << 2 * t - B, v << 2 * t - B
        w = math.isqrt(u * u + v * v)  # |w| at 2^-2t
        big, root = math.isqrt((w + abs(u)) >> 1), math.isqrt(w)
        small = (v + big) // (2 * big)
        m1, m2 = _agm(big if u >= 0 else small, root), _agm(small if u >= 0 else big, root)
        half, den = 1, 2 * m2
    # F of reduce_to_fundamental_domain, as log2(1 / Im tau0) < len(den) - len(m1) + 1
    bits = p + 40 + 2 * max(0, den.bit_length() - m1.bit_length() + 1)
    tau = _reduce_fixed(half << (bits - 1), (2 * (m1 << bits) + den) // (2 * den), bits)
    with prec.working(20):  # the AGM inputs are at 2^-t, so M1, M2 = m1, m2 2^-(t + 1)
        omega1, g = mpmath.pi / arith.from_fixed(m1, t + 1), mpmath.pi / arith.from_fixed(m2, t + 1)
        omega2 = mpc(0, g) if curve.delta > 0 else mpc(omega1, g) / 2
    delta = delta_q_series(tau.value)
    (_, _), (c, d) = tau.transform
    with prec.working(30):
        disc = (2 * mpmath.pi / (c * omega2 + d * omega1)) ** 12 * delta
        if abs(disc - int(curve.delta)) > 1e-6 * abs(int(curve.delta)):
            raise AgmNoConvergence("period lattice does not reproduce the model discriminant")
    return PeriodData(omega1, omega2, tau, tuple(roots), delta)
