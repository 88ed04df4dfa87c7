"""Upper-half-plane analytics: fundamental-domain reduction, the modular
discriminant q-series, AGM period lattices, injectivity diameter.

Only the single archimedean place of Q is ever needed: curves live over
Q, so their period lattices are rectangular (positive discriminant, two
real components) or rhombic (negative discriminant, one component), and
the complex AGM reduces to real iterations after one step.
"""

from __future__ import annotations

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


def delta_q_series(tau):
    """Modular discriminant for any Im tau > 0, by Euler's pentagonal series.

    delta = q (sum_k (-1)^k q^(k(3k-1)/2))^24 over all integers k (Cohen,
    A Course in Computational Algebraic Number Theory, Sec. 7.4).  The
    terms left after the smallest unsummed exponent e are bounded by
    tail = 2|q|^e / (1 - |q|); summing stops once 24 tail < 1e-19 (|partial
    sum| - tail), which bounds the relative error of the 24th power.
    """
    z = _as_value(tau)
    if not mpmath.im(z) > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    with prec.working(30):
        q = mpmath.exp(2j * mpmath.pi * z)
        absq = abs(q)
        q3 = q**3
        total = mpc(1)
        lo, hi = q, q**2  # q^(k(3k-1)/2) and q^(k(3k+1)/2), from k = 1
        step_lo, step_hi = q**4, q**5  # q^(3k+1) and q^(3k+2)
        for k in range(1, 200001):
            total += (lo + hi) if k % 2 == 0 else -(lo + hi)
            lo *= step_lo
            hi *= step_hi
            step_lo *= q3
            step_hi *= q3
            tail = 2 * abs(lo) / (1 - absq)
            if 24 * tail < mpf("1e-19") * (abs(total) - tail):
                break
        else:
            raise AgmNoConvergence("q-series truncation did not converge")
        return q * total**24


def modular_discriminant(tau):
    """delta(tau) for a reduced tau (Im >= sqrt(3)/2)."""
    z = _as_value(tau)
    if not mpmath.im(z) >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("modular discriminant wants a reduced tau")
    return delta_q_series(z)


def eisenstein_e4(tau):
    """E4 = 1 + 240 sum_n sigma_3(n) q^n, summed by Horner.

    The term count N is fixed first: since sigma_3(n) < zeta(3) n^3 < 1.21
    n^3 and the terms n^3 r^n (r = |q|) fall by at least the ratio rho =
    ((N + 2)/(N + 1))^3 r beyond N, the tail is at most 240 * 1.21 (N +
    1)^3 r^(N + 1) / (1 - rho), and N is the least count that puts it below
    1e-19.  The sigma_3 values come from a divisor sieve up to N.
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
    with prec.working(30):
        q = mpmath.exp(2j * mpmath.pi * _as_value(tau))
        total = mpc(0)
        for n in range(count, 0, -1):
            total = (total + sigma3[n]) * q
        return 1 + 240 * total


def j_invariant_series(tau):
    """j = E4(tau)^3 / delta(tau), for a reduced tau."""
    z = _as_value(tau)
    if not mpmath.im(z) >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("j series wants a reduced tau")
    with prec.working(30):
        return eisenstein_e4(z) ** 3 / delta_q_series(z)


def log_scaled_discriminant(tau):
    """log(|delta(tau)| (2 Im tau)^6), the SL2(Z)-invariant archimedean term."""
    z = _as_value(tau)
    with prec.working(30):
        return mpmath.log(abs(delta_q_series(z)) * (2 * mpmath.im(z)) ** 6)


def injectivity_diameter(tau):
    """(Im tau)^(-1/2) for a reduced period ratio."""
    z = _as_value(tau)
    if not mpmath.im(z) >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("injectivity diameter wants a reduced tau")
    return float(1 / mpmath.sqrt(mpmath.im(z)))


# ---------------------------------------------------------------------------
# periods by the arithmetic-geometric mean


def optimal_agm(a, b):
    """Complex AGM with the standard branch rule Re(b/a) >= 0 at every step."""
    a = mpc(a)
    b = mpc(b)
    with prec.working(20):
        eps = mpf(2) ** (-(mpmath.mp.prec - 8))
        for _ in range(300):
            if abs(a - b) <= eps * abs(a):
                return (a + b) / 2
            a, b = (a + b) / 2, mpmath.sqrt(a * b)
            if abs(a - b) > abs(a + b):
                b = -b
        raise AgmNoConvergence("AGM did not converge")


@dataclass(frozen=True)
class PeriodData:
    omega1: mpf  # real period
    omega2: mpc  # second basis period, Im(omega2/omega1) > 0
    tau: ReducedTau
    roots: tuple  # arith.ComplexApprox roots of 4x^3 + b2 x^2 + 2 b4 x + b6


def _conjugate_pair_agm(w):
    # M(sqrt(w), sqrt(conj(w))) collapses to a real AGM after one step.
    root = mpmath.sqrt(mpc(w))
    return optimal_agm(mpmath.re(root), abs(root))


def agm_periods(curve):
    """Period lattice of the real embedding of an integral curve over Q.

    Positive discriminant gives a rectangular lattice from two real
    AGMs; negative discriminant gives a rhombic lattice whose imaginary
    part comes from the reflected (twisted) cubic.  The reduced tau is
    checked against the algebraic j-invariant to 1e-6 relative.
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

    j_alg = curve.c4**3 / Fraction(curve.delta)
    j_here = j_invariant_series(tau)
    scale = max(1.0, abs(float(j_alg)))
    if abs(j_here - mpf(j_alg.numerator) / j_alg.denominator) / scale > 1e-6:
        raise AgmNoConvergence(
            "period lattice does not reproduce the algebraic j-invariant"
        )
    return PeriodData(omega1, omega2, tau, tuple(roots))
