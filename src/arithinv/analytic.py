"""Upper-half-plane analytics: fundamental-domain reduction, the modular
discriminant in doubles, AGM period lattices, injectivity diameter.

Only the single archimedean place of Q is ever needed: curves live over
Q, so their period lattices are rectangular (positive discriminant, two
real components) or rhombic (negative discriminant, one component), and
the rhombic case reduces to two real AGMs after one complex square root.
Only the real roots of the 2-division cubic are solved for, by certified
integer Newton (Cremona, Sec. 3.7), and from them to tau (AGM inputs,
AGM, tau and its reduction) the lattice runs on fixed-point integers, so
no series is summed at the working precision.  The lattice is checked by
its discriminant in double precision: 12 log(2 pi / omega1') + log
delta(tau) must give log Delta of the model mod 2 pi i, with log omega1'
read from the integer AGM means, so no magnitude is converted to a float.
h+ needs neither: it is read from the lattice covolume, that is from the
AGM means alone (ellcurve.faltings_height_plus).  No mpmath is called:
tau is read as doubles, and only the Silverman height oracle forms tau
and the periods in mpmath, from the integers.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import arith, prec
from .errors import AgmNoConvergence, NotUpperHalfPlane, TauNotReduced

SQRT3_HALF = math.sqrt(3) / 2
BOUNDARY_EPS = 1e-12


class ReducedTau(NamedTuple):
    """tau = (x + iy) 2^-bits, reduced, and the transform ((a, b), (c, d)),
    det 1, with tau = (a tau0 + b) / (c tau0 + d); re and im are the parts
    rounded once to doubles, formed when read."""

    x: int
    y: int
    bits: int
    transform: tuple

    re = property(lambda self: self.x / (1 << self.bits))
    im = property(lambda self: self.y / (1 << self.bits))


def _matmul(m1, m2):
    (p, q), (r, s) = m1
    (a, b), (c, d) = m2
    return ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))


def _reduce_fixed(x, y, bits):
    """Canonical SL2(Z) representative of tau = (x + iy) 2^-bits, y > 0:
    |Re| <= 1/2, |tau| >= 1 (Cohen, GTM 138, Alg. 7.4.2).  Ties: Re in
    [-1/2, 1/2) off the unit circle, Re >= 0 on it (the left corner maps to
    the right one).  Comparisons with eps = BOUNDARY_EPS are exact, and
    -1/z = -conj(z) / |z|^2 rounds to nearest.  bits = prec.bits() + 40 +
    2 ceil(log2(1 / Im tau))^+ keeps prec + 20 relative bits through the
    inversions' amplification Im tau_final / Im tau.
    """
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
    return ReducedTau(x, y, bits, mat)


# ---------------------------------------------------------------------------
# the modular discriminant in doubles


def log_delta(tau):
    """log delta(tau) for a reduced tau, as a complex double.

    Since delta = q prod (1 - q^n)^24, log delta = 2 pi i tau + 24 sum_n
    log(1 - q^n), each log(1 - w) taken as (log1p(|w|^2 - 2 Re w) / 2,
    atan2(-Im w, 1 - Re w)), so no term loses digits.  On the fundamental
    domain |q| <= exp(-pi sqrt(3)) < 0.0044, so the terms past n = 10 add
    less than 1e-25, and the sum of the logs is the principal log of the
    product.  The real part is within 1e-25 + 2^-50 (2 pi Im tau + 1) of
    -2 pi Im tau + 24 log|prod (1 - q^n)|, and the imaginary part within
    1e-25 + 2^-50 (2 pi |Re tau| + 1) of 2 pi Re tau + 24 arg prod (1 -
    q^n); the imaginary part is not reduced mod 2 pi.
    """
    z = complex(tau.re, tau.im) if isinstance(tau, ReducedTau) else complex(tau)
    if not z.imag > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    if not z.imag >= SQRT3_HALF - BOUNDARY_EPS:
        raise TauNotReduced("log delta wants a reduced tau")
    q = cmath.exp(2j * math.pi * z)
    powers = [q**n for n in range(1, 11)]
    modulus = math.fsum(math.log1p(abs(w) ** 2 - 2 * w.real) for w in powers)
    phase = math.fsum(math.atan2(-w.imag, 1 - w.real) for w in powers)
    return complex(-2 * math.pi * z.imag + 12 * modulus, 2 * math.pi * z.real + 24 * phase)


def injectivity_diameter(tau):
    """(Im tau)^(-1/2) for a ReducedTau."""
    return 1 / math.sqrt(tau.im)


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


class PeriodData(NamedTuple):
    """The checked lattice of agm_periods, read from the real roots alone:
    the reduced tau and the integer AGM means M1, M2 (omega1 = pi / M1)."""

    tau: ReducedTau
    m1: int  # the AGM means M1, M2 of agm_periods as fixed-point integers at 2^-scale
    m2: int
    scale: int
    rectangular: bool  # Delta > 0: two real components


def _lattice_residual(periods, model_delta):
    # log((2 pi / omega1')^12 delta(tau) / Delta) in doubles for the int
    # Delta = model_delta, its imaginary part reduced to [-pi, pi]; see
    # agm_periods.  omega1' = c omega2 + d omega1 = omega1 (c tau0 + d),
    # (c, d) the bottom row of tau.transform, so 2 pi / omega1' = 2 m1 den /
    # (2^scale (x + iy)) for the integers den = m2 and x = d m2 (Delta > 0),
    # or den = 2 m2 and x = (c + 2d) m2, and y = c m1.  atan2 takes x and y
    # scaled down by one power of 2, so neither overflows a float.
    m1, m2 = periods.m1, periods.m2
    half, den = (0, m2) if periods.rectangular else (1, 2 * m2)
    (_, _), (c, d) = periods.tau.transform
    x, y = c * half * m2 + d * den, c * m1
    s = 1 << max(0, max(abs(x), abs(y)).bit_length() - 60)
    modulus = math.log(2 * m1 * den) - periods.scale * math.log(2)
    modulus -= math.log(x * x + y * y) / 2
    model = complex(math.log(abs(model_delta)), math.pi if model_delta < 0 else 0.0)
    r = 12 * complex(modulus, -math.atan2(y / s, x / s)) + log_delta(periods.tau) - model
    return complex(r.real, math.remainder(r.imag, 2 * math.pi))


def _cubic(b, x, k):
    # p = 4x^3 + b2 x^2 + 2 b4 x + b6 and p' at x 2^-k, times 2^3k and 2^2k
    b2k, b4k = b[0] << k, b[1] << 2 * k + 1
    q = (4 * x + b2k) * x
    return (q + b4k) * x + (b[2] << 3 * k), 3 * q - b2k * x + b4k


def _double_roots(c1, c0, three):
    # the real roots in doubles of y^3 + c1 y + c0 (all in |y| < 1) by Newton
    # from -1 and 1, where p p'' > 0, and from the inflection point 0 for a
    # middle root; a lone root from the end on its side of 0.  Each run is
    # monotone and ends on its own root.
    ys = [-1.0, 0.0, 1.0] if three else [-1.0 if c0 > 0 else 1.0]
    for i, y in enumerate(ys):
        for _ in range(100):
            d = 3 * y * y + c1
            y -= (step := ((y * y + c1) * y + c0) / d if d else 0.0)
            if abs(step) <= 2.0**-48 * abs(y):
                break
        ys[i] = y
    return ys


def _root(b, lo, hi, sign, x, k, bits):
    # The root of p in (lo, hi) 2^-bits, where sign p goes once from - to +:
    # integer Newton from x 2^-k, each step doubling the bits of x until k =
    # bits.  Each value of p narrows the bracket; an iterate that leaves it,
    # or meets p' of the wrong sign, or comes back to an end at k = bits, is
    # replaced by its midpoint.  At k = bits a step of one unit or less
    # probes one unit past the root, and the ends, 2 apart, certify it.
    last, d = 0, 1
    for _ in range(4 * bits):
        X = x << bits - k
        if d <= 0 or not lo <= X <= hi or last == bits and X in (lo, hi):
            x = X = (lo + hi) >> 1
            k = bits
        v, d = _cubic(b, x, k)
        v, d, last = sign * v, sign * d, k
        lo, hi = X if v <= 0 else lo, X if v >= 0 else hi
        if hi - lo <= 2:
            return (lo + hi) >> 1
        shift = min(bits - k, max(x.bit_length(), 1))
        step = ((v << shift + 1) + d) // (2 * d) if d > 0 else 0
        x, k = x << shift, k + shift
        x -= step if last < bits or abs(step) > 1 else step + (1 if v > 0 else -1)
    raise AgmNoConvergence("2-division root did not converge")


def _real_roots(b, three, seeds, bits, s):
    # The real roots of p at 2^-bits, ascending, each by _root from its seed
    # in its bracket: (-2^t, 2^t), 2^t > (2^s + |b2|) / 12 as each root's Y =
    # 12 x + b2 lies in (-2^s, 2^s), split for Delta > 0 by the critical
    # points c- < c+ of p, once p(c-) > 0 > p(c+) is checked; [] if not.  The
    # pair beside c starts at m -+ h, where p's Taylor expansion at c vanishes
    # (h^2 = 2 |p(c)| / |p''(c)|, m = c - 4 h^2 / p''(c), |p''(c)| = 2r), if
    # h < 2^(s - 28), closer than the doubles split, or a seed lies beyond c.
    bound = 1 << max(s, abs(b[0]).bit_length()) - 2 + bits
    ends = ((-bound, bound, 1),)
    if three:
        r = math.isqrt((b[0] * b[0] - 24 * b[1]) << 2 * bits)
        lo, hi = (-(b[0] << bits) - r) // 12, (r - (b[0] << bits)) // 12
        if not (p_lo := _cubic(b, lo, bits)[0]) > 0 > (p_hi := _cubic(b, hi, bits)[0]):
            return []
        ends = ((-bound, lo, 1), (lo, hi, -1), (hi, bound, 1))
        xs, seeds = [x << bits - k for x, k in seeds], list(seeds)
        for i, c, h in ((0, lo, math.isqrt(p_lo // r)), (1, hi, math.isqrt(-p_hi // r))):
            if h >> s + bits - 28 == 0 or not xs[i] < c < xs[i + 1]:
                m = c - (2 * i - 1) * (2 * h * h // r)
                seeds[i : i + 2] = (m - h, bits), (m + h, bits)
    return [_root(b, *e, x, k, bits) for e, (x, k) in zip(ends, seeds)]


def agm_periods(curve):
    """Period lattice of the real embedding of a curve (an integral model) over Q.

    Delta > 0: omega1 = pi / M1, omega2 = i pi / M2, M1 = M(sqrt(e1 - e3),
    sqrt(e1 - e2)), M2 = M(sqrt(e1 - e3), sqrt(e2 - e3)), tau0 = i M1 / M2.
    Delta < 0: w = e1 - e2 (Im e2 > 0), M1 = M(Re sqrt(w), |sqrt(w)|), M2
    the same for -w, omega2 = (omega1 + i pi / M2) / 2, tau0 = 1/2 + i M1 /
    (2 M2) (Cremona, Algorithms for Modular Elliptic Curves, Sec. 3.7).
    Only the real roots of p = 4x^3 + b2 x^2 + 2 b4 x + b6 are solved for,
    as e1 + 2 Re e2 = -b2 / 4 and |w|^2 = p'(e1) / 4 give 8 Re w = 12 e1 +
    b2 and 64 (Im w)^2 = 48 e1^2 + 8 b2 e1 + 32 b4 - b2^2.  Each root is
    seeded in doubles on Y^3 - 3 c4 Y - 2 c6 = 432 p(x), Y = 12 x + b2,
    centred at p's inflection point, refined by integer Newton in its
    bracket between the critical points of p (_real_roots) and certified,
    at 2^-B, by a sign change of p across it +- 1 (_root).  At run time the
    root differences (Delta > 0) or (Im w)^2 (Delta < 0, where |w| >= 1/2
    as |Delta| = 64 |w|^4 (Im w)^2 >= 1) must be known to 2^-(prec + 62)
    relative, so that the AGM inputs carry prec + 60 bits.  B = prec + 64,
    plus the bits a real pair about 4 sqrt(Delta) / c4 apart lacks, grows by
    the bits still missing, and the roots are refined once more.  All runs on
    integers, the smaller AGM input at 2^(prec.bits() + 21) units or more;
    the larger of Re sqrt(+-w) = sqrt((|w| +- Re w) / 2) is an isqrt, the
    other |Im w| / 2 over it.  tau and h+ need only the means, no period.

    The lattice is checked by its discriminant: 12 log(2 pi / omega1') +
    log delta(tau) must match log Delta of the model mod 2 pi i to 1e-6, in
    modulus and phase, with omega1' = c omega2 + d omega1 read from the
    integer means; that checks the AGM means and the reduction at once,
    and so ties M1 M2, from which ellcurve.faltings_height_plus reads h+,
    to Delta.  It runs in doubles: log omega1' is math.log of integers and
    an atan2, log Delta is math.log of an int, and log delta(tau) is
    log_delta, so no magnitude becomes a float.  Each log, and log_delta,
    is within a few units of 2^-53 times its size, about 1e-12 absolute
    for sizes below 10^3 (integers below 1400 bits); there the sum, with
    its factor 12, is within 1e-10, far inside the 1e-6 tolerance.
    """
    b = b2, b4, b6 = curve.b2, curve.b4, curve.b6
    p, B, three = prec.bits(), prec.bits() + 64, curve.delta > 0
    c4, c6 = b2 * b2 - 24 * b4, 36 * b2 * b4 - b2**3 - 216 * b6
    if three:
        B += max(0, c4.bit_length() - curve.delta.bit_length() // 2)
    s, (_, c1, c0) = arith._fujiwara_scaled([-2 * c6, -3 * c4, 0, 1])  # 432 p((Y - b2) / 12)
    seeds = []
    for y in _double_roots(c1, c0, three):  # each Y = 12 x + b2 to about 50 bits
        k = min(B, max(0, 50 - s - math.frexp(y)[1]))
        seeds.append(((arith.to_fixed(y, s + k) - (b2 << k)) // 12, k))
    for _ in range(8):  # known: the least checked value over its error bound
        roots, known = _real_roots(b, three, seeds, B, s), 0
        if roots and three:
            e3, e2, e1 = roots
            known = min(e1 - e2, e2 - e3) // 2  # each root within one unit
        elif roots:  # 8 Re w at 2^-B, 64 (Im w)^2 at 2^-2B within 8 |u| + 48 units
            u = 12 * roots[0] + (b2 << B)
            v2 = (48 * roots[0] + (8 * b2 << B)) * roots[0] + ((32 * b4 - b2 * b2) << 2 * B)
            known = max(0, v2 // (8 * abs(u) + 48))
        if known.bit_length() > p + 62:
            break
        seeds = [(x, B) for x in roots] or seeds
        B += p + 66 - known.bit_length() if known > 1 else B  # twice B where the error swamps all
    else:
        raise AgmNoConvergence("2-division roots not separated")
    if three:
        t = max((B + 1) // 2, (2 * p + 44 + B - min(e1 - e2, e2 - e3).bit_length()) // 2)
        r13, r12, r23 = (math.isqrt(d << 2 * t - B) for d in (e1 - e3, e1 - e2, e2 - e3))
        m1, m2 = _agm(r13, r12), _agm(r13, r23)
        half, den = 0, m2  # Re tau0 = half / 2
    else:  # t as from Re w and |Im w| at 2^-B, then both at 2^-2t
        v = math.isqrt(v2) >> 3
        t = max((B + 4) // 2, (2 * p + 48 + B + max(abs(u) >> 3, v).bit_length()) // 2 - v.bit_length())
        u, v = u << 2 * t - B - 3, math.isqrt(v2 << 4 * t - 2 * B - 6)
        w = math.isqrt(u * u + v * v)  # |w| at 2^-2t
        big, root = math.isqrt((w + abs(u)) >> 1), math.isqrt(w)
        small = (v + big) // (2 * big)
        m1, m2 = _agm(big if u >= 0 else small, root), _agm(small if u >= 0 else big, root)
        half, den = 1, 2 * m2
    # the bits _reduce_fixed asks for, as log2(1 / Im tau0) < len(den) - len(m1) + 1
    bits = p + 40 + 2 * max(0, den.bit_length() - m1.bit_length() + 1)
    tau = _reduce_fixed(half << (bits - 1), (2 * (m1 << bits) + den) // (2 * den), bits)
    # the AGM inputs are at 2^-t, so M1, M2 = m1, m2 2^-(t + 1)
    periods = PeriodData(tau, m1, m2, t + 1, three)
    if abs(_lattice_residual(periods, curve.delta)) > 1e-6:
        raise AgmNoConvergence("period lattice does not reproduce the model discriminant")
    return periods
