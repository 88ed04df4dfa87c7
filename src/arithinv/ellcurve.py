"""Elliptic curves over Q: models, reduction data, canonical heights,
the height pairing, Mordell-Weil regulators, and the nonnegative
differential height.

Heights use the x-coordinate normalization hhat_x(P) =
lim 4^(-n) h_x(2^n P).  The bilinear pairing is attached to the cubic
polarization, a single auditable constant: <P,P> = HEIGHT_SCALE *
hhat_x(P) with HEIGHT_SCALE = 3/2 (the x-function has degree 2, the
polarization degree 3).

A curve is an integral model: `WeierstrassCurve` holds its a-, b- and
c-invariants and delta as integers.  A point is the integer triple
(X, Y, Z) with x = X/Z^2 and y = Y/Z^3, and one group law, on those
Jacobian triples, adds, multiplies and tests for torsion.  A rational
model is read once, by `minimal_model`, and rational coordinates once, by
its `to_minimal`, which maps them to a point of the minimal model.

Two independent height paths are kept deliberately separate:

* the primary path decomposes hhat_x place by place -- an archimedean
  series in the real embedding plus one exact p-adic valuation series
  per bad prime; the decomposition follows from the product formula
  applied to the duplication map x(2P) = F(x)/G(x).  Both series run
  on one projective orbit x_n = X_n/Z_n, stepped by the quartic forms
  (X, Z) <- (Z^4 F(X/Z), Z^4 G(X/Z)).  Unreduced, the real orbit
  telescopes the archimedean series to 4^-N log max(|X_N|, |Z_N|) -
  log Z_0: X and Z are integers truncated to the working precision
  under a shared power of 2.  The p-adic series carries X and Z mod
  p^K, where the resultant of F and G bounds the digits each step can
  strip, so K is fixed in advance, and it stops once the orbit reaches
  the non-singular reduction E_0.  log Z_0 cancels against the
  valuations, so hhat_x takes one log plus one per bad prime whose
  series is not 0;
* the oracle path is Silverman's algorithm (Math. Comp. 51, 1988) on
  the global minimal model: a q-series at the elliptic logarithm (Sec. 4,
  from the AGM period lattice) plus the closed forms of his Thm 5.2 in
  the valuations of delta, psi_2 and psi_3 at each bad prime, with an
  explicit series-tail and rounding bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mpc, mpf

from . import analytic, arith, prec
from .errors import (
    DependentPoints,
    InvariantError,
    NoConvergence,
    PointNotOnCurve,
    SingularCurve,
)

HEIGHT_SCALE = Fraction(3, 2)  # pairing normalization: cubic polarization over x
TORSION_ORDER_BOUND = 12  # largest torsion order over Q
DEFAULT_TOL = 1e-9


class WeierstrassCurve(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    delta: int

    @property
    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


def weierstrass_curve(a1, a2, a3, a4, a6):
    """The integral model with these a-invariants: b/c invariants and
    discriminant, on integers.

    Each a_i is an int or a Fraction with denominator 1; a rational model
    goes through `minimal_model` instead.
    """
    a_invs = (a1, a2, a3, a4, a6)
    if any(a.denominator != 1 for a in a_invs):
        raise InvariantError("a-invariants [%s] are not integral" % ", ".join(map(str, a_invs)))
    a1, a2, a3, a4, a6 = (a.numerator for a in a_invs)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if delta == 0:
        raise SingularCurve("discriminant vanishes")
    assert 4 * b8 == b2 * b6 - b4 * b4
    assert c4**3 - c6**2 == 1728 * delta
    return WeierstrassCurve(a1, a2, a3, a4, a6, b2, b4, b6, b8, c4, c6, delta)


def _integral_model(a_invs):
    """d, the lcm of the denominators of a1..a6, and the integers a_i d^i:
    the integral model x' = d^2 x, y' = d^3 y."""
    d = math.lcm(*[a.denominator for a in a_invs])
    return d, [a.numerator * (d**w // a.denominator) for a, w in zip(a_invs, (1, 2, 3, 4, 6))]


# ---------------------------------------------------------------------------
# points and the group law


class Point(NamedTuple):
    """x = X/Z^2 and y = Y/Z^3 on integers, Z = 0 being O.  Normal form: Z
    > 0, and no w > 1 has w^2 | X, w^3 | Y and w | Z; on an integral model
    Z is then the e of x = X/e^2, y = Y/e^3 in lowest terms (Silverman,
    AEC VII.3), and gcd(X, Z) = 1."""

    X: int
    Y: int
    Z: int

    @property
    def is_infinity(self):
        return self.Z == 0

    @property
    def x(self):
        return Fraction(self.X, self.Z * self.Z)

    @property
    def y(self):
        return Fraction(self.Y, self.Z**3)

    @classmethod
    def of(cls, x, y):
        """(x, y) with den(x) = e^2 and den(y) = e^3, as on an integral model."""
        x, y = (v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (x, y))
        e, rem = divmod(y.denominator, x.denominator)
        if rem or x.denominator != e * e:
            raise PointNotOnCurve("point %s,%s is on no integral model" % (x, y))
        return cls(x.numerator, y.numerator, e)


INFINITY = Point(1, 1, 0)


def _normalized(triple):
    """The Point of a Jacobian triple, None being O.  A triple of a point
    of an integral model is (X w^2, Y w^3, Z w) for its normal form (X, Y,
    Z) and an integer w, and gcd(X, Z) = 1, so w^2 = gcd(X w^2, Z^2 w^2)."""
    if triple is None:
        return INFINITY
    X, Y, Z = triple
    w = math.isqrt(math.gcd(X, Z * Z)) * (-1 if Z < 0 else 1)
    return Point(X // (w * w), Y // w**3, Z // w)


def on_curve(curve, point):
    """Exact membership on integers: Y^2 + a1 XYZ + a3 YZ^3 = X^3 + a2 X^2 Z^2
    + a4 XZ^4 + a6 Z^6, which O = (1, 1, 0) satisfies."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    X, Y, Z = point
    zz = Z * Z
    return Y * (Y + a1 * X * Z + a3 * zz * Z) == X**3 + zz * (a2 * X * X + zz * (a4 * X + a6 * zz))


def _require_on_curve(curve, point):
    if not on_curve(curve, point):
        raise PointNotOnCurve("point %s,%s is not on the curve" % (point.x, point.y))


def negate(curve, point):
    if point.is_infinity:
        return point
    X, Y, Z = point
    return Point(X, -Y - curve.a1 * X * Z - curve.a3 * Z**3, Z)


def add(curve, p, q):
    """p + q, exactly, of two points checked to lie on the curve."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _sum(curve, p, q)


def _sum(curve, p, q):
    # unchecked: the group law keeps points of the curve on it
    if p.is_infinity or q.is_infinity:
        return q if p.is_infinity else p
    return _normalized(_jacobian_add(curve.a_invariants, p, q, q.Z * curve.delta))


def scalar_mul(curve, n, point):
    """n * point by double-and-add on the triples, normalized once at the end."""
    _require_on_curve(curve, point)
    if n < 0:
        n, point = -n, negate(curve, point)
    if n == 0 or point.is_infinity:
        return INFINITY
    a, kept = curve.a_invariants, point.Z * curve.delta
    acc = point
    for bit in bin(n)[3:]:
        acc = _jacobian_add(a, acc, acc, kept)
        if bit == "1":
            acc = _jacobian_add(a, acc, point, kept)
    return _normalized(acc)


def _jacobian_add(a, p, q, kept):
    """p + q on integer Jacobian triples, None being O; p + p if q is p.

    lambda = R/Z3 with Z3 = H s: on the tangent H = Z1^3 (2y + a1 x + a3),
    R = Z1^4 (3x^2 + 2 a2 x + a4 - a1 y) and s = Z1; on the chord H = U2 -
    U1, R = S2 - S1 and s = Z1 Z2, and a common factor of H and R cancels.
    p is reduced at the primes prime to kept = Z2 delta.  At such a prime
    of Z1, P reduces to O and P + Q to Q, so P + Q is p-integral and the
    whole p-part w of Z1 is extraneous: (X3, Y3, Z3) divide by (w^2, w^3,
    w) exactly, and the sum is again reduced at the primes prime to kept.
    """
    if p is None or q is None:
        return q if p is None else p
    a1, a2, a3, a4, _ = a
    (X1, Y1, Z1), (X2, Y2, Z2) = p, q
    if q is p:
        zz, w = Z1 * Z1, 1
        U1 = U2 = X1
        S1, s = Y1, Z1
        H = 2 * Y1 + a1 * X1 * Z1 + a3 * zz * Z1
        R = 3 * X1 * X1 + 2 * a2 * X1 * zz + a4 * zz * zz - a1 * Y1 * Z1
    else:
        z1, z2 = Z1 * Z1, Z2 * Z2
        U1, U2, S1, s = X1 * z2, X2 * z1, Y1 * z2 * Z2, Z1 * Z2
        H, R = U2 - U1, Y2 * z1 * Z1 - S1
        g = math.gcd(H, R) or 1
        H, R = H // g, R // g
        w, g = Z1, math.gcd(Z1, kept)
        while g > 1:
            w //= g
            g = math.gcd(w, g)
    if H == 0:
        return _jacobian_add(a, p, p, kept) if R == 0 and q is not p else None
    Z3, hh = H * s, H * H
    X3 = R * R + a1 * R * Z3 - a2 * Z3 * Z3 - (U1 + U2) * hh
    Y3 = R * (U1 * hh - X3) - a1 * X3 * Z3 - S1 * H * hh - a3 * Z3**3
    return X3 // (w * w), Y3 // w**3, Z3 // w


def is_torsion(curve, point):
    """Exact torsion test: some multiple nP = O with n <= 12 (Mazur bound).

    On an integral model every torsion point has Z^2 | 4 (Silverman, AEC
    VII.3.4), and multiples of a torsion point are torsion, so the loop
    stops at the first multiple with Z^2 not dividing 4.  Before it, 2P is
    read from the duplication forms on integers: x(2P) = F_h/G_h at x =
    X/Z^2, so a torsion P has G_h = 0 (2P = O) or G_h | 4 F_h.
    """
    _require_on_curve(curve, point)
    if point.is_infinity:
        return True
    X, _, Z = point
    if 4 % (Z * Z):
        return False
    f, g = _forms(*_duplication_polys(curve), X, Z * Z)
    if g and 4 * f % g:
        return False
    q = point
    for _ in range(TORSION_ORDER_BOUND):
        q = _sum(curve, q, point)
        if q.is_infinity:
            return True
        if 4 % (q.Z * q.Z):
            return False
    return False


# ---------------------------------------------------------------------------
# model changes and minimalization


def _moved_a_invariants(a, r, s, t):
    # u^i a_i' after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t: the a_i'
    # for u = 1, on integers
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _exact_quotient(a, b):
    return a // b if type(a) is int and type(b) is int and not a % b else Fraction(a, b)


def transform_point(x, y, u, r, s, t):
    """The pair (x', y') of x = u^2 x' + r, y = u^3 y' + s u^2 x' + t; ints stay ints."""
    x = x - r
    return _exact_quotient(x, u * u), _exact_quotient(y - s * x - t, u**3)


class MinimalModel(NamedTuple):
    """A global minimal model, the change (u, r, s, t) = (U/den, R/den^2,
    S/den, T/den^3) taking the input model to it as the integers (U, R, S,
    T) of its integral model, and the factorization of delta_min."""

    curve: WeierstrassCurve
    den: int
    change: tuple  # (U, R, S, T)
    delta_factors: arith.Factorization
    u = property(lambda self: Fraction(self.change[0], self.den))

    def to_minimal(self, x, y):
        """The Point of the minimal model at the input model's (x, y): the one
        reader of rational coordinates (PointNotOnCurve if not integral)."""
        return Point.of(*transform_point(x * self.den**2, y * self.den**3, *self.change))


def _kraus_ok_at_2(c4, c6):
    if c6 % 4 == 3:  # c6 = -1 mod 4
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _model_from_c_invariants(c4, c6):
    # some integral model with the given invariants; existence by the
    # standard 2- and 3-adic admissibility conditions
    for b2 in range(-5, 7):
        if b2 % 4 not in (0, 1):
            continue
        if (b2 * b2 - c4) % 24:
            continue
        b4 = (b2 * b2 - c4) // 24
        num = -(b2**3) + 36 * b2 * b4 - c6
        if num % 216:
            continue
        b6 = num // 216
        if b6 % 4 not in (0, 1):
            continue
        a1 = b2 % 2
        a3 = b6 % 2
        if (b4 - a1 * a3) % 2:
            continue
        return (a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
    raise InvariantError("no integral model for c4=%d, c6=%d" % (c4, c6))


def _vp(n, p):
    if n == 0:
        return None  # infinite
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def minimal_model(a_invariants):
    """Global minimal model over Q of rational a-invariants, with the change
    of coordinates from them: the one reader of a rational model.

    Works on the integral model a_i den^i of `_integral_model` (x =
    x'/den^2, y = y'/den^3) and its integer c4, c6 and delta.  From them
    it removes 12th powers prime by prime subject to the 2- and 3-adic
    admissibility of the reduced (c4, c6) and rebuilds a model m.  The
    change (U, R, S, T) from an integral model to a minimal one is
    integral (Silverman, AEC VII.1.3), so S, R and T come from a1, a2, a3
    by exact division, and all five moved a-invariants must be U^i m_i;
    the input's change is (U/den, R/den^2, S/den, T/den^3).  The one
    factorization of the integral model's delta = U^12 delta_min, U =
    prod p^d_p, gives delta_min's exactly: the exponent of p is e_p -
    12 d_p, and primes with exponent 0 drop.
    """
    den, a = _integral_model(a_invariants)
    *_, c4, c6, delta = weierstrass_curve(*a)

    factored = arith.factorize(delta)
    exps = {}  # the largest d_p with p^(12 d_p) | delta, p^(4 d_p) | c4 and p^(6 d_p) | c6
    for p, e in factored.factors:
        d = min([e // 12] + [_vp(c, p) // w for c, w in ((c4, 4), (c6, 6)) if c])
        if d > 0:
            exps[p] = d
    if 3 in exps:  # 3-adic condition: v3(c6') must not be exactly 2
        v = _vp(c6, 3)
        if v is not None and v - 6 * exps[3] == 2:
            exps[3] -= 1
    while True:
        u = math.prod(p**d for p, d in exps.items())
        c4m, c6m = c4 // u**4, c6 // u**6
        if _kraus_ok_at_2(c4m, c6m):
            break
        exps[2] = exps.get(2, 0) - 1  # one step always repairs the 2-adic condition

    m = _model_from_c_invariants(c4m, c6m)
    s, rem_s = divmod(u * m[0] - a[0], 2)
    r, rem_r = divmod(u * u * m[1] - a[1] + s * a[0] + s * s, 3)
    t, rem_t = divmod(u**3 * m[2] - a[2] - r * a[0], 2)
    scaled = tuple(mi * u**w for mi, w in zip(m, (1, 2, 3, 4, 6)))
    if rem_s or rem_r or rem_t or _moved_a_invariants(a, r, s, t) != scaled:
        raise InvariantError("minimal model transformation failed to verify")
    delta_min = arith.Factorization(
        factored.sign,
        tuple(
            (p, e - 12 * exps.get(p, 0))
            for p, e in factored.factors
            if e > 12 * exps.get(p, 0)
        ),
    )
    return MinimalModel(weierstrass_curve(*m), den, (u, r, s, t), delta_min)


# ---------------------------------------------------------------------------
# reduction data


class PrimeReduction(NamedTuple):
    p: int
    v_delta: int
    kind: str  # "multiplicative" | "additive"
    stable: bool  # potentially multiplicative: v_p(j) < 0


class ReductionData(NamedTuple):
    primes: tuple
    n0: int
    n_stable: int
    n_unstable: int
    semistable: bool


def reduction_data(mm):
    """Bad-prime classification of the global minimal model of a
    MinimalModel, read from the delta_min factorization it carries.

    kind is multiplicative exactly when v_p(c4) = 0; a bad prime is
    stable when v_p(j) < 0 (bad reduction survives every base change).
    """
    rows = []
    n0 = n_st = n_uns = 1
    for p, e in mm.delta_factors.factors:
        vc4 = _vp(mm.curve.c4, p)
        multiplicative = vc4 == 0
        vj = None if vc4 is None else 3 * vc4 - e  # v_p(j), j = c4^3 / delta
        stable = vj is not None and vj < 0
        rows.append(
            PrimeReduction(
                p, e, "multiplicative" if multiplicative else "additive", stable
            )
        )
        n0 *= p
        if stable:
            n_st *= p
        else:
            n_uns *= p
    semistable = all(row.kind == "multiplicative" for row in rows)
    return ReductionData(tuple(rows), n0, n_st, n_uns, semistable)


# ---------------------------------------------------------------------------
# canonical heights


def _coeff_l1(coeffs):
    return sum(abs(c) for c in coeffs)


def _duplication_polys(curve):
    """(F, G), low degree first, with x(2P) = F(x)/G(x) on an integral
    model; G equals (2y + a1 x + a3)^2."""
    return [-curve.b8, -2 * curve.b6, -curve.b4, 0, 1], [curve.b6, 2 * curve.b4, curve.b2, 4, 0]


class _HeightData:
    """Per-curve certificates of the primary height path (cached)."""

    def __init__(self, curve):
        self.F, self.G = _duplication_polys(curve)
        a1, b1c, r1 = arith.bezout_cofactors(self.F, self.G)
        a2, b2c, r2 = arith.bezout_cofactors(self.F[::-1], self.G[::-1])  # t^4 (F, G)(1/t)
        c_hi = max(_coeff_l1(self.F), _coeff_l1(self.G))
        c_lo = min(
            abs(r1) / (_coeff_l1(a1) + _coeff_l1(b1c)),
            abs(r2) / (_coeff_l1(a2) + _coeff_l1(b2c)),
        )
        self.mu_bound_inf = max(math.log(c_hi), -math.log(c_lo), 0.0)
        # Res(F, G) = +-delta^2 and the reversed pair's resultant divides
        # it, so R = v_p(Res(F, G)) = 2 v_p(delta) weights each bad prime
        self.bad = [(p, 2 * e) for p, e in arith.factorize(curve.delta).factors]


_height_cache = {}


def _height_data(curve):
    key = curve.a_invariants
    if key not in _height_cache:
        _height_cache[key] = _HeightData(curve)
    return _height_cache[key]


def _forms(F, G, X, Z):
    """(F_h, G_h) = Z^4 (F, G)(X/Z) for the (F, G) of `_duplication_polys`:
    X^4 - b4 X^2 Z^2 - 2 b6 X Z^3 - b8 Z^4 and 4 X^3 Z + b2 X^2 Z^2 + 2 b4
    X Z^3 + b6 Z^4, exactly, from X^2, Z^2 and XZ in 14 products."""
    (f0, f1, f2, _, _), (g0, g1, g2, g3, _) = F, G
    xx, zz, xz = X * X, Z * Z, X * Z
    f = xx * (xx + f2 * zz) + zz * (f1 * xz + f0 * zz)
    return f, xz * (g3 * xx + g2 * xz) + zz * (g1 * xz + g0 * zz)


def _arch_series(hd, X, D, terms, bits):
    """log max(1,|x_0|) + sum_(n<terms) 4^-(n+1) log(max(|F|,|G|)(x_n) / max(1,|x_n|)^4), plus log D.

    With x_n = X_n/Z_n, x_0 = X/D in lowest terms, and (X_(n+1), Z_(n+1))
    = (F_h, G_h)(X_n, Z_n) unreduced, the n-th summand is 4^-(n+1) log
    M_(n+1) - 4^-n log M_n for M_n = max(|X_n|, |Z_n|), so the sum plus
    log D, which the valuations in `canonical_height` cancel, telescopes
    to 4^-terms log M_terms, returned as the int `arith.log_fixed` of M_terms
    at 2^-(bits + 2 terms).  X and Z are integers truncated to bits bits times
    a shared 2^e; F_h and G_h are quartic, so e becomes 4 (e + shift).  A Z
    truncated to 0 is x = infinity, which doubles to itself.
    """
    Z, e = D, 0
    for _ in range(terms):
        shift = max(max(abs(X), abs(Z)).bit_length() - bits, 0)
        X, Z = X >> shift, Z >> shift
        f, g = _forms(hd.F, hd.G, X, Z)
        if g == 0 and Z:
            raise NoConvergence(
                "hit a two-torsion x-coordinate numerically" if f else "degenerate duplication orbit"
            )
        X, Z, e = f, g, 4 * (e + shift)
    return arith.log_fixed(max(abs(X), abs(Z)), e, bits)


def _orbit_valuations(hd, X, D, p, R, terms):
    """Yield m_n, the power of p stripped at each step of the duplication orbit.

    With x_0 = X/D in lowest terms and x_n = X/Z for p-coprime integers X
    and Z, x_(n+1) = F_h/G_h for the quartic forms F_h = Z^4 F(X/Z) and
    G_h = Z^4 G(X/Z), and m_n = min(v_p F_h, v_p G_h).  Forms A, B with A
    F_h + B G_h = Res(F, G) X^7, and another pair with Res(F, G) Z^7, give
    m_n <= v_p(Res(F, G)) = R, the weight of p in `_HeightData.bad`.  Step
    n runs mod p^((terms - n) R + 1), so X and Z keep more than R known
    digits and m_n is exact; as m_n <= R, dividing by p^(m_n) leaves the
    next step's modulus known.
    """
    mod = p ** (terms * R + 1)
    X, Z = X % mod, D % mod
    for _ in range(terms):
        f, g = (v % mod for v in _forms(hd.F, hd.G, X, Z))
        m = 0
        while f % p == 0 and g % p == 0:
            f, g, m = f // p, g // p, m + 1
        mod //= p**R
        X, Z = f, g
        yield m


def _padic_series(hd, X, D, p, R, terms):
    """The integer s = 4^terms sum_n 4^-(n+1) m_n of the truncated local series at x_0 = X/D.

    The summand -min(v F(x_n), v G(x_n)) + 4 min(0, v x_n) of the affine
    series is -m_n, since the 4 v_p(Z) terms cancel: the series is v_p(D)
    - s/4^terms, and v_p(D) cancels in `canonical_height`.  It stops at
    the first m_n = 0: F and G share roots mod p only at the singular x,
    so m_n = 0 exactly when 2^n P lies in E_0, the points of non-singular
    reduction.  E_0 is a subgroup (Silverman, AEC VII.2.1), so every later
    m is 0 too.
    """
    s, weight = 0, 4**terms
    for m in _orbit_valuations(hd, X, D, p, R, terms):
        if m == 0:
            break
        weight //= 4
        s += m * weight
    return s


def canonical_height(curve, point, tol=DEFAULT_TOL):
    """hhat_x(P) by local decomposition to absolute accuracy tol.

    Torsion points (detected exactly) return 0.  The archimedean series
    is 4^-N log M_N - log D, D = Z^2 the denominator of x, each bad prime
    p adds the valuation series (v_p(D) - s_p) log p, and D's part d prime
    to delta adds log d.  As D = d prod_p p^v_p(D), this is 4^-N log M_N -
    sum_p s_p log p: one log, plus one per bad prime with s_p != 0.  Each is
    `arith.log_fixed` at W = prec + 3N + 60 bits, within 2^-W, and s_p 4^-T_p
    < R_p / 3, so the logs add less than 2^-W (1 + sum_p R_p / 3) to the
    series' tails; their sum, exact at one power of 2, is rounded once.
    """
    if point.is_infinity or is_torsion(curve, point):  # is_torsion checks the point
        return 0.0
    hd = _height_data(curve)
    X, D = point.X, point.Z * point.Z  # x in lowest terms
    tail_each = tol / (4 * (1 + len(hd.bad)))

    terms_inf = max(
        5, math.ceil(math.log(max(hd.mu_bound_inf, 1e-9) / (3 * tail_each)) / math.log(4))
    )
    bits = prec.bits() + 3 * terms_inf + 60
    total, scale = _arch_series(hd, X, D, terms_inf, bits), 2 * terms_inf  # at 2^-(bits + scale)
    for p, R in hd.bad:
        terms_p = max(5, math.ceil(math.log(R * math.log(p) / (3 * tail_each)) / math.log(4)))
        s = _padic_series(hd, X, D, p, R, terms_p)
        if s:
            total = (total << 2 * terms_p) - (s * arith.log_fixed(p, 0, bits) << scale)
            scale += 2 * terms_p
    return total / (1 << bits + scale)


def _bad_local_height(curve, point, row):
    """Silverman (1988) Thm 5.2: lambda_p(P) / log p on a model minimal at p.

    On the integral model x = X/e^2 and y = Y/e^3 in lowest terms.  If p
    divides e, P reduces to O and lambda_p = v_p(e^2)/2 = v_p(e).
    Otherwise e is a p-unit, so A, B and C are the valuations of the
    integer forms below.
    """
    p = row.p
    X, Y, e = point
    if e % p == 0:
        return Fraction(_vp(e, p))
    D = e * e

    def v(n):
        return math.inf if n == 0 else _vp(n, p)

    a1, a2, a3, a4, _ = curve.a_invariants
    a = v(3 * X * X + 2 * a2 * X * D + a4 * D * D - a1 * Y * e)
    b = v(2 * Y + a1 * X * e + a3 * e * D)
    if a <= 0 or b <= 0:
        return Fraction(0)
    if row.kind == "multiplicative":
        n = row.v_delta
        m = min(b, Fraction(n, 2))
        return -m * (n - m) / (2 * n)
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    c = v(3 * X**4 + D * (b2 * X**3 + D * (3 * b4 * X * X + D * (3 * b6 * X + b8 * D))))
    if c >= 3 * b:
        return Fraction(-b, 3)
    return Fraction(-c, 8)


def _archimedean_local_height(curve, periods, point, tol):
    """Silverman (1988) Sec. 4: lambda_inf(P) and an error bound.

    The elliptic logarithm z is Carlson's R_F on the identity component;
    a point on the egg is first moved there by adding the 2-torsion
    point T3 (z(P) = z(P + T3) + omega2/2).  The q-series runs in the
    reduced basis of the period lattice, with t = Im z / Im tau folded
    into [0, 1/2] (lambda is even and periodic), so every factor
    |q^n u^{+-1}| is at most |q|^(n - 1/2) <= exp(-pi sqrt 3 (n - 1/2)).
    """
    roots = arith.poly_roots([curve.b6, 2 * curve.b4, curve.b2, 4])
    root_err = max(r.err for r in roots)
    with prec.working(20):
        pi = mpmath.pi
        eta = mpf(2) ** -prec.bits()  # inputs carry at least prec.bits() + 10 bits
        # omega1 = pi / M1, omega2 = i pi / M2 or (omega1 + i pi / M2) / 2, and tau
        omega1 = pi / arith.from_fixed(periods.m1, periods.scale)
        g = pi / arith.from_fixed(periods.m2, periods.scale)
        omega2 = mpc(0, g) if periods.rectangular else mpc(omega1, g) / 2
        tx, ty, bits, ((_, _), (c, d)) = periods.tau
        tau = mpc(arith.from_fixed(tx, bits), arith.from_fixed(ty, bits))
        x = mpf(point.X) / (point.Z * point.Z)
        if curve.delta > 0:
            e3, e2, e1 = [r.real for r in roots]
        else:
            e1, e2, e3 = [r.value for r in roots]
        args = [x - e1, x - e2, x - e3]
        # relative error of each argument of R_F, also after the egg move
        rho = 4 * (eta * (abs(x) + abs(e1) + abs(e3)) + 2 * root_err) / min(abs(a) for a in args)
        if rho > mpf(2) ** (-prec.bits() // 2):
            raise NoConvergence("point too close to a two-torsion x-coordinate")
        shift = 0
        if curve.delta > 0 and x < e1:  # the egg: x(P + T3) - e_i without cancellation
            a1, a2, a3 = args
            args = [(e3 - e1) * a2 / a3, (e3 - e2) * a1 / a3, (e3 - e1) * (e3 - e2) / a3]
            shift = omega2 / 2
        z = mpmath.elliprf(*args) + shift
        # first order: sum |a_i dR_F/da_i| <= kappa |R_F| (kappa = 1/2 for
        # positive arguments; a conjugate pair a, conj(a) adds |a| / |Im a|)
        kappa = mpf(1) / 2 if curve.delta > 0 else 1 + abs(args[1]) / abs(mpmath.im(args[1]))
        dz = kappa * rho * abs(z - shift) + eta * abs(shift)

        w1 = c * omega2 + d * omega1
        zt = z / w1
        zt -= mpmath.floor(mpmath.im(zt) / mpmath.im(tau)) * tau
        if mpmath.im(zt) > mpmath.im(tau) / 2:
            zt = tau - zt
        zt -= mpmath.nint(mpmath.re(zt))
        t = mpmath.im(zt) / mpmath.im(tau)

        # the factors n > N have |log|1 - w|| <= |w|/(1 - |w|) with
        # |w| <= r^(n - 1/2), r = |q|; their sum is at most tail(N)
        r = mpmath.exp(-2 * pi * mpmath.im(tau))
        n_terms, tail = 0, 2 * mpmath.sqrt(r) / ((1 - r) * (1 - mpmath.sqrt(r)))
        while tail > tol / 8:
            n_terms += 1
            tail *= r
        q = mpmath.exp(2j * pi * tau)
        u = mpmath.exp(2j * pi * zt)
        one_minus_u = -mpmath.expm1(2j * pi * zt)
        terms = [pi * mpmath.im(tau) * (t * t - t + mpf(1) / 6), -mpmath.log(abs(one_minus_u))]
        qn = q
        for _ in range(n_terms):
            terms.append(-mpmath.log(abs((1 - qn * u) * (1 - qn / u))))
            qn *= q
        value = mpmath.fsum(terms)
        # rounding, and the input errors through |d lambda / d zt| <= 2 pi (1/|1 - u| + 1)
        slope = 2 * pi * (1 / abs(one_minus_u) + 1)
        rounding = eta * (len(terms) + mpmath.fsum(abs(v) for v in terms) + pi * mpmath.im(tau))
        rounding += slope * (eta * (abs(zt) + abs(tau)) + dz / abs(w1))
        return value, float(tail + rounding)


def canonical_height_doubling(curve, point, tol=1e-6):
    """Independent oracle: hhat_x(P) as Silverman's sum of local heights.

    Returns (value, error_bound) with error_bound <= tol.  The point
    moves to the global minimal model; there hhat_x(P) = 2 (lambda_inf +
    sum_p lambda_p log p + (1/2) log d + (1/12) log |delta_min|), with
    the archimedean q-series of Silverman (Math. Comp. 51, 1988, Sec. 4)
    at the elliptic logarithm, the closed forms of his Thm 5.2 at each
    bad prime, and d the part of the denominator of x prime to delta.
    The name recalls the definition hhat_x = lim 4^-n h_x(2^n P) that
    the result approximates; no point is doubled.
    """
    _require_on_curve(curve, point)
    if point.is_infinity:
        return 0.0, 0.0
    mm = minimal_model(curve.a_invariants)
    model, q = mm.curve, mm.to_minimal(point.x, point.y)
    if is_torsion(model, q):
        return 0.0, 0.0
    lam_inf, bound = _archimedean_local_height(model, analytic.agm_periods(model), q, tol)
    bad = reduction_data(mm).primes
    den = q.Z * q.Z
    for row in bad:
        while den % row.p == 0:
            den //= row.p
    with prec.working(20):
        total = lam_inf + mpmath.log(abs(model.delta)) / 12 + mpmath.log(den) / 2
        for row in bad:
            total += _bad_local_height(model, q, row) * mpmath.log(row.p)
        value = float(2 * total)
    bound = 2 * bound + math.ulp(value) / 2  # rounding the sum to a float
    if not bound <= tol:
        raise NoConvergence("oracle error bound %.3g exceeds tol %.3g" % (bound, tol))
    return value, bound


class MordellWeilBasis(NamedTuple):
    gram: tuple  # rows of the pairing matrix
    regulator: float


def mw_regulator(curve, points, claimed_rank):
    """Gram determinant of the supplied points under the height pairing.

    Empty input gives the empty-determinant convention 1.  The LDL^T
    pivots of the Gram matrix as stored decide, exactly, that it is
    positive semidefinite and give its determinant; a determinant
    collapsing below 1e-8 of the diagonal scale means the points are
    dependent.
    """
    if len(points) != claimed_rank:
        raise InvariantError(
            "expected %d points, got %d" % (claimed_rank, len(points))
        )
    for pt in points:
        _require_on_curve(curve, pt)
    if claimed_rank == 0:
        return MordellWeilBasis((), 1.0)
    m = len(points)
    heights = [canonical_height(curve, pt) for pt in points]
    gram = [[0.0] * m for _ in range(m)]
    scale = float(HEIGHT_SCALE)
    for i in range(m):
        gram[i][i] = scale * heights[i]
        for k in range(i + 1, m):
            hsum = canonical_height(curve, _sum(curve, points[i], points[k]))
            val = (scale / 2) * (hsum - heights[i] - heights[k])
            gram[i][k] = gram[k][i] = val
    pivots = arith.ldl_pivots(gram)
    if min(pivots) < 0:
        raise DependentPoints("pairing Gram matrix is not positive semidefinite")
    det = float(math.prod(pivots))
    diag_scale = 1.0
    for i in range(m):
        diag_scale *= max(gram[i][i], 1e-30)
    if det < 1e-8 * diag_scale:
        raise DependentPoints("supplied points are not independent")
    return MordellWeilBasis(tuple(tuple(row) for row in gram), det)


# ---------------------------------------------------------------------------
# the nonnegative differential height


def faltings_height_plus(periods):
    """(1/12)(log |delta_min| - log(|delta(tau)| (2 Im tau)^6)) over Q.

    periods is the AGM period lattice of the global minimal model
    (``analytic.agm_periods(mm.curve)``), which has checked delta_min =
    (2 pi / omega1')^12 delta(tau) on its reduced basis.  So h+ = log |2
    pi / omega1'| - log(2 Im tau) / 2, and Im tau = A / |omega1'|^2 with A
    = Im(conj(omega1) omega2) the covolume, which no change of basis
    moves: h+ = log 2 pi - log(2 A) / 2.  The AGM gives A = pi^2 / (M1 M2)
    for a rectangular lattice and half that for a rhombic one (Cremona,
    Algorithms for Modular Elliptic Curves, Sec. 3.7), so h+ = log(2^k M1
    M2) / 2, k = 1 (Delta > 0) or 2 (Delta < 0): half of one log, at
    prec.bits() + 30, of the integer m1 m2 times a power of 2.  Always >= 0.

    Error budget, in units of 2^-prec.bits(): each AGM stops once its
    iterates agree to 2^-(prec + 12) relative, on inputs of at least prec
    + 20 bits, so m1 and m2 are within 2^-11 relative and h+ within 2^-11;
    the log of the exact m1 m2 (`arith.log_fixed`) adds 2^-31.  In all about
    2^-(prec + 10), with the AGM inputs at prec + 60 correct bits, which
    analytic.agm_periods checks at run time.
    """
    k, bits = 1 if periods.rectangular else 2, prec.bits() + 30
    return arith.log_fixed(periods.m1 * periods.m2, k - 2 * periods.scale, bits) / (1 << bits + 1)


# ---------------------------------------------------------------------------
# the rank-zero family y^2 = x^3 + p^2


def ep_family(pmax):
    """(label, a-invariants) of y^2 = x^3 + p^2 for primes p = 5 mod 9 up
    to pmax; every one has rank 0."""
    out = []
    for p in range(5, pmax + 1):
        if p % 9 == 5 and arith.is_prime(p):
            out.append(("Ep%d" % p, (0, 0, 0, 0, p * p)))
    return out
