"""Elliptic curves over Q: models, reduction data, canonical heights,
the height pairing, Mordell-Weil regulators, and the nonnegative
differential height.

Heights use the x-coordinate normalization hhat_x(P) =
lim 4^(-n) h_x(2^n P).  The bilinear pairing is attached to the cubic
polarization, a single auditable constant: <P,P> = HEIGHT_SCALE *
hhat_x(P) with HEIGHT_SCALE = 3/2 (the x-function has degree 2, the
polarization degree 3).

Two independent height paths are kept deliberately separate:

* the primary path decomposes hhat_x place by place -- an archimedean
  series in the real embedding plus one exact p-adic valuation series
  per bad prime; the decomposition follows from the product formula
  applied to the duplication map x(2P) = F(x)/G(x).  Both series run
  on one projective orbit x_n = X_n/Z_n, stepped by the quartic forms
  (X, Z) <- (Z^4 F(X/Z), Z^4 G(X/Z)).  Unreduced, the real orbit
  telescopes the archimedean series to 4^-N log max(|X_N|, |Z_N|) -
  log Z_0: X and Z are integers truncated to the working precision
  under a shared power of 2, and one log ends the series.  The p-adic
  series carries X and Z mod p^K, where the resultant of F and G bounds
  the digits each step can strip, so K is fixed in advance, and it stops
  once the orbit reaches the non-singular reduction E_0;
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
from mpmath import mpf

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
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction
    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    delta: Fraction

    @property
    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def is_integral(self):
        return all(a.denominator == 1 for a in self.a_invariants)


def weierstrass_curve(a1, a2, a3, a4, a6):
    """Derived b/c invariants and discriminant from a1..a6 (exact).

    With d the lcm of the denominators, a_i d^i is an integer, so every
    invariant of weight w is formed on integers and divided by d^w once.
    """
    a_invs = tuple(Fraction(a) for a in (a1, a2, a3, a4, a6))
    d, a = _integral_model(a_invs)
    weighted = zip(_integer_invariants(*a), (2, 4, 6, 8, 4, 6, 12))
    return WeierstrassCurve(*a_invs, *(Fraction(v, d**w) for v, w in weighted))


def _integer_invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8, c4, c6, delta) of an integral model, on integers."""
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
    return b2, b4, b6, b8, c4, c6, delta


def _integral_model(a_invs):
    """d, the lcm of the denominators of a1..a6, and the integers a_i d^i:
    the integral model x' = d^2 x, y' = d^3 y."""
    d = math.lcm(*[a.denominator for a in a_invs])
    if d == 1:
        return 1, [a.numerator for a in a_invs]
    return d, [a.numerator * (d**w // a.denominator) for a, w in zip(a_invs, (1, 2, 3, 4, 6))]


# ---------------------------------------------------------------------------
# points and the group law


class Point(NamedTuple):
    x: Fraction | None = None
    y: Fraction | None = None

    @property
    def is_infinity(self):
        return self.x is None

    @classmethod
    def of(cls, x, y):
        return cls(Fraction(x), Fraction(y))


INFINITY = Point()


def on_curve(curve, point):
    """Exact membership on integers: (d^2 x, d^3 y) on the model a_i d^i of
    `_integral_model`, its equation times D^3 F^2 for x = X/D, y = Y/F."""
    if point.is_infinity:
        return True
    d, (a1, a2, a3, a4, a6) = _integral_model(curve.a_invariants)
    X, D = point.x.numerator * d * d, point.x.denominator
    Y, F = point.y.numerator * d**3, point.y.denominator
    lhs = D * D * Y * (Y * D + a1 * X * F + a3 * D * F)
    rhs = F * F * (X**3 + D * (a2 * X * X + D * (a4 * X + a6 * D)))
    return lhs == rhs


def _require_on_curve(curve, point):
    if not on_curve(curve, point):
        raise PointNotOnCurve("point %s is not on the curve" % (point,))


def negate(curve, point):
    if point.is_infinity:
        return point
    return Point(point.x, -point.y - curve.a1 * point.x - curve.a3)


def add(curve, p, q):
    """Exact chord-tangent addition of two points checked to lie on the curve."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _add(curve, p, q)


def _add(curve, p, q):
    # unchecked: exact chord-tangent sums of points on the curve stay on it
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    a1, a2, a3, a4 = curve.a1, curve.a2, curve.a3, curve.a4
    if p.x == q.x:
        if q.y == -p.y - a1 * p.x - a3:
            return INFINITY
        lam = (3 * p.x * p.x + 2 * a2 * p.x + a4 - a1 * p.y) / (
            2 * p.y + a1 * p.x + a3
        )
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    nu = p.y - lam * p.x
    x3 = lam * lam + a1 * lam - a2 - p.x - q.x
    y3 = -(lam + a1) * x3 - nu - a3
    return Point(x3, y3)


def scalar_mul(curve, n, point):
    """n * point by double-and-add on integer Jacobian coordinates.

    On the integral model a_i d^i (`_integral_model`) a point is x =
    X/Z^2, y = Y/Z^3 with X, Y and Z integers.  The chain divides only
    exactly; one Fraction per coordinate reduces the result, which x/d^2,
    y/d^3 maps back.
    """
    _require_on_curve(curve, point)
    if n < 0:
        n, point = -n, negate(curve, point)
    if n == 0 or point.is_infinity:
        return INFINITY
    d, a = _integral_model(curve.a_invariants)
    x, y = point.x * d * d, point.y * d**3  # X/e^2 and Y/e^3 in lowest terms
    base = acc = (x.numerator, y.numerator, y.denominator // x.denominator)
    kept = base[2] * int(curve.delta * d**12)
    for bit in bin(n)[3:]:
        acc = _jacobian_add(a, acc, acc, kept)
        if bit == "1":
            acc = _jacobian_add(a, acc, base, kept)
    if acc is None:
        return INFINITY
    X, Y, Z = acc
    return Point(Fraction(X, (Z * d) ** 2), Fraction(Y, (Z * d) ** 3))


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

    The test runs on the integral model a_i d^i of `_integral_model` at
    (d^2 x, d^3 y).  There every torsion point has 4x integral (Silverman,
    AEC VII.3.4), and multiples of a torsion point are torsion, so the
    loop stops at the first multiple with 4x not in Z.  Before it, 2P is
    read from the duplication forms on integers: x(2P) = F_h/G_h at
    x = X/Z, so a torsion P has G_h = 0 (2P = O) or G_h | 4 F_h.
    """
    _require_on_curve(curve, point)
    if point.is_infinity:
        return True
    d, a = _integral_model(curve.a_invariants)
    if d > 1:
        curve, point = weierstrass_curve(*a), Point(point.x * d * d, point.y * d**3)
    X, Z = point.x.numerator, point.x.denominator
    if 4 % Z:
        return False
    f, g = _forms(*_duplication_polys(curve), X, Z)
    if g and 4 * f % g:
        return False
    q = point
    for _ in range(TORSION_ORDER_BOUND):
        q = _add(curve, q, point)
        if q.is_infinity:
            return True
        if 4 % q.x.denominator:
            return False
    return False


# ---------------------------------------------------------------------------
# model changes and minimalization


def _moved_a_invariants(a, r, s, t):
    # u^i a_i' after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t: the a_i'
    # for u = 1, exact on ints and Fractions alike
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def transform_point(point, u, r, s, t):
    """The point on the model of x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    if point.is_infinity:
        return point
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    x = (point.x - r) / u**2
    y = (point.y - s * (point.x - r) - t) / u**3
    return Point(x, y)


class MinimalModel(NamedTuple):
    """A global minimal model, the (u, r, s, t) taking the input model to
    it, and the factorization of its discriminant delta_min."""

    curve: WeierstrassCurve
    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction
    delta_factors: arith.Factorization

    def to_minimal(self, point):
        return transform_point(point, self.u, self.r, self.s, self.t)


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


def minimal_model(curve):
    """Global minimal model over Q with the change of coordinates.

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
    den, a = _integral_model(curve.a_invariants)
    _, _, _, _, c4, c6, delta = _integer_invariants(*a)

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
    change = (Fraction(u, den), Fraction(r, den**2), Fraction(s, den), Fraction(t, den**3))
    return MinimalModel(weierstrass_curve(*m), *change, delta_min)


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
    c4 = int(mm.curve.c4)
    rows = []
    n0 = n_st = n_uns = 1
    for p, e in mm.delta_factors.factors:
        vc4 = _vp(c4, p)
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
    b2, b4, b6, b8 = (b.numerator for b in (curve.b2, curve.b4, curve.b6, curve.b8))
    return [-b8, -2 * b6, -b4, 0, 1], [b6, 2 * b4, b2, 4, 0]


class _HeightData:
    """Per-curve certificates of the primary height path (cached)."""

    def __init__(self, curve):
        if not curve.is_integral:
            raise InvariantError("height computations need an integral model")
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
        self.bad = [(p, 2 * e) for p, e in arith.factorize(int(curve.delta)).factors]


_height_cache = {}


def _height_data(curve):
    key = curve.a_invariants
    if key not in _height_cache:
        _height_cache[key] = _HeightData(curve)
    return _height_cache[key]


def _forms(F, G, X, Z):
    """(F_h, G_h) = Z^4 (F, G)(X/Z), the duplication map on x = X/Z, by
    one homogeneous Horner pass."""
    f, g, zk = F[4], G[4], 1
    for cf, cg in zip(F[3::-1], G[3::-1]):
        zk *= Z
        f = f * X + cf * zk
        g = g * X + cg * zk
    return f, g


def _arch_series(hd, x0, terms):
    """log max(1,|x_0|) + sum_(n<terms) 4^-(n+1) log(max(|F|,|G|)(x_n) / max(1,|x_n|)^4).

    With x_n = X_n/Z_n and (X_(n+1), Z_(n+1)) = (F_h, G_h)(X_n, Z_n)
    unreduced, the n-th summand is 4^-(n+1) log M_(n+1) - 4^-n log M_n for
    M_n = max(|X_n|, |Z_n|), so the sum telescopes to 4^-terms log M_terms
    - log Z_0.  X and Z are integers truncated to the working precision
    times a shared 2^e; F_h and G_h are quartic, so e becomes 4 (e + shift).
    A Z truncated to 0 is x = infinity, which doubles to itself.
    """
    bits = mpmath.mp.prec
    X, Z, e = x0.numerator, x0.denominator, 0
    for _ in range(terms):
        shift = max(max(abs(X), abs(Z)).bit_length() - bits, 0)
        X, Z = X >> shift, Z >> shift
        f, g = _forms(hd.F, hd.G, X, Z)
        if g == 0 and Z:
            raise NoConvergence(
                "hit a two-torsion x-coordinate numerically" if f else "degenerate duplication orbit"
            )
        X, Z, e = f, g, 4 * (e + shift)
    top = mpmath.log(max(abs(X), abs(Z))) + e * mpmath.ln2
    return mpmath.ldexp(top, -2 * terms) - mpmath.log(x0.denominator)


def _orbit_valuations(hd, x0, p, R, terms):
    """Yield m_n, the power of p stripped at each step of the duplication orbit.

    With x_n = X/Z for p-coprime integers X and Z, x_(n+1) = F_h/G_h for
    the quartic forms F_h = Z^4 F(X/Z) and G_h = Z^4 G(X/Z), and m_n =
    min(v_p F_h, v_p G_h).  Forms A, B with A F_h + B G_h = Res(F, G) X^7,
    and another pair with Res(F, G) Z^7, give m_n <= v_p(Res(F, G)) = R,
    the weight of p in `_HeightData.bad`.  Step n runs mod p^((terms - n) R
    + 1), so X and Z keep more than R known digits and m_n is exact; as
    m_n <= R, dividing by p^(m_n) leaves the next step's modulus known.
    """
    mod = p ** (terms * R + 1)
    X, Z = x0.numerator % mod, x0.denominator % mod
    for _ in range(terms):
        f, g = (v % mod for v in _forms(hd.F, hd.G, X, Z))
        m = 0
        while f % p == 0 and g % p == 0:
            f, g, m = f // p, g // p, m + 1
        mod //= p**R
        X, Z = f, g
        yield m


def _padic_series(hd, x0, p, R, terms):
    """Exact truncated local series: returns Fraction coefficient of log p.

    The summand -min(v F(x_n), v G(x_n)) + 4 min(0, v x_n) of the affine
    series is -m_n, since the 4 v_p(Z) terms cancel.  The sum
    v_p(Z_0) - sum_n 4^-(n+1) m_n is formed over the common denominator
    4^terms.  It stops at the first m_n = 0: F and G share roots mod p
    only at the singular x, so m_n = 0 exactly when 2^n P lies in E_0, the
    points of non-singular reduction.  E_0 is a subgroup (Silverman, AEC
    VII.2.1), so every later m is 0 too.
    """
    den = weight = 4**terms
    num = _vp(x0.denominator, p) * den
    for m in _orbit_valuations(hd, x0, p, R, terms):
        if m == 0:
            break
        weight //= 4
        num -= m * weight
    return Fraction(num, den)


def _strip_primes(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def canonical_height(curve, point, tol=DEFAULT_TOL):
    """hhat_x(P) by local decomposition to absolute accuracy tol.

    Torsion points (detected exactly) return 0.  The archimedean series
    runs in the real embedding; each bad prime contributes an exact
    valuation series along the projective duplication orbit mod p^K;
    good denominator primes contribute log of the coprime denominator
    part directly.
    """
    if point.is_infinity or is_torsion(curve, point):  # is_torsion checks the point
        return 0.0
    hd = _height_data(curve)
    x0 = point.x

    bad_primes = [p for p, _ in hd.bad]
    n_series = 1 + len(hd.bad)
    tail_each = tol / (4 * n_series)

    terms_inf = max(
        5, math.ceil(math.log(max(hd.mu_bound_inf, 1e-9) / (3 * tail_each)) / math.log(4))
    )
    with prec.working(3 * terms_inf + 60):
        total = _arch_series(hd, x0, terms_inf)
        den_good = _strip_primes(x0.denominator, bad_primes)
        total += mpmath.log(den_good)
        for p, R in hd.bad:
            terms_p = max(5, math.ceil(math.log(R * math.log(p) / (3 * tail_each)) / math.log(4)))
            coeff = _padic_series(hd, x0, p, R, terms_p)
            total += (mpf(coeff.numerator) / coeff.denominator) * mpmath.log(p)
        return float(total)


def _bad_local_height(curve, point, row):
    """Silverman (1988) Thm 5.2: lambda_p(P) / log p on a model minimal at p.

    On the integral model x = X/e^2 and y = Y/e^3 in lowest terms.  If p
    divides e, P reduces to O and lambda_p = v_p(e^2)/2.  Otherwise e is
    a p-unit, so A, B and C are the valuations of the integer forms below.
    """
    p = row.p
    X, D = point.x.numerator, point.x.denominator
    if D % p == 0:
        return Fraction(_vp(D, p), 2)
    Y, e = point.y.numerator, point.y.denominator // D

    def v(n):
        return math.inf if n == 0 else _vp(n, p)

    a1, a2, a3, a4 = (int(c) for c in curve.a_invariants[:4])
    a = v(3 * X * X + 2 * a2 * X * D + a4 * D * D - a1 * Y * e)
    b = v(2 * Y + a1 * X * e + a3 * e * D)
    if a <= 0 or b <= 0:
        return Fraction(0)
    if row.kind == "multiplicative":
        n = row.v_delta
        m = min(b, Fraction(n, 2))
        return -m * (n - m) / (2 * n)
    b2, b4, b6, b8 = (int(c) for c in (curve.b2, curve.b4, curve.b6, curve.b8))
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
    roots = periods.roots
    root_err = max(r.err for r in roots)
    with prec.working(20):
        pi = mpmath.pi
        eta = mpf(2) ** -prec.bits()  # inputs carry at least prec.bits() + 10 bits
        x = mpf(point.x.numerator) / point.x.denominator
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
            shift = periods.omega2 / 2
        z = mpmath.elliprf(*args) + shift
        # first order: sum |a_i dR_F/da_i| <= kappa |R_F| (kappa = 1/2 for
        # positive arguments; a conjugate pair a, conj(a) adds |a| / |Im a|)
        kappa = mpf(1) / 2 if curve.delta > 0 else 1 + abs(args[1]) / abs(mpmath.im(args[1]))
        dz = kappa * rho * abs(z - shift) + eta * abs(shift)

        (_, _), (c, d) = periods.tau.transform
        w1 = c * periods.omega2 + d * periods.omega1
        tau = periods.tau.value
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
    mm = minimal_model(curve)
    model, q = mm.curve, mm.to_minimal(point)
    if is_torsion(model, q):
        return 0.0, 0.0
    lam_inf, bound = _archimedean_local_height(model, analytic.agm_periods(model), q, tol)
    bad = reduction_data(mm).primes
    den = _strip_primes(q.x.denominator, [row.p for row in bad])
    with prec.working(20):
        total = lam_inf + mpmath.log(abs(int(model.delta))) / 12 + mpmath.log(den) / 2
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


def mw_regulator(curve, points, claimed_rank, tol=DEFAULT_TOL):
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
    heights = [canonical_height(curve, pt, tol) for pt in points]
    gram = [[0.0] * m for _ in range(m)]
    scale = float(HEIGHT_SCALE)
    for i in range(m):
        gram[i][i] = scale * heights[i]
        for k in range(i + 1, m):
            hsum = canonical_height(curve, _add(curve, points[i], points[k]), tol)
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


def faltings_height_plus(mm, periods):
    """(1/12)(log |delta_min| - log(|delta(tau)| (2 Im tau)^6)) over Q.

    mm is the global minimal model and periods its AGM period lattice
    (``analytic.agm_periods(mm.curve)``), which carries delta(tau).
    Always >= 0.
    """
    with prec.working(30):
        scaled = abs(periods.delta) * (2 * periods.tau.im) ** 6
        value = (mpmath.log(abs(int(mm.curve.delta))) - mpmath.log(scaled)) / 12
    return float(value)


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
