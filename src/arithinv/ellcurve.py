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
  applied to the duplication map x(2P) = F(x)/G(x).  The p-adic series
  doubles x = X/Z projectively on integers mod p^K, where the resultant
  of F and G bounds the digits each step can strip, so K is fixed in
  advance;
* the oracle path is Silverman's algorithm (Math. Comp. 51, 1988) on
  the global minimal model: a q-series at the elliptic logarithm (Sec. 4,
  from the AGM period lattice) plus the closed forms of his Thm 5.2 in
  the valuations of delta, psi_2 and psi_3 at each bad prime, with an
  explicit series-tail and rounding bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class WeierstrassCurve:
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
    j: Fraction

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
    d = math.lcm(*(a.denominator for a in a_invs))
    a1, a2, a3, a4, a6 = (
        a.numerator * (d**w // a.denominator) for a, w in zip(a_invs, (1, 2, 3, 4, 6))
    )
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
    return WeierstrassCurve(
        *a_invs,
        *(Fraction(v, d**w) for v, w in ((b2, 2), (b4, 4), (b6, 6), (b8, 8), (c4, 4), (c6, 6))),
        Fraction(delta, d**12),
        Fraction(c4**3, delta),
    )


# ---------------------------------------------------------------------------
# points and the group law


@dataclass(frozen=True)
class Point:
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
    if point.is_infinity:
        return True
    # the equation times D^3 F^2 for x = X/D, y = Y/F: no big gcds
    X, D = point.x.numerator, point.x.denominator
    Y, F = point.y.numerator, point.y.denominator
    lhs = D * D * Y * (Y * D + curve.a1 * X * F + curve.a3 * D * F)
    rhs = F * F * (X**3 + D * (curve.a2 * X * X + D * (curve.a4 * X + curve.a6 * D)))
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
    _require_on_curve(curve, point)
    if n < 0:
        n, point = -n, negate(curve, point)
    acc = INFINITY
    base = point
    while n:
        if n & 1:
            acc = _add(curve, acc, base)
        base = _add(curve, base, base)
        n >>= 1
    return acc


def is_torsion(curve, point):
    """Exact torsion test: some multiple nP = O with n <= 12 (Mazur bound).

    On an integral model every torsion point has 4x integral (Silverman,
    AEC VII.3.4), and multiples of a torsion point are torsion, so the
    loop stops at the first multiple with 4x not in Z.
    """
    _require_on_curve(curve, point)
    if point.is_infinity:
        return True
    integral = curve.is_integral
    q = point
    for _ in range(TORSION_ORDER_BOUND):
        if integral and (4 * q.x).denominator != 1:
            return False
        q = _add(curve, q, point)
        if q.is_infinity:
            return True
    return False


# ---------------------------------------------------------------------------
# model changes and minimalization


def transform_curve(curve, u, r, s, t):
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    a1, a2, a3, a4, a6 = curve.a_invariants
    return weierstrass_curve(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    )


def transform_point(point, u, r, s, t):
    if point.is_infinity:
        return point
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    x = (point.x - r) / u**2
    y = (point.y - s * (point.x - r) - t) / u**3
    return Point(x, y)


def untransform_point(point, u, r, s, t):
    if point.is_infinity:
        return point
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    x = u**2 * point.x + r
    y = u**3 * point.y + s * u**2 * point.x + t
    return Point(x, y)


@dataclass(frozen=True)
class MinimalModel:
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

    def from_minimal(self, point):
        return untransform_point(point, self.u, self.r, self.s, self.t)


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

    Scales to an integral model, removes 12th powers from the
    discriminant prime by prime subject to the 2- and 3-adic
    admissibility of the reduced (c4, c6), rebuilds a model, and solves
    for the (u, r, s, t) relating input and output; delta_in = u^12
    delta_out exactly.  The one factorization of the integral model's
    delta = U^12 delta_min, U = prod p^d_p, gives delta_min's exactly:
    the exponent of p is e_p - 12 d_p, and primes with exponent 0 drop.
    """
    den = 1
    for a in curve.a_invariants:
        den = den * a.denominator // math.gcd(den, a.denominator)
    integral = transform_curve(curve, Fraction(1, den), 0, 0, 0)
    c4, c6, delta = int(integral.c4), int(integral.c6), int(integral.delta)

    factored = arith.factorize(delta)
    exps = {}
    for p, e in factored.factors:
        if e < 12:
            continue
        cands = [e // 12]
        v = _vp(c4, p)
        if v is not None:
            cands.append(v // 4)
        v = _vp(c6, p)
        if v is not None:
            cands.append(v // 6)
        d = min(cands)
        if d > 0:
            exps[p] = d
    if 3 in exps:  # 3-adic condition: v3(c6') must not be exactly 2
        v = _vp(c6, 3)
        if v is not None and v - 6 * exps[3] == 2:
            exps[3] -= 1
    while True:
        u = 1
        for p, d in exps.items():
            u *= p**d
        c4m, c6m = c4 // u**4, c6 // u**6
        if _kraus_ok_at_2(c4m, c6m):
            break
        exps[2] = exps.get(2, 0) - 1  # one step always repairs the 2-adic condition
    exps = {p: d for p, d in exps.items() if d > 0}

    minimal = weierstrass_curve(*_model_from_c_invariants(c4m, c6m))
    u_net = Fraction(u, den)
    s = (u_net * minimal.a1 - curve.a1) / 2
    r = (u_net**2 * minimal.a2 - curve.a2 + s * curve.a1 + s * s) / 3
    t = (u_net**3 * minimal.a3 - curve.a3 - r * curve.a1) / 2
    check = transform_curve(curve, u_net, r, s, t)
    if check.a_invariants != minimal.a_invariants:
        raise InvariantError("minimal model transformation failed to verify")
    assert curve.delta == u_net**12 * minimal.delta
    delta_min = arith.Factorization(
        factored.sign,
        tuple(
            (p, e - 12 * exps.get(p, 0))
            for p, e in factored.factors
            if e > 12 * exps.get(p, 0)
        ),
    )
    return MinimalModel(minimal, u_net, r, s, t, delta_min)


# ---------------------------------------------------------------------------
# reduction data


@dataclass(frozen=True)
class PrimeReduction:
    p: int
    v_delta: int
    kind: str  # "multiplicative" | "additive"
    stable: bool  # potentially multiplicative: v_p(j) < 0


@dataclass(frozen=True)
class ReductionData:
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


class _HeightData:
    """Per-curve certificates of the primary height path (cached).

    doubling_constant is C(E) with |hhat_x(P) - 4^-n h_x(2^n P)| <= C(E)/4^n.
    """

    def __init__(self, curve):
        if not curve.is_integral:
            raise InvariantError("height computations need an integral model")
        b2, b4, b6, b8 = (int(curve.b2), int(curve.b4), int(curve.b6), int(curve.b8))
        self.curve = curve
        self.F = [-b8, -2 * b6, -b4, 0, 1]  # numerator of x(2P)
        self.G = [b6, 2 * b4, b2, 4]  # denominator; equals (2y + a1 x + a3)^2
        self.W = [1, 0, -b4, -2 * b6, -b8]  # t^4 F(1/t)
        self.Z = [0, 4, b2, 2 * b4, b6]  # t^4 G(1/t)
        a1, b1c, r1 = arith.bezout_cofactors(self.F, self.G)
        a2, b2c, r2 = arith.bezout_cofactors(self.W, self.Z)
        self.res1, self.res2 = abs(r1), abs(r2)
        c_hi = max(_coeff_l1(self.F), _coeff_l1(self.G))
        c_lo = min(
            self.res1 / (_coeff_l1(a1) + _coeff_l1(b1c)),
            self.res2 / (_coeff_l1(a2) + _coeff_l1(b2c)),
        )
        self.mu_bound_inf = max(math.log(c_hi), -math.log(c_lo), 0.0)
        self.bad = []
        for p, _ in arith.factorize(int(curve.delta)).factors:
            vb = max(_vp(self.res1, p) or 0, _vp(self.res2, p) or 0)
            self.bad.append((p, vb))
        mu_bound_total = self.mu_bound_inf + sum(vb * math.log(p) for p, vb in self.bad)
        self.doubling_constant = mu_bound_total / 3.0


_height_cache = {}


def _height_data(curve):
    key = curve.a_invariants
    if key not in _height_cache:
        _height_cache[key] = _HeightData(curve)
    return _height_cache[key]


def _arch_series(hd, x0, terms):
    # log max(1,|x|) + sum 4^-(n+1) log(max(|F|,|G|) / max(1,|x|)^4) over the
    # real duplication orbit
    fc = [mpf(c) for c in hd.F]
    gc = [mpf(c) for c in hd.G]
    x = mpf(x0.numerator) / x0.denominator
    total = mpmath.log(max(mpf(1), abs(x)))
    quarter = mpf(1) / 4
    scale = quarter
    for _ in range(terms):
        fv = arith.poly_eval(fc, x)
        gv = arith.poly_eval(gc, x)
        m = max(abs(fv), abs(gv))
        if m == 0:
            raise NoConvergence("degenerate duplication orbit")
        total += scale * (mpmath.log(m) - 4 * mpmath.log(max(mpf(1), abs(x))))
        if gv == 0:
            raise NoConvergence("hit a two-torsion x-coordinate numerically")
        x = fv / gv
        scale *= quarter
    return total


def _orbit_valuations(hd, x0, p, terms):
    """Yield m_n, the power of p stripped at each step of the duplication orbit.

    With x_n = X/Z for p-coprime integers X and Z, x_(n+1) = F_h/G_h for
    the quartic forms F_h = Z^4 F(X/Z) and G_h = Z^4 G(X/Z), and m_n =
    min(v_p F_h, v_p G_h).  Forms A, B with A F_h + B G_h = Res(F, G) X^7,
    and another pair with Res(F, G) Z^7, give m_n <= v_p(Res(F, G)) = R.
    Carried mod p^(terms R + 1), X and Z keep more than R known digits at
    every step, so each m_n is exact.
    """
    mod = p ** (terms * _vp(hd.res1, p) + 1)
    X, Z = x0.numerator % mod, x0.denominator % mod
    for _ in range(terms):
        monomials = [X**i * Z ** (4 - i) for i in range(5)]  # G has no x^4 term
        f = sum(c * w for c, w in zip(hd.F, monomials)) % mod
        g = sum(c * w for c, w in zip(hd.G, monomials)) % mod
        m = 0
        while f % p == 0 and g % p == 0:
            f, g, m = f // p, g // p, m + 1
        mod //= p**m
        X, Z = f, g
        yield m


def _padic_series(hd, x0, p, terms):
    """Exact truncated local series: returns Fraction coefficient of log p.

    The summand -min(v F(x_n), v G(x_n)) + 4 min(0, v x_n) of the affine
    series is -m_n, since the 4 v_p(Z) terms cancel.
    """
    coeff = Fraction(_vp(x0.denominator, p))
    weight = Fraction(1, 4)
    for m in _orbit_valuations(hd, x0, p, terms):
        coeff -= weight * m
        weight /= 4
    return coeff


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
    n_series = 1 + len([1 for p, vb in hd.bad if vb > 0])
    tail_each = tol / (4 * n_series)

    terms_inf = max(
        5, math.ceil(math.log(max(hd.mu_bound_inf, 1e-9) / (3 * tail_each)) / math.log(4))
    )
    with prec.working(3 * terms_inf + 60):
        total = _arch_series(hd, x0, terms_inf)
        den_good = _strip_primes(x0.denominator, bad_primes)
        total += mpmath.log(den_good)
        for p, vb in hd.bad:
            if vb == 0 and x0.denominator % p != 0:
                continue
            bound_p = max(vb, 1) * math.log(p)
            terms_p = max(5, math.ceil(math.log(bound_p / (3 * tail_each)) / math.log(4)))
            coeff = _padic_series(hd, x0, p, terms_p)
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


@dataclass(frozen=True)
class MordellWeilBasis:
    points: tuple
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
        return MordellWeilBasis((), (), 1.0)
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
    return MordellWeilBasis(tuple(points), tuple(tuple(row) for row in gram), det)


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


@dataclass(frozen=True)
class FamilyCurve:
    label: str
    a_invariants: tuple
    rank: int
    gens: tuple


def ep_family(pmax):
    """Curves y^2 = x^3 + p^2 for primes p = 5 mod 9 up to pmax (rank 0)."""
    out = []
    for p in range(5, pmax + 1):
        if p % 9 == 5 and arith.is_prime(p):
            out.append(
                FamilyCurve("Ep%d" % p, (0, 0, 0, 0, p * p), 0, ())
            )
    return out
