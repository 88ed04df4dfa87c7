"""Number fields, verified unit systems, and regulators.

Field elements are written in the power basis of the generator theta of
the defining polynomial, as sequences of d rationals ``c_0..c_{d-1}``
meaning ``sum c_i theta^i``.  Units are supplied (or, for real
quadratic fields, found by continued fractions) and then *verified*:
integrality and unit norm both read off the exact characteristic
polynomial of the multiplication matrix.  Norms and discriminants are
Bareiss determinants of multiplication matrices (N(alpha) = det M_alpha,
disc(p) = +-N(p'(theta))), and a rational root of the defining polynomial
is found from its certified real roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mpf

from . import arith, prec
from .errors import (
    DegreeMismatch,
    DependentUnits,
    InvariantError,
    MissingUnits,
    WrongUnitCount,
    ZeroElement,
)


class NumberField(NamedTuple):
    label: str
    poly: tuple  # integer coefficients, constant first, monic
    degree: int
    r1: int
    r2: int
    disc: int
    w: int  # number of roots of unity
    embeddings: tuple  # d certified roots, reals first (ascending)

    @property
    def places(self):
        """One root per archimedean place: r1 reals then r2 pair representatives."""
        reps = [e for e in self.embeddings[self.r1 :] if e.imag > 0]
        return tuple(self.embeddings[: self.r1]) + tuple(reps)

    @property
    def place_weights(self):
        return (1,) * self.r1 + (2,) * self.r2


def _poly_mult_matrix(poly, c):
    """Matrix of multiplication by sum c_i theta^i on the power basis of
    Q[x]/(poly), poly monic of degree d = len(c) (column-wise action).
    Integer c gives an integer matrix."""
    cols = [list(c)]
    for _ in range(len(c) - 1):  # theta times the last column, theta^d = -sum poly_i theta^i
        cur = cols[-1]
        cols.append([x - cur[-1] * b for x, b in zip([0] + cur[:-1], poly)])
    return [list(row) for row in zip(*cols)]


def poly_discriminant(poly):
    """disc(p) = (-1)^(d(d-1)/2) N(p'(theta)) for monic p, exact."""
    d = arith.poly_degree(poly)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * arith.frac_det(_poly_mult_matrix(poly, arith.poly_deriv(poly)))


def number_field(label, poly, disc=None, w=None):
    """Build a NumberField from a monic squarefree integer polynomial.

    The discriminant is computed for degree <= 2, where a supplied one
    must agree, and supplied otherwise; disc(poly) = disc * f^2 checks it.
    The root-of-unity count w defaults to 6 for disc -3, 4 for disc -4
    (the quadratic fields with extra roots of unity) and 2 otherwise.
    Irreducibility is only checked through rational roots (the corpus is
    trusted beyond that): a rational root of a monic integer polynomial is
    an integer, and each certified real root lies within arith.ROOT_TOL <
    1/2 of its approximation, so the nearest integer of each real root is
    the only candidate.
    """
    poly = tuple(arith.poly_normalize(poly))
    d = arith.poly_degree(poly)
    if d < 1:
        raise InvariantError("defining polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise InvariantError("defining polynomial must be monic")
    roots = arith.poly_roots(poly)  # raises NotSquarefree
    r1 = sum(1 for r in roots if r.imag == 0)
    r2 = (d - r1) // 2
    if d > 1:
        # the root of least |t| is named, the positive one first
        candidates = {int(mpmath.nint(r.real)) for r in roots[:r1]}
        for t in sorted(candidates, key=lambda t: (abs(t), -t)):
            if arith.poly_eval(poly, t) == 0:
                raise InvariantError("defining polynomial is reducible (root %d)" % t)

    dpoly = int(poly_discriminant(poly))
    if d == 2:
        fundamental = _fundamental_discriminant(dpoly)
        if disc is not None and disc != fundamental:
            raise InvariantError(
                "field %s: supplied disc %d is not the field discriminant %d" % (label, disc, fundamental)
            )
        disc = fundamental
    elif disc is None:
        if d == 1:
            disc = 1
        else:
            raise InvariantError("field discriminant must be supplied for degree > 2")
    q, r = divmod(dpoly, disc)
    if r != 0 or q <= 0 or math.isqrt(q) ** 2 != q:
        raise InvariantError(
            "disc(poly) = %d is not disc * square for supplied disc %d" % (dpoly, disc)
        )
    if w is None:
        w = {-3: 6, -4: 4}.get(disc, 2) if d == 2 else 2
    if w % 2 != 0:
        raise InvariantError("root-of-unity count must be even")
    return NumberField(label, poly, d, r1, r2, int(disc), int(w), tuple(roots))


def _fundamental_discriminant(dpoly):
    fac = arith.factorize(dpoly)
    m = fac.sign
    for p, e in fac.factors:
        if e % 2 == 1:
            m *= p
    return m if m % 4 == 1 else 4 * m


def unit_rank(field):
    return field.r1 + field.r2 - 1


# ---------------------------------------------------------------------------
# elements in the power basis


def _as_coeffs(field, coeffs):
    c = [Fraction(x) for x in coeffs]
    if len(c) > field.degree:
        raise InvariantError("element has more coefficients than the field degree")
    return c + [Fraction(0)] * (field.degree - len(c))


def mult_matrix(field, coeffs):
    """Matrix of multiplication by alpha on the power basis (column-wise action)."""
    return _poly_mult_matrix(field.poly, _as_coeffs(field, coeffs))


def element_charpoly(field, coeffs):
    return arith.charpoly(mult_matrix(field, coeffs))


def log_embedding(field, coeffs):
    """The weighted log map: log|s(alpha)| per real place, twice that per pair."""
    c = _as_coeffs(field, coeffs)
    if all(x == 0 for x in c):
        raise ZeroElement("log embedding of 0")
    out = []
    with prec.working(20):
        for weight, place in zip(field.place_weights, field.places):
            val = arith.poly_eval([mpf(x.numerator) / x.denominator for x in c], place.value)
            out.append(weight * mpmath.log(abs(val)))
    return out


# ---------------------------------------------------------------------------
# unit systems and the regulator


class UnitSystem(NamedTuple):
    units: tuple  # unit coefficient vectors (tuples of Fraction)
    log_matrix: tuple  # rows of weighted log embeddings (tuples of mpf)


def unit_system(field, units_coeffs):
    """Verify the supplied units and assemble their log-embedding matrix."""
    units = []
    rows = []
    for coeffs in units_coeffs:
        c = tuple(_as_coeffs(field, coeffs))
        shown = " ".join(str(x) for x in c)  # as the corpus writes it
        cp = element_charpoly(field, c)
        if any(x.denominator != 1 for x in cp):
            raise InvariantError(
                "%s: supplied unit is not an algebraic integer: %s" % (field.label, shown)
            )
        if abs(cp[0]) != 1:  # N(alpha) = (-1)^d cp(0)
            raise InvariantError("%s: supplied element is not a unit: %s" % (field.label, shown))
        row = log_embedding(field, c)
        if abs(float(mpmath.fsum(row))) > 1e-9:
            raise InvariantError("%s: unit log row does not sum to 0: %s" % (field.label, shown))
        units.append(c)
        rows.append(tuple(row))
    return UnitSystem(tuple(units), tuple(rows))


def pell_unit_system(field):
    """Fundamental unit of a real quadratic field, by continued fractions.

    For the field of x^2 + bx + c with b^2 - 4c = f^2 D, D the fundamental
    discriminant (from the polynomial: number_field accepts any supplied
    disc with (b^2 - 4c)/disc a square), the root theta = (-b + f sqrt D)/2
    writes the unit (t + u sqrt D)/2 as (t + ub/f)/2 + (u/f) theta.
    """
    if field.degree != 2 or field.r1 != 2:
        raise MissingUnits("automatic units only for real quadratic fields")
    c, b, _ = field.poly
    D = _fundamental_discriminant(b * b - 4 * c)
    f = math.isqrt((b * b - 4 * c) // D)
    t, u = arith.pell_fundamental_solution(D)
    return unit_system(field, [(Fraction(t * f + u * b, 2 * f), Fraction(u, f))])


def regulator(field, units):
    """|det| of the bordered unit-log matrix; 1.0 for unit rank 0.

    The (r1+r2)-square matrix has the weighted unit logs as its first r
    rows and the constant row 1/(r1+r2) at the bottom; the r x r minor
    obtained by deleting the last row and column must agree to 1e-10.
    """
    r = unit_rank(field)
    n = field.r1 + field.r2
    got = len(units.units) if units is not None else 0
    if got != r:
        raise WrongUnitCount(
            "%s: expected %d independent units, got %d" % (field.label, r, got)
        )
    if r == 0:
        return 1.0
    with prec.working(20):
        rows = [list(row) for row in units.log_matrix]
        bordered = mpmath.matrix(rows + [[mpf(1) / n] * n])
        det_b = abs(mpmath.det(bordered))
        minor = mpmath.matrix([row[:-1] for row in rows])
        det_m = abs(mpmath.det(minor))
        if abs(det_b - det_m) > 1e-10:
            raise InvariantError(
                "%s: regulator determinant forms disagree: %s vs %s"
                % (field.label, det_b, det_m)
            )
        hadamard = 1.0
        for row in rows:
            hadamard *= math.sqrt(sum(float(x) ** 2 for x in row))
        if float(det_b) < 1e-12 * max(1.0, hadamard):
            raise DependentUnits("%s: unit log rows are numerically dependent" % field.label)
        return float(det_b)


# ---------------------------------------------------------------------------
# field records and the CM regulator comparison


class FieldRecord(NamedTuple):
    field: NumberField
    units: UnitSystem | None = None
    subfield_label: str | None = None
    r0: int | None = None


def field_regulator(record):
    """Regulator of a corpus field; real quadratics fall back to Pell units."""
    field = record.field
    if unit_rank(field) == 0:
        return 1.0
    units = record.units
    if units is None:
        if field.degree == 2 and field.r1 == 2:
            units = pell_unit_system(field)
        else:
            raise MissingUnits("no units supplied for %s" % field.label)
    return regulator(field, units)


class CmVerdict(NamedTuple):
    is_cm: bool
    s: int | None
    ratio: float | None


def is_cm_shape(K, K0):
    """K totally imaginary, K0 totally real and [K:K0] = 2 by degrees."""
    return K.r1 == 0 and K0.r2 == 0 and K.degree == 2 * K0.degree


def verify_cm(record, subrecord):
    """Check the CM shape of K over its declared maximal totally real subfield.

    K is CM over K0 when K is totally imaginary, K0 totally real and
    [K:K0] = 2; then the regulator ratio must be an exact power 2^s with
    r0 - 1 <= s <= r0.
    """
    K = record.field
    K0 = subrecord.field
    if not is_cm_shape(K, K0):
        if K.r1 == 0 and K0.r2 == 0:
            raise DegreeMismatch(
                "CM claim needs [K:K0] = 2, got degrees %d over %d"
                % (K.degree, K0.degree)
            )
        return CmVerdict(False, None, None)
    ratio = field_regulator(record) / field_regulator(subrecord)
    s = math.log2(ratio)
    s_int = round(s)
    if abs(s - s_int) > 1e-6:
        raise InvariantError("CM regulator ratio %.12g is not a power of 2" % ratio)
    r0 = record.r0 if record.r0 is not None else unit_rank(K0)
    if not (r0 - 1 <= s_int <= r0):
        raise InvariantError("CM exponent s=%d outside [%d, %d]" % (s_int, r0 - 1, r0))
    return CmVerdict(True, s_int, ratio)
