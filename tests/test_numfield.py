import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arithinv import arith, corpus, numfield
from arithinv.errors import (
    DependentUnits,
    InvariantError,
    MissingUnits,
    NotSquarefree,
    WrongUnitCount,
    ZeroElement,
)

GOLDEN = [Fraction(1, 2), Fraction(1, 2)]  # (1 + sqrt 5)/2 in Q(sqrt 5)


def make_zeta5():
    return numfield.number_field("Q_zeta5", (1, 1, 1, 1, 1), disc=125, w=10)


def make_plastic():
    return numfield.number_field("Q_plastic", (-1, -1, 0, 1), disc=-23)


class TestConstruction:
    def test_quadratic_m_minus1(self):
        K = numfield.quadratic_field(-1)
        assert (K.disc, (K.r1, K.r2), K.w) == (-4, (0, 1), 4)

    def test_quadratic_m5(self):
        K = numfield.quadratic_field(5)
        assert (K.disc, (K.r1, K.r2), K.w) == (5, (2, 0), 2)

    def test_quadratic_m2(self):
        K = numfield.quadratic_field(2)
        assert (K.disc, (K.r1, K.r2), K.w) == (8, (2, 0), 2)

    def test_quadratic_rejects(self):
        with pytest.raises(NotSquarefree):
            numfield.quadratic_field(12)

    def test_zeta5_signature(self):
        K = make_zeta5()
        assert (K.r1, K.r2) == (0, 2)
        assert numfield.unit_rank(K) == 1

    def test_rational_field(self):
        Q = numfield.number_field("Q", (0, 1), disc=1)
        assert (Q.degree, Q.r1, Q.r2) == (1, 1, 0)
        assert numfield.unit_rank(Q) == 0

    def test_disc_validation(self):
        with pytest.raises(InvariantError):
            numfield.number_field("bad", (1, 1, 1, 1, 1), disc=121)

    def test_reducible_rejected(self):
        with pytest.raises(InvariantError, match=r"reducible \(root 1\)"):
            numfield.number_field("red", (-1, 0, 1), disc=1)  # (x-1)(x+1)

    def test_rational_roots_of_large_constant_terms(self):
        # the constant terms are about 10^12: a rational root is found from
        # the certified real roots, not from the divisors of c_0
        big = 10**12 + 39
        text = "field Qbig\npoly = %d 0 1\n\nfield red\npoly = %d 1 %d 1\n" % (big, big, big)
        parsed = corpus.parse_corpus(text)
        K = corpus.build_field_record(parsed, "Qbig").field
        assert (K.disc, K.r1, K.r2) == (-big, 0, 1)  # -big = 1 mod 4
        with pytest.raises(InvariantError, match=r"reducible \(root -1000000000039\)"):
            corpus.build_field_record(parsed, "red")  # (x + big)(x^2 + 1)


class TestUnitRank:
    def test_examples(self):
        assert numfield.unit_rank(numfield.number_field("Q", (0, 1), disc=1)) == 0
        assert numfield.unit_rank(numfield.quadratic_field(-1)) == 0
        assert numfield.unit_rank(make_zeta5()) == 1


class TestNormAndLogs:
    def test_norm_sqrt2(self):
        K = numfield.quadratic_field(2)
        assert numfield.norm(K, [1, 1]) == -1

    def test_norm_golden(self):
        K = numfield.quadratic_field(5)
        assert numfield.norm(K, GOLDEN) == -1

    def test_norm_of_resultant_cases(self):
        # Res(x^2 - 2, x^2 - 3) = N(theta^2 - 3) in Q(sqrt 2) = N(-1) = 1
        K = numfield.quadratic_field(2)
        square = field_mul(K, [0, 1], [0, 1])
        assert numfield.norm(K, [square[0] - 3, square[1]]) == 1
        # Res(x^2 - 2, 5) = N(5) = 25
        assert numfield.norm(K, [5]) == 25

    def test_norm_one(self):
        for K in (numfield.quadratic_field(7), make_zeta5()):
            assert numfield.norm(K, [1] + [0] * (K.degree - 1)) == 1

    def test_norm_matches_embedding_product(self):
        K = make_plastic()
        rng = random.Random(3)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            if all(c == 0 for c in coeffs):
                continue
            exact = numfield.norm(K, coeffs)
            product = mpmath.mpf(1)
            for e in K.embeddings:
                product *= arith.poly_eval(
                    [mpmath.mpf(c.numerator) / c.denominator for c in coeffs], e.value
                )
            assert abs(float(product.real) - float(exact)) < 1e-9

    def test_log_embedding_sqrt2(self):
        K = numfield.quadratic_field(2)
        v = numfield.log_embedding(K, [1, 1])
        expected = math.log(1 + math.sqrt(2))
        assert float(v[0]) == pytest.approx(-expected, abs=1e-12) or float(
            v[0]
        ) == pytest.approx(expected, abs=1e-12)
        assert float(v[0] + v[1]) == pytest.approx(0.0, abs=1e-12)
        assert sorted(float(x) for x in v) == pytest.approx(
            [-expected, expected], abs=1e-12
        )

    def test_log_embedding_one_is_zero(self):
        K = make_zeta5()
        v = numfield.log_embedding(K, [1, 0, 0, 0])
        assert all(abs(float(x)) < 1e-15 for x in v)

    def test_log_embedding_zeta5_golden_lift(self):
        K = make_zeta5()
        v = numfield.log_embedding(K, [0, 0, -1, -1])  # -(z^2 + z^3) = (1+sqrt5)/2
        assert len(v) == 2
        assert float(v[0] + v[1]) == pytest.approx(0.0, abs=1e-9)
        assert max(float(x) for x in v) == pytest.approx(
            2 * math.log((1 + math.sqrt(5)) / 2), abs=1e-9
        )

    def test_zero_element(self):
        K = numfield.quadratic_field(2)
        with pytest.raises(ZeroElement):
            numfield.log_embedding(K, [0, 0])


@st.composite
def monic_polys_without_integer_roots(draw):
    """Monic squarefree integer polynomials of degree 2-5, coefficients in
    [-6, 6], with no integer (so no rational) root; every root has |z| < 7."""
    d = draw(st.integers(2, 5))
    poly = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d)) + [1]
    assume(arith._sturm(poly)[0])
    assume(all(arith.poly_eval(poly, t) != 0 for t in range(-7, 8)))
    return poly


@settings(max_examples=60)
@given(
    monic_polys_without_integer_roots(),
    st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), min_size=5, max_size=5),
)
def test_norm_and_discriminant_match_the_certified_roots(poly, alpha):
    # N(alpha) = prod alpha(r_i) and disc(p) = prod_{i<j} (r_i - r_j)^2 over
    # the certified roots r_i.  Each root is within 1e-18 of its disc centre
    # and |alpha'| < 1e4 on |z| < 7, so every factor is off by less than
    # 1e-13, and each product is within 1e-12 prod (1 + |factor|) of the
    # exact value.
    dpoly = numfield.poly_discriminant(poly)
    K = numfield.number_field("K", poly, disc=int(dpoly))
    alpha = alpha[: K.degree]
    exact = numfield.norm(K, alpha)
    with mpmath.workprec(200):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in alpha]
        values = [arith.poly_eval(coeffs, r.value) for r in K.embeddings]
        scale = mpmath.fprod(1 + abs(v) for v in values)
        assert abs(mpmath.fprod(values) - exact) <= 1e-12 * scale
        squares = [(a.value - b.value) ** 2 for a, b in itertools.combinations(K.embeddings, 2)]
        scale = mpmath.fprod(1 + abs(s) for s in squares)
        assert abs(mpmath.fprod(squares) - dpoly) <= 1e-12 * scale


class TestRegulator:
    def test_rank_zero(self):
        K = numfield.quadratic_field(-7)
        assert numfield.regulator(K, numfield.unit_system(K, [])) == 1.0

    def test_sqrt2(self):
        K = numfield.quadratic_field(2)
        units = numfield.unit_system(K, [[1, 1]])
        assert numfield.regulator(K, units) == pytest.approx(0.8813735870, abs=1e-9)

    def test_zeta5(self):
        K = make_zeta5()
        units = numfield.unit_system(K, [[0, 0, -1, -1]])
        assert numfield.regulator(K, units) == pytest.approx(0.9624236501, abs=1e-9)

    def test_wrong_count(self):
        K = numfield.quadratic_field(2)
        with pytest.raises(WrongUnitCount):
            numfield.regulator(K, numfield.unit_system(K, []))

    def test_dependent_units(self):
        K = numfield.number_field("Q_cyc9", (-1, -3, 0, 1), disc=81)
        eps = [0, 1, 0]
        eps_sq_minus = numfield_mul_square(K, eps)
        units = numfield.unit_system(K, [eps, eps_sq_minus])
        with pytest.raises(DependentUnits):
            numfield.regulator(K, units)

    def test_pell_fallback(self):
        K = numfield.quadratic_field(5)
        rec = numfield.FieldRecord(K)
        assert numfield.field_regulator(rec) == pytest.approx(0.4812118250, abs=1e-9)

    def test_missing_units(self):
        K = make_plastic()
        with pytest.raises(MissingUnits):
            numfield.field_regulator(numfield.FieldRecord(K))

    def test_volume_identity_rank1(self):
        # R = ||lambda(eps)|| / sqrt(r1 + r2) for unit rank 1
        for K, coeffs in [
            (numfield.quadratic_field(2), [1, 1]),
            (make_zeta5(), [0, 0, -1, -1]),
            (make_plastic(), [0, 1, 0]),
        ]:
            units = numfield.unit_system(K, [coeffs])
            v = units.log_matrix[0]
            vol = math.sqrt(sum(float(x) ** 2 for x in v))
            reg = numfield.regulator(K, units)
            assert reg == pytest.approx(vol / math.sqrt(K.r1 + K.r2), abs=1e-9)

    def test_unimodular_invariance(self):
        # units of Q(zeta5): replacing eps by eps^-1 (the GL_1(Z) transforms)
        K = make_zeta5()
        eps = [0, 0, -1, -1]
        inv = invert_unit(K, eps)
        r1 = numfield.regulator(K, numfield.unit_system(K, [eps]))
        r2 = numfield.regulator(K, numfield.unit_system(K, [inv]))
        assert r1 == pytest.approx(r2, abs=1e-10)

    def test_unimodular_invariance_rank2(self):
        K = numfield.number_field("Q_cyc9", (-1, -3, 0, 1), disc=81)
        base = [[0, 1, 0], [1, 1, 0]]
        units = numfield.unit_system(K, base)
        reg = numfield.regulator(K, units)
        rng = random.Random(11)
        count = 0
        while count < 20:
            mat = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if abs(mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) != 1:
                continue
            new_units = [
                unit_power_product(K, base, row) for row in mat
            ]
            reg2 = numfield.regulator(K, numfield.unit_system(K, new_units))
            assert reg2 == pytest.approx(reg, abs=1e-10)
            count += 1


def field_mul(K, a, b):
    mat = numfield.mult_matrix(K, a)
    bc = numfield._as_coeffs(K, b)
    return [sum(mat[i][j] * bc[j] for j in range(K.degree)) for i in range(K.degree)]


def numfield_mul_square(K, a):
    return field_mul(K, a, a)


def invert_unit(K, a):
    # solve mult_matrix(a) x = e_0 exactly, by Cramer's rule
    mat = numfield.mult_matrix(K, a)
    det = arith.frac_det(mat)
    return [
        arith.frac_det([row[:i] + [int(t == 0)] + row[i + 1 :] for t, row in enumerate(mat)]) / det
        for i in range(K.degree)
    ]


def unit_power_product(K, base, exps):
    out = [Fraction(1)] + [Fraction(0)] * (K.degree - 1)
    for coeffs, e in zip(base, exps):
        factor = coeffs if e >= 0 else invert_unit(K, coeffs)
        for _ in range(abs(e)):
            out = field_mul(K, out, factor)
    return out


class TestVerifyCm:
    def test_zeta5_over_sqrt5(self):
        K = make_zeta5()
        K0 = numfield.quadratic_field(5)
        rec = numfield.FieldRecord(
            K, numfield.unit_system(K, [[0, 0, -1, -1]]), "Q_sqrt5", 1
        )
        rec0 = numfield.FieldRecord(K0)
        verdict = numfield.verify_cm(rec, rec0)
        assert verdict.is_cm
        assert verdict.ratio == pytest.approx(2.0, abs=1e-8)
        assert verdict.s == 1

    def test_gauss_over_q(self):
        K = numfield.quadratic_field(-1)
        Q = numfield.number_field("Q", (0, 1), disc=1)
        verdict = numfield.verify_cm(
            numfield.FieldRecord(K, None, "Q", 0), numfield.FieldRecord(Q)
        )
        assert verdict.is_cm and verdict.ratio == pytest.approx(1.0) and verdict.s == 0

    def test_totally_real_is_not_cm(self):
        K = numfield.quadratic_field(2)
        Q = numfield.number_field("Q", (0, 1), disc=1)
        verdict = numfield.verify_cm(
            numfield.FieldRecord(K, None, "Q", 0), numfield.FieldRecord(Q)
        )
        assert not verdict.is_cm


class TestUnitValidation:
    def test_integrality_enforced(self):
        K = numfield.quadratic_field(2)
        with pytest.raises(InvariantError):
            # (1 + sqrt2)/2 has norm -1/4: not an algebraic integer
            numfield.unit_system(K, [[Fraction(1, 2), Fraction(1, 2)]])

    def test_nonunit_rejected(self):
        K = numfield.quadratic_field(2)
        with pytest.raises(InvariantError, match="not a unit"):
            numfield.unit_system(K, [[0, 1]])  # sqrt 2 has norm -2

    def test_corpus_units_logs_sum_zero(self):
        cases = [
            (numfield.quadratic_field(2), [1, 1]),
            (numfield.quadratic_field(5), GOLDEN),
            (make_zeta5(), [0, 0, -1, -1]),
            (make_plastic(), [0, 1, 0]),
        ]
        for K, coeffs in cases:
            us = numfield.unit_system(K, [coeffs])
            assert abs(float(mpmath.fsum(us.log_matrix[0]))) <= 1e-9
            assert abs(numfield.norm(K, coeffs)) == 1


class TestVolumeIdentityRank2:
    def test_regulator_is_scaled_lattice_volume(self):
        # R = Vol(H / lambda(U)) / sqrt(r1 + r2) via the exact Gram volume
        K = numfield.number_field("Q_cyc9", (-1, -3, 0, 1), disc=81)
        units = numfield.unit_system(K, [[0, 1, 0], [1, 1, 0]])
        rows = [[float(x) for x in row] for row in units.log_matrix]
        g11 = sum(a * a for a in rows[0])
        g22 = sum(a * a for a in rows[1])
        g12 = sum(a * b for a, b in zip(rows[0], rows[1]))
        vol = math.sqrt(g11 * g22 - g12 * g12)
        reg = numfield.regulator(K, units)
        assert reg == pytest.approx(vol / math.sqrt(3), abs=1e-9)


class TestPrecisionStability:
    def test_regulator_stable_under_higher_precision(self):
        from arithinv import prec

        before = prec.bits()
        try:
            K = numfield.quadratic_field(2)
            base = numfield.regulator(K, numfield.unit_system(K, [[1, 1]]))
            prec.set_precision(200)
            K2 = numfield.quadratic_field(2)
            high = numfield.regulator(K2, numfield.unit_system(K2, [[1, 1]]))
            assert abs(base - high) < 1e-13
        finally:
            prec.set_precision(before)
