import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arithinv import arith, corpus, numfield, prec
from arithinv.errors import (
    DependentUnits,
    InvariantError,
    MissingUnits,
    WrongUnitCount,
    ZeroElement,
)

GOLDEN = [Fraction(1, 2), Fraction(1, 2)]  # (1 + sqrt 5)/2 in Q(sqrt 5)


def quadratic(m):
    """The field of x^2 - m, labelled as the bundled corpus labels it."""
    return numfield.number_field("Q_sqrt%d" % m if m > 0 else "Q_sqrt_m%d" % -m, (-m, 0, 1))


def make_zeta5():
    return numfield.number_field("Q_zeta5", (1, 1, 1, 1, 1), disc=125, w=10)


def make_plastic():
    return numfield.number_field("Q_plastic", (-1, -1, 0, 1), disc=-23)


def element_norm(K, coeffs):
    """N(alpha) = (-1)^d chi_alpha(0), read off the characteristic polynomial
    as unit_system reads it."""
    return (-1) ** K.degree * numfield.element_charpoly(K, coeffs)[0]


class TestConstruction:
    def test_quadratic_m_minus1(self):
        K = quadratic(-1)
        assert (K.disc, (K.r1, K.r2), K.w) == (-4, (0, 1), 4)

    def test_quadratic_m5(self):
        K = quadratic(5)
        assert (K.disc, (K.r1, K.r2), K.w) == (5, (2, 0), 2)

    def test_quadratic_m2(self):
        K = quadratic(2)
        assert (K.disc, (K.r1, K.r2), K.w) == (8, (2, 0), 2)

    @pytest.mark.parametrize(
        "poly, w",
        [((1, 1, 1), 6), ((1, -1, 1), 6), ((1, 0, 1), 4), ((3, 0, 1), 6), ((-2, 0, 1), 2)],
    )
    def test_quadratic_default_w_follows_the_discriminant(self, poly, w):
        # x^2 +- x + 1 and x^2 + 3 give Q(zeta_3), x^2 + 1 gives Q(i)
        assert numfield.number_field("K", poly).w == w
        text = "field K\npoly = %s\n" % " ".join(str(c) for c in poly)
        assert corpus.build_field_record(corpus.parse_corpus(text), "K").field.w == w

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

    def test_zero_disc_rejected(self):
        with pytest.raises(InvariantError, match=r"^bad disc = 0 "):
            numfield.number_field("Kd0", (-2, 0, 0, 1), disc=0)

    @pytest.mark.parametrize("w", [0, -2, 3])
    def test_w_positive_and_even(self, w):
        # w = 0 divided the regulator by zero, and w = -2 read as a
        # counterexample to Friedman's bound
        with pytest.raises(InvariantError, match=r"^bad w = %d " % w):
            numfield.number_field("Kw", (-2, 0, 1), w=w)

    @pytest.mark.parametrize(
        "poly, disc, w, fixed, shape",
        [
            ((-2, 0, 1), None, 4, 2, "a field with a real place"),
            ((-1, -1, 0, 1), -23, 6, 2, "a field with a real place"),
            ((1, 0, 1), None, 2, 4, "the quadratic field of disc -4"),
            ((1, 1, 1), None, 4, 6, "the quadratic field of disc -3"),
            ((7, 0, 1), None, 4, 2, "the quadratic field of disc -7"),
        ],
    )
    def test_w_where_the_field_fixes_it(self, poly, disc, w, fixed, shape):
        # a real embedding sends every root of unity to +-1; an overstated
        # w would halve R/w in Friedman's bound
        message = r"^bad w = %d \(%s has w = %d\)$" % (w, shape, fixed)
        with pytest.raises(InvariantError, match=message):
            numfield.number_field("Kw", poly, disc=disc, w=w)
        assert numfield.number_field("Kw", poly, disc=disc, w=fixed).w == fixed
        assert numfield.number_field("Kw", poly, disc=disc).w == fixed

    def test_totally_complex_above_degree_2_states_w(self):
        # Q(zeta5) has 10 roots of unity: a default of 2 would inflate R/w fivefold
        with pytest.raises(InvariantError, match=r"^missing w "):
            numfield.number_field("Qz5", (1, 1, 1, 1, 1), disc=125)
        assert make_zeta5().w == 10

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


class TestRootsWhereRead:
    def test_number_field_solves_only_for_the_rational_root_check(self, monkeypatch):
        # Q and the imaginary quadratics have no real place to check and no
        # unit to embed; Q(sqrt 2) solves for its rational-root check, and
        # its Pell unit reads the same roots
        calls = []
        solve = arith.poly_roots
        monkeypatch.setattr(arith, "poly_roots", lambda poly: calls.append(poly) or solve(poly))
        for K in (numfield.number_field("Q", (0, 1), disc=1), quadratic(-1), quadratic(-7)):
            assert K.roots == []
        assert calls == []
        K = quadratic(2)
        assert len(calls) == 1
        numfield.field_regulator(numfield.FieldRecord(K))
        assert len(calls) == 1

    def test_unit_system_solves_a_totally_complex_field_once(self, monkeypatch):
        calls = []
        solve = arith.poly_roots
        monkeypatch.setattr(arith, "poly_roots", lambda poly: calls.append(poly) or solve(poly))
        K = make_zeta5()
        assert calls == []
        eps = [0, 0, -1, -1]
        units = numfield.unit_system(K, [eps, invert_unit(K, eps)])
        numfield.regulator(K, numfield.UnitSystem(units.units[:1], units.log_matrix[:1]))
        assert calls == [K.poly]


class TestUnitRank:
    def test_examples(self):
        assert numfield.unit_rank(numfield.number_field("Q", (0, 1), disc=1)) == 0
        assert numfield.unit_rank(quadratic(-1)) == 0
        assert numfield.unit_rank(make_zeta5()) == 1


class TestNormAndLogs:
    def test_norm_sqrt2(self):
        K = quadratic(2)
        assert element_norm(K, [1, 1]) == -1

    def test_norm_golden(self):
        K = quadratic(5)
        assert element_norm(K, GOLDEN) == -1

    def test_norm_of_resultant_cases(self):
        # Res(x^2 - 2, x^2 - 3) = N(theta^2 - 3) in Q(sqrt 2) = N(-1) = 1
        K = quadratic(2)
        square = field_mul(K, [0, 1], [0, 1])
        assert element_norm(K, [square[0] - 3, square[1]]) == 1
        # Res(x^2 - 2, 5) = N(5) = 25
        assert element_norm(K, [5]) == 25

    def test_norm_one(self):
        for K in (quadratic(7), make_zeta5()):
            assert element_norm(K, [1] + [0] * (K.degree - 1)) == 1

    def test_norm_matches_embedding_product(self):
        K = make_plastic()
        rng = random.Random(3)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            if all(c == 0 for c in coeffs):
                continue
            exact = element_norm(K, coeffs)
            product = mpmath.mpf(1)
            for e in K.embeddings:
                product *= arith.poly_eval(
                    [mpmath.mpf(c.numerator) / c.denominator for c in coeffs], e.value
                )
            assert abs(float(product.real) - float(exact)) < 1e-9

    def test_log_embedding_sqrt2(self):
        K = quadratic(2)
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
        K = quadratic(2)
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
    # a quadratic field computes its own disc and w and rejects any other;
    # above degree 2 a totally complex field states w (2 agrees with the w
    # a real place fixes), though the law reads neither
    above2 = len(poly) > 3
    K = numfield.number_field("K", poly, disc=int(dpoly) if above2 else None, w=2 if above2 else None)
    # the roots are solved on the first read of the embeddings, then kept
    assert bool(K.roots) == (K.r1 > 0) and K.embeddings is K.embeddings
    alpha = alpha[: K.degree]
    exact = element_norm(K, alpha)
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
        K = quadratic(-7)
        assert numfield.regulator(K, numfield.unit_system(K, [])) == 1.0

    def test_sqrt2(self):
        K = quadratic(2)
        units = numfield.unit_system(K, [[1, 1]])
        assert numfield.regulator(K, units) == pytest.approx(0.8813735870, abs=1e-9)

    def test_zeta5(self):
        K = make_zeta5()
        units = numfield.unit_system(K, [[0, 0, -1, -1]])
        assert numfield.regulator(K, units) == pytest.approx(0.9624236501, abs=1e-9)

    def test_wrong_count(self):
        K = quadratic(2)
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
        K = quadratic(5)
        rec = numfield.FieldRecord(K)
        assert numfield.field_regulator(rec) == pytest.approx(0.4812118250, abs=1e-9)

    def test_pell_on_orders_of_index_f(self):
        # x^2 - 45 and x^2 + x - 11 have b^2 - 4c = 6^2 * 5 and 3^2 * 5, and
        # x^2 - 12 has 2^2 * 12: the unit is read through field.disc
        for poly, disc, reg in [
            ((-45, 0, 1), 5, math.log((1 + math.sqrt(5)) / 2)),
            ((-11, 1, 1), 5, math.log((1 + math.sqrt(5)) / 2)),
            ((-12, 0, 1), 12, math.log(2 + math.sqrt(3))),
        ]:
            K = numfield.number_field("K", poly)
            assert K.disc == disc
            assert numfield.field_regulator(numfield.FieldRecord(K)) == pytest.approx(reg, abs=1e-12)

    def test_missing_units(self):
        K = make_plastic()
        with pytest.raises(MissingUnits):
            numfield.field_regulator(numfield.FieldRecord(K))

    def test_volume_identity_rank1(self):
        # R = ||lambda(eps)|| / sqrt(r1 + r2) for unit rank 1
        for K, coeffs in [
            (quadratic(2), [1, 1]),
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


def assert_det_forms_match_mpmath(field, units):
    # both exact determinant forms against mpmath.det of the same rows at
    # 400 bits, within 2^-(prec + 10) relative; R is the bordered form
    # rounded to a double
    n = field.r1 + field.r2
    det_b, det_m = numfield._det_forms(units.log_matrix, n)
    with mpmath.workprec(400):
        rows = [list(row) for row in units.log_matrix]
        ref_b = abs(mpmath.det(mpmath.matrix(rows + [[mpmath.mpf(1) / n] * n])))
        ref_m = abs(mpmath.det(mpmath.matrix([row[:-1] for row in rows])))
        eta = mpmath.mpf(2) ** -(prec.bits() + 10)
        for exact, ref in ((det_b, ref_b), (det_m, ref_m)):
            assert abs(mpmath.mpf(exact.numerator) / exact.denominator - ref) <= eta * ref
    try:
        assert numfield.regulator(field, units) == float(det_b)
    except InvariantError as exc:
        assert "forms disagree" in str(exc)


def test_regulator_matches_mpmath_det_on_the_bundled_fields(bundled):
    checked = 0
    for label in bundled.fields:
        rec = corpus.build_field_record(bundled, label)
        if numfield.unit_rank(rec.field) == 0:
            continue
        assert_det_forms_match_mpmath(rec.field, rec.units or numfield.pell_unit_system(rec.field))
        checked += 1
    assert checked >= 9


def test_regulator_matches_mpmath_det_on_real_quadratic_fields():
    # every squarefree m < 500 whose Pell unit system builds at the working
    # precision (the others fail on their log rows, before any determinant)
    checked = 0
    for m in range(2, 500):
        if any(m % (p * p) == 0 for p in range(2, 23)):
            continue
        field = quadratic(m)
        try:
            units = numfield.pell_unit_system(field)
        except InvariantError:
            continue
        assert_det_forms_match_mpmath(field, units)
        checked += 1
    assert checked >= 200


class TestVerifyCm:
    def test_zeta5_over_sqrt5(self):
        K = make_zeta5()
        K0 = quadratic(5)
        rec = numfield.FieldRecord(
            K, numfield.unit_system(K, [[0, 0, -1, -1]]), "Q_sqrt5", 1
        )
        rec0 = numfield.FieldRecord(K0)
        verdict = numfield.verify_cm(rec, rec0)
        assert verdict.is_cm
        assert verdict.ratio == pytest.approx(2.0, abs=1e-8)
        assert verdict.s == 1

    def test_gauss_over_q(self):
        K = quadratic(-1)
        Q = numfield.number_field("Q", (0, 1), disc=1)
        verdict = numfield.verify_cm(
            numfield.FieldRecord(K, None, "Q", 0), numfield.FieldRecord(Q)
        )
        assert verdict.is_cm and verdict.ratio == pytest.approx(1.0) and verdict.s == 0

    def test_totally_real_is_not_cm(self):
        K = quadratic(2)
        Q = numfield.number_field("Q", (0, 1), disc=1)
        verdict = numfield.verify_cm(
            numfield.FieldRecord(K, None, "Q", 0), numfield.FieldRecord(Q)
        )
        assert not verdict.is_cm


class TestUnitValidation:
    def test_integrality_enforced(self):
        K = quadratic(2)
        with pytest.raises(InvariantError):
            # (1 + sqrt2)/2 has norm -1/4: not an algebraic integer
            numfield.unit_system(K, [[Fraction(1, 2), Fraction(1, 2)]])

    def test_nonunit_rejected(self):
        K = quadratic(2)
        with pytest.raises(InvariantError, match="not a unit"):
            numfield.unit_system(K, [[0, 1]])  # sqrt 2 has norm -2

    def test_corpus_units_logs_sum_zero(self):
        cases = [
            (quadratic(2), [1, 1]),
            (quadratic(5), GOLDEN),
            (make_zeta5(), [0, 0, -1, -1]),
            (make_plastic(), [0, 1, 0]),
        ]
        for K, coeffs in cases:
            us = numfield.unit_system(K, [coeffs])
            assert abs(float(mpmath.fsum(us.log_matrix[0]))) <= 1e-9
            assert abs(element_norm(K, coeffs)) == 1


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
        before = prec.bits()
        try:
            K = quadratic(2)
            base = numfield.regulator(K, numfield.unit_system(K, [[1, 1]]))
            prec.set_precision(200)
            K2 = quadratic(2)
            high = numfield.regulator(K2, numfield.unit_system(K2, [[1, 1]]))
            assert abs(base - high) < 1e-13
        finally:
            prec.set_precision(before)
