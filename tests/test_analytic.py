import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithinv import analytic, prec
from arithinv.errors import AgmNoConvergence, NotUpperHalfPlane, TauNotReduced


def curve_stub(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return SimpleNamespace(
        b2=b2, b4=b4, b6=b6, c4=Fraction(c4), c6=Fraction(c6), delta=delta
    )


def sample_reduced(rng):
    while True:
        re = rng.uniform(-0.5, 0.4999)
        im = rng.uniform(0.87, 3.0)
        if re * re + im * im >= 1.0001:
            return mpmath.mpc(re, im)


def random_word(rng, z, max_len=8):
    # a word in T, T^-1, S keeping Im away from 0 for series convergence
    mat = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, max_len)):
        move = rng.choice(["T", "T-", "S"])
        step = {"T": ((1, 1), (0, 1)), "T-": ((1, -1), (0, 1)), "S": ((0, -1), (1, 0))}[
            move
        ]
        cand = analytic._matmul(step, mat)
        w = analytic.moebius(cand, z)
        if mpmath.im(w) < 0.05:
            continue
        mat = cand
    return mat


class TestReduction:
    def test_already_reduced(self):
        red = analytic.reduce_to_fundamental_domain(mpmath.mpc(0.3, 2))
        assert red.transform == ((1, 0), (0, 1))
        assert complex(red.value) == complex(0.3, 2)

    def test_translation(self):
        red = analytic.reduce_to_fundamental_domain(mpmath.mpc(5.3, 2))
        assert red.transform == ((1, -5), (0, 1))
        assert abs(red.value - mpmath.mpc(0.3, 2)) < 1e-12

    def test_s_move(self):
        z = -1 / mpmath.mpc(0.3, 2)
        red = analytic.reduce_to_fundamental_domain(z)
        assert abs(red.value - mpmath.mpc(0.3, 2)) < 1e-10
        # Moebius identity of the recorded transform
        assert abs(analytic.moebius(red.transform, z) - red.value) < 1e-10

    def test_corner_convention(self):
        # the left corner is moved to the right corner of the circle arc
        rho = mpmath.mpc(-0.5, math.sqrt(3) / 2)
        red = analytic.reduce_to_fundamental_domain(rho)
        assert float(red.re) == pytest.approx(0.5, abs=1e-9)

    def test_idempotent_on_words(self):
        rng = random.Random(5)
        for _ in range(25):
            z = sample_reduced(rng)
            mat = random_word(rng, z)
            moved = analytic.moebius(mat, z)
            red = analytic.reduce_to_fundamental_domain(moved)
            assert abs(red.value - z) < 1e-9
            det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
            assert det == 1

    def test_rejects_lower_half_plane(self):
        with pytest.raises(NotUpperHalfPlane):
            analytic.reduce_to_fundamental_domain(mpmath.mpc(0.3, -2))
        with pytest.raises(NotUpperHalfPlane):
            analytic.Tau(mpmath.mpc(1, -1))


class TestModularDiscriminant:
    def test_delta_i_eta_closed_form(self):
        # eta(i) = Gamma(1/4) / (2 pi^(3/4)); delta(i) = eta(i)^24
        with mpmath.workprec(90):
            eta_i = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf(0.75))
            expected = eta_i**24
        got = analytic.modular_discriminant(mpmath.mpc(0, 1))
        assert abs(mpmath.im(got)) < 1e-15
        assert abs(mpmath.re(got) - expected) < 1e-9
        # third, independent route: q = e^(-2 pi) directly
        with mpmath.workprec(90):
            q = mpmath.exp(-2 * mpmath.pi)
            direct = q * mpmath.nprod(lambda n: (1 - q**n) ** 24, [1, mpmath.inf])
        assert abs(mpmath.re(got) - direct) < 1e-9
        assert float(mpmath.re(got)) == pytest.approx(0.0017853698, abs=1e-9)

    def test_translation_invariance(self):
        z = mpmath.mpc(0.3, 1.1)
        d1 = analytic.delta_q_series(z)
        d2 = analytic.delta_q_series(z + 1)
        assert abs(d1 - d2) <= 1e-15 * abs(d1)

    def test_s_transformation_weight(self):
        z = mpmath.mpc(0.2, 1.1)
        lhs = abs(analytic.delta_q_series(-1 / z))
        rhs = abs(z) ** 12 * abs(analytic.delta_q_series(z))
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_requires_reduced(self):
        with pytest.raises(TauNotReduced):
            analytic.modular_discriminant(mpmath.mpc(0.0, 0.5))

    def test_tau_keeps_its_precision(self):
        # a 200-bit tau must not be rounded to 53 bits on the way in
        before = prec.bits()
        try:
            prec.set_precision(200)
            with mpmath.workprec(200):
                tau = mpmath.mpc(mpmath.mpf(1) / 7, mpmath.sqrt(2))
            got = analytic.delta_q_series(tau)
            assert got != analytic.delta_q_series(complex(tau))
            with mpmath.workprec(300):
                tau = mpmath.mpc(mpmath.mpf(1) / 7, mpmath.sqrt(2))
                q = mpmath.exp(2j * mpmath.pi * tau)
                product, qn = mpmath.mpc(1), q
                while abs(qn) > mpmath.mpf(2) ** -320:
                    product *= (1 - qn) ** 24
                    qn *= q
                ref = q * product
                assert abs(got - ref) < 1e-40 * abs(ref)
        finally:
            prec.set_precision(before)

    def test_orbit_invariance_sampled(self):
        rng = random.Random(17)
        done = 0
        while done < 50:
            z = sample_reduced(rng)
            mat = random_word(rng, z)
            if mat == ((1, 0), (0, 1)):
                continue
            w = analytic.moebius(mat, z)
            v1 = abs(analytic.delta_q_series(z)) * mpmath.im(z) ** 6
            v2 = abs(analytic.delta_q_series(w)) * mpmath.im(w) ** 6
            assert abs(v1 - v2) <= 1e-9 * v1
            done += 1

    def test_nonnegativity_of_height_term(self):
        rng = random.Random(23)
        points = [mpmath.mpc(0, 1), mpmath.mpc(0.5, math.sqrt(3) / 2)]
        points += [sample_reduced(rng) for _ in range(100)]
        for z in points:
            val = analytic.log_scaled_discriminant(z)
            assert -float(val) >= 0

    def test_tail_series_value(self):
        # sum log(1 + e^(-sqrt(3) pi n)) = 0.004343... <= 0.005
        total = mpmath.fsum(
            mpmath.log(1 + mpmath.exp(-mpmath.sqrt(3) * mpmath.pi * n))
            for n in range(1, 60)
        )
        assert float(total) == pytest.approx(0.004343, abs=1e-6)
        assert float(total) <= 0.005


@given(st.floats(-2, 2), st.floats(0.3, 4))
def test_delta_matches_the_product_law(re, im):
    # the pentagonal series against a 300-bit direct product q prod (1 - q^n)^24,
    # inside the fundamental domain and outside it (Im tau down to 0.3)
    z = mpmath.mpc(re, im)
    got = analytic.delta_q_series(z)
    with mpmath.workprec(300):
        q = mpmath.exp(2j * mpmath.pi * z)
        product, qn = mpmath.mpc(1), q
        while abs(qn) > mpmath.mpf(2) ** -320:
            product *= (1 - qn) ** 24
            qn *= q
        ref = q * product
        assert abs(got - ref) <= 1e-18 * abs(ref)


@settings(max_examples=25)
@given(st.floats(-0.5, 0.5), st.floats(0.01, 0.3))
def test_delta_near_the_real_axis(re, im):
    # |q| up to 0.94: the pentagonal sum cancels to about exp(-pi / (12 Im)),
    # so this exercises the rounding bound of the fixed-point sum; against
    # a 400-bit product q prod (1 - q^n)^24 whose dropped factors have
    # |q^n| < 2^-100 (together less than 2^-95 relative)
    z = mpmath.mpc(re, im)
    got = analytic.delta_q_series(z)
    with mpmath.workprec(400):
        q = mpmath.exp(2j * mpmath.pi * z)
        product, qn = mpmath.mpc(1), q
        while abs(qn) > mpmath.mpf(2) ** -100:
            product *= 1 - qn
            qn *= q
        ref = q * product**24
        assert abs(got - ref) <= 1e-18 * abs(ref)


@given(st.floats(1e-6, 1e6), st.integers(-200, 200))
def test_real_agm_matches_mpmath(ratio, exponent):
    # the fixed-point AGM against mpmath.agm at 300 bits, at any scale
    a = mpmath.ldexp(mpmath.mpf(1.5), exponent)
    b = a * ratio
    got = analytic.optimal_agm(a, b)
    with mpmath.workprec(300):
        ref = mpmath.agm(a, b)
        assert abs(got - ref) <= mpmath.mpf(2) ** -prec.bits() * ref


class TestEisensteinE4:
    def test_e4_at_i(self):
        # E4(i) = 3 Gamma(1/4)^8 / (64 pi^6)
        with mpmath.workprec(200):
            tau = mpmath.mpc(0, 1)
            expected = 3 * mpmath.gamma(mpmath.mpf(1) / 4) ** 8 / (64 * mpmath.pi**6)
        assert abs(analytic.eisenstein_e4(tau) - expected) < 1e-18

    def test_e4_vanishes_at_rho(self):
        with mpmath.workprec(200):
            rho = mpmath.expjpi(mpmath.mpf(2) / 3)
        assert abs(analytic.eisenstein_e4(rho)) < 1e-18

    def test_term_cap_is_a_named_failure(self):
        start = time.perf_counter()
        with pytest.raises(AgmNoConvergence):
            analytic.eisenstein_e4(mpmath.mpc(0.1, 1e-6))
        assert time.perf_counter() - start < 1.0


class TestJInvariant:
    def test_j_at_i(self):
        j = analytic.j_invariant_series(mpmath.mpc(0, 1))
        assert abs(j - 1728) < 1e-6

    def test_j_at_corner(self):
        j = analytic.j_invariant_series(mpmath.mpc(0.5, math.sqrt(3) / 2))
        assert abs(j) < 1e-6

    def test_j_at_2i(self):
        j = analytic.j_invariant_series(mpmath.mpc(0, 2))
        assert abs(j - 66**3) < 1e-4 * 66**3


class TestPeriods:
    def test_lemniscatic(self):
        pd = analytic.agm_periods(curve_stub(0, 0, 0, 1, 0))
        assert abs(pd.tau.value - mpmath.mpc(0, 1)) < 1e-8

    def test_equianharmonic(self):
        pd = analytic.agm_periods(curve_stub(0, 0, 0, 0, 1))
        corner = mpmath.mpc(0.5, math.sqrt(3) / 2)
        assert abs(pd.tau.value - corner) < 1e-8

    def test_37a_j_match(self):
        pd = analytic.agm_periods(curve_stub(0, 0, 1, -1, 0))
        j = analytic.j_invariant_series(pd.tau)
        assert abs(j - mpmath.mpf(110592) / 37) < 1e-6 * 2989

    def test_real_period_against_quadrature(self):
        pd = analytic.agm_periods(curve_stub(0, 0, 0, 0, 1))
        integral = 2 * mpmath.quad(
            lambda x: 1 / mpmath.sqrt(4 * x**3 + 4), [-1, mpmath.inf]
        )
        assert abs(float(pd.omega1) - float(integral)) < 1e-8


class TestInjectivityDiameter:
    def test_at_i(self):
        assert analytic.injectivity_diameter(mpmath.mpc(0, 1)) == pytest.approx(1.0)

    def test_at_corner(self):
        rho = analytic.injectivity_diameter(mpmath.mpc(0.5, math.sqrt(3) / 2))
        assert rho == pytest.approx((math.sqrt(3) / 2) ** -0.5, abs=1e-9)
        assert rho == pytest.approx(1.0745699, abs=1e-6)

    def test_at_2i(self):
        assert analytic.injectivity_diameter(mpmath.mpc(0, 2)) == pytest.approx(
            2**-0.5, abs=1e-12
        )


class TestLatticeDiscriminantIdentity:
    def test_q_series_reproduces_integer_discriminant(self):
        # delta(omega2/omega1) (2 pi / omega1)^12 equals the exact model
        # discriminant: ties the AGM lattice, the q-series, and the
        # integer invariants together with no free normalization
        from arithinv import ellcurve as ec

        cases = [
            (0, 0, 1, -1, 0),
            (0, 1, 1, -2, 0),
            (0, 0, 1, -7, 6),
            (0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 529),
        ]
        for a in cases:
            curve = ec.weierstrass_curve(*a)
            pd = analytic.agm_periods(curve)
            tau0 = pd.omega2 / pd.omega1
            with mpmath.workprec(100):
                val = analytic.delta_q_series(tau0) * (2 * mpmath.pi / pd.omega1) ** 12
            target = int(curve.delta)
            assert abs(val - target) <= 1e-12 * abs(target)
