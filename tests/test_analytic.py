import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arithinv import analytic, arith, prec
from arithinv.analytic import SQRT3_HALF
from arithinv.errors import AgmNoConvergence, NotUpperHalfPlane, TauNotReduced
from test_arith import fixed_reference


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


def moebius(matrix, z):
    (a, b), (c, d) = matrix
    return (a * z + b) / (c * z + d)


def _cmul(ar, ai, br, bi, bits):
    # product of two fixed-point Gaussian integers, each part rounded down
    return (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits


def delta_q_series(z, bits=400):
    """log delta(z), Im z > 0, by Euler's pentagonal series: the oracle
    for log delta, at any tau and to 2^-(bits + 7).

    delta = q S^24 with S = sum_k (-1)^k q^(k(3k-1)/2) over all integers k
    (Cohen, A Course in Computational Algebraic Number Theory, Sec. 7.4),
    so log delta = 2 pi i z + 24 log S, up to a multiple of 2 pi i (the
    imaginary part is not reduced).  The sum runs on fixed-point Gaussian
    integers and q enters only through 2 pi i z, so the accuracy does not
    depend on |q|.  S is about prod (1 - q^n), of size about exp(-pi /
    (12 Im z)) (the eta function), so the fixed point carries 0.38 / Im z
    bits beyond bits + 40 against that cancellation.

    Each power q^e is a product tree of e copies of the fixed-point q
    (within one unit).  A product of two values of modulus < 1 adds their
    errors and rounds by less than 2 units, so q^e is within 4e units, and
    the summed powers give the rounding bound err.  The terms left after
    the smallest unsummed exponent e are bounded by tail = 2|q|^e / (1 -
    |q|); summing stops once 24 (tail + err) < 2^-(bits + 8) (|partial
    sum| - tail - err).  That bounds the error of 24 log S by 2^-(bits +
    7), and the logarithm and the sum, each rounded in mpmath at bits +
    30, add less than 2^-(bits + 25) (24 |log S| + 2 pi |z|).

    2 pi i z is taken at the fixed point's precision + 4, and q = exp(2 pi
    i z) is rounded to a fixed-point Gaussian integer within one unit in
    each part (|q| < 1, so that many relative bits suffice).
    """
    y = float(mpmath.im(z))
    fixed = bits + 40 + math.ceil(0.38 / y)
    with mpmath.workprec(fixed + 4):
        w = 2j * mpmath.pi * z
        q = mpmath.exp(w)
    qr, qi = fixed_reference(q.real, fixed), fixed_reference(q.imag, fixed)
    # 1 / (1 - |q|) <= c / 2^32, with |q| = exp(-2 pi Im tau)
    c = int(2**32 / -math.expm1(-2 * math.pi * y) * (1 + 2**-40)) + 1
    q2 = _cmul(qr, qi, qr, qi, fixed)
    q3 = _cmul(*q2, qr, qi, fixed)
    q4 = _cmul(*q2, *q2, fixed)
    # q^(k(3k-1)/2), q^(k(3k+1)/2) and their steps q^(3k+1), q^(3k+2), from k = 1
    (lr, li), (hr, hi), (slr, sli), (shr, shi) = (qr, qi), q2, q4, _cmul(*q4, qr, qi, fixed)
    tr, ti, err = 1 << fixed, 0, 0
    for k in range(1, 200001):
        if k % 2:
            tr, ti = tr - lr - hr, ti - li - hi
        else:
            tr, ti = tr + lr + hr, ti + li + hi
        err += 12 * k * k  # 4 (k(3k-1)/2 + k(3k+1)/2)
        lr, li = _cmul(lr, li, slr, sli, fixed)
        hr, hi = _cmul(hr, hi, shr, shi, fixed)
        slr, sli = _cmul(slr, sli, *q3, fixed)
        shr, shi = _cmul(shr, shi, *q3, fixed)
        # (tail + err) 2^32 in units, with the unsummed q^e within 4e units,
        # against |partial sum| 2^32 from below
        e = (k + 1) * (3 * k + 2) // 2
        bound = 2 * (math.isqrt(lr * lr + li * li) + 1 + 4 * e) * c + (err << 32)
        if (24 * bound) << (bits + 8) < (math.isqrt(tr * tr + ti * ti) << 32) - bound:
            break
    else:
        raise AssertionError("q-series truncation did not converge")
    with mpmath.workprec(bits + 30):
        return w + 24 * mpmath.log(arith.from_fixed_pair(tr, ti, fixed))


def delta_at(z, bits=400):
    """delta(z) from the logarithm delta_q_series returns, exponentiated
    at bits + 30, the precision it is returned at."""
    with mpmath.workprec(bits + 30):
        return mpmath.exp(delta_q_series(z, bits))


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
        w = moebius(cand, z)
        if mpmath.im(w) < 0.05:
            continue
        mat = cand
    return mat


def reduce_tau(tau):
    """analytic._reduce_fixed on tau, taken exactly at the fixed point it
    asks for; the walk wants Im tau > 0."""
    with prec.working():
        tau = mpmath.mpc(tau)
    if not mpmath.im(tau) > 0:
        raise NotUpperHalfPlane("Im tau must be positive")
    bits = prec.bits() + 40 + 2 * max(0, 1 - mpmath.frexp(mpmath.im(tau))[1])
    return analytic._reduce_fixed(fixed_reference(tau.real, bits), fixed_reference(tau.imag, bits), bits)


class TestReduction:
    def test_already_reduced(self):
        red = reduce_tau(mpmath.mpc(0.3, 2))
        assert red.transform == ((1, 0), (0, 1))
        assert complex(red.value) == complex(0.3, 2)

    def test_translation(self):
        red = reduce_tau(mpmath.mpc(5.3, 2))
        assert red.transform == ((1, -5), (0, 1))
        assert abs(red.value - mpmath.mpc(0.3, 2)) < 1e-12

    def test_s_move(self):
        z = -1 / mpmath.mpc(0.3, 2)
        red = reduce_tau(z)
        assert abs(red.value - mpmath.mpc(0.3, 2)) < 1e-10
        # Moebius identity of the recorded transform
        assert abs(moebius(red.transform, z) - red.value) < 1e-10

    def test_corner_convention(self):
        # the left corner is moved to the right corner of the circle arc
        rho = mpmath.mpc(-0.5, math.sqrt(3) / 2)
        red = reduce_tau(rho)
        assert float(red.re) == pytest.approx(0.5, abs=1e-9)

    def test_idempotent_on_words(self):
        rng = random.Random(5)
        for _ in range(25):
            z = sample_reduced(rng)
            mat = random_word(rng, z)
            moved = moebius(mat, z)
            red = reduce_tau(moved)
            assert abs(red.value - z) < 1e-9
            det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
            assert det == 1

    def test_rejects_lower_half_plane(self):
        with pytest.raises(NotUpperHalfPlane):
            reduce_tau(mpmath.mpc(0.3, -2))
        with pytest.raises(NotUpperHalfPlane):
            analytic.log_delta(complex(0.3, -2))


def reference_reduce(z):
    # the fundamental-domain walk in mpmath at the working precision + 20
    # bits, with the tie-breaks of analytic._reduce_fixed
    eps = analytic.BOUNDARY_EPS
    mat = ((1, 0), (0, 1))
    with prec.working(20):
        z = mpmath.mpc(z)
        for _ in range(10000):
            n = int(mpmath.floor(mpmath.re(z) + mpmath.mpf(1) / 2))
            if n != 0:
                z = z - n
                mat = analytic._matmul(((1, -n), (0, 1)), mat)
            if abs(z) ** 2 < 1 - eps:
                z = -1 / z
                mat = analytic._matmul(((0, -1), (1, 0)), mat)
            else:
                break
        if mpmath.re(z) >= mpmath.mpf(1) / 2 - eps and abs(abs(z) - 1) > eps:
            z = z - 1
            mat = analytic._matmul(((1, -1), (0, 1)), mat)
        if abs(abs(z) - 1) <= eps and mpmath.re(z) < -eps:
            z = -1 / z
            mat = analytic._matmul(((0, -1), (1, 0)), mat)
    return z, mat


def reduced_points():
    # the fundamental domain's interior, its arc |z| = 1 and its sides Re = +-1/2
    inside = st.tuples(st.floats(-0.5, 0.5), st.floats(SQRT3_HALF, 8)).filter(
        lambda p: p[0] ** 2 + p[1] ** 2 >= 1
    )
    arc = st.floats(1 / 3, 2 / 3).map(lambda t: (math.cos(math.pi * t), math.sin(math.pi * t)))
    sides = st.tuples(st.sampled_from([-0.5, 0.5]), st.floats(SQRT3_HALF, 8))
    return st.one_of(inside, arc, sides)


@settings(max_examples=200)
@given(reduced_points(), st.lists(st.integers(-1000, 1000), min_size=1, max_size=6))
def test_integer_reduction_law(point, shifts):
    # tau0 = S T^n_k ... S T^n_1 (z) for a reduced z, with Im tau0 down to
    # 1e-6 and |Re tau0| up to 10^3: the integer walk takes the reference
    # walk's transform, and its value is within 2^-prec relative of the
    # transform applied to tau0 at 400 bits.  tau0 is rounded to a double,
    # so both walks decide on one exact input.
    with mpmath.workprec(400):
        tau0 = mpmath.mpc(*point)
        for n in shifts:
            tau0 = -1 / (tau0 + n)
    tau0 = mpmath.mpc(complex(tau0))
    assume(mpmath.im(tau0) >= 1e-6 and abs(mpmath.re(tau0)) <= 1e3)
    red = reduce_tau(tau0)
    assert red.transform == reference_reduce(tau0)[1]
    with mpmath.workprec(400):
        exact = moebius(red.transform, tau0)
        assert abs(red.value - exact) <= mpmath.mpf(2) ** -prec.bits() * abs(exact)


class TestModularDiscriminant:
    def test_delta_i_eta_closed_form(self):
        # eta(i) = Gamma(1/4) / (2 pi^(3/4)); delta(i) = eta(i)^24
        with mpmath.workprec(90):
            eta_i = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf(0.75))
            expected = eta_i**24
        got = delta_at(mpmath.mpc(0, 1))
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
        d1 = delta_at(z)
        d2 = delta_at(z + 1)
        assert abs(d1 - d2) <= 1e-15 * abs(d1)

    def test_s_transformation_weight(self):
        z = mpmath.mpc(0.2, 1.1)
        lhs = abs(delta_at(-1 / z))
        rhs = abs(z) ** 12 * abs(delta_at(z))
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_tau_keeps_its_precision(self):
        # a 200-bit tau must not be rounded to 53 bits on the way in
        with mpmath.workprec(200):
            tau = mpmath.mpc(mpmath.mpf(1) / 7, mpmath.sqrt(2))
        got = delta_at(tau, 200)
        assert got != delta_at(complex(tau), 200)
        with mpmath.workprec(300):
            tau = mpmath.mpc(mpmath.mpf(1) / 7, mpmath.sqrt(2))
            q = mpmath.exp(2j * mpmath.pi * tau)
            product, qn = mpmath.mpc(1), q
            while abs(qn) > mpmath.mpf(2) ** -320:
                product *= (1 - qn) ** 24
                qn *= q
            ref = q * product
            assert abs(got - ref) < 1e-40 * abs(ref)

    def test_orbit_invariance_sampled(self):
        rng = random.Random(17)
        done = 0
        while done < 50:
            z = sample_reduced(rng)
            mat = random_word(rng, z)
            if mat == ((1, 0), (0, 1)):
                continue
            w = moebius(mat, z)
            v1 = abs(delta_at(z)) * mpmath.im(z) ** 6
            v2 = abs(delta_at(w)) * mpmath.im(w) ** 6
            assert abs(v1 - v2) <= 1e-9 * v1
            done += 1

    def test_nonnegativity_of_height_term(self):
        rng = random.Random(23)
        points = [mpmath.mpc(0, 1), mpmath.mpc(0.5, math.sqrt(3) / 2)]
        points += [sample_reduced(rng) for _ in range(100)]
        for z in points:
            val = log_scaled_discriminant(z)
            assert -float(val) >= 0

    def test_tail_series_value(self):
        # sum log(1 + e^(-sqrt(3) pi n)) = 0.004343... <= 0.005
        total = mpmath.fsum(
            mpmath.log(1 + mpmath.exp(-mpmath.sqrt(3) * mpmath.pi * n))
            for n in range(1, 60)
        )
        assert float(total) == pytest.approx(0.004343, abs=1e-6)
        assert float(total) <= 0.005


def log_scaled_reference(z):
    # log(|q prod (1 - q^n)^24| (2 Im z)^6) at 200 bits, the product run
    # until q^n < 2^-210
    with mpmath.workprec(200):
        z = mpmath.mpc(z)
        q = mpmath.exp(2j * mpmath.pi * z)
        product, qn = q, q
        while abs(qn) > mpmath.mpf(2) ** -210:
            product *= (1 - qn) ** 24
            qn *= q
        return mpmath.log(abs(product) * (2 * mpmath.im(z)) ** 6)


def assert_scaled_discriminant_within_bound(z):
    # the docstring's bound: 1e-25 of truncation plus the double rounding
    y = z.imag
    bound = 1e-25 + 2.0**-50 * (2 * math.pi * y + 6 * abs(math.log(2 * y)) + 1)
    assert abs(log_scaled_discriminant(z) - log_scaled_reference(z)) <= bound


def log_scaled_discriminant(tau):
    """log(|delta(tau)| (2 Im tau)^6) for a reduced tau, in double precision.

    The real part of log_delta plus 6 log(2 Im tau): within 1e-25 +
    2^-50 (2 pi Im tau + 6 |log(2 Im tau)| + 1) of the exact value.
    """
    z = complex(tau.value if isinstance(tau, analytic.ReducedTau) else tau)
    return analytic.log_delta(z).real + 6 * math.log(2 * z.imag)


def sample_reduced_tau(count, seed=20260809):
    """i, rho and count seeded points of the fundamental domain: the sample
    whose least -log(|delta| (2 Im)^6) is ledger.ANALYTIC_NONNEG."""
    rng = random.Random(seed)
    points = [complex(0, 1), complex(0.5, math.sqrt(3) / 2)]
    while len(points) < count + 2:
        re = rng.uniform(-0.5, 0.4999)
        im = rng.uniform(0.867, 3.0)
        if re * re + im * im >= 1.0001:
            points.append(complex(re, im))
    return points


class TestLogScaledDiscriminant:
    def test_ledger_points_against_200_bits(self):
        points = sample_reduced_tau(100)
        assert len(points) == 102 and all(isinstance(z, complex) for z in points)
        for z in points:
            assert_scaled_discriminant_within_bound(z)

    def test_requires_reduced(self):
        with pytest.raises(TauNotReduced):
            analytic.log_delta(complex(0.1, 0.8))
        for im in (0.0, -1.0):
            with pytest.raises(NotUpperHalfPlane):
                analytic.log_delta(complex(0.1, im))

    def test_takes_every_tau_type(self):
        z = complex(0.25, 1.5)
        reduced = reduce_tau(z)
        values = {
            analytic.log_delta(w)
            for w in (z, mpmath.mpc(z), reduced)
        }
        assert len(values) == 1


@given(st.floats(-0.5, 0.5), st.floats(SQRT3_HALF, 6))
def test_log_scaled_discriminant_law(re, im):
    # on the fundamental domain, against 200 bits within the stated bound
    assume(re * re + im * im >= 1)
    assert_scaled_discriminant_within_bound(complex(re, im))


@example((0.0, 1.0))  # i
@example((0.5, SQRT3_HALF))  # rho
@example((-0.5, SQRT3_HALF))
@given(reduced_points())
def test_log_delta_law(point):
    # log_delta against the 400-bit oracle within its docstring's bounds,
    # in both parts, the phase mod 2 pi
    z = complex(*point)
    got = analytic.log_delta(z)
    ref = delta_q_series(mpmath.mpc(z))
    with mpmath.workprec(400):
        diff = mpmath.mpc(got) - ref
        phase = diff.imag - 2 * mpmath.pi * mpmath.nint(diff.imag / (2 * mpmath.pi))
        assert abs(diff.real) <= 1e-25 + 2.0**-50 * (2 * math.pi * z.imag + 1)
        assert abs(phase) <= 1e-25 + 2.0**-50 * (2 * math.pi * abs(z.real) + 1)


@given(st.floats(-2, 2), st.floats(0.3, 4))
def test_delta_matches_the_product_law(re, im):
    # the pentagonal series against a 300-bit direct product q prod (1 - q^n)^24,
    # inside the fundamental domain and outside it (Im tau down to 0.3)
    z = mpmath.mpc(re, im)
    got = delta_at(z)
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
    got = delta_at(z)
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
    # the fixed-point AGM against mpmath.agm at 300 bits, at any scale, on
    # the fixed point 2^-s that puts min(a, b) at 2^(prec.bits() + 20) or more
    a = mpmath.ldexp(mpmath.mpf(1.5), exponent)
    b = a * ratio
    s = prec.bits() + 21 - mpmath.frexp(min(a, b))[1]
    got = arith.from_fixed(analytic._agm(fixed_reference(a, s), fixed_reference(b, s)), s + 1)
    with mpmath.workprec(300):
        ref = mpmath.agm(a, b)
        assert abs(got - ref) <= mpmath.mpf(2) ** -prec.bits() * ref


class TestPeriods:
    def test_lemniscatic(self):
        pd = analytic.agm_periods(curve_stub(0, 0, 0, 1, 0))
        assert abs(pd.tau.value - mpmath.mpc(0, 1)) < 1e-8

    def test_equianharmonic(self):
        pd = analytic.agm_periods(curve_stub(0, 0, 0, 0, 1))
        corner = mpmath.mpc(0.5, math.sqrt(3) / 2)
        assert abs(pd.tau.value - corner) < 1e-8

    def test_37a_j_match(self):
        # mpmath's Klein j at the reduced tau, an independent reference
        pd = analytic.agm_periods(curve_stub(0, 0, 1, -1, 0))
        with mpmath.workprec(prec.bits() + 30):
            j = 1728 * mpmath.kleinj(pd.tau.value)
            assert abs(j - mpmath.mpf(110592) / 37) < 1e-15 * 2989

    def test_real_period_against_quadrature(self):
        pd = analytic.agm_periods(curve_stub(0, 0, 0, 0, 1))
        integral = 2 * mpmath.quad(
            lambda x: 1 / mpmath.sqrt(4 * x**3 + 4), [-1, mpmath.inf]
        )
        assert abs(float(pd.omega1) - float(integral)) < 1e-8


def reference_periods(curve, transform):
    # omega1, omega2, the reduced tau and delta(tau) at 400 bits: roots by
    # mpmath.polyroots, complex AGMs (M(sqrt(w), sqrt(conj w)) for the
    # rhombic lattice), tau moved by the given transform, delta as q prod
    # (1 - q^n)^24 with the dropped factors below 2^-420
    with mpmath.workprec(400):
        roots = mpmath.polyroots([4, curve.b2, 2 * curve.b4, curve.b6], maxsteps=200, extraprec=800)
        if curve.delta > 0:
            e3, e2, e1 = sorted(mpmath.re(r) for r in roots)
            omega1 = mpmath.pi / mpmath.agm(mpmath.sqrt(e1 - e3), mpmath.sqrt(e1 - e2))
            omega2 = 1j * mpmath.pi / mpmath.agm(mpmath.sqrt(e1 - e3), mpmath.sqrt(e2 - e3))
        else:
            e1 = min(roots, key=lambda r: abs(mpmath.im(r))).real
            e2 = max(roots, key=lambda r: mpmath.im(r))
            e3 = mpmath.conj(e2)
            omega1 = mpmath.re(mpmath.pi / mpmath.agm(mpmath.sqrt(e1 - e2), mpmath.sqrt(e1 - e3)))
            g = mpmath.pi / mpmath.agm(mpmath.sqrt(e2 - e1), mpmath.sqrt(e3 - e1))
            omega2 = (omega1 + 1j * mpmath.re(g)) / 2
        tau = moebius(transform, omega2 / omega1)
        q = mpmath.exp(2j * mpmath.pi * tau)
        product, qn = q, q
        while abs(qn) > mpmath.mpf(2) ** -420:
            product *= (1 - qn) ** 24
            qn *= q
        return omega1, omega2, tau, product


def near_double_curves():
    # y^2 = x^3 + A x^2 + B with |B| << |A|^3 has two roots near 0, a close
    # real pair or a close conjugate pair by the sign of AB; beside them
    # curves with arbitrary small a-invariants
    near = st.tuples(st.integers(-(10**12), 10**12), st.integers(-20, 20)).map(lambda t: (0, t[0], 0, 0, t[1]))
    small = st.tuples(
        st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1), st.integers(-(10**5), 10**5), st.integers(-(10**7), 10**7)
    )
    return st.one_of(near, small)


def assert_periods_match_reference(curve):
    # omega1, omega2 and tau within 2^-prec relative of 400 bits; log
    # delta at the computed tau (the 400-bit oracle delta_q_series) within
    # 2^-(prec - 8) mod 2 pi i of the reference, a relative bound on
    # delta(tau) from the error of tau through d log delta / d tau = 2 pi i
    # E2(tau).  Then the identity
    # agm_periods checks, in its reference form at prec + 30 bits:
    # (2 pi / omega1')^12 delta(tau) = Delta_E with omega1' = c omega2 + d
    # omega1 from the bottom row (c, d) of the reduction matrix, to the
    # same 2^-(prec - 8); the double-precision log residual of agm_periods
    # must agree with this one's logarithm within 1e-9
    pd = analytic.agm_periods(curve)
    omega1, omega2, tau, delta = reference_periods(curve, pd.tau.transform)
    eta = mpmath.mpf(2) ** -prec.bits()
    assert abs(pd.omega1 - omega1) <= eta * abs(omega1)
    assert abs(pd.omega2 - omega2) <= eta * abs(omega2)
    assert abs(pd.tau.value - tau) <= eta * abs(tau)
    log_delta = delta_q_series(pd.tau.value)
    with mpmath.workprec(400):
        diff = log_delta - mpmath.log(delta)
        assert abs(mpmath.mpc(diff.real, math.remainder(diff.imag, 2 * math.pi))) <= 2**8 * eta
    (_, _), (c, d) = pd.tau.transform
    with mpmath.workprec(prec.bits() + 30):
        val = (2 * mpmath.pi / (c * pd.omega2 + d * pd.omega1)) ** 12 * mpmath.exp(log_delta)
        assert abs(val - curve.delta) <= 2**8 * eta * abs(curve.delta)
        residual = complex(mpmath.log(val / curve.delta))
    assert abs(analytic._lattice_residual(pd, curve.delta) - residual) <= 1e-9


@settings(max_examples=120)
@given(near_double_curves(), st.sampled_from((None, 200)))
@example((0, 10**12, 0, 0, 1), None)  # a conjugate pair 2e-6 apart
@example((0, 10**12, 0, 0, -1), None)  # two real roots 2e-6 apart
@example((0, -(10**12), 0, 0, -1), None)
@example((0, 10**12, 0, 0, 1), 200)
@example((0, 10**12, 0, 0, -1), 200)
def test_agm_periods_law(a, bits):
    # about 60 examples at the working precision (bits None), 60 at 200 bits
    curve = curve_stub(*a)
    assume(curve.delta != 0)
    before = prec.bits()
    try:
        prec.set_precision(bits or before)
        assert_periods_match_reference(curve)
    finally:
        prec.set_precision(before)


def assert_h_plus_matches_oracle(curve):
    # h+ of the model's lattice within 2^-prec relative of (1/12)(log |Delta|
    # - Re log delta(tau) - 6 log(2 Im tau)) at its reduced tau, log delta
    # by the 400-bit oracle, plus the rounding of the returned double.  h+
    # comes from the covolume, which no reduction of the basis moves, so it
    # reads no tau: the AGM means alone give it
    from arithinv import ellcurve as ec

    pd = analytic.agm_periods(curve)
    h = ec.faltings_height_plus(pd)
    assert ec.faltings_height_plus(pd._replace(tau=None)) == h
    tau = pd.tau.value
    log_delta = delta_q_series(tau)
    with mpmath.workprec(400):
        ref = (mpmath.log(abs(curve.delta)) - log_delta.real - 6 * mpmath.log(2 * tau.imag)) / 12
        assert abs(h - ref) <= (2.0 ** -prec.bits() + 2.0**-53) * ref


@settings(max_examples=60)
@given(near_double_curves(), st.sampled_from((None, 200)))
@example((0, 10**12, 0, 0, 1), None)
@example((0, 10**12, 0, 0, -1), 200)
def test_faltings_height_plus_law(a, bits):
    # the curves of test_agm_periods_law, about half at 200 bits
    curve = curve_stub(*a)
    assume(curve.delta != 0)
    before = prec.bits()
    try:
        prec.set_precision(bits or before)
        assert_h_plus_matches_oracle(curve)
    finally:
        prec.set_precision(before)


def reference_means(curve):
    # M1, M2 of agm_periods at 400 bits, from the roots of mpmath.polyroots
    with mpmath.workprec(400):
        roots = mpmath.polyroots([4, curve.b2, 2 * curve.b4, curve.b6], maxsteps=200, extraprec=800)
        if curve.delta > 0:
            e3, e2, e1 = sorted(mpmath.re(r) for r in roots)
            r13 = mpmath.sqrt(e1 - e3)
            return mpmath.agm(r13, mpmath.sqrt(e1 - e2)), mpmath.agm(r13, mpmath.sqrt(e2 - e3))
        e1 = mpmath.re(min(roots, key=lambda r: abs(mpmath.im(r))))
        w = e1 - max(roots, key=mpmath.im)  # e1 - e2, Im e2 > 0
        root = mpmath.sqrt(abs(w))  # |sqrt(w)| = |sqrt(-w)|
        return mpmath.agm(mpmath.re(mpmath.sqrt(w)), root), mpmath.agm(mpmath.re(mpmath.sqrt(-w)), root)


@settings(max_examples=60)
@given(near_double_curves(), st.sampled_from((None, 200)))
@example((0, 10**12, 0, 0, 1), None)
@example((0, 10**12, 0, 0, -1), 200)
@example((0, 10**40, 0, 0, 1), None)  # Im e2 = 1e-20 beside e1 = -1e40: (Im w)^2 cancels 266 bits
@example(  # roots near 1e30, where an absolute root radius of 1e-18 is past 80 bits' reach
    (0, 1, 1, 447175276566107624656032371143450248313874716027392466187076,
     -233083578500749614272957522333252844967856684166739611148509310957617601161083110263791606),
    None,
)
def test_agm_means_are_within_the_h_plus_budget(a, bits):
    # the budget of h+ (ellcurve.faltings_height_plus) counts the integer
    # means m1, m2 as within 2^-(prec + 11) relative of the AGM means of the
    # exact roots; the run-time precision check of agm_periods is what
    # gives the AGM inputs their bits where a near-double or near-real pair
    # cancels
    curve = curve_stub(*a)
    assume(curve.delta != 0)
    before = prec.bits()
    try:
        prec.set_precision(bits or before)
        pd = analytic.agm_periods(curve)
        with mpmath.workprec(400):
            for m, ref in zip((pd.m1, pd.m2), reference_means(curve)):
                assert abs(arith.from_fixed(m, pd.scale) - ref) <= mpmath.ldexp(ref, -(prec.bits() + 11))
    finally:
        prec.set_precision(before)


@pytest.mark.parametrize("bits", [None, 200])
def test_faltings_height_plus_on_the_bundled_curves(bundled, bits):
    from arithinv import corpus

    before = prec.bits()
    try:
        prec.set_precision(bits or before)
        for label in bundled.curves:
            _, mm, _, _ = corpus.build_curve_data(bundled, label)
            assert_h_plus_matches_oracle(mm.curve)
    finally:
        prec.set_precision(before)


def periods_from_all_roots(curve):
    """agm_periods as it was when its AGM inputs came from all three roots
    of arith.poly_roots, the complex pair included: the reference that the
    real-root path reproduces to the bit."""
    roots = arith.poly_roots([curve.b6, 2 * curve.b4, curve.b2, 4])
    B, p = roots[0].bits, prec.bits()
    if curve.delta > 0:
        e3, e2, e1 = (r.x for r in roots)
        t = max((B + 1) // 2, (2 * p + 44 + B - min(e1 - e2, e2 - e3).bit_length()) // 2)
        r13, r12, r23 = (math.isqrt(d << 2 * t - B) for d in (e1 - e3, e1 - e2, e2 - e3))
        m1, m2 = analytic._agm(r13, r12), analytic._agm(r13, r23)
        half, den = 0, m2
    else:
        u, v = roots[0].x - roots[1].x, roots[1].y
        t = max((B + 1) // 2, (2 * p + 48 + B + max(abs(u), v).bit_length()) // 2 - v.bit_length())
        u, v = u << 2 * t - B, v << 2 * t - B
        w = math.isqrt(u * u + v * v)
        big, root = math.isqrt((w + abs(u)) >> 1), math.isqrt(w)
        small = (v + big) // (2 * big)
        m1, m2 = analytic._agm(big if u >= 0 else small, root), analytic._agm(small if u >= 0 else big, root)
        half, den = 1, 2 * m2
    bits = p + 40 + 2 * max(0, den.bit_length() - m1.bit_length() + 1)
    tau = analytic._reduce_fixed(half << (bits - 1), (2 * (m1 << bits) + den) // (2 * den), bits)
    return analytic.PeriodData(tau, m1, m2, t + 1, curve.delta > 0)


def near_real_pair(c, e, d):
    # y^2 = (x - c)((x - e)^2 + d^2): a near-real conjugate pair beside a
    # far real root, whose cubics all took the Gaussian-integer polish of
    # arith.poly_roots
    return (0, -(c + 2 * e), 0, 2 * c * e + e * e + d * d, -c * (e * e + d * d))


def near_real_pair_curves():
    return st.builds(near_real_pair, st.integers(-50, 50), st.integers(-(10**18), 10**18), st.integers(1, 5))


class TestRealRootPeriods:
    @settings(max_examples=100)
    @given(st.one_of(near_double_curves(), near_real_pair_curves()), st.sampled_from((80, 200)))
    @example((0, 10**12, 0, 0, -1), 80)  # a real pair 2e-6 apart
    @example((0, 10**40, 0, 0, 1), 80)  # refined twice
    @example((0, 4837524, 0, 4370704371045, 1107056591882813640), 80)  # a real pair 0.0035 apart at -543265, unsplit in doubles
    def test_bit_identical_to_the_all_roots_path(self, a, bits):
        # h+ and both doubles of tau.  On a rhombic lattice with j = 1728,
        # tau = i, and each path reads Re tau = 0 as rounding noise
        from arithinv import ellcurve as ec

        curve = curve_stub(*a)
        assume(curve.delta != 0)
        before = prec.bits()
        try:
            prec.set_precision(bits)
            got, want = analytic.agm_periods(curve), periods_from_all_roots(curve)
            assert ec.faltings_height_plus(got).hex() == ec.faltings_height_plus(want).hex()
            assert float(got.tau.im).hex() == float(want.tau.im).hex()
            if curve.c6 == 0 and curve.delta < 0:
                assert max(abs(got.tau.re), abs(want.tau.re)) <= 2.0 ** -(bits + 20)
            else:
                assert float(got.tau.re).hex() == float(want.tau.re).hex()
        finally:
            prec.set_precision(before)

    def test_no_curve_reaches_the_complex_root_finder(self, bundled, monkeypatch):
        from arithinv import corpus

        def forbidden(*args):
            raise AssertionError("agm_periods reached the complex root finder")

        monkeypatch.setattr(arith, "poly_roots", forbidden)
        monkeypatch.setattr(arith, "_durand_kerner_complex", forbidden)
        hard = corpus.load_corpus(Path(__file__).resolve().parent / "data" / "hard_curves.txt")
        curves = [corpus.build_curve_data(c, label)[1].curve for c in (bundled, hard) for label in c.curves]
        for a in ((0, 10**40, 0, 0, 1), (0, 10**12, 0, 0, -1), near_real_pair(-3, 5 * 10**17, 1)):
            curves.append(curve_stub(*a))
        for curve in curves:
            analytic.agm_periods(curve)


def moved_close_pair(A, B, T):
    # y^2 = x^3 + A x^2 + B with AB < 0, a real pair about 2 sqrt(-B/A)
    # apart at 0, moved to x = -T
    return (0, 3 * T + A, 0, 3 * T * T + 2 * A * T, T**3 + A * T * T + B)


class TestCloseRealPair:
    def test_few_cubic_evaluations_at_a_far_centre(self, monkeypatch):
        # a close real pair at a centre up to 10^15, which the doubles cannot
        # split, starts from p's Taylor expansion at its critical point with
        # its bits known up front: no root falls back to bisection or to the
        # linear phase of Newton at a double root
        rng = random.Random(45)
        curves = [(0, 4837524, 0, 4370704371045, 1107056591882813640)]
        while len(curves) < 100:
            sign = rng.choice((1, -1))
            a = moved_close_pair(sign * rng.randint(1, 10**12), -sign * rng.randint(1, 20), rng.randint(-(10**15), 10**15))
            if curve_stub(*a).delta > 0:
                curves.append(a)
        calls, counts, cubic = [], [], analytic._cubic
        monkeypatch.setattr(analytic, "_cubic", lambda *args: calls.append(1) or cubic(*args))
        before = prec.bits()
        try:
            for bits in (80, 200):
                prec.set_precision(bits)
                for a in curves:
                    del calls[:]
                    analytic.agm_periods(curve_stub(*a))
                    counts.append(len(calls))
        finally:
            prec.set_precision(before)
        assert sorted(counts)[len(counts) // 2] <= 15, sorted(counts)

    def test_bit_identical_to_the_all_roots_path(self):
        from arithinv import ellcurve as ec

        rng = random.Random(46)
        for _ in range(10):
            sign = rng.choice((1, -1))
            a = moved_close_pair(sign * rng.randint(1, 10**12), -sign * rng.randint(1, 20), rng.randint(-(10**15), 10**15))
            got, want = analytic.agm_periods(curve_stub(*a)), periods_from_all_roots(curve_stub(*a))
            assert ec.faltings_height_plus(got).hex() == ec.faltings_height_plus(want).hex(), a
            assert float(got.tau.im).hex() == float(want.tau.im).hex(), a


def rho_at(re, im):
    """The injectivity diameter of the ReducedTau of re + i im."""
    return analytic.injectivity_diameter(reduce_tau(mpmath.mpc(re, im)))


class TestInjectivityDiameter:
    def test_at_i(self):
        assert rho_at(0, 1) == pytest.approx(1.0)

    def test_at_corner(self):
        rho = rho_at(0.5, math.sqrt(3) / 2)
        assert rho == pytest.approx((math.sqrt(3) / 2) ** -0.5, abs=1e-9)
        assert rho == pytest.approx(1.0745699, abs=1e-6)

    def test_at_2i(self):
        assert rho_at(0, 2) == pytest.approx(2**-0.5, abs=1e-12)


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
                val = mpmath.exp(delta_q_series(tau0)) * (2 * mpmath.pi / pd.omega1) ** 12
            target = int(curve.delta)
            assert abs(val - target) <= 1e-12 * abs(target)

    def test_a_wrong_delta_is_a_named_failure(self, monkeypatch):
        # delta(tau) off by 1e-3 relative breaks the identity
        exact = analytic.log_delta
        monkeypatch.setattr(analytic, "log_delta", lambda tau: exact(tau) + math.log(1 + 1e-3))
        with pytest.raises(AgmNoConvergence, match="model discriminant"):
            analytic.agm_periods(curve_stub(0, 0, 1, -1, 0))

    def test_a_wrong_phase_is_a_named_failure(self, monkeypatch):
        # delta(tau) turned by 1e-3 radians keeps its modulus, so only the
        # phase of the check can catch it
        curve = curve_stub(0, 0, 1, -1, 0)
        pd = analytic.agm_periods(curve)
        exact = analytic.log_delta
        monkeypatch.setattr(analytic, "log_delta", lambda tau: exact(tau) + 1e-3j)
        residual = analytic._lattice_residual(pd, curve.delta)
        assert abs(residual.real) < 1e-9 and abs(residual.imag - 1e-3) < 1e-9
        with pytest.raises(AgmNoConvergence, match="model discriminant"):
            analytic.agm_periods(curve)

    def test_huge_discriminant_has_no_overflow(self):
        # Delta of y^2 = x^3 - 10^120 x + 1 has 1200 bits, beyond any double:
        # the lattice check takes its logarithm from the int, and h+ reads
        # only the integer AGM means.  The model is minimal (c6 = -864: v2 =
        # 5, v3 = 3 and 5 does not divide it), so h+ needs no factorization.
        # Against 300 bits to 2^-prec relative, plus the rounding of the
        # returned double
        from arithinv import ellcurve as ec

        curve = ec.weierstrass_curve(0, 0, 0, -(10**120), 1)
        assert abs(int(curve.delta)).bit_length() > 1024
        with mpmath.workprec(300):
            reference = mpmath.mpf("69.60489693031920648584812803003743283980")
        for bits in (prec.bits(), 200):
            before = prec.bits()
            try:
                prec.set_precision(bits)
                pd = analytic.agm_periods(curve)
                h = ec.faltings_height_plus(pd)
            finally:
                prec.set_precision(before)
            with mpmath.workprec(300):
                assert abs(h - reference) <= (2.0**-bits + 2.0**-53) * reference
