import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arithinv import arith, ellcurve
from arithinv.errors import NoConvergence, NotSquarefree


def bisect_root(coeffs, lo, hi, iters=80):
    # independent oracle: plain bisection on a sign change
    flo = arith.poly_eval(coeffs, Fraction(lo))
    for _ in range(iters):
        mid = Fraction(lo + hi, 2)
        fm = arith.poly_eval(coeffs, mid)
        if fm == 0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        lo, hi = Fraction(lo), Fraction(hi)
    return Fraction(lo + hi, 2)


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def assert_bezout_identity(f, g, a, b, r):
    # A f + B g == r identically, with integer cofactors
    total = [0] * (len(f) + len(g))
    for u, v in ((a, f), (b, g)):
        assert all(isinstance(c, int) for c in u)
        for k, c in enumerate(poly_mul(u, v)):
            total[k] += c
    assert arith.poly_normalize(total) == [r]


def assert_encloses_reference(coeffs, roots):
    # every root of a 300-bit mpmath.polyroots reference (accurate to about
    # 2^-290 absolute) lies in the disc of exactly one returned root
    with mpmath.workprec(300):
        ref = mpmath.polyroots(coeffs[::-1], maxsteps=1000, extraprec=300)
        slack = mpmath.mpf(2) ** -280
        for w in ref:
            assert sum(1 for r in roots if abs(w - r.value) <= r.err + slack) == 1, w


def to_fraction(x):
    return Fraction(*mpmath.libmp.to_rational(x._mpf_))


@st.composite
def squarefree_polys(draw):
    """Squarefree integer polynomials of degree 1-6, 4/20/60-bit coefficients."""
    n = draw(st.integers(1, 6))
    bound = 2 ** draw(st.sampled_from([4, 20, 60]))
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    coeffs.append(draw(st.integers(-bound, bound).filter(bool)))
    assume(arith._sturm(coeffs)[0])
    return coeffs


@given(squarefree_polys())
def test_poly_roots_law(coeffs):
    tol = 1e-18
    n = len(coeffs) - 1
    roots = arith.poly_roots(coeffs, tol)
    assert len(roots) == n
    n_real = arith._sturm(coeffs)[1]
    assert all(r.imag == 0 for r in roots[:n_real])
    assert all(r.imag != 0 for r in roots[n_real:])
    for w, v in zip(roots[n_real::2], roots[n_real + 1 :: 2]):
        assert w.imag > 0 and (v.real, v.imag) == (w.real, mpmath.fneg(w.imag, exact=True))
    assert all(r.err <= tol for r in roots)
    for r in roots[:n_real]:
        # a real root in [x - err, x + err]: p changes sign there, exactly
        x, err = to_fraction(r.real), Fraction(r.err)
        assert arith.poly_eval(coeffs, x - err) * arith.poly_eval(coeffs, x + err) <= 0
    assert_encloses_reference(coeffs, roots)


class TestPolyRoots:
    def test_sqrt2(self):
        roots = arith.poly_roots([-2, 0, 1], 1e-12)
        vals = sorted(float(r.real) for r in roots)
        assert vals == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)
        assert all(r.imag == 0 for r in roots)

    def test_i(self):
        roots = arith.poly_roots([1, 0, 1], 1e-12)
        assert len(roots) == 2
        assert all(r.real == 0 or abs(float(r.real)) < 1e-12 for r in roots)
        ims = sorted(float(r.imag) for r in roots)
        assert ims == pytest.approx([-1.0, 1.0], abs=1e-12)
        # exact conjugate pair
        assert roots[0].real == roots[1].real
        assert roots[0].imag == mpmath.fneg(roots[1].imag, exact=True)

    def test_cubic_against_bisection(self):
        coeffs = [-1, -1, 0, 1]  # x^3 - x - 1
        roots = arith.poly_roots(coeffs, 1e-12)
        reals = [r for r in roots if r.imag == 0]
        assert len(reals) == 1
        oracle = bisect_root(coeffs, 1, 2)
        assert abs(float(reals[0].real) - float(oracle)) < 1e-11
        pair = [r for r in roots if r.imag != 0]
        assert len(pair) == 2
        assert pair[0].real == pair[1].real
        assert pair[0].imag == mpmath.fneg(pair[1].imag, exact=True)

    def test_residual_invariant(self):
        rng = random.Random(7)
        for _ in range(25):
            deg = rng.randint(1, 8)
            while True:
                coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
                if arith.poly_degree(coeffs) == deg and arith._sturm(coeffs)[0]:
                    break
            tol = 1e-10
            roots = arith.poly_roots(coeffs, tol)
            assert len(roots) == deg
            lead = abs(coeffs[-1])
            for r in roots:
                z = r.value
                bound = deg * lead * max(abs(z), mpmath.mpf(1)) ** deg * tol
                assert abs(arith.poly_eval(coeffs, z)) <= bound

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            arith.poly_roots([2, -3, 0, 1], 1e-9)  # (x-1)^2 (x+2)
        for a in (0, 1, -3):  # (x^3 - x - 1)(x - a)^2
            with pytest.raises(NotSquarefree):
                arith.poly_roots(poly_mul(poly_mul([-1, -1, 0, 1], [-a, 1]), [-a, 1]), 1e-9)

    @pytest.mark.parametrize(
        "a4, a6", [(-100000000, 1), (-3, 1000000000000000007)], ids=["big_a4", "big_c6"]
    )
    def test_two_division_cubic_of_large_curve(self, a4, a6):
        # 4x^3 + b2 x^2 + 2 b4 x + b6 with b2 = 0, b4 = 2 a4, b6 = 4 a6
        cubic = [4 * a6, 4 * a4, 0, 4]
        roots = arith.poly_roots(cubic, 1e-18)
        assert len(roots) == 3
        assert sum(1 for r in roots if r.imag == 0) == arith._sturm(cubic)[1]
        assert_encloses_reference(cubic, roots)

    E = 10**18

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ([E * E - 1, -2 * E, 1], [E - 1, E + 1]),
            (poly_mul(poly_mul([-E, 1], [-E - 1, 1]), [3, 1]), [-3, E, E + 1]),
            ([E * E + 1, -2 * E, 1], [E + 1j, E - 1j]),
            ([-1, 0, 2**2000], [2**-1000, -(2**-1000)]),
        ],
        ids=["pair_1e18", "triple_1e18", "conjugates_1e18", "tiny_2000_bits"],
    )
    def test_clustered_and_extreme_roots(self, coeffs, expected):
        # near-double roots give seeds that agree to double precision, and a
        # 2000-bit leading coefficient puts both roots at 2^-1000
        roots = arith.poly_roots(coeffs, 1e-9)
        assert len(roots) == len(expected)
        with mpmath.workprec(2100):
            for want in expected:
                want = mpmath.mpc(want)
                assert sum(1 for r in roots if abs(r.value - want) <= r.err) == 1

    def test_huge_cubic_is_a_named_failure(self):
        rng = random.Random(1)
        cubic = [rng.getrandbits(2000) | 1 for _ in range(3)] + [1]
        with pytest.raises(NoConvergence):
            arith.poly_roots(cubic, 1e-18)

    def test_two_seeds_on_one_root_do_not_certify(self):
        # both real seeds sit on sqrt(2); each disc alone is a valid certificate
        bits = arith._fixed_point_bits([-2, 0, 1])
        x = math.isqrt(2 << (2 * bits))  # floor(sqrt(2) 2^bits)
        with pytest.raises(NoConvergence, match="overlap"):
            arith._certify_roots([-2, 0, 1], [(x, 0), (x, 0)], bits, 2, 1e-12)

    def test_sturm_counts(self):
        # (squarefree, number of distinct real roots)
        assert arith._sturm([-2, 0, 1]) == (True, 2)
        assert arith._sturm([1, 0, 1]) == (True, 0)
        assert arith._sturm([-1, -1, 0, 1]) == (True, 1)
        assert arith._sturm([1, 1, 1, 1, 1]) == (True, 0)
        assert arith._sturm([2, -3, 0, 1])[0] is False  # (x - 1)^2 (x + 2)


class TestPell:
    def test_m2(self):
        u = arith.pell_fundamental_solution(2)
        assert (u.a, u.b, u.half) == (1, 1, False)  # 1 + sqrt 2
        assert u.norm == -1

    def test_m5(self):
        u = arith.pell_fundamental_solution(5)
        assert u.half and (u.a, u.b) == (0, 1)  # (1+sqrt 5)/2
        assert u.norm == -1
        c0, c1 = u.power_coeffs()
        assert (c0, c1) == (Fraction(1, 2), Fraction(1, 2))

    def test_m3_brute_force(self):
        u = arith.pell_fundamental_solution(3)
        assert (u.a, u.b) == (2, 1)  # 2 + sqrt 3
        # brute force oracle over x^2 - 3 y^2 = +-1, x, y <= 10
        sols = [
            (x, y)
            for x in range(1, 11)
            for y in range(1, 11)
            if abs(x * x - 3 * y * y) == 1
        ]
        assert min(sols, key=lambda s: s[0] + s[1] * math.sqrt(3)) == (2, 1)

    def test_norm_exact_and_minimality(self):
        for m in (2, 3, 5, 6, 7, 10, 13, 94):
            u = arith.pell_fundamental_solution(m)
            c0, c1 = u.power_coeffs()
            assert abs(c0 * c0 - m * c1 * c1) == 1  # exact rational norm
            assert float(u.value()) > 1
            # oracle sweep: no smaller unit among earlier convergents
            assert _no_smaller_convergent_unit(m, float(u.value()))

    def test_rejects_non_squarefree(self):
        with pytest.raises(NotSquarefree):
            arith.pell_fundamental_solution(12)


def _no_smaller_convergent_unit(m, eps_value):
    # independent continued-fraction walk of the maximal-order generator
    half = m % 4 == 1
    sq = math.isqrt(m)
    pp, qq = (1, 2) if half else (0, 1)
    p_prev, p_cur, q_prev, q_cur = 0, 1, 1, 0
    for _ in range(300):
        a = (pp + sq) // qq
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        pp, qq = a * qq - pp, (m - (a * qq - pp) ** 2) // qq
        if half:
            ca, cb = p_cur - q_cur, q_cur
            value = ca + cb * (1 + math.sqrt(m)) / 2
            nrm = ca * ca + ca * cb + cb * cb * (1 - m) // 4
        else:
            ca, cb = p_cur, q_cur
            value = ca + cb * math.sqrt(m)
            nrm = ca * ca - m * cb * cb
        if abs(nrm) == 1:
            return value > eps_value * (1 - 1e-9)
    return False


class TestFactorize:
    def test_prime(self):
        f = arith.factorize(37)
        assert f.sign == 1 and f.factors == ((37, 1),)

    def test_negative(self):
        f = arith.factorize(-432)
        assert f.sign == -1 and f.factors == ((2, 4), (3, 3))

    def test_270000(self):
        f = arith.factorize(270000)
        assert f.factors == ((2, 4), (3, 3), (5, 4))

    def test_recompose_random(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            n = rng.randint(1, 10**12) * rng.choice([-1, 1])
            assert arith.factorize(n).recompose() == n

    def test_squarefree_int(self):
        assert arith.is_squarefree_int(10)
        assert not arith.is_squarefree_int(12)
        assert arith.is_squarefree_int(-5)


class TestExactLinearAlgebra:
    def test_det(self):
        assert arith.frac_det([[1, 2], [3, 4]]) == -2
        assert arith.frac_det([[2]]) == 2
        assert arith.frac_det([[1, 2], [2, 4]]) == 0

    def test_det_with_row_exchanges(self):
        assert arith.frac_det([[0, 1], [1, 0]]) == -1
        assert arith.frac_det([[0, 1, 2], [1, 0, 3], [4, 5, 0]]) == 22
        assert arith.frac_det([[Fraction(1, 3), 0.5], [0.25, Fraction(2, 7)]]) == Fraction(2, 21) - Fraction(1, 8)

    def test_ldl_pivots(self):
        # [[4, 2], [2, 3]] = L diag(4, 2) L^T; the floats count exactly as stored
        assert arith.ldl_pivots([[4.0, 2.0], [2.0, 3.0]]) == [4, 2]
        assert arith.ldl_pivots([[0.1]]) == [Fraction(0.1)]
        assert arith.ldl_pivots([[1, 2], [2, 1]]) == [1, -3]
        # a zero pivot ends the list: no LDL^T exists past it
        assert arith.ldl_pivots([[0.0, 1.0], [1.0, 0.0]]) == [0]

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9), st.integers(-30, 30))
    def test_pivots_multiply_to_the_determinant(self, entries, e):
        rows = [[math.ldexp(entries[3 * i + j] + entries[3 * j + i], e) for j in range(3)] for i in range(3)]
        pivots = arith.ldl_pivots(rows)
        if len(pivots) == 3:
            assert math.prod(pivots) == arith.frac_det(rows)
        else:
            assert pivots[-1] == 0

    def test_charpoly(self):
        # companion-ish matrix of x^2 - x - 1
        cp = arith.charpoly([[Fraction(1, 2), Fraction(5, 2)], [Fraction(1, 2), Fraction(1, 2)]])
        assert cp == [Fraction(-1), Fraction(-1), Fraction(1)]

    def test_bezout(self):
        f = [-2, 0, 1]
        g = [0, 1]  # x
        a, b, r = arith.bezout_cofactors(f, g)
        assert r in (-2, 2)  # Res(x^2 - 2, x) = -2
        assert_bezout_identity(f, g, a, b, r)

    @pytest.mark.parametrize(
        "a_invs",
        [
            (0, 0, 1, -1, 0),
            (0, 1, 1, -2, 0),
            (0, 0, 1, -7, 6),
            (1, -1, 0, -79, 289),
            (0, 0, 0, -2, 0),
            (1, 2, 3, 4, 5),
        ],
        ids=["37a", "389a", "5077a", "234446a", "x3_minus_2x", "a12345"],
    )
    def test_bezout_of_the_duplication_polynomials(self, a_invs):
        # x(2P) = F(x) / G(x) with G = (2y + a1 x + a3)^2, and Res(F, G) = Delta^2
        curve = ellcurve.weierstrass_curve(*a_invs)
        b2, b4, b6, b8 = (int(curve.b2), int(curve.b4), int(curve.b6), int(curve.b8))
        f = [-b8, -2 * b6, -b4, 0, 1]
        g = [b6, 2 * b4, b2, 4]
        a, b, r = arith.bezout_cofactors(f, g)
        assert abs(r) == int(curve.delta) ** 2
        assert len(a) <= 3 and len(b) <= 4
        assert_bezout_identity(f, g, a, b, r)


class TestFactorBudget:
    def test_rho_budget_exceeded(self):
        # a semiprime with both factors above the trial range
        n = 1000003 * 1000033
        with pytest.raises(arith.FactorBudgetExceeded):
            arith.factorize(n, rho_budget=2)

    def test_rho_succeeds_with_budget(self):
        n = 1000003 * 1000033
        f = arith.factorize(n)
        assert f.factors == ((1000003, 1), (1000033, 1))


# primes on both sides of the trial bound 2^10, of 10^6 and of 10^12
KNOWN_PRIMES = (2, 3, 239, 1021, 1031, 65537, 999961, 999979, 999983, 1000003, 1000033)
LARGE_PRIMES = (999999999989, 1000000000039)


class TestFactorizeLaws:
    def test_prime_factors_past_the_trial_bound(self):
        assert arith.factorize(91).factors == ((7, 1), (13, 1))
        assert arith.factorize(999983 * 999979).factors == ((999979, 1), (999983, 1))
        assert arith.factorize(2 * 999983**2).factors == ((2, 1), (999983, 2))
        assert arith.factorize(-(999979**3)).factors == ((999979, 3),)
        assert arith.factorize(-432 * 239**4).factors == ((2, 4), (3, 3), (239, 4))

    def test_seeded_integers_obey_the_defining_laws(self):
        # sizes spread from 10^2 to 10^13, where is_prime is deterministic
        rng = random.Random(5)
        ns = [rng.randrange(2, 10 ** rng.randint(2, 13)) for _ in range(200)]
        ns += [p * q for p, q in ((999983, 999979), (65537, 999961), (3, 999983))]
        for n in ns:
            f = arith.factorize(n)
            primes = [p for p, _ in f.factors]
            assert f.recompose() == n
            assert primes == sorted(set(primes))
            assert all(e >= 1 for _, e in f.factors)
            assert all(arith.is_prime(p) for p in primes)

    @given(
        st.lists(st.sampled_from(KNOWN_PRIMES), max_size=6),
        st.lists(st.sampled_from(LARGE_PRIMES), max_size=1),
        st.sampled_from([1, -1]),
    )
    def test_products_of_known_primes(self, small, large, sign):
        ps = small + large
        f = arith.factorize(sign * math.prod(ps))
        assert f.sign == sign
        assert f.factors == tuple(sorted((p, ps.count(p)) for p in set(ps)))

    def test_psi12_is_composite(self):
        # psi_12, the least strong pseudoprime to the prime bases 2..37
        psi12 = 318665857834031151167461
        assert not arith.is_prime(psi12)
        f = arith.factorize(2 * psi12)
        assert f.factors == ((2, 1), (399165290221, 1), (798330580441, 1))


class TestPellHalfCaseOracle:
    def test_m13_brute_force_pm4(self):
        # maximal-order units of Q(sqrt 13) solve u^2 - 13 v^2 = +-4;
        # the smallest positive solution is (3, 1), i.e. (3 + sqrt 13)/2
        u = arith.pell_fundamental_solution(13)
        c0, c1 = u.power_coeffs()
        assert (2 * c0, 2 * c1) == (3, 1)
        sols = [
            (a, b)
            for a in range(1, 40)
            for b in range(1, 12)
            if abs(a * a - 13 * b * b) == 4
        ]
        assert min(sols, key=lambda s: s[0] + s[1] * math.sqrt(13)) == (3, 1)
