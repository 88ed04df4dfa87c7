import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arithinv import arith, ellcurve
from arithinv.errors import (
    InvariantError,
    NoConvergence,
    NotADiscriminant,
    NotSquarefree,
    SingularCurve,
)


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


def recompose(f):
    return f.sign * math.prod(p**e for p, e in f.factors)


def next_prime(n):
    # the least prime >= n, by trial division
    while n < 2 or any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


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


def cramer_bezout_cofactors(f, g):
    # reference: the Sylvester-type system M x = det(M) e_0 of
    # arith.bezout_cofactors solved by Cramer's rule, one determinant per
    # cofactor, x_i = det M_i with column i of M replaced by e_0
    f, g = arith.poly_normalize(f), arith.poly_normalize(g)
    n, m = arith.poly_degree(f), arith.poly_degree(g)
    rows = [
        [f[t - i] if 0 <= t - i <= n else 0 for i in range(m)]
        + [g[t - j] if 0 <= t - j <= m else 0 for j in range(n)]
        for t in range(n + m)
    ]
    res = int(arith.frac_det(rows))
    if res == 0:
        raise ValueError("polynomials share a root")
    sol = [
        int(arith.frac_det([row[:i] + [int(t == 0)] + row[i + 1 :] for t, row in enumerate(rows)]))
        for i in range(n + m)
    ]
    return sol[:m], sol[m:], res


def fraction_charpoly(rows):
    # reference: Faddeev-LeVerrier over Fractions, constant-first and monic
    m = [[Fraction(x) for x in row] for row in rows]
    d = len(m)
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    aux = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        prod = [[sum(m[i][t] * aux[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
        ck = -sum(prod[i][i] for i in range(d)) / k
        coeffs[d - k] = ck
        aux = [[prod[i][j] + (ck if i == j else 0) for j in range(d)] for i in range(d)]
    return coeffs


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
    n = len(coeffs) - 1
    roots = arith.poly_roots(coeffs)
    assert len(roots) == n
    n_real = arith._sturm(coeffs)[1]
    assert all(r.imag == 0 for r in roots[:n_real])
    assert all(r.imag != 0 for r in roots[n_real:])
    for w, v in zip(roots[n_real::2], roots[n_real + 1 :: 2]):
        assert w.imag > 0 and (v.real, v.imag) == (w.real, mpmath.fneg(w.imag, exact=True))
    assert all(r.err <= arith.ROOT_TOL for r in roots)
    for r in roots[:n_real]:
        # a real root in [x - err, x + err]: p changes sign there, exactly
        x, err = to_fraction(r.real), Fraction(r.err)
        assert arith.poly_eval(coeffs, x - err) * arith.poly_eval(coeffs, x + err) <= 0
    assert_encloses_reference(coeffs, roots)


@given(
    st.lists(st.integers(-50, 50), unique=True, max_size=5),
    st.lists(st.integers(1, 50), unique=True, max_size=3),
    st.integers(-3, 3).filter(bool),
)
def test_integer_sturm_chain_law(roots, squares, lead):
    # lead prod (x - a) prod (x^2 + b), b > 0: distinct linear factors and
    # irreducible quadratics; a repeated factor makes it not squarefree
    factors = [[-a, 1] for a in roots] + [[b, 0, 1] for b in squares]
    assume(factors)
    poly = [lead]
    for f in factors:
        poly = poly_mul(poly, f)
    assert arith._sturm(poly) == (True, len(roots))
    assert arith._sturm(poly_mul(poly, factors[-1]))[0] is False


def fixed_reference(x, bits):
    """round(x 2^bits) of a float or an mpf, the magnitude rounded half up,
    in exact rationals."""
    negative, man, exp, _ = (x if isinstance(x, mpmath.mpf) else mpmath.mpf(x))._mpf_
    n = math.floor(man * Fraction(2) ** (exp + bits) + Fraction(1, 2))
    return -n if negative else n


@given(
    st.integers(-(2**53) + 1, 2**53 - 1),
    st.integers(-10, 60),
    st.integers(0, 64),
    st.integers(0, 300),
)
def test_float_seed_to_fixed_is_exact(m, below, s, bits):
    # |y| = |m| 2^-(s + bits + below): whole units for below <= 0, and
    # magnitudes under one unit (exact halves at below = 1 and m odd) above
    y = math.ldexp(m, -(s + bits + below))
    assert arith.to_fixed(y, s + bits) == fixed_reference(y, s + bits)


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 64), st.integers(0, 300))
def test_any_float_seed_to_fixed_is_exact(y, s, bits):
    assert arith.to_fixed(y, s + bits) == fixed_reference(y, s + bits)


def test_float_seed_halves_round_magnitude_up():
    for y, fixed in ((0.5, 1), (-0.5, -1), (2.5, 3), (-2.5, -3), (0.25, 0), (-0.75, -1)):
        assert arith.to_fixed(math.ldexp(y, -70), 70) == fixed


class TestLogFixed:
    @settings(max_examples=200)
    @given(
        st.integers(1, 2**4000),
        st.integers(-(2**100), 2**100),
        st.integers(60, 600),
    )
    @example(1, 0, 60)
    @example(2**4000, -(2**100), 600)
    @example(3, 2**100, 60)
    def test_within_its_bound_of_the_reference(self, n, e, bits):
        # the docstring's bound, against mpmath with 400 bits beyond the
        # value's 2^bits |log(n 2^e)|
        got = arith.log_fixed(n, e, bits)
        with mpmath.workprec(400 + bits + e.bit_length() + 12):
            want = mpmath.ldexp(mpmath.log(n) + e * mpmath.ln2, bits)
            assert abs(got - want) < 0.5 + 1 / 32, (n, e, bits)

    @pytest.mark.parametrize("bits", [1, 60, 61, 64, 200, 601])
    def test_powers_of_two(self, bits):
        # log 2^k reads ln 2 alone, however 2^k is split between n and e
        assert arith.log_fixed(1, 0, bits) == 0
        for k in (1, -1, 63, 64, 1000, -(2**90)):
            got = arith.log_fixed(1, k, bits)
            for j in (1, 5, 700):
                assert arith.log_fixed(2**j, k - j, bits) == got, (k, j)
            with mpmath.workprec(400 + bits + k.bit_length()):
                assert abs(got - mpmath.ldexp(k * mpmath.ln2, bits)) < (1 if bits < 16 else 0.5 + 1 / 32), k

    @pytest.mark.parametrize("n", [0, -1, -(2**70)])
    def test_nonpositive_argument_raises(self, n):
        with pytest.raises(ValueError):
            arith.log_fixed(n, 0, 80)

    def test_values_do_not_depend_on_the_ln2_cache(self):
        # h+, hhat, R and some logs in a fresh interpreter, and after a
        # 600-bit log has filled ln 2 blocks above theirs, equal to the bit
        script = (
            "import sys\n"
            "from arithinv import analytic, arith, ellcurve as ec, numfield\n"
            "if sys.argv[1] == 'warm':\n"
            "    arith.log_fixed(3, 2**90, 600)\n"
            "curve = ec.weierstrass_curve(0, 0, 1, -7, 6)\n"
            "K = numfield.number_field('Q_sqrt7', [-7, 0, 1])\n"
            "print(ec.faltings_height_plus(analytic.agm_periods(curve)).hex(),"
            " ec.canonical_height(curve, ec.Point.of(-2, 3)).hex(),"
            " numfield.field_regulator(numfield.FieldRecord(K)).hex(),"
            " [arith.log_fixed(3**k, -k, bits) for k in (1, 40, 400) for bits in (60, 110, 200)])\n"
        )
        src = str(Path(arith.__file__).resolve().parents[1])
        runs = [
            subprocess.run(
                [sys.executable, "-c", script, mode],
                capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
            ).stdout
            for mode in ("fresh", "warm")
        ]
        assert runs[0] == runs[1] and runs[0].count("0x") == 3, runs


def near_cluster(E, d, s, d2, far=(1,)):
    """(x - E)(x - E - d) ((x - E - s)^2 + d2^2) far, each near factor left
    out when its d is None."""
    poly = list(far)
    if d is not None:
        poly = poly_mul(poly, poly_mul([-E, 1], [-E - d, 1]))
    if d2 is not None:
        c = E + s
        poly = poly_mul(poly, [c * c + d2 * d2, -2 * c, 1])
    return poly


@st.composite
def split_test_polys(draw):
    """Products of a near-double real pair (x - E)(x - E - d), a near-real
    conjugate pair (x - E - s)^2 + d2^2 (at least one of the two), and 1-3
    far integer roots or quadratics; |E| <= 10^18 and d, d2, |s| <= 5."""
    near = draw(st.sampled_from(["real", "pair", "both"]))
    d = draw(st.integers(1, 5)) if near != "pair" else None
    d2 = draw(st.integers(1, 5)) if near != "real" else None
    factors = [near_cluster(draw(st.integers(-(10**18), 10**18)), d, draw(st.integers(-5, 5)), d2)]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            factors.append([-draw(st.integers(-(10**18), 10**18)), 1])
        else:
            b = draw(st.integers(-(10**9), 10**9))
            factors.append([draw(st.integers(-(10**18), 10**18)), b, 1])
    poly = [1]
    for f in factors:
        poly = poly_mul(poly, f)
    assume(arith._sturm(poly)[0])
    return poly


class TestPolyRoots:
    def test_sqrt2(self):
        roots = arith.poly_roots([-2, 0, 1])
        vals = sorted(float(r.real) for r in roots)
        assert vals == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)
        assert all(r.imag == 0 for r in roots)

    def test_i(self):
        roots = arith.poly_roots([1, 0, 1])
        assert len(roots) == 2
        assert all(r.real == 0 or abs(float(r.real)) < 1e-12 for r in roots)
        ims = sorted(float(r.imag) for r in roots)
        assert ims == pytest.approx([-1.0, 1.0], abs=1e-12)
        # exact conjugate pair
        assert roots[0].real == roots[1].real
        assert roots[0].imag == mpmath.fneg(roots[1].imag, exact=True)

    def test_cubic_against_bisection(self):
        coeffs = [-1, -1, 0, 1]  # x^3 - x - 1
        roots = arith.poly_roots(coeffs)
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
            roots = arith.poly_roots(coeffs)
            assert len(roots) == deg
            lead = abs(coeffs[-1])
            for r in roots:
                z = r.value
                bound = deg * lead * max(abs(z), mpmath.mpf(1)) ** deg * tol
                assert abs(arith.poly_eval(coeffs, z)) <= bound

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            arith.poly_roots([2, -3, 0, 1])  # (x-1)^2 (x+2)
        for a in (0, 1, -3):  # (x^3 - x - 1)(x - a)^2
            with pytest.raises(NotSquarefree):
                arith.poly_roots(poly_mul(poly_mul([-1, -1, 0, 1], [-a, 1]), [-a, 1]))

    @pytest.mark.parametrize(
        "a4, a6", [(-100000000, 1), (-3, 1000000000000000007)], ids=["big_a4", "big_c6"]
    )
    def test_two_division_cubic_of_large_curve(self, a4, a6):
        # 4x^3 + b2 x^2 + 2 b4 x + b6 with b2 = 0, b4 = 2 a4, b6 = 4 a6
        cubic = [4 * a6, 4 * a4, 0, 4]
        roots = arith.poly_roots(cubic)
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
        roots = arith.poly_roots(coeffs)
        assert len(roots) == len(expected)
        with mpmath.workprec(2100):
            for want in expected:
                want = mpmath.mpc(want)
                assert sum(1 for r in roots if abs(r.value - want) <= r.err) == 1

    def test_huge_cubic_is_a_named_failure(self):
        rng = random.Random(1)
        cubic = [rng.getrandbits(2000) | 1 for _ in range(3)] + [1]
        with pytest.raises(NoConvergence):
            arith.poly_roots(cubic)

    def test_two_seeds_on_one_root_do_not_certify(self):
        # both real approximations sit on sqrt(2); each disc alone is a
        # valid certificate
        bits = arith._fixed_point_bits([-2, 0, 1])
        x = math.isqrt(2 << (2 * bits))  # floor(sqrt(2) 2^bits)
        with pytest.raises(NoConvergence, match="overlap"):
            arith._certify_roots([-2, 0, 1], [x, x], [], bits)

    @settings(max_examples=100)
    @given(split_test_polys())
    # a near-double real pair beside a near-real pair, 10^18 out
    @example(near_cluster(-630319492837316608, 2, -3, 1))
    # far conjugate pairs and real roots nearer the axis than the cluster's seeds
    @example(near_cluster(-663414220596583823, 5, 4, 5, [339121102153223186, 228119958, 1]))
    @example(
        near_cluster(
            -407113269278990492,
            4,
            0,
            5,
            [-204083802617612399700024930396584709, -47467359686149384107781548, -288105298958187844, -1247165780, 1],
        )
    )
    # a near-real pair whose seeds lie on and below the axis
    @example(near_cluster(-182572982766647022, None, 0, 3, [762465043583286528, -573858553, 1]))
    def test_split_polish_on_clusters_law(self, coeffs):
        # real roots first, as many as the Sturm count, then exact conjugate
        # pairs (Im > 0 representative first), every radius <= ROOT_TOL, and
        # each root of the reference in exactly one disc
        roots = arith.poly_roots(coeffs)
        n_real = arith._sturm(coeffs)[1]
        assert len(roots) == len(coeffs) - 1
        assert all(r.y == 0 for r in roots[:n_real])
        assert [r.x for r in roots[:n_real]] == sorted(r.x for r in roots[:n_real])
        for w, v in zip(roots[n_real::2], roots[n_real + 1 :: 2]):
            assert w.y > 0 and (v.x, v.y) == (w.x, -w.y)
        assert all(r.err <= arith.ROOT_TOL for r in roots)
        assert_encloses_reference(coeffs, roots)

    def test_only_unresolved_clusters_take_the_complex_polish(self, monkeypatch):
        # the split seeds settle on isolated roots, on a 2-division cubic
        # whose double sweeps stall at a relative step above 2^-50, and on
        # near-double roots that doubles see as one cluster: the Sturm count
        # keeps those seeds split, and the split polish separates them.  A
        # near-real pair beside a far root leaves the double sweeps
        # unsettled, and only it is polished as Gaussian integers, once
        calls = []
        polish = arith._durand_kerner_complex
        monkeypatch.setattr(arith, "_durand_kerner_complex", lambda *a: calls.append(1) or polish(*a))
        for coeffs in ([-2, 0, 1], [1, 0, 1], [-1, -1, 0, 1], [4 * 37**2, 0, 0, 4], [1, 1, 1, 1, 1]):
            arith.poly_roots(coeffs)
        arith.poly_roots([9465, -1384, 4, 4])
        for coeffs in (near_cluster(10**18, 1, 0, None), near_cluster(10**18, None, 0, 1)):
            assert_encloses_reference(coeffs, arith.poly_roots(coeffs))
        assert calls == []
        unresolved = near_cluster(10**18, None, 0, 1, [3, 1])
        assert_encloses_reference(unresolved, arith.poly_roots(unresolved))
        assert calls == [1]

    def test_sturm_counts(self):
        # (squarefree, number of distinct real roots)
        assert arith._sturm([-2, 0, 1]) == (True, 2)
        assert arith._sturm([1, 0, 1]) == (True, 0)
        assert arith._sturm([-1, -1, 0, 1]) == (True, 1)
        assert arith._sturm([1, 1, 1, 1, 1]) == (True, 0)
        assert arith._sturm([2, -3, 0, 1])[0] is False  # (x - 1)^2 (x + 2)


class TestPell:
    # (t, u) with (t + u sqrt D)/2 the fundamental unit of discriminant D

    def test_m2(self):
        t, u = arith.pell_fundamental_solution(8)
        assert (t, u) == (2, 1)  # 1 + sqrt 2
        assert t * t - 8 * u * u == -4

    def test_m5(self):
        t, u = arith.pell_fundamental_solution(5)
        assert (t, u) == (1, 1)  # (1 + sqrt 5)/2
        assert t * t - 5 * u * u == -4

    def test_m3_brute_force(self):
        assert arith.pell_fundamental_solution(12) == (4, 1)  # 2 + sqrt 3
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
            D = m if m % 4 == 1 else 4 * m
            t, u = arith.pell_fundamental_solution(D)
            assert abs(t * t - D * u * u) == 4  # exact norm (t^2 - D u^2)/4 = +-1
            value = (t + u * math.sqrt(D)) / 2
            assert value > 1
            # oracle sweep: no smaller unit among earlier convergents
            assert _no_smaller_convergent_unit(m, value)

    def test_every_order_below_190_against_brute_force(self):
        # the units of the order of discriminant D are (t + u sqrt D)/2 with
        # t^2 - D u^2 = +-4, so the fundamental one has the least u >= 1
        for D in range(5, 190):
            if D % 4 > 1 or math.isqrt(D) ** 2 == D:
                continue
            t, u = arith.pell_fundamental_solution(D)
            smallest = next(
                v for v in itertools.count(1)
                if any(math.isqrt(n) ** 2 == n for n in (D * v * v - 4, D * v * v + 4))
            )
            assert (u, t > 0, abs(t * t - D * u * u)) == (smallest, True, 4), D

    def test_rejects_non_discriminants(self):
        # D = 2 or 3 mod 4, squares and D <= 1 have no real quadratic order
        for D in (2, 3, 7, 14, 4, 9, 16, 36, 1, 0, -3, -4):
            with pytest.raises(NotADiscriminant, match="D = %d is not a non-square discriminant" % D):
                arith.pell_fundamental_solution(D)
        assert issubclass(NotADiscriminant, InvariantError)


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
            assert recompose(arith.factorize(n)) == n


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

    @settings(max_examples=60)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5))
    def test_bezout_matches_cramer(self, a_invs):
        # one elimination and a back-substitution give Cramer's cofactors,
        # for the duplication pair of a random curve in both orders and for
        # the reversed pair t^4 (F, G)(1/t)
        try:
            curve = ellcurve.weierstrass_curve(*a_invs)
        except SingularCurve:
            assume(False)
        f, g = ellcurve._duplication_polys(curve)
        for pair in ((f, g), (g, f), (f[::-1], g[::-1]), (g[::-1], f[::-1])):
            assert arith.bezout_cofactors(*pair) == cramer_bezout_cofactors(*pair)

    def test_bezout_of_polynomials_sharing_a_root(self):
        with pytest.raises(ValueError, match="share a root"):
            arith.bezout_cofactors([-1, 0, 1], [1, 1])  # x^2 - 1 and x + 1

    @settings(max_examples=50)
    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.lists(
                st.lists(st.fractions(-50, 50, max_denominator=12), min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            )
        )
    )
    def test_charpoly_matches_fraction_faddeev_leverrier(self, rows):
        cp = arith.charpoly(rows)
        assert cp == fraction_charpoly(rows)
        assert all(type(c) is Fraction for c in cp)


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
            assert recompose(f) == n
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

    @given(
        st.sampled_from(KNOWN_PRIMES[3:]),
        st.sampled_from(KNOWN_PRIMES[3:]),
        st.integers(1, 12),
        st.integers(0, 12),
    )
    def test_prime_powers_split_squares_without_rho(self, p, q, k, j):
        # p^k q^j for p, q > 2^10 factors exactly, and a square cofactor
        # (p^4 in an Ep discriminant) is split at its root, never by rho
        assume(p != q)
        seen = []
        rho = arith._brent_rho

        def counting(n, budget):
            seen.append(n)
            return rho(n, budget)

        arith._brent_rho = counting
        try:
            f = arith.factorize(p**k * q**j)
        finally:
            arith._brent_rho = rho
        assert f.factors == tuple(sorted([(p, k)] + ([(q, j)] if j else [])))
        assert all(math.isqrt(n) ** 2 != n for n in seen)
        if j == 0 and k in (1, 2, 4, 8):
            assert seen == []

    @given(
        st.lists(st.tuples(st.sampled_from(arith._TRIAL_PRIMES), st.integers(1, 4)), max_size=4),
        st.lists(st.tuples(st.integers(1031, 2**20).map(next_prime), st.integers(1, 4)), max_size=3),
    )
    def test_cofactors_below_1031_squared_skip_miller_rabin(self, small, large):
        # a cofactor that trial division by the primes below 2^10 leaves,
        # and that is below 1031^2, is prime without is_prime's test
        powers = {}
        for p, e in small + large:
            powers[p] = powers.get(p, 0) + e
        n = math.prod(p**e for p, e in powers.items())
        seen = []
        is_prime = arith.is_prime

        def counting(m):
            seen.append(m)
            return is_prime(m)

        arith.is_prime = counting
        try:
            f = arith.factorize(n)
        finally:
            arith.is_prime = is_prime
        assert recompose(f) == n
        assert f.factors == tuple(sorted(powers.items()))
        assert all(arith.is_prime(p) for p, _ in f.factors)
        assert all(m >= 1031**2 for m in seen)

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
        assert arith.pell_fundamental_solution(13) == (3, 1)
        sols = [
            (a, b)
            for a in range(1, 40)
            for b in range(1, 12)
            if abs(a * a - 13 * b * b) == 4
        ]
        assert min(sols, key=lambda s: s[0] + s[1] * math.sqrt(13)) == (3, 1)
