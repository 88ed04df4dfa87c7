import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from arithinv import analytic, arith, corpus, prec
from arithinv import ellcurve as ec
from arithinv.errors import (
    DependentPoints,
    InvariantError,
    NoConvergence,
    PointNotOnCurve,
    SingularCurve,
)


def transform_curve(curve, u, r, s, t):
    """The model of x = u^2 x' + r, y = u^3 y' + s u^2 x' + t (Silverman,
    AEC III.1, Table 3.1), written out apart from ellcurve's own change."""
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    a1, a2, a3, a4, a6 = curve.a_invariants
    return ec.weierstrass_curve(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    )


E37 = ec.weierstrass_curve(0, 0, 1, -1, 0)
E389 = ec.weierstrass_curve(0, 1, 1, -2, 0)
E5077 = ec.weierstrass_curve(0, 0, 1, -7, 6)
EJ0 = ec.weierstrass_curve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
EJ1728 = ec.weierstrass_curve(0, 0, 0, 1, 0)  # y^2 = x^3 + x
E15 = ec.weierstrass_curve(1, 4, 0, 1, 0)  # y^2 + xy = x^3 + 4x^2 + x
P37 = ec.Point.of(0, 0)
ORACLE_PINS = Path(__file__).resolve().parent / "data" / "oracle_pins.json"
HEIGHT_PINS = Path(__file__).resolve().parent / "data" / "height_pins.json"


def h_plus(curve):
    """h+ of any model, through its minimal model and AGM periods."""
    mm = ec.minimal_model(curve)
    return ec.faltings_height_plus(mm, analytic.agm_periods(mm.curve))


class TestInvariants:
    def test_37a(self):
        assert (E37.delta, E37.c4) == (37, 48)
        assert E37.c4**3 / E37.delta == Fraction(110592, 37)  # j
        assert (E37.b2, E37.b4, E37.b6, E37.b8) == (0, -2, 1, -1)

    def test_389a(self):
        assert E389.delta == 389
        assert (E389.b2, E389.b4, E389.b6, E389.b8) == (4, -4, 1, -3)

    def test_j0(self):
        assert EJ0.delta == -432 and EJ0.c4 == 0  # j = 0

    def test_5077a(self):
        assert E5077.delta == 5077

    def test_c_invariant_identity_random(self):
        rng = random.Random(9)
        built = 0
        while built < 20:
            try:
                e = ec.weierstrass_curve(*[rng.randint(-5, 5) for _ in range(5)])
            except SingularCurve:
                continue
            assert e.c4**3 - e.c6**2 == 1728 * e.delta
            assert 4 * e.b8 == e.b2 * e.b6 - e.b4 * e.b4
            built += 1

    def test_singular_rejected(self):
        with pytest.raises(SingularCurve):
            ec.weierstrass_curve(0, 0, 0, 0, 0)


class TestGroupLaw:
    def test_doubling_37a(self):
        assert ec.scalar_mul(E37, 2, P37) == ec.Point.of(1, 0)

    def test_quadrupling_37a(self):
        assert ec.scalar_mul(E37, 4, P37) == ec.Point.of(2, -3)

    def test_inverse(self):
        for curve, p in [(E37, P37), (E389, ec.Point.of(1, 0))]:
            assert ec.add(curve, p, ec.negate(curve, p)).is_infinity

    def test_associativity_sample(self):
        pts = [P37, ec.scalar_mul(E37, 2, P37), ec.scalar_mul(E37, 3, P37)]
        a, b, c = pts
        lhs = ec.add(E37, ec.add(E37, a, b), c)
        rhs = ec.add(E37, a, ec.add(E37, b, c))
        assert lhs == rhs

    def test_off_curve_rejected(self):
        with pytest.raises(PointNotOnCurve):
            ec.canonical_height(E37, ec.Point.of(5, 5))

    def test_torsion_detection(self):
        assert ec.is_torsion(EJ0, ec.Point.of(2, 3))  # order 6
        assert not ec.is_torsion(E37, P37)


def mazur_reference(curve, point):
    """Plain torsion test: some nP = O with n <= 12."""
    q = point
    for _ in range(12):
        if q.is_infinity:
            return True
        q = ec.add(curve, q, point)
    return q.is_infinity


EJ0_TORSION = [(-1, 0), (0, 1), (0, -1), (2, 3), (2, -3)]  # Z/6
E15_TORSION = [  # Z/2 x Z/4
    (0, 0), (-4, 2), (Fraction(-1, 4), Fraction(1, 8)), (-1, -1), (-1, 2), (1, -3), (1, 2)
]


class TestTorsion:
    def test_two_torsion_with_nonintegral_x(self):
        # 4x is integral on an integral model, x need not be
        assert E15.delta == 225 and E15.is_integral
        p = ec.Point.of(Fraction(-1, 4), Fraction(1, 8))
        assert ec.scalar_mul(E15, 2, p).is_infinity
        assert ec.is_torsion(E15, p)

    def test_torsion_points_agree_with_reference(self):
        for curve, pts in ((EJ0, EJ0_TORSION), (E15, E15_TORSION)):
            for x, y in pts:
                p = ec.Point.of(x, y)
                assert ec.is_torsion(curve, p) == mazur_reference(curve, p) is True

    @pytest.mark.parametrize(
        "curve, gen, kmax",
        [(E37, P37, 30), (E389, ec.Point.of(1, 0), 8), (E5077, ec.Point.of(0, 2), 6)],
        ids=["37a", "389a", "5077a"],
    )
    def test_multiples_agree_with_reference(self, curve, gen, kmax):
        # the reference forms 12 multiples of kP, whose coordinates grow
        # like (12k)^2 hhat(P); kmax keeps it under a second per curve
        q = gen
        for _ in range(kmax):
            for p in (q, ec.negate(curve, q)):
                assert ec.is_torsion(curve, p) == mazur_reference(curve, p) is False
            q = ec.add(curve, q, gen)

    def test_large_point_needs_no_addition(self, monkeypatch):
        q = ec.scalar_mul(E37, 45, P37)
        calls = []
        real_add = ec._add

        def counting_add(curve, p, r):
            calls.append(1)
            return real_add(curve, p, r)

        monkeypatch.setattr(ec, "_add", counting_add)
        assert not ec.is_torsion(E37, q)
        assert calls == []

    def test_four_x_integral_points_agree_with_reference(self):
        # 2-torsion (G_h = 0), x with denominator 4 (torsion on E15, 5 P on
        # 37a), order 4 with 4 x(2P) integral but x(2P) not (two curves of
        # conductor 15), and integral points on models with a1, a3 != 0
        e = ec.weierstrass_curve(1, 0, 1, -1, -2)  # through (2, 1)
        e15_4 = ec.weierstrass_curve(1, 1, 1, 35, -28)
        e15_7 = ec.weierstrass_curve(1, 1, 1, -80, 242)
        points = [(EJ0, (-1, 0)), (E15, (Fraction(-1, 4), Fraction(1, 8))), (E37, (Fraction(1, 4), Fraction(-5, 8)))]
        points += [(e15_4, (7, 21)), (e15_4, (Fraction(3, 4), Fraction(-7, 8))), (e15_7, (5, -2))]
        points += [(e, (2, 1)), (e, (2, -4)), (E15, (-1, -1)), (E5077, (2, 0)), (E5077, (3, 3))]
        for curve, (x, y) in points:
            p = ec.Point.of(x, y)
            assert 4 * p.x == int(4 * p.x)
            assert ec.is_torsion(curve, p) == mazur_reference(curve, p), (curve, p)

    @settings(max_examples=60)
    @given(
        st.sampled_from((-2, -1, 1, 2)),
        st.integers(-2, 2),
        st.sampled_from((-2, -1, 1, 2)),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_models_with_a1_a3_agree_with_reference(self, a1, a2, a3, a4, x, y):
        a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
        try:
            curve = ec.weierstrass_curve(a1, a2, a3, a4, a6)
        except SingularCurve:
            assume(False)
        p = ec.Point.of(x, y)
        assert ec.is_torsion(curve, p) == mazur_reference(curve, p)

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.sampled_from((1, 2, 3, 6)),
    )
    def test_resultants_and_torsion_of_scaled_models(self, a, x, y, u):
        # the height weights rest on Res(F, G) = +-delta^2, with the
        # reversed pair's resultant dividing it; is_torsion maps the model
        # scaled by u (non-integral for u > 1) back to its integral model
        a1, a2, a3, a4 = a
        a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
        try:
            curve = ec.weierstrass_curve(a1, a2, a3, a4, a6)
        except SingularCurve:
            assume(False)
        F, G = ec._duplication_polys(curve)
        square = int(curve.delta) ** 2
        assert abs(arith.bezout_cofactors(F, G)[2]) == square
        assert square % arith.bezout_cofactors(F[::-1], G[::-1])[2] == 0
        scaled = transform_curve(curve, u, 0, 0, 0)
        p = ec.transform_point(ec.Point.of(x, y), u, 0, 0, 0)
        assert ec.is_torsion(scaled, p) == mazur_reference(scaled, p)

    def test_doubling_rejects_without_addition(self, monkeypatch):
        # 4x(5 P) = 1 on 37a, but 4x(10 P) = 161/4: the forms decide
        q = ec.scalar_mul(E37, 5, P37)
        assert q.x == Fraction(1, 4)
        monkeypatch.setattr(ec, "_add", None)
        assert not ec.is_torsion(E37, q)

    def test_nonintegral_model_keeps_the_full_loop(self):
        # u = 4 turns (-1, 0) into (-1/16, 0), where 4x is not integral;
        # on the integral model it is (-1, 0) again
        for u in (2, 4):
            curve = transform_curve(EJ0, u, 0, 0, 0)
            assert not curve.is_integral
            for x, y in EJ0_TORSION:
                p = ec.transform_point(ec.Point.of(x, y), u, 0, 0, 0)
                assert ec.on_curve(curve, p) and ec.is_torsion(curve, p)
            gen = ec.transform_point(ec.Point.of(2, 3), u, 0, 0, 0)
            assert ec.scalar_mul(curve, 6, gen).is_infinity


def repeated_add(curve, k, point):
    step = point if k > 0 else ec.negate(curve, point)
    total = ec.INFINITY
    for _ in range(abs(k)):
        total = ec.add(curve, total, step)
    return total


# a model with non-integral a_i: 37a moved by (u, r, s, t) = (3, 1/2, 1/3, 1/5)
MOVE = (3, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
E37_MOVED = transform_curve(E37, *MOVE)
# integral and non-integral base points (5 P on 37a, 2 P_1 on 5077a), the
# three singular-reduction points of TestOracle, and a non-integral model
SCALAR_POINTS = [
    (curve, ec.Point.of(*g))
    for curve, g in [
        (E37, (0, 0)),
        (E37, (Fraction(1, 4), Fraction(-5, 8))),
        (E389, (0, 0)),
        (E389, (1, 0)),
        (E5077, (-2, 3)),
        (E5077, (Fraction(221, 49), Fraction(-2967, 343))),
        (ec.weierstrass_curve(-1, 3, 0, 28, 100), (0, 10)),
        (ec.weierstrass_curve(0, 0, 0, -108, 513), (-12, 9)),
        (ec.weierstrass_curve(0, 0, 0, -198, -5103), (24, 63)),
    ]
] + [(E37_MOVED, ec.transform_point(P37, *MOVE))]
# torsion points with their orders: 2-torsion with integral and with
# non-integral x, orders 3, 4 and 6, and Z/6 on a non-integral model
TORSION_POINTS = [
    (EJ0, ec.Point.of(-1, 0), 2),
    (E15, ec.Point.of(Fraction(-1, 4), Fraction(1, 8)), 2),
    (EJ0, ec.Point.of(0, 1), 3),
    (E15, ec.Point.of(1, 2), 4),
    (EJ0, ec.Point.of(2, 3), 6),
    (transform_curve(EJ0, 2, 0, 0, 0), ec.transform_point(ec.Point.of(2, -3), 2, 0, 0, 0), 6),
]


class TestScalarMul:
    def test_nonintegral_model(self):
        assert not E37_MOVED.is_integral
        assert ec.on_curve(*SCALAR_POINTS[-1])

    @settings(max_examples=60)
    @given(st.integers(0, len(SCALAR_POINTS) - 1), st.integers(-40, 40))
    def test_equals_repeated_addition(self, which, k):
        curve, point = SCALAR_POINTS[which]
        assert ec.scalar_mul(curve, k, point) == repeated_add(curve, k, point)

    @settings(max_examples=40)
    @given(st.integers(0, len(TORSION_POINTS) - 1), st.integers(-40, 40))
    def test_torsion_multiples(self, which, k):
        curve, point, order = TORSION_POINTS[which]
        q = ec.scalar_mul(curve, k, point)
        assert q == repeated_add(curve, k, point)
        assert q.is_infinity == (k % order == 0)

    @pytest.mark.parametrize("which", range(len(TORSION_POINTS)))
    def test_infinity_at_the_order(self, which):
        curve, point, order = TORSION_POINTS[which]
        assert all(not ec.scalar_mul(curve, k, point).is_infinity for k in range(1, order))
        assert ec.scalar_mul(curve, order, point) is ec.INFINITY
        assert ec.scalar_mul(curve, -order, point) is ec.INFINITY


class TestMinimalModel:
    def test_37a_already_minimal(self):
        mm = ec.minimal_model(E37)
        assert mm.u == 1 and mm.curve.a_invariants == E37.a_invariants

    def test_scaled_round_trip(self):
        # y^2 = x^3 - 16 is minimal (the 2-adic condition blocks u=2);
        # scaling x,y by u = 6 multiplies a6 by 6^6
        small = ec.weierstrass_curve(0, 0, 0, 0, -16)
        assert ec.minimal_model(small).u == 1
        big = ec.weierstrass_curve(0, 0, 0, 0, -16 * 6**6)
        mm = ec.minimal_model(big)
        assert mm.u == 6
        assert mm.curve.delta == small.delta == -110592

    def test_kraus_blocks_naive_reduction(self):
        # v_3(delta) = 15 >= 12 here, so the curve is *not* minimal: the
        # 3-adic reduction is admissible and delta drops by 3^12
        e = ec.weierstrass_curve(0, 0, 0, 0, -(2**4) * 3**6)
        mm = ec.minimal_model(e)
        assert mm.u == 3
        assert mm.curve.delta == -(2**12) * 3**3

    def test_3adic_condition_keeps_v3_delta_12(self):
        # y^2 = x^3 + 81x + 243: v_3(c4, c6, delta) = (5, 8, 12), but
        # removing 3^12 would leave v_3(c6) = 2, which no integral model has
        e = ec.weierstrass_curve(0, 0, 0, 81, 243)
        assert (ec._vp(int(e.c4), 3), ec._vp(int(e.c6), 3), ec._vp(int(e.delta), 3)) == (5, 8, 12)
        mm = ec.minimal_model(e)
        assert mm.u == 1 and mm.curve.a_invariants == e.a_invariants
        assert (3, 12) in mm.delta_factors.factors
        big = ec.minimal_model(transform_curve(e, Fraction(1, 3), 0, 0, 0))
        assert big.u == 3 and big.curve.a_invariants == e.a_invariants
        with pytest.raises(InvariantError, match="no integral model"):
            ec._model_from_c_invariants(int(e.c4) // 3**4, int(e.c6) // 3**6)

    def test_ep5_minimal(self):
        e = ec.weierstrass_curve(0, 0, 0, 0, 25)
        mm = ec.minimal_model(e)
        assert mm.u == 1 and e.delta == -270000

    def test_rational_model_with_shifts(self):
        scaled = transform_curve(E37, Fraction(1, 3), 1, 2, 5)
        mm = ec.minimal_model(scaled)
        assert mm.curve.a_invariants == E37.a_invariants
        assert scaled.delta == mm.u**12 * mm.curve.delta
        u, r, s, t = mm.u, mm.r, mm.s, mm.t  # the inverse change takes P37 back
        p_back = ec.transform_point(P37, 1 / u, -r / u**2, -s / u, (r * s - t) / u**3)
        assert ec.on_curve(scaled, p_back)
        assert mm.to_minimal(p_back) == P37

    def test_random_scale_round_trips(self):
        rng = random.Random(31)
        for base in (E37, E389, EJ0):
            for _ in range(4):
                u = rng.choice([2, 3, 5, 6, 12])
                r, s, t = rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-3, 3)
                scaled = transform_curve(base, Fraction(1, u), r, s, t)
                mm = ec.minimal_model(scaled)
                assert mm.curve.delta == base.delta

    def test_carries_its_discriminant_factored(self):
        # the exponents of the input's delta less 12 d_p, including the
        # 3-adic case where the Kraus condition keeps v_3(delta_min) = 3
        kraus = ec.weierstrass_curve(0, 0, 0, 0, -(2**4) * 3**6)
        for base in (E37, E389, EJ0, EJ1728, kraus):
            for u in (1, 2, 3, 6, Fraction(1, 6), Fraction(1, 12)):
                mm = ec.minimal_model(transform_curve(base, u, 1, 0, 1))
                assert mm.delta_factors == arith.factorize(int(mm.curve.delta))


HARD_CURVES = corpus.load_corpus(Path(__file__).resolve().parent / "data" / "hard_curves.txt")
# bases for the minimal-model law, each with a point on it: the bundled rank
# 1-3 curves and the hard set's j = 0 and j = 1728 curves (additive at 2 and 3)
MINIMAL_BASES = [
    (E37, ec.Point.of(0, 0)),
    (E389, ec.Point.of(0, 0)),
    (E5077, ec.Point.of(0, 2)),
    (corpus.build_curve_data(HARD_CURVES, "j0_add23")[1], ec.Point.of(0, 2)),
    (corpus.build_curve_data(HARD_CURVES, "j1728_add23")[1], ec.Point.of(3, 0)),
]


@settings(max_examples=60)
@given(
    st.integers(0, len(MINIMAL_BASES) - 1),
    st.fractions(Fraction(1, 12), 12, max_denominator=12),
    st.fractions(-20, 20, max_denominator=6),
    st.fractions(-20, 20, max_denominator=6),
    st.fractions(-20, 20, max_denominator=6),
)
def test_minimal_model_law(which, u, r, s, t):
    # any rational (u, r, s, t) with u > 0, non-integral models included:
    # the same minimal model, discriminant and reduction data, and the moved
    # point goes back to the base's point on it
    base, point = MINIMAL_BASES[which]
    mm_base = ec.minimal_model(base)
    mm = ec.minimal_model(transform_curve(base, u, r, s, t))
    assert mm.curve.a_invariants == mm_base.curve.a_invariants
    assert mm.delta_factors == mm_base.delta_factors
    assert ec.reduction_data(mm) == ec.reduction_data(mm_base)
    assert mm.to_minimal(ec.transform_point(point, u, r, s, t)) == mm_base.to_minimal(point)


def fraction_minimal_model(curve):
    # reference: the minimal model with (u, r, s, t) solved over Fractions
    # from the input's a1, a2, a3, checked on all five a-invariants
    den = math.lcm(*(a.denominator for a in curve.a_invariants))
    c4, c6, delta = int(curve.c4 * den**4), int(curve.c6 * den**6), int(curve.delta * den**12)
    factored = arith.factorize(delta)
    exps = {}
    for p, e in factored.factors:
        cands = [e // 12] + [v // w for v, w in ((ec._vp(c4, p), 4), (ec._vp(c6, p), 6)) if v is not None]
        if min(cands) > 0:
            exps[p] = min(cands)
    if 3 in exps and ec._vp(c6, 3) is not None and ec._vp(c6, 3) - 6 * exps[3] == 2:
        exps[3] -= 1
    while True:
        u = math.prod(p**d for p, d in exps.items())
        c4m, c6m = c4 // u**4, c6 // u**6
        if ec._kraus_ok_at_2(c4m, c6m):
            break
        exps[2] = exps.get(2, 0) - 1
    minimal = ec.weierstrass_curve(*ec._model_from_c_invariants(c4m, c6m))
    u = Fraction(u, den)
    s = (u * minimal.a1 - curve.a1) / 2
    r = (u**2 * minimal.a2 - curve.a2 + s * curve.a1 + s * s) / 3
    t = (u**3 * minimal.a3 - curve.a3 - r * curve.a1) / 2
    assert transform_curve(curve, u, r, s, t).a_invariants == minimal.a_invariants
    factors = tuple((p, e - 12 * exps.get(p, 0)) for p, e in factored.factors if e > 12 * exps.get(p, 0))
    return minimal, u, r, s, t, arith.Factorization(factored.sign, factors)


@settings(max_examples=80)
@given(
    st.integers(0, len(MINIMAL_BASES) - 1),
    st.sampled_from([Fraction(1, k) for k in range(1, 7)] + list(range(2, 7))),
    st.fractions(-6, 6, max_denominator=3),
    st.fractions(-6, 6, max_denominator=3),
    st.fractions(-6, 6, max_denominator=3),
)
def test_minimal_model_matches_the_fraction_reference(which, u, r, s, t):
    # the integer solve returns the change and the delta_min factorization
    # of the Fraction one, on integral and non-integral models alike
    curve = transform_curve(MINIMAL_BASES[which][0], u, r, s, t)
    mm = ec.minimal_model(curve)
    assert (mm.curve, mm.u, mm.r, mm.s, mm.t, mm.delta_factors) == fraction_minimal_model(curve)


class TestReductionData:
    def test_37a(self):
        rd = ec.reduction_data(ec.minimal_model(E37))
        assert rd.n0 == 37 and rd.n_stable == 37 and rd.n_unstable == 1
        assert rd.semistable
        (row,) = rd.primes
        assert row.kind == "multiplicative" and row.stable and row.v_delta == 1

    def test_j0(self):
        rd = ec.reduction_data(ec.minimal_model(EJ0))
        assert {r.p for r in rd.primes} == {2, 3}
        assert all(r.kind == "additive" and not r.stable for r in rd.primes)
        assert rd.n0 == 6 and rd.n_unstable == 6 and rd.n_stable == 1
        assert not rd.semistable

    def test_j1728(self):
        rd = ec.reduction_data(ec.minimal_model(EJ1728))
        assert [r.p for r in rd.primes] == [2]
        assert rd.primes[0].kind == "additive" and not rd.primes[0].stable
        assert rd.n0 == 2

    def test_product_identity(self):
        for curve in (E37, E389, E5077, EJ0, EJ1728):
            rd = ec.reduction_data(ec.minimal_model(curve))
            assert rd.n0 == rd.n_stable * rd.n_unstable
            assert rd.semistable == all(r.kind == "multiplicative" for r in rd.primes)


class TestCanonicalHeight:
    def test_37a_value_and_oracle(self):
        h = ec.canonical_height(E37, P37, 1e-6)
        oracle, err = ec.canonical_height_doubling(E37, P37, 1e-6)
        assert abs(h - oracle) <= 2e-6
        assert h == pytest.approx(0.0511114, abs=1e-6)
        # hand-verifiable partial value: h_x(16 P) / 256 = log 480106 / 256
        q16 = ec.scalar_mul(E37, 16, P37)
        assert max(abs(q16.x.numerator), q16.x.denominator) == 480106
        hd = ec._height_data(E37)  # C(E) = (mu_inf + sum_p vb log p) / 3
        c_bound = (hd.mu_bound_inf + sum(vb * math.log(p) for p, vb in hd.bad)) / 3
        assert abs(math.log(480106) / 256 - h) <= c_bound / 256

    def test_torsion_height_zero(self):
        assert ec.canonical_height(EJ0, ec.Point.of(2, 3)) == 0.0

    def test_quadraticity(self):
        h1 = ec.canonical_height(E389, ec.Point.of(0, 0), 1e-9)
        for n in (2, 3, 5):
            q = ec.scalar_mul(E389, n, ec.Point.of(0, 0))
            hn = ec.canonical_height(E389, q, 1e-9)
            assert abs(hn - n * n * h1) < 1e-5

    def test_two_paths_agree_with_denominators(self):
        e = ec.weierstrass_curve(0, 0, 0, 0, -2)  # gen (3,5), additive at 2, 3
        p = ec.Point.of(3, 5)
        for n in (1, 2, 3, 4):
            q = ec.scalar_mul(e, n, p)
            hp = ec.canonical_height(e, q, 1e-9)
            ho, err = ec.canonical_height_doubling(e, q, 1e-6)
            assert abs(hp - ho) <= 1e-6 + err

    def test_bad_prime_denominator(self):
        # 38 * (0,0) on 37a acquires a 37-part in its denominator
        q = ec.scalar_mul(E37, 38, P37)
        assert q.x.denominator % 37 == 0
        hp = ec.canonical_height(E37, q, 1e-9)
        ho, err = ec.canonical_height_doubling(E37, q, 1e-6)
        assert abs(hp - ho) <= 1e-6 + err
        assert abs(hp - 38 * 38 * 0.05111140823) < 1e-5


class TestPairingAndRegulator:
    def test_pairing_diagonal(self):
        gram = ec.mw_regulator(E37, [P37], 1).gram
        assert gram[0][0] == pytest.approx(0.0766671, abs=1e-6)

    def test_bilinearity(self):
        # <a+b, a> = <a, a> + <b, a>, read off two Gram matrices
        a, b = ec.Point.of(0, 0), ec.Point.of(1, 0)
        g_ab_a = ec.mw_regulator(E389, [ec.add(E389, a, b), a], 2).gram
        g_b_a = ec.mw_regulator(E389, [b, a], 2).gram
        assert abs(g_ab_a[0][1] - (g_ab_a[1][1] + g_b_a[0][1])) < 1e-5

    def test_rank0_regulator(self):
        assert ec.mw_regulator(EJ0, [], 0).regulator == 1.0

    def test_37a_regulator(self):
        mw = ec.mw_regulator(E37, [P37], 1)
        assert mw.regulator == pytest.approx(0.0766671, abs=1e-6)

    def test_389a_regulator(self):
        mw = ec.mw_regulator(E389, [ec.Point.of(0, 0), ec.Point.of(1, 0)], 2)
        hx_reg = mw.regulator / float(ec.HEIGHT_SCALE) ** 2
        assert hx_reg == pytest.approx(0.1524601779, abs=1e-6)
        assert mw.gram[0][1] == mw.gram[1][0]

    def test_dependent_points(self):
        with pytest.raises(DependentPoints):
            ec.mw_regulator(E37, [P37, ec.scalar_mul(E37, 2, P37)], 2)

    def test_unimodular_invariance(self):
        a, b = ec.Point.of(0, 0), ec.Point.of(1, 0)
        reg = ec.mw_regulator(E389, [a, b], 2).regulator
        rng = random.Random(13)
        done = 0
        while done < 20:
            m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) != 1:
                continue
            pts = [
                ec.add(
                    E389,
                    ec.scalar_mul(E389, row[0], a),
                    ec.scalar_mul(E389, row[1], b),
                )
                for row in m
            ]
            reg2 = ec.mw_regulator(E389, pts, 2).regulator
            assert abs(reg2 - reg) <= 1e-6 * max(1.0, reg)
            done += 1


class TestFaltingsHeight:
    def test_37a_semistable_bound(self):
        h = h_plus(E37)
        assert h >= math.log(37) / 12 > 0.30089

    def test_j1728_bounds(self):
        h = h_plus(EJ1728)
        assert h >= 0
        assert h >= math.log(2) / 12**8

    def test_ep5(self):
        assert h_plus(ec.weierstrass_curve(0, 0, 0, 0, 25)) >= 0

    def test_nonnegative_corpus(self):
        for curve in (E37, E389, E5077, EJ0, EJ1728):
            assert h_plus(curve) >= 0

    def test_model_invariance(self):
        scaled = transform_curve(E37, Fraction(1, 5), 2, 1, 0)
        assert h_plus(scaled) == pytest.approx(h_plus(E37), abs=1e-9)


class TestEpFamily:
    def test_pmax_25(self):
        assert [label for label, _ in ec.ep_family(25)] == ["Ep5", "Ep23"]

    def test_pmax_4(self):
        assert ec.ep_family(4) == []

    def test_pmax_60(self):
        fam = ec.ep_family(60)
        assert [label for label, _ in fam] == ["Ep5", "Ep23", "Ep41", "Ep59"]
        assert fam[0][1] == (0, 0, 0, 0, 25)


class TestCorpusHeightPaths:
    def test_both_paths_agree_on_all_corpus_generators(self, bundled):
        from arithinv import corpus as corpus_mod

        tol = 1e-6
        pairs = 0
        for label in bundled.curves:
            _, _, mm, rank, gens = corpus_mod.build_curve_data(bundled, label)
            for g in gens:
                primary = ec.canonical_height(mm.curve, g, tol)
                oracle, err = ec.canonical_height_doubling(mm.curve, g, tol)
                assert abs(primary - oracle) <= 2 * tol + err
                pairs += 1
        assert pairs == 6  # 37a, 2x 389a, 3x 5077a


class TestGroupLawValidation:
    def test_add_rejects_off_curve(self):
        with pytest.raises(PointNotOnCurve):
            ec.add(E37, ec.Point.of(5, 5), P37)
        with pytest.raises(PointNotOnCurve):
            ec.add(E37, P37, ec.Point.of(5, 5))

    @pytest.mark.parametrize("n", [-3, 0, 1, 60])
    def test_scalar_mul_rejects_off_curve(self, n):
        with pytest.raises(PointNotOnCurve):
            ec.scalar_mul(E37, n, ec.Point.of(5, 5))

    def test_is_torsion_rejects_off_curve(self):
        for pt in (ec.Point.of(5, 5), ec.Point.of(Fraction(1, 4), 0)):
            with pytest.raises(PointNotOnCurve):
                ec.is_torsion(E37, pt)

    def test_off_curve_near_miss_rejected(self):
        # a large point with y off by one in the last place of its denominator
        q = ec.scalar_mul(E389, 60, ec.Point.of(0, 0))
        miss = ec.Point(q.x, q.y + Fraction(1, q.y.denominator))
        assert ec.on_curve(E389, q) and not ec.on_curve(E389, miss)
        for call in (
            lambda: ec.add(E389, miss, q),
            lambda: ec.scalar_mul(E389, 2, miss),
            lambda: ec.is_torsion(E389, miss),
            lambda: ec.canonical_height_doubling(E389, miss),
        ):
            with pytest.raises(PointNotOnCurve):
                call()

    def test_on_curve_of_a_nonintegral_model(self):
        # d = lcm(6, 3, 2, 1, 3) = 6: the test runs on the model a_i 6^i
        curve = ec.weierstrass_curve(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 1, Fraction(-2, 3))
        for k in (1, 3, -2):
            q = ec.scalar_mul(curve, k, ec.Point.of(1, 1))
            assert ec.on_curve(curve, q)
            assert not ec.on_curve(curve, ec.Point(q.x, q.y + Fraction(1, 6**3)))

    def test_inputs_checked_once(self, monkeypatch):
        # the loops add exact multiples of checked points without re-checking
        calls = []
        real = ec.on_curve

        def counting(curve, point):
            calls.append(point)
            return real(curve, point)

        monkeypatch.setattr(ec, "on_curve", counting)
        q = ec.scalar_mul(E389, 60, ec.Point.of(1, 0))
        assert len(calls) == 1
        calls.clear()
        assert not ec.is_torsion(E389, q)
        assert len(calls) == 1
        calls.clear()
        ec.mw_regulator(E389, [ec.Point.of(0, 0), ec.Point.of(1, 0)], 2)
        assert len(calls) == 2 + 3  # the inputs, then each canonical_height's own check


class TestGeneralWeierstrassForm:
    # y^2 + xy = x^3 - x: exercises a1 != 0 through every code path
    def test_a1_nonzero_end_to_end(self):
        e = ec.weierstrass_curve(1, 0, 0, -1, 0)
        assert e.delta == 65 and e.c4 == 49
        p = ec.Point.of(-1, 0)
        assert ec.on_curve(e, p) and not ec.is_torsion(e, p)
        hp = ec.canonical_height(e, p, 1e-10)
        ho, err = ec.canonical_height_doubling(e, p, 1e-7)
        assert abs(hp - ho) <= 1e-7 + err
        h2 = ec.canonical_height(e, ec.scalar_mul(e, 2, p), 1e-10)
        assert abs(h2 - 4 * hp) < 1e-8
        rd = ec.reduction_data(ec.minimal_model(e))
        assert rd.semistable and rd.n0 == 65
        assert h_plus(e) >= math.log(65) / 12


class TestHeightPrecisionStability:
    def test_height_stable_under_higher_precision(self):
        from arithinv import prec

        before = prec.bits()
        try:
            base = ec.canonical_height(E37, P37, 1e-12)
            prec.set_precision(200)
            ec._height_cache.clear()
            high = ec.canonical_height(E37, P37, 1e-12)
            assert abs(base - high) < 1e-12
            hf_base = h_plus(E37)
            assert abs(hf_base - 0.4947612684920057) < 1e-12
        finally:
            prec.set_precision(before)
            ec._height_cache.clear()


@functools.lru_cache(maxsize=None)
def bundled_generators():
    """(minimal curve, generator, hhat) for every bundled generator."""
    bundled = corpus.load_corpus()
    out = []
    for label in sorted(bundled.curves):
        _, _, mm, _, gens = corpus.build_curve_data(bundled, label)
        out += [(mm.curve, g, ec.canonical_height(mm.curve, g)) for g in gens]
    return tuple(out)


class TestHeightLaws:
    @settings(max_examples=25)
    @given(st.integers(0, 5), st.integers(-100, 100))
    def test_quadratic(self, which, n):
        curve, gen, h = bundled_generators()[which]
        hn = ec.canonical_height(curve, ec.scalar_mul(curve, n, gen))
        assert abs(hn - n * n * h) <= (n * n + 1) * ec.DEFAULT_TOL

    @settings(max_examples=25)
    @given(
        st.integers(0, 5),
        st.integers(1, 4),
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_model_change_invariance(self, which, k, r, s, t):
        # u = 1/k multiplies a_i by k^i, so the new model stays integral
        curve, gen, h = bundled_generators()[which]
        u = Fraction(1, k)
        moved = transform_curve(curve, u, r, s, t)
        assert moved.is_integral
        hm = ec.canonical_height(moved, ec.transform_point(gen, u, r, s, t))
        assert abs(hm - h) <= 2 * ec.DEFAULT_TOL


def load_height_pins():
    return json.loads(HEIGHT_PINS.read_text(encoding="utf-8"))


# base points for the p-adic series laws: the six bundled generators,
# (3, 5) on y^2 = x^3 - 2, (-1, 0) on y^2 + xy = x^3 - x and the three
# singular-reduction points of TestOracle
SERIES_POINTS = (
    [(E37, (0, 0)), (E389, (0, 0)), (E389, (1, 0))]
    + [(E5077, g) for g in ((-2, 3), (-1, 3), (0, 2))]
    + [
        (ec.weierstrass_curve(0, 0, 0, 0, -2), (3, 5)),
        (ec.weierstrass_curve(1, 0, 0, -1, 0), (-1, 0)),
        (ec.weierstrass_curve(-1, 3, 0, 28, 100), (0, 10)),
        (ec.weierstrass_curve(0, 0, 0, -108, 513), (-12, 9)),
        (ec.weierstrass_curve(0, 0, 0, -198, -5103), (24, 63)),
    ]
)


def res_weight(curve, p):
    """v_p(Res(F, G)) = 2 v_p(delta), the R of the p-adic series."""
    return 2 * ec._vp(int(curve.delta), p)


class TestPadicSeries:
    def test_heights_are_pinned_to_the_bit(self):
        # float.hex values of the earlier PAdic-class implementation
        for row in load_height_pins()["heights"]:
            curve = ec.weierstrass_curve(*[Fraction(a) for a in row["curve"]])
            point = ec.Point(*[Fraction(c) for c in row["point"]])
            assert float.hex(ec.canonical_height(curve, point)) == row["hex"], row["name"]

    def test_coefficients_are_pinned(self):
        rows = load_height_pins()["series"]
        for row in rows:
            curve = ec.weierstrass_curve(*[Fraction(a) for a in row["curve"]])
            hd, R = ec._height_data(curve), res_weight(curve, row["p"])
            got = ec._padic_series(hd, Fraction(row["x"]), row["p"], R, row["terms"])
            assert got == Fraction(row["coeff"]), row
        # 38 P on 37a: the bad prime divides the denominator
        assert any(r["p"] == 37 and Fraction(r["x"]).denominator % 37 == 0 for r in rows)
        # 5 P on 37a: a prime with v_p(Res) = 0 divides the denominator
        assert any(r["p"] == 2 and r["curve"] == ["0", "0", "1", "-1", "0"] and r["x"] == "1/4" for r in rows)

    @settings(max_examples=40)
    @given(st.integers(0, len(SERIES_POINTS) - 1), st.integers(-40, 40).filter(bool))
    def test_stripped_powers_within_the_resultant(self, which, k):
        curve, (x, y) = SERIES_POINTS[which]
        point = ec.scalar_mul(curve, k, ec.Point.of(x, y))
        hd = ec._height_data(curve)
        for p in {2, 3, 5} | {p for p, _ in hd.bad}:
            R = res_weight(curve, p)
            assert all(m <= R for m in ec._orbit_valuations(hd, point.x, p, R, 18)), p


    def test_pins_cover_every_stopping_step(self):
        # the pinned orbits enter E_0 at step 0, at step 1, or never
        first_zero = set()
        for row in load_height_pins()["series"]:
            curve = ec.weierstrass_curve(*[Fraction(a) for a in row["curve"]])
            hd, R = ec._height_data(curve), res_weight(curve, row["p"])
            ms = list(ec._orbit_valuations(hd, Fraction(row["x"]), row["p"], R, row["terms"]))
            first_zero.add(ms.index(0) if 0 in ms else None)
        assert {0, 1, None} <= first_zero

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.sampled_from((1, 2, 3, 6)),
        st.integers(-6, 6).filter(bool),
    )
    def test_series_stops_where_the_orbit_enters_e0(self, a, x, y, u, k):
        # models through (x, y), scaled by u so that some are non-minimal
        # at 2 and 3; every bad prime's series equals the full orbit's sum
        a1, a2, a3, a4 = a
        a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
        try:
            curve = ec.weierstrass_curve(a1, a2, a3, a4, a6)
        except SingularCurve:
            assume(False)
        v = Fraction(1, u)
        curve = transform_curve(curve, v, 0, 0, 0)
        point = ec.scalar_mul(curve, k, ec.transform_point(ec.Point.of(x, y), v, 0, 0, 0))
        assume(not point.is_infinity)
        hd = ec._height_data(curve)
        for p, R in hd.bad:
            ms = list(ec._orbit_valuations(hd, point.x, p, R, 18))
            first = ms.index(0) if 0 in ms else len(ms)
            assert not any(ms[first:]), (p, ms)
            full = ec._vp(point.x.denominator, p) - sum(Fraction(m, 4 ** (n + 1)) for n, m in enumerate(ms))
            assert ec._padic_series(hd, point.x, p, R, 18) == full, p

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_common_roots_are_singular_x(self, p):
        # over F_p, F and G share a root x exactly when x is the x of a
        # singular point, for every Weierstrass equation mod p
        for a1, a2, a3, a4, a6 in itertools.product(range(p), repeat=5):
            b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
            b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
            F, G = [-b8, -2 * b6, -b4, 0, 1], [b6, 2 * b4, b2, 4, 0]
            common = {x for x in range(p) if arith.poly_eval(F, x) % p == arith.poly_eval(G, x) % p == 0}
            singular = {
                x
                for x in range(p)
                for y in range(p)
                if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
                and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0
                and (2 * y + a1 * x + a3) % p == 0
            }
            assert common == singular, (p, a1, a2, a3, a4, a6)


def reference_arch_series(hd, x0, terms):
    """The archimedean series term by term in mpf on the affine orbit:
    log max(1,|x_0|) + sum_(n<terms) 4^-(n+1) log(max(|F|,|G|)(x_n) / max(1,|x_n|)^4)."""
    fc = [mpf(c) for c in hd.F]
    gc = [mpf(c) for c in hd.G]
    x = mpf(x0.numerator) / x0.denominator
    total = mpmath.log(max(mpf(1), abs(x)))
    scale = mpf(1) / 4
    for _ in range(terms):
        fv, gv = arith.poly_eval(fc, x), arith.poly_eval(gc, x)
        total += scale * (mpmath.log(max(abs(fv), abs(gv))) - 4 * mpmath.log(max(mpf(1), abs(x))))
        x = fv / gv
        scale /= 4
    return total


class TestArchSeries:
    @settings(max_examples=40)
    @given(st.integers(0, len(SERIES_POINTS) - 1), st.integers(-40, 40).filter(bool))
    def test_integer_orbit_matches_the_reference(self, which, k):
        curve, (x, y) = SERIES_POINTS[which]
        x0 = ec.scalar_mul(curve, k, ec.Point.of(x, y)).x
        hd = ec._height_data(curve)
        terms = 20
        with prec.working(3 * terms + 60):  # as canonical_height runs it
            got = ec._arch_series(hd, x0, terms)
        with mpmath.workprec(400):
            assert abs(got - reference_arch_series(hd, x0, terms)) <= mpf(2) ** -prec.bits()

    def test_x_beyond_the_working_precision(self):
        # Z truncates to 0 there: the orbit runs on at x = infinity
        x0 = Fraction(2**300 + 7, 3)
        hd = ec._height_data(E37)
        with prec.working(40):
            got = ec._arch_series(hd, x0, 20)
        with mpmath.workprec(400):
            assert abs(got - reference_arch_series(hd, x0, 20)) <= mpf(2) ** -prec.bits()

    def test_two_torsion_orbit_is_rejected(self):
        # x = -1 on y^2 = x^3 + 1 doubles to the point at infinity
        with pytest.raises(NoConvergence):
            ec._arch_series(ec._height_data(EJ0), Fraction(-1), 5)


def test_oracle_pinned():
    """The oracle stays within the bounds pinned by the exact doubling oracle.

    The pins are the (value, C(E)/4^n) pairs an earlier oracle returned by
    doubling each point n times with exact integer coordinates; both
    values and their bounds must overlap, and the new bound must meet tol.
    """
    for row in json.loads(ORACLE_PINS.read_text(encoding="utf-8")):
        curve = ec.weierstrass_curve(*[Fraction(a) for a in row["curve"]])
        point = ec.Point(*[Fraction(c) for c in row["point"]])
        tol = float(row["tol"])
        value, bound = ec.canonical_height_doubling(curve, point, tol)
        assert bound <= tol, row["point"]
        assert abs(value - float(row["value"])) <= float(row["bound"]) + bound, row["point"]


# (curve, generator) pairs for the oracle laws: the six bundled generators,
# the 234446a generators and (3, 5) on y^2 = x^3 - 2 (delta < 0, additive
# reduction at 2 and 3)
E234446 = ec.weierstrass_curve(1, -1, 0, -79, 289)
EX3M2 = ec.weierstrass_curve(0, 0, 0, 0, -2)
ORACLE_GENS = (
    [(E37, (0, 0)), (E389, (0, 0)), (E389, (1, 0))]
    + [(E5077, g) for g in ((-2, 3), (-1, 3), (0, 2))]
    + [(E234446, g) for g in ((-10, 3), (-9, 19), (-8, 23), (-7, 25))]
    + [(EX3M2, (3, 5))]
)
# multiples run up to |k| = 300 or to hhat(kP) = 2e4, whichever is first:
# 300 P on 234446a takes about 3 s to form and to measure both ways
ORACLE_HHAT_CAP = 2e4


@functools.lru_cache(maxsize=None)
def oracle_generator(which):
    curve, (x, y) = ORACLE_GENS[which]
    gen = ec.Point.of(x, y)
    h = ec.canonical_height(curve, gen)
    return curve, gen, min(300, math.isqrt(int(ORACLE_HHAT_CAP / h)))


def assert_paths_agree(curve, point):
    value, bound = ec.canonical_height_doubling(curve, point)
    assert bound <= 1e-6
    assert abs(value - ec.canonical_height(curve, point)) <= 1e-8 + bound
    return value, bound


HHAT_37A = 0.0511114082399688  # the 37a regulator in this normalization (LMFDB)


class TestOracle:
    @settings(max_examples=40)
    @given(st.integers(0, len(ORACLE_GENS) - 1), st.data())
    def test_agrees_with_local_decomposition(self, which, data):
        curve, gen, kmax = oracle_generator(which)
        k = data.draw(st.integers(-kmax, kmax).filter(bool), label="k")
        assert_paths_agree(curve, ec.scalar_mul(curve, k, gen))

    @settings(max_examples=40)
    @given(
        st.integers(0, len(ORACLE_GENS) - 1),
        st.integers(1, 6),
        st.fractions(Fraction(1, 12), Fraction(12), max_denominator=12),
        st.fractions(-20, 20, max_denominator=6),
        st.fractions(-20, 20, max_denominator=6),
        st.fractions(-20, 20, max_denominator=6),
    )
    def test_model_change_invariance(self, which, k, u, r, s, t):
        # any (u, r, s, t): non-integral and non-minimal models included
        curve, gen, _ = oracle_generator(which)
        point = ec.scalar_mul(curve, k, gen)
        value, bound = ec.canonical_height_doubling(curve, point)
        moved = transform_curve(curve, u, r, s, t)
        moved_value, moved_bound = ec.canonical_height_doubling(
            moved, ec.transform_point(point, u, r, s, t)
        )
        assert abs(moved_value - value) <= bound + moved_bound

    def test_egg_point(self):
        # 37a has delta > 0; (0, 0) lies on the bounded real component
        roots = analytic.agm_periods(E37).roots
        assert E37.delta > 0 and roots[0].real < 0 < roots[1].real
        value, bound = assert_paths_agree(E37, P37)
        assert abs(value - HHAT_37A) <= bound
        for k in (2, 3, 5):
            assert_paths_agree(E37, ec.scalar_mul(E37, k, P37))

    def test_negative_discriminant(self):
        assert EX3M2.delta < 0 and len([r for r in analytic.agm_periods(EX3M2).roots if r.imag == 0]) == 1
        for k in (1, -2, 7):
            assert_paths_agree(EX3M2, ec.scalar_mul(EX3M2, k, ec.Point.of(3, 5)))

    def test_denominator_divisible_by_bad_prime(self):
        q = ec.scalar_mul(E37, 38, P37)
        assert q.x.denominator % 37 == 0
        value, bound = assert_paths_agree(E37, q)
        assert abs(value - 38 * 38 * HHAT_37A) <= bound + 1e-12

    @pytest.mark.parametrize(
        "a, point, local",
        [
            # Thm 5.2 (b): multiplicative at 2, singular reduction
            ((-1, 3, 0, 28, 100), (0, 10), {2: Fraction(-1, 4)}),
            # (c) at 2 (C >= 3B) and at 3
            ((0, 0, 0, -108, 513), (-12, 9), {2: Fraction(-1, 3), 3: Fraction(-2, 3)}),
            # (d) at 2 and at 3 (C < 3B)
            ((0, 0, 0, -198, -5103), (24, 63), {2: Fraction(-1, 4), 3: Fraction(-1, 2)}),
        ],
        ids=["multiplicative", "C>=3B", "C<3B"],
    )
    def test_singular_reduction_cases(self, a, point, local):
        curve = ec.weierstrass_curve(*a)
        pt = ec.Point.of(*point)
        assert ec.minimal_model(curve).u == 1
        got = {row.p: ec._bad_local_height(curve, pt, row) for row in ec.reduction_data(ec.minimal_model(curve)).primes}
        assert {p: v for p, v in got.items() if v} == local
        for k in (1, 2, 3):
            assert_paths_agree(curve, ec.scalar_mul(curve, k, pt))

    def test_bound_meets_tol(self):
        for tol in (1e-4, 1e-8, 1e-12):
            value, bound = ec.canonical_height_doubling(E389, ec.Point.of(1, 0), tol)
            assert 0 < bound <= tol
            assert abs(value - ec.canonical_height(E389, ec.Point.of(1, 0), 1e-13)) <= bound + 1e-13
