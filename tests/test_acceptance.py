"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite (including these) must stay green.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from arithinv import analytic, arith, corpus, ellcurve, ledger, numfield
from test_analytic import delta_at, moebius
from test_ledger import brute_force_minima


def announce(num, text):
    print("PASS criterion %d: %s" % (num, text))


def test_criterion_1_regulator_exactness():
    K2 = numfield.number_field("Q_sqrt2", (-2, 0, 1))
    r2 = numfield.field_regulator(numfield.FieldRecord(K2))
    expected2 = float(mpmath.log(1 + mpmath.sqrt(2)))
    assert abs(r2 - expected2) < 1e-9
    assert abs(r2 - 0.8813735870) < 1e-9

    K5 = numfield.number_field("Q_sqrt5", (-5, 0, 1))
    r5 = numfield.field_regulator(numfield.FieldRecord(K5))
    expected5 = float(mpmath.log((1 + mpmath.sqrt(5)) / 2))
    assert abs(r5 - expected5) < 1e-9
    assert abs(r5 - 0.4812118250) < 1e-9
    # continued-fraction/Pell oracle for the units themselves
    assert arith.pell_fundamental_solution(8) == (2, 1)  # (2 + sqrt 8)/2 = 1 + sqrt 2
    announce(1, "R(Q(sqrt2)) = log(1+sqrt2), R(Q(sqrt5)) = log(golden), to 1e-9")


def test_criterion_2_determinant_forms(bundled):
    checked = 0
    for label in bundled.fields:
        rec = corpus.build_field_record(bundled, label)
        K = rec.field
        r = numfield.unit_rank(K)
        if r == 0:
            continue
        units = rec.units
        if units is None:
            units = numfield.pell_unit_system(K)
        n = K.r1 + K.r2
        rows = [list(row) for row in units.log_matrix]
        bordered = mpmath.matrix(rows + [[mpmath.mpf(1) / n] * n])
        minor = mpmath.matrix([row[:-1] for row in rows])
        assert abs(abs(mpmath.det(bordered)) - abs(mpmath.det(minor))) < 1e-10
        checked += 1
    assert checked >= 8
    announce(2, "bordered and minor regulator determinants agree to 1e-10 "
                "on %d fields with positive unit rank" % checked)


def test_criterion_3_cm_ratio(bundled):
    rec = corpus.build_field_record(bundled, "Q_zeta5")
    sub = corpus.build_field_record(bundled, "Q_sqrt5")
    verdict = numfield.verify_cm(rec, sub)
    assert verdict.is_cm
    assert abs(verdict.ratio - 2.0) < 1e-8
    assert verdict.s == 1 and 0 <= verdict.s <= 1
    announce(3, "R(Q(zeta5))/R(Q(sqrt5)) = 2 = 2^1 with s = 1 in [0, 1]")


def test_criterion_4_hm_and_friedman(fstats):
    assert len(fstats) >= 12
    for fs in fstats:
        for row in ledger.check_hermite_minkowski(fs):
            assert row.verdict == "pass", row
        assert ledger.check_friedman(fs).verdict == "pass"
    row = ledger.check_friedman({f.label: f for f in fstats}["Q_sqrt2"])
    assert row.lhs == pytest.approx(0.44069, abs=1e-5)
    assert row.rhs == pytest.approx(0.013564, abs=1e-6)
    announce(4, "Hermite-Minkowski and the unit bound pass on %d fields; "
                "Q(sqrt2) margin 0.44069 vs 0.013564" % len(fstats))


def test_criterion_5_canonical_height_paths():
    e37 = ellcurve.weierstrass_curve(0, 0, 1, -1, 0)
    p = ellcurve.Point.of(0, 0)
    primary = ellcurve.canonical_height(e37, p, 1e-6)
    oracle, err = ellcurve.canonical_height_doubling(e37, p, 1e-6)
    assert err <= 1e-6
    assert abs(primary - oracle) <= 2e-6
    hand = math.log(480106) / 256  # h_x(16 P) / 4^4
    hd = ellcurve._height_data(e37)  # C(E) = (mu_inf + sum_p vb log p) / 3
    c_bound = (hd.mu_bound_inf + sum(vb * math.log(p) for p, vb in hd.bad)) / 3 / 256
    assert abs(primary - hand) <= c_bound
    announce(5, "37a height: local decomposition %.9f vs Silverman's local heights %.9f "
                "(within 2e-6), hand value log(480106)/256 within C/256" % (primary, oracle))


def test_criterion_6_quadraticity(bundled):
    pairs = 0
    for label in bundled.curves:
        _, mm, rank, gens = corpus.build_curve_data(bundled, label)
        for g in gens:
            h1 = ellcurve.canonical_height(mm.curve, g, 1e-9)
            for n in (2, 3, 5):
                q = ellcurve.scalar_mul(mm.curve, n, g)
                hn = ellcurve.canonical_height(mm.curve, q, 1e-9)
                assert abs(hn - n * n * h1) < 1e-5
                pairs += 1
    assert pairs == 6 * 3
    announce(6, "h(nP) = n^2 h(P) within 1e-5 for n in {2,3,5} on all %d "
                "corpus generators" % (pairs // 3))


def test_criterion_7_delta_oracle_and_invariance():
    with mpmath.workprec(90):
        eta_i = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf(0.75))
        expected = eta_i**24
    got = delta_at(mpmath.mpc(0, 1))
    assert abs(got - expected) < 1e-9

    rng = random.Random(77)
    words = 0
    while words < 50:
        re = rng.uniform(-0.5, 0.4999)
        im = rng.uniform(0.87, 2.5)
        if re * re + im * im < 1.0001:
            continue
        z = mpmath.mpc(re, im)
        mat = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 6)):
            step = rng.choice([((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0))])
            cand = analytic._matmul(step, mat)
            if mpmath.im(moebius(cand, z)) < 0.05:
                continue
            mat = cand
        if mat == ((1, 0), (0, 1)):
            continue
        w = moebius(mat, z)
        v1 = abs(delta_at(z)) * mpmath.im(z) ** 6
        v2 = abs(delta_at(w)) * mpmath.im(w) ** 6
        assert abs(v1 - v2) <= 1e-9 * v1
        words += 1
    announce(7, "delta(i) = eta(i)^24 to 1e-9; |delta| Im^6 invariant under "
                "50 random modular words to 1e-9 relative")


def test_criterion_8_periods(bundled):
    pd = analytic.agm_periods(ellcurve.weierstrass_curve(0, 0, 0, 1, 0))
    assert abs(pd.tau.value - mpmath.mpc(0, 1)) < 1e-8
    pd = analytic.agm_periods(ellcurve.weierstrass_curve(0, 0, 0, 0, 1))
    assert abs(pd.tau.value - mpmath.mpc(0.5, math.sqrt(3) / 2)) < 1e-8
    for label in bundled.curves:
        _, mm, _, _ = corpus.build_curve_data(bundled, label)
        periods = analytic.agm_periods(mm.curve)
        j_alg = Fraction(mm.curve.c4**3, mm.curve.delta)
        with mpmath.workprec(110):
            j_ana = 1728 * mpmath.kleinj(periods.tau.value)
        scale = max(1.0, abs(float(j_alg)))
        assert abs(j_ana - mpmath.mpf(j_alg.numerator) / j_alg.denominator) / scale < 1e-6
    announce(8, "tau(x^3+x) -> i, tau(x^3+1) -> exp(i pi/3) to 1e-8; "
                "analytic j matches algebraic j to 1e-6 on all curves")


def test_criterion_9_analytic_estimates():
    with mpmath.workprec(90):
        series = float(
            mpmath.fsum(
                mpmath.log(1 + mpmath.exp(-mpmath.sqrt(3) * mpmath.pi * n))
                for n in range(1, 80)
            )
        )
    assert series == pytest.approx(0.004343, abs=1e-6)
    assert series <= 0.005
    series_row, nonneg_row = ledger.check_analytic_estimates()
    assert series_row.verdict == "pass" and nonneg_row.verdict == "pass"
    assert nonneg_row.lhs >= 0
    announce(9, "tail series = %.6f <= 0.005; -log(|delta| (2 Im)^6) >= 0 at "
                "102 reduced points" % series)


def test_criterion_10_unconditional_inequalities(cstats):
    for cs in cstats:
        semi = ledger.check_semistable_height_bound(cs)
        if cs.semistable:
            assert semi.verdict == "pass" and semi.margin > 0
        assert ledger.check_general_height_bound(cs).margin > 0
        main, matrix = ledger.check_injectivity_theorem(cs)
        assert main.margin > 0 and matrix.margin > 0
        assert cs.h_faltings >= 0
        rank_row = ledger.check_rank_bound(cs)
        assert rank_row.verdict == "pass" and rank_row.margin > 0
    by = {c.label: c for c in cstats}
    margin_37a = by["37a"].h_faltings - 0.30089
    assert margin_37a > 0
    c5 = ledger.CONSTANTS.c5(1, 0.0)
    assert c5 == pytest.approx(4.40301e11 + 709.78, rel=1e-5)
    announce(10, "semistable/general/injectivity/matrix bounds and h+ >= 0 "
                 "pass with positive margin on all %d curves; "
                 "37a margin %.4f; c5(1,0) = %.6g" % (len(cstats), margin_37a, c5))


def test_criterion_11_minkowski_minima(cstats):
    by = {c.label: c for c in cstats}
    for label in ("37a", "389a", "5077a"):
        cs = by[label]
        rows = ledger.check_regulator_theorem(cs)
        assert rows and rows[0].verdict == "pass"
        res = ledger.successive_minima(cs.gram)
        assert res.exact
        expected = brute_force_minima(cs.gram, res.minima[-1])
        assert res.minima == pytest.approx(expected, rel=1e-12)

    import numpy

    rng = random.Random(424242)
    for index in range(70):
        m = rng.randint(1, 4) if index < 50 else rng.randint(5, 8)
        diag = numpy.diag([float(rng.randint(1, 9)) for _ in range(m)])
        u = numpy.eye(m)
        for _ in range(m):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                shear = numpy.eye(m)
                shear[i][j] = rng.randint(-3, 3)
                u = u @ shear
        gram = (u.T @ diag @ u).tolist()
        res = ledger.successive_minima(gram)
        assert res.exact
        if m <= 3:
            expected = brute_force_minima(gram, res.minima[-1])
            assert res.minima == pytest.approx(expected, rel=1e-12)
        prod_sq = 1.0
        for lam in res.minima:
            prod_sq *= lam * lam
        det = float(numpy.linalg.det(numpy.array(gram)))
        assert prod_sq <= m ** (m / 2) * det + 1e-9
    announce(11, "Minkowski minima bound holds on 37a/389a/5077a and 70 "
                 "random positive definite Gram matrices of rank 1-8, all "
                 "exact; ranks <= 3 match a brute-force enumeration")


def test_criterion_12_rank_zero_family(cstats):
    ep = [c for c in cstats if c.label.startswith("Ep")]
    assert sorted(c.label for c in ep) == ["Ep23", "Ep41", "Ep5", "Ep59"]
    for cs in ep:
        assert cs.regulator == 1.0  # empty determinant convention, exact
        assert cs.rank == 0
    row = ledger.northcott_curves(cstats, 2.0)
    listed = [c for c in cstats if c.rank > 0 and c.regulator <= 2.0]
    assert all(c.regulator >= 0.01 for c in listed)
    assert "(none)" not in row.note  # 37a and 389a do appear at B = 2
    announce(12, "all E_p records have regulator exactly 1; no positive-rank "
                 "curve below 0.01 in the B = 2 scan")


def test_criterion_13_determinism():
    cmd = [sys.executable, "-m", "arithinv.cli", "verify", "--format", "csv"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty report
    announce(13, "two `inv verify` runs are byte-identical with exit code 0")
