import math
import random
import time
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithinv import arith, ellcurve, ledger


def stats_by_label(rows):
    return {f.label: f for f in rows}


def rows_for(rows, check_id):
    return [r for r in rows if r.check_id == check_id]


ALL_CHECK_IDS = (
    "analytic_nonneg",
    "analytic_series",
    "friedman",
    "friedman_skoruppa",
    "general_height",
    "hermite_minkowski_a",
    "hermite_minkowski_b",
    "injectivity_main",
    "injectivity_matrix",
    "lang_silverman_c4",
    "minkowski_minima",
    "northcott_curves",
    "northcott_fields",
    "rank_bound",
    "regulator_c10",
    "semistable_height",
    "silverman_friedman_c3",
)


class TestConstants:
    def test_c5_over_q(self):
        c5 = ledger.CONSTANTS.c5(1, 0.0)
        assert c5 == pytest.approx(440301256704 + 709.78, abs=0.01)

    def test_fs_constants(self):
        assert ledger.CONSTANTS.fs_c1 == pytest.approx(1 / 11.5**39, rel=1e-12)
        assert ledger.CONSTANTS.fs_c2 == 1.15


class TestHermiteMinkowski:
    def test_sqrt_m3(self, fstats):
        fs = stats_by_label(fstats)["Q_sqrt_m3"]
        rows = ledger.check_hermite_minkowski(fs)
        assert len(rows) == 2
        second = rows[1]
        assert second.lhs == 3.0
        assert second.rhs == pytest.approx(math.pi**2 / 4, abs=1e-9)
        assert second.verdict == "pass"

    def test_sqrt_m1(self, fstats):
        fs = stats_by_label(fstats)["Q_sqrt_m1"]
        rows = ledger.check_hermite_minkowski(fs)
        assert rows[1].lhs == 4.0 and rows[1].verdict == "pass"

    def test_rationals_skip_second(self, fstats):
        fs = stats_by_label(fstats)["Q"]
        rows = ledger.check_hermite_minkowski(fs)
        assert len(rows) == 1
        assert rows[0].lhs == rows[0].rhs == 1.0
        assert rows[0].verdict == "pass"


class TestFriedman:
    def test_sqrt2(self, fstats):
        row = ledger.check_friedman(stats_by_label(fstats)["Q_sqrt2"])
        assert row.lhs == pytest.approx(0.44069, abs=1e-5)
        assert row.rhs == pytest.approx(0.013564, abs=1e-6)
        assert row.verdict == "pass"

    def test_gauss(self, fstats):
        row = ledger.check_friedman(stats_by_label(fstats)["Q_sqrt_m1"])
        assert row.lhs == pytest.approx(0.25)
        assert row.rhs == pytest.approx(0.0031 * math.exp(0.482), rel=1e-12)
        assert row.rhs == pytest.approx(0.005021, abs=2e-6)

    def test_rationals(self, fstats):
        row = ledger.check_friedman(stats_by_label(fstats)["Q"])
        assert row.lhs == pytest.approx(0.5)
        assert row.rhs == pytest.approx(0.0031 * math.exp(0.738), rel=1e-12)
        assert row.rhs == pytest.approx(0.006483, abs=2e-6)

    def test_pass_on_whole_corpus(self, fstats):
        for fs in fstats:
            assert ledger.check_friedman(fs).verdict == "pass"


class TestFriedmanSkoruppa:
    def test_zeta5_over_sqrt5(self, fstats):
        by = stats_by_label(fstats)
        row = ledger.check_friedman_skoruppa(by["Q_zeta5"], by["Q_sqrt5"])
        assert row.lhs == pytest.approx(2.0, abs=1e-8)
        assert row.rhs < 1e-80
        assert row.verdict == "pass"

    def test_self_extension(self):
        fs = ledger.FieldStats("L", 2, 2, 0, 8, 2, 0.8813735870, 0, "L", False)
        row = ledger.check_friedman_skoruppa(fs, fs)
        assert row.lhs == 1.0 and row.verdict == "pass"

    def test_sqrt2_over_q(self, fstats):
        by = stats_by_label(fstats)
        row = ledger.check_friedman_skoruppa(by["Q_sqrt2"], by["Q"])
        assert row.lhs == pytest.approx(0.8813735870, abs=1e-9)
        assert row.verdict == "pass"

    def test_not_a_subfield(self, fstats):
        by = stats_by_label(fstats)
        with pytest.raises(ledger.NotASubfield):
            ledger.check_friedman_skoruppa(by["Q_sqrt2"], by["Q_sqrt3"])


class TestSilvermanFriedman:
    def test_sqrt2(self, fstats):
        row = ledger.report_silverman_friedman(stats_by_label(fstats)["Q_sqrt2"])
        assert row.verdict == "report-only"
        assert row.lhs == pytest.approx(0.8813735870 * 16 / math.log(2), abs=1e-4)
        assert row.lhs == pytest.approx(20.35, abs=0.01)

    def test_sqrt5(self, fstats):
        row = ledger.report_silverman_friedman(stats_by_label(fstats)["Q_sqrt5"])
        assert row.lhs == pytest.approx(0.4812118250 * 16 / math.log(5 / 4), abs=1e-4)
        assert row.lhs == pytest.approx(34.5, abs=0.1)

    def test_cm_case_has_no_constant(self, fstats):
        row = ledger.report_silverman_friedman(stats_by_label(fstats)["Q_zeta5"])
        assert "exponent zero" in row.note

    def test_small_disc_case(self, fstats):
        row = ledger.report_silverman_friedman(stats_by_label(fstats)["Q_plastic"])
        assert "no constant information" in row.note


class TestCurveChecks:
    def test_semistable_37a(self, cstats):
        cs = stats_by_label(cstats)["37a"]
        row = ledger.check_semistable_height_bound(cs)
        assert row.rhs == pytest.approx(math.log(37) / 12, abs=1e-12)
        assert row.rhs == pytest.approx(0.30089, abs=1e-4)
        assert row.verdict == "pass" and row.margin > 0

    def test_semistable_389a(self, cstats):
        cs = stats_by_label(cstats)["389a"]
        row = ledger.check_semistable_height_bound(cs)
        assert row.rhs == pytest.approx(0.49697, abs=1e-4)
        assert row.verdict == "pass"

    def test_semistable_skipped(self, cstats):
        cs = stats_by_label(cstats)["x3+1"]
        row = ledger.check_semistable_height_bound(cs)
        assert row.verdict == "report-only" and "not semistable" in row.note

    def test_general_bound_x3p1(self, cstats):
        cs = stats_by_label(cstats)["x3+1"]
        row = ledger.check_general_height_bound(cs)
        assert row.rhs == pytest.approx(math.log(6) / 12**8, rel=1e-9)
        assert row.rhs == pytest.approx(4.17e-9, rel=1e-2)
        assert row.verdict == "pass"

    def test_general_bound_x3px(self, cstats):
        cs = stats_by_label(cstats)["x3+x"]
        row = ledger.check_general_height_bound(cs)
        assert row.rhs == pytest.approx(math.log(2) / 12**8, rel=1e-9)

    def test_injectivity_x3px(self, cstats):
        cs = stats_by_label(cstats)["x3+x"]
        main, matrix = ledger.check_injectivity_theorem(cs)
        assert matrix.rhs == pytest.approx(1.0, abs=1e-8)  # rho = 1 at tau = i
        assert ledger.LOG_PI_TERM == math.log(math.pi / (math.pi - 3))
        assert math.pi / (math.pi - 3) == pytest.approx(22.18, abs=0.02)
        assert matrix.verdict == "pass" and main.verdict == "pass"

    def test_injectivity_x3p1(self, cstats):
        cs = stats_by_label(cstats)["x3+1"]
        main, matrix = ledger.check_injectivity_theorem(cs)
        assert matrix.rhs == pytest.approx(math.sqrt(3) / 2, abs=1e-8)

    def test_injectivity_37a_composition(self, cstats):
        cs = stats_by_label(cstats)["37a"]
        main, _ = ledger.check_injectivity_theorem(cs)
        expected = (
            math.log(37) / (3 * 12**8) + cs.tau_im / 3 - ledger.LOG_PI_TERM / 3
        )
        assert main.rhs == pytest.approx(expected, rel=1e-12)

    def test_rank_bound(self, cstats):
        for label in ("37a", "389a", "Ep5"):
            row = ledger.check_rank_bound(stats_by_label(cstats)[label])
            assert row.verdict == "pass"
            assert row.lhs >= 4.4030e11

    def test_lang_silverman_37a(self, cstats):
        cs = stats_by_label(cstats)["37a"]
        row = ledger.report_lang_silverman(cs)
        assert row.lhs == pytest.approx(0.0766671 / max(cs.h_faltings, 1.0), abs=1e-6)

    def test_lang_silverman_rank0(self, cstats):
        row = ledger.report_lang_silverman(stats_by_label(cstats)["Ep5"])
        assert "no dense point" in row.note


def brute_force_minima(gram, lam_max):
    """Successive minima by listing every vector of a box that must hold them.

    A vector x of value <= lam^2 has |x_i| <= sqrt(lam^2 (G^-1)_ii), so the
    box built from lam_max holds every vector the minima can use if
    lam_max >= lambda_m; if lam_max is too small, the box yields fewer or
    larger minima and a comparison fails.
    """
    g = numpy.array(gram, dtype=float)
    m = len(g)
    reach = lam_max**2 * (1 + 1e-9) * float(numpy.max(numpy.diag(numpy.linalg.inv(g))))
    box = math.ceil(math.sqrt(reach))
    axis = numpy.arange(-box, box + 1)
    grid = numpy.meshgrid(*([axis] * m), indexing="ij")
    vectors = numpy.stack([c.ravel() for c in grid], axis=1)
    vectors = vectors[numpy.any(vectors != 0, axis=1)]
    values = numpy.einsum("ni,ij,nj->n", vectors, g, vectors)
    minima, chosen = [], []
    for index in numpy.argsort(values, kind="stable"):
        trial = chosen + [vectors[index]]
        if numpy.linalg.matrix_rank(numpy.array(trial)) == len(trial):
            chosen = trial
            minima.append(math.sqrt(values[index]))
            if len(chosen) == m:
                break
    return minima


class TestSuccessiveMinima:
    def test_one_dim(self):
        res = ledger.successive_minima([[4.0]])
        assert res.minima == (2.0,)
        assert res.witnesses[0] in ((1,), (-1,))
        assert res.exact

    def test_diagonal(self):
        res = ledger.successive_minima([[1.0, 0.0], [0.0, 4.0]])
        assert res.minima == (1.0, 2.0)
        assert abs(res.witnesses[0][0]) == 1 and res.witnesses[0][1] == 0
        assert res.witnesses[1][0] == 0 and abs(res.witnesses[1][1]) == 1
        assert res.exact

    def test_389a_product_bound(self, cstats):
        cs = stats_by_label(cstats)["389a"]
        res = ledger.successive_minima(cs.gram)
        prod_sq = (res.minima[0] * res.minima[1]) ** 2
        assert prod_sq <= 2 * cs.regulator + 1e-9
        assert res.exact

    def test_37a_equality(self, cstats):
        cs = stats_by_label(cstats)["37a"]
        rows = ledger.check_regulator_theorem(cs)
        minkowski = rows[0]
        assert minkowski.check_id == "minkowski_minima"
        assert minkowski.margin == pytest.approx(0.0, abs=1e-12)
        assert minkowski.verdict == "pass"

    def test_37a_margin_is_exactly_zero(self, cstats):
        # in rank 1 the regulator is the one Gram entry, and the product is
        # the value of the witness +-1, so the two sides are the same float
        rows = ledger.check_regulator_theorem(stats_by_label(cstats)["37a"])
        assert rows[0].margin == 0.0

    def test_rank0_skipped(self, cstats):
        assert ledger.check_regulator_theorem(stats_by_label(cstats)["Ep5"]) == []

    def test_random_positive_definite(self):
        # unimodular congruences of integer diagonal matrices, 50 of ranks
        # 1-4 and 20 of ranks 5-8; every sample must be exact, and ranks
        # <= 3 are checked against a brute-force enumeration
        rng = random.Random(20260809)
        for index in range(70):
            m = rng.randint(1, 4) if index < 50 else rng.randint(5, 8)
            diag = numpy.diag([float(rng.randint(1, 9)) for _ in range(m)])
            u = numpy.eye(m)
            for _ in range(m):
                i, j = rng.randrange(m), rng.randrange(m)
                if i == j:
                    continue
                shear = numpy.eye(m)
                shear[i][j] = rng.randint(-3, 3)
                u = u @ shear
            gram = u.T @ diag @ u
            res = ledger.successive_minima(gram.tolist())
            assert res.exact
            assert res.radius >= res.minima[-1] ** 2
            if m <= 3:
                expected = brute_force_minima(gram, res.minima[-1])
                assert res.minima == pytest.approx(expected, rel=1e-12)
            prod_sq = 1.0
            for lam in res.minima:
                prod_sq *= lam * lam
            det = float(numpy.linalg.det(gram))
            assert prod_sq <= m ** (m / 2) * det * (1 + 1e-9)

    @pytest.mark.parametrize(
        "diag",
        [(1, 1, 1, 1, 1e4), (1, 1, 1, 1e6), (0.05, 0.05, 0.05, 500.0), (1e-8, 1)],
    )
    def test_spread_minima(self, diag):
        # one long generator beside short ones: no vector in the span of the
        # short witnesses may be listed while the long one is sought, so the
        # node count stays tiny; a search over the ball of radius lambda_m
        # visits about 5e8 nodes on the first case
        start = time.perf_counter()
        res = ledger.successive_minima(numpy.diag(diag).tolist())
        assert time.perf_counter() - start < 2.0
        assert res.exact
        assert res.minima == pytest.approx(sorted(math.sqrt(d) for d in diag), rel=1e-12)
        assert res.nodes <= 20 * len(diag) ** 2

    def test_near_singular(self):
        # every multiple k b0 of the short vector has value <= 1 here
        res = ledger.successive_minima([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
        assert res.exact
        assert res.minima == pytest.approx([1e-5, 1.0], rel=1e-4)
        assert res.nodes <= 20

    def test_lost_candidates_are_not_exact(self, monkeypatch):
        # if rounding loses every candidate of a step, the step takes a basis
        # vector outside the span: the result is flagged, and its minima are
        # still norms of independent vectors, never below the true minima
        gram = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]]
        true = ledger.successive_minima(gram)
        monkeypatch.setattr(ledger, "_shortest_outside", lambda mu, bstar, cut, bound: ([], 1))
        res = ledger.successive_minima(gram)
        assert not res.exact
        assert numpy.linalg.matrix_rank(numpy.array(res.witnesses)) == 3
        for lam, vec in zip(res.minima, res.witnesses):
            assert lam * lam == pytest.approx(float(numpy.array(vec) @ numpy.array(gram) @ numpy.array(vec)))
        for lam, least in zip(sorted(res.minima), true.minima):
            assert lam >= least * (1 - 1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(ledger.DependentPoints):
            ledger.successive_minima([[1.0, 2.0], [2.0, 1.0]])


# Two Gram matrices whose definiteness a float eigenvalue test gets wrong.
# The stored entries of A have exact determinant -1.2e-7, so A is not
# positive definite; those of B have exact determinant +7.5e-14, so B is.
GRAM_A = [
    [25000.25, -24999.95, -24999.749999999996],
    [-24999.95, 25000.01, 25000.050000000003],
    [-24999.749999999996, 25000.050000000003, 25000.250000000007],
]
GRAM_B = [
    [25000.0000001, -25000.0000004, 20000.000000100004],
    [-25000.0000004, 25000.0000016, -20000.000000400003],
    [20000.000000100004, -20000.000000400003, 16000.00000010001],
]


class TestExactDefiniteness:
    def test_indefinite_stored_matrix_is_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ledger.DependentPoints):
            ledger.successive_minima(GRAM_A)
        assert time.perf_counter() - start < 1.0

    def test_nearly_singular_positive_definite_matrix_has_minima(self):
        res = ledger.successive_minima(GRAM_B)
        assert res.exact
        assert arith.frac_det(res.witnesses) != 0
        for lam, vec in zip(res.minima, res.witnesses):
            exact = sum(
                Fraction(vec[i]) * Fraction(GRAM_B[i][j]) * Fraction(vec[j])
                for i in range(3)
                for j in range(3)
            )
            # float evaluation of x^T B x is off by at most 9 eps sum |x_i B_ij x_j|
            rounding = 9 * 2.0**-52 * sum(abs(vec[i] * GRAM_B[i][j] * vec[j]) for i in range(3) for j in range(3))
            assert abs(lam * lam - exact) <= rounding

    def test_mw_regulator_rejects_a_negative_pivot(self, monkeypatch):
        # a Gram matrix diag(1, -1e-10) passes the determinant test, and its
        # least eigenvalue lies above a -1e-9 float tolerance
        scale = float(ellcurve.HEIGHT_SCALE)
        p, q = ellcurve.Point.of(0, 0), ellcurve.Point.of(1, 0)
        heights = {p: 1 / scale, q: -1e-10 / scale}
        monkeypatch.setattr(
            ellcurve, "canonical_height", lambda curve, pt, tol: heights.get(pt, heights[p] + heights[q])
        )
        e389 = ellcurve.weierstrass_curve(0, 1, 1, -2, 0)
        with pytest.raises(ledger.DependentPoints, match="semidefinite"):
            ellcurve.mw_regulator(e389, [p, q], 2)


@st.composite
def lattice_and_unimodular(draw):
    """scale * B B^T for an integer lower-triangular B, and an integer U of det +-1."""
    m = draw(st.integers(1, 8))
    lower = numpy.array(
        [
            [draw(st.integers(1, 4)) if i == j else draw(st.integers(-3, 3)) if j < i else 0 for j in range(m)]
            for i in range(m)
        ],
        dtype=float,
    )
    gram = draw(st.floats(0.25, 4.0)) * (lower @ lower.T)
    u = numpy.eye(m, dtype=int)[draw(st.permutations(range(m)))]
    for _ in range(draw(st.integers(0, 2 * m))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if i != j:
            u[:, i] += draw(st.integers(-2, 2)) * u[:, j]
    return gram, u


class TestMinimaLaws:
    @settings(max_examples=40)
    @given(lattice_and_unimodular())
    def test_unimodular_invariance(self, case):
        gram, u = case
        base = ledger.successive_minima(gram.tolist())
        moved = ledger.successive_minima((u.T @ gram @ u).tolist())
        assert moved.minima == pytest.approx(base.minima, rel=1e-9)

    @settings(max_examples=40)
    @given(lattice_and_unimodular())
    def test_witness_norms_are_the_minima(self, case):
        gram = case[0]
        res = ledger.successive_minima(gram.tolist())
        witnesses = numpy.array(res.witnesses)
        assert numpy.linalg.matrix_rank(witnesses) == len(gram)
        norms = numpy.sqrt(numpy.einsum("ni,ij,nj->n", witnesses, gram, witnesses))
        assert list(norms) == pytest.approx(list(res.minima), rel=1e-9)

    @settings(max_examples=40)
    @given(lattice_and_unimodular())
    def test_minkowski_product_bound(self, case):
        gram = case[0]
        m = len(gram)
        res = ledger.successive_minima(gram.tolist())
        product = math.prod(lam * lam for lam in res.minima)
        assert product <= m ** (m / 2) * numpy.linalg.det(gram) * (1 + 1e-9)


class TestAnalyticEstimates:
    def test_rows(self):
        series_row, nonneg_row = ledger.check_analytic_estimates()
        assert series_row.verdict == "pass"
        assert series_row.rhs == pytest.approx(0.004343, abs=1e-6)
        assert nonneg_row.verdict == "pass"
        assert nonneg_row.lhs >= 0


class TestNorthcott:
    def mini_fields(self, fstats):
        keep = {"Q_sqrt2", "Q_sqrt5", "Q_sqrt_m1"}
        return [f for f in fstats if f.label in keep]

    def test_bound_03(self, fstats):
        row = ledger.northcott_fields(self.mini_fields(fstats), 0.3)
        assert "(none)" in row.note and row.lhs == 0

    def test_bound_1(self, fstats):
        row = ledger.northcott_fields(self.mini_fields(fstats), 1.0)
        assert "Q_sqrt2" in row.note and "Q_sqrt5" in row.note
        assert "Q_sqrt_m1" not in row.note  # CM field excluded
        assert row.lhs == 2

    def test_curves_bound_001(self, cstats):
        keep = [c for c in cstats if c.label in ("37a", "389a")]
        row = ledger.northcott_curves(keep, 0.01)
        assert "(none)" in row.note

    def test_report_only(self, fstats, cstats):
        for row in (
            ledger.northcott_fields(fstats, 1.0),
            ledger.northcott_curves(cstats, 1.0),
        ):
            assert row.verdict == "report-only"


class TestRunChecks:
    def test_no_failures_on_bundled_corpus(self, fstats, cstats):
        rows = ledger.run_checks(fstats, cstats)
        assert rows
        assert not [r for r in rows if r.verdict == "fail"]

    def test_report_only_never_fail(self, fstats, cstats):
        rows = ledger.run_checks(fstats, cstats)
        for r in rows:
            if r.check_id in (
                "silverman_friedman_c3",
                "lang_silverman_c4",
                "regulator_c10",
                "northcott_fields",
                "northcott_curves",
            ):
                assert r.verdict == "report-only"

    def test_sorted_and_deterministic(self, fstats, cstats):
        rows1 = ledger.run_checks(fstats, cstats)
        rows2 = ledger.run_checks(fstats, cstats)
        assert rows1 == rows2
        keys = [(r.check_id, r.object_label) for r in rows1]
        assert keys == sorted(keys)

    def test_filter(self, fstats, cstats):
        rows = ledger.run_checks(fstats, cstats, selected=["friedman"])
        assert rows and all(r.check_id == "friedman" for r in rows)

    def test_unknown_filter(self, fstats, cstats):
        with pytest.raises(ValueError):
            ledger.run_checks(fstats, cstats, selected=["nope"])


class TestSelectionTokens:
    def test_alias_hm(self, fstats, cstats):
        rows = ledger.run_checks(fstats, cstats, selected=["hm", "friedman"])
        ids = {r.check_id for r in rows}
        assert ids == {"hermite_minkowski_a", "hermite_minkowski_b", "friedman"}

    def test_prefix(self, fstats, cstats):
        rows = ledger.run_checks(fstats, cstats, selected=["northcott"])
        assert {r.check_id for r in rows} == {"northcott_fields", "northcott_curves"}

    def test_empty_token_is_an_error(self):
        # "" is a prefix of every check id
        with pytest.raises(ValueError, match="empty check id"):
            ledger.expand_selection(["friedman", ""])

    def test_all_checks(self):
        assert ledger.ALL_CHECKS == ALL_CHECK_IDS

    @pytest.mark.parametrize(
        "token",
        ALL_CHECK_IDS + ("hm", "analytic", "hermite", "injectivity", "northcott", "lang", "f"),
    )
    def test_a_selection_is_the_full_run_filtered(self, token, fstats, cstats):
        # a selection makes exactly the rows of the full run that it selects
        wanted = ledger.expand_selection([token])
        full = [r for r in ledger.run_checks(fstats, cstats) if r.check_id in wanted]
        assert full
        assert ledger.run_checks(fstats, cstats, selected=[token]) == full

    @pytest.mark.parametrize(
        "selected, kinds",
        [
            (None, {"field", "curve"}),
            (["analytic"], set()),
            (["friedman_skoruppa"], {"field"}),
            (["silverman_friedman_c3"], {"field"}),
            (["rank_bound", "lang"], {"curve"}),
            (["northcott_fields", "analytic_series"], {"field"}),
            (["northcott"], {"field", "curve"}),
        ],
    )
    def test_reads(self, selected, kinds):
        assert ledger.reads(selected) == kinds

    def test_reads_rejects_what_expand_selection_rejects(self):
        for tokens in (["nope"], ["friedman", ""]):
            with pytest.raises(ValueError):
                ledger.reads(tokens)

    def test_a_check_patched_after_a_run_is_called(self, fstats, cstats, monkeypatch):
        # the table names its functions, so a wrapper put on the module
        # function later (as the benchmark's tracer does) sees every call
        rows = ledger.run_checks(fstats, cstats)
        seen = []
        friedman = ledger.check_friedman

        def counting(fs):
            seen.append(fs.label)
            return friedman(fs)

        monkeypatch.setattr(ledger, "check_friedman", counting)
        assert ledger.run_checks(fstats, cstats) == rows
        assert seen == [f.label for f in fstats]
