"""Every inequality of interest as a named, machine-checkable instance.

Each check produces rows with an explicit margin; the convention is
always ``lhs >= rhs`` with ``margin = lhs - rhs`` and a pass verdict iff
``margin >= -1e-9``.  Checks whose constant is only known to exist
(rather than stated) are report-only: they publish the implied constant
and never fail.

`CHECKS` declares each check once: its row ids, its scope and its
function's name, looked up when it runs, so a wrapper put on the function
later (as the benchmark's tracer does) sees the call.  A scope says what
the function is called on: nothing ("constant"), each field or curve,
each field and its declared subfield ("field pair"), every field or curve
and the Northcott bound ("fields", "curves"), or each record, keeping the
corpus minimum ("field minimum", "curve minimum").  It reads the stats of
the kind it starts with; `reads` gives the kinds a selection reads.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import NamedTuple

from . import analytic, arith
from .errors import DependentPoints, NotASubfield

PASS_EPS = 1e-9

PI = math.pi


class CheckResult(NamedTuple):
    check_id: str
    object_label: str
    lhs: float
    rhs: float
    margin: float
    verdict: str  # "pass" | "fail" | "report-only"
    note: str = ""


def _judge(check_id, label, lhs, rhs, note=""):
    margin = lhs - rhs
    verdict = "pass" if margin >= -PASS_EPS else "fail"
    return CheckResult(check_id, label, lhs, rhs, margin, verdict, note)


def _report(check_id, label, lhs, rhs, note):
    return CheckResult(check_id, label, lhs, rhs, lhs - rhs, "report-only", note)


# ---------------------------------------------------------------------------
# explicit constants


class Constants:
    """The explicit constants used by the pass/fail checks."""

    friedman_a = 0.0031
    friedman_b = 0.241  # coefficient of the degree
    friedman_c = 0.497  # coefficient of r1
    fs_c1 = 1.0 / 11.5**39
    fs_c2 = 1.15

    @staticmethod
    def c5(d, log_disc):
        """Rank bound constant (2^26 3^8 + 2^8 log 16) d^3 + 2^8 d log|D|."""
        return (2**26 * 3**8 + 2**8 * math.log(16)) * d**3 + 2**8 * d * log_disc


CONSTANTS = Constants()


# ---------------------------------------------------------------------------
# per-object contexts assembled by the corpus layer


class FieldStats(NamedTuple):
    label: str
    degree: int
    r1: int
    r2: int
    disc: int
    w: int
    regulator: float
    r0: int | None
    subfield_label: str | None
    is_cm: bool

    @property
    def unit_rank(self):
        return self.r1 + self.r2 - 1


class CurveStats(NamedTuple):
    label: str
    n0: int
    semistable: bool
    tau_im: float  # Im of the reduced period ratio; rho^(-2)
    h_faltings: float
    rank: int
    gram: tuple  # pairing Gram rows, generator heights on the diagonal; () for rank 0
    regulator: float


# ---------------------------------------------------------------------------
# number field checks


def check_hermite_minkowski(fs):
    """|D|^(1/2) >= (pi/4)^r2 d^d/d!  and, for d >= 2, |D| >= (pi/3)(3pi/4)^(d-1)."""
    d = fs.degree
    out = [
        _judge(
            "hermite_minkowski_a",
            fs.label,
            math.sqrt(abs(fs.disc)),
            (PI / 4) ** fs.r2 * d**d / math.factorial(d),
        )
    ]
    if d >= 2:
        out.append(
            _judge(
                "hermite_minkowski_b",
                fs.label,
                float(abs(fs.disc)),
                (PI / 3) * (3 * PI / 4) ** (d - 1),
            )
        )
    return out


def check_friedman(fs):
    """R/w >= 0.0031 exp(0.241 d + 0.497 r1)."""
    rhs = CONSTANTS.friedman_a * math.exp(
        CONSTANTS.friedman_b * fs.degree + CONSTANTS.friedman_c * fs.r1
    )
    return _judge("friedman", fs.label, fs.regulator / fs.w, rhs)


def check_friedman_skoruppa(fs_top, fs_sub):
    """R_L / R_K >= (c1 c2^[L:K])^[K:Q] for a certified subfield K of L."""
    if fs_top.subfield_label != fs_sub.label:
        raise NotASubfield(
            "%s does not declare %s as subfield" % (fs_top.label, fs_sub.label)
        )
    if fs_top.degree % fs_sub.degree:
        raise NotASubfield("degree of %s does not divide" % fs_sub.label)
    rel_degree = fs_top.degree // fs_sub.degree
    rhs = (CONSTANTS.fs_c1 * CONSTANTS.fs_c2**rel_degree) ** fs_sub.degree
    note = "relative degree %d; bound %.3e" % (rel_degree, rhs)
    return _judge(
        "friedman_skoruppa",
        "%s/%s" % (fs_top.label, fs_sub.label),
        fs_top.regulator / fs_sub.regulator,
        rhs,
        note,
    )


def implied_c3(fs):
    """R d^(2d) (log(|D|/d^d))^(r0-r), or None where the bound is vacuous.

    Vacuous cases: unit rank equals r0 (the CM-type degeneration), or
    |D| <= d^d so the logarithm is not positive and any constant works.
    """
    r0 = fs.r0 if fs.r0 is not None else 0
    gap = fs.unit_rank - r0
    if gap <= 0:
        return None
    base = math.log(abs(fs.disc) / fs.degree**fs.degree)
    if base <= 0:
        return None
    return fs.regulator * fs.degree ** (2 * fs.degree) * base**-gap


def report_silverman_friedman(fs):
    c3 = implied_c3(fs)
    if c3 is not None:
        return _report(
            "silverman_friedman_c3", fs.label, c3, 0.0, "implied c3 = %.6g" % c3
        )
    r0 = fs.r0 if fs.r0 is not None else 0
    if fs.unit_rank - r0 <= 0:
        note = "exponent zero (unit rank equals r0): bound reads R >= c3 d^(-2d)"
    else:
        note = "log(|D|/d^d) <= 0: instance carries no constant information"
    return _report("silverman_friedman_c3", fs.label, fs.regulator, 0.0, note)


# ---------------------------------------------------------------------------
# elliptic curve checks


def check_semistable_height_bound(cs):
    """h+ >= (1/12) log N0 for semistable curves over Q."""
    if not cs.semistable:
        return _report(
            "semistable_height", cs.label, 0.0, 0.0, "skipped: not semistable"
        )
    rhs = math.log(cs.n0) / 12
    return _judge("semistable_height", cs.label, cs.h_faltings, rhs)


def check_general_height_bound(cs):
    """h+ >= (1/12^8) log N0 over Q, with no semistability assumption."""
    rhs = math.log(cs.n0) / 12**8
    return _judge("general_height", cs.label, cs.h_faltings, rhs)


LOG_PI_TERM = math.log(PI / (PI - 3))


def check_injectivity_theorem(cs):
    """The explicit height / bad-reduction / injectivity-diameter bounds.

    Matrix-lemma instance: 2 h+ + log(pi/(pi-3)) >= sum d_v rho^(-2) / d,
    which over Q (d = 1) is Im tau.  Main bound: h+ >= log(N0)/(3*12^8)
    + Im tau/3 - log(pi/(pi-3))/3.
    """
    rho_term = cs.tau_im  # rho^(-2) = Im tau at the single real place
    matrix = _judge(
        "injectivity_matrix",
        cs.label,
        2 * cs.h_faltings + LOG_PI_TERM,
        rho_term,
    )
    main_rhs = math.log(cs.n0) / (3 * 12**8) + rho_term / 3 - LOG_PI_TERM / 3
    main = _judge("injectivity_main", cs.label, cs.h_faltings, main_rhs)
    return [main, matrix]


def check_rank_bound(cs):
    """rank <= c5 max(1, h+), with c5 at d = 1 and log|D| = 0 over Q."""
    c5 = CONSTANTS.c5(1, 0.0)
    return _judge(
        "rank_bound",
        cs.label,
        c5 * max(1.0, cs.h_faltings),
        float(cs.rank),
        "c5 = %.6e" % c5,
    )


def implied_c4(cs):
    """min over generators of h(P) / max(h+, 1), or None without a generator."""
    if not cs.gram:
        return None
    return min(row[i] for i, row in enumerate(cs.gram)) / max(cs.h_faltings, 1.0)


def report_lang_silverman(cs):
    c4 = implied_c4(cs)
    if c4 is None:
        return _report(
            "lang_silverman_c4", cs.label, 0.0, 0.0, "skipped: no dense point"
        )
    return _report("lang_silverman_c4", cs.label, c4, 0.0, "implied c4 = %.6g" % c4)


# ---------------------------------------------------------------------------
# successive minima of the height lattice


class MinimaResult(NamedTuple):
    minima: tuple  # lambda_1 <= ... <= lambda_m
    witnesses: tuple  # independent integer coefficient vectors
    exact: bool
    radius: float  # largest squared-norm bound a step enumerated, >= lambda_m^2
    nodes: int  # Fincke-Pohst tree nodes visited


# Relative slack on every enumeration bound; it absorbs the rounding of
# the Gram matrix of a basis and of the partial sums, so no vector of
# least value is lost at the boundary.
_RADIUS_SLACK = 1e-9


def _orthogonalize(g, mu, bstar, i):
    """Row i of mu and |b_i*|^2 from the Gram matrix g and the rows before i.

    Over all rows, Q(x) = sum_j bstar[j] (x_j + sum_{i>j} mu[i][j] x_i)^2,
    the square-completed form that Fincke-Pohst enumerates.
    """
    row = mu[i]
    for j in range(i):
        row[j] = (g[i][j] - sum(mu[j][t] * row[t] * bstar[t] for t in range(j))) / bstar[j]
    bstar[i] = g[i][i] - sum(row[t] ** 2 * bstar[t] for t in range(i))


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _apply(q_mat, row):
    """Q x for an integer row x."""
    return [_dot(q_row, row) for q_row in q_mat]


def _form_value(q_mat, vec):
    """x^T Q x for an integer vector x."""
    m = len(vec)
    return sum(vec[i] * q_mat[i][j] * vec[j] for i in range(m) for j in range(m))


def _lll(q_mat, u, cut=0):
    """LLL-reduce the basis whose vectors are the rows of the unimodular u.

    Returns new integer rows of the same lattice, their Gram matrix
    u Q u^T, and its mu and |b*|^2 (`_orthogonalize`).  The basis is
    LLL-reduced (Lovasz constant 0.99), except that rows cut - 1 and cut
    are never swapped: the first cut rows keep their span, and the rest
    are reduced in projection orthogonal to it.  Q u_i is kept for each
    row, entry (i, j) of the Gram matrix is Q u_i . u_j, a size reduction
    recomputes row and column k from the new exact row, and a swap
    permutes rows and columns; so every entry is a fresh dot product of
    exact rows, and rounding never accumulates.  The Gram-Schmidt rows
    below the first changed row are kept, since they depend on nothing
    after them.
    """
    u = [list(row) for row in u]
    m = len(u)
    qu = [_apply(q_mat, row) for row in u]
    g = [[_dot(qu[i], u[j]) for j in range(m)] for i in range(m)]
    mu = [[0.0] * m for _ in range(m)]
    bstar = [0.0] * m
    fresh = 0  # rows of mu and bstar that match g
    k = 1
    while k < m:
        for i in range(fresh, k + 1):
            _orthogonalize(g, mu, bstar, i)
        fresh = k + 1
        row = u[k]
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                row = [a - q * b for a, b in zip(row, u[j])]
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if row is not u[k]:
            u[k] = row
            qu[k] = _apply(q_mat, row)
            g[k] = [_dot(qu[k], v) for v in u]
            for i in range(m):
                g[i][k] = _dot(qu[i], row)
            fresh = k
        if k == cut or bstar[k] >= (0.99 - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            for seq in (u, qu, g):
                seq[k - 1], seq[k] = seq[k], seq[k - 1]
            for g_row in g:
                g_row[k - 1], g_row[k] = g_row[k], g_row[k - 1]
            fresh = k - 1
            k = max(k - 1, 1)
    for i in range(fresh, m):
        _orthogonalize(g, mu, bstar, i)
    return u, g, mu, bstar


def _saturated_basis(vectors):
    """Rows of a unimodular integer matrix N whose first k rows span the
    integer points of the real span of the k independent vectors.

    Integer column operations bring the vectors C to [H | 0] with H lower
    triangular, and N records them so that C = [H | 0] N throughout; then
    C = H N[:k], and rows of a unimodular matrix span a saturated lattice.
    """
    c = [list(v) for v in vectors]
    m = len(c[0])
    n = [[int(i == j) for j in range(m)] for i in range(m)]
    for r in range(len(c)):
        while True:
            p = min((j for j in range(r, m) if c[r][j]), key=lambda j: abs(c[r][j]))
            for row in c:
                row[r], row[p] = row[p], row[r]
            n[r], n[p] = n[p], n[r]
            if not any(c[r][r + 1 :]):
                break
            for j in range(r + 1, m):
                q = c[r][j] // c[r][r]
                if q:
                    for row in c:
                        row[j] -= q * row[r]
                    n[r] = [a + q * b for a, b in zip(n[r], n[j])]
    return n


def _nearest_first(center):
    """The integers in order of distance from center."""
    up = math.ceil(center)
    down = up - 1
    while True:
        if up - center <= center - down:
            yield up
            up += 1
        else:
            yield down
            down -= 1


def _shortest_outside(mu, bstar, cut, bound):
    """Least-value coefficient vectors with a nonzero coordinate >= cut.

    Fincke-Pohst with the Schnorr-Euchner order: every coordinate runs
    outward from its center, and the bound shrinks to the least value
    found, so vectors far above the answer are never listed.  Of y and -y
    only the one whose highest nonzero coordinate is positive is visited.
    Returns the (value, y) pairs within the relative slack of the least
    value, none if rounding lost every vector of value <= bound, and the
    tree nodes visited.
    """
    m = len(bstar)
    y = [0] * m
    found = []
    best = bound
    nodes = 0

    def descend(i, used, top):
        # top: every coordinate above i is zero, so the center is 0
        nonlocal best, nodes
        center = -sum(mu[t][i] * y[t] for t in range(i + 1, m))
        if top and i >= cut:
            steps = itertools.count(int(i == cut))
        else:
            steps = _nearest_first(center)
        for yi in steps:
            value = used + bstar[i] * (yi - center) ** 2
            if value > best * (1 + _RADIUS_SLACK):
                break
            nodes += 1
            y[i] = yi
            if i:
                descend(i - 1, value, top and yi == 0)
            else:
                found.append((value, tuple(y)))
                best = min(best, value)
        y[i] = 0

    descend(m - 1, 0.0, True)
    limit = best * (1 + _RADIUS_SLACK)
    return [(v, vec) for v, vec in found if v <= limit], nodes


def successive_minima(gram):
    """Exact successive minima of a positive definite Gram matrix.

    The basis is LLL-reduced (Lenstra-Lenstra-Lovasz, Math. Ann. 261,
    1982) with exact integer transforms, and the minima are found one at
    a time.  The k-th witness is the least vector, by value and then by
    vector, outside the span of the k - 1 before it; these are the
    witnesses a greedy pass over all vectors sorted that way would pick.
    To find it, the basis is changed so that its first k - 1 vectors span
    the integer points of that span (`_saturated_basis`), each block is
    LLL-reduced without mixing the two, and Fincke-Pohst enumeration
    (Math. Comp. 44, 1985; Cohen, GTM 138, sections 2.6-2.7) prunes every
    subtree whose later coordinates are all zero.  Its bound starts at the
    least value of a basis vector outside the span and shrinks to the
    best value found, so the enumeration never lists a vector inside the
    span, however widely the minima are spread.  Each candidate is
    valued on the original Gram matrix.  The bound alone certifies the
    result; LLL only makes it cheap.

    `exact` is false only if rounding lost every candidate of some step;
    that step then takes the basis vector its bound came from, which is
    outside the span, so every product of the minima stays an upper
    bound for the true one.
    """
    m = len(gram)
    if m == 0:
        return MinimaResult((), (), True, 0.0, 0)
    q_mat = [[float(x) for x in row] for row in gram]
    if not all(pivot > 0 for pivot in arith.ldl_pivots(q_mat)):
        raise DependentPoints("Gram matrix is not positive definite")
    basis, g, mu, bstar = _lll(q_mat, [[int(i == j) for j in range(m)] for i in range(m)])
    minima, witnesses = [], []
    exact, radius, nodes = True, 0.0, 0
    for k in range(m):
        if k:
            basis, g, mu, bstar = _lll(q_mat, _saturated_basis(witnesses), cut=k)
        bound, first = min((g[i][i], i) for i in range(k, m))
        radius = max(radius, bound * (1 + _RADIUS_SLACK))
        found, visited = _shortest_outside(mu, bstar, k, bound)
        nodes += visited
        exact = exact and bool(found)
        coefficients = [vec for _, vec in found] or [[int(i == first) for i in range(m)]]
        candidates = []
        for c in coefficients:
            vec = [sum(ci * row[t] for ci, row in zip(c, basis)) for t in range(m)]
            value = _form_value(q_mat, vec)
            candidates += [(value, tuple(vec)), (value, tuple(-x for x in vec))]
        value, vec = min(candidates)
        minima.append(math.sqrt(max(value, 0.0)))
        witnesses.append(vec)
    return MinimaResult(tuple(minima), tuple(witnesses), exact, radius, nodes)


def check_regulator_theorem(cs):
    """Minkowski product bound plus the implied regulator constant.

    (a) the product of the quadratic-form minima lambda_i^2 is at most
        m^(m/2) Reg -- equality in rank 1 when the supplied point
        generates (pass/fail);
    (b) report-only implied c10 = Reg^(2/m) / max(h+, 1).
    """
    if cs.rank == 0 or not cs.gram:
        return []
    m = cs.rank
    result = successive_minima(cs.gram)
    product = 1.0
    for vec in result.witnesses:
        product *= _form_value(cs.gram, vec)
    note = "minima %s" % "/".join("%.6g" % x for x in result.minima)
    minkowski = _judge(
        "minkowski_minima", cs.label, m ** (m / 2) * cs.regulator, product, note
    )
    c10 = cs.regulator ** (2.0 / m) / max(cs.h_faltings, 1.0)
    report = _report(
        "regulator_c10", cs.label, c10, 0.0, "implied c10 = %.6g" % c10
    )
    return [minkowski, report]


# ---------------------------------------------------------------------------
# analytic estimates and corpus scans


def _sample_reduced_tau(count, seed=20260809):
    rng = random.Random(seed)
    points = [complex(0, 1), complex(0.5, math.sqrt(3) / 2)]
    while len(points) < count + 2:
        re = rng.uniform(-0.5, 0.4999)
        im = rng.uniform(0.867, 3.0)
        if re * re + im * im >= 1.0001:
            points.append(complex(re, im))
    return points


def check_analytic_estimates():
    """The two archimedean estimates behind the semistable height bound."""
    series = math.fsum(math.log1p(math.exp(-math.sqrt(3) * math.pi * n)) for n in range(1, 80))
    series_row = _judge(
        "analytic_series",
        "q-tail",
        0.005,
        series,
        "series value %.6f" % series,
    )
    points = _sample_reduced_tau(100)
    worst = min(-analytic.log_scaled_discriminant(z) for z in points)
    nonneg_row = _judge(
        "analytic_nonneg",
        "fundamental-domain",
        worst,
        0.0,
        "min of -log(|delta| (2 Im)^6) over %d reduced points" % len(points),
    )
    return [series_row, nonneg_row]


def _scan(check_id, hits, bound, what):
    hits = sorted(hits)
    note = "%s <= %g: %s" % (what, bound, ", ".join(hits) or "(none)")
    return _report(check_id, "(corpus)", float(len(hits)), bound, note)


def northcott_fields(field_stats, bound):
    hits = (f.label for f in field_stats if not f.is_cm and f.regulator <= bound)
    return _scan("northcott_fields", hits, bound, "non-CM fields with R")


def northcott_curves(curve_stats, bound):
    hits = (c.label for c in curve_stats if c.rank > 0 and c.regulator <= bound)
    return _scan("northcott_curves", hits, bound, "positive-rank curves with Reg")


# ---------------------------------------------------------------------------
# the full run


# (ids of its rows, scope, function name) per check, in the order of its rows
CHECKS = (
    (("analytic_nonneg", "analytic_series"), "constant", "check_analytic_estimates"),
    (("hermite_minkowski_a", "hermite_minkowski_b"), "field", "check_hermite_minkowski"),
    (("friedman",), "field", "check_friedman"),
    (("silverman_friedman_c3",), "field", "report_silverman_friedman"),
    (("friedman_skoruppa",), "field pair", "check_friedman_skoruppa"),
    (("silverman_friedman_c3",), "field minimum", "implied_c3"),
    (("semistable_height",), "curve", "check_semistable_height_bound"),
    (("general_height",), "curve", "check_general_height_bound"),
    (("injectivity_main", "injectivity_matrix"), "curve", "check_injectivity_theorem"),
    (("rank_bound",), "curve", "check_rank_bound"),
    (("lang_silverman_c4",), "curve", "report_lang_silverman"),
    (("minkowski_minima", "regulator_c10"), "curve", "check_regulator_theorem"),
    (("lang_silverman_c4",), "curve minimum", "implied_c4"),
    (("northcott_fields",), "fields", "northcott_fields"),
    (("northcott_curves",), "curves", "northcott_curves"),
)

ALL_CHECKS = tuple(sorted({i for ids, _, _ in CHECKS for i in ids}))

_CHECK_ALIASES = {"hm": ("hermite_minkowski_a", "hermite_minkowski_b")}


def expand_selection(tokens):
    """Map filter tokens to check ids: exact ids, aliases, or prefixes."""
    if "" in tokens:  # a prefix of every id, so it would select them all
        raise ValueError("--checks must not hold an empty check id")
    wanted = set()
    for token in tokens:
        if token in _CHECK_ALIASES:
            wanted.update(_CHECK_ALIASES[token])
        elif token in ALL_CHECKS:
            wanted.add(token)
        else:
            hits = [c for c in ALL_CHECKS if c.startswith(token)]
            if not hits:
                raise ValueError("unknown check '%s'" % token)
            wanted.update(hits)
    return wanted


def _selection(selected):
    """The selected check ids (all for None) and the checks that make one."""
    wanted = set(ALL_CHECKS) if selected is None else expand_selection(selected)
    return wanted, [check for check in CHECKS if not wanted.isdisjoint(check[0])]


def reads(selected=None):
    """The kinds of record, of "field" and "curve", whose stats the selected
    checks read; a bad token raises as in expand_selection."""
    _, checks = _selection(selected)
    return {kind for _, scope, _ in checks for kind in ("field", "curve") if scope.startswith(kind)}


def _corpus_minimum(check_id, implied):
    """The report row of the least of the per-record implied constants, if any."""
    values = [v for v in implied if v is not None]
    note = "corpus minimum of implied %s" % check_id.rsplit("_", 1)[1]  # c3, c4
    return [_report(check_id, "(corpus)", min(values), 0.0, note)] if values else []


def run_checks(field_stats, curve_stats, selected=None, northcott_bound=1.0):
    """The rows of the selected checks (all by default) over the corpus,
    deterministically sorted by (id, object); only the checks that make a
    selected row run."""
    wanted, checks = _selection(selected)
    fields, curves = list(field_stats), list(curve_stats)
    named = {f.label: f for f in fields}
    calls = {
        "constant": [()],
        "field": [(f,) for f in fields],
        "field pair": [(f, named[f.subfield_label]) for f in fields if f.subfield_label in named],
        "curve": [(c,) for c in curves],
        "fields": [(fields, northcott_bound)],
        "curves": [(curves, northcott_bound)],
    }
    rows = []
    for ids, scope, name in checks:
        made = [globals()[name](*args) for args in calls[scope.removesuffix(" minimum")]]
        if scope.endswith(" minimum"):
            made = _corpus_minimum(ids[0], made)
        for out in made:  # a check makes one row or a list of them
            rows += out if isinstance(out, list) else [out]
    rows = [r for r in rows if r.check_id in wanted]
    return sorted(rows, key=lambda r: (r.check_id, r.object_label))
