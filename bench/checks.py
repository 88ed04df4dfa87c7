"""Output checks of the arithinv benchmark; each returns a list of problems.

An operation whose check returns a non-empty list counts as failed.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

HEIGHT_TOL = 1e-6  # absolute slack on top of the oracle's own error bound
MINIMA_REL = 1e-9


def fmt(x):
    """The report's printed precision."""
    return "%.12g" % x


def row_digest(rows):
    """Digest of one object's report rows, values at the printed precision."""
    lines = sorted(
        "|".join((r["check_id"], fmt(r["lhs"]), fmt(r["rhs"]), fmt(r["margin"]), r["verdict"], r["note"]))
        for r in rows
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def rows_by_object(report):
    out = {}
    for row in report["rows"]:
        out.setdefault(row["object"], []).append(row)
    return out


def check_verify_report(report, labels, reference):
    """No fail verdict; every record's rows match the baseline reference."""
    problems = []
    fails = [r for r in report["rows"] if r["verdict"] == "fail"]
    if fails:
        problems.append("%d fail verdicts, first %s/%s" % (len(fails), fails[0]["check_id"], fails[0]["object"]))
    by_object = rows_by_object(report)
    for label in list(labels) + sorted(reference["corpus_free"]):
        want = reference["objects"].get(label) or reference["corpus_free"].get(label)
        rows = by_object.get(label)
        if want is None:
            problems.append("no reference for %s" % label)
        elif not rows:
            problems.append("no rows for %s" % label)
        elif row_digest(rows) != want:
            problems.append("rows for %s differ from the reference" % label)
    return problems


def check_query_output(kind, label, text):
    """Query printed its object; h+ (curves) is non-negative."""
    lines = text.splitlines()
    if not lines or lines[0].split() != [kind, label]:
        return ["output does not start with '%s %s'" % (kind, label)]
    for line in lines:
        parts = line.split()
        if parts[:1] == ["h_F+"]:
            value = float(parts[1])
            if not value >= 0.0:
                return ["h+ = %r is negative" % value]
    return []


def check_height_pair(h, oracle, bound):
    if abs(h - oracle) > bound + HEIGHT_TOL:
        return ["|hhat - oracle| = %.3g exceeds bound %.3g + %g" % (abs(h - oracle), bound, HEIGHT_TOL)]
    return []


def check_quadratic(h_k, h_1, k):
    if abs(h_k - k * k * h_1) > HEIGHT_TOL * k * k:
        return ["hhat(%dP) = %.12g but k^2 hhat(P) = %.12g" % (k, h_k, k * k * h_1)]
    return []


def check_close(got, want, rel, what):
    if abs(got - want) > rel * max(1.0, abs(want)):
        return ["%s = %.15g, reference %.15g" % (what, got, want)]
    return []


def _det(rows):
    """Exact determinant of a square matrix of ints or floats."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return 0.0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return float(det)


def check_minima(gram, result):
    """Independent witnesses whose norms are the minima; exact; Minkowski."""
    m = len(gram)
    problems = []
    if not result.exact:
        problems.append("result is not exact")
    if len(result.minima) != m or len(result.witnesses) != m:
        return problems + ["%d minima for rank %d" % (len(result.minima), m)]
    if _det(result.witnesses) == 0:
        problems.append("witnesses are dependent")
    for lam, vec in zip(result.minima, result.witnesses):
        norm2 = sum(vec[i] * gram[i][j] * vec[j] for i in range(m) for j in range(m))
        if abs(math.sqrt(max(norm2, 0.0)) - lam) > MINIMA_REL * max(1.0, lam):
            problems.append("witness %s has norm %.12g, minimum %.12g" % (vec, math.sqrt(norm2), lam))
    if any(b < a * (1 - MINIMA_REL) for a, b in zip(result.minima, result.minima[1:])):
        problems.append("minima are not ascending")
    product = math.prod(lam * lam for lam in result.minima)
    bound = m ** (m / 2) * _det(gram)
    if product > bound * (1 + MINIMA_REL):
        problems.append("Minkowski bound fails: %.12g > %.12g" % (product, bound))
    return problems
