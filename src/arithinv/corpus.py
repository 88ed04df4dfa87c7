"""Corpus ingestion: the line-oriented record format and the bundled
fixture corpus, plus assembly of per-object check contexts.

Format (UTF-8, ``#`` comments, records separated by blank lines)::

    field <label>
    poly = c0 c1 ... cd        # integers, constant first, monic
    disc = <int>               # optional for degree <= 2
    w = <int>                  # roots of unity, optional (default 2)
    units = q0 q1 ... ; ...    # optional; power-basis rationals per unit
    subfield = <label>         # optional certificate
    r0 = <int>                 # optional max proper-subfield unit rank

    curve <label>
    a = a1 a2 a3 a4 a6         # rationals
    rank = <int>
    gens = x,y ; x,y ; ...     # optional generators on this model
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from fractions import Fraction

from . import analytic, ellcurve, ledger, numfield
from .errors import (
    DanglingSubfieldRef,
    DuplicateLabel,
    ParseError,
    PointNotOnCurve,
    UnknownLabel,
)

FIELD_KEYS = ("poly", "disc", "w", "units", "subfield", "r0")
CURVE_KEYS = ("a", "rank", "gens")
REQUIRED = {"field": ("poly",), "curve": ("a", "rank")}


@dataclass(frozen=True)
class CorpusRecord:
    kind: str  # "field" | "curve"
    label: str
    body: tuple  # ((key, value), ...) in canonical key order
    line: int = field(default=0, compare=False)

    def get(self, key, default=None):
        for k, v in self.body:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Corpus:
    records: tuple
    fields: dict = field(compare=False)  # label -> field record, in corpus order
    curves: dict = field(compare=False)  # label -> curve record, in corpus order


def parse_corpus(text):
    """Parse corpus text; raises ParseError with a line number on bad input."""
    records = []
    labels = {"field": {}, "curve": {}}  # kind -> {label: record}
    current = None  # (kind, label, {key: value}, line)

    def close(current):
        kind, label, body, line = current
        for key in REQUIRED[kind]:
            if key not in body:
                raise ParseError("record '%s' is missing key '%s'" % (label, key), line)
        order = FIELD_KEYS if kind == "field" else CURVE_KEYS
        rec = CorpusRecord(kind, label, tuple((k, body[k]) for k in order if k in body), line)
        records.append(rec)
        labels[kind][label] = rec

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current is not None:
                close(current)
                current = None
            continue
        if current is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("field", "curve"):
                raise ParseError("expected 'field <label>' or 'curve <label>'", lineno)
            kind, label = parts
            if label in labels[kind]:
                raise DuplicateLabel("duplicate %s label '%s'" % (kind, label))
            current = (kind, label, {}, lineno)
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = " ".join(value.split())
        kind, label, body, start = current
        allowed = FIELD_KEYS if kind == "field" else CURVE_KEYS
        if key not in allowed:
            raise ParseError("unknown key '%s' in %s record" % (key, kind), lineno)
        if key in body:
            raise ParseError("duplicate key '%s'" % key, lineno)
        body[key] = value
    if current is not None:
        close(current)

    for rec in labels["field"].values():
        if rec.get("subfield") not in (None,):
            if rec.get("subfield") not in labels["field"]:
                raise DanglingSubfieldRef(
                    "field '%s' references unknown subfield '%s'"
                    % (rec.label, rec.get("subfield"))
                )
    return Corpus(tuple(records), labels["field"], labels["curve"])


def emit_corpus(records):
    """Canonical text for records; parse(emit(r)) == r."""
    blocks = []
    for rec in records:
        lines = ["%s %s" % (rec.kind, rec.label)]
        lines.extend("%s = %s" % (k, v) for k, v in rec.body)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def bundled_corpus_text():
    return (
        importlib.resources.files("arithinv").joinpath("data/corpus.txt").read_text()
    )


def load_corpus(path=None):
    if path is None:
        return parse_corpus(bundled_corpus_text())
    with open(path, encoding="utf-8") as handle:
        return parse_corpus(handle.read())


# ---------------------------------------------------------------------------
# typed views


def _parse_ints(value):
    return [int(tok) for tok in value.split()]


def _parse_fractions(value):
    return [Fraction(tok) for tok in value.split()]


def build_field_record(corpus, label):
    """NumberField + verified units for a corpus field record."""
    rec = corpus.fields.get(label)
    if rec is None:
        raise UnknownLabel("no field labelled '%s'" % label)
    poly = _parse_ints(rec.get("poly"))
    disc = int(rec.get("disc")) if rec.get("disc") is not None else None
    w = int(rec.get("w")) if rec.get("w") is not None else None
    degree = len(poly) - 1
    if w is None and degree == 2 and poly[1] == 0:
        w = {-1: 4, -3: 6}.get(-poly[0], 2)
    K = numfield.number_field(label, poly, disc=disc, w=w if w is not None else 2)
    units = None
    if rec.get("units") is not None:
        unit_vecs = [
            _parse_fractions(chunk) for chunk in rec.get("units").split(";")
        ]
        units = numfield.unit_system(K, unit_vecs)
    r0 = rec.get("r0")
    r0 = int(r0) if r0 is not None else (0 if degree <= 2 else None)
    return numfield.FieldRecord(K, units, rec.get("subfield"), r0)


def build_curve_data(corpus, label):
    """The record, its curve, minimal model, rank and generators on that model."""
    rec = corpus.curves.get(label)
    if rec is None:
        raise UnknownLabel("no curve labelled '%s'" % label)
    a_invs = _parse_fractions(rec.get("a"))
    if len(a_invs) != 5:
        raise ParseError("curve '%s': need 5 coefficients a1 a2 a3 a4 a6" % label)
    curve = ellcurve.weierstrass_curve(*a_invs)
    rank = int(rec.get("rank"))
    gens = []
    if rec.get("gens"):
        for chunk in rec.get("gens").split(";"):
            x, y = chunk.split(",")
            gens.append(ellcurve.Point.of(Fraction(x.strip()), Fraction(y.strip())))
    for point in gens:
        if not ellcurve.on_curve(curve, point):
            raise PointNotOnCurve(
                "curve '%s': generator %s is not on the curve" % (label, point)
            )
    mm = ellcurve.minimal_model(curve)
    gens_min = tuple(mm.to_minimal(p) for p in gens)
    return rec, curve, mm, rank, gens_min


def field_record_stats(record, subrecord):
    """FieldStats of a field record; subrecord is its declared subfield's or None."""
    K = record.field
    return ledger.FieldStats(
        label=K.label,
        degree=K.degree,
        r1=K.r1,
        r2=K.r2,
        disc=K.disc,
        w=K.w,
        regulator=numfield.field_regulator(record),
        r0=record.r0,
        subfield_label=record.subfield_label,
        is_cm=subrecord is not None and numfield.is_cm_shape(K, subrecord.field),
    )


def field_stats(corpus):
    """FieldStats rows for every field record, in corpus order."""
    records = {label: build_field_record(corpus, label) for label in corpus.fields}
    return [
        field_record_stats(rec, records.get(rec.subfield_label))
        for rec in records.values()
    ]


@dataclass(frozen=True)
class CurveInvariants:
    """Everything computed for one curve record, each invariant once."""

    model: ellcurve.MinimalModel
    reduction: ellcurve.ReductionData
    periods: analytic.PeriodData
    stats: ledger.CurveStats


def curve_stats_one(corpus, label, tol=1e-9):
    """CurveInvariants of a single curve record."""
    _, _, mm, rank, gens_min = build_curve_data(corpus, label)
    reduction = ellcurve.reduction_data(mm)
    periods = analytic.agm_periods(mm.curve)
    h_plus = ellcurve.faltings_height_plus(mm, periods)
    mw = ellcurve.mw_regulator(mm.curve, list(gens_min), rank, tol)
    gen_heights = tuple(mw.gram[i][i] for i in range(rank))
    stats = ledger.CurveStats(
        label=label,
        a_invariants=tuple(mm.curve.a_invariants),
        delta_min=int(mm.curve.delta),
        n0=reduction.n0,
        n_stable=reduction.n_stable,
        n_unstable=reduction.n_unstable,
        semistable=reduction.semistable,
        tau_im=float(periods.tau.im),
        h_faltings=h_plus,
        rank=rank,
        gen_heights=gen_heights,
        gram=mw.gram,
        regulator=mw.regulator,
    )
    return CurveInvariants(mm, reduction, periods, stats)


def curve_stats(corpus, tol=1e-9):
    """CurveStats rows for every curve record, in corpus order."""
    return [curve_stats_one(corpus, label, tol).stats for label in corpus.curves]
