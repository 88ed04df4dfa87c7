"""Corpus ingestion: the line-oriented record format and the bundled
fixture corpus, plus assembly of per-object check contexts.

`parse_corpus` / `load_corpus` read every record; `read_records` /
`load_record` read only one record's block and, for a field, its
declared subfield's.  Both use the same block grammar.

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
import re
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


def _content(raw):
    """A line without its comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


def _header(lines, start):
    """(kind, label) of the header line lines[start]."""
    parts = _content(lines[start]).split()
    if len(parts) != 2 or parts[0] not in REQUIRED:
        raise ParseError("expected 'field <label>' or 'curve <label>'", start + 1)
    return parts[0], parts[1]


def _block(lines, start, kind, label):
    """The record of the block headed `kind label` at lines[start], and the
    index of the first line after the block.

    A block runs to the next blank or comment-only line; this is the one
    block grammar, shared by the full parse and the record read.
    """
    allowed = FIELD_KEYS if kind == "field" else CURVE_KEYS
    body = {}
    end = start + 1
    while end < len(lines):
        line = _content(lines[end])
        if not line:
            break
        if "=" not in line:
            raise ParseError("expected 'key = value'", end + 1)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ParseError("unknown key '%s' in %s record" % (key, kind), end + 1)
        if key in body:
            raise ParseError("duplicate key '%s'" % key, end + 1)
        body[key] = " ".join(value.split())
        end += 1
    for key in REQUIRED[kind]:
        if key not in body:
            raise ParseError("record '%s' is missing key '%s'" % (label, key), start + 1)
    body = tuple((k, body[k]) for k in allowed if k in body)
    return CorpusRecord(kind, label, body, start + 1), end


def _duplicate(kind, label):
    return DuplicateLabel("duplicate %s label '%s'" % (kind, label))


def _dangling(rec):
    return DanglingSubfieldRef(
        "field '%s' references unknown subfield '%s'" % (rec.label, rec.get("subfield"))
    )


def parse_corpus(text):
    """Parse corpus text; raises ParseError with a line number on bad input."""
    lines = text.splitlines()
    records = []
    labels = {"field": {}, "curve": {}}  # kind -> {label: record}
    i = 0
    while i < len(lines):
        if not _content(lines[i]):
            i += 1
            continue
        kind, label = _header(lines, i)
        if label in labels[kind]:
            raise _duplicate(kind, label)
        rec, i = _block(lines, i, kind, label)
        records.append(rec)
        labels[kind][label] = rec

    for rec in labels["field"].values():
        sub = rec.get("subfield")
        if sub is not None and sub not in labels["field"]:
            raise _dangling(rec)
    return Corpus(tuple(records), labels["field"], labels["curve"])


def _read_block(lines, joined, kind, label):
    """The record of the `kind label` block, or None if no block has that
    header; no other block is parsed.

    A block starts at the first line or after a blank or comment-only
    line, where the full parse expects a header; a `kind label` line
    anywhere else is inside another block.  joined is "\\n".join(lines).
    """
    header = re.compile(r"%s[^\S\n]+%s(?=[^\S\n]*(?:#|$))" % (kind, re.escape(label)), re.M)
    candidates = []  # lines where the header pattern matches, a superset of the headers
    line = pos = 0
    for match in header.finditer(joined):
        line += joined.count("\n", pos, match.start())
        pos = match.start()
        candidates.append(line)
    starts = [
        i
        for i in dict.fromkeys(candidates)
        if (i == 0 or not _content(lines[i - 1])) and _content(lines[i]).split() == [kind, label]
    ]
    if not starts:
        return None
    rec, _ = _block(lines, starts[0], kind, label)
    if len(starts) > 1:
        raise _duplicate(kind, label)
    return rec


def read_records(text, kind, label):
    """The Corpus of the `kind label` record and, for a field, its declared
    subfield, parsing only their blocks.

    Those blocks raise the same errors as in parse_corpus, and a malformed
    record elsewhere in text is never read.  A missing label gives an
    empty Corpus, so build_field_record / build_curve_data raise
    UnknownLabel.
    """
    lines = text.splitlines()
    joined = "\n".join(lines)
    found = {"field": {}, "curve": {}}
    rec = _read_block(lines, joined, kind, label)
    if rec is not None:
        found[kind][label] = rec
        sub = rec.get("subfield")
        if sub is not None and sub not in found["field"]:
            subrec = _read_block(lines, joined, "field", sub)
            if subrec is None:
                raise _dangling(rec)
            found["field"][sub] = subrec
    records = sorted((*found["field"].values(), *found["curve"].values()), key=lambda r: r.line)
    return Corpus(tuple(records), found["field"], found["curve"])


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


def _corpus_text(path):
    if path is None:
        return bundled_corpus_text()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def load_corpus(path=None):
    """The whole corpus at path (default: the bundled one), every record parsed."""
    return parse_corpus(_corpus_text(path))


def load_record(path, kind, label):
    """read_records of the corpus at path (default: the bundled one)."""
    return read_records(_corpus_text(path), kind, label)


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
