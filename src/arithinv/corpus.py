"""Corpus ingestion: the line-oriented record format and the bundled
fixture corpus, plus assembly of per-object check contexts.

`parse_corpus` / `load_corpus` read every record; `read_records` /
`load_record` read only one record's block and, for a field, its
declared subfield's.  Both use the same block grammar.  The bundled
corpus is read by path.  Records here and elsewhere are NamedTuples,
compared by value like tuples; a `CorpusRecord` ignores its ``line``.

Format (UTF-8, ``#`` comments, records separated by blank lines)::

    field <label>
    poly = c0 c1 ... cd        # integers, constant first, monic
    disc = <int>               # optional for degree <= 2
    w = <int>                  # roots of unity, optional (default 6 for
                               # disc -3, 4 for disc -4, else 2)
    units = q0 q1 ... ; ...    # optional; power-basis rationals per unit
    subfield = <label>         # optional certificate
    r0 = <int>                 # optional max proper-subfield unit rank

    curve <label>
    a = a1 a2 a3 a4 a6         # rationals
    rank = <int>               # >= 0
    gens = x,y ; x,y ; ...     # rank generators on this model (none for rank 0)
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple

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


class CorpusRecord(NamedTuple):
    kind: str  # "field" | "curve"
    label: str
    body: tuple  # ((key, value), ...) in canonical key order
    line: int = 0  # source line of the header; not part of the record's value

    def get(self, key, default=None):
        for k, v in self.body:
            if k == key:
                return v
        return default

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):  # tuple's own != would compare line too
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:3])


class Corpus(NamedTuple):
    records: tuple
    fields: dict  # label -> field record, in corpus order
    curves: dict  # label -> curve record, in corpus order


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


def _duplicate(kind, label, first, line):
    return DuplicateLabel("duplicate %s label '%s' (first at line %d)" % (kind, label, first), line)


def _dangling(rec):
    return DanglingSubfieldRef(
        "field '%s' references unknown subfield '%s'" % (rec.label, rec.get("subfield")), rec.line
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
            raise _duplicate(kind, label, labels[kind][label].line, i + 1)
        rec, i = _block(lines, i, kind, label)
        records.append(rec)
        labels[kind][label] = rec

    for rec in labels["field"].values():
        sub = rec.get("subfield")
        if sub is not None and sub not in labels["field"]:
            raise _dangling(rec)
    return Corpus(tuple(records), labels["field"], labels["curve"])


def _read_block(lines, kind, label):
    """The record of the `kind label` block, or None if no block has that
    header; no other block is parsed.

    A block starts at the first line or after a blank or comment-only
    line, where the full parse expects a header; a `kind label` line
    anywhere else is inside another block.  The lines holding label are
    a superset of the headers, and only they are split.
    """
    starts = [
        i
        for i, line in enumerate(lines)
        if label in line
        and (i == 0 or not _content(lines[i - 1]))
        and _content(line).split() == [kind, label]
    ]
    if not starts:
        return None
    rec, _ = _block(lines, starts[0], kind, label)
    if len(starts) > 1:
        raise _duplicate(kind, label, starts[0] + 1, starts[1] + 1)
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
    found = {"field": {}, "curve": {}}
    rec = _read_block(lines, kind, label)
    if rec is not None:
        found[kind][label] = rec
        sub = rec.get("subfield")
        if sub is not None and sub not in found["field"]:
            subrec = _read_block(lines, "field", sub)
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


BUNDLED_CORPUS = os.path.join(os.path.dirname(__file__), "data", "corpus.txt")


def _corpus_text(path):
    with open(BUNDLED_CORPUS if path is None else path, encoding="utf-8") as handle:
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


def _parse_units(value):
    return [_parse_fractions(chunk) for chunk in value.split(";")]


def _parse_points(value):
    pairs = [chunk.split(",") for chunk in value.split(";")] if value else []
    return [ellcurve.Point.of(x, y) for x, y in pairs]


def _parsed(rec, key, parse):
    """parse(value of key in rec), or None if rec has no such key; a value
    that parse rejects raises ParseError naming the record and the key."""
    value = rec.get(key)
    if value is None:
        return None
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        message = "%s '%s': bad %s = %s (%s)" % (rec.kind, rec.label, key, value, exc)
        raise ParseError(message, rec.line) from None


def build_field_record(corpus, label):
    """NumberField + verified units for a corpus field record."""
    rec = corpus.fields.get(label)
    if rec is None:
        raise UnknownLabel("no field labelled '%s'" % label)
    poly = _parsed(rec, "poly", _parse_ints)
    unit_vecs = _parsed(rec, "units", _parse_units)
    r0 = _parsed(rec, "r0", int)
    K = numfield.number_field(
        label, poly, disc=_parsed(rec, "disc", int), w=_parsed(rec, "w", int)
    )
    units = numfield.unit_system(K, unit_vecs) if unit_vecs is not None else None
    if r0 is None and len(poly) <= 3:
        r0 = 0
    return numfield.FieldRecord(K, units, rec.get("subfield"), r0)


def build_curve_data(corpus, label):
    """The record, its minimal model, rank and generators mapped to that
    model and checked there (it holds them exactly when the parsed one does)."""
    rec = corpus.curves.get(label)
    if rec is None:
        raise UnknownLabel("no curve labelled '%s'" % label)
    a_invs = _parsed(rec, "a", _parse_fractions)
    if len(a_invs) != 5:
        raise ParseError("curve '%s': need 5 coefficients a1 a2 a3 a4 a6" % label, rec.line)
    rank = _parsed(rec, "rank", int)
    gens = _parsed(rec, "gens", _parse_points) or []
    if rank < 0:
        raise ParseError("curve '%s': bad rank = %d (negative)" % (label, rank), rec.line)
    if len(gens) != rank:
        message = "curve '%s': rank = %d, but gens lists %d" % (label, rank, len(gens))
        raise ParseError(message, rec.line)
    mm = ellcurve.minimal_model(a_invs)
    gens_min = tuple(mm.to_minimal(p) for p in gens)
    for point, moved in zip(gens, gens_min):
        if not ellcurve.on_curve(mm.curve, moved):
            raise PointNotOnCurve(
                "curve '%s': generator %s,%s is not on the curve" % (label, point.x, point.y)
            )
    return rec, mm, rank, gens_min


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


class CurveInvariants(NamedTuple):
    """Everything computed for one curve record, each invariant once."""

    model: ellcurve.MinimalModel
    reduction: ellcurve.ReductionData
    periods: analytic.PeriodData
    stats: ledger.CurveStats


def curve_stats_one(corpus, label, tol=ellcurve.DEFAULT_TOL):
    """CurveInvariants of a single curve record."""
    _, mm, rank, gens_min = build_curve_data(corpus, label)
    reduction = ellcurve.reduction_data(mm)
    periods = analytic.agm_periods(mm.curve)
    h_plus = ellcurve.faltings_height_plus(mm, periods)
    mw = ellcurve.mw_regulator(mm.curve, list(gens_min), rank, tol)
    stats = ledger.CurveStats(
        label=label,
        n0=reduction.n0,
        semistable=reduction.semistable,
        tau_im=float(periods.tau.im),
        h_faltings=h_plus,
        rank=rank,
        gram=mw.gram,
        regulator=mw.regulator,
    )
    return CurveInvariants(mm, reduction, periods, stats)


def curve_stats(corpus, tol=ellcurve.DEFAULT_TOL):
    """CurveStats rows for every curve record, in corpus order."""
    return [curve_stats_one(corpus, label, tol).stats for label in corpus.curves]
