"""Corpus ingestion: the line-oriented record format and the bundled
fixture corpus, plus assembly of per-object check contexts.

`parse_corpus` / `load_corpus` read every record; `read_records` /
`load_record` read only one record's block and, for a field, its
declared subfield's.  Both use the same block grammar.  The bundled
corpus is read by path.  Records here and elsewhere are NamedTuples,
compared by value as tuples, so a `CorpusRecord`'s ``line`` is part of
its value; ``r[:3]`` is the record without it.

Format (UTF-8, ``#`` comments, records separated by blank lines)::

    field <label>
    poly = c0 c1 ... cd        # integers, constant first, monic
    disc = <int>               # nonzero, optional for degree <= 2
    w = <int>                  # roots of unity, even > 0; checked where the
                               # field fixes it, required for a totally
                               # complex field of degree > 2
    units = q0 q1 ... ; ...    # optional; power-basis rationals per unit
    subfield = <label>         # optional certificate; degree a proper divisor of K's
    r0 = <int>                 # optional max proper-subfield unit rank, <= K's;
                               # 0 for Q and prime degree

    curve <label>
    a = a1 a2 a3 a4 a6         # rationals
    rank = <int>               # >= 0
    gens = x,y ; x,y ; ...     # rank generators on this model (none for rank 0)
"""

from __future__ import annotations

import contextlib
import os
from fractions import Fraction
from typing import NamedTuple

from . import analytic, arith, ellcurve, ledger, numfield
from .errors import (
    DanglingSubfieldRef,
    DuplicateLabel,
    InvariantError,
    NotASubfield,
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
    line: int = 0  # source line of the header

    def get(self, key, default=None):
        for k, v in self.body:
            if k == key:
                return v
        return default


class Corpus(NamedTuple):
    records: tuple
    fields: dict  # label -> field record, in corpus order
    curves: dict  # label -> curve record, in corpus order


def _content(raw):
    """A line without its comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


def _header(lines, start):
    """(kind, label) of the header line lines[start].

    A label may not start with '(': the ledger names its corpus-wide rows
    "(corpus)", so such a label could pass for one of them.
    """
    parts = _content(lines[start]).split()
    if len(parts) != 2 or parts[0] not in REQUIRED:
        raise ParseError("expected 'field <label>' or 'curve <label>'", start + 1)
    if parts[1].startswith("("):
        raise ParseError("label '%s' may not start with '('" % parts[1], start + 1)
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
    rec, _ = _block(lines, starts[0], *_header(lines, starts[0]))
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
    """Canonical text for records; a round trip holds up to ``line``:
    [r[:3] for r in parse_corpus(emit_corpus(records)).records] ==
    [r[:3] for r in records]."""
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


def _rational(tok):
    try:  # an int for an integral token, else its Fraction
        return int(tok)
    except ValueError:
        return Fraction(tok)


def _parse_rationals(value):
    return [_rational(tok) for tok in value.split()]


def _parse_units(value):
    return [_parse_rationals(chunk) for chunk in value.split(";")]


def _parse_points(value):
    pairs = [chunk.split(",") for chunk in value.split(";")] if value else []
    return [(_rational(x), _rational(y)) for x, y in pairs]


def _parsed(rec, key, parse):
    """parse(value of key in rec), or None if rec has no such key; a value
    that parse rejects raises ParseError naming the key."""
    value = rec.get(key)
    if value is None:
        return None
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad %s = %s (%s)" % (key, value, exc), rec.line) from None


@contextlib.contextmanager
def _named(kind, label):
    """A block that puts "kind 'label': " before the message of any
    InvariantError raised in it (a ParseError's line number stays first).
    Each build stage of a record runs in one, so every build error names its
    record here, and no message below it carries a label."""
    try:
        yield
    except InvariantError as exc:
        exc.args = ("%s '%s': %s" % (kind, label, exc.args[0]),)
        raise


def build_field_record(corpus, label):
    """NumberField + verified units for a corpus field record."""
    rec = corpus.fields.get(label)
    if rec is None:
        raise UnknownLabel("no field labelled '%s'" % label)
    with _named("field", label):
        poly = _parsed(rec, "poly", _parse_ints)
        unit_vecs = _parsed(rec, "units", _parse_units)
        r0 = _parsed(rec, "r0", int)
        K = numfield.number_field(label, poly, disc=_parsed(rec, "disc", int), w=_parsed(rec, "w", int))
        if r0 is not None and not 0 <= r0 <= numfield.unit_rank(K):
            bound = "a proper subfield's unit rank is at most K's, %d" % numfield.unit_rank(K)
            raise InvariantError("bad r0 = %d (%s)" % (r0, bound))
        if K.degree == 1 or arith.is_prime(K.degree):  # Q is the one proper subfield
            if r0 not in (None, 0):
                bound = "a field of prime degree has no proper subfield but Q"
                raise InvariantError("bad r0 = %d (%s)" % (r0, bound))
            r0 = 0
        units = numfield.unit_system(K, unit_vecs) if unit_vecs is not None else None
    return numfield.FieldRecord(K, units, rec.get("subfield"), r0)


def build_curve_data(corpus, label):
    """The record, its minimal model, rank and generators mapped to that
    model and checked there (it holds them exactly when the parsed one does)."""
    rec = corpus.curves.get(label)
    if rec is None:
        raise UnknownLabel("no curve labelled '%s'" % label)
    with _named("curve", label):
        a_invs = _parsed(rec, "a", _parse_rationals)
        if len(a_invs) != 5:
            raise ParseError("need 5 coefficients a1 a2 a3 a4 a6", rec.line)
        rank = _parsed(rec, "rank", int)
        gens = _parsed(rec, "gens", _parse_points) or []
        if rank < 0:
            raise ParseError("bad rank = %d (negative)" % rank, rec.line)
        if len(gens) != rank:
            raise ParseError("rank = %d, but gens lists %d" % (rank, len(gens)), rec.line)
        mm = ellcurve.minimal_model(a_invs)
        gens_min = []
        for x, y in gens:
            try:
                point = mm.to_minimal(x, y)
            except PointNotOnCurve:  # the image has no integral form
                point = None
            if point is None or not ellcurve.on_curve(mm.curve, point):
                raise PointNotOnCurve("generator %s,%s is not on the curve" % (x, y))
            gens_min.append(point)
    return rec, mm, rank, tuple(gens_min)


def field_record_stats(record, subrecord):
    """FieldStats of a field record; subrecord is its declared subfield's or
    None, and its degree must be a proper divisor of the field's."""
    K = record.field
    with _named("field", K.label):
        d0 = subrecord.field.degree if subrecord is not None else None
        if d0 is not None and (d0 == K.degree or K.degree % d0):
            message = "subfield %s has degree %d, not a proper divisor of %d"
            raise NotASubfield(message % (record.subfield_label, d0, K.degree))
        regulator = numfield.field_regulator(record)
    return ledger.FieldStats(
        label=K.label,
        degree=K.degree,
        r1=K.r1,
        r2=K.r2,
        disc=K.disc,
        w=K.w,
        regulator=regulator,
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


def curve_stats_one(corpus, label):
    """CurveInvariants of a single curve record."""
    _, mm, rank, gens_min = build_curve_data(corpus, label)
    with _named("curve", label):
        reduction = ellcurve.reduction_data(mm)
        periods = analytic.agm_periods(mm.curve)
        h_plus = ellcurve.faltings_height_plus(periods)
        mw = ellcurve.mw_regulator(mm.curve, list(gens_min), rank)
    stats = ledger.CurveStats(
        label=label,
        n0=reduction.n0,
        semistable=reduction.semistable,
        tau_im=periods.tau.im,
        h_faltings=h_plus,
        rank=rank,
        gram=mw.gram,
        regulator=mw.regulator,
    )
    return CurveInvariants(mm, reduction, periods, stats)


def curve_stats(corpus):
    """CurveStats rows for every curve record, in corpus order."""
    return [curve_stats_one(corpus, label).stats for label in corpus.curves]
