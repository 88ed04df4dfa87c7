"""The corpus grammar: the full parse and the record read agree.

`corpus.parse_corpus` reads every block of a corpus; `corpus.read_records`
reads only the block of one label and, for a field, its declared
subfield.  Both go through the same block grammar, so on the blocks the
record read touches they must return the same records (line numbers
included) and raise the same errors.
"""

import string
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithinv import corpus
from arithinv.corpus import CURVE_KEYS, FIELD_KEYS, CorpusRecord
from arithinv.errors import (
    DanglingSubfieldRef,
    DuplicateLabel,
    ParseError,
    PointNotOnCurve,
    UnknownLabel,
)

LABELS = st.text(string.ascii_letters + string.digits + "_-+.", min_size=1, max_size=6)
TOKENS = st.text(string.ascii_letters + string.digits + "-/,;.=", min_size=1, max_size=5)
VALUES = st.lists(TOKENS, min_size=1, max_size=3).map(" ".join)


@st.composite
def record_lists(draw):
    """Field and curve records with distinct labels per kind, in drawn order."""
    field_labels = draw(st.lists(LABELS, unique=True, max_size=4))
    curve_labels = draw(st.lists(LABELS, unique=True, max_size=4))
    records = []
    for label in field_labels:
        body = {"poly": draw(VALUES)}
        for key in ("disc", "w", "units", "r0"):
            if draw(st.booleans()):
                body[key] = draw(VALUES)
        if draw(st.booleans()):
            body["subfield"] = draw(st.sampled_from(field_labels))
        records.append(CorpusRecord("field", label, tuple((k, body[k]) for k in FIELD_KEYS if k in body)))
    for label in curve_labels:
        body = {"a": draw(VALUES), "rank": draw(VALUES)}
        if draw(st.booleans()):
            body["gens"] = draw(VALUES)
        records.append(CorpusRecord("curve", label, tuple((k, body[k]) for k in CURVE_KEYS if k in body)))
    return draw(st.permutations(records))


# Comments that look like headers and keys, so that only the grammar can
# tell them apart from the real ones.
COMMENTS = st.sampled_from(["#", "# note", "#field Q", "# curve 37a", "# poly = 1 2"])


@st.composite
def decorated(draw, records):
    """Corpus text of records with drawn comments, indentation and separators."""
    text = "".join(draw(COMMENTS) + "\n" for _ in range(draw(st.integers(0, 2))))
    blocks = corpus.emit_corpus(records).rstrip("\n").split("\n\n") if records else []
    for i, block in enumerate(blocks):
        if i:
            # blank and comment-only lines both end a block
            gap = draw(st.lists(st.one_of(st.sampled_from(["", "  ", "\t"]), COMMENTS), min_size=1, max_size=3))
            text += "".join(line + "\n" for line in gap)
        for j, line in enumerate(block.split("\n")):
            if j == 0:
                line = line.replace(" ", draw(st.sampled_from([" ", "\t", "   "])), 1)
            lead = draw(st.sampled_from(["", " ", "\t"]))
            trail = draw(st.one_of(st.sampled_from(["", " "]), COMMENTS.map(lambda c: "  " + c)))
            text += lead + line + trail + "\n"
    return text


def _views(corp, kind):
    return corp.fields if kind == "field" else corp.curves


class TestLaws:
    @given(record_lists())
    def test_parse_inverts_emit(self, records):
        assert corpus.parse_corpus(corpus.emit_corpus(records)).records == tuple(records)

    @given(st.data())
    def test_record_read_equals_full_parse(self, data):
        records = data.draw(record_lists())
        text = data.draw(decorated(records))
        full = corpus.parse_corpus(text)
        assert full.records == tuple(records)  # comments and layout change nothing
        for rec in full.records:
            read = corpus.read_records(text, rec.kind, rec.label)
            got = _views(read, rec.kind)[rec.label]
            assert (got, got.line) == (rec, rec.line)
            sub = rec.get("subfield")
            wanted = {rec.line} | ({full.fields[sub].line} if sub is not None else set())
            assert [r.line for r in read.records] == sorted(wanted)
            for r in read.records:
                assert (r, r.line) == (_views(full, r.kind)[r.label], _views(full, r.kind)[r.label].line)


GOOD = "curve good\na = 0 0 1 -1 0\nrank = 1\ngens = 0,0\n"
BAD = "curve bad\na = 0 0 1 -1 0\n"


def _error(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc), getattr(exc, "line", None)
    return None


def _same_error(text, kind, label):
    """The record read of label raises exactly what the full parse raises."""
    full = _error(lambda: corpus.parse_corpus(text))
    assert full is not None
    assert _error(lambda: corpus.read_records(text, kind, label)) == full
    return full


class TestRecordRead:
    def test_bad_record_elsewhere_is_not_read(self):
        text = GOOD + "\n" + BAD
        read = corpus.read_records(text, "curve", "good")
        assert read.records == corpus.parse_corpus(GOOD).records
        cls, message, line = _same_error(text, "curve", "bad")
        assert (cls, message, line) == (ParseError, "line 6: record 'bad' is missing key 'rank'", 6)

    def test_duplicate_label(self):
        assert _same_error(GOOD + "\n" + GOOD, "curve", "good")[:2] == (
            DuplicateLabel,
            "line 6: duplicate curve label 'good' (first at line 1)",
        )
        with pytest.raises(DuplicateLabel):  # the bad block between is not read
            corpus.read_records(GOOD + "\n" + BAD + "\n" + GOOD, "curve", "good")
        # the first block of the label is read before its duplicate is seen
        first_bad = GOOD.replace("rank = 1\n", "") + "\n" + GOOD
        assert _same_error(first_bad, "curve", "good")[0] is ParseError

    def test_missing_subfield(self):
        text = "field A\npoly = -2 0 1\nsubfield = nowhere\n\n" + GOOD
        assert _same_error(text, "field", "A")[:2] == (
            DanglingSubfieldRef,
            "line 1: field 'A' references unknown subfield 'nowhere'",
        )
        assert len(corpus.read_records(text, "curve", "good").records) == 1

    def test_header_inside_another_block(self):
        # `curve good` has no blank line before it, so it is a line of
        # `bad`'s block, and only a read of `bad` parses it
        text = BAD + GOOD
        assert _same_error(text, "curve", "bad") == (ParseError, "line 3: expected 'key = value'", 3)
        read = corpus.read_records(text, "curve", "good")
        assert read.records == ()
        with pytest.raises(UnknownLabel, match="no curve labelled 'good'"):
            corpus.build_curve_data(read, "good")

    def test_header_after_comment_line_starts_a_block(self):
        text = BAD.replace("a = ", "rank = 0\na = ") + "# next\n" + GOOD
        assert corpus.read_records(text, "curve", "good").curves["good"].line == 5

    def test_header_with_trailing_comment_is_read_once(self):
        text = "curve good  # curve good\n" + GOOD.split("\n", 1)[1]
        read = corpus.read_records(text, "curve", "good")
        assert read.records == corpus.parse_corpus(text).records

    def test_kinds_have_separate_labels(self):
        text = "field good\npoly = -2 0 1\n\n" + GOOD
        full = corpus.parse_corpus(text)
        assert corpus.read_records(text, "curve", "good").records == (full.curves["good"],)
        assert corpus.read_records(text, "field", "good").records == (full.fields["good"],)


class TestRecordValue:
    """Records are NamedTuples: they compare by value like tuples, except
    that a CorpusRecord's source line is not part of its value."""

    RECORD = CorpusRecord("curve", "good", (("a", "0 0 1 -1 0"), ("rank", "1")), 1)

    def test_line_is_not_compared_or_hashed(self):
        moved = CorpusRecord(*self.RECORD[:3], line=7)
        assert moved == self.RECORD and not moved != self.RECORD
        assert hash(moved) == hash(self.RECORD)

    def test_body_is_compared(self):
        other = CorpusRecord("curve", "good", (("a", "0 0 1 -1 0"), ("rank", "2")), 1)
        assert other != self.RECORD and not other == self.RECORD

    def test_comments_and_blank_lines_leave_the_corpus_equal(self):
        field = "field K\npoly = -2 0 1\n"
        plain = corpus.parse_corpus(GOOD + "\n" + field)
        spaced = corpus.parse_corpus("# lead\n\n" + GOOD + "\n# between\n\n\n" + field + "\n# end\n")
        assert [r.line for r in plain.records] != [r.line for r in spaced.records]
        assert spaced == plain and not spaced != plain


HARD_CURVES = Path(__file__).resolve().parent / "data" / "hard_curves.txt"


class TestCurveData:
    """`build_curve_data` reads a record's model once, by `minimal_model`."""

    def test_minimal_model_fields_are_ints(self, bundled):
        # rational (nonint_37a) and non-minimal (scaled_389a) inputs included
        for corp in (bundled, corpus.load_corpus(HARD_CURVES)):
            for label in corp.curves:
                _, mm, rank, gens = corpus.build_curve_data(corp, label)
                assert all(type(v) is int for v in mm.curve), label
                assert len(gens) == rank

    def test_generator_off_a_rational_model(self):
        # checked on the minimal model, named as parsed
        text = "curve nonint\na = 0 0 1/8 -1/16 0\nrank = 1\ngens = 1,1\n"
        with pytest.raises(PointNotOnCurve) as exc:
            corpus.build_curve_data(corpus.parse_corpus(text), "nonint")
        assert str(exc.value) == "curve 'nonint': generator 1,1 is not on the curve"

    def test_generator_on_a_rational_model(self):
        # (0, 0) on the u = 2 model of 37a is (0, 0) on 37a
        text = "curve nonint\na = 0 0 1/8 -1/16 0\nrank = 1\ngens = 0,0\n"
        _, mm, _, gens = corpus.build_curve_data(corpus.parse_corpus(text), "nonint")
        assert mm.curve.a_invariants == (0, 0, 1, -1, 0) and str(mm.u) == "1/2"
        assert gens == ((0, 0),)
