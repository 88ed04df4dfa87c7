import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from arithinv import cli, corpus, ledger, numfield
from arithinv.errors import (
    DanglingSubfieldRef,
    DuplicateLabel,
    ParseError,
    PointNotOnCurve,
)

MINI = """\
# a tiny corpus
field Q
poly = 0 1
disc = 1
w = 2
r0 = 0

field Q_sqrt2
poly = -2 0 1
subfield = Q
r0 = 0

curve 37a
a = 0 0 1 -1 0
rank = 1
gens = 0,0
"""


class TestParse:
    def test_round_trip(self):
        records = corpus.parse_corpus(MINI).records
        again = corpus.parse_corpus(corpus.emit_corpus(records)).records
        assert again == records

    def test_bundled_round_trip(self, bundled):
        text = corpus.emit_corpus(bundled.records)
        assert corpus.parse_corpus(text).records == bundled.records

    def test_37a_record(self):
        c = corpus.parse_corpus(MINI)
        rec = c.curves["37a"]
        assert rec.get("rank") == "1"
        assert rec.get("gens") == "0,0"
        _, mm, rank, gens = corpus.build_curve_data(c, "37a")
        assert rank == 1 and len(gens) == 1

    def test_missing_key_names_it(self):
        bad = "curve x\na = 0 0 0 1 0\n"
        with pytest.raises(ParseError, match="rank"):
            corpus.parse_corpus(bad)
        bad2 = "curve x\nrank = 0\n"
        with pytest.raises(ParseError, match="'a'"):
            corpus.parse_corpus(bad2)

    def test_duplicate_label(self):
        bad = "field A\npoly = -2 0 1\n\nfield A\npoly = -3 0 1\n"
        with pytest.raises(DuplicateLabel):
            corpus.parse_corpus(bad)

    def test_dangling_subfield(self):
        bad = "field A\npoly = -2 0 1\nsubfield = nowhere\n"
        with pytest.raises(DanglingSubfieldRef):
            corpus.parse_corpus(bad)

    def test_parse_error_has_line(self):
        bad = "field A\npoly = -2 0 1\nnot a key value line\n"
        with pytest.raises(ParseError, match="line 3"):
            corpus.parse_corpus(bad)

    def test_unknown_key(self):
        bad = "field A\npoly = -2 0 1\ncolour = blue\n"
        with pytest.raises(ParseError, match="colour"):
            corpus.parse_corpus(bad)

    def test_gen_not_on_curve(self):
        bad = "curve x\na = 0 0 1 -1 0\nrank = 1\ngens = 5,5\n"
        with pytest.raises(PointNotOnCurve):
            corpus.build_curve_data(corpus.parse_corpus(bad), "x")


class TestCli:
    def test_field_command(self, capsys):
        assert cli.main(["field", "Q_sqrt2"]) == 0
        out = capsys.readouterr().out
        assert "0.88137358702" in out
        assert "CM              no" in out

    def test_curve_command(self, capsys):
        assert cli.main(["curve", "37a"]) == 0
        out = capsys.readouterr().out
        assert "delta_min       37" in out
        assert "N0 / Nst / Nuns 37 / 37 / 1" in out
        assert "semistable      yes" in out

    def test_unknown_label_exit_2(self, capsys):
        assert cli.main(["curve", "nosuch"]) == 2
        assert "nosuch" in capsys.readouterr().err

    def test_verify_exit_0(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert cli.main(["verify", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "fail" not in text.split()  # verdict column never says fail

    def test_verify_checks_filter(self, capsys):
        assert cli.main(["verify", "--checks", "hermite_minkowski_a,friedman"]) == 0
        out = capsys.readouterr().out
        body = [l for l in out.splitlines() if l and not l.startswith(("#", "check"))]
        assert body
        assert all(
            l.split()[0] in ("hermite_minkowski_a", "friedman") for l in body
        )

    def test_verify_csv_header(self, capsys):
        assert cli.main(["verify", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[1] == "check_id,object,lhs,rhs,margin,verdict,note"

    def test_verify_json(self, capsys):
        assert cli.main(["verify", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["header"]["precision_bits"] >= 60
        assert "3/2" in payload["header"]["height_normalization"]
        assert all(r["verdict"] != "fail" for r in payload["rows"])

    def test_verify_deterministic(self, capsys):
        cli.main(["verify", "--format", "csv"])
        first = capsys.readouterr().out
        cli.main(["verify", "--format", "csv"])
        second = capsys.readouterr().out
        assert first == second

    def test_verify_detects_failure_exit_1(self, monkeypatch, capsys):
        # every pass/fail check is an unconditional theorem, so a genuine
        # failure cannot be staged with valid data; inject one instead
        from arithinv import ledger

        fail_row = ledger.CheckResult("forced", "unit-test", 0.0, 1.0, -1.0, "fail", "")
        monkeypatch.setattr(
            ledger, "run_checks", lambda *a, **k: [fail_row]
        )
        assert cli.main(["verify"]) == 1
        assert "fail" in capsys.readouterr().out

    def test_family_ep(self, capsys):
        assert cli.main(["family", "ep", "--pmax", "60"]) == 0
        out = capsys.readouterr().out
        parsed = corpus.parse_corpus(out)
        assert sorted(parsed.curves) == ["Ep23", "Ep41", "Ep5", "Ep59"]
        assert parsed.curves["Ep5"].get("a") == "0 0 0 0 25"

    def test_family_ep_single(self, capsys):
        assert cli.main(["family", "ep", "--pmax", "5"]) == 0
        out = capsys.readouterr().out
        assert sorted(corpus.parse_corpus(out).curves) == ["Ep5"]

    def test_family_ep_empty(self, capsys):
        assert cli.main(["family", "ep", "--pmax", "4"]) == 0
        assert capsys.readouterr().out == ""

    def test_custom_corpus(self, tmp_path, capsys):
        path = tmp_path / "mini.txt"
        path.write_text(MINI)
        assert cli.main(["verify", "--corpus", str(path)]) == 0
        out = capsys.readouterr().out
        assert "37a" in out and "Q_sqrt2" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("curve x\nrank = 0\n")
        assert cli.main(["verify", "--corpus", str(path)]) == 2
        assert "missing key" in capsys.readouterr().err


def reference_json(rows, header):
    """The report layout render_json keeps: json.dumps with indent=2."""
    payload = {
        "header": header,
        "rows": [
            {
                "check_id": r.check_id,
                "object": r.object_label,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "margin": r.margin,
                "verdict": r.verdict,
                "note": r.note,
            }
            for r in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestJsonLayout:
    def _verify(self, monkeypatch, capsys, argv):
        # the report of `inv verify --format json` and the rows it renders
        seen = []
        run = ledger.run_checks

        def recording(*args, **kwargs):
            seen.append(run(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(ledger, "run_checks", recording)
        cli.main(["verify", "--format", "json"] + argv)
        return capsys.readouterr().out, seen[0]

    def test_bundled_report(self, monkeypatch, capsys):
        out, rows = self._verify(monkeypatch, capsys, [])
        assert len(rows) > 100
        assert out == reference_json(rows, cli.report_header())

    def test_a_selection_with_no_rows(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "q.txt"
        path.write_text("field Q\npoly = 0 1\ndisc = 1\nw = 2\nr0 = 0\n")
        out, rows = self._verify(monkeypatch, capsys, ["--checks", "semistable_height", "--corpus", str(path)])
        assert rows == []
        assert out == reference_json(rows, cli.report_header())

    def test_awkward_values(self):
        # non-finite floats, non-ASCII text, quotes and backslashes, and
        # notes that look like a row boundary once encoded
        rows = [
            ledger.CheckResult("a", "Q(\u221a2) \u00e9", math.nan, math.inf, -math.inf, "fail", "},\n      {"),
            ledger.CheckResult("b", "x", 0.1, 2, -1e-300, "pass", 'say "},"\\ \n}'),
            ledger.CheckResult("c", "", 1.0, 1.0, 0.0, "report-only"),
        ]
        header = cli.report_header()
        for some in (rows[:1], rows):
            assert cli.render_json(some, header) == reference_json(some, header)


HARD_CURVES = Path(__file__).resolve().parent / "data" / "hard_curves.txt"
HARD_CURVE_PINS = json.loads(
    (Path(__file__).resolve().parent / "data" / "hard_curve_pins.json").read_text(encoding="utf-8")
)


class TestHardCurves:
    @pytest.mark.parametrize(
        "label",
        [
            "big_a4",
            "big_c6",
            "j0_add23",
            "j1728_add23",
            "nonint_37a",
            "scaled_389a",
            "big_gen_37a",
            "r4_234446a",
        ],
    )
    def test_curve_query_succeeds(self, label, capsys):
        assert cli.main(["curve", label, "--corpus", str(HARD_CURVES)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "h_F+" in l)
        assert float(line.split()[-1]) >= 0

    @pytest.mark.parametrize("label", sorted(HARD_CURVE_PINS))
    def test_curve_query_matches_pin(self, label, capsys):
        # the whole query output, byte for byte: j0_add23 and j1728_add23
        # sit on the corners tau = rho and tau = i, where the reduction's
        # tie-breaks decide the printed tau
        assert cli.main(["curve", label, "--corpus", str(HARD_CURVES)]) == 0
        assert capsys.readouterr().out == HARD_CURVE_PINS[label]


class TestPrecisionFlag:
    def test_precision_raises_header(self, capsys):
        from arithinv import prec

        before = prec.bits()
        try:
            assert cli.main(["--precision", "100", "verify", "--checks", "friedman"]) == 0
            out = capsys.readouterr().out
            assert "precision 100 bits" in out
        finally:
            prec.set_precision(before)

    def test_precision_holds_for_one_call(self, tmp_path, capsys):
        from arithinv import prec

        path = tmp_path / "mini.txt"
        path.write_text(MINI)
        before = prec.bits()
        argv = ["verify", "--format", "json", "--checks", "friedman", "--corpus", str(path)]
        assert cli.main(["--precision", "200"] + argv) == 0
        assert json.loads(capsys.readouterr().out)["header"]["precision_bits"] == 200
        assert prec.bits() == before
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["header"]["precision_bits"] == before
        # restored on an error exit too
        assert cli.main(["--precision", "200", "curve", "nosuch"]) == 2
        assert prec.bits() == before

    @pytest.mark.parametrize("bits", ["12", "0", "-3"])
    def test_precision_below_the_floor_exit_2(self, bits, capsys):
        from arithinv import prec

        before = prec.bits()
        assert cli.main(["--precision", bits, "curve", "37a"]) == 2
        assert capsys.readouterr() == ("", "error: --precision must be at least %d\n" % prec.MIN_BITS)
        assert prec.bits() == before

    def test_precision_floor(self):
        from arithinv import prec

        before = prec.bits()
        try:
            prec.set_precision(10)
            assert prec.bits() == prec.MIN_BITS
        finally:
            prec.set_precision(before)


class TestFractionalGens:
    def test_fractional_generator_round_trip(self, tmp_path):
        text = (
            "curve 37a-shift\n"
            "a = 0 0 1 -1 0\n"
            "rank = 1\n"
            "gens = 1/4,-5/8\n"   # 5 * (0,0) on 37a
        )
        c = corpus.parse_corpus(text)
        assert corpus.parse_corpus(corpus.emit_corpus(c.records)).records == c.records
        stats = corpus.curve_stats_one(c, "37a-shift").stats
        assert stats.rank == 1
        # height of 5P: 25 * h(P)
        assert stats.gram[0][0] == pytest.approx(25 * 0.0766671123, abs=1e-6)


class TestOnePass:
    def test_field_query_ignores_bad_field_elsewhere(self, tmp_path, capsys):
        # Q(sqrt 211) fails its unit check at the default precision; a
        # query for another field must not build it
        path = tmp_path / "corpus.txt"
        bad = "\nfield Qr211\npoly = -211 0 1\n"
        path.write_text(Path(corpus.BUNDLED_CORPUS).read_text() + bad)
        assert cli.main(["field", "Q_sqrt2"]) == 0
        want = capsys.readouterr().out
        assert cli.main(["field", "Q_sqrt2", "--corpus", str(path)]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "argv, parsed",
        [(["curve", "37a"], ["37a"]), (["field", "Q_zeta5"], ["Q_sqrt5", "Q_zeta5"])],
        ids=["curve", "field"],
    )
    def test_query_parses_only_its_records(self, argv, parsed, monkeypatch, capsys):
        # a field query reads its declared subfield too, and nothing else
        made = []
        record = corpus.CorpusRecord

        def counting(kind, label, *args, **kwargs):
            made.append(label)
            return record(kind, label, *args, **kwargs)

        monkeypatch.setattr(corpus, "CorpusRecord", counting)
        assert cli.main(argv) == 0
        assert sorted(made) == parsed

    def test_unit_error_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        path.write_text(Path(corpus.BUNDLED_CORPUS).read_text() + "\nfield Qr211\npoly = -211 0 1\n")
        assert cli.main(["verify", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Qr211" in err and "unit log row does not sum to 0" in err
        # the unit reads as the corpus writes it, not as Fraction reprs
        assert err.rstrip().endswith(": 278354373650 19162705353"), err
        assert "Fraction(" not in err

    @pytest.mark.parametrize(
        "argv", [["curve", "37a"], ["verify"]], ids=["curve", "verify"]
    )
    def test_each_curve_invariant_once_per_curve(self, argv, monkeypatch, capsys):
        from arithinv import analytic, ellcurve

        counts = {}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(analytic, "agm_periods")
        counting(ellcurve, "minimal_model")
        counting(ellcurve, "reduction_data")
        assert cli.main(argv) == 0
        curves = 1 if argv[0] == "curve" else len(corpus.load_corpus().curves)
        assert counts == {
            "agm_periods": curves,
            "minimal_model": curves,
            "reduction_data": curves,
        }

    def test_curve_factors_its_discriminant_once(self, monkeypatch, capsys):
        # reduction_data reads the factorization minimal_model already made
        from arithinv import arith

        calls = []
        factorize = arith.factorize

        def counting(n, *args, **kwargs):
            calls.append(n)
            return factorize(n, *args, **kwargs)

        monkeypatch.setattr(arith, "factorize", counting)
        path = Path(__file__).parent / "data" / "hard_curves.txt"
        assert cli.main(["curve", "big_a4", "--corpus", str(path)]) == 0
        assert len(calls) == 1


GOOD = "curve good\na = 0 0 1 -1 0\nrank = 1\ngens = 0,0\n"
BAD = "curve bad\na = 0 0 1 -1 0\n"


class TestRecordRead:
    """`inv curve L` / `inv field L` read only L's block and its subfield."""

    def _run(self, tmp_path, capsys, text, argv):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        code = cli.main(argv + ["--corpus", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def test_bad_record_does_not_abort_other_queries(self, tmp_path, capsys):
        alone = self._run(tmp_path, capsys, GOOD, ["curve", "good"])
        assert alone[0] == 0
        assert self._run(tmp_path, capsys, GOOD + "\n" + BAD, ["curve", "good"]) == alone
        assert self._run(tmp_path, capsys, BAD + "\n" + GOOD, ["curve", "good"]) == alone

    def test_bad_record_query_names_its_line(self, tmp_path, capsys):
        code, out, err = self._run(tmp_path, capsys, GOOD + "\n" + BAD, ["curve", "bad"])
        assert (code, out) == (2, "")
        assert err == "error: line 6: record 'bad' is missing key 'rank'\n"

    def test_duplicate_label(self, tmp_path, capsys):
        code, _, err = self._run(tmp_path, capsys, GOOD + "\n" + BAD + "\n" + GOOD, ["curve", "good"])
        assert (code, err) == (2, "error: line 9: duplicate curve label 'good' (first at line 1)\n")

    def test_duplicate_label_names_both_headers(self, tmp_path, capsys):
        # two `curve good` blocks: the query and the full parse of verify agree
        want = (2, "error: line 6: duplicate curve label 'good' (first at line 1)\n")
        for argv in (["curve", "good"], ["verify"]):
            code, _, err = self._run(tmp_path, capsys, GOOD + "\n" + GOOD, argv)
            assert (code, err) == want, argv

    def test_missing_subfield(self, tmp_path, capsys):
        text = "\nfield A\npoly = -2 0 1\nsubfield = nowhere\n\n" + GOOD
        code, _, err = self._run(tmp_path, capsys, text, ["field", "A"])
        assert (code, err) == (2, "error: line 2: field 'A' references unknown subfield 'nowhere'\n")
        assert self._run(tmp_path, capsys, text, ["curve", "good"])[0] == 0

    @pytest.mark.parametrize(
        "bad, key",
        [
            ("curve bad\na = 0 0 1 -1 1/0\nrank = 0\n", "a"),
            ("field bad\npoly = -2 0 1\nunits = 1/0 1\n", "units"),
            ("curve bad\na = 0 0 1 -1 0\nrank = one\n", "rank"),
            ("field bad\npoly = -2 0 x\n", "poly"),
            ("curve bad\na = 0 0 1 -1 0\nrank = 1\ngens = 0 0\n", "gens"),
        ],
        ids=["a", "units", "rank", "poly", "gens"],
    )
    def test_malformed_value_names_its_record(self, bad, key, tmp_path, capsys):
        # a value that does not parse is an input error (exit 2) naming the
        # record's line, label and key, for the query and for verify alike
        kind = bad.split()[0]
        for argv in ([kind, "bad"], ["verify"]):
            code, out, err = self._run(tmp_path, capsys, GOOD + "\n" + bad, argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: line 6: %s 'bad': bad %s = " % (kind, key)), err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("rank = 2\ngens = 0,0\n", "rank = 2, but gens lists 1"),
            ("rank = -1\n", "bad rank = -1 (negative)"),
            ("rank = 1\n", "rank = 1, but gens lists 0"),
        ],
        ids=["two_for_one", "negative", "no_gens"],
    )
    def test_rank_and_gens_disagree_names_its_record(self, body, message, tmp_path, capsys):
        bad = "curve bad\na = 0 0 1 -1 0\n" + body
        for argv in (["curve", "bad"], ["verify"]):
            code, out, err = self._run(tmp_path, capsys, GOOD + "\n" + bad, argv)
            assert (code, out, err) == (2, "", "error: line 6: curve 'bad': %s\n" % message), argv

    @pytest.mark.parametrize(
        "poly, disc, t, u",
        [("-1 -1 1", 5, 1, 1), ("-8 0 1", 8, 2, 1), ("-3 3 1", 21, 5, 1), ("-45 0 1", 5, 1, 1)],
        ids=["x2-x-1", "x2-8", "x2+3x-3", "x2-45"],
    )
    def test_real_quadratic_without_units(self, poly, disc, t, u, tmp_path, capsys):
        # the unit (t + u sqrt D)/2 comes from the field discriminant D, not
        # from the constant term of the polynomial
        text = "field K\npoly = %s\n" % poly
        for argv in (["field", "K"], ["verify"]):
            assert self._run(tmp_path, capsys, text, argv)[0] == 0, argv
        record = corpus.build_field_record(corpus.parse_corpus(text), "K")
        assert record.field.disc == disc
        with mpmath.workprec(200):
            expected = mpmath.log((t + u * mpmath.sqrt(disc)) / 2)
        assert abs(numfield.field_regulator(record) - expected) < 1e-12

    @pytest.mark.parametrize(
        "poly, disc, D",
        [("-5 0 1", 20, 5), ("-2 0 1", 2, 8)],
        ids=["x2-5_disc20", "x2-2_disc2"],
    )
    def test_supplied_disc_does_not_choose_the_unit(self, poly, disc, D, tmp_path, capsys):
        # a declared quadratic disc other than the fundamental discriminant D
        # of the polynomial is an input error, not a fail row of a bound
        # that the declared value would forge
        text = "field K\npoly = %s\ndisc = %d\n" % (poly, disc)
        message = "error: field K: supplied disc %d is not the field discriminant %d\n" % (disc, D)
        for argv in (["field", "K"], ["verify"]):
            assert self._run(tmp_path, capsys, text, argv) == (2, "", message), argv

    def test_header_inside_another_block(self, tmp_path, capsys):
        # without a blank line before it, `curve good` is a line of `bad`
        code, _, err = self._run(tmp_path, capsys, BAD + GOOD, ["curve", "bad"])
        assert (code, err) == (2, "error: line 3: expected 'key = value'\n")
        code, _, err = self._run(tmp_path, capsys, BAD + GOOD, ["curve", "good"])
        assert (code, err) == (2, "error: no curve labelled 'good'\n")


HELP = {
    "field": (
        "usage: inv field [-h] [--corpus CORPUS] label\n\n"
        "positional arguments:\n  label\n\n"
        "options:\n  -h, --help       show this help message and exit\n  --corpus CORPUS\n"
    ),
    "curve": (
        "usage: inv curve [-h] [--corpus CORPUS] label\n\n"
        "positional arguments:\n  label\n\n"
        "options:\n  -h, --help       show this help message and exit\n  --corpus CORPUS\n"
    ),
    "verify": (
        "usage: inv verify [-h] [--corpus CORPUS] [--checks CHECKS]\n"
        "                  [--format {text,csv,json}] [--out OUT] [--tol TOL]\n"
        "                  [--northcott-bound NORTHCOTT_BOUND]\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --corpus CORPUS\n"
        "  --checks CHECKS       comma-separated check ids\n"
        "  --format {text,csv,json}\n"
        "  --out OUT\n"
        "  --tol TOL\n"
        "  --northcott-bound NORTHCOTT_BOUND\n"
        "                        bound for the scans\n"
    ),
    "family": (
        "usage: inv family [-h] --pmax PMAX {ep}\n\n"
        "positional arguments:\n  {ep}\n\n"
        "options:\n  -h, --help   show this help message and exit\n  --pmax PMAX\n"
    ),
}


class TestSurface:
    """The command line as users see it: help, usage errors, `python -m`."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal

    def _exit(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    def test_root_help_lists_the_commands(self, capsys):
        code, out, _ = self._exit(["--help"], capsys)
        assert code == 0
        assert out.startswith("usage: inv [-h] [--precision PRECISION] {field,curve,verify,family} ...\n")
        for name, (help_, _, _) in cli.COMMANDS.items():
            assert re.search(r"^  %s +%s$" % (name, re.escape(help_)), out, re.M), name

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_command_help(self, command, capsys):
        assert self._exit([command, "--help"], capsys) == (0, HELP[command], "")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["curve"],
            ["curve", "37a", "--bogus"],
            ["verify", "--format", "xml"],
            ["--precision", "x", "verify"],
        ],
        ids=["none", "bogus", "no-label", "bogus-option", "bad-format", "bad-precision"],
    )
    def test_usage_error_exit_2(self, argv, capsys):
        code, out, err = self._exit(argv, capsys)
        assert (code, out) == (2, "")
        assert re.search(r"^inv( \w+)?: error: ", err, re.M), err

    def test_precision_after_verify(self, capsys):
        # --precision goes before the command, for every command alike
        code, out, err = self._exit(["verify", "--precision", "90"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --precision 90" in err
        assert cli.parse_args(["--precision", "90", "verify"]).precision == 90
        assert cli.parse_args(["curve", "37a"]).precision is None

    def test_module_entry_point(self):
        # `python -m arithinv.cli` reads sys.argv (the argv=None path)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "arithinv.cli", "curve", "37a"],
            capture_output=True, text=True, env=env,
        )
        golden = json.loads((Path(__file__).parent / "data" / "golden_queries.json").read_text())
        assert (out.returncode, out.stdout, out.stderr) == (0, golden["curve"]["37a"], "")


class TestParserReuse:
    """Each parser is built once per process; the handler is found at dispatch."""

    @pytest.fixture(autouse=True)
    def _fresh_parsers(self, monkeypatch):
        monkeypatch.setattr(cli, "_PARSERS", {})

    def test_two_calls_build_two_parsers(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert cli.main(["curve", "37a"]) == 0
        assert cli.main(["curve", "37a"]) == 0
        assert built == ["inv", "inv curve"]

    def test_handler_patched_after_a_call_runs(self, monkeypatch, capsys):
        assert cli.main(["curve", "37a"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_curve", lambda args: seen.append(args.label) or 7)
        assert cli.main(["curve", "37a"]) == 7
        assert seen == ["37a"]

    def test_help_wraps_to_the_width_when_printed(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "40")
        assert cli.main(["curve", "37a"]) == 0
        monkeypatch.setenv("COLUMNS", "80")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--help"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == (0, HELP["curve"], "")

    def test_import_builds_no_parser(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        code = """if True:
            import argparse
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            from arithinv import cli
            before = len(built)
            cli.build_parser()
            print(before, len(built))
        """
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0 1"


class TestVerifyBounds:
    @pytest.fixture
    def ep_corpus(self, tmp_path, capsys):
        # a rank-0 corpus: no height is computed, so --tol is never used
        assert cli.main(["family", "ep", "--pmax", "100"]) == 0
        path = tmp_path / "ep.txt"
        path.write_text(capsys.readouterr().out)
        return str(path)

    @pytest.mark.parametrize(
        "option, value",
        [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1")]
        + [("--northcott-bound", v) for v in ("nan", "inf", "0", "-1")],
    )
    @pytest.mark.parametrize("rank_zero", [False, True], ids=["bundled", "ep"])
    def test_non_finite_or_non_positive_exit_2(self, option, value, rank_zero, ep_corpus, capsys):
        argv = ["verify", option, value] + (["--corpus", ep_corpus] if rank_zero else [])
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: %s must be " % option), err


class TestUnknownCheckToken:
    def test_unknown_check_exit_2(self, capsys):
        assert cli.main(["verify", "--checks", "nosuchcheck"]) == 2
        assert "nosuchcheck" in capsys.readouterr().err

    @pytest.mark.parametrize("checks", ["", ",", "friedman,", "friedman,,hermite_minkowski_a"])
    def test_empty_check_id_exit_2(self, checks, capsys):
        # an empty token is a prefix of every id, so it must not select them all
        assert cli.main(["verify", "--checks", checks]) == 2
        assert capsys.readouterr() == ("", "error: --checks must not hold an empty check id\n")

    def test_one_check_selects_its_rows(self, capsys):
        assert cli.main(["verify", "--checks", "friedman"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "# 17 rows: 17 pass"


class TestChecksBeforeCorpus:
    def test_unknown_check_before_the_corpus_is_read(self, tmp_path, monkeypatch, capsys):
        # the corpus would fail to parse; the unknown id is reported first
        path = tmp_path / "bad.txt"
        path.write_text("curve x\na = 0 0 1\nrank = 0\n")

        def never(*args, **kwargs):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(corpus, "load_corpus", never)
        assert cli.main(["verify", "--checks", "nosuch", "--corpus", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: unknown check 'nosuch'\n")


QR211 = "\nfield Qr211\npoly = -211 0 1\n"  # fails its unit check at 80 bits


class TestVerifyBuildsWhatItReads:
    """`inv verify --checks` builds only the stats that its checks read."""

    @pytest.mark.parametrize(
        "checks, unread",
        [
            ("friedman", ["curve_stats"]),
            ("rank_bound", ["field_stats"]),
            ("analytic", ["field_stats", "curve_stats"]),
        ],
    )
    def test_unread_stats_are_not_built(self, checks, unread, monkeypatch, capsys):
        assert cli.main(["verify", "--checks", checks]) == 0
        want = capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("built stats that no selected check reads")

        for name in unread:
            monkeypatch.setattr(corpus, name, never)
        assert cli.main(["verify", "--checks", checks]) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize(
        "checks, code, last",
        [
            ("rank_bound", 0, "# 9 rows: 9 pass"),
            ("analytic", 0, "# 2 rows: 2 pass"),
            ("friedman", 2, "error: Qr211: unit log row does not sum to 0: 278354373650 19162705353"),
        ],
        ids=["rank_bound", "analytic", "friedman"],
    )
    def test_a_field_that_fails_to_build_aborts_only_field_checks(
        self, checks, code, last, tmp_path, capsys
    ):
        path = tmp_path / "corpus.txt"
        path.write_text(Path(corpus.BUNDLED_CORPUS).read_text() + QR211)
        assert cli.main(["verify", "--checks", checks, "--corpus", str(path)]) == code
        out, err = capsys.readouterr()
        assert (out + err).splitlines()[-1] == last


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # a reader that closes the pipe before the first write, as `| head -0`
    # does: no error message, and 128 + SIGPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "arithinv.cli", "curve", "37a"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


class TestMissingCorpusFile:
    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["verify", "--corpus", "/does/not/exist"]) == 2
        assert "error:" in capsys.readouterr().err


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported where it is used, so start-up does not pay for it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, arithinv.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_import_footprint():
    # records are NamedTuples and the bundled corpus is read by path, so
    # start-up loads neither dataclasses (with inspect) nor importlib.resources;
    # -S keeps site .pth hooks from importing them before the package does
    path = [str(Path(cli.__file__).parents[1]), str(Path(mpmath.__file__).parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import arithinv.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_commands_run_without_numpy():
    # the package does its 2x2 to 8x8 numerics in pure Python: a full
    # verify, one curve, one field and a rank-5 minima search load no numpy
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = """if True:
        import contextlib, io, sys
        from arithinv import cli, ledger
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["verify"]), cli.main(["curve", "37a"]), cli.main(["field", "Q_sqrt2"])]
        gram = [[2.0 if i == j else 0.5 for j in range(5)] for i in range(5)]
        ledger.successive_minima(gram)
        print(codes, "numpy" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0] False"
