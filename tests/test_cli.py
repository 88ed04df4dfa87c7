import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arithinv import cli, corpus
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
        _, curve, mm, rank, gens = corpus.build_curve_data(c, "37a")
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


HARD_CURVES = Path(__file__).resolve().parent / "data" / "hard_curves.txt"


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
        assert stats.gen_heights[0] == pytest.approx(25 * 0.0766671123, abs=1e-6)


class TestOnePass:
    def test_field_query_ignores_bad_field_elsewhere(self, tmp_path, capsys):
        # Q(sqrt 211) fails its unit check at the default precision; a
        # query for another field must not build it
        path = tmp_path / "corpus.txt"
        bad = "\nfield Qr211\npoly = -211 0 1\n"
        path.write_text(corpus.bundled_corpus_text() + bad)
        assert cli.main(["field", "Q_sqrt2"]) == 0
        want = capsys.readouterr().out
        assert cli.main(["field", "Q_sqrt2", "--corpus", str(path)]) == 0
        assert capsys.readouterr().out == want

    def test_unit_error_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        path.write_text(corpus.bundled_corpus_text() + "\nfield Qr211\npoly = -211 0 1\n")
        assert cli.main(["verify", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Qr211" in err and "unit log row does not sum to 0" in err

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


class TestUnknownCheckToken:
    def test_unknown_check_exit_2(self, capsys):
        assert cli.main(["verify", "--checks", "nosuchcheck"]) == 2
        assert "nosuchcheck" in capsys.readouterr().err


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
