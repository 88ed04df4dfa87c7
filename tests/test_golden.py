"""The report pinned: `inv verify --format json`, `inv field L` and
`inv curve L` on the bundled corpus must reproduce the golden files in
tests/data/, and `inv verify` over every object the benchmark can sample
the row digests of bench/data/reference.json.  JSON rows compare at the
report's printed precision (%.12g); every other output compares byte for
byte.

The golden files were written by the code before the one-pass pipeline
refactor.  invariant_pins.json holds, to the last bit, h+ of every
bundled, hard and `family ep --pmax 4000` curve and the regulators of
the bundled fields and of the real quadratic fields Q(sqrt m), m < 1000,
as written by the code before h+ was read from the lattice covolume and
the regulator rounded once; and the reduced tau of each of those curves,
as written by the code before the periods were read from the real roots
alone.  To rewrite them from the source on the path
(only when a change to the printed or pinned numbers is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from arithinv import analytic, arith, cli, corpus, ellcurve, numfield, prec
from arithinv.errors import InvariantError

DATA = Path(__file__).resolve().parent / "data"
BENCH = Path(__file__).resolve().parents[1] / "bench"
VERIFY = DATA / "golden_verify.json"
QUERIES = DATA / "golden_queries.json"
PINS = DATA / "invariant_pins.json"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _queries():
    """{kind: {label: stdout}} of every bundled record."""
    bundled = corpus.load_corpus()
    out = {}
    for kind, labels in (("field", bundled.fields), ("curve", bundled.curves)):
        out[kind] = {}
        for label in labels:
            code, text = _run([kind, label])
            assert code == 0, (kind, label)
            out[kind][label] = text
    return out


def _printed(payload):
    rows = [
        dict(r, **{k: "%.12g" % r[k] for k in ("lhs", "rhs", "margin")})
        for r in payload["rows"]
    ]
    return {"header": payload["header"], "rows": rows}


def test_verify_json_matches_golden():
    code, text = _run(["verify", "--format", "json"])
    assert code == 0
    want = json.loads(VERIFY.read_text(encoding="utf-8"))
    assert _printed(json.loads(text)) == _printed(want)


@pytest.mark.parametrize("bits", [120, 200])
def test_verify_json_matches_golden_at_other_precisions(bits):
    # every fixed-point precision is derived from prec.bits(), so the rows
    # must not move when it changes
    try:
        code, text = _run(["--precision", str(bits), "verify", "--format", "json"])
    finally:
        prec.set_precision(prec.DEFAULT_BITS)
    assert code == 0
    got = _printed(json.loads(text))
    want = _printed(json.loads(VERIFY.read_text(encoding="utf-8")))
    assert got["header"] == dict(want["header"], precision_bits=bits)
    assert got["rows"] == want["rows"]


def test_queries_match_golden():
    assert _queries() == json.loads(QUERIES.read_text(encoding="utf-8"))


def test_benchmark_reference_matches(monkeypatch):
    # the benchmark samples from 2015 objects, the golden files hold only
    # the bundled corpus: every row digest of bench/data/reference.json
    monkeypatch.syspath_prepend(str(BENCH))
    import make_reference

    want = json.loads((BENCH / "data" / "reference.json").read_text(encoding="utf-8"))
    assert make_reference.reference() == want


def _invariant_pins():
    """float.hex of h+ and of Re tau and Im tau at 80 and 200 bits for every
    bundled, hard and `family ep --pmax 4000` curve; of R at 80 and 200
    bits for every bundled field of unit rank >= 1; and of R at 80 bits for
    every Q(sqrt m), m < 1000 squarefree, whose Pell unit and regulator
    build there."""
    curves = {}
    for name, path in (("bundled", None), ("hard", DATA / "hard_curves.txt")):
        corp = corpus.load_corpus(path)
        for label in corp.curves:
            curves["%s:%s" % (name, label)] = corpus.build_curve_data(corp, label)[1]
    for label, a_invariants in ellcurve.ep_family(4000):
        curves["ep:" + label] = ellcurve.minimal_model(a_invariants)
    bundled = corpus.load_corpus()
    records = [corpus.build_field_record(bundled, label) for label in bundled.fields]
    records = [r for r in records if numfield.unit_rank(r.field) >= 1]
    pins = {}
    try:
        for bits in (80, 200):
            prec.set_precision(bits)
            periods = {label: analytic.agm_periods(mm.curve) for label, mm in curves.items()}
            pins["h_plus_%d" % bits] = {
                label: ellcurve.faltings_height_plus(pd).hex() for label, pd in periods.items()
            }
            pins["tau_%d" % bits] = {
                label: [float(pd.tau.re).hex(), float(pd.tau.im).hex()] for label, pd in periods.items()
            }
            pins["regulator_%d" % bits] = {
                r.field.label: numfield.field_regulator(r).hex() for r in records
            }
        prec.set_precision(prec.DEFAULT_BITS)
        quadratic = {}
        for m in range(2, 1000):
            if any(e > 1 for _, e in arith.factorize(m).factors):
                continue
            try:
                field = numfield.number_field("Qr%d" % m, (-m, 0, 1))
                quadratic[field.label] = numfield.field_regulator(numfield.FieldRecord(field)).hex()
            except InvariantError:  # a check on the Pell unit or R fails at 80 bits
                pass
        pins["regulator_quadratic_80"] = quadratic
    finally:
        prec.set_precision(prec.DEFAULT_BITS)
    return pins


def test_invariants_are_pinned_to_the_bit():
    # the %.12g goldens cannot see a change in the last bit
    assert _invariant_pins() == json.loads(PINS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    VERIFY.write_text(_run(["verify", "--format", "json"])[1], encoding="utf-8")
    QUERIES.write_text(
        json.dumps(_queries(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    PINS.write_text(json.dumps(_invariant_pins(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
