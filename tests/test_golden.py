"""The report pinned: `inv verify --format json`, `inv field L` and
`inv curve L` on the bundled corpus must reproduce the golden files in
tests/data/.  JSON rows compare at the report's printed precision
(%.12g); every other output compares byte for byte.

The golden files were written by the code before the one-pass pipeline
refactor.  To rewrite them from the source on the path (only when a
change to the printed numbers is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from arithinv import cli, corpus, prec

DATA = Path(__file__).resolve().parent / "data"
VERIFY = DATA / "golden_verify.json"
QUERIES = DATA / "golden_queries.json"


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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    VERIFY.write_text(_run(["verify", "--format", "json"])[1], encoding="utf-8")
    QUERIES.write_text(
        json.dumps(_queries(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
