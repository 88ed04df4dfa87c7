"""Regenerate the benchmark's frozen data from the program at this commit.

    PYTHONPATH=src python3 bench/make_reference.py

Writes, under bench/data/:

- ``seed_aborts.json``: real quadratic fields Q(sqrt m), m < 3000, whose
  field rows abort ``inv verify`` (the generator moves them to the hard set);
- ``mw_grams.json``: Mordell-Weil Gram matrices and regulators of the
  height curves (minima inputs and height references);
- ``reference.json``: a digest per object of its ``inv verify`` rows at the
  printed precision, over every record the generator can sample.

Run it only in a change that redefines the benchmark: the data pins the
baseline behaviour that later changes are compared against.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
import gen

from arithinv import cli, corpus, ellcurve
from arithinv.errors import InvariantError


def _dump(name, payload):
    with open(gen.DATA / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def seed_aborts():
    aborts = []
    for m in range(2, gen.REAL_MMAX):
        if not gen._squarefree(m):
            continue
        try:
            corpus.field_stats(corpus.parse_corpus(gen.real_record(m) + "\n"))
        except InvariantError:
            aborts.append(m)
    return {"real_quadratic_m": aborts}


def mw_grams():
    out = {}
    for name, spec in gen.HEIGHT_CURVES.items():
        curve = ellcurve.weierstrass_curve(*[Fraction(a) for a in spec["a"]])
        points = [ellcurve.Point.of(x, y) for x, y in spec["gens"]]
        mw = ellcurve.mw_regulator(curve, points, len(points))
        out[name] = {"gram": [list(row) for row in mw.gram], "regulator": mw.regulator}
    return out


def reference():
    pool = gen.pools()
    records = (
        [gen.ep_record(p) for p in pool["ep"]]
        + [gen.real_record(m) for m in pool["real_ok"]]
        + [gen.imag_record(m) for m in pool["imag"]]
    )
    text = gen.bundled_text().rstrip("\n") + "\n\n" + "\n\n".join(records) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.txt"
        out = Path(tmp) / "report.json"
        path.write_text(text, encoding="utf-8")
        code = cli.main(["verify", "--format", "json", "--out", str(out), "--corpus", str(path)])
        if code != 0:
            sys.exit("verify over the pool exited %d" % code)
        report = json.loads(out.read_text(encoding="utf-8"))
    by_object = checks.rows_by_object(report)
    return {
        "objects": {label: checks.row_digest(by_object[label]) for _, label in sorted(gen.record_keys(text))},
        "corpus_free": {
            label: checks.row_digest(by_object[label]) for label in ("q-tail", "fundamental-domain")
        },
    }


def main():
    _dump("seed_aborts.json", seed_aborts())
    _dump("mw_grams.json", mw_grams())
    _dump("reference.json", reference())


if __name__ == "__main__":
    main()
