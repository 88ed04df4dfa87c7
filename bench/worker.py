"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --spec SPEC --out RESULT --src SRC [--trace] [--spans FILE]

Imports ``arithinv.cli`` (set-up, not timed), then runs the workload's
operations one at a time in a closed loop and times each.  Output checks
run after each operation's clock stops, and the machine-speed probe
(``probe.py``) runs between operations.  The result file holds the pass
wall time without the probe's, peak RSS, the probe samples, one record
per operation and, when traced, the per-layer metrics of this pass.
Pass and operation times are given raw and in reference seconds
(``*_ref``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import probe
import spans

import arithinv
from arithinv import cli, ellcurve, ledger

REFERENCE = Path(__file__).resolve().parent / "data" / "reference.json"


class Pass:
    """Operation log of one pass."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.probe = probe.Probe()
        self.ops = []
        self.wrong = []

    def run(self, kind, label, call, check=None, curves=0, checked_codes=(0,)):
        """Time call(); a raise, a non-zero exit or a failed check fails it.

        call returns (exit_code, value); check(value) returns problems and
        runs whenever the exit code is in checked_codes, so an exit code
        that signals a wrong result also sets correct=false.
        """
        if self.recorder is not None:
            self.recorder.op = len(self.ops)
        record = {"kind": kind, "label": label, "ok": False, "error": None, "curves": curves}
        self.probe.sample(self.ops[-1]["latency"] if self.ops else 0.0)
        record["probe"] = len(self.probe.rates) - 1  # the sample just before the op
        self.ops.append(record)
        error = None
        start = perf_counter()
        try:
            code, value = call()
        except (Exception, SystemExit) as exc:
            error = "%s: %s" % (type(exc).__name__, str(exc)[:200])
        record["latency"] = perf_counter() - start
        if self.recorder is not None:
            self.recorder.op = -1
        if error is None and check is not None and code in checked_codes:
            problems = check(value)
            if problems:
                error = "check: " + "; ".join(problems[:3])
                self.wrong.append("%s %s: %s" % (kind, label, error))
        if error is None and code != 0:
            error = "exit code %s: %s" % (code, str(value)[:200])
        record["error"] = error
        record["ok"] = error is None
        return value if error is None else None


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() if code == 0 else err.getvalue().strip()


def run_verify(spec, log, scratch):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    report_path = scratch / "verify_report.json"

    def check(_):
        report = json.loads(report_path.read_text(encoding="utf-8"))
        return checks.check_verify_report(report, spec["labels"], reference)

    log.run(
        "verify",
        "corpus",
        lambda: _cli(["verify", "--format", "json", "--out", str(report_path), "--corpus", spec["corpus"]]),
        check,
        curves=spec["curves"],
        checked_codes=(0, 1),  # `inv verify` exits 1 when a row's verdict is fail
    )


def run_queries(spec, log, scratch):
    for kind, label in spec["queries"]:
        log.run(
            kind,
            label,
            lambda: _cli([kind, label, "--corpus", spec["corpus"]]),
            lambda text: checks.check_query_output(kind, label, text),
            curves=1 if kind == "curve" else 0,
        )


def run_heights(spec, log, scratch):
    for entry in spec["plan"]:
        name = entry["curve"]
        ref = spec["mw"][name]
        curve = ellcurve.weierstrass_curve(*[Fraction(a) for a in entry["a"]])
        gens = [ellcurve.Point.of(x, y) for x, y in entry["gens"]]
        base = []
        for i, point in enumerate(gens):
            base.append(
                log.run(
                    "height",
                    "%s:P%d" % (name, i),
                    lambda: (0, ellcurve.canonical_height(curve, point)),
                    lambda h: checks.check_close(1.5 * h, ref["gram"][i][i], 1e-8, "1.5 hhat(P%d)" % i),
                )
            )
        for mult in entry["multiples"]:
            i, k = mult["gen"], mult["k"]
            label = "%s:%dP%d" % (name, k, i)
            point = ellcurve.scalar_mul(curve, k, gens[i])
            h = log.run(
                "height",
                label,
                lambda: (0, ellcurve.canonical_height(curve, point)),
                lambda h: ["no hhat(P%d)" % i] if base[i] is None else checks.check_quadratic(h, base[i], k),
            )
            if mult["oracle"]:
                log.run(
                    "oracle",
                    label,
                    lambda: (0, ellcurve.canonical_height_doubling(curve, point)),
                    lambda vb: ["no hhat(kP)"] if h is None else checks.check_height_pair(h, *vb),
                )
        log.run(
            "mw_regulator",
            name,
            lambda: (0, ellcurve.mw_regulator(curve, gens, len(gens))),
            lambda mw: checks.check_close(mw.regulator, ref["regulator"], 1e-8, "regulator"),
        )


def run_minima(spec, log, scratch):
    for lattice in spec["lattices"]:
        gram = lattice["gram"]
        log.run(
            "minima",
            lattice["label"],
            lambda: (0, ledger.successive_minima(gram)),
            lambda result: checks.check_minima(gram, result),
        )


RUNNERS = {
    "verify_corpus": run_verify,
    "object_queries": run_queries,
    "heights_multiples": run_heights,
    "minima_by_rank": run_minima,
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="the src directory arithinv must come from")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--metrics", default="", help="comma-separated per-layer metric names")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    if src not in Path(arithinv.__file__).resolve().parents:
        sys.exit("arithinv was imported from %s, not from %s" % (arithinv.__file__, src))
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    scratch = Path(args.out).parent

    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    log = Pass(recorder)
    start = perf_counter()
    RUNNERS[spec["workload"]](spec, log, scratch)
    wall = perf_counter() - start - log.probe.seconds  # without the samples between ops
    log.probe.sample(log.ops[-1]["latency"])
    for op in log.ops:
        op["latency_ref"] = op["latency"] * log.probe.op_scale(op["probe"])
    result = {
        "wall_s": wall,
        "wall_ref_s": wall * log.probe.scale(),
        "probe_rates": log.probe.rates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": log.ops,
        "wrong": log.wrong,
    }
    if recorder is not None:
        names = [m for m in args.metrics.split(",") if m]
        result["layers"] = spans.layer_metrics(recorder.spans, log.ops, names)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump({"ops": log.ops, "spans": recorder.spans}, handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(3)
