"""The arithinv benchmark: one seeded workload, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``arithinv`` from ``src``.
NAME is one of the workloads in BENCHMARK.json, or ``all`` to run every
workload in turn.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics (traced and untraced passes alternate, so the
trace's own overhead is measured).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Results and the run record go to ``.bench_out/``.

Each pass is a fresh interpreter (``worker.py``), as every ``inv`` call
is for a user: caches and the prime sieve start empty.  A run makes a
fixed number of passes, sized from --seconds and the pass time measured
on the baseline program, so the sample counts do not depend on machine load.
Times are reported in reference seconds (``probe.py``); the raw times are
in the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import probe

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
DEADLINE_S = 170.0  # every run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it

# Workloads whose wall_s is raw.  minima_by_rank's pass is mostly one
# memory-bound rank-5 box search, whose speed does not follow the probe:
# in two sets of ten seeds, scaling widened its wall_s spread from
# 0.13 and 0.09 to 0.19 and 0.23.
RAW_WALL = ("minima_by_rank",)

# Seconds per untraced pass, interpreter start included, of the baseline
# program on a 2-core 2.0 GHz Xeon VM.
NOMINAL_PASS_S = {
    "verify_corpus": 2.5,
    "object_queries": 10.0,
    "heights_multiples": 24.0,
    "minima_by_rank": 30.0,
}

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_benchmark(root):
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return [v, v, v]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], statistics.median(values), q[2]]


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    above it; below 2 * TAIL_BEYOND + 1 samples that is the median."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND
    if index < (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def machine_info():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_rev(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),  # stay inside the checkout
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    def __init__(self, root, seconds, size, deadline):
        self.root = root
        self.src = root / "src"
        self.seconds = seconds
        self.size = size
        self.deadline = deadline
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = str(self.src)
        self.out = root / ".bench_out"
        self.benchmark = load_benchmark(root)

    def remaining(self):
        left = self.deadline - perf_counter()
        if left <= 1.0:
            raise HarnessError("out of time before the run finished")
        return left

    def _python(self, argv):
        try:
            proc = subprocess.run(
                [sys.executable] + argv,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            raise HarnessError("a pass did not finish before the deadline") from None
        if proc.returncode != 0:
            raise HarnessError("%s exited %d:\n%s" % (argv[0], proc.returncode, proc.stderr[-2000:]))
        return proc

    def setup_times(self):
        """Seconds for a fresh interpreter to finish `import arithinv.cli`,
        raw and in reference seconds (a probe sample between imports)."""
        self._python(["-c", "import arithinv.cli"])  # byte-compile once, untimed
        # the probe here and the imports it scales, which run in child
        # processes, must share a core: pin both to one CPU meanwhile
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            speed = probe.Probe()
            speed.sample()
            times = []
            for _ in range(SETUP_SAMPLES):
                start = perf_counter()
                self._python(["-c", "import arithinv.cli"])
                times.append(perf_counter() - start)
                speed.sample()
        finally:
            os.sched_setaffinity(0, cpus)
        return times, [t * speed.op_scale(i) for i, t in enumerate(times)]

    def one_pass(self, workload, inputs, index, traced):
        tag = "%s-p%d%s" % (workload, index, "-traced" if traced else "")
        result_path = inputs / (tag + ".json")
        argv = [
            str(BENCH / "worker.py"),
            "--spec", str(inputs / "spec.json"),
            "--out", str(result_path),
            "--src", str(self.src),
        ]
        if traced:
            names = [m["name"] for m in self.benchmark["per_layer"]]
            argv += ["--trace", "--metrics", ",".join(names), "--spans", str(inputs / (tag + "-spans.json"))]
        self._python(argv)
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)

    def run(self, workload, seed, trace):
        inputs = self.out / ("%s-seed%d-%s" % (workload, seed, self.size))
        gen.generate(workload, seed, self.size, inputs)
        raw_setup, setup = self.setup_times()
        passes = max(1, round(self.seconds / NOMINAL_PASS_S[workload]))
        plain, traced = [], []
        if trace:
            for i in range(max(1, passes // 2)):
                plain.append(self.one_pass(workload, inputs, i, False))
                traced.append(self.one_pass(workload, inputs, i, True))
        else:
            plain = [self.one_pass(workload, inputs, i, False) for i in range(passes)]
        summary = summarize(workload, seed, setup, plain, traced, self.benchmark)
        summary["raw_setup_s"] = raw_setup
        return summary


def summarize(workload, seed, setup, plain, traced, benchmark):
    """Metrics of one workload run; times in reference seconds, except
    the wall times of RAW_WALL workloads."""
    ops = [op for p in plain for op in p["ops"]]
    latencies = [op["latency_ref"] for op in ops]
    walls = [p["wall_s" if workload in RAW_WALL else "wall_ref_s"] for p in plain]
    rss = [p["peak_rss_mb"] for p in plain]
    failed = sum(1 for op in ops if not op["ok"])
    tail_value, tail_pct = tail(latencies)
    samples = {
        "setup_s": (quartiles(setup), len(setup), "fresh imports"),
        "wall_s": (quartiles(walls), len(walls), "passes"),
        "op_p50_s": (quartiles(latencies), len(latencies), "operations"),
        "op_tail_s": ([tail_value] * 3, len(latencies), "operations, p%.1f" % tail_pct),
        "ok_frac": ([1.0 - failed / len(ops)] * 3, len(ops), "operations, %d failed" % failed),
        "peak_rss_mb": (quartiles(rss), len(rss), "passes"),
    }
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    end_to_end = {
        name: {"value": q[1], "unit": units[name], "quartiles": q, "samples": n, "of": what}
        for name, (q, n, what) in samples.items()
    }
    wrong = [w for p in plain + traced for w in p["wrong"]]
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "raw_wall_s": [p["wall_s"] for p in plain],
        "probe_rates": [p["probe_rates"] for p in plain],
        "wrong": wrong,
        "failures": sorted({"%s %s: %s" % (op["kind"], op["label"], op["error"]) for op in ops if not op["ok"]}),
        "ops": ops,
        "end_to_end": end_to_end,
    }
    if traced:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            p["wall_s"] for p in plain
        )
        summary["per_layer"] = {
            name: {"value": layers[name], "unit": units[name]}
            for name in (m["name"] for m in benchmark["per_layer"])
        }
    return summary


def print_summary(summary, trace):
    print(
        "workload %s  seed %d  %d passes%s  %d operations, %d failed (fail_frac %.4g)"
        % (
            summary["workload"],
            summary["seed"],
            summary["passes"],
            " + %d traced" % summary["traced_passes"] if trace else "",
            summary["attempted"],
            summary["failed"],
            summary["fail_frac"],
        )
    )
    rows = summary["per_layer"] if trace else summary["end_to_end"]
    for name, m in rows.items():
        extra = ""
        if "samples" in m:
            extra = "  (median of %d %s; q1 %.6g, q3 %.6g)" % (m["samples"], m["of"], m["quartiles"][0], m["quartiles"][2])
            if name in ("op_tail_s", "ok_frac"):
                extra = "  (%d %s)" % (m["samples"], m["of"])
        print("  %-48s %14.6g %-11s%s" % (name, m["value"], m["unit"], extra))
    for line in summary["failures"][:20]:
        print("  failed: %s" % line)
    for line in summary["wrong"][:20]:
        print("  WRONG: %s" % line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full")
    args = parser.parse_args(argv)

    start = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "arithinv" / "__init__.py").is_file():
        print("error: run from the root of an arithinv checkout (no src/arithinv here)", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in gen.WORKLOADS for w in workloads):
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    deadline = start + DEADLINE_S * len(workloads)
    runner = Runner(root, args.seconds, args.size, deadline)
    summaries = []
    try:
        for workload in workloads:
            summary = runner.run(workload, args.seed, args.trace)
            print_summary(summary, args.trace)
            summaries.append(summary)
    except HarnessError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3

    record = {
        "benchmark": runner.benchmark,
        "machine": machine_info(),
        "git_rev": git_rev(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "elapsed_s": perf_counter() - start,
        "workloads": summaries,
    }
    record_path = runner.out / ("record-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "."
        for name, m in s[key].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": not any(s["wrong"] for s in summaries),
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
