"""Command dispatch and report emission for the `inv` tool.

Subcommands: ``field`` and ``curve`` print invariant summaries,
``verify`` runs the inequality ledger over a corpus, ``family ep``
emits ready-to-append corpus records for the rank-zero family.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, analytic, corpus, ellcurve, ledger, numfield, prec
from .errors import InvariantError

HEIGHT_NOTE = "heights attached to the cubic polarization: <P,P> = (3/2) * hhat_x(P)"


def _fmt(x):
    return "%.12g" % x


def report_header():
    return {
        "tool": "inv %s" % __version__,
        "precision_bits": prec.bits(),
        "height_normalization": HEIGHT_NOTE,
    }


def render_text(rows, header):
    out = ["# %s | precision %d bits" % (header["tool"], header["precision_bits"])]
    out.append("# %s" % header["height_normalization"])
    out.append(
        "%-24s %-16s %15s %15s %12s %-11s %s"
        % ("check", "object", "lhs", "rhs", "margin", "verdict", "note")
    )
    for r in rows:
        out.append(
            "%-24s %-16s %15s %15s %12s %-11s %s"
            % (
                r.check_id,
                r.object_label,
                _fmt(r.lhs),
                _fmt(r.rhs),
                _fmt(r.margin),
                r.verdict,
                r.note,
            )
        )
    counts = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    out.append(
        "# %d rows: %s"
        % (len(rows), ", ".join("%d %s" % (counts[k], k) for k in sorted(counts)))
    )
    return "\n".join(out) + "\n"


def render_csv(rows, header):
    buf = io.StringIO()
    buf.write(
        "# %s | precision %d bits | %s\n"
        % (header["tool"], header["precision_bits"], header["height_normalization"])
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "object", "lhs", "rhs", "margin", "verdict", "note"])
    for r in rows:
        writer.writerow(
            [r.check_id, r.object_label, _fmt(r.lhs), _fmt(r.rhs), _fmt(r.margin), r.verdict, r.note]
        )
    return buf.getvalue()


def render_json(rows, header):
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


RENDERERS = {"text": render_text, "csv": render_csv, "json": render_json}


# ---------------------------------------------------------------------------
# subcommands


def cmd_field(args):
    corp = corpus.load_corpus(args.corpus)
    record = corpus.build_field_record(corp, args.label)
    sub = record.subfield_label
    subrecord = corpus.build_field_record(corp, sub) if sub else None
    stats = corpus.field_record_stats(record, subrecord)
    K = record.field
    lines = [
        "field %s" % args.label,
        "  defining poly   %s" % " ".join(str(c) for c in K.poly),
        "  degree          %d" % K.degree,
        "  signature       (%d, %d)" % (K.r1, K.r2),
        "  disc            %d" % K.disc,
        "  roots of unity  %d" % K.w,
        "  unit rank       %d" % numfield.unit_rank(K),
        "  regulator       %s" % _fmt(stats.regulator),
        "  CM              %s" % ("yes" if stats.is_cm else "no"),
    ]
    if sub:
        lines.append("  subfield        %s (r0 = %s)" % (sub, record.r0))
    print("\n".join(lines))
    return 0


def cmd_curve(args):
    corp = corpus.load_corpus(args.corpus)
    inv = corpus.curve_stats_one(corp, args.label)
    mm, s, tau = inv.model, inv.stats, inv.periods.tau
    rows = [
        "curve %s" % args.label,
        "  minimal model   a = [%s]  (u = %s)"
        % (", ".join(str(a) for a in mm.curve.a_invariants), mm.u),
        "  delta_min       %d" % s.delta_min,
    ]
    for pr in inv.reduction.primes:
        rows.append(
            "  bad prime %-6d %s, %s, v(delta) = %d"
            % (pr.p, pr.kind, "stable" if pr.stable else "unstable", pr.v_delta)
        )
    rows += [
        "  N0 / Nst / Nuns %d / %d / %d" % (s.n0, s.n_stable, s.n_unstable),
        "  semistable      %s" % ("yes" if s.semistable else "no"),
        "  tau (reduced)   %s + %si" % (_fmt(float(tau.re)), _fmt(float(tau.im))),
        "  rho             %s" % _fmt(analytic.injectivity_diameter(tau)),
        "  h_F+            %s" % _fmt(s.h_faltings),
        "  rank            %d" % s.rank,
        "  regulator       %s" % _fmt(s.regulator),
    ]
    print("\n".join(rows))
    return 0


def cmd_verify(args):
    if args.tol <= 0:
        raise InvariantError("--tol must be positive")
    corp = corpus.load_corpus(args.corpus)
    fields = corpus.field_stats(corp)
    curves = corpus.curve_stats(corp, tol=args.tol)
    selected = args.checks.split(",") if args.checks else None
    rows = ledger.run_checks(
        fields, curves, selected=selected, northcott_bound=args.northcott_bound
    )
    text = RENDERERS[args.format](rows, report_header())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if any(r.verdict == "fail" for r in rows) else 0


def cmd_family(args):
    if args.kind != "ep":
        raise InvariantError("unknown family '%s'" % args.kind)
    records = []
    for fam in ellcurve.ep_family(args.pmax):
        records.append(
            corpus.CorpusRecord(
                "curve",
                fam.label,
                (
                    ("a", " ".join(str(a) for a in fam.a_invariants)),
                    ("rank", str(fam.rank)),
                ),
            )
        )
    if records:
        sys.stdout.write(corpus.emit_corpus(records))
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="inv",
        description="arithmetic invariants of number fields and elliptic curves over Q",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        help="working precision in bits (default %d, min %d)"
        % (prec.DEFAULT_BITS, prec.MIN_BITS),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="print number field invariants")
    p_field.add_argument("label")
    p_field.add_argument("--corpus", default=None)
    p_field.set_defaults(func=cmd_field)

    p_curve = sub.add_parser("curve", help="print elliptic curve invariants")
    p_curve.add_argument("label")
    p_curve.add_argument("--corpus", default=None)
    p_curve.set_defaults(func=cmd_curve)

    p_verify = sub.add_parser("verify", help="run the inequality ledger")
    p_verify.add_argument("--corpus", default=None)
    p_verify.add_argument("--checks", default=None, help="comma-separated check ids")
    p_verify.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument(
        "--northcott-bound", type=float, default=1.0, help="bound for the scans"
    )
    # SUPPRESS keeps a pre-subcommand --precision from being clobbered
    p_verify.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_family = sub.add_parser("family", help="emit corpus records for a curve family")
    p_family.add_argument("kind", choices=("ep",))
    p_family.add_argument("--pmax", type=int, required=True)
    p_family.set_defaults(func=cmd_family)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision is not None:
        prec.set_precision(args.precision)
    try:
        return args.func(args)
    except (InvariantError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
