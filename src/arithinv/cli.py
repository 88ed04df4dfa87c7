"""Command dispatch and report emission for the `inv` tool.

Subcommands: ``field`` and ``curve`` print invariant summaries,
``verify`` runs the inequality ledger over a corpus, ``family ep``
emits ready-to-append corpus records for the rank-zero family.

``field L`` and ``curve L`` read only the corpus block of L and of its
declared subfield (``corpus.load_record``); ``verify`` parses and
validates the whole file, and builds only the records that the selected
checks read (``ledger.reads``).  Each parser, the root one (``--precision``
and the command name) and one per command from the ``COMMANDS`` table,
is built once per process, on first use, and ``--precision`` holds for
one call of `main` only.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or
input errors, 141 (128 + SIGPIPE) when the reader closes standard output
early.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
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


# json.dumps takes the pure-Python encoder whenever indent is given
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def render_json(rows, header):
    """json.dumps({"header": header, "rows": rows}, sort_keys=True,
    indent=2) + "\n", byte for byte.

    The rows are encoded in one call with a separator that breaks the line
    and indents, then each row's braces go on lines of their own: every
    value is a scalar and an encoded string holds no raw newline, so each
    "},\n      {" of the text is a row boundary.
    """
    text = _ROW_ENCODER.encode(
        [
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
        ]
    )
    if rows:
        body = text[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        text = "[\n    {\n      %s\n    }\n  ]" % body
    head = json.dumps(header, sort_keys=True, indent=2).replace("\n", "\n  ")
    return '{\n  "header": %s,\n  "rows": %s\n}\n' % (head, text)


RENDERERS = {"text": render_text, "csv": render_csv, "json": render_json}


# ---------------------------------------------------------------------------
# subcommands


def cmd_field(args):
    corp = corpus.load_record(args.corpus, "field", args.label)
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
    corp = corpus.load_record(args.corpus, "curve", args.label)
    inv = corpus.curve_stats_one(corp, args.label)
    mm, red, s, tau = inv.model, inv.reduction, inv.stats, inv.periods.tau
    rows = [
        "curve %s" % args.label,
        "  minimal model   a = [%s]  (u = %s)"
        % (", ".join(str(a) for a in mm.curve.a_invariants), mm.u),
        "  delta_min       %d" % mm.curve.delta,
    ]
    for pr in red.primes:
        rows.append(
            "  bad prime %-6d %s, %s, v(delta) = %d"
            % (pr.p, pr.kind, "stable" if pr.stable else "unstable", pr.v_delta)
        )
    rows += [
        "  N0 / Nst / Nuns %d / %d / %d" % (red.n0, red.n_stable, red.n_unstable),
        "  semistable      %s" % ("yes" if red.semistable else "no"),
        "  tau (reduced)   %s + %si" % (_fmt(float(tau.re)), _fmt(float(tau.im))),
        "  rho             %s" % _fmt(analytic.injectivity_diameter(tau)),
        "  h_F+            %s" % _fmt(s.h_faltings),
        "  rank            %d" % s.rank,
        "  regulator       %s" % _fmt(s.regulator),
    ]
    print("\n".join(rows))
    return 0


def cmd_verify(args):
    if not 0 < args.northcott_bound < math.inf:  # every regulator is positive
        raise InvariantError("--northcott-bound must be positive and finite")
    selected = None if args.checks is None else args.checks.split(",")
    reads = ledger.reads(selected)  # a bad check id is reported ahead of the corpus
    corp = corpus.load_corpus(args.corpus)
    fields = corpus.field_stats(corp) if "field" in reads else []
    curves = corpus.curve_stats(corp) if "curve" in reads else []
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
    records = []
    for label, a_invariants in ellcurve.ep_family(args.pmax):
        records.append(
            corpus.CorpusRecord(
                "curve",
                label,
                (("a", " ".join(str(a) for a in a_invariants)), ("rank", "0")),
            )
        )
    if records:
        sys.stdout.write(corpus.emit_corpus(records))
    return 0


# ---------------------------------------------------------------------------


def _label_arguments(parser):
    parser.add_argument("label")
    parser.add_argument("--corpus", default=None)


def _verify_arguments(parser):
    parser.add_argument("--corpus", default=None)
    parser.add_argument("--checks", default=None, help="comma-separated check ids")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--out", default=None)
    parser.add_argument("--northcott-bound", type=float, default=1.0, help="bound for the scans")


def _family_arguments(parser):
    parser.add_argument("kind", choices=("ep",))
    parser.add_argument("--pmax", type=int, required=True)


# name -> (one-line help, adds the command's arguments, handler's name).  The
# handler is looked up by name when the command runs, so a wrapper put on
# the module function later (as the benchmark's tracer does) sees the call.
COMMANDS = {
    "field": ("print number field invariants", _label_arguments, "cmd_field"),
    "curve": ("print elliptic curve invariants", _label_arguments, "cmd_curve"),
    "verify": ("run the inequality ledger", _verify_arguments, "cmd_verify"),
    "family": ("emit corpus records for a curve family", _family_arguments, "cmd_family"),
}

# command (None for the root) -> its parser; a parser depends on no input
_PARSERS = {}


def build_parser(command=None):
    """The parser of `inv COMMAND ...`, or of `inv` itself when command is None.

    Each parser is built on first use and reused for the rest of the
    process.  argparse makes its help formatter when it prints, so help
    and usage text still wrap to the terminal width of that moment.
    """
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = _new_parser(command)
    return parser


def _new_parser(command):
    """The root parser reads --precision and the command name and leaves the
    rest of the line to the command's parser."""
    if command is not None:
        _, add_arguments, _ = COMMANDS[command]
        parser = argparse.ArgumentParser(prog="inv " + command)
        add_arguments(parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="inv",
        description="arithmetic invariants of number fields and elliptic curves over Q",
        epilog="commands:\n"
        + "".join("  %-21s %s\n" % (name, c[0]) for name, c in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        help="working precision in bits (default %d, min %d)"
        % (prec.DEFAULT_BITS, prec.MIN_BITS),
    )
    parser.add_argument("command", choices=COMMANDS, help="one of the commands below")
    rest = parser.add_argument(
        "argv", nargs=argparse.REMAINDER, help="its arguments, listed by inv COMMAND --help"
    )
    rest.required = False  # a bare `inv` names only the command as missing
    return parser


def parse_args(argv=None):
    """The namespace of an `inv` command line; builds only the parsers it uses."""
    args = build_parser().parse_args(argv)
    return build_parser(args.command).parse_args(args.argv, namespace=args)


def main(argv=None):
    """Run one `inv` command line; --precision holds for this call only."""
    args = parse_args(argv)
    before = prec.bits()
    try:
        if args.precision is not None:
            if args.precision < prec.MIN_BITS:
                raise InvariantError("--precision must be at least %d" % prec.MIN_BITS)
            prec.set_precision(args.precision)
        code = globals()[COMMANDS[args.command][2]](args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # the reader left: exit quietly with 128 + SIGPIPE, as `yes | head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the final flush
        return 141
    except (InvariantError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        prec.set_precision(before)


if __name__ == "__main__":
    sys.exit(main())
