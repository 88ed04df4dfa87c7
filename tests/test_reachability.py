"""The reachability gate: every function of `src/arithinv` is entered by an
`inv` command, or an open ROADMAP item owns it.

A fresh interpreter installs a profile hook before it imports the package,
so import-time code counts, and then runs the command set below through
`cli.main`.  Each code object it enters is mapped to the `def` it comes
from by file, first line and name; the `def`s come from the package's
syntax trees, nested ones included.  (`co_qualname` would name them
directly, but Python 3.10 has none.)  A class attribute `name =
property(lambda self: ...)` counts as a `def` of `Class.name`, mapped by
the lambda's line and the name `<lambda>`.

A `def` that no command enters fails the gate unless `ALLOWED` names it,
with the open item that removes it; an `ALLOWED` entry that a command
enters fails it too, so the list only shrinks.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from arithinv import corpus

PACKAGE = Path(corpus.__file__).resolve().parent
HARD_CURVES = Path(__file__).resolve().parent / "data" / "hard_curves.txt"

# "module.qualname" -> the open item that removes it from src/
ALLOWED = {
    "analytic.PeriodData.omega1": "item 4: only the tests' Silverman oracle reads the periods",
    "analytic.PeriodData.omega2": "item 4: only the tests' Silverman oracle reads the periods",
    "ellcurve.canonical_height_doubling": "item 4: Silverman's sum moves into the tests as the oracle",
    "ellcurve._bad_local_height.v": "item 4: Silverman's sum moves into the tests as the oracle",
    "ellcurve._archimedean_local_height": "item 4: Silverman's sum moves into the tests as the oracle",
    "ellcurve._bad_local_height": "item 4: Silverman's sum moves into the tests as the oracle",
    "ellcurve.scalar_mul": "item 4: moves into the tests with the oracle",
    "ellcurve.add": "item 4: moves into the tests with the oracle",
    "ellcurve.negate": "item 4: moves into the tests with the oracle",
    "ellcurve.Point.x": "item 4: only the oracle reads affine coordinates",
    "ellcurve.Point.y": "item 4: only the oracle reads affine coordinates",
    "numfield.verify_cm": "item 10: becomes the ledger's cm_regulator_ratio row",
}

# corpus files that only a bad or a hard input reaches: name -> (text, exit code)
CORPORA = {
    "phi.txt": ("field Qphi\npoly = -1 -1 1\n", 0),
    # ((x - 10^18)^2 + 1)(x + 3) + 1: a near-real pair beside a far real
    # root, which takes the Gaussian-integer polish; it states no disc
    "cluster.txt": (
        "field Kc\npoly = 3000000000000000000000000000000000004"
        " 999999999999999994000000000000000001 -1999999999999999997 1\n",
        2,
    ),
    "dup.txt": ("field K\npoly = -2 0 1\n\nfield K\npoly = -3 0 1\n", 2),
    "dangling.txt": ("field K\npoly = -2 0 1\nsubfield = nowhere\n", 2),
    "kd0.txt": ("field Kd0\npoly = -2 0 0 1\ndisc = 0\n", 2),
    "kw0.txt": ("field Kw0\npoly = -2 0 1\nw = 0\n", 2),
    "kw4.txt": ("field Kw4\npoly = -2 0 1\nw = 4\n", 2),
    "kr1.txt": ("field Kr1\npoly = -2 0 1\nr0 = 1\n", 2),
    "qz5.txt": ("field Qz5\npoly = 1 1 1 1 1\ndisc = 125\nunits = 0 0 -1 -1\n", 2),
    # x^2 + p, p the least prime above 2^1100: a discriminant beyond the doubles
    "kbig.txt": ("field Kbig\npoly = %d 0 1\n" % (2**1100 + 2191), 0),
}


def command_set(tmp):
    """[argv, file that takes stdout or None, exit code] for each command, in
    order: CI's smoke steps, `field` and `curve` on every bundled and hard
    record, and the corpora above."""
    for name, (text, _) in CORPORA.items():
        (tmp / name).write_text(text, encoding="utf-8")
    # a field that fails to build at 80 bits aborts only the selections that read fields
    qr211 = Path(corpus.BUNDLED_CORPUS).read_text(encoding="utf-8") + "\nfield Qr211\npoly = -211 0 1\n"
    (tmp / "qr211.txt").write_text(qr211, encoding="utf-8")
    ep, hard = str(tmp / "ep.txt"), str(HARD_CURVES)
    runs = [
        [["--help"], None, 0],
        [["family", "ep", "--pmax", "100"], ep, 0],
        [["verify", "--corpus", ep], None, 0],
        [["verify", "--format", "json", "--out", str(tmp / "verify.json")], None, 0],
        [["verify", "--format", "csv"], None, 0],
        [["--precision", "200", "verify"], None, 0],
        [["--precision", "90", "verify", "--checks", "friedman"], None, 0],
        [["verify", "--corpus", hard], None, 0],
        [["verify", "--northcott-bound", "-1", "--corpus", ep], None, 2],
        [["verify", "--checks", "friedman,"], None, 2],
        [["--precision", "12", "curve", "37a"], None, 2],
    ]
    for path in (None, hard):
        records = corpus.load_corpus(path).records
        runs += [[[r.kind, r.label] + (["--corpus", path] if path else []), None, 0] for r in records]
    for checks, code in (("rank_bound", 0), ("analytic", 0), ("friedman", 2)):
        runs.append([["verify", "--checks", checks, "--corpus", str(tmp / "qr211.txt")], None, code])
    for name, (text, code) in CORPORA.items():
        path, label = str(tmp / name), text.split()[1]
        runs += [[["field", label, "--corpus", path], None, code], [["verify", "--corpus", path], None, code]]
    return runs


# The child: the hook goes in before the package is imported.
CHILD = """
import contextlib, io, json, os, sys
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(hook)
from arithinv import cli
codes = []
for argv, out, _ in json.loads(sys.argv[1]):
    sink = open(out, "w") if out else io.StringIO()
    with sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # --help
            codes.append(exc.code)
sys.setprofile(None)
root = os.path.dirname(cli.__file__)
print(json.dumps({"codes": codes, "entered": sorted(
    (os.path.relpath(c.co_filename, root), c.co_firstlineno, c.co_name)
    for c in entered if c.co_filename.startswith(root + os.sep)
)}))
"""


def _property_lambda(node):
    """The lambda of `name = property(lambda self: ...)`, else None."""
    call = node.value if isinstance(node, ast.Assign) else None
    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "property":
        return next((a for a in call.args[:1] if isinstance(a, ast.Lambda)), None)
    return None


def package_defs():
    """{(file, first line, name): "module.qualname"} for every def and
    lambda property in the package."""
    found = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + "." + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(file, first, child.name)] = name
                walk(child, file, name)
            else:
                getter = _property_lambda(child)
                if getter is not None:
                    found[(file, getter.lineno, "<lambda>")] = prefix + "." + child.targets[0].id
                walk(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, path.stem)
    return found


def test_every_def_is_entered_or_owned(tmp_path):
    runs = command_set(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    codes = [(argv, code) for (argv, _, _), code in zip(runs, result["codes"])]
    assert codes == [(argv, code) for argv, _, code in runs]
    entered = {tuple(key) for key in result["entered"]}
    defs = package_defs()
    missed = {name for key, name in defs.items() if key not in entered}
    assert sorted(missed - set(ALLOWED)) == [], "entered by no inv command and owned by no item"
    assert sorted(set(ALLOWED) - missed) == [], "allow-listed, but an inv command enters it"
