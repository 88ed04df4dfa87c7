"""Seeded inputs for the arithinv benchmark.

Everything here is a pure function of (workload, seed, size): the same
seed gives byte-identical corpora, point lists and Gram matrices.  The
program under test never sees the seed, only the files written here.

``data/`` pins the baseline, the program as it was when this benchmark
was introduced: a copy of its bundled corpus, the hard set, and (from
``make_reference.py``) the real quadratic fields that abort ``inv
verify``, the reference report rows and the Mordell-Weil Gram matrices
of the height curves.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("verify_corpus", "object_queries", "heights_multiples", "minima_by_rank")

EP_PMAX = 4000  # family ep pool: y^2 = x^3 + p^2, p = 5 mod 9 prime, p <= EP_PMAX
REAL_MMAX = 3000  # real quadratic pool Q(sqrt m), m < REAL_MMAX squarefree
IMAG_MMAX = 1000  # imaginary quadratic pool Q(sqrt -m), m < IMAG_MMAX squarefree
FIRST_ABORT = 211  # Q(sqrt 211): first real quadratic field that aborts at baseline

SIZES = {
    "full": {
        "ep": 40,
        "real": 3,
        "imag": 3,
        "hard_real": 2,
        "height_curves": ("37a", "389a", "5077a", "234446a"),
        "small": 48,
        # ms-long ops swing with the machine's speed, so both the median
        # and the tail percentile fall among the 17 rank-4 lattices;
        # one rank-5 shows the cliff
        "ranks": (1,) * 2 + (2,) * 2 + (3,) * 4 + (4,) * 16 + (5,),
        "mw_grams": ("389a", "5077a", "234446a"),
    },
    # smoke-test size: every layer and both baseline defects, in a few seconds
    "tiny": {
        "ep": 2,
        "real": 1,
        "imag": 1,
        "hard_real": 1,
        "height_curves": ("37a",),
        "small": 2,
        "ranks": (1, 2, 3),
        "mw_grams": ("389a",),
    },
}

# Multiples k*P_i of the generators, by bucket of hhat(kP_i).
# small: every +-k*P_i with 2 <= k <= kmax_i, kmax_i the largest k with
#   hhat(kP_i) < 10; the seed picks SIZES[...]["small"] of them.
# mid: k*P_0 with hhat in 10-100, fixed, the doubling oracle's point (its
#   cost jumps with k as the work cap cuts the doubling count).
# large: (generator, k) with hhat just above 100, fixed because the cost
#   grows steeply with k; the seed picks the sign.
# The many cheap small calls keep the median latency inside one cluster
# and the 16 oracle/large calls keep the tail percentile inside another.
HEIGHT_CURVES = {
    "37a": {
        "a": (0, 0, 1, -1, 0),
        "gens": ((0, 0),),
        "kmax": (13,),
        "mid": 14,
        "large": ((0, 45), (0, 46), (0, 47)),
    },
    "389a": {
        "a": (0, 1, 1, -2, 0),
        "gens": ((0, 0), (1, 0)),
        "kmax": (5, 4),
        "mid": 6,
        "large": ((0, 18), (1, 15)),
    },
    "5077a": {
        "a": (0, 0, 1, -7, 6),
        "gens": ((-2, 3), (-1, 3), (0, 2)),
        "kmax": (2, 2, 3),
        "mid": 3,
        "large": ((0, 9), (1, 10), (2, 11)),
    },
    "234446a": {
        "a": (1, -1, 0, -79, 289),
        "gens": ((-10, 3), (-9, 19), (-8, 23), (-7, 25)),
        "kmax": (2, 1, 2, 1),
        "mid": 3,
        "large": ((0, 7), (1, 7), (2, 7), (3, 7)),
    },
}


def _load_json(name):
    with open(DATA / name, encoding="utf-8") as handle:
        return json.load(handle)


def _rng(workload, seed, part):
    return random.Random("%s:%d:%s" % (workload, seed, part))


# Plain helpers instead of arithinv's: the generator does not import the
# program, so the inputs cannot change when the program does.
def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _squarefree(m):
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


def bundled_text():
    return (DATA / "bundled_corpus.txt").read_text(encoding="utf-8")


def ep_record(p):
    return "curve Ep%d\na = 0 0 0 0 %d\nrank = 0" % (p, p * p)


def real_record(m):
    return "field Qr%d\npoly = %d 0 1" % (m, -m)


def imag_record(m):
    return "field Qi%d\npoly = %d 0 1" % (m, m)


def pools():
    """Candidate records the seed samples from, split by baseline behaviour."""
    bundled = {label for _, label in record_keys(bundled_text())}
    aborts = set(_load_json("seed_aborts.json")["real_quadratic_m"])
    ep = [
        p
        for p in range(5, EP_PMAX + 1)
        if p % 9 == 5 and _is_prime(p) and "Ep%d" % p not in bundled
    ]
    real = [m for m in range(2, REAL_MMAX) if _squarefree(m)]
    return {
        "ep": ep,
        "real_ok": [m for m in real if m not in aborts],
        "real_abort": [m for m in real if m in aborts and m != FIRST_ABORT],
        "imag": [m for m in range(1, IMAG_MMAX) if _squarefree(m)],
    }


def verify_records(seed, size):
    """Generated records appended to the bundled corpus, in a fixed order."""
    cfg = SIZES[size]
    pool = pools()
    rng = _rng("corpus", seed, "records")
    ep = sorted(rng.sample(pool["ep"], cfg["ep"]))
    real = sorted(rng.sample(pool["real_ok"], cfg["real"]))
    imag = sorted(rng.sample(pool["imag"], cfg["imag"]))
    return (
        [ep_record(p) for p in ep]
        + [real_record(m) for m in real]
        + [imag_record(m) for m in imag]
    )


def hard_records(seed, size):
    """The object_queries hard set: fixed curves, Q(sqrt 211), seeded aborts."""
    cfg = SIZES[size]
    rng = _rng("corpus", seed, "hard")
    aborts = sorted(rng.sample(pools()["real_abort"], cfg["hard_real"]))
    fixed = (DATA / "hard_set.txt").read_text(encoding="utf-8").strip()
    return [fixed] + [real_record(m) for m in [FIRST_ABORT] + aborts]


def verify_corpus_text(seed, size):
    return bundled_text().rstrip("\n") + "\n\n" + "\n\n".join(verify_records(seed, size)) + "\n"


def query_corpus_text(seed, size):
    return (
        verify_corpus_text(seed, size).rstrip("\n")
        + "\n\n"
        + "\n\n".join(hard_records(seed, size))
        + "\n"
    )


def record_keys(text):
    """(kind, label) of every record of a corpus, in file order."""
    keys = []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if len(parts) == 2 and parts[0] in ("field", "curve"):
            keys.append((parts[0], parts[1]))
    return keys


def corpus_queries(text, seed):
    """One (kind, label) query per record of a corpus, in seeded order."""
    queries = record_keys(text)
    _rng("object_queries", seed, "order").shuffle(queries)
    return queries


def height_plan(seed, size):
    """Per curve, in a fixed order: the generators and the multiples
    (gen, k, oracle) to evaluate; k < 0 means -|k| P.  The fixed curve
    order keeps the call that pays the first prime sieve the same."""
    cfg = SIZES[size]
    rng = _rng("heights_multiples", seed, "plan")
    small = [
        (name, i, sign * k)
        for name in cfg["height_curves"]
        for i, kmax in enumerate(HEIGHT_CURVES[name]["kmax"])
        for k in range(2, kmax + 1)
        for sign in (1, -1)
    ]
    chosen = set(rng.sample(small, cfg["small"]))
    plan = []
    for name in cfg["height_curves"]:
        spec = HEIGHT_CURVES[name]
        multiples = [
            {"gen": i, "k": k, "oracle": False} for curve, i, k in small if curve == name and (curve, i, k) in chosen
        ]
        if size == "tiny":
            multiples[0]["oracle"] = True
        else:
            multiples.append({"gen": 0, "k": spec["mid"], "oracle": True})
            multiples += [
                {"gen": i, "k": rng.choice((1, -1)) * k, "oracle": False} for i, k in spec["large"]
            ]
        plan.append({"curve": name, "a": list(spec["a"]), "gens": [list(g) for g in spec["gens"]], "multiples": multiples})
    return plan


def random_gram(rng, m):
    """A well-conditioned positive definite Gram matrix A A^T, scaled."""
    a = [
        [(1.0 + rng.uniform(0.0, 0.5)) if i == j else rng.uniform(-0.4, 0.4) for j in range(m)]
        for i in range(m)
    ]
    scale = rng.uniform(0.5, 2.0)
    return [
        [round(scale * sum(a[i][t] * a[j][t] for t in range(m)), 12) for j in range(m)]
        for i in range(m)
    ]


def minima_lattices(seed, size):
    cfg = SIZES[size]
    rng = _rng("minima_by_rank", seed, "grams")
    lattices = [
        {"label": "rand%d_r%d" % (i, m), "gram": random_gram(rng, m)}
        for i, m in enumerate(cfg["ranks"])
    ]
    mw = _load_json("mw_grams.json")
    lattices += [{"label": "mw_" + name, "gram": mw[name]["gram"]} for name in cfg["mw_grams"]]
    rng.shuffle(lattices)
    return lattices


def generate(workload, seed, size, outdir):
    """Write the inputs of one workload run, and their spec.json, to outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "size": size}
    if workload == "verify_corpus":
        path = outdir / "verify_corpus.txt"
        text = verify_corpus_text(seed, size)
        path.write_text(text, encoding="utf-8")
        spec["corpus"] = str(path)
        keys = record_keys(text)
        spec["labels"] = [label for _, label in keys]
        spec["curves"] = sum(1 for kind, _ in keys if kind == "curve")
    elif workload == "object_queries":
        path = outdir / "query_corpus.txt"
        text = query_corpus_text(seed, size)
        path.write_text(text, encoding="utf-8")
        spec["corpus"] = str(path)
        spec["queries"] = corpus_queries(text, seed)
    elif workload == "heights_multiples":
        spec["plan"] = height_plan(seed, size)
        spec["mw"] = {
            name: _load_json("mw_grams.json")[name]
            for name in SIZES[size]["height_curves"]
        }
    elif workload == "minima_by_rank":
        spec["lattices"] = minima_lattices(seed, size)
    else:
        raise ValueError("unknown workload %r" % workload)
    with open(outdir / "spec.json", "w", encoding="utf-8") as handle:
        json.dump(spec, handle, indent=1)
