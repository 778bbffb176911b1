"""Seeded inputs and job lists for the three benchmark workloads.

Everything here is a pure function of (workload, seed, size): the same
arguments always write the same files and return the same jobs.  The
program only ever sees the files written here and the argument lists of
the jobs; what the benchmark expects of each job stays in the job dict.

Structures follow the two-step construction of ``tests/generators.py``:
a core of closed generators plus generators whose differentials lie in
the exterior square of the core, using only (2,0) and (1,1) terms.  Such
structures always satisfy d^2 = 0 and are nilpotent, so no draw is
rejected.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

THEORIES = ("bc", "aeppli", "dolbeault", "conj_dolbeault", "derham")
CONDITIONS = ("kahler", "skt", "gauduchon", "astheno", "pluriclosed:2", "ftpair")

# Sizes of one pass.  "smoke" keeps every structure at n <= 3 and every
# matrix tiny, so a whole pass takes a second or two.
SIZES = {
    "full": {
        # A pass is kept to a few seconds so that a run holds several passes
        # and every job's latency is a median over them.  At n = 5 the de Rham
        # table alone takes 12-15 s, so all five theories run at n = 4 and
        # the n = 5 structures get the Hodge theories named here.
        "sparse_hodge_n": 5,
        "sparse_hodge_theories": ("bc", "aeppli"),
        "sparse_all_n": 4,
        "dense_hodge_n": 5,
        "dense_hodge_theories": ("bc",),
        "dense_all_n": 4,
        "rank_shapes": ((64, 72), (96, 104)),
        "kernel_shapes": ((32, 40),),
        "battery_per_n": 5,
        "battery_ns": (2, 3, 4, 5),
        # At n = 7 one high wedge power of a dense metric costs about 2 s, so
        # the large draws skip gauduchon and pluriclosed:2 (obstruct already
        # checks gauduchon), and n = 7 also skips astheno.
        "battery_big": {6: ("kahler", "skt", "astheno", "ftpair"), 7: ("kahler", "skt", "ftpair")},
        "battery_table_max_n": 4,
    },
    "smoke": {
        "sparse_hodge_n": 3,
        "sparse_hodge_theories": ("bc", "aeppli"),
        "sparse_all_n": 2,
        "dense_hodge_n": 3,
        "dense_hodge_theories": ("bc",),
        "dense_all_n": 2,
        "rank_shapes": ((6, 8),),
        "kernel_shapes": ((5, 7),),
        "battery_per_n": 1,
        "battery_ns": (2, 3),
        "battery_big": {3: ("kahler", "skt", "astheno", "ftpair")},
        "battery_table_max_n": 3,
    },
}


def gauss_text(re: int, im: int) -> str:
    """A Gaussian integer in structure-file scalar syntax."""
    if im == 0:
        return str(re)
    imag = ("" if abs(im) == 1 else str(abs(im))) + "i"
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return "%d%s%s" % (re, "-" if im < 0 else "+", imag)


def nonzero_gauss(rng, span):
    while True:
        re, im = rng.randint(-span, span), rng.randint(-span, span)
        if re or im:
            return re, im


def structure_text(name, n, diffs) -> str:
    """``diffs`` maps a generator index to a list of (re, im, f, g) terms."""
    lines = ["algebra %s dim %d" % (name, n)]
    for t in sorted(diffs):
        terms = " + ".join(
            "(%s) * %s ^ %s" % (gauss_text(re, im), f, g)
            for re, im, f, g in diffs[t]
        )
        if terms:
            lines.append("d a%d = %s" % (t, terms))
    return "\n".join(lines) + "\n"


def _core_pairs(core):
    holo = [("a%d" % a, "a%d" % b) for a, b in itertools.combinations(range(1, core + 1), 2)]
    mixed = [("a%d" % a, "~a%d" % b) for a in range(1, core + 1) for b in range(1, core + 1)]
    return holo, mixed


def sparse_structure(rng, n, name):
    """One non-closed generator over a closed core a_1..a_{n-1}:
    ``d a_n = c1 a_s ^ a_t + c2 a_u ^ ~a_v`` with s, t, u, v a random
    arrangement of core indices (distinct while the core allows; at n = 2
    there is no a_s ^ a_t term) and c1, c2 nonzero Gaussian integers.

    Every draw is the same structure up to relabelling the core and
    rescaling, so its rank profile, and with it the cost, stays the same
    from seed to seed; only the order of the basis and the coefficients
    change."""
    core = rng.sample(range(1, n), n - 1)
    s, t, u, v = (core[i % len(core)] for i in range(4))
    terms = [nonzero_gauss(rng, 2) + ("a%d" % s, "a%d" % t)] if s != t else []
    terms.append(nonzero_gauss(rng, 2) + ("a%d" % u, "~a%d" % v))
    return structure_text(name, n, {n: terms})


def dense_exnilp(rng, n, name):
    """d a_n = sum A_ij a_i^a_j + sum B_ij a_i^~a_j with every A (i<j<n)
    and B (i,j<n) coefficient a nonzero Gaussian integer."""
    holo, mixed = _core_pairs(n - 1)
    terms = [nonzero_gauss(rng, 2) + pair for pair in holo + mixed]
    return structure_text(name, n, {n: terms})


def fixed_two_step(rng, n, name, core=3, terms=3):
    """Closed core a_1..a_core; every other generator gets exactly
    ``terms`` bracket terms on distinct monomials of the core, with
    nonzero coefficients.  Fixing the core size and the term count, which
    ``tests/generators.random_two_step`` draws, keeps the cost of a draw
    nearly the same from seed to seed; which monomials and coefficients a
    draw gets stays random."""
    holo, mixed = _core_pairs(core)
    diffs = {
        t: [nonzero_gauss(rng, 2) + pair for pair in rng.sample(holo + mixed, terms)]
        for t in range(core + 1, n + 1)
    }
    return structure_text(name, n, diffs)


def dense_metric(rng, n, span=2):
    """A dense Hermitian matrix made positive definite by strict diagonal
    dominance: off-diagonal entries are Gaussian integers in a small box,
    diagonal entries exceed each row's off-diagonal absolute sum."""
    H = [[(0, 0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            re, im = nonzero_gauss(rng, span)
            H[j][k] = (re, im)
            H[k][j] = (re, -im)
    for j in range(n):
        H[j][j] = (2 * span * (n - 1) + rng.randint(1, 3), 0)
    return {"H": [[{"re": str(re), "im": str(im)} for re, im in row] for row in H]}


# ---------------------------------------------------------------------------
# matrices with a certified rank


_PRIMES = (1000000009, 998244353, 1000000297)  # all = 1 mod 4


def _sqrt_minus_one(p):
    for g in range(2, p):
        s = pow(g, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s
    raise ValueError("p is not 1 mod 4")


def rank_mod_p(entries, p):
    """Rank of the reduction of a Gaussian-integer matrix mod p, with i
    mapped to a square root of -1.  It never exceeds the rank over Q(i)."""
    s = _sqrt_minus_one(p)
    rows = [[(re + im * s) % p for re, im in row] for row in entries]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def certified_matrix(rng, nrows, ncols, span=6):
    """A random dense Gaussian-integer matrix with nrows <= ncols and its
    exact rank.  A mod-p rank equal to nrows proves full row rank; draws
    that fail on every prime are replaced by the next draw of the same
    generator, which keeps the sequence a pure function of the seed."""
    while True:
        entries = [
            [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if any(rank_mod_p(entries, p) == nrows for p in _PRIMES):
            return entries, nrows


def exact_product(entries, vector):
    """entries @ vector over Q(i); vector entries are (Fraction, Fraction)."""
    out = []
    for row in entries:
        re = im = Fraction(0)
        for (a, b), (c, d) in zip(row, vector):
            re += a * c - b * d
            im += a * d + b * c
        out.append((re, im))
    return out


# ---------------------------------------------------------------------------
# job lists


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="ascii")
    return str(path)


def _table_job(jid, path, theory, group, n):
    return {
        "id": jid,
        "kind": "cli",
        "argv": ["table", path, "--theory", theory],
        "command": "table",
        "theory": theory,
        "group": group,
        "n": n,
    }


def _matrix_jobs(rng, work, size):
    jobs = []
    for kind, shapes in (("rank", size["rank_shapes"]), ("kernel", size["kernel_shapes"])):
        for r, c in shapes:
            entries, rk = certified_matrix(rng, r, c)
            jid = "%s-%dx%d" % (kind, r, c)
            path = _write(work / (jid + ".json"), json.dumps({"entries": entries}))
            jobs.append({"id": jid, "kind": kind, "matrix": path, "rank": rk,
                         "nrows": r, "ncols": c})
    return jobs


def _tables(rng, work, size, kind, prefix, make):
    """Table jobs on one structure at ``<kind>_hodge_n`` and one, with all
    five theories, at ``<kind>_all_n``."""
    jobs = []
    for n, theories in ((size[kind + "_hodge_n"], size[kind + "_hodge_theories"]),
                        (size[kind + "_all_n"], THEORIES)):
        name = "%s%d" % (prefix, n)
        path = _write(work / (name + ".nc"), make(rng, n, name))
        jobs += [_table_job("%s-%s" % (name, t), path, t, name, n) for t in theories]
    return jobs


def sparse_tables(rng, work, size):
    return _tables(rng, work, size, "sparse", "sparse", sparse_structure)


def dense_fill(rng, work, size):
    return _tables(rng, work, size, "dense", "exnilp", dense_exnilp) + _matrix_jobs(rng, work, size)


def battery(rng, work, size):
    jobs = []
    ns = [n for n in size["battery_ns"] for _ in range(size["battery_per_n"])]
    for idx, n in enumerate(ns + list(size["battery_big"])):
        name = "draw%d" % idx
        big = idx >= len(ns)
        if big:
            text = fixed_two_step(rng, n, name)
        else:
            # The draws at one n take core sizes 1, 2, ..., n in turn, and
            # each non-closed generator as many terms as random_two_step's
            # density of 0.4 gives on average.
            core = 1 + idx % size["battery_per_n"] % n
            monomials = core * (core - 1) // 2 + core * core
            text = fixed_two_step(rng, n, name, core, max(1, round(0.4 * monomials)))
        spath = _write(work / (name + ".nc"), text)
        hpath = _write(work / (name + "-H.json"), json.dumps(dense_metric(rng, n)))
        common = {"group": name, "n": n, "kind": "cli"}
        if not big:
            jobs.append(dict(common, id=name + "-validate", command="validate",
                             argv=["validate", spath]))
        jobs.append(dict(common, id=name + "-obstruct", command="obstruct",
                         argv=["obstruct", spath, "--hmatrix", hpath]))
        for cond in size["battery_big"][n] if big else CONDITIONS:
            jobs.append(dict(common, id="%s-metric-%s" % (name, cond), command="metric",
                             argv=["metric", spath, "--hmatrix", hpath, "--check", cond]))
        if n <= size["battery_table_max_n"]:
            jobs.append(_table_job(name + "-bc", spath, "bc", name, n))
    jobs.append({"id": "catalog-suite", "kind": "cli", "command": "catalog",
                 "argv": ["catalog", "suite"], "group": None})
    return jobs


WORKLOADS = {
    "sparse_tables": sparse_tables,
    "dense_fill": dense_fill,
    "battery": battery,
}


def make_jobs(workload: str, seed: int, size: str, work: Path):
    """Write the inputs of one workload under ``work`` and return its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](rng, work, SIZES[size])
