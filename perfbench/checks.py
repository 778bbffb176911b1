"""Correctness checks on job results.

Each check returns a list of problems (strings); a job with any problem
counts as failed.  Three kinds of check:

* per job: the exit code agrees with the verdict on stdout, and the output
  satisfies what the benchmark knows of its input (every two-step draw is
  valid and nilpotent, every generated metric is positive, every generated
  matrix has a certified rank, every kernel vector is annihilated);
* per structure, once all five tables of it are known: Euler
  characteristic, Froelicher and Angella-Tomassini inequalities,
  conjugation symmetry and Bott-Chern/Aeppli duality;
* against reference digests recorded at a known-good commit.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import exact_product

def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _check_table(job, payload, problems):
    n = job["n"]
    key = job["theory"]  # the CLI's theory names are also its output keys
    table = payload.get("hodge", {}).get(key)
    if key == "derham":
        if not (isinstance(table, list) and len(table) == 2 * n + 1 and all(map(_is_count, table))):
            problems.append("derham: expected %d betti numbers" % (2 * n + 1))
        elif table[0] != 1:
            problems.append("derham: b_0 != 1")
        return
    if not (isinstance(table, list) and len(table) == n + 1
            and all(isinstance(r, list) and len(r) == n + 1 and all(map(_is_count, r)) for r in table)):
        problems.append("%s: expected an (n+1)x(n+1) table of counts" % key)
        return
    if table[0][0] != 1:
        problems.append("%s: h^{0,0} != 1" % key)
    if key in ("bc", "aeppli") and any(
        table[p][q] != table[q][p] for p in range(n + 1) for q in range(n + 1)
    ):
        problems.append("%s: not conjugation-symmetric" % key)
    if payload.get("validity") != "nilpotent_J":
        problems.append("%s: two-step structure not flagged nilpotent_J" % key)


def _payload(res):
    """stdout as a JSON object, or None."""
    try:
        payload = json.loads(res["stdout"])
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def check_cli(job, res):
    problems = []
    payload = _payload(res)
    if payload is None:
        return ["stdout is not a JSON object"]
    code = res["exit"]
    cmd = job["command"]
    if cmd == "validate":
        valid = payload.get("valid", {}).get("jacobi_ok")
        if code != 0 or valid is not True or payload.get("nilpotent_J") is not True:
            problems.append("validate: two-step draw not reported valid and nilpotent")
        elif payload.get("filtration", [None])[-1] != 2 * job["n"]:
            problems.append("validate: filtration does not end at 2n")
    elif cmd == "table":
        if code != 0:
            problems.append("table: exit %r" % code)
        else:
            _check_table(job, payload, problems)
    elif cmd == "metric":
        verdict = payload.get("verdicts", {}).get("metric", {})
        holds = verdict.get("holds")
        if code != (0 if holds else 1) or not isinstance(holds, bool):
            problems.append("metric: exit %r disagrees with holds=%r" % (code, holds))
        if holds is (len(verdict.get("witness", [])) > 0):
            problems.append("metric: witness disagrees with the verdict")
        if verdict.get("positive") is not True:
            problems.append("metric: generated metric not reported positive")
    elif cmd == "obstruct":
        v = payload.get("verdicts", {})
        excluded = v.get("astheno_excluded")
        if code != (1 if excluded else 0) or not isinstance(excluded, bool):
            problems.append("obstruct: exit %r disagrees with astheno_excluded" % code)
        if v.get("gap") != v.get("h01_a", 0) - v.get("h01_bc", 0) or not _is_count(v.get("gap")):
            problems.append("obstruct: gap is not h01_a - h01_bc >= 0")
        if v.get("metric_positive") is not True:
            problems.append("obstruct: generated metric not reported positive")
        if v.get("validity") != "nilpotent_J":
            problems.append("obstruct: two-step structure not flagged nilpotent_J")
    elif cmd == "catalog":
        if code != 0 or payload.get("ok") is not True:
            problems.append("catalog suite: not ok")
    return problems


def check_matrix(job, res, entries):
    """``entries``: the job's matrix as (re, im) integer pairs."""
    payload = _payload(res)
    if payload is None:
        return ["stdout is not a JSON object"]
    problems = []
    rank = payload.get("rank")
    if rank != job["rank"]:
        problems.append("rank %r, certified %d" % (rank, job["rank"]))
    if job["kind"] == "kernel":
        try:
            kernel = [[(Fraction(re), Fraction(im)) for re, im in vec] for vec in payload["kernel"]]
        except (KeyError, TypeError, ValueError):
            return problems + ["kernel is not a list of vectors over Q(i)"]
        if not isinstance(rank, int) or rank + len(kernel) != job["ncols"]:
            problems.append("rank + kernel size != ncols")
        for v in kernel:
            if len(v) != job["ncols"] or any(re or im for re, im in exact_product(entries, v)):
                problems.append("kernel vector not annihilated")
                break
    return problems


def _degree_sums(table, n):
    return [sum(table[p][k - p] for p in range(max(0, k - n), min(k, n) + 1))
            for k in range(2 * n + 1)]


def check_structure(n, tables, validity):
    """Cross-theory invariants; ``tables`` maps theory key -> table."""
    problems = []
    bc, a = tables.get("bc"), tables.get("aeppli")
    dol, cdol = tables.get("dolbeault"), tables.get("conj_dolbeault")
    betti = tables.get("derham")
    rng = range(n + 1)
    if dol and cdol and any(dol[p][q] != cdol[q][p] for p in rng for q in rng):
        problems.append("h_delbar^{p,q} != h_del^{q,p}")
    if bc and a and validity == "nilpotent_J" and any(
        bc[p][q] != a[n - p][n - q] for p in rng for q in rng
    ):
        problems.append("h_BC^{p,q} != h_A^{n-p,n-q}")
    if betti:
        if sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
            problems.append("Euler characteristic != 0")
        for name, t in (("dolbeault", dol), ("conj_dolbeault", cdol)):
            if t and any(b > s for b, s in zip(betti, _degree_sums(t, n))):
                problems.append("Froelicher inequality fails for %s" % name)
        if bc and a and any(
            x + y < 2 * b for x, y, b in zip(_degree_sums(bc, n), _degree_sums(a, n), betti)
        ):
            problems.append("Angella-Tomassini inequality fails")
    return problems


def structure_groups(jobs, results, failed):
    """Problems per job id from the cross-theory invariants of every
    structure whose table jobs all ran (have an id in ``results``) and
    passed their own checks (no id in ``failed``)."""
    by_group = {}
    for job in jobs:
        if job.get("command") == "table":
            by_group.setdefault(job["group"], []).append(job)
    problems = {}
    for group, members in by_group.items():
        tables, validity = {}, None
        for job in members:
            if job["id"] in failed or job["id"] not in results:
                break
            payload = _payload(results[job["id"]])
            tables[job["theory"]] = payload["hodge"][job["theory"]]
            validity = payload.get("validity", validity)
        else:
            found = check_structure(members[0]["n"], tables, validity)
            for job in members:
                problems[job["id"]] = found
    return problems
