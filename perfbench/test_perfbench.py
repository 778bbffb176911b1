"""The benchmark's own tests: reduced-size runs and its failure checks.

    python3 -m pytest perfbench/test_perfbench.py

Run from the repository root.  Each smoke run uses structures with
n <= 3 and tiny matrices, so the whole file takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(HERE.parent), capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = make_jobs("battery", 3, "smoke", tmp_path / "a")
    b = make_jobs("battery", 3, "smoke", tmp_path / "b")
    c = make_jobs("battery", 4, "smoke", tmp_path / "c")
    text = lambda d: [p.read_text() for p in sorted(d.iterdir())]  # noqa: E731
    assert [j["id"] for j in a] == [j["id"] for j in b]
    assert text(tmp_path / "a") == text(tmp_path / "b") != text(tmp_path / "c")


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    """One untraced pass of the reduced dense_fill workload."""
    import time

    jobs = make_jobs("dense_fill", 5, "smoke", tmp_path_factory.mktemp("work"))
    result = run.Run(jobs, time.perf_counter())
    worker = run.Worker(0)
    try:
        result.run_pass(worker, False)
    finally:
        worker.close()
    assert run.failures(result, run.job_problems(result, None)) == 0
    return result


def test_tampered_reference_digest_fails_the_job(dense_run):
    results = dense_run.passes[0][2]
    reference = {jid: [r["exit"], r["digest"]] for jid, r in results.items()}
    assert run.failures(dense_run, run.job_problems(dense_run, reference)) == 0
    victim = sorted(reference)[0]
    reference[victim][1] = "0" * 64
    problems = run.job_problems(dense_run, reference)
    assert set(problems) == {victim}
    assert run.failures(dense_run, problems) == 1


def _with_stdout(result, job_id, edit):
    tampered = copy.deepcopy(result)
    res = tampered.passes[0][2][job_id]
    payload = json.loads(res["stdout"])
    edit(payload)
    res["stdout"] = json.dumps(payload)
    return tampered


def test_broken_invariant_fails_the_structure(dense_run):
    exnilp = [j for j in dense_run.jobs if j.get("theory") == "derham"][0]

    def bump_b1(payload):
        payload["hodge"]["derham"][1] += 1  # breaks the Euler characteristic

    tampered = _with_stdout(dense_run, exnilp["id"], bump_b1)
    problems = run.job_problems(tampered, None)
    group = {j["id"] for j in dense_run.jobs if j.get("group") == exnilp["group"]}
    assert set(problems) == group
    assert any("Euler" in p for p in problems[exnilp["id"]])
    assert run.failures(tampered, problems) == len(group)


def test_wrong_kernel_vector_fails_the_job(dense_run):
    kernel = [j for j in dense_run.jobs if j["kind"] == "kernel"][0]

    def nudge(payload):
        payload["kernel"][0][0] = ["12345", "0"]

    problems = run.job_problems(_with_stdout(dense_run, kernel["id"], nudge), None)
    assert problems == {kernel["id"]: ["kernel vector not annihilated"]}


def test_each_invariant_catches_its_violation(dense_run):
    results = dense_run.passes[0][2]
    members = [j for j in dense_run.jobs if j.get("group") and j["theory"] == "derham"]
    group = members[0]["group"]
    n = members[0]["n"]
    tables = {
        j["theory"]: json.loads(results[j["id"]]["stdout"])["hodge"][j["theory"]]
        for j in dense_run.jobs if j.get("group") == group
    }
    assert len(tables) == 5
    assert checks.check_structure(n, tables, "nilpotent_J") == []

    def broken(edit):
        t = copy.deepcopy(tables)
        edit(t)
        return checks.check_structure(n, t, "nilpotent_J")

    def drop_bc_aeppli(t):
        t["bc"] = [[0] * (n + 1) for _ in range(n + 1)]
        t["aeppli"] = copy.deepcopy(t["bc"])

    def raise_betti(t):
        t["derham"] = [b + 10 for b in t["derham"]]

    def shift_bc(t):
        t["bc"][0][0] += 1

    def swap_dolbeault(t):
        t["dolbeault"][0][1] += 1

    assert "Euler characteristic != 0" in broken(lambda t: t["derham"].__setitem__(0, 2))
    assert "Froelicher inequality fails for dolbeault" in broken(raise_betti)
    assert "Angella-Tomassini inequality fails" in broken(drop_bc_aeppli)
    assert "h_BC^{p,q} != h_A^{n-p,n-q}" in broken(shift_bc)
    assert "h_delbar^{p,q} != h_del^{q,p}" in broken(swap_dolbeault)


def test_probe_runs_no_nilcoh_code():
    code = ("import sys; import calibrate; calibrate.probe(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'nilcoh'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=str(HERE), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_latencies_are_scaled_by_the_mean_probe_time():
    fake = run.Run([], 0.0)
    fake.passes = [(False, 3.0, {"a": {"latency": 1.0, "maxrss_kb": 1024},
                                 "b": {"latency": 2.0, "maxrss_kb": 2048}}),
                   (True, 9.0, {"a": {"latency": 7.0}, "b": {"latency": 7.0}}),
                   (False, 5.0, {"a": {"latency": 3.0, "maxrss_kb": 1024},
                                 "b": {"latency": 2.0, "maxrss_kb": 1024}})]
    ref = run.calibrate.REFERENCE_PROBE_S
    fake.probes = [ref, 2 * ref, 3 * ref]  # the host ran at half the reference speed
    fake.setup_walls = [0.2, 0.4, 0.3]
    values, _ = run.end_to_end_metrics(fake)
    assert values["wall_s"] == pytest.approx((2.0 + 2.0) / 2)
    assert values["wall_unscaled_s"] == pytest.approx(4.0)
    assert values["setup_s"] == pytest.approx(0.15)
    assert values["peak_rss_mb"] == 2.0


def test_a_pass_cut_short_checks_only_the_jobs_it_ran(dense_run):
    partial = copy.deepcopy(dense_run)
    results = partial.passes[0][2]
    derham = [j["id"] for j in partial.jobs if j.get("theory") == "derham"][0]
    del results[derham]  # its structure's five tables are no longer all there
    assert run.job_problems(partial, None) == {}
    assert run.failures(partial, {}) == 0
    assert sum(len(res) for _, _, res in partial.passes) == len(partial.jobs) - 1
