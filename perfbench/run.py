"""End-to-end benchmark of the nilcoh command line and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  One client runs a closed loop: it sends
the next job only after the previous one finished.  Every job runs in a
fresh fork of a worker process that has already imported ``nilcoh`` from
``src/``, so jobs share no state, as separate ``nilcoh`` invocations would
not; start-up cost is measured apart, as ``setup_s``.

A pass runs every job of the workload once, in order.  The first pass is
always whole; later ones run each job that, at its last latency, is
expected to end within ``--seconds`` of the start, set-up included, so
the last passes may leave out the longer jobs.  With ``--trace 1``
untraced and traced passes alternate, whole, while another pair fits; the
traced ones give the per-layer numbers, and comparing the two gives the
tracing overhead.

The host this runs on is shared, and its speed drifts by a third or more
over minutes, so between the jobs of untraced passes the run also times a
fixed probe (``calibrate.py``) that uses no ``nilcoh`` code, and states
every time at the speed of a reference host: each job's mean latency over
the passes times ``REFERENCE_PROBE_S`` over the run's mean probe time.
``wall_s`` is the sum of these, the time of one pass of every job; the
results file keeps the unscaled times too.  Cold set-up spawns are spread
over the run the same way, and ``setup_s`` is their median, scaled alike.

Every job's output is checked (see ``checks.py``); for the default seed
its exit code and stdout digest must also match ``reference.json``,
recorded at the commit that added the benchmark.  Each run writes every
job's digest, latencies and problems to ``perfbench/_results/``, so two
commits can be compared byte for byte on any seed; a traced run also
writes its spans there.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

# Cold set-up spawns: one every SETUP_EVERY_S of job time, and at least
# SETUP_MIN_SPAWNS in a run.
SETUP_EVERY_S = 2.5
SETUP_MIN_SPAWNS = 5
RUN_DEADLINE_S = 165.0  # no job starts after this, so a run ends well within 180 s
JOB_TIMEOUT_S = 120.0
# A traced job's layer self times plus the tracer's own bookkeeping must
# cover its measured wall time to within this share plus a fixed slack: the
# job's glue outside every span, where a garbage collection of the whole
# inherited heap (a few ms) can also fall.
TRACE_COVERAGE_TOLERANCE = (0.05, 0.010)
# The host-speed probe (see calibrate.py) runs between the jobs of an
# untraced pass for this share of their time, so that each job's stretch of
# the run is sampled in proportion to its length.
PROBE_SHARE = 0.2
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import nilcoh.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Printed and kept in the results file, but not part of the JSON result.
# On sparse_tables and dense_fill each percentile is one job's latency (the
# 90th is the slowest job); there they spread by 0.05-0.14 of their median
# over ten seeds on a 2-vCPU shared host even when scaled, too close to the
# 0.25 bound to gate on.
# The unscaled wall time and the mean probe time show what the scaling did.
INFORMATIONAL = (("job_p50_s", "s"), ("job_p90_s", "s"), ("wall_unscaled_s", "s"), ("probe_s", "s"))

# (metric, unit) for the traced run; self_s and calls come from spans,
# the rest from counters or from ratios of them.
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("dsl.read_structure_file.self_s", "s"),
    ("algebra.validate.calls", "count"), ("algebra.validate.self_s", "s"),
    ("algebra.nilpotency_filtration.self_s", "s"),
    ("algebra.diff.calls", "count"), ("algebra.diff.self_s", "s"),
    ("cohomology.operator_matrix.calls", "count"), ("cohomology.operator_matrix.builds", "count"),
    ("cohomology.operator_matrix.hit_frac", "ratio"), ("cohomology.operator_matrix.self_s", "s"),
    ("cohomology.operator_matrix.cells", "count"), ("cohomology.operator_matrix.nnz", "count"),
    ("cohomology.d_matrix.calls", "count"), ("cohomology.d_matrix.builds", "count"),
    ("cohomology.d_matrix.self_s", "s"), ("cohomology.d_matrix.cells", "count"),
    ("cohomology.d_matrix.nnz", "count"),
    ("cohomology.hodge_number.self_s", "s"), ("cohomology.class_representatives.self_s", "s"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.matmul.cell_ops", "count"), ("linalg.matmul.useful_ops", "count"),
    ("linalg.matmul.useful_frac", "ratio"),
    ("linalg.rank.calls", "count"), ("linalg.rank.self_s", "s"), ("linalg.rank.cells", "count"),
    ("linalg.rank.nnz", "count"), ("linalg.rank.nnz_frac", "ratio"),
    ("linalg.rank.repeat_frac", "ratio"),
    ("linalg.kernel_basis.calls", "count"), ("linalg.kernel_basis.self_s", "s"),
    ("linalg.kernel_basis.cells", "count"),
    ("linalg.span_basis.self_s", "s"), ("linalg.greedy_complement.self_s", "s"),
    ("linalg.subquotient_dim.self_s", "s"),
    ("metrics.check_condition.calls", "count"), ("metrics.check_condition.self_s", "s"),
    ("metrics.wedge_power.calls", "count"), ("metrics.wedge_power.self_s", "s"),
    ("metrics.is_positive.self_s", "s"),
    ("obstructions.obstruction_report.calls", "count"),
    ("obstructions.obstruction_report.self_s", "s"),
    ("obstructions.l_functional.self_s", "s"),
    ("reports.emit_report.calls", "count"), ("reports.emit_report.self_s", "s"),
    ("reports.emit_report.bytes", "B"),
    ("catalog.run_suite.self_s", "s"), ("catalog.fixtures_checked", "count"),
    ("proc.import_s", "s"), ("proc.cpu_s", "s"), ("proc.trace_overhead_frac", "ratio"),
)

RATIOS = {
    "cohomology.operator_matrix.hit_frac": (
        "cohomology.operator_matrix.builds", "cohomology.operator_matrix.calls", True),
    "linalg.matmul.useful_frac": ("linalg.matmul.useful_ops", "linalg.matmul.cell_ops", False),
    "linalg.rank.nnz_frac": ("linalg.rank.nnz", "linalg.rank.cells", False),
    "linalg.rank.repeat_frac": ("linalg.rank.repeats", "linalg.rank.calls", False),
}


class Worker:
    """A ``worker.py`` process fed one job at a time."""

    def __init__(self, trace):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--trace", str(trace), "--src", str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), env=env,
            text=True, bufsize=1,
        )
        self._read()  # {"ready": true} once nilcoh is imported

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited with code %s" % self.proc.wait())
        return json.loads(line)

    def run(self, job, timeout):
        self.proc.stdin.write(json.dumps({"job": job, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def spawn_import():
    """One cold interpreter start plus ``import nilcoh.cli``: (wall time,
    import time as the child measured it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=str(ROOT), env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, float(out.stdout)


class Run:
    """All passes of one benchmark run and the checks on their results.

    Between the jobs of untraced passes the run also takes the host-speed
    probe (PROBE_SHARE of the job time) and a cold set-up spawn (every
    SETUP_EVERY_S of job time), so both sample the whole run, not just its
    start."""

    def __init__(self, jobs, started):
        self.jobs = jobs
        self.started = started
        self.passes = []  # (traced, wall, {job id: result})
        self.probes = []  # probe times, in the order taken
        self.setup_walls = []
        self.import_times = []
        self._probe_due = 0.0  # probe time owed to the jobs run so far
        self._since_spawn = math.inf
        self._last = {}  # job id -> its latest latency
        calibrate.probe()  # warm-up, not kept

    def spawn(self):
        wall, imported = spawn_import()
        self.setup_walls.append(wall)
        self.import_times.append(imported)

    def _between_jobs(self):
        while self._probe_due > 0 or not self.probes:
            self.probes.append(calibrate.probe())
            self._probe_due -= self.probes[-1]
        if self._since_spawn >= SETUP_EVERY_S:
            self.spawn()
            self._since_spawn = 0.0

    def run_pass(self, worker, traced, until=None):
        """Run every job once, in order; with ``until``, only the jobs that,
        at their latest latency, are expected to end by then.  Returns the
        pass's duration, probes and spawns included (0.0 if no job ran);
        the wall time kept for the pass leaves them out."""
        results = {}
        t0 = time.perf_counter()
        extra = 0.0
        for job in self.jobs:
            if until is not None and time.perf_counter() + self._last.get(job["id"], 0.0) > until:
                continue
            left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
            if left <= 0:
                results[job["id"]] = {"id": job["id"], "error": "not run: run deadline passed"}
                continue
            if not traced:
                t = time.perf_counter()
                self._between_jobs()
                extra += time.perf_counter() - t
            res = results[job["id"]] = worker.run(job, min(JOB_TIMEOUT_S, left))
            self._last[job["id"]] = res["latency"]
            if not traced:
                self._probe_due += PROBE_SHARE * res["latency"]
                self._since_spawn += res["latency"]
        if not results:
            return 0.0
        took = time.perf_counter() - t0
        self.passes.append((traced, took - extra, results))
        return took

    def walls(self, traced):
        return [wall for t, wall, _ in self.passes if t == traced]

    def results(self, traced):
        return [res for t, _, res in self.passes if t == traced]


def schedule(seconds, round_fn):
    """Repeat ``round_fn`` (returns its duration) while one more fits."""
    t0 = time.perf_counter()
    durations = []
    while True:
        durations.append(round_fn())
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return


def job_problems(run, reference):
    """Problems per job id over every pass of the run."""
    problems = defaultdict(list)
    matrices = {}
    first = {}
    for traced, _, results in run.passes:
        for job in run.jobs:
            res = results.get(job["id"])
            if res is None:  # the run's time ran out before this job
                continue
            found = problems[job["id"]]
            if "error" in res:
                found.append(res["error"].strip().splitlines()[-1])
                continue
            if job["id"] in first:
                base = first[job["id"]]
                if (res["exit"], res["digest"]) != (base["exit"], base["digest"]):
                    found.append("%s pass differs from the first pass"
                                 % ("traced" if traced else "untraced"))
            else:
                first[job["id"]] = res
            if job["kind"] != "cli" and job["id"] not in matrices:
                with open(job["matrix"], encoding="ascii") as fh:
                    matrices[job["id"]] = json.load(fh)["entries"]
            try:
                if job["kind"] == "cli":
                    found += checks.check_cli(job, res)
                else:
                    found += checks.check_matrix(job, res, matrices[job["id"]])
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                found.append("output has an unexpected shape (%r)" % exc)
            if reference is not None:
                want = reference.get(job["id"])
                if want is None:
                    found.append("job missing from reference.json")
                elif [res["exit"], res["digest"]] != want:
                    found.append("exit code or stdout digest differs from reference.json")
            if traced:
                spans = res["spans"]
                covered = sum(tracing.self_times(spans)) + sum(s[5] for s in spans)
                wall = res["child_wall"]
                share, slack = TRACE_COVERAGE_TOLERANCE
                if abs(wall - covered) > share * wall + slack:
                    found.append("layer self times cover %.4f s of %.4f s" % (covered, wall))
        failed = {jid for jid, found in problems.items() if found}
        for jid, found in checks.structure_groups(run.jobs, results, failed).items():
            problems[jid] += found
    return {jid: sorted(set(p)) for jid, p in problems.items() if p}


def failures(run, problems):
    """Failed job runs: every run of a job with a problem counts."""
    return sum(1 for _, _, res in run.passes for jid in res if jid in problems)


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def job_means(run):
    """Each job's mean latency over the run's untraced passes."""
    lat = defaultdict(list)
    for res in run.results(False):
        for jid, r in res.items():
            if "latency" in r:
                lat[jid].append(r["latency"])
    return [statistics.fmean(v) for v in lat.values()]


def end_to_end_metrics(run):
    """Times at the reference host's speed: each job's mean latency over
    the passes, and the median set-up spawn, times REFERENCE_PROBE_S over
    the mean probe time of the run.  Means, not medians, for jobs and
    probes: a slow stretch lengthens a job by the mean slowdown over it,
    and the probes, spread over the run, see the same mean."""
    scale = calibrate.REFERENCE_PROBE_S / statistics.fmean(run.probes)
    raw = job_means(run)
    lat = [x * scale for x in raw]
    rss = [r["maxrss_kb"] for res in run.results(False) for r in res.values() if "maxrss_kb" in r]
    values = {
        "wall_s": sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_p90_s": percentile(lat, 0.9),
        "peak_rss_mb": max(rss) / 1024.0,
        "setup_s": statistics.median(run.setup_walls) * scale,
        "wall_unscaled_s": sum(raw),
        "probe_s": statistics.fmean(run.probes),
    }
    passes = len(run.walls(False))
    notes = {"job_p50_s": "n=%d jobs" % len(lat), "job_p90_s": "n=%d jobs, %d beyond" % (
        len(lat), sum(1 for x in lat if x > values["job_p90_s"])),
        "wall_s": "one pass, every job at its mean over %d passes" % passes,
        "setup_s": "median of %d spawns" % len(run.setup_walls),
        "wall_unscaled_s": "as measured, host-speed factor %.3f" % scale,
        "probe_s": "mean of %d probes" % len(run.probes)}
    return values, notes


def per_layer_metrics(run):
    traced = run.results(True)
    totals = defaultdict(float)
    for results in traced:
        for res in results.values():
            spans = res.get("spans", [])
            for span, own in zip(spans, tracing.self_times(spans)):
                totals[span[0] + ".self_s"] += own
                totals[span[0] + ".calls"] += 1
            for key, value in res.get("counters", {}).items():
                totals[key] += value
    per_pass = {k: v / len(traced) for k, v in totals.items()}
    values = {}
    notes = {}
    cpu = [sum(r.get("cpu", 0.0) for r in res.values()) for res in run.results(False)]
    for name, _ in PER_LAYER:
        if name in RATIOS:
            num, den, complement = RATIOS[name]
            base = per_pass.get(den, 0)
            share = per_pass.get(num, 0) / base if base else 0.0
            values[name] = 1.0 - share if complement and base else share
            notes[name] = "base %s=%g" % (den, base)
        elif name == "proc.import_s":
            values[name] = statistics.median(run.import_times)
        elif name == "proc.cpu_s":
            values[name] = statistics.median(cpu)
        elif name == "proc.trace_overhead_frac":
            values[name] = statistics.median(run.walls(True)) / statistics.median(run.walls(False)) - 1
        else:
            values[name] = per_pass.get(name, 0)
    return values, notes, per_pass


def layer_shares(per_pass):
    total = sum(v for k, v in per_pass.items() if k.endswith(".self_s"))
    return {k[: -len(".self_s")]: v / total for k, v in sorted(
        per_pass.items(), key=lambda kv: -kv[1]) if k.endswith(".self_s") and total}


def load_reference(workload, seed, smoke):
    with open(HERE / "reference.json", encoding="ascii") as fh:
        ref = json.load(fh)
    if smoke or seed != ref["seed"]:
        return None
    return ref["workloads"].get(workload)


def write_results(path, args, metrics, run, problems, shares):
    jobs = {}
    for job in run.jobs:
        entries = [res[job["id"]] for _, _, res in run.passes if job["id"] in res]
        done = [e for e in entries if "digest" in e]
        jobs[job["id"]] = {
            "exit": done[0]["exit"] if done else None,
            "digest": done[0]["digest"] if done else None,
            "latency_s": [e.get("latency") for e in entries],
            "cpu_s": [e.get("cpu") for e in entries],
            "problems": problems.get(job["id"], []),
        }
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "smoke": args.smoke,
               "passes": [{"traced": t, "wall_s": w} for t, w, _ in run.passes],
               "probe_s": run.probes, "setup_s": run.setup_walls,
               "metrics": metrics, "layer_self_share": shares, "jobs": jobs}
    path.with_suffix(".json").write_text(json.dumps(summary, indent=1), encoding="ascii")
    if args.trace:
        spans = [s[:5] for traced, _, res in run.passes if traced
                 for r in res.values() for s in r.get("spans", [])]
        path.with_name(path.name + "-spans.json").write_text(json.dumps(spans), encoding="ascii")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (n <= 3) for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "nilcoh" / "__init__.py").is_file():
        print("no nilcoh sources under %s; run from the repository root" % SRC, file=sys.stderr)
        return 2

    tag = "%s-seed%d%s" % (args.workload, args.seed, "-smoke" if args.smoke else "")
    jobs = make_jobs(args.workload, args.seed, "smoke" if args.smoke else "full",
                     HERE / "_work" / tag)
    run = Run(jobs, started)
    workers = [Worker(0)] + ([Worker(1)] if args.trace else [])
    try:
        # Set-up counts against --seconds, so a run lasts about as long
        # whatever its set-up costs.
        if args.trace:
            budget = args.seconds - (time.perf_counter() - started)
            schedule(budget, lambda: sum(run.run_pass(w, bool(i)) for i, w in enumerate(workers)))
        else:
            run.run_pass(workers[0], False)
            while run.run_pass(workers[0], False, until=started + args.seconds):
                pass
        while len(run.setup_walls) < SETUP_MIN_SPAWNS:
            run.spawn()
    finally:
        for w in workers:
            w.close()

    problems = job_problems(run, load_reference(args.workload, args.seed, args.smoke))
    attempted = sum(len(res) for _, _, res in run.passes)
    failed = failures(run, problems)
    values, notes = end_to_end_metrics(run)
    units = dict(END_TO_END)
    shares = {}
    if args.trace:
        values, notes, per_pass = per_layer_metrics(run)
        units = dict(PER_LAYER)
        shares = layer_shares(per_pass)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    extra = {} if args.trace else {
        name: {"value": values[name], "unit": unit} for name, unit in INFORMATIONAL}

    results_dir = HERE / "_results"
    results_dir.mkdir(exist_ok=True)
    write_results(results_dir / ("%s-trace%d" % (tag, args.trace)), args,
                  dict(metrics, **extra), run, problems, shares)

    print("workload %s, seed %d, %d jobs, %d passes, %d job runs" % (
        args.workload, args.seed, len(jobs), len(run.passes), attempted))
    for name, m in dict(metrics, **extra).items():
        note = notes.get(name, "")
        print("  %-44s %14.6g %-6s %s" % (name, m["value"], m["unit"], note))
    print("  %-44s %14.6g %-6s base %d attempted" % (
        "failed_frac", failed / attempted, "ratio", attempted))
    for name, share in list(shares.items())[:8]:
        print("  self-time share %-30s %6.1f%%" % (name, 100 * share))
    for jid, found in sorted(problems.items()):
        print("  FAILED %s: %s" % (jid, "; ".join(found)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
