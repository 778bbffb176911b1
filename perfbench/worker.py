"""Job runner: imports nilcoh once, then runs each job in a forked child.

Protocol: one JSON job per line on stdin, one JSON result per line on
stdout, and a first line ``{"ready": ...}`` once the import is done.  A
child starts from the state of this process right after the import, so
nothing a job computes reaches the next job, as with separate ``nilcoh``
invocations.

Run with ``--trace 1`` to install :mod:`tracing` before the first fork;
each child then returns its spans and counters with its result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import select
import signal
import sys
import time
import traceback

import tracing


def _load_matrix(path):
    from nilcoh import GaussianRational, IndexedMatrix

    with open(path, "r", encoding="ascii") as fh:
        entries = json.load(fh)["entries"]
    rows = [[GaussianRational(re, im) for re, im in row] for row in entries]
    ncols = len(entries[0]) if entries else 0
    return IndexedMatrix(range(len(rows)), range(ncols), rows)


def _vector_json(vec):
    return [[str(x.re), str(x.im)] for x in vec]


def run_job(job):
    """Run one job in this process; returns (exit_code, stdout_text, wall)."""
    import nilcoh
    import nilcoh.cli

    if job["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = nilcoh.cli.main(job["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), time.perf_counter() - t0
    m = _load_matrix(job["matrix"])
    t0 = time.perf_counter()
    if job["kind"] == "rank":
        payload = {"rank": nilcoh.rank(m)}
    else:
        kernel = nilcoh.kernel_basis(m)
        payload = {"rank": nilcoh.rank(m), "kernel": [_vector_json(v) for v in kernel]}
    wall = time.perf_counter() - t0
    return 0, json.dumps(payload) + "\n", wall


def child(job, tracer, wfd):
    os.dup2(2, 1)  # stray prints must not reach the protocol stream
    result = {}
    try:
        if tracer is not None:
            tracer.reset(job["id"])
        code, text, wall = run_job(job)
        data = text.encode("utf-8")
        result = {
            "exit": code,
            "stdout": text,
            "digest": hashlib.sha256(data).hexdigest(),
            "child_wall": wall,
        }
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counters"] = dict(tracer.counters)
    except Exception:  # reported to the parent as a failed job
        result = {"error": traceback.format_exc(limit=8)}
    payload = json.dumps(result).encode("utf-8")
    view = memoryview(payload)
    while view:
        view = view[os.write(wfd, view):]
    os.close(wfd)


def run_forked(job, tracer, timeout):
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            child(job, tracer, wfd)
        except BaseException:  # a forked child must never return into the loop
            code = 3
        os._exit(code)
    os.close(wfd)
    chunks = []
    deadline = t0 + timeout
    timed_out = False
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            break
        ready, _, _ = select.select([rfd], [], [], left)
        if ready:
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.close(rfd)
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - t0
    if timed_out:
        result = {"error": "timed out after %.0f s" % timeout}
    elif status != 0 or not chunks:
        result = {"error": "child ended with wait status %d" % status}
    else:
        result = json.loads(b"".join(chunks))
    result.update(
        id=job["id"],
        latency=latency,
        maxrss_kb=usage.ru_maxrss,
        cpu=usage.ru_utime + usage.ru_stime,
    )
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    import nilcoh
    import nilcoh.cli  # noqa: F401  (the CLI modules are part of the start-up state)

    src = os.path.realpath(args.src)
    if not os.path.realpath(nilcoh.__file__).startswith(src + os.sep):
        print("nilcoh imported from %s, not from %s" % (nilcoh.__file__, src), file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        result = run_forked(request["job"], tracer, request["timeout"])
        out.write(json.dumps(result) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
