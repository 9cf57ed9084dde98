"""One benchmark worker: a fresh interpreter that sets up a workload and runs it.

Started by run.py, never by hand.  Protocol lines go to the original
stdout (library output is sent to stderr):

    READY {...}    set-up is done and the first job can run
    RESULT {...}   the timed phase is over; job times, checks, memory, trace

With ``--setup-only`` the worker exits after READY.  Otherwise it waits
for ``GO`` on stdin, runs one untimed warm-up piece, then runs jobs one at
a time until ``--seconds`` have passed (a closed loop with one client),
timing each piece of a job (one scenario) on its own.  Before each piece
the yardstick (see yardstick.py) is timed and ``gc.collect()`` runs, both
outside the piece's timed span; the yardstick is timed once more after
the last job, so every piece has a yardstick time on either side.

With ``--trace 1`` jobs alternate between untraced and traced, so both
kinds see the same host drift; the set-up of this worker is traced too.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

MAX_JOBS = 4096


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr

    import impulsegame  # noqa: F401  (set-up cost: the import is part of it)
    from workloads import Workload

    tracer = None
    if args.trace:
        from tracer import SETUP_JOB, Tracer
        tracer = Tracer()
        tracer.install()
    work = Workload(args.workload, args.root, args.scratch)
    if tracer is not None:
        tracer.uninstall()
    rss_setup = _rss_mb()
    proto.write("READY " + json.dumps({"rss_mb": rss_setup}) + "\n")
    if args.setup_only:
        return 0
    if sys.stdin.readline().strip() != "GO":
        return 1
    from yardstick import yardstick

    jobs_in = work.inputs(args.seed, MAX_JOBS)
    # Warm-up: the first piece of the first job.  Without it the first
    # job ran about 10% slower than the rest on certify.
    warmup = jobs_in[0][:1]
    work.check(warmup, work.run(warmup))
    work.clean(warmup)
    yardstick()

    jobs = []
    phase_start = time.perf_counter()
    deadline = phase_start + args.seconds
    min_jobs = 2 if tracer is not None else 1   # a traced run needs both kinds
    for k, job in enumerate(jobs_in):
        if k >= min_jobs and time.perf_counter() >= deadline:
            break
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.current_job = k
        out, pieces_s, yards_s, busy_s = [], [], [], 0.0
        for piece in job:
            yard_s, _ = yardstick()
            yards_s.append(yard_s)
            t_busy = time.perf_counter()
            gc.collect()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out += work.run([piece])
            except Exception:  # a job that raises counts as a failed job
                out = None
                errors = [traceback.format_exc(limit=3)]
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
            pieces_s.append(t1 - t0)
            busy_s += t1 - t_busy
            if out is None:
                break
        t_busy = time.perf_counter()
        if out is not None:
            try:
                errors = work.check(job, out)
            except Exception:  # e.g. an expected output file is missing
                errors = [traceback.format_exc(limit=3)]
        out = None
        nbytes = work.bytes_written(job)
        work.clean(job)
        for msg in errors:
            print(f"job {k} ({job}): {msg}", file=sys.stderr)
        busy_s += time.perf_counter() - t_busy
        jobs.append({"k": k, "input": job, "s": sum(pieces_s), "ok": not errors,
                     "traced": traced, "bytes": nbytes, "pieces_s": pieces_s,
                     "yard_s": yards_s, "busy_s": busy_s})
    phase_s = time.perf_counter() - phase_start
    yard_end_s, _ = yardstick()

    result = {"jobs": jobs, "phase_s": phase_s, "yard_end_s": yard_end_s,
              "rss_setup_mb": rss_setup, "rss_peak_mb": _rss_mb()}
    if tracer is not None:
        traced_jobs = [j["k"] for j in jobs if j["traced"]]
        result["trace"] = {"jobs": tracer.summary(traced_jobs),
                           "setup": tracer.summary([SETUP_JOB]),
                           "missing": tracer.missing}
        if args.spans:
            tracer.save(args.spans)
    proto.write("RESULT " + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
