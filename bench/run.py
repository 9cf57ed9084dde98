"""Benchmark of impulsegame: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload tabulate|certify|long_horizon|all \
        --seed N --seconds S --trace 0|1

Prints every metric by name and unit, then, as the last line of stdout,
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run.  Job times and throughput are
normalised by the yardstick timed beside each piece of a job (see
yardstick.py); the raw wall-clock figures are printed under "# raw".  A
full record (metrics, environment, set-up samples, every job) is written to
.bench_run/results/.  See bench/README.md for what each metric means.

Exits 2 without a result when the program is not beside the benchmark,
and 1 when a worker dies or times out.
"""

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("tabulate", "certify", "long_horizon")
SETUP_RUNS = 4          # fresh interpreters timed for setup_s; the last one runs the jobs
IMPORTTIME_RUNS = 3     # fresh interpreters under -X importtime in a traced run
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
TAIL_BEYOND = 10        # the tail percentile leaves at least this many jobs beyond it
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Normalised times are wall times scaled to a host on which the yardstick
# takes this long: its median on the 2-core x86_64 VM the benchmark was
# tuned on, so that normalised seconds read about as that host's seconds.
NOMINAL_YARDSTICK_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s", "norm_jobs_per_s": "1/s", "norm_job_s.p50": "s",
    "norm_job_s.tail": "s", "pass_frac": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


class ProgramMissing(BenchError):
    pass


def yardstick_times(jobs, yard_end_s):
    """Every yardstick time of a run in order: one before each piece, one at the end."""
    return [y for j in jobs for y in j["yard_s"]] + [yard_end_s]


def normalised(jobs, yard_end_s):
    """Normalised job and busy times.

    Each piece's time is scaled by NOMINAL_YARDSTICK_S over the mean of the
    yardstick times on either side of it; a job's time is the sum over its
    pieces.  Busy time is scaled by the mean of its pieces' scales.
    """
    yards = yardstick_times(jobs, yard_end_s)
    scale = [2.0 * NOMINAL_YARDSTICK_S / (a + b) for a, b in zip(yards, yards[1:])]
    times, busy = [], []
    for j in jobs:
        f, scale = scale[:len(j["yard_s"])], scale[len(j["yard_s"]):]
        times.append(sum(p * x for p, x in zip(j["pieces_s"], f)))
        busy.append(j["busy_s"] * statistics.mean(f))
    return times, busy


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest percentile with at least TAIL_BEYOND of n jobs beyond it, never below 50."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n))


def worker_env():
    env = dict(os.environ)
    for var in PIN_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Worker:
    """A worker subprocess with a kill timer; reads its protocol lines."""

    def __init__(self, argv, timeout):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py")] + argv,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=worker_env(),
            cwd=ROOT, text=True)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()

    def expect(self, tag):
        line = self.proc.stdout.readline()
        if not line.startswith(tag + " "):
            self.close()
            raise BenchError(f"worker did not report {tag} (exit {self.proc.returncode})")
        return json.loads(line[len(tag) + 1:])

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()


def time_setup(base_argv):
    """Time one setup-only fresh interpreter, from spawn to READY."""
    w = Worker(base_argv + ["--setup-only"], SETUP_TIMEOUT_S)
    w.expect("READY")
    elapsed = time.perf_counter() - w.t_spawn
    w.close()
    if w.proc.returncode != 0:
        raise BenchError(f"setup-only worker exited {w.proc.returncode}")
    return elapsed


def import_times():
    """(total, scipy) seconds of `import impulsegame` under -X importtime."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import impulsegame"],
                         env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=SETUP_TIMEOUT_S, check=True)
    return parse_importtime(out.stderr)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text):
    """Total cumulative time of the top-level impulsegame import and of scipy.

    Lines are in post-order: a module's parent is the next line with a
    shallower indent.  scipy's time is the sum over the outermost scipy
    modules, those whose parent is not itself a scipy module.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)))
    total = sum(cum for cum, depth, name in rows if name == "impulsegame")
    scipy = 0.0
    for i, (cum, depth, name) in enumerate(rows):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        parent = next((r[2] for r in rows[i + 1:] if r[1] < depth), "")
        if parent != "scipy" and not parent.startswith("scipy."):
            scipy += cum
    return total, scipy


def environment(yards):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "machine": platform.machine(),
        "pinning": {var: worker_env()[var] for var in PIN_VARS},
        "host.yardstick_s": {"first": yards[0], "median": statistics.median(yards),
                             "last": yards[-1]},
    }


def end_to_end(setup_samples, res):
    times, busy = normalised(res["jobs"], res["yard_end_s"])
    n = len(times)
    passed = sum(j["ok"] for j in res["jobs"])
    q = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "norm_jobs_per_s": n / sum(busy),
        "norm_job_s.p50": statistics.median(times),
        "norm_job_s.tail": percentile(times, q),
        "pass_frac": passed / n,
        "peak_rss_mb": res["rss_peak_mb"],
    }
    raw = [j["s"] for j in res["jobs"]]
    notes = {"jobs": n, "tail_percentile": q, "setup_samples": len(setup_samples)}
    raw_metrics = {"jobs_per_s": (n / res["phase_s"], "1/s"),
                   "job_s.p50": (statistics.median(raw), "s"),
                   "job_s.tail": (percentile(raw, q), "s"),
                   "yardstick_s.p50": (statistics.median(res["yards"]), "s")}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes, raw_metrics


def per_layer(res, imports):
    tr = res["trace"]
    s = tr["jobs"]
    traced = [j for j in res["jobs"] if j["traced"]]
    nt = max(1, len(traced))
    incl, calls, selfs = s["incl_s"], s["calls"], s["self_s"]

    def per_job(d, *names):
        return sum(d.get(name, 0) for name in names) / nt

    interp = [f"riccati.{m}_at" for m in ("q1", "n1", "q2", "n2")]
    events = s["counts"].get("simulate.events", 0)
    rollout_total = incl.get("simulate.rollout", 0.0)
    m = {
        "import.total_s": (imports[0], "s"),
        "import.scipy_s": (imports[1], "s"),
    }
    for command in ("solve", "simulate", "value", "verify"):
        durs = s["cli_s"].get(command, [])
        m[f"cli.main.{command}_s"] = (statistics.mean(durs) if durs else 0.0, "s")
    m.update({
        "cli.self_s": (selfs["cli"] / nt, "s"),
        "cli.bytes_written": (sum(j["bytes"] for j in traced) / nt, "bytes"),
        "riccati.solve_backward_s": (per_job(incl, "riccati.solve_backward"), "s"),
        "riccati.solve_backward.calls": (per_job(calls, "riccati.solve_backward"), "count"),
        "riccati.interp.calls": (per_job(calls, *interp), "count"),
        "riccati.interp_s": (per_job(incl, *interp), "s"),
        "riccati.self_s": (selfs["riccati"] / nt, "s"),
        "policy.build_policy_s": (per_job(incl, "policy.build_policy"), "s"),
        "policy.thresholds_at.calls": (per_job(calls, "policy.thresholds_at"), "count"),
        "policy.thresholds_at_s": (per_job(incl, "policy.thresholds_at"), "s"),
        "policy.value_v2.calls": (per_job(calls, "policy.value_v2"), "count"),
        "policy.value_v2_s": (per_job(incl, "policy.value_v2"), "s"),
        "policy.self_s": (selfs["policy"] / nt, "s"),
        "simulate.rollout.calls": (per_job(calls, "simulate.rollout"), "count"),
        "simulate.rollout_s": (rollout_total / nt, "s"),
        "simulate.events": (events / nt, "count"),
        "simulate.s_per_event": (rollout_total / events if events else 0.0, "s"),
        "simulate.admissibility_check_s": (per_job(incl, "simulate.admissibility_check"), "s"),
        "simulate.self_s": (selfs["simulate"] / nt, "s"),
        "verify.run_verification_s": (per_job(incl, "verify.run_verification"), "s"),
        "verify.brute_force_rv2.calls": (per_job(calls, "verify.brute_force_rv2"), "count"),
        "verify.brute_force_rv2_s": (per_job(incl, "verify.brute_force_rv2"), "s"),
        "verify.dp_oracle_v2_s": (per_job(incl, "verify.dp_oracle_v2"), "s"),
        "verify.self_s": (selfs["verify"] / nt, "s"),
        "model.intervention_cost.elems":
            (s["counts"].get("model.intervention_cost.elems", 0) / nt, "count"),
        "model.intervention_cost_s": (per_job(incl, "model.intervention_cost"), "s"),
        "untraced.self_s": ((sum(j["s"] for j in traced) - s["top_s"]) / nt, "s"),
        "setup.riccati_s": (tr["setup"]["incl_s"].get("riccati.solve_backward", 0.0), "s"),
        "host.yardstick_s": (statistics.median(res["yards"]), "s"),
        "trace.overhead_frac": (overhead_frac(res), "ratio"),
    })
    layers = {k[:-len(".self_s")]: v for k, (v, _) in m.items() if k.endswith(".self_s")}
    notes = {"traced_jobs": len(traced), "missing": tr["missing"],
             "dominant_layer": max(layers, key=layers.get),
             "self_share": {k: v / max(sum(layers.values()), 1e-12) for k, v in layers.items()}}
    return m, notes


def overhead_frac(res):
    """Traced jobs/s over untraced jobs/s: mean untraced over mean traced
    normalised job time."""
    times, _ = normalised(res["jobs"], res["yard_end_s"])
    untraced = [t for t, j in zip(times, res["jobs"]) if not j["traced"]]
    traced = [t for t, j in zip(times, res["jobs"]) if j["traced"]]
    if not (untraced and traced):
        return 0.0
    return statistics.mean(untraced) / statistics.mean(traced)


def run(args):
    missing = [p for p in ("src/impulsegame/__init__.py", "src/impulsegame/cli.py",
                           "configs/table1.cfg", "configs/table1_w2_1.cfg")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise ProgramMissing("program not found beside the benchmark: missing "
                             + ", ".join(missing))
    for d in ("src", "bench"):
        if not compileall.compile_dir(os.path.join(ROOT, d), quiet=1):
            raise BenchError(f"byte-compiling {d}/ failed")

    run_dir = os.path.join(ROOT, ".bench_run")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(run_dir, f"{tag}-{os.getpid()}")
    results = os.path.join(run_dir, "results")
    os.makedirs(results, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--root", ROOT,
            "--scratch", scratch]
    try:
        imports = None
        setup_samples = []
        if args.trace:
            samples = [import_times() for _ in range(IMPORTTIME_RUNS)]
            imports = (statistics.median(s[0] for s in samples),
                       statistics.median(s[1] for s in samples))
        else:
            setup_samples = [time_setup(base) for _ in range(SETUP_RUNS - 1)]
        spans = os.path.join(results, f"{tag}-spans.npz")
        w = Worker(base + (["--spans", spans] if args.trace else []),
                   RUN_TIMEOUT_S + args.seconds)
        try:
            w.expect("READY")
            setup_samples.append(time.perf_counter() - w.t_spawn)
            w.send("GO")
            res = w.expect("RESULT")
        finally:
            w.close()
        if w.proc.returncode != 0:
            raise BenchError(f"worker exited {w.proc.returncode}")
        res["yards"] = yardstick_times(res["jobs"], res["yard_end_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    raw = {}
    if args.trace:
        metrics, notes = per_layer(res, imports)
    else:
        metrics, notes, raw = end_to_end(setup_samples, res)
    attempted = len(res["jobs"])
    failed = sum(not j["ok"] for j in res["jobs"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(res["yards"]),
        "notes": notes, "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "jobs": res["jobs"], "phase_s": res["phase_s"], "yard_end_s": res["yard_end_s"],
        "rss_setup_mb": res["rss_setup_mb"],
    }
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# impulsegame benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# environment: " + json.dumps(record["environment"]))
    print("# notes: " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"# raw {name:28s} {value:>14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            run(argparse.Namespace(**{**vars(args), "workload": workload}))
    except ProgramMissing as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
