"""monoval benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 the run measures the
end-to-end metrics (workloads and metrics: BENCHMARK.json and
perfbench/NOTES.md); with --trace 1 it runs the workload's fixed trace
blocks twice, untraced and traced, each in a fresh interpreter, and
reports the per-layer metrics.  Every op's output is checked.

The report is printed first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_shipped", "synthetic_corpus", "family_specs",
             "stream_arith")
SETUP_PROBES = 3
IMPORT_PROBES = 3
TIMEOUT_S = 170
OUT_DIR = os.path.join(HERE, "out")


def reference_loop():
    """A fixed pure-Python loop, timed before and after each run, so a
    reader can tell machine drift from a program change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def environment(seed):
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def run_child(cmd, deadline, env=None):
    """Run a child interpreter to completion in its own session and
    return (exit code, stdout, stderr).  On the deadline, or if this
    process is interrupted, the whole session (the child's own
    children too) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def worker(args, *extra, deadline):
    """Run worker.py to completion and return its last-line JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           args.workload, str(args.seed)] + [str(x) for x in extra]
    code, out, err = run_child(cmd, deadline)
    if code != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit("worker %s failed with exit code %d"
                         % (" ".join(str(x) for x in extra), code))
    return json.loads(out.decode().strip().splitlines()[-1])


def setup_seconds(args, deadline):
    """Launch-to-ready time of a fresh interpreter that imports monoval
    and builds the first block of inputs; median of several set-ups."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), "setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        code, out, err = run_child(cmd, deadline)
        times.append(time.perf_counter() - t0)
        if code != 0 or out.strip() != b"ready":
            sys.stderr.write(err.decode(errors="replace"))
            raise SystemExit("set-up failed with exit code %d" % code)
    return statistics.median(times), times


def import_seconds(deadline):
    """Median cumulative import time of sympy and monoval, from
    `python -X importtime -c "import monoval"`."""
    from tracer import parse_importtime
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rows = []
    for _ in range(IMPORT_PROBES):
        code, _, err = run_child(
            [sys.executable, "-X", "importtime", "-c", "import monoval"],
            deadline, env=env)
        if code != 0:
            raise SystemExit("import probe failed")
        rows.append(parse_importtime(err))
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def tail(values, tail_ops):
    """The percentile that leaves ten samples beyond it in `tail_ops`
    samples (the highest such one for a run of that many ops), by
    nearest rank: (value, percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, -(-n * (tail_ops - 10) // tail_ops))
    return ordered[rank - 1], 100.0 * (tail_ops - 10) / tail_ops, n - rank


def timing_summary(values, tail_ops):
    value, pct, beyond = tail(values, tail_ops)
    return {"n": len(values), "p50_s": statistics.median(values),
            "tail_s": value, "tail_pct": round(pct, 1),
            "beyond": beyond}


def timed_run(args, deadline):
    setup, setups = setup_seconds(args, deadline)
    out = worker(args, "timed", args.seconds, deadline=deadline)
    records = out["records"]
    op_s = [r["s"] for r in records]
    failed = sum(not r["ok"] for r in records)
    tail_ops = out["tail_ops"]
    ops = timing_summary(op_s, tail_ops)
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "ops_per_s": (len(records) / sum(op_s), "1/s"),
        "op_p50_s": (ops["p50_s"], "s"),
        "op_tail_s": (ops["tail_s"], "s"),
    }
    report = {
        "samples": {"setup_s": len(setups), "ops": len(records)},
        "setup_runs_s": setups,
        "op": ops,
        "failed_ops_frac": failed / len(records),
        "versions": {"python": out["python"], "sympy": out["sympy"]},
    }
    for phase in ("monomialize_s", "verify_s"):
        values = [r[phase] for r in records if phase in r]
        if values:
            report[phase[:-2]] = timing_summary(values, tail_ops)
    kinds = sorted({r["kind"] for r in records if "kind" in r})
    for kind in kinds:
        report["cli." + kind] = {"n": sum(r.get("kind") == kind
                                          for r in records),
                                 "p50_s": statistics.median(
            r["s"] for r in records if r.get("kind") == kind)}
    errors = [r["error"] for r in records if "error" in r]
    if errors:
        report["errors"] = errors[:5]
    return len(records), failed, metrics, report


def traced_run(args, deadline):
    import tracer
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl"
                              % (args.workload, args.seed))
    if os.path.exists(trace_file):
        os.remove(trace_file)
    plain = worker(args, "plain", deadline=deadline)
    traced = worker(args, "traced", 0, trace_file, deadline=deadline)
    if args.workload == "cli_shipped":
        imports = {k: statistics.median(r[k] for r in traced["imports"])
                   for k in ("sympy", "monoval")}
    else:
        imports = import_seconds(deadline)
    metrics = tracer.layer_metrics(traced["summary"])
    metrics["import.sympy_s"] = (imports["sympy"], "s")
    metrics["import.monoval_s"] = (imports["monoval"], "s")
    plain_s = sum(r["s"] for r in plain["records"])
    traced_s = sum(r["s"] for r in traced["records"])
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    records = plain["records"] + traced["records"]
    failed = sum(not r["ok"] for r in records)
    same = [r["ok"] for r in plain["records"]] == \
        [r["ok"] for r in traced["records"]]
    report = {
        "ops": len(traced["records"]),
        "spans": traced["spans"],
        "trace_file": os.path.relpath(trace_file, ROOT),
        "untraced_op_s": plain_s,
        "traced_op_s": traced_s,
        "same_outcomes": same,
        "counts": traced["summary"]["counts"],
        "versions": {"python": plain["python"], "sympy": plain["sympy"]},
    }
    if not same:
        failed += 1          # tracing changed an outcome
    return len(records), failed, metrics, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (os.path.join("src", "monoval", "__init__.py"),
                 os.path.join("tests", "golden",
                              "example_f5_monomialize.json")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print("perfbench: %s is missing; run from a checkout of the "
                  "repository" % need, file=sys.stderr)
            return 2

    deadline = time.monotonic() + TIMEOUT_S
    env = environment(args.seed)
    env["reference_loop_before_s"] = reference_loop()
    if args.trace:
        attempted, failed, metrics, report = traced_run(args, deadline)
    else:
        attempted, failed, metrics, report = timed_run(args, deadline)
    env["reference_loop_after_s"] = reference_loop()
    env["loadavg_after"] = list(os.getloadavg())

    print("monoval benchmark  workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    print("env " + json.dumps(env))
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
