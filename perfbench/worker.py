"""One benchmark process: set up a workload, then run its ops.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SECONDS] [TRACE_FILE]

MODE is one of
  setup   import monoval, build the first block of inputs, print
          "ready" and exit (run.py times this from the launch);
  timed   run the whole number of blocks whose op time ends nearest
          SECONDS;
  plain   run the workload's fixed number of trace blocks, untraced;
  traced  the same blocks with the per-layer tracer installed, spans
          appended to TRACE_FILE.

The last line of standard output is one JSON object with the per-op
records.  Every op is timed around the calls into monoval only; input
generation and the correctness check run outside the timed region.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb():
    """Largest resident set of this process or any child it waited
    for (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class TracedCli:
    """Runs each CLI op through cli_child.py, which installs the tracer
    inside the CLI process, and folds the child's stats in here."""

    def __init__(self, wl, trace_file):
        self.wl = wl
        self.trace_file = trace_file
        self.summary = {"stats": {}, "counts": {}}
        self.spans = 0
        self.imports = []

    def run_op(self, op, op_id):
        stats_file = self.trace_file + ".child.json"
        phases, out = self.wl.run_op(op, launcher=(
            "-X", "importtime", os.path.join(HERE, "cli_child.py"),
            stats_file, self.trace_file, str(self.spans), str(op_id), "--"))
        with open(stats_file, encoding="utf-8") as handle:
            child = json.load(handle)
        os.remove(stats_file)
        tracing.merge(self.summary, child["summary"])
        self.spans += child["spans"]
        self.imports.append(tracing.parse_importtime(out[2]))
        return phases, out


def run_blocks(wl, seed, first_block, stop, run_op):
    """Run whole blocks until `stop(blocks_done, op_seconds)`; returns
    the op records."""
    records = []
    block = first_block
    index = 0
    spent = 0.0
    while True:
        for op in block:
            t0 = time.perf_counter()
            try:
                phases, out = run_op(op, len(records))
            except Exception as exc:  # an op that raises is a failed op
                dt = time.perf_counter() - t0
                records.append({"s": dt, "ok": False,
                                "error": "%s: %s" % (type(exc).__name__,
                                                     exc)})
                spent += dt
                continue
            dt = time.perf_counter() - t0
            spent += dt
            try:
                ok = bool(wl.check(op, out))
            except Exception as exc:  # a check that cannot run fails
                ok = False
                phases = dict(phases, error="check: %s" % exc)
            records.append(dict(phases, s=dt, ok=ok))
        index += 1
        if stop(index, spent):
            return records
        block = wl.block(seed, index)


def main(argv):
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    wl = workloads.WORKLOADS[name]
    first_block = wl.block(seed, 0)
    if mode == "setup":
        print("ready", flush=True)
        return 0

    warm = wl.warmup_input(seed)
    if warm is not None:
        wl.run_op(warm)

    result = {"python": sys.version.split()[0]}
    import sympy
    result["sympy"] = sympy.__version__

    def plain_op(op, op_id):
        return wl.run_op(op)

    if mode == "timed":
        seconds = float(argv[4])

        def stop(blocks, spent):
            # the whole number of blocks that ends nearest the run time:
            # go on while half a block more still fits.  A threshold at
            # the run time itself would let a small change in machine
            # speed add a whole block to a run that lasts two.
            return spent + spent / blocks / 2 >= seconds

        records = run_blocks(wl, seed, first_block, stop, plain_op)
    elif mode in ("plain", "traced"):
        def stop(blocks, spent):
            return blocks >= wl.trace_blocks

        if mode == "plain":
            records = run_blocks(wl, seed, first_block, stop, plain_op)
        elif name == "cli_shipped":
            traced = TracedCli(wl, argv[5])
            records = run_blocks(wl, seed, first_block, stop,
                                 traced.run_op)
            result["summary"] = traced.summary
            result["spans"] = traced.spans
            result["imports"] = traced.imports
        else:
            tracer = tracing.Tracer()

            def traced_op(op, op_id):
                tracer.op = op_id
                return wl.run_op(op)

            tracer.install()
            try:
                records = run_blocks(wl, seed, first_block, stop, traced_op)
            finally:
                tracer.uninstall()
            result["summary"] = tracer.summary()
            result["spans"] = tracer.dump(argv[5])
    else:
        raise SystemExit("unknown mode %r" % mode)

    result["records"] = records
    result["tail_ops"] = wl.tail_ops
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
