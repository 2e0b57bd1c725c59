"""The benchmark's own tests: a tiny run of every workload through the
worker's op loop, and determinism of the traced run.

    python3 -m pytest -q perfbench

Each traced run starts a fresh interpreter, because monoval's
module-level caches would otherwise make a second run do less work.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

# a few ops per workload; synthetic entries 1 and 2 are fast ones
TINY = {"cli_shipped": slice(0, 5), "synthetic_corpus": slice(1, 3),
        "family_specs": slice(0, 3), "stream_arith": slice(0, 6)}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct(name):
    wl = workloads.WORKLOADS[name]
    ops = wl.block(7, 0)[TINY[name]]
    records = worker.run_blocks(wl, 7, ops, lambda blocks, spent: True,
                                lambda op, op_id: wl.run_op(op))
    assert len(records) == len(ops)
    assert all(r["ok"] for r in records), records
    assert all(r["s"] > 0 for r in records)


def test_blocks_are_seeded():
    wl = workloads.WORKLOADS["family_specs"]
    texts = [[workloads.cli.serialize_spec(
        workloads.cli.SpecDoc(spec=op[0])) for op in wl.block(seed, 0)]
        for seed in (5, 5, 6)]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_stream_block_holds_its_mix():
    wl = workloads.WORKLOADS["stream_arith"]
    ops = wl.block(3, 0)
    assert len(ops) == sum(wl.MIX.values())
    assert sum(op["spins"] for op in ops) == wl.MIX[5, (0,), 1]


# Runs a few ops of one workload in a fresh interpreter, optionally
# traced, and prints what they returned plus the tracer's counts.
SNIPPET = r"""
import json, sys
sys.path[:0] = [%(here)r, %(src)r]
import tracer, workloads
wl = workloads.WORKLOADS[%(name)r]
tr = tracer.Tracer()
if %(traced)r:
    tr.install()
outs = []
for op_id, op in enumerate(wl.block(11, 0)[%(start)d:%(stop)d]):
    tr.op = op_id
    phases, out = wl.run_op(op)
    outs.append(wl.check(op, out))
    outs.append(%(digest)s)
tr.uninstall()
calls = {k: v[0] for k, v in tr.stats.items()}
print(json.dumps({"outs": outs, "calls": calls, "counts": tr.counts}))
"""

DIGESTS = {
    "family_specs": "[repr(out[0].final_L), repr(out[0].log), "
                    "out[1].checked, len(out[1].mismatches)]",
    "stream_arith": "[repr(out[0]), repr(out[1]), repr(out[2])]",
}


def _run(name, traced, start, stop):
    code = SNIPPET % {"here": HERE, "src": os.path.join(ROOT, "src"),
                      "name": name, "traced": traced, "start": start,
                      "stop": stop, "digest": DIGESTS[name]}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name,start,stop", [("family_specs", 0, 4),
                                             ("stream_arith", 0, 12)])
def test_traced_run_matches_untraced_and_repeats(name, start, stop):
    plain = _run(name, False, start, stop)
    first = _run(name, True, start, stop)
    second = _run(name, True, start, stop)
    assert plain["outs"] == first["outs"] == second["outs"]
    assert all(first["outs"][0::2])
    assert first["calls"]["coeff.mul"] > 0
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert plain["calls"] == {}


def test_family_specs_trace_sees_limit_steps():
    counts = _run("family_specs", True, 0, 2)["counts"]
    assert counts["engine.limit_steps"] == 4
    assert counts["engine.restarts"] == 4


def test_layer_metrics_cover_benchmark_json():
    import tracer
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = set(tracer.layer_metrics({"stats": {}, "counts": {}}))
    names |= {"import.sympy_s", "import.monoval_s", "trace_overhead_frac"}
    assert names == {m["name"] for m in bench["per_layer"]}


def test_tail_percentile_is_fixed_by_tail_ops():
    import run
    values = [float(i) for i in range(1, 31)]
    assert run.tail(values, 30) == (20.0, 100.0 * 20 / 30, 10)
    # two blocks: the same percentile, twice the samples beyond it
    assert run.tail(values + values, 30) == (20.0, 100.0 * 20 / 30, 20)
    assert run.tail([1.0, 2.0], 30)[0] == 2.0
