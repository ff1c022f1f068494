"""The benchmark's correctness gate and its traced mode hold on the library.

perfbench/gate.py checks each `embed` output and rebuilds the quadratic form
through the public library names (its oracle); perfbench/tracing.py wraps
library functions and SparseSym methods by name. Running both here on a small
fixture means a library change that breaks them fails in seconds, not only
in a full benchmark run. Both are imported read-only from perfbench/.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import coles
from coles.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# small stand-ins for the embed settings of the two benchmark workloads
WORKLOAD_FLAGS = {
    "wide-features": {"filter": "s2gc", "k_steps": 2, "alpha": 0.05, "kappa": 2,
                      "per_node": 3, "mode": "per-node-k", "eta_prime": 1.0, "dim": 4},
    "er-negatives": {"filter": "sgc", "k_steps": 2, "alpha": 0.05, "kappa": 3,
                     "per_node": 5, "mode": "erdos-renyi", "p_prime": 0.05,
                     "eta_prime": 1.0, "dim": 4, "hash_dim": 8},
}


def flags(values):
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_FLAGS))
def test_embed_output_passes_the_benchmark_gate(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate

    fixture, out = tmp_path / "fixture", tmp_path / "embed"
    assert main(["synth", "--out", str(fixture), "--classes", "3", "--per-block", "20",
                 "--p-in", "0.3", "--p-out", "0.05", "--feat-dim", "24", "--seed", "3"]) == 0
    embed = WORKLOAD_FLAGS[workload]
    assert main(["embed", "--edges", str(fixture / "edges.txt"),
                 "--features", str(fixture / "features.csv"), "--out", str(out),
                 "--seed", "3"] + flags(embed)) == 0
    assert gate.check_embed(str(out), 60, embed["dim"]) == []
    assert gate.oracle(str(fixture), str(out), embed) == []


# a toy synth -> embed -> evaluate -> diagnose run under tracing.instrument; it
# patches modules and SparseSym in place, so it runs in a process of its own
TRACED_PIPELINE = textwrap.dedent("""
    import json, sys
    from tracing import Tracer, instrument
    import coles.cli
    tracer = Tracer()
    instrument(tracer)
    out = sys.argv[1]
    fx, emb = out + "/fixture", out + "/embed"
    labeled = ["--embeddings", emb + "/embeddings.clsm", "--labels", fx + "/labels.txt"]
    calls = [
        ["synth", "--out", fx, "--classes", "3", "--per-block", "20", "--p-in", "0.3",
         "--p-out", "0.05", "--feat-dim", "8"],
        ["embed", "--edges", fx + "/edges.txt", "--features", fx + "/features.csv",
         "--out", emb, "--k-steps", "2", "--kappa", "2", "--per-node", "3", "--dim", "4"],
        ["eval-classify", "--out", out + "/classify", "--per-class", "5", "--val-size", "10",
         "--n-splits", "3", "--epochs", "50"] + labeled,
        ["eval-cluster", "--out", out + "/cluster", "--n-runs", "2"] + labeled,
        ["diagnose", "--out", out + "/diagnose", "--edges", fx + "/edges.txt",
         "--grid-points", "64"] + labeled,
    ]
    codes = [coles.cli.main(argv + ["--seed", "11"]) for argv in calls]
    print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in tracer.spans})}))
""")


def test_traced_pipeline_runs_and_records_the_graph_spans(tmp_path):
    src = Path(coles.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": f"{PERFBENCH}:{src}", "COLES_LOG": "error"}
    proc = subprocess.run([sys.executable, "-c", TRACED_PIPELINE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 5, proc.stderr
    assert {"graph_core.from_edges", "graph_core.edge_list",
            "diagnostics.pair_scores"} <= set(result["spans"])
