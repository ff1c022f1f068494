"""The benchmark's correctness gate holds on what the CLI writes.

perfbench/gate.py checks each `embed` output and rebuilds the quadratic form
through the public library names (its oracle). Running both here on a small
fixture means a library change that breaks them fails in seconds, not only
in a full benchmark run. The gate is imported read-only from perfbench/.
"""

from pathlib import Path

import pytest

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
