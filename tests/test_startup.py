"""Each command loads only the scipy submodules it calls.

`import coles` loads numpy and no scipy module. scipy.sparse is imported
where a sparse matrix is built, and scipy.linalg and scipy.special where
they are called, because loading them costs tenths of a second in every
process that starts the CLI. `synth` writes its drawn pairs directly and
`eval-classify` multiplies dense arrays only, so neither loads scipy at
all. `eval-cluster` matches clusters to classes with its own port of
scipy's assignment solver, so no command loads scipy.optimize. Each
command runs here in a fresh interpreter on a toy fixture and reports
which scipy modules are in sys.modules when it returns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coles

SRC = str(Path(coles.__file__).resolve().parents[1])

# argv[1] is the result file, argv[2:] a CLI command (none: only the imports)
PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import coles
found = {"import coles": loaded()}
import coles.cli
found["import coles.cli"] = loaded()
if len(sys.argv) > 2:
    found["rc"] = coles.cli.main(sys.argv[2:])
    found["run"] = loaded()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(found, fh)
"""

# command -> (modules it must load, packages it must not load: the named module or any below it)
EXPECTED = {
    "import coles": ((), ("scipy",)),
    "import coles.cli": ((), ("scipy",)),
    "synth": ((), ("scipy",)),
    "eval-classify": ((), ("scipy",)),
    "embed": (("scipy.sparse", "scipy.linalg"), ("scipy.optimize",)),
    "diagnose": (("scipy.sparse", "scipy.special"), ("scipy.optimize",)),
    "eval-cluster": (("scipy.sparse",), ("scipy.optimize",)),
}


def probe(tmp, name, *argv):
    """What PROBE found in a fresh interpreter that ran argv."""
    result = tmp / f"{name}.json"
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "COLES_LOG": "error"}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(result), *map(str, argv)],
                          env=env, cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(result.read_text(encoding="utf-8"))
    assert found.get("rc", 0) == 0, proc.stderr
    return found


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    data, emb = tmp / "data", tmp / "emb"
    read = ["--embeddings", emb / "embeddings.clsm", "--labels", data / "labels.txt"]
    runs = {  # in this order: the later commands read what synth and embed wrote
        "synth": ["synth", "--out", data, "--classes", 3, "--per-block", 12, "--p-in", 0.4,
                  "--p-out", 0.05, "--feat-dim", 6, "--seed", 5],
        "embed": ["embed", "--edges", data / "edges.txt", "--features", data / "features.csv",
                  "--out", emb, "--dim", 3, "--kappa", 2, "--per-node", 2, "--k-steps", 2],
        "eval-classify": ["eval-classify", *read, "--out", tmp / "classify", "--per-class", 5,
                          "--n-splits", 2, "--val-size", 6, "--epochs", 20],
        "eval-cluster": ["eval-cluster", *read, "--out", tmp / "cluster", "--n-runs", 2],
        "diagnose": ["diagnose", *read, "--edges", data / "edges.txt", "--out", tmp / "diag",
                     "--grid-points", 64],
    }
    found = probe(tmp, "imports")
    loaded = {name: found[name] for name in ("import coles", "import coles.cli")}
    for name, argv in runs.items():
        loaded[name] = probe(tmp, name, *argv)["run"]
    return loaded


@pytest.mark.parametrize("command", list(EXPECTED))
def test_command_loads_only_the_scipy_it_calls(loads, command):
    must, must_not = EXPECTED[command]
    assert set(must) <= set(loads[command]), loads[command]
    assert not [m for m in loads[command]
                if any(m == p or m.startswith(p + ".") for p in must_not)], loads[command]
