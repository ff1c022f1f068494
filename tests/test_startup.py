"""Each command loads only the scipy submodules it calls, and one BLAS runtime.

`import coles` loads numpy and no scipy module. scipy.sparse is imported
where a sparse matrix is built, because loading it costs tenths of a second
in every process that starts the CLI. `synth` writes its drawn pairs
directly and `eval-classify` multiplies dense arrays only, so neither loads
scipy at all. `embed` solves its eigenproblem with numpy.linalg.eigh and
`diagnose` takes its relative entropy in numpy, so neither loads
scipy.linalg or scipy.special, whose extension modules map scipy's own
OpenBLAS next to numpy's, with a second pool of worker threads. `eval-cluster`
matches clusters to classes with its own port of scipy's assignment solver,
so no command loads scipy.optimize. Each command runs here in a fresh
interpreter on a toy fixture and reports which scipy modules are in
sys.modules, and on Linux which OpenBLAS libraries the process maps, when
it returns.

`import coles` loads numpy's OpenBLAS with one thread when numpy is not yet
loaded, and leaves OPENBLAS_NUM_THREADS as it found it. So a fresh `embed`
writes the same bytes whatever thread count the caller sets, while a process
that imported numpy first keeps its own pool.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coles

SRC = str(Path(coles.__file__).resolve().parents[1])


def mapped_openblas():
    """The sorted paths of the OpenBLAS files this process maps, or None
    where there is no /proc/self/maps to read them from. PROBE runs it in
    each fresh interpreter, and the CI report imports it from here."""
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "/" in line}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


# argv[1] is the result file, argv[2:] a CLI command (none: only the imports)
PROBE = "import json, os, sys\n" + inspect.getsource(mapped_openblas) + """
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import coles
found = {"import coles": loaded(), "import coles blas": mapped_openblas()}
import coles.cli
found["import coles.cli"] = loaded()
if len(sys.argv) > 2:
    found["rc"] = coles.cli.main(sys.argv[2:])
    found["run"] = loaded()
    found["run blas"] = mapped_openblas()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(found, fh)
"""

# command -> (modules it must load, packages it must not load: the named module or any below it)
EXPECTED = {
    "import coles": ((), ("scipy",)),
    "import coles.cli": ((), ("scipy",)),
    "synth": ((), ("scipy",)),
    "eval-classify": ((), ("scipy",)),
    "embed": (("scipy.sparse",), ("scipy.linalg", "scipy.special", "scipy.optimize")),
    "diagnose": (("scipy.sparse",), ("scipy.linalg", "scipy.special", "scipy.optimize")),
    "eval-cluster": (("scipy.sparse",), ("scipy.optimize",)),
}


def fresh_env(threads=None):
    """The environment of a fresh interpreter that imports this coles, with
    OPENBLAS_NUM_THREADS set to threads (None: unset)."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "COLES_LOG": "error"}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def probe(tmp, name, *argv):
    """What PROBE found in a fresh interpreter that ran argv."""
    result = tmp / f"{name}.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(result), *map(str, argv)],
                          env=fresh_env(), cwd=tmp, capture_output=True, text=True,
                          timeout=120)
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
    blas = {"import coles": found["import coles blas"]}
    for name, argv in runs.items():
        found = probe(tmp, name, *argv)
        loaded[name], blas[name] = found["run"], found["run blas"]
    return loaded, blas


@pytest.mark.parametrize("command", list(EXPECTED))
def test_command_loads_only_the_scipy_it_calls(loads, command):
    must, must_not = EXPECTED[command]
    modules = loads[0][command]
    assert set(must) <= set(modules), modules
    assert not [m for m in modules
                if any(m == p or m.startswith(p + ".") for p in must_not)], modules


@pytest.mark.parametrize("command", [c for c in EXPECTED if c != "import coles.cli"])
def test_command_maps_one_openblas(loads, command):
    # the one numpy maps at import; scipy's own (libscipy_openblas-*.so in
    # scipy.libs, next to numpy's libscipy_openblas64_-*.so) must stay out
    mapped = loads[1]
    if mapped["import coles"] is None:
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    if len(mapped["import coles"]) != 1:
        pytest.skip(f"numpy maps {len(mapped['import coles'])} OpenBLAS libraries, not one")
    assert mapped[command] == mapped["import coles"]


def numpy_blas_is_openblas():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


needs_openblas = pytest.mark.skipif(not numpy_blas_is_openblas(),
                                    reason="numpy's BLAS is not OpenBLAS")
needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                     reason="no /proc/self/task to count threads in")

# argv[1] is "numpy" to import numpy before coles; prints the variable after
# the imports and the process's thread count after one threaded product
THREADS = """import json, os, sys
if sys.argv[1] == "numpy":
    import numpy
import coles
import numpy as np
after = os.environ.get("OPENBLAS_NUM_THREADS")
a = np.arange(256.0 * 256).reshape(256, 256)
a @ a
print(json.dumps({"after": after, "threads": len(os.listdir("/proc/self/task"))}))
"""


def threads_after(first, threads):
    proc = subprocess.run([sys.executable, "-c", THREADS, first], env=fresh_env(threads),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@needs_openblas
@needs_task_list
def test_import_coles_loads_one_blas_thread_and_restores_the_variable():
    assert threads_after("coles", 2) == {"after": "2", "threads": 1}
    assert threads_after("coles", None) == {"after": None, "threads": 1}


@needs_openblas
@needs_task_list
def test_numpy_imported_first_keeps_its_blas_threads():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 CPUs for OpenBLAS to use")
    assert threads_after("numpy", 2) == {"after": "2", "threads": 2}


@needs_openblas
def test_embed_writes_the_same_bytes_for_any_blas_thread_count(tmp_path):
    def cli(cwd, threads, *argv):
        cwd.mkdir(exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "coles.cli", *map(str, argv)],
                              env=fresh_env(threads), cwd=cwd, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return cwd

    data = cli(tmp_path / "data", None, "synth", "--out", ".", "--classes", 2,
               "--per-block", 200, "--p-in", 0.1, "--p-out", 0.01, "--feat-dim", 256,
               "--seed", 3)
    written = {}
    for threads in (1, 2, 4):  # same relative --out, so the echoed config is the same too
        out = cli(tmp_path / f"threads{threads}", threads, "embed", "--edges",
                  data / "edges.txt", "--features", data / "features.csv", "--out", "emb",
                  "--dim", 8, "--kappa", 2, "--seed", 3) / "emb"
        meta = re.sub(rb'"wall_clock_sec": [^,\n}]*', b'"wall_clock_sec": null',
                      (out / "embedding_meta.json").read_bytes())
        written[threads] = ((out / "embeddings.clsm").read_bytes(), meta)
    assert written[2] == written[1]
    assert written[4] == written[1]
