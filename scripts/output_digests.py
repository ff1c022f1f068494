"""SHA-256 of every file the coles pipeline writes, for a byte-identity check.

Usage, from the repository root:

    python3 scripts/output_digests.py [--root CHECKOUT] [--seeds 411 7 701]
                                      [--workloads wide-features er-negatives]

For each benchmark workload and seed it runs synth -> embed -> eval-classify
-> eval-cluster -> diagnose in one temporary directory, with the flags that
perfbench/run.py gives each stage (its WORKLOADS and _flags, read only), and
prints one line per output file: its SHA-256 and its path under the temporary
directory. Every path into the temporary directory and, in JSON files, the
"wall_clock_sec" value are replaced by fixed text before hashing, since they
differ from run to run; every other byte counts. --root picks the checkout
whose src/ and perfbench/run.py are used (default: the one holding this
script), so two checkouts compare with

    diff <(python3 scripts/output_digests.py --root OLD) <(python3 scripts/output_digests.py)
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import re
import sys
import tempfile


def load_bench(root: str):
    """perfbench/run.py of the checkout at root, as a module."""
    path = os.path.join(root, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def file_digest(path: str, work: str) -> str:
    """SHA-256 of the file's bytes, with the run's temporary directory and,
    in JSON files, the wall-clock time replaced by fixed text."""
    with open(path, "rb") as f:
        data = f.read().replace(work.encode(), b"<tmp>")
    if path.endswith(".json"):
        data = re.sub(rb'"wall_clock_sec": [^,\n}]*', b'"wall_clock_sec": null', data)
    return hashlib.sha256(data).hexdigest()


def run_pipeline(main, wl, flags, seed: int, out: str) -> None:
    """synth, then every stage on its outputs, with perfbench's flags."""
    data = os.path.join(out, "data")
    edges, features, labels = (os.path.join(data, f)
                               for f in ("edges.txt", "features.csv", "labels.txt"))
    emb = os.path.join(out, "embed", "embeddings.clsm")
    argvs = [
        ["synth"] + flags(wl.synth),
        ["embed", "--edges", edges, "--features", features] + flags(wl.embed),
        ["eval-classify", "--embeddings", emb, "--labels", labels] + flags(wl.classify),
        ["eval-cluster", "--embeddings", emb, "--labels", labels] + flags(wl.cluster),
        ["diagnose", "--embeddings", emb, "--edges", edges, "--labels", labels]
        + flags(wl.diagnose),
    ]
    for argv in argvs:
        stage_out = data if argv[0] == "synth" else os.path.join(out, argv[0])
        rc = main(argv + ["--out", stage_out, "--seed", str(seed)])
        if rc != 0:
            raise SystemExit(f"output_digests: `coles {' '.join(argv)}` exited {rc}")


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=here, help="checkout to run (default: this one)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[411, 7, 701])
    ap.add_argument("--workloads", nargs="+", default=["wide-features", "er-negatives"])
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    bench = load_bench(root)
    sys.path.insert(0, os.path.join(root, "src"))
    from coles.cli import main as coles_main

    with tempfile.TemporaryDirectory(prefix="coles-digests-") as work:
        for name in args.workloads:
            for seed in args.seeds:
                out = os.path.join(work, name, str(seed))
                run_pipeline(coles_main, bench.WORKLOADS[name], bench._flags, seed, out)
                for folder, _, files in sorted(os.walk(out)):
                    for f in sorted(files):
                        path = os.path.join(folder, f)
                        print(file_digest(path, work), os.path.relpath(path, work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
