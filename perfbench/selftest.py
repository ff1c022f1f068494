"""Self-test of the benchmark: metric names and units, the gate, the bare-tree refusal.

Usage, from the repository root:

    python3 perfbench/selftest.py

1. Runs the toy workload through run.py with --trace 0 and --trace 1. The
   last line must name every metric BENCHMARK.json lists, with its unit, and
   report no failed CLI call.
2. Runs the toy workload in-process and keeps its outputs. On temp copies it
   truncates embeddings.clsm and perturbs one eigenvalue in
   embedding_meta.json; the gate must flag each and count it in error_rate.
3. Runs run.py in a directory holding only BENCHMARK.json and perfbench/; it
   must exit non-zero without printing a result.

Exits 0 when every check passes. Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def cli(cwd: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                           "toy", "--seed", "11", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = cli(run.ROOT, trace)
        expect(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
               f"--trace {trace}: last line has exactly the four result keys")
        expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
               f"--trace {trace}: correct, {last['failed']} of {last['attempted']} calls failed")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        expect(got == want, f"--trace {trace}: metrics and units match BENCHMARK.json {key}")
        expect(all(isinstance(m["value"], (int, float)) for m in last["metrics"].values()),
               f"--trace {trace}: every value is a number")


def corrupted(result: run.RunResult, work: str, copy: str, damage) -> tuple[int, list]:
    """Re-check the calls of a finished run on a damaged copy of its outputs."""
    shutil.copytree(work, copy)
    damage(os.path.join(copy, "round0", "embed0"))
    calls = [run.Call(c.stage, c.rep, c.rc, c.seconds, c.out.replace(work, copy, 1))
             for c in result.calls]
    run.check_calls(calls, run.WORKLOADS["toy"], os.path.join(copy, "data0"))
    return sum(c.failed for c in calls), [p for c in calls for p in c.problems]


def truncate_clsm(embed_dir: str) -> None:
    path = os.path.join(embed_dir, "embeddings.clsm")
    os.truncate(path, os.path.getsize(path) - 8)


def perturb_eigenvalue(embed_dir: str) -> None:
    path = os.path.join(embed_dir, "embedding_meta.json")
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["eigenvalues"][0] *= 1.0 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def check_gate(base: str) -> None:
    sys.path.insert(0, run.SRC)
    work = os.path.join(base, "run")
    result = run.run_workload(run.WORKLOADS["toy"], 5, 1.0, False, work)
    attempted = len(result.calls)
    clean = sum(c.failed for c in result.calls)
    expect(clean == 0, f"unchanged outputs pass the gate ({clean} of {attempted} failed)")
    for name, damage, needle in (("truncated", truncate_clsm, "header says"),
                                 ("perturbed", perturb_eigenvalue, "sum of eigenvalues")):
        failed, problems = corrupted(result, work, os.path.join(base, name), damage)
        expect(failed > 0 and any(needle in p for p in problems),
               f"{name} copy is caught: error_rate {failed}/{attempted} = "
               f"{failed / attempted:.3f}")


def check_bare_tree(base: str) -> None:
    bare = os.path.join(base, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = cli(bare, 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ run.py exits {proc.returncode} and prints no result")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    base = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        check_metric_names(bench)
        check_gate(base)
        check_bare_tree(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
