"""Pipeline benchmark of the coles CLI: synth -> embed -> eval-classify / eval-cluster -> diagnose.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_ROUNDS = 3          # untraced run: at least this many (fresh set-up, fresh pipeline worker)
MAX_ROUNDS = 15         # pairs, and more while --seconds lasts, up to this many
STAGE_SHARE = 30        # in each pass a stage repeats until its time reaches --seconds / STAGE_SHARE
MIN_REPS = 2            # and at least this many times
MAX_REPS = 25           # cap on repetitions of one stage
REPS_CUTOFF_S = 110.0   # no new repetition starts after this many seconds of a run
RUN_LIMIT_S = 150.0     # a worker still running at this point of a run is killed
# The host's speed drifts by 15-30 % within a minute and every timed call slows
# with it. worker.calibrate, a fixed probe of the host, is timed around each call;
# an untraced run reports each time scaled to a host on which that probe takes
# CALIB_REF_S, the probe's usual time on the 2-vCPU VM the benchmark was tuned on.
CALIB_REF_S = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    embed: dict
    classify: dict = field(default_factory=lambda: {
        "per_class": 20, "val_size": 500, "n_splits": 50, "epochs": 500})
    cluster: dict = field(default_factory=lambda: {"n_runs": 10})
    diagnose: dict = field(default_factory=lambda: {"grid_points": 512})
    shares: tuple = ()  # (per-layer metric, stage, its expected share of the stage at seed code)

    @property
    def n(self) -> int:
        return self.synth["classes"] * self.synth["per_block"]


def _sbm(classes, per_block, p_in, p_out, feat_dim, **extra) -> dict:
    # mean_sep only moves feature values, not any cost a workload is chosen
    # for; large-graph and er-negatives raise it so that classify_acc and
    # cluster_nmi vary little from seed to seed
    return {"classes": classes, "per_block": per_block, "p_in": p_in, "p_out": p_out,
            "feat_dim": feat_dim, "noise_sigma": 2.0, **extra}


def _embed(filt, k_steps, kappa, dim, **extra) -> dict:
    return {"filter": filt, "k_steps": k_steps, "alpha": 0.05, "kappa": kappa,
            "per_node": 5, "mode": "per-node-k", "eta_prime": 1.0, "dim": dim, **extra}


WORKLOADS = {w.name: w for w in (
    Workload(
        "wide-features",
        "eigensolver-bound: Jacobi sym_eig on the 128x128 form is most of embed, graph layers "
        "~0.2 s; an eigensolver change shows here and a graph change should not",
        _sbm(3, 200, 0.07, 0.005, 128),
        _embed("s2gc", 8, 2, 16),
        shares=(("coles_solver.sym_eig_s", "embed", ">= 0.80"),)),
    # Runnable by name, not in BENCHMARK.json: psd_margin's power iteration
    # count depends on the sampled graphs, so its embed time ranges over
    # 2.8-10.5 s across seeds and no bound the result format allows holds.
    Workload(
        "large-graph",
        "graph-bound: n=3000 SBM set-up (O(n^2) pair loop), ten per-node-k negative graphs, "
        "psd_margin, parsing; its 16x16 eigenproblem must show no eigensolver gain",
        _sbm(3, 1000, 0.01, 0.001, 16, mean_sep=3.0),
        _embed("s2gc", 8, 10, 8),
        shares=(("coles_solver.sym_eig_s", "embed", "< 0.05"),
                ("synthetic.generate_sbm_s", "setup", ">= 0.70"))),
    Workload(
        "er-negatives",
        "sampling-bound: Erdos-Renyi negatives are O(n^2) draws, most of embed; also the O(n^2) "
        "SBM set-up, wide-CSV parsing and hash_features",
        _sbm(2, 500, 0.03, 0.003, 512, mean_sep=8.0),
        _embed("sgc", 2, 3, 8, hash_dim=64, mode="erdos-renyi", p_prime=0.005),
        diagnose={"grid_points": 512, "mode": "erdos-renyi", "p_prime": 0.005},
        shares=(("negative_sampling.sample_s", "embed", ">= 0.60"),)),
    # seconds-long fixture for perfbench/selftest.py; not a benchmark workload
    Workload(
        "toy", "self-test only",
        _sbm(3, 20, 0.3, 0.05, 8),
        _embed("s2gc", 2, 2, 4, per_node=3),
        classify={"per_class": 5, "val_size": 10, "n_splits": 3, "epochs": 50},
        cluster={"n_runs": 2},
        diagnose={"grid_points": 64}),
)}

E2E_UNITS = {"setup_s": "s", "embed_s": "s", "evaluate_s": "s", "diagnose_s": "s",
             "pipeline_s": "s", "peak_rss_mb": "MiB", "classify_acc": "fraction",
             "cluster_nmi": "fraction"}


def _flags(values: dict) -> list:
    out = []
    for key, value in values.items():
        out += [f"--{key.replace('_', '-')}", str(value)]
    return out


# -- one CLI call's record and its correctness ------------------------------------

@dataclass
class Call:
    stage: str
    rep: int
    rc: int
    seconds: float
    out: str
    calib_s: float = 0.0  # calibration probe time around the call, 0 if not measured
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # defects outside the gate, reported only

    @property
    def ref_seconds(self) -> float:
        """The call's time scaled to the reference host speed (see CALIB_REF_S)."""
        return self.seconds * CALIB_REF_S / self.calib_s if self.calib_s > 0 else self.seconds

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


def check_calls(calls: list, wl: Workload, fixture: str) -> None:
    """Attach correctness problems to each call; runs outside every timed region."""
    import gate
    dim = wl.embed["dim"]
    embeds = [c for c in calls if c.stage == "embed" and c.rc == 0]
    for c in calls:
        if c.rc != 0:
            continue
        if c.stage == "synth":
            for name in ("edges.txt", "features.csv", "labels.txt"):
                if not gate.same_bytes(os.path.join(c.out, name), os.path.join(fixture, name)):
                    c.problems.append(f"{name} differs from the first set-up's")
        elif c.stage == "embed":
            c.problems += gate.check_embed(c.out, wl.n, dim)
            first = os.path.join(embeds[0].out, "embeddings.clsm")
            if c is not embeds[0] and not gate.same_bytes(os.path.join(c.out, "embeddings.clsm"),
                                                          first):
                c.problems.append("re-run with the same seed wrote different embeddings.clsm")
        elif c.stage == "eval-classify":
            c.problems += gate.check_eval(c.out, "per_split", wl.classify["n_splits"])
        elif c.stage == "eval-cluster":
            c.problems += gate.check_eval(c.out, "per_run", wl.cluster["n_runs"])
        elif c.stage == "diagnose":
            c.problems += gate.check_diagnose(c.out, wl.diagnose["grid_points"])
            if not gate.density_values_parse(c.out):
                c.notes.append("densities.csv values are not plain numbers")
    if embeds and not embeds[0].problems:
        try:
            embeds[0].problems += gate.oracle(fixture, embeds[0].out, wl.embed)
        except (ValueError, KeyError, OSError) as exc:
            embeds[0].problems.append(f"oracle could not rebuild M: {exc!r}")


# -- worker processes ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({"PYTHONPATH": SRC, "COLES_LOG": "error", "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads})
    return env


def spawn(work: str, tag: str, spec: dict, deadline: float) -> dict:
    """Run worker.py on spec in a fresh process; {} if it failed or timed out."""
    spec = {**spec, "src": SRC, "result": os.path.join(work, f"{tag}.result.json")}
    spec_path = os.path.join(work, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker {tag} timed out and was killed", file=sys.stderr)
        return {}
    if proc.returncode != 0:
        print(f"perfbench: worker {tag} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return {}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _calls(result: dict, outs: dict) -> list:
    return [Call(c["stage"], c["rep"], c["rc"], c["seconds"],
                 outs[c["stage"]].replace("{rep}", str(c["rep"])), c.get("calib_s", 0.0))
            for c in result.get("calls", [])]


def synth_spec(wl: Workload, seed: int, out: str, trace: bool) -> dict:
    return {"mode": "synth", "trace": trace,
            "argv": ["synth", "--out", out, "--seed", str(seed)] + _flags(wl.synth)}


def pipeline_spec(wl: Workload, seed: int, fixture: str, out: str, trace: bool,
                  budget_s: float, min_reps: int, max_reps: int,
                  max_seconds: float) -> tuple[dict, dict]:
    """Worker spec and the output directory pattern of each stage."""
    data = {k: os.path.join(fixture, f) for k, f in
            (("edges", "edges.txt"), ("features", "features.csv"), ("labels", "labels.txt"))}
    outs = {s: os.path.join(out, s + "{rep}")
            for s in ("embed", "eval-classify", "eval-cluster", "diagnose")}
    clsm = os.path.join(out, "embed0", "embeddings.clsm")
    seed_flag = ["--seed", str(seed)]
    argvs = {
        "embed": ["embed", "--edges", data["edges"], "--features", data["features"]]
                 + _flags(wl.embed),
        "eval-classify": ["eval-classify", "--embeddings", clsm, "--labels", data["labels"]]
                         + _flags(wl.classify),
        "eval-cluster": ["eval-cluster", "--embeddings", clsm, "--labels", data["labels"]]
                        + _flags(wl.cluster),
        "diagnose": ["diagnose", "--embeddings", clsm, "--edges", data["edges"],
                     "--labels", data["labels"]] + _flags(wl.diagnose),
    }
    stages = [{"name": s, "argv": argv + ["--out", outs[s]] + seed_flag,
               "budget_s": budget_s, "min_reps": min_reps, "max_reps": max_reps}
              for s, argv in argvs.items()]
    return ({"mode": "pipeline", "trace": trace, "stages": stages,
             "max_seconds": max_seconds}, outs)


# -- one benchmark run ------------------------------------------------------------------

@dataclass
class RunResult:
    calls: list
    metrics: dict
    samples: dict
    shares: list = field(default_factory=list)  # (metric, stage, share, expected), traced runs
    info: list = field(default_factory=list)  # further report lines


def _median_of(calls: list, stage: str, ref: bool = False) -> tuple[float, int]:
    """Median time of the stage's calls, raw or at reference host speed, and their count."""
    times = [c.ref_seconds if ref else c.seconds for c in calls if c.stage == stage]
    return (statistics.median(times), len(times)) if times else (0.0, 0)


def _mean_metric(path: str, key: str) -> float:
    try:
        with open(os.path.join(path, "metrics.json"), encoding="utf-8") as fh:
            return float(json.load(fh)["mean"][key])
    except (OSError, ValueError, KeyError):
        return 0.0


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: str) -> RunResult:
    """Set up, measure and check one run; `work` receives every output file."""
    start = time.monotonic()
    cutoff, deadline = start + REPS_CUTOFF_S, start + RUN_LIMIT_S
    os.makedirs(work, exist_ok=True)
    calls = []

    def setup(r):
        out = os.path.join(work, f"data{r}")
        res = spawn(work, f"synth{r}", synth_spec(wl, seed, out, trace), deadline)
        calls.extend(_calls(res, {"synth": out}) or [Call("synth", r, -1, 0.0, out)])
        return res

    fixture = os.path.join(work, "data0")

    def pipeline(tag, traced, budget_s, min_reps, max_reps):
        spec, outs = pipeline_spec(wl, seed, fixture, os.path.join(work, tag), traced, budget_s,
                                   min_reps, max_reps, cutoff - time.monotonic())
        res = spawn(work, tag, spec, deadline)
        got = _calls(res, outs)
        calls.extend(got or [Call("embed", 0, -1, 0.0, outs["embed"].replace("{rep}", "0"))])
        return res, got

    if trace:
        traced_setup = setup(0)
        _, plain_calls = pipeline("plain", False, 0.0, 1, 1)
        traced, traced_calls = pipeline("traced", True, 0.0, 1, 1)
        check_calls(calls, wl, fixture)
        import tracing
        metrics = tracing.layer_metrics([traced_setup, traced])
        stage_s = {s: _median_of(traced_calls, s)[0] for s in
                   ("embed", "eval-classify", "eval-cluster", "diagnose")}
        metrics.update({
            "stage.setup_s": traced_setup.get("setup_s", 0.0),
            "stage.embed_s": stage_s["embed"],
            "stage.evaluate_s": stage_s["eval-classify"] + stage_s["eval-cluster"],
            "stage.diagnose_s": stage_s["diagnose"],
            "trace.overhead_s": sum(c.seconds for c in traced_calls)
                                - sum(c.seconds for c in plain_calls),
            "host.calib_s": statistics.median([c.calib_s for c in calls if c.calib_s > 0]
                                              or [0.0]),
        })
        metrics["trace.span_cost_s"] = traced.get("span_cost_s", 0.0) * metrics["trace.spans"]

        def share(metric, stage):
            # self time inside this stage's calls only: embed's negatives, not diagnose's
            proc, prefix = (traced_setup, "synth#") if stage == "setup" else (traced, stage + "#")
            return tracing.stage_share(proc, metric, prefix, metrics[f"stage.{stage}_s"])

        shares = [(metric, stage, share(metric, stage), expect)
                  for metric, stage, expect in wl.shares]
        return RunResult(calls, metrics, {}, shares)

    # set-ups and pipeline passes alternate until --seconds is spent, so every
    # metric samples the whole run and no slow stretch of the host sets it alone
    setup_times, rss = [], []
    for r in range(MAX_ROUNDS):
        round_start = time.monotonic()
        res = setup(r)
        if res.get("calib_s"):
            setup_times.append(res["setup_s"] * CALIB_REF_S / res["calib_s"])
        res, _ = pipeline(f"round{r}", False, seconds / STAGE_SHARE, MIN_REPS, MAX_REPS)
        rss.append(res.get("rss_mb", 0.0))
        now = time.monotonic()
        if r + 1 >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
            break
    check_calls(calls, wl, fixture)
    stage = {s: _median_of(calls, s, ref=True) for s in
             ("embed", "eval-classify", "eval-cluster", "diagnose")}
    metrics = {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "embed_s": stage["embed"][0],
        "evaluate_s": stage["eval-classify"][0] + stage["eval-cluster"][0],
        "diagnose_s": stage["diagnose"][0],
    }
    metrics["pipeline_s"] = metrics["embed_s"] + metrics["evaluate_s"] + metrics["diagnose_s"]
    metrics["peak_rss_mb"] = max(rss)
    metrics["classify_acc"] = _mean_metric(os.path.join(work, "round0", "eval-classify0"),
                                           "accuracy")
    metrics["cluster_nmi"] = _mean_metric(os.path.join(work, "round0", "eval-cluster0"), "nmi")
    samples = {"setup_s": len(setup_times), "embed_s": stage["embed"][1],
               "evaluate_s": min(stage["eval-classify"][1], stage["eval-cluster"][1]),
               "diagnose_s": stage["diagnose"][1]}
    calib = [c.calib_s for c in calls if c.calib_s > 0]
    raw = {s: _median_of(calls, s)[0] for s in ("synth", "embed", "eval-classify",
                                                 "eval-cluster", "diagnose")}
    info = [f"host: calibration probe median {statistics.median(calib or [0.0]) * 1e3:.2f} ms "
            f"over {len(calib)} calls (reference {CALIB_REF_S * 1e3:g} ms), "
            f"range {min(calib or [0.0]) * 1e3:.2f}-{max(calib or [0.0]) * 1e3:.2f} ms",
            "unscaled medians (s): " + ", ".join(f"{s} {t:.4g}" for s, t in raw.items())]
    return RunResult(calls, metrics, samples, info=info)


# -- environment record and report -----------------------------------------------------------

def environment(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = sorted(f for f in os.listdir(os.path.join(SRC, "coles")) if f.endswith(".py"))
    digest, lines = hashlib.sha256(), 0
    for name in sources:
        with open(os.path.join(SRC, "coles", name), "rb") as fh:
            blob = fh.read()
        digest.update(name.encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest(), "src_coles_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }


def _git_sha():
    """HEAD of the repository rooted exactly here, or None (e.g. an exported tree)."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def report(wl: Workload, env: dict, result: RunResult, trace: bool) -> dict:
    import tracing
    attempted = len(result.calls)
    failed = sum(c.failed for c in result.calls)
    units = tracing.per_layer_units() if trace else E2E_UNITS
    print(f"perfbench {wl.name}: {wl.why}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        n = result.samples.get(name)
        note = f"  (median of {n})" if n else ""
        print(f"  {name:42s} {result.metrics[name]:>16.6g} {unit}{note}")
    print(f"  {'error_rate':42s} {failed / max(attempted, 1):>16.6g} fraction"
          f"  ({failed} of {attempted} CLI calls failed)")
    for line in result.info:
        print("  " + line)
    for metric, stage, share, expect in result.shares:
        print(f"  share of {stage}: {metric} = {share:.3f} (seed code: {expect})")
    for c in result.calls:
        if c.failed:
            print(f"  FAILED {c.out} exit {c.rc}: {'; '.join(c.problems)}")
    for note in sorted({n for c in result.calls for n in c.notes}):
        print(f"  NOTE (not gated) {note}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": result.metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coles", "cli.py")):
        print(f"perfbench: no coles sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        result = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = report(wl, environment(wl, args.seed, args.seconds, bool(args.trace)), result,
                  bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
