"""Child process of the benchmark: runs coles CLI calls in-process and times them.

Usage: python3 perfbench/worker.py SPEC.json

run.py writes SPEC and starts one fresh worker per set-up and per pipeline
measurement. Mode "synth" runs one `coles synth` and reports the time from
process start (before `import coles`) to the end of the call. Mode "pipeline"
runs every stage once, in pipeline order, then cycles through the stages
again, each until it has run min_reps times and its summed time reaches the
stage budget. With "trace" set, the coles functions are wrapped by
tracing.instrument before the first call and the spans are returned. The
result is written as JSON to SPEC["result"].

A fixed probe of the host, `calibrate`, is timed before the first and after
every timed pipeline call, and each call reports the mean of the two probe
times around it (a set-up: the probe after it), so that run.py can take out
how fast the host ran at the time.
"""

import time


def calibrate() -> float:
    """Seconds a fixed probe of the host takes; it calls nothing of coles.

    Half is a pure-Python integer loop, half strided column updates of a
    128 x 128 array, because a slow stretch of the host can slow
    interpreter-bound and cache-bound work by different amounts.
    """
    import numpy as np  # loaded by coles already; never before T0

    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    a = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
    for k in range(1_000):
        p, q = k % 127, k % 127 + 1
        ap, aq = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.6 * ap - 0.8 * aq
        a[:, q] = 0.8 * ap + 0.6 * aq
        a[[p, q], :] = a[[q, p], :]
    return time.perf_counter() - start


T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def call_cli(main, argv, tracer, run_id):
    """(exit code, seconds) of one in-process CLI call; -1 if it raised."""
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = main(argv)
        else:
            tracer.run_id = run_id
            rc = tracer.call(f"stage.{argv[0]}", main, argv)
    except Exception:  # a crash is a failed call, reported, not fatal
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - start


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import coles.cli
    calls = []
    result = {"calls": calls}
    if not os.path.abspath(coles.cli.__file__).startswith(spec["src"] + os.sep):
        print(f"worker: imported coles from {coles.cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    cli_main = coles.cli.main  # looked up after instrument, so traced when tracing

    if spec["mode"] == "synth":
        rc, seconds = call_cli(cli_main, spec["argv"], tracer, "synth#0")
        result["setup_s"] = time.perf_counter() - T0
        result["calib_s"] = calibrate()
        calls.append({"stage": "synth", "rep": 0, "rc": rc, "seconds": seconds,
                      "calib_s": result["calib_s"]})
    else:
        deadline = T0 + spec["max_seconds"]
        stages = spec["stages"]
        spent = [0.0] * len(stages)
        reps = [0] * len(stages)
        active = list(range(len(stages)))
        before = calibrate()
        while active:  # cycles, so a stage's samples spread over the whole pass
            if "rss_mb" not in result and len(calls) >= len(stages):
                # high-water mark of the first pass; later rounds vary in number
                result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for i in list(active):
                stage = stages[i]
                argv = [a.replace("{rep}", str(reps[i])) for a in stage["argv"]]
                rc, seconds = call_cli(cli_main, argv, tracer, f"{stage['name']}#{reps[i]}")
                after = calibrate()
                calls.append({"stage": stage["name"], "rep": reps[i], "rc": rc,
                              "seconds": seconds, "calib_s": (before + after) / 2})
                before = after
                spent[i] += seconds
                reps[i] += 1
                if (rc != 0 or reps[i] >= stage["max_reps"] or time.perf_counter() > deadline
                        or (spent[i] >= stage["budget_s"] and reps[i] >= stage["min_reps"])):
                    active.remove(i)
    result.setdefault("rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        from tracing import span_cost
        result["span_cost_s"] = span_cost()  # after the timed calls, so it costs them nothing
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
