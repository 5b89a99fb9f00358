"""airylab benchmark: one workload, its end-to-end metrics or, traced, its per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload studies --seed 1 --seconds 15 --trace 0

Set-up is measured on fresh interpreters that import airylab and prepare the
inputs, then stop.  Then passes run one after another, each in a fresh
process, until --seconds have gone by (at least two).  Every pass of a run has
the same inputs, made from --seed.  With --trace 1 the passes alternate
between untraced and traced, and the per-layer metrics come from the traced
ones.  After the passes every output is checked against the references of
oracles.py.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time

from common import OUT, SRC, WORKLOADS, child_env, make_inputs
from tracer import PER_LAYER_UNITS

SETUP_PROBES = 9
MIN_PASSES = 2
WORKER_TIMEOUT = 150.0

# wall time of each study's process, from the untraced passes of a traced run
STUDY_TIMES = {"cli.theorem1_s": "theorem1", "cli.theorem2_s": "theorem2",
               "cli.theorem3_s": "theorem3", "cli.crosschecks_s": "crosschecks",
               "cli.fredholm_s": "fredholm", "cli.idpii_solve_s": "idpii-solve"}
TRACE_UNITS = {**PER_LAYER_UNITS, **dict.fromkeys(STUDY_TIMES, "s"), "trace.overhead_s": "s"}


class WorkerError(RuntimeError):
    pass


def run_worker(workload, rundir, index, mode, env):
    """One fresh worker process; returns its result with setup_s filled in."""
    passdir = os.path.join(rundir, f"{index:03d}-{mode}")
    os.makedirs(passdir)
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
           workload, os.path.join(rundir, "inputs.json"), passdir, mode]
    with open(os.path.join(passdir, "worker.stderr"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:  # the worker's own children (the studies) go with it
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        with open(os.path.join(passdir, "worker.stderr"), errors="replace") as fh:
            raise WorkerError(f"{mode} worker {index} exited {code}:\n{fh.read()[-4000:]}")
    with open(os.path.join(passdir, "result.pkl"), "rb") as fh:
        result = pickle.load(fh)
    result["setup_s"] = result["ready"] - t0
    return result


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "airylab" / "__init__.py").is_file():
        print(f"airylab sources not found under {SRC}", file=sys.stderr)
        return 2

    import checks

    inputs = make_inputs(args.workload, args.seed)
    rundir = str(OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        with open(os.path.join(rundir, "inputs.json"), "w") as fh:
            json.dump(inputs, fh)
        env = child_env()
        setups = [run_worker(args.workload, rundir, i, "setup", env)["setup_s"]
                  for i in range(SETUP_PROBES)]
        modes = ("pass", "traced") if args.trace else ("pass",)
        passes = []
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
            mode = modes[len(passes) % len(modes)]
            res = run_worker(args.workload, rundir, SETUP_PROBES + len(passes), mode, env)
            res["mode"] = mode
            passes.append(res)
            setups.append(res["setup_s"])
        fails = checks.check(args.workload, inputs, [p["outputs"] for p in passes])
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for p in passes:
        for err in p["errors"]:
            print(f"failed operation: {err}", file=sys.stderr)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)

    untraced = [p for p in passes if p["mode"] == "pass"]
    print("pass_s of each pass: " + " ".join(f"{p['pass_s']:.3f}{'t' if p['mode'] == 'traced' else ''}"
                                             for p in passes), file=sys.stderr)
    print("setup_s of each probe: " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
    if args.trace:
        traced = [p for p in passes if p["mode"] == "traced"]
        metrics = {name: _metric(statistics.median(p["layers"][name] for p in traced), unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, study in STUDY_TIMES.items():
            walls = [p["outputs"][study]["wall_s"] for p in untraced] \
                if args.workload == "studies" else [0.0]
            metrics[name] = _metric(statistics.median(walls), "s")
        overhead = statistics.median(p["pass_s"] for p in traced) \
            - statistics.median(p["pass_s"] for p in untraced)
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        _write_trace(args.workload, args.seed, traced)
    else:
        metrics = {
            "pass_s": _metric(statistics.median(p["pass_s"] for p in untraced), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(p["rss_mb"] for p in untraced), "MB"),
        }
    print(json.dumps({"correct": not fails,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": sum(p["failed"] for p in passes),
                      "metrics": metrics}))
    return 0


def _write_trace(workload, seed, traced):
    """All spans of the traced passes, one JSON object a line, written once at the end."""
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        for k, p in enumerate(traced):
            for proc, spans in enumerate(p["spans"]):
                for sid, parent, name, t0, t1, extra in spans:
                    fh.write(json.dumps({"pass": k, "process": proc, "id": sid,
                                         "parent": parent, "name": name, "start": t0,
                                         "end": t1, "attrs": extra}) + "\n")
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
