"""One pass, or one set-up probe, of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD INPUTS_JSON PASSDIR MODE

MODE is `setup` (import airylab and prepare the inputs, then stop), `pass`
(then run one pass) or `traced` (one pass with spans around every public
function of airylab's layers).  The result, with the monotonic time at which
the process was ready, goes to PASSDIR/result.pkl.
"""

import importlib
import json
import os
import pickle
import resource
import sys
import time

from common import LAYERS


def main(argv):
    workload, inputs_path, passdir, mode = argv
    for layer in LAYERS:
        importlib.import_module(f"airylab.{layer}")
    from passes import prepare, run_pass
    from tracer import Tracer, install, layer_metrics, load_spans

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    prepared = prepare(workload, inputs, passdir)
    result = {"ready": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            tracer = Tracer()
            install(tracer)
        t0 = time.perf_counter()
        outputs, ops = run_pass(workload, inputs, prepared, passdir, tracer is not None)
        result["pass_s"] = time.perf_counter() - t0
        if workload == "studies":
            result["rss_mb"] = max(s["rss_mb"] for s in outputs.values())
        else:
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(outputs=outputs, attempted=ops.attempted, failed=ops.failed,
                      errors=ops.errors)
        if tracer is not None:
            if workload == "studies":
                processes = [load_spans(os.path.join(passdir, f"spans-{study}.jsonl"))
                             for study in outputs]
            else:
                processes = [tracer.spans]
            result["spans"] = processes
            result["layers"] = layer_metrics(processes)
    with open(os.path.join(passdir, "result.pkl"), "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
