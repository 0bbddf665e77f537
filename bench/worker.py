"""Benchmark worker: imports sdesym once, then runs CLI commands on request.

Started by run.py with a pinned environment (one BLAS thread, fixed hash
seed).  Times are CPU seconds of this process (user plus system): for a
single-threaded worker that is its wall time on an idle machine, without the
time a shared host steals from the virtual CPU.  Protocol, one JSON object
per line:

    worker -> client  {"ready": true, "setup_s"}         once sdesym is imported
    client -> worker  {"argv": [...]}                     run one command
    worker -> client  {"code", "stdout", "stderr", "elapsed_s"[, "trace"]}
    client -> worker  {"exit": true}
    worker -> client  {"peak_rss_mb": ...}                then the worker exits

With --trace the worker wraps the library calls each command makes (see
trace_layers.py) and returns the command's spans and probe figures with its result.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

import sdesym.cli


def _run(argv):
    # start each command from a collected heap, as a fresh CLI process does,
    # so collector pauses owed to earlier commands do not land in this one
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sdesym.cli.main(argv)
        except SystemExit as e:        # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 2
        except Exception:              # what the CLI would die with
            traceback.print_exc()
            code = 1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "elapsed_s": time.process_time() - t0}


def _peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM).  ru_maxrss
    would also count the parent's pages that the spawning fork carried
    until exec, so it is not used."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    tracer = None
    if "--trace" in sys.argv[1:]:
        import trace_layers
        tracer = trace_layers.Tracer()
        tracer.install()
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    use = resource.getrusage(resource.RUSAGE_SELF)
    send({"ready": True, "setup_s": use.ru_utime + use.ru_stime})
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("exit"):
            break
        if tracer is not None:
            tracer.begin()
        res = _run(req["argv"])
        if tracer is not None:
            res["trace"] = tracer.end(res["elapsed_s"], req["argv"])
        send(res)
    send({"peak_rss_mb": _peak_rss_mb()})
    proto.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
