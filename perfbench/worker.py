"""Benchmark worker: one fresh process that runs CLI jobs closed-loop.

Protocol (one JSON document per line):

* on start the worker imports ``idemlift.cli`` from ``src/`` and writes
  ``{"ready": true}``.  With ``--probe`` it then times the reference probe,
  writes ``{"ref": seconds}`` and exits; that is how the runner samples
  set-up time and the machine's speed right after it;
* ``{"op": "round", "jobs": [[id, argv], ...], "trace": path|null}`` runs the
  jobs in order, each through ``idemlift.cli.main(argv)`` with stdout and
  stderr captured.  After each job it times the reference probe
  (``naive.reference_probe``, outside the job's latency) and writes one
  result line; a final line gives the round's wall time without the probes,
  the probe time before the first job, and the worker's peak RSS.  With a
  trace path, every layer is wrapped for that round and the spans are saved
  there;
* ``{"op": "exit"}`` (or end of input) ends the worker.

The runner enforces the per-job timeout from outside by killing this
process, so nothing here watches the clock except to report latencies.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _send(proto, payload: dict) -> None:
    proto.write(json.dumps(payload).encode() + b"\n")
    proto.flush()


def peak_rss_kb() -> int:
    """This process's own resident high-water mark, in KiB.

    ``VmHWM`` belongs to the address space made at exec, so it does not
    include the parent's memory the way ``ru_maxrss`` does on Linux (exec
    folds the pre-exec peak, here the runner's, into ``ru_maxrss``).
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_job(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    code = None
    exc = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as stop:  # argparse rejects the argv
        code = stop.code if isinstance(stop.code, int) else 2
    except Exception:  # an uncaught exception is a failed job, not a dead worker
        exc = traceback.format_exc()
    latency = perf_counter() - t0
    return {"code": code, "out": out.getvalue(), "exc": exc, "lat": latency}


def _run_round(cli, proto, jobs, trace_path) -> None:
    from naive import reference_probe

    recorder = None
    if trace_path:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    gc.collect()
    try:
        ref0 = reference_probe()
        probes = 0.0
        t0 = perf_counter()
        for job_id, argv in jobs:
            if recorder is not None:
                recorder.job_id = job_id
            result = _run_job(cli, argv)
            result["id"] = job_id
            result["ref"] = reference_probe()
            probes += result["ref"]
            _send(proto, result)
        wall = perf_counter() - t0 - probes
    finally:
        if recorder is not None:
            recorder.restore()
    if recorder is not None:
        recorder.save(trace_path)
    _send(proto, {"round_wall": wall, "ref0": ref0, "rss_kb": peak_rss_kb()})


def main() -> int:
    proto = sys.stdout.buffer
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import idemlift.cli  # set-up: the whole package, numpy included

    _send(proto, {"ready": True})
    if "--probe" in sys.argv[1:]:
        from naive import reference_probe

        _send(proto, {"ref": reference_probe()})
        return 0
    for line in sys.stdin.buffer:
        msg = json.loads(line)
        if msg["op"] == "exit":
            break
        _run_round(idemlift.cli, proto, msg["jobs"], msg.get("trace"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
