"""idemlift benchmark runner.

    python3 perfbench/run.py --workload count_primitive --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The runner builds the seeded job
list, samples set-up time with fresh probe workers, then runs rounds of jobs
closed-loop (one client) in one fresh worker process, each job through
``idemlift.cli.main(argv)``.  Rounds continue while another fits in
``--seconds`` (at least two).  A job that outlives the per-job timeout is
killed from here, recorded as a ``timeout`` failure, and the round goes on
in a new worker.  Job and round times are rescaled to reference speed by a
probe timed next to each job (see ``rescale_round``), set-up times by a
probe each set-up worker times right after it is ready.  After the last
round every output is checked by ``outcheck`` (outside the timed window, by
code that shares nothing with idemlift).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs round 0
untraced and then traced, and prints the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (machine stamp, per-round times, failures,
per-layer table) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobgen  # noqa: E402
import outcheck  # noqa: E402
import spans  # noqa: E402
from naive import REFERENCE_PROBE_S  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 12
JOB_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 150.0  # stop issuing work so the whole run ends within 180 s


class WorkerDied(Exception):
    pass


class Worker:
    """One worker process and a line reader over its stdout with timeouts."""

    def __init__(self, probe: bool = False):
        env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
        argv = [sys.executable, WORKER] + (["--probe"] if probe else [])
        t0 = perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self._buf = bytearray()
        line = self.readline(START_TIMEOUT_S)
        self.setup_s = perf_counter() - t0
        if line is None or not json.loads(line).get("ready"):
            self.kill()
            raise WorkerDied("worker did not become ready")
        self.ref = None
        if probe:
            line = self.readline(START_TIMEOUT_S)
            if line is None:
                self.kill()
                raise WorkerDied("probe worker did not report its speed")
            self.ref = json.loads(line)["ref"]

    def readline(self, timeout: float) -> bytes | None:
        """Next line, None on timeout; raises WorkerDied at end of output."""
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl])
                del self._buf[: nl + 1]
                return line
            left = deadline - perf_counter()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerDied("worker exited")
            self._buf += chunk

    def send(self, payload: dict) -> None:
        self.proc.stdin.write(json.dumps(payload).encode() + b"\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        try:
            self.send({"op": "exit"})
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class WorkerSlot:
    """The live worker, replaced after a timeout or crash."""

    def __init__(self, hard_deadline: float):
        self.worker: Worker | None = None
        self.hard_deadline = hard_deadline
        self.rss_kb = 0
        self.restarts = 0

    def run_round(self, jobs: list[dict], trace_path: str | None = None) -> dict:
        """Run jobs in order; per-job results plus the round's wall time."""
        results: dict[int, dict] = {}
        wall = 0.0
        ref0 = None
        pending = list(range(len(jobs)))
        while pending and perf_counter() < self.hard_deadline:
            if self.worker is None:
                self.worker = Worker()
            worker = self.worker
            worker.send({
                "op": "round",
                "jobs": [[i, jobs[i]["argv"]] for i in pending],
                "trace": trace_path,
            })
            seg_start = last = perf_counter()
            while True:
                wait = min(JOB_TIMEOUT_S, max(self.hard_deadline - perf_counter(), 0.1))
                try:
                    line = worker.readline(wait)
                except WorkerDied:
                    line, failure = None, "crash"
                else:
                    failure = "timeout"
                if line is None:
                    results[pending.pop(0)] = {"code": None, "failure": failure, "lat": perf_counter() - last}
                    wall += perf_counter() - seg_start
                    worker.kill()
                    self.worker = None
                    self.restarts += 1
                    break
                msg = json.loads(line)
                if "round_wall" in msg:
                    wall += msg["round_wall"]
                    ref0 = msg["ref0"] if ref0 is None else ref0
                    self.rss_kb = max(self.rss_kb, msg["rss_kb"])
                    break
                results[msg["id"]] = msg
                pending.remove(msg["id"])
                last = perf_counter()
        return {"jobs": jobs, "results": results, "wall": wall, "ref0": ref0, "complete": not pending}

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def machine_stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import sympy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join("src", "idemlift")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def check_rounds(rounds: list[dict]) -> tuple[int, int, list[dict]]:
    """(attempted, failed, failure records); identical outputs share a verdict.

    A passing result gets the numbers its check read (``outcheck.check_job``
    facts) merged in, e.g. a lift's ``mults``.
    """
    verdicts: dict[str, tuple[str | None, dict]] = {}
    attempted = failed = 0
    failures = []
    for rnd in rounds:
        for i, res in rnd["results"].items():
            job = rnd["jobs"][i]
            attempted += 1
            reason = res.get("failure")
            if reason is None and res.get("exc"):
                reason = "exception: " + res["exc"].strip().splitlines()[-1]
            if reason is None:
                key = hashlib.sha256(
                    json.dumps([job, res["code"], res["out"]], sort_keys=True).encode()
                ).hexdigest()
                if key not in verdicts:
                    facts: dict = {}
                    verdicts[key] = (outcheck.check_job(job, res["code"], res["out"], facts), facts)
                reason, facts = verdicts[key]
                res.update(facts)
            if reason is not None:
                failed += 1
                failures.append({"argv": job["argv"], "reason": reason})
    return attempted, failed, failures


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def rescale_round(rnd: dict) -> tuple[float, list[float]]:
    """The round's wall time and job latencies at reference speed.

    The machine's speed drifts (other tenants share the cores), so every
    time is multiplied by REFERENCE_PROBE_S over the probe time measured
    around it in the same process: for a job, the median of the probes from
    eight jobs before it to eight after; for the rest of the round's wall
    time, the round's median probe.
    """
    order = sorted(rnd["results"])
    refs = [rnd["ref0"]] + [rnd["results"][i].get("ref") for i in order]
    mid = statistics.median([r for r in refs if r] or [REFERENCE_PROBE_S])
    refs = [r or mid for r in refs]
    lats = []
    for k, i in enumerate(order):
        local = statistics.median(refs[max(0, k - 7): k + 9])
        lats.append(rnd["results"][i]["lat"] * REFERENCE_PROBE_S / local)
    raw_lat = sum(rnd["results"][i]["lat"] for i in order)
    wall = sum(lats) + max(rnd["wall"] - raw_lat, 0.0) * REFERENCE_PROBE_S / mid
    return wall, lats


def end_to_end(rounds, setup_samples, rss_kb) -> tuple[dict, dict]:
    """Job, round and set-up times at reference speed, memory as measured.

    Each set-up sample is rescaled by the probe its own worker timed right
    after becoming ready.  The raw wall-clock figures go in the detail.
    """
    setup = [t * REFERENCE_PROBE_S / ref for t, ref in setup_samples]
    scaled = [rescale_round(rnd) for rnd in rounds]
    complete = [k for k, rnd in enumerate(rounds) if rnd["complete"]] or list(range(len(rounds)))
    walls = [scaled[k][0] for k in complete]
    lat = [x for _, lats in scaled for x in lats]
    raw_lat = [res["lat"] for rnd in rounds for res in rnd["results"].values()]
    metrics = {
        "run_s": _metric(statistics.median(walls), "s"),
        "job_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "job_p90_ms": _metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MiB"),
    }
    probes = [res["ref"] for rnd in rounds for res in rnd["results"].values() if res.get("ref")]
    detail = {
        "round_walls_s": walls,
        "latency_samples": len(lat),
        "setup_samples_s": setup,
        "raw": {
            "setup_samples_s": [t for t, _ in setup_samples],
            "setup_s": statistics.median(t for t, _ in setup_samples),
            "round_walls_s": [rounds[k]["wall"] for k in complete],
            "job_p50_ms": statistics.median(raw_lat) * 1e3,
            "job_p90_ms": statistics.quantiles(raw_lat, n=10)[8] * 1e3,
            "probe_median_s": statistics.median(probes) if probes else None,
        },
    }
    return metrics, detail


# (layer, span) rows of the per-layer table, in print order
LAYER_ROWS = [(name.split(".")[0], name) for name, _, _ in spans.TARGETS]


def per_layer(analysis: dict, traced: dict, untraced_wall: float, traced_wall: float) -> dict:
    """Every per-layer metric of the traced round, in BENCHMARK.json order."""
    by_name = analysis["spans"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    total_self = analysis["total_self_s"] or 1.0
    provider_calls = sum(calls(f"catalog.provider.{p}") for p in spans.PROVIDERS)
    provider_ok = sum(by_name.get(f"catalog.provider.{p}", {}).get("ok", 0) for p in spans.PROVIDERS)
    mults = sum(res.get("mults", 0) for res in traced["results"].values())
    factor_names = [n for n in by_name if n.startswith("polynomials.")] + ["rings.factorize", "rings.is_prime"]
    m = {
        "cli.main.self_s": _metric(self_s("cli.main"), "s"),
        "parsing.build_ring.self_s": _metric(self_s("parsing.build_ring"), "s"),
        "parsing.parse_element.calls": _metric(calls("parsing.parse_element"), "count"),
        "parsing.parse_element.self_s": _metric(self_s("parsing.parse_element"), "s"),
        "catalog.enumerate.self_s": _metric(self_s("catalog.enumerate"), "s"),
    }
    for p in spans.PROVIDERS:
        m[f"catalog.provider.{p}.calls"] = _metric(calls(f"catalog.provider.{p}"), "count")
        m[f"catalog.provider.{p}.self_s"] = _metric(self_s(f"catalog.provider.{p}"), "s")
    m["catalog.provider.useful_ratio"] = _metric(provider_ok / provider_calls if provider_calls else 1.0, "1")
    m.update({
        "lifting.chain_lift.calls": _metric(calls("lifting.chain_lift"), "count"),
        "lifting.chain_lift.self_s": _metric(self_s("lifting.chain_lift"), "s"),
        "lifting.verify_idempotent.calls": _metric(calls("lifting.verify_idempotent"), "count"),
        "lifting.verify_family.calls": _metric(calls("lifting.verify_family"), "count"),
        "lifting.verify_family.self_s": _metric(self_s("lifting.verify_family"), "s"),
        "lifting.reported_mults": _metric(mults, "count"),
        "group_rings.mul.calls": _metric(calls("group_rings.mul"), "count"),
        "group_rings.mul.self_s": _metric(self_s("group_rings.mul"), "s"),
        "group_rings.pow.calls": _metric(calls("group_rings.pow"), "count"),
        "quotients.mul.calls": _metric(calls("quotients.mul"), "count"),
        "quotients.mul.self_s": _metric(self_s("quotients.mul"), "s"),
        "polynomials.berlekamp_factor.calls": _metric(calls("polynomials.berlekamp_factor"), "count"),
        "polynomials.berlekamp_factor.self_s": _metric(self_s("polynomials.berlekamp_factor"), "s"),
        "polynomials.poly_gcd.calls": _metric(calls("polynomials.poly_gcd"), "count"),
        "groups.all_subgroups.calls": _metric(calls("groups.all_subgroups"), "count"),
        "groups.all_subgroups.self_s": _metric(self_s("groups.all_subgroups"), "s"),
        "groups.frobenius_orbit_count.self_s": _metric(self_s("groups.frobenius_orbit_count"), "s"),
        "rings.factorize.calls": _metric(calls("rings.factorize"), "count"),
        "rings.factorize.self_s": _metric(self_s("rings.factorize"), "s"),
        "rings.is_prime.calls": _metric(calls("rings.is_prime"), "count"),
        "rings.is_prime.self_s": _metric(self_s("rings.is_prime"), "s"),
        "oracle.brute_force_scan.calls": _metric(calls("oracle.brute_force_scan"), "count"),
        "oracle.brute_force_scan.self_s": _metric(self_s("oracle.brute_force_scan"), "s"),
        "trace.coverage": _metric(analysis["coverage"], "1"),
        "trace.overhead": _metric(traced_wall / untraced_wall if untraced_wall else 0.0, "1"),
        "trace.mul_share": _metric((self_s("group_rings.mul") + self_s("quotients.mul")) / total_self, "1"),
        "trace.factor_share": _metric(sum(self_s(n) for n in factor_names) / total_self, "1"),
    })
    return m


def layer_table(analysis: dict) -> list[str]:
    by_name = analysis["spans"]
    total = analysis["total_self_s"] or 1.0
    lines = [f"{'layer':<12} {'span':<32} {'calls':>9} {'self_s':>9} {'share':>6}"]
    for layer, name in LAYER_ROWS:
        row = by_name.get(name, {"calls": 0, "self_s": 0.0})
        lines.append(
            f"{layer:<12} {name:<32} {row['calls']:>9} {row['self_s']:>9.4f} {row['self_s'] / total:>6.1%}"
        )
    lines.append(
        f"{'':<12} {'(all spans)':<32} {analysis['span_count']:>9} {analysis['total_self_s']:>9.4f} "
        f"coverage {analysis['coverage']:.3f}"
    )
    return lines


def preflight() -> str | None:
    if not os.path.isfile(os.path.join("src", "idemlift", "cli.py")):
        return "src/idemlift not found: run from the root of an idemlift checkout"
    if outcheck.sympy is None:
        return "sympy is required by the benchmark's output checks (it is not an idemlift dependency)"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = machine_stamp(args.workload, args.seed, args.seconds, args.trace)
    run_start = perf_counter()

    # Set-up is sampled in small batches spread over the run, so that its
    # median is not taken in one phase of the machine's drifting speed.
    # Each sample is (raw wall time, reference probe timed right after it
    # in the same process).
    setup_samples: list[tuple[float, float]] = []

    def sample_setup(count: int) -> None:
        for _ in range(min(count, SETUP_PROBES - len(setup_samples))):
            probe = Worker(probe=True)
            setup_samples.append((probe.setup_s, probe.ref))
            probe.close()

    if not args.trace:
        sample_setup(4)
    slot = WorkerSlot(run_start + RUN_DEADLINE_S)
    try:
        slot.worker = Worker()
        rounds = []
        traced = None
        if args.trace:
            jobs = jobgen.round_jobs(args.workload, args.seed, 0)
            rounds.append(slot.run_round(jobs))
            span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
            traced = slot.run_round(jobs, trace_path=os.path.abspath(span_path))
            rounds.append(traced)
        else:
            t0 = perf_counter()
            spent = []
            while True:
                start = perf_counter()
                rounds.append(slot.run_round(jobgen.round_jobs(args.workload, args.seed, len(rounds))))
                spent.append(perf_counter() - start)
                sample_setup(2)
                now = perf_counter()
                if now - run_start > RUN_DEADLINE_S / 2:
                    break
                if len(rounds) >= 2 and now - t0 + statistics.median(spent) > args.seconds:
                    break
            sample_setup(SETUP_PROBES)
    finally:
        slot.close()

    attempted, failed, failures = check_rounds(rounds)
    record = {"stamp": stamp, "attempted": attempted, "failed": failed,
              "failures": failures[:50], "worker_restarts": slot.restarts}
    if args.trace:
        analysis = spans.analyze(span_path, traced["wall"])
        metrics = per_layer(analysis, traced, rescale_round(rounds[0])[0], rescale_round(traced)[0])
        table = layer_table(analysis)
        record["layers"] = analysis["spans"]
        record["layer_table"] = table
    else:
        metrics, detail = end_to_end(rounds, setup_samples, slot.rss_kb)
        record.update(detail)
        table = []
    record["metrics"] = metrics
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"workload {args.workload}: {len(rounds)} rounds, {attempted} jobs attempted, "
          f"{failed} failed (failed_ratio {failed / max(attempted, 1):.4f}), "
          f"{slot.restarts} worker restarts")
    if not args.trace:
        raw = record["raw"]
        print(f"latency samples {record['latency_samples']}; round walls at reference speed "
              + ", ".join(f"{w:.3f}" for w in record["round_walls_s"]))
        print("raw wall clock: round walls " + ", ".join(f"{w:.3f}" for w in raw["round_walls_s"])
              + f"; job p50 {raw['job_p50_ms']:.3f} ms, p90 {raw['job_p90_ms']:.3f} ms; "
              f"set-up {raw['setup_s']:.3f} s; "
              f"median probe {(raw['probe_median_s'] or 0) * 1e3:.3f} ms "
              f"(reference {REFERENCE_PROBE_S * 1e3:.3f} ms)")
    for f in failures[:10]:
        print(f"FAILED {' '.join(f['argv'])[:100]}: {f['reason']}")
    for line in table:
        print(line)
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
