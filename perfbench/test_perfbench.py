"""Tests of the benchmark itself: seeded job lists, the independent checks,
and the span recorder.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobgen  # noqa: E402
import outcheck  # noqa: E402

pytestmark = pytest.mark.skipif(outcheck.sympy is None, reason="sympy is not installed")


def _cli(argv: list[str]) -> tuple[int, str]:
    from idemlift import cli

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_same_seed_gives_identical_job_list(workload):
    def job_list_bytes():
        return json.dumps(jobgen.round_jobs(workload, 7, 0), sort_keys=True).encode()

    assert job_list_bytes() == job_list_bytes()
    jobs = jobgen.round_jobs(workload, 7, 0)
    assert len(jobs) >= 100


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_other_seed_draws_from_the_same_pool(workload):
    a = jobgen.round_jobs(workload, 1, 0)
    b = jobgen.round_jobs(workload, 2, 0)
    assert [j["argv"] for j in a] != [j["argv"] for j in b]
    if workload == "lift_tower":
        pool = {outcheck.ring_text(outcheck.RingSpec(p**k, q, g))
                for slot in jobgen.LIFT_POOL for p, k, q, g in slot[0]}
        assert {tuple(j["input"]) for j in a} != {tuple(j["input"]) for j in b}
    else:
        pool = {ring for slot in jobgen.POOLS[workload] for ring in slot[1]}
    assert {j["ring"] for j in a} | {j["ring"] for j in b} <= pool
    assert len(a) == len(b)


def test_every_ring_meets_every_mode_equally_whatever_the_seed():
    rings, modes = ("a", "b", "c", "d"), ("text", "json")
    for seed in range(5):
        picks = jobgen._pairs(random.Random(seed), rings, modes, 16)
        assert Counter(picks) == {(r, m): 2 for r in rings for m in modes}


def test_lift_inputs_reduce_to_base_idempotents():
    for job in jobgen.round_jobs("lift_tower", 3, 0):
        spec = outcheck.parse_ring(job["ring"])
        p = job["prime"]
        base = tuple(c % p for c in job["input"])
        red = outcheck.RingSpec(p, None if spec.q is None else tuple(c % p for c in spec.q), spec.group)
        assert outcheck.mul(red, base, base) == base


@pytest.mark.parametrize(
    "ring, components",
    [("Z(200){C3}", 4), ("Z(936){C5xC5}", 21), ("Z(6561){C64}", 11), ("Z(25)[i]", 2)],
)
def test_closed_form_counts_match_readme(ring, components):
    assert outcheck.component_count(outcheck.parse_ring(ring)) == components


def test_count_check_accepts_readme_output():
    job = {"kind": "count", "ring": "Z(936){C5xC5}", "json": False}
    out = "|E(Z(936){C5xC5})| = 2097152 = 2^21\nprimitive count: 21\n"
    assert outcheck.check_job(job, 0, out) is None


def _readme_lift():
    job = {"kind": "lift", "ring": "Z(25)[i]", "json": False, "prime": 5, "exponent": 2,
           "input": [3, 1], "argv": ["lift", "Z(25)[i]", "3 + i"]}
    return job, *_cli(job["argv"])


def test_lift_check_reproduces_readme_example():
    spec = outcheck.parse_ring("Z(25)[i]")
    assert outcheck.parse_element(spec, "13 + 16*i") == (13, 16)
    job, code, out = _readme_lift()
    assert "lifted:   13 + 16*i" in out
    facts = {}
    assert outcheck.check_job(job, code, out, facts) is None
    assert facts["mults"] == int(out.split("mults:")[1])


@pytest.mark.xfail(strict=True, reason=(
    "the project README shows 'mults: 6' for this lift, but the CLI prints 5 "
    "(one idempotency check, three products for the fifth power, one final check)"
))
def test_readme_lift_multiplication_count():
    _, _, out = _readme_lift()
    assert "mults:    6" in out


def test_list_check_accepts_golden_listing():
    job = {"kind": "list", "ring": "Z(200){C3}", "json": False,
           "golden": jobgen.GOLDEN, "argv": ["list", "Z(200){C3}", "--golden", jobgen.GOLDEN]}
    code, out = _cli(job["argv"])
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        assert outcheck.check_job(job, code, out) is None
    finally:
        os.chdir(cwd)


def _corrupt_digit(text: str, after: str = "") -> str:
    """Lower one nonzero digit: the first after ``after``, else the last."""
    if after:
        start = text.index(after)
        k = min(i for i, ch in enumerate(text) if i > start and ch.isdigit() and ch != "0")
    else:
        k = max(i for i, ch in enumerate(text) if ch.isdigit() and ch != "0")
    return text[:k] + str(int(text[k]) - 1) + text[k + 1:]


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    jobs = jobgen.round_jobs(workload, 5, 0)
    job = min(jobs, key=lambda j: (j.get("golden") is not None, len(j["ring"])))
    code, out = _cli(job["argv"])
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        assert outcheck.check_job(job, code, out) is None
        wrong = _corrupt_digit(out, "lifted" if job["kind"] == "lift" else "")
        assert outcheck.check_job(job, code, wrong) is not None
        assert outcheck.check_job(job, 1, out) is not None
    finally:
        os.chdir(cwd)


def test_corrupted_primitive_family_counts_as_failed():
    job = {"kind": "primitive", "ring": "Z(200){C3}", "json": True,
           "argv": ["primitive", "Z(200){C3}", "--json"]}
    code, out = _cli(job["argv"])
    assert outcheck.check_job(job, code, out) is None
    doc = json.loads(out)
    doc["primitive"][0] = doc["primitive"][1]
    assert outcheck.check_job(job, code, json.dumps(doc)) is not None


def test_span_recorder_self_time_and_restore(tmp_path):
    import spans
    from idemlift import cli, group_rings, lifting, catalog

    originals = (cli.main, group_rings.GroupRingElement.__mul__, catalog.verify_idempotent)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert catalog.verify_idempotent is lifting.verify_idempotent
        assert catalog.verify_idempotent is not originals[2]
        rec.job_id = 0
        with redirect_stdout(io.StringIO()):
            assert cli.main(["count", "Z(20){C3}"]) == 0
    finally:
        rec.restore()
    assert (cli.main, group_rings.GroupRingElement.__mul__, catalog.verify_idempotent) == originals
    path = str(tmp_path / "spans.npz")
    rec.save(path)
    wall = rec.end[0] - rec.start[0]
    analysis = spans.analyze(path, wall)
    assert analysis["coverage"] == pytest.approx(1.0)
    assert analysis["spans"]["cli.main"]["calls"] == 1
    assert analysis["spans"]["group_rings.mul"]["calls"] > 0
    assert analysis["total_self_s"] == pytest.approx(analysis["top_level_s"])
    assert set(rec.job) == {0}


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    job = {"kind": "count", "ring": "Z(6)", "json": False, "argv": ["count", "Z(6)"]}
    results = {i: {"code": 0, "out": "", "lat": 0.01 * (i + 1), "ref": 0.002} for i in range(4)}
    rounds = [{"jobs": [job] * 4, "results": results, "wall": 1.0, "ref0": 0.002, "complete": True}]
    e2e, _ = run.end_to_end(rounds, [(0.2, run.REFERENCE_PROBE_S), (0.3, run.REFERENCE_PROBE_S)], 60000)
    assert [(k, v["unit"]) for k, v in e2e.items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]]
    analysis = {"spans": {}, "span_count": 0, "top_level_s": 0.0, "total_self_s": 0.0, "coverage": 0.0}
    layers = run.per_layer(analysis, rounds[0], 1.0, 1.1)
    assert [(k, v["unit"]) for k, v in layers.items()] == [
        (m["name"], m["unit"]) for m in bench["per_layer"]]


def test_rescale_round_follows_probe_speed():
    import run

    job = {"kind": "count", "ring": "Z(6)", "json": False, "argv": ["count", "Z(6)"]}

    def rnd(ref):
        results = {i: {"code": 0, "out": "", "lat": 0.1, "ref": ref} for i in range(20)}
        return {"jobs": [job] * 20, "results": results, "wall": 2.5, "ref0": ref, "complete": True}

    fast_wall, fast_lat = run.rescale_round(rnd(run.REFERENCE_PROBE_S))
    slow_wall, slow_lat = run.rescale_round(rnd(2 * run.REFERENCE_PROBE_S))
    assert fast_wall == pytest.approx(2.5) and fast_lat == pytest.approx([0.1] * 20)
    assert slow_wall == pytest.approx(1.25) and slow_lat == pytest.approx([0.05] * 20)


def test_hung_job_times_out_and_the_round_goes_on(monkeypatch):
    import run

    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 1.0)
    jobs = [{"argv": ["count", "Z(1000000007){C7}"]}, {"argv": ["count", "Z(6)"]}]
    cwd = os.getcwd()
    os.chdir(ROOT)
    slot = run.WorkerSlot(run.perf_counter() + 60)
    try:
        rnd = slot.run_round(jobs)
    finally:
        slot.close()
        os.chdir(cwd)
    assert rnd["results"][0]["failure"] == "timeout"
    assert rnd["results"][1]["code"] == 0 and "2^2" in rnd["results"][1]["out"]
    assert slot.restarts == 1 and rnd["complete"]
