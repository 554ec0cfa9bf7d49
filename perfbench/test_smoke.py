"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, in process, and shows that the
correctness gate is not vacuous: a deliberately corrupted engine output
must be counted as a failed job.  Not part of the tier-1 suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import qweyl  # noqa: E402
from qweyl import cli, dimension, pbw, presentation, torus  # noqa: E402

import hostspeed  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402


def tiny_jobs(workload: str, per_command: int = 2) -> list:
    """The first few small jobs (n <= 3, words of length <= 6) of each command."""
    picked, count = [], Counter()
    for job in jobs.make_jobs(workload, 0):
        if job.n <= 3 and (job.length or 0) <= 6 and count[job.command] < per_command:
            picked.append(job)
            count[job.command] += 1
    return picked


def test_job_lists_are_seeded_and_distinct():
    for workload in jobs.WORKLOADS:
        first = [j.key() for j in jobs.make_jobs(workload, 7)]
        assert first == [j.key() for j in jobs.make_jobs(workload, 7)]
        assert first != [j.key() for j in jobs.make_jobs(workload, 8)]
        assert len(set(first)) == len(first)
        assert any(j.anchor for j in jobs.make_jobs(workload, 7))


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_session_passes(workload, traced):
    small = tiny_jobs(workload)
    result = session.run_session(workload, 0, trace=traced, jobs=small)
    assert result["failures"] == []
    assert result["jobs"] == len(small) == len(result["times"]) == len(result["walls"])
    assert all(t > 0 for t in result["times"])
    if traced:
        layers = tracer.layer_metrics(result["trace"], result["jobs"])
        busy = {"words": "pbw.self_s", "checks": "torus.self_s", "bounds": "dimension.self_s"}
        assert layers[busy[workload]][0] > 0
        assert not hasattr(pbw.normal_form, "__wrapped__")  # uninstalled


def _corrupt_multiply(monkeypatch):
    original = pbw.multiply
    monkeypatch.setattr(
        pbw, "multiply", lambda spec, f, g: original(spec, f, g).scale(spec.lattice.rational(2))
    )


def _corrupt_torus_checks(monkeypatch):
    original = torus.check_torus_isomorphism
    monkeypatch.setattr(torus, "check_torus_isomorphism", lambda spec, ch: original(spec, ch)[:-1])


def _corrupt_dimension(monkeypatch):
    original = dimension.torus_dimension

    def wrong(spec, height=3):
        rep = original(spec, height=height)
        return dataclasses.replace(rep, lo=rep.lo + 1, hi=rep.hi + 1)

    monkeypatch.setattr(dimension, "torus_dimension", wrong)


@pytest.mark.parametrize(
    "workload, corrupt, commands",
    [
        ("words", _corrupt_multiply, ("nf", "mul")),
        ("checks", _corrupt_torus_checks, ("verify",)),
        ("bounds", _corrupt_dimension, ("bound", "dim")),
    ],
)
def test_corrupted_output_counts_as_failure(monkeypatch, workload, corrupt, commands):
    small = tiny_jobs(workload)
    corrupt(monkeypatch)
    result = session.run_session(workload, 0, jobs=small)
    failed = {small[f["job"]].command for f in result["failures"]}
    assert failed == set(commands)
    assert len(result["failures"]) == sum(j.command in commands for j in small)


def test_tracer_wraps_every_binding_and_skips_missing(monkeypatch):
    monkeypatch.delattr(torus, "torus_mul")
    t = tracer.Tracer()
    t.install()
    try:
        assert torus.rule_table is presentation.rule_table
        assert hasattr(presentation.rule_table, "__wrapped__")
        assert hasattr(cli.spec_from_config, "__wrapped__")
        assert hasattr(qweyl.normal_form, "__wrapped__")
        cli.run({"n": 2, "kind": "generic"}, "bound")
    finally:
        t.uninstall()
    assert not hasattr(cli.spec_from_config, "__wrapped__")
    totals = t.snapshot()
    assert totals["torus.torus_mul"][0] == 0
    assert totals["cli.run"][0] == 1
    assert totals["dimension.torus_dimension"][0] == 2


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    traced = list(tracer.layer_metrics({}, 1)) + ["trace.overhead_ratio"]
    assert traced == tracer.metric_names()
    fake = {"times": [0.1, 0.2, 0.3], "walls": [0.2, 0.3, 0.4], "setup_s": 0.1,
            "jobs": 3, "peak_rss_mib": 20.0}
    reported = run.end_to_end([fake], [fake])
    assert [m["name"] for m in spec["end_to_end"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]][1] for m in spec["end_to_end"])


def test_host_speed_rescales_by_the_probes_in_or_around_a_job():
    with hostspeed.Sampler() as sampler:
        pass
    assert len(sampler.samples) == 2
    p = hostspeed.NOMINAL_PROBE_S
    sampler.samples = [(0.0, p), (1.0, 1.0 + 3 * p), (2.0, 2.0 + 2 * p)]
    walls, times = sampler.rescale([(0.5, 0.75), (0.9, 1.9)])
    assert walls == pytest.approx([0.25, 1.0 - 3 * p])
    # The first job lies between the probes at 0 and 1, the second holds one.
    assert times == pytest.approx([0.25 / 2, (1.0 - 3 * p) / 3])


def test_a_session_past_its_deadline_is_killed():
    with pytest.raises(run.SessionError, match="killed"):
        run.run_session("checks", 1, 0.5)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
