"""End-to-end and per-layer benchmark of qweyl.

    python3 perfbench/run.py --workload words|checks|bounds|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qweyl is imported from ./src.

A run repeats one session (session.py: a fresh process that sets up and
runs the workload's seeded job list once), one process at a time, while
the next session fits in S seconds or fewer than MIN_SAMPLES job times are
in.  Each session is a fresh library session or CLI batch, so no cache
carries over between repeats.  The first session judges every output with
the oracles of session.py; every later session must reproduce its output
digests, job by job, and a job that does not counts as failed.  Job times
are rescaled to nominal host speed by the probe of hostspeed.py; raw wall
times are kept beside them.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 pairs every untraced session with a traced one
over the same jobs and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record (per-job
times, anchor jobs, input shares, digests, failures) is written to
perfbench/results/.  Without ./src/qweyl the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS, make_jobs, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "qweyl"
RESULTS = HERE / "results"

MIN_SAMPLES = 100  # ten job times beyond the 90th percentile
SETUP_RUNS = 15  # set-up-only sessions per run; setup_s is their median
STOP_STARTING_S = 120  # no new session after this
DEADLINE_S = 170  # a session still running this long after the run began is killed


class SessionError(RuntimeError):
    pass


def run_session(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    """One session process; setup_s runs from process start to its ready time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "session.py"), workload, str(seed), *flags]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SessionError(f"{workload} session killed after {timeout:.0f} s")
    if proc.returncode != 0:
        raise SessionError(f"{workload} session exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - start
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, jobs_per_session: int):
    """Set up SETUP_RUNS times, then repeat sessions while the next one fits.

    Returns the untraced sessions, the traced ones and the set-up-only ones.
    """
    plain, traced = [], []
    start = time.monotonic()

    def session(*flags):
        return run_session(workload, seed, DEADLINE_S - (time.monotonic() - start), *flags)

    setups = [session("--setup-only") for _ in range(SETUP_RUNS)]
    while True:
        began = time.monotonic()
        # Oracles judge the first session; later ones must reproduce its digests.
        plain.append(session(*(() if plain else ("--oracles",))))
        if trace:
            traced.append(session("--trace"))
        now = time.monotonic()
        enough = len(plain) * jobs_per_session >= MIN_SAMPLES
        if (enough and now + (now - began) - start > seconds) or now - start >= STOP_STARTING_S:
            return plain, traced, setups


def end_to_end(plain: list[dict], setups: list[dict], raw: bool = False) -> dict:
    """The metrics of BENCHMARK.json; with `raw`, job times are not rescaled."""
    times = [t for s in plain for t in s["walls" if raw else "times"]]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mib"] for s in plain), "MiB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    from tracer import layer_metrics

    totals: dict[str, list] = {}
    for s in traced:
        for prefix, values in s["trace"].items():
            acc = totals.setdefault(prefix, [0] * len(values))
            totals[prefix] = [a + v for a, v in zip(acc, values)]
    out = layer_metrics(totals, sum(s["jobs"] for s in traced))
    overhead = sum(sum(s["times"]) for s in traced) / sum(sum(s["times"]) for s in plain)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def _revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = make_jobs(workload, seed)
    plain, traced, setups = measure(workload, seed, seconds, trace, len(jobs))
    sessions = plain + traced
    # A later session's job fails if it raised, if its output differs from
    # the first session's, or if the oracles failed that output there.
    reference = plain[0]["digests"]
    judged = {f["job"]: f["problem"] for f in plain[0]["failures"]}
    failures = list(plain[0]["failures"])
    for s in sessions[1:]:
        own = {f["job"]: f["problem"] for f in s["failures"]}
        for idx, (a, b) in enumerate(zip(reference, s["digests"])):
            problem = own.get(idx) or ("output differs from session 1" if a != b else None)
            problem = problem or judged.get(idx)
            if problem:
                failures.append({"job": idx, "label": jobs[idx].label(), "problem": problem})
    attempted = sum(s["jobs"] for s in sessions)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setups)
    walls = end_to_end(plain, setups, raw=True)

    per_job = []
    for idx, job in enumerate(jobs):
        per_job.append({
            "label": job.label(), "command": job.command, "n": job.n, "kind": job.kind,
            "length": job.length, "anchor": job.anchor, "power": job.power,
            "times": [s["times"][idx] for s in plain],
            "walls": [s["walls"][idx] for s in plain],
        })
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "revision": _revision(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": len(plain) * len(jobs), "sessions": len(plain), "traced_sessions": len(traced),
        "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "output_digest": hashlib.sha256("".join(reference).encode()).hexdigest(),
        "inputs": summarize(jobs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in walls.items()},
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mib": [s["peak_rss_mib"] for s in plain],
        "anchors": {j["label"]: statistics.median(j["times"]) for j in per_job if j["anchor"]},
        "failures": failures[:50], "jobs": per_job,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_record(record: dict) -> None:
    print(f"{record['workload']}: seed {record['seed']}, {record['sessions']} sessions, "
          f"{record['samples']} job samples, {record['attempted']} jobs attempted, "
          f"failed_ratio {record['failed_ratio']:.4g}, record {record['path']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, m in record["wall_metrics"].items():
        if name not in ("setup_s", "peak_rss_mb"):
            print(f"  raw wall {name:<39} {m['value']:>14.6g} {m['unit']}")
    for label, t in record["anchors"].items():
        print(f"  anchor {label:<41} {t:>14.6g} s")


def main() -> int:
    parser = argparse.ArgumentParser(description="qweyl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no qweyl sources under {SOURCE}; run from a source checkout",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if opts.workload == "all" else (opts.workload,)
    records = []
    try:
        for workload in workloads:
            records.append(run_workload(workload, opts.seed, opts.seconds, bool(opts.trace)))
            print_record(records[-1])
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}."
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
