"""One benchmark session: a fresh process that runs a workload's job list once.

    PYTHONPATH=src python3 perfbench/session.py WORKLOAD SEED [--trace] [--oracles]
    PYTHONPATH=src python3 perfbench/session.py WORKLOAD SEED --setup-only

Setup imports qweyl, regenerates the seeded job list and, for `words`,
builds the library-session specs.  The process then notes the time it was
ready, runs every job in a closed loop (one caller, the next job starts
when the previous one returns), and prints one JSON line: per-job wall
times, the same rescaled to nominal host speed (hostspeed.py; the probes'
own time is taken out of both), peak RSS, a digest of every output and
the failed jobs.  With --oracles every output is judged
by an independent check after the loop, outside every timed region, so the
checks cannot warm caches for later jobs.  With --trace the per-layer spans
of tracer.py are installed during setup and their totals are added to the
result.  With --setup-only the process sets up, prints its ready time and
exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import time
from fractions import Fraction

from qweyl import cli, pbw
from qweyl.dimension import pairing_from_matrix
from qweyl.presentation import spec_from_config
from qweyl.torus import standard_torus

import hostspeed
from jobs import SESSION_SPECS, Job, make_jobs



def setup(workload: str, seed: int):
    jobs = make_jobs(workload, seed)
    specs = {}
    if workload == "words":
        specs = {name: spec_from_config(cfg) for name, cfg in SESSION_SPECS.items()}
    return jobs, specs


def execute(job: Job, specs: dict):
    """Run one job; module attributes are looked up per call so traced wrappers apply."""
    if job.spec is None:
        return cli.run(job.config, job.command, job.args)
    spec = specs[job.spec]
    if job.command == "nf":
        return pbw.normal_form(spec, job.args[0])
    if job.command == "mul":
        f = pbw.normal_form(spec, job.args[0])
        g = pbw.normal_form(spec, job.args[1])
        return pbw.multiply(spec, f, g)
    if job.command == "growth":
        return pbw.growth_count(spec, int(job.args[0]))
    raise ValueError(f"unknown library command {job.command!r}")


def render(job: Job, out, specs: dict) -> str:
    """Canonical text of an output, for the digest."""
    if job.command in ("nf", "mul"):
        return pbw.render_element(specs[job.spec], out)
    if job.command == "growth":
        return json.dumps([out.counts, out.exponent, list(out.window)])
    report = out.to_json()
    report.pop("elapsed_ms")
    return json.dumps(report, sort_keys=True)


# -- output oracles -------------------------------------------------------------

def verify_check_count(n: int) -> int:
    """Checks `verify` emits: relations, normality, extension steps, 2^n torus choices."""
    c = math.comb
    return 5 * c(n, 2) + n + n * (3 * n + 1) + 4 * (n - 1) + 2**n * c(2 * n, 2)


def check(job: Job, out, specs: dict) -> str | None:
    """None when the output is right, otherwise what is wrong with it."""
    if job.spec is not None:
        spec = specs[job.spec]
        if job.command == "nf":
            word = pbw.parse_word(spec, job.args[0])
            fold = pbw.generator(spec, word[0])
            for g in word[1:]:
                fold = pbw.multiply(spec, fold, pbw.generator(spec, g))
            return None if out == fold else "normal form differs from the multiply fold"
        if job.command == "mul":
            expect = pbw.normal_form(spec, f"{job.args[0]} {job.args[1]}")
            return None if out == expect else "product differs from the concatenated normal form"
        size = 2 * spec.n
        expect = [math.comb(m + size, size) for m in range(int(job.args[0]) + 1)]
        return None if out.counts == expect else f"growth counts {out.counts} != {expect}"

    failing = [c["name"] for c in out.checks if c["status"] == "fail"]
    if failing:
        return f"failing checks {failing[:3]}"
    n = job.n
    if job.command == "verify":
        expect = verify_check_count(n)
        return None if len(out.checks) == expect else f"{len(out.checks)} checks, expected {expect}"
    dim = out.values["dim"] if job.command == "bound" else out.values
    d = dim["d"]
    if not isinstance(d, int):
        return f"dimension not a point value: {d}"
    if job.command == "bound" and out.values["bound"] != 2 * n - d:
        return f"bound {out.values['bound']} != 2n - d = {2 * n - d}"
    witness = dim["witness"]
    if len(witness) != d:
        return f"witness has {len(witness)} vectors for d = {d}"
    return witness_problem(pairing_from_matrix(standard_torus(spec_from_config(job.config))),
                           witness)


def witness_problem(E, witness) -> str | None:
    """Re-verify a witness: pairwise zero pairing and full rank over Q."""
    m = E.m
    for a, u in enumerate(witness):
        for v in witness[a + 1:]:
            for c in range(E.k):
                if sum(u[i] * v[j] * E.entries[i][j][c] for i in range(m) for j in range(m)):
                    return "witness vectors do not commute"
    if _rank(witness) != len(witness):
        return "witness vectors are linearly dependent"
    return None


def _rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- the session ------------------------------------------------------------------

def run_session(workload: str, seed: int, trace: bool = False, oracles: bool = True,
                jobs=None) -> dict:
    """Set up, run the job list once, then digest and (with `oracles`) judge the outputs.

    Every output is hashed, so a session run without oracles is still checked
    against one that ran them.  `jobs` replaces the seeded list (the smoke
    test runs a few of its jobs).
    """
    job_list, specs = setup(workload, seed)
    if jobs is not None:
        job_list = jobs
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready_at = time.monotonic()

    outputs, spans = [], []
    clock = time.perf_counter
    with hostspeed.Sampler() as sampler:
        for job in job_list:
            start = clock()
            try:
                out = execute(job, specs)
            except Exception as exc:  # a job that raises is a failed job, not a crash
                out = exc
            spans.append((start, clock()))
            outputs.append(out)
    walls, times = sampler.rescale(spans)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"jobs": len(job_list), "times": times, "walls": walls, "ready_at": ready_at,
              "peak_rss_mib": peak_rss_mib}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        tracer.uninstall()

    digests, failures = [], []
    for idx, (job, out) in enumerate(zip(job_list, outputs)):
        problem = None
        if isinstance(out, Exception):
            text = problem = f"raised {type(out).__name__}: {out}"
        else:
            try:
                text = render(job, out, specs)
                if oracles:
                    problem = check(job, out, specs)
            except Exception as exc:  # a malformed output fails its job
                text = problem = f"oracle raised {type(exc).__name__}: {exc}"
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        if problem is not None:
            failures.append({"job": idx, "label": job.label(), "problem": problem})
    result["digests"] = digests
    result["failures"] = failures
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true", help="install the per-layer spans")
    parser.add_argument("--oracles", action="store_true", help="judge every output")
    parser.add_argument("--setup-only", action="store_true", help="set up, then exit")
    opts = parser.parse_args()
    if opts.setup_only:
        setup(opts.workload, opts.seed)
        print(json.dumps({"ready_at": time.monotonic()}), flush=True)
        return
    result = run_session(opts.workload, opts.seed, trace=opts.trace, oracles=opts.oracles)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
