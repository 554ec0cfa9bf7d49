"""Seeded job lists of the three benchmark workloads.

This module is pure data: it builds spec configs and words from the seed
and never imports qweyl, so that run.py can summarise the inputs and every
session process can regenerate the identical list.

Within one list no (spec, command, args) triple repeats.  The expensive
parts of each list (power words, preset specs) are enumerated, not sampled,
so that the seed changes the cheap random jobs and the order but not the
bulk of the work; this keeps the end-to-end figures steady across seeds.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("words", "checks", "bounds")

PRESET_KINDS = (
    "generic",
    "generic-p1",
    "generic-q1",
    "symplectic",
    "euclidean",
    "heisenberg",
    "graded-weyl",
)

# The library-session specs of `words`, built once per session.
SESSION_SPECS = {
    "g3": {"n": 3, "kind": "generic"},
    "s3": {"n": 3, "kind": "symplectic"},
    "h3": {"n": 3, "kind": "heisenberg"},
    "g2": {"n": 2, "kind": "generic"},
}

@dataclass
class Job:
    """One call into qweyl: a library call on a session spec, or a cli.run."""

    command: str
    args: tuple[str, ...]
    config: dict
    spec: str | None = None  # session spec name (library jobs only)
    anchor: bool = False
    power: bool = False

    @property
    def n(self) -> int:
        return self.config["n"]

    @property
    def kind(self) -> str:
        return self.config["kind"]

    @property
    def length(self) -> int | None:
        """Word length of nf jobs, summed over both factors for mul jobs."""
        if self.command in ("nf", "mul"):
            return sum(len(a.split()) for a in self.args)
        return None

    def key(self) -> str:
        return json.dumps([self.spec or self.config, self.command, self.args], sort_keys=True)

    def label(self) -> str:
        where = self.spec or json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return f"{self.command} {where} {' | '.join(self.args)}".rstrip()


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one session; the same (workload, seed) gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    build = {"words": _words, "checks": _checks, "bounds": _bounds}[workload]
    jobs = _JobSet(rng)
    build(jobs)
    rng.shuffle(jobs.jobs)
    return jobs.jobs


class _JobSet:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.jobs: list[Job] = []
        self.seen: set[str] = set()

    def add(self, job: Job) -> None:
        key = job.key()
        if key in self.seen:
            raise ValueError(f"duplicate job {job.label()}")
        self.seen.add(key)
        self.jobs.append(job)

    def add_random(self, make) -> None:
        """Add make(rng), redrawing until the job is new to this list."""
        while True:
            job = make(self.rng)
            if job.key() not in self.seen:
                self.add(job)
                return


# -- words: a library session on four specs ------------------------------------

def _word(gens) -> str:
    return " ".join(gens)


# Each x_i standing left of a y_i is one application of the inhomogeneous rule
# x_i y_i = q_i y_i x_i + z_{i-1}, and the rewrite cost grows exponentially in
# their number.  Random words keep at most as many as x_i^2 y_i^2 has, so the
# exponential tail stays with the enumerated power words, whose cost does not
# depend on the seed.  The pair count, which sets most of a random word's
# cost, is enumerated (0 to MAX_RANDOM_PAIRS equally often, fewer for the
# shortest words) and the seed picks words that have it, so the spread of
# costs is much the same for every seed.
MAX_RANDOM_PAIRS = 4


def _draw(rng: random.Random, n: int, length: int) -> list[int]:
    """Random letters: 0..n-1 stand for x_1..x_n and n..2n-1 for y_1..y_n."""
    return rng.choices(range(2 * n), k=length)


def _xy_pairs(letters: list[int], n: int) -> int:
    pairs, xs = 0, [0] * n
    for a in letters:
        if a < n:
            xs[a] += 1
        else:
            pairs += xs[a - n]
    return pairs


def _spell(letters: list[int], n: int) -> str:
    return _word(f"x{a + 1}" if a < n else f"y{a - n + 1}" for a in letters)


def _random_word(rng: random.Random, n: int, length: int, pairs: int) -> str:
    """A random word of this length with exactly `pairs` x_i..y_i pairs."""
    while True:
        letters = _draw(rng, n, length)
        if _xy_pairs(letters, n) == pairs:
            return _spell(letters, n)


def _random_factors(rng: random.Random, n: int, pairs: int) -> tuple[str, str]:
    """Two random words of length 2-5 whose product has exactly `pairs` pairs."""
    while True:
        f = _draw(rng, n, rng.randint(2, 5))
        g = _draw(rng, n, rng.randint(2, 5))
        if _xy_pairs(f + g, n) == pairs:
            return _spell(f, n), _spell(g, n)


def _library(command: str, spec: str, *args: str, **flags) -> Job:
    return Job(command, tuple(args), SESSION_SPECS[spec], spec=spec, **flags)


def _words(jobs: _JobSet) -> None:
    jobs.add(_library("nf", "g3", _word(["x3"] * 4 + ["y3"] * 4), anchor=True, power=True))
    jobs.add(_library("growth", "g2", "5", anchor=True))
    for N in ("3", "4"):
        jobs.add(_library("growth", "g2", N))
    for spec, cfg in SESSION_SPECS.items():
        n = cfg["n"]
        # Power words x_i^a y_i^b carry the exponential rewrite tail.  Cost
        # caps: (4, 4) is left to the g3 anchor (it takes over a second on
        # s3 and h3), and only a*b <= 6 is wrapped as x_j ... y_j.
        for i in range(2, n + 1):
            for a in range(1, 5):
                for b in range(1, 5):
                    core = [f"x{i}"] * a + [f"y{i}"] * b
                    if (a, b) != (4, 4):
                        jobs.add(_library("nf", spec, _word(core), power=True))
                    if a * b <= 6:
                        for j in range(1, i):
                            wrapped = [f"x{j}"] + core + [f"y{j}"]
                            jobs.add(_library("nf", spec, _word(wrapped), power=True))
        for length in range(4, 11):
            # Few short words have many pairs (at length 4 the only ones
            # with four are x_i^2 y_i^2, mostly power words already), so
            # drawing them would slow the set-up.
            most = min(MAX_RANDOM_PAIRS, length - 2)
            for i in range(10):
                pairs = i % (most + 1)
                jobs.add_random(lambda r: _library("nf", spec, _random_word(r, n, length, pairs)))
        for i in range(30):
            pairs = i % (MAX_RANDOM_PAIRS + 1)
            jobs.add_random(lambda r: _library("mul", spec, *_random_factors(r, n, pairs)))


# -- checks and bounds: one cli.run per job, fresh spec each time --------------

def _monomial(symbols, exps) -> str:
    parts = [s if e == 1 else f"{s}^{e}" for s, e in zip(symbols, exps) if e]
    return "*".join(parts) or "1"


def custom_config(rng: random.Random, n: int, k: int) -> dict:
    """A random `custom` spec on k symbols that passes validation by construction.

    p_i is q_i times a nonzero monomial, so p_i / q_i is never torsion, and
    gamma is filled from its upper triangle with inverses below.
    """
    symbols = ["a", "b", "c", "d"][:k]

    def exps(lo, hi):
        return [rng.randint(lo, hi) for _ in symbols]

    q, p = [], []
    for _ in range(n):
        qe = exps(-2, 2)
        delta = exps(-2, 2)
        while not any(delta):
            delta = exps(-2, 2)
        q.append(_monomial(symbols, qe))
        p.append(_monomial(symbols, [a + b for a, b in zip(qe, delta)]))
    gamma = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = exps(-1, 1)
            gamma[i][j] = _monomial(symbols, g)
            gamma[j][i] = _monomial(symbols, [-e for e in g])
    return {"n": n, "kind": "custom",
            "custom": {"symbols": symbols, "q": q, "p": p, "gamma": gamma}}


def _cli(command: str, config: dict, **flags) -> Job:
    return Job(command, (), config, **flags)


def _checks(jobs: _JobSet) -> None:
    # Every preset at n = 3, 4 and 5 and 19 seeded custom specs.  Sorted by
    # cost (set by n; the kind and the custom parameters move it much less)
    # the list is 10 jobs at n = 3, 22 at n = 4 and 8 at n = 5, so the
    # median falls midway through the n = 4 jobs and the 90th percentile
    # among the n = 5 presets, away from the steps between one n and the next.
    for n in (3, 4, 5):
        for kind in PRESET_KINDS:
            anchor = n == 5 and kind == "generic"
            jobs.add(_cli("verify", {"n": n, "kind": kind}, anchor=anchor))
    for n, count in ((3, 3), (4, 15), (5, 1)):
        for _ in range(count):
            jobs.add_random(lambda r: _cli("verify", custom_config(r, n, r.randint(2, 3))))


def _bounds(jobs: _JobSet) -> None:
    # Presets alternate bound (even n) and dim (odd n) so that the cost of
    # the preset half does not depend on the seed.
    for n in range(4, 10):
        command = "bound" if n % 2 == 0 else "dim"
        for kind in PRESET_KINDS:
            anchor = command == "bound" and n == 8 and kind in ("generic", "euclidean")
            jobs.add(_cli(command, {"n": n, "kind": kind}, anchor=anchor))
    # Custom jobs are 40% of the list, not half: the median then falls on the
    # cheap preset jobs, the same for every seed, and not on the step from
    # the custom jobs (10 ms at n = 4) up to the presets (15 ms and more).
    for n, count in ((2, 9), (3, 10), (4, 9)):
        for _ in range(count):
            jobs.add_random(
                lambda r: _cli(r.choice(("bound", "dim")), custom_config(r, n, r.randint(2, 3)))
            )


# -- input summary ---------------------------------------------------------------

def summarize(jobs: list[Job]) -> dict:
    """Share of jobs by command, n, kind and word length, and of power/custom jobs."""
    total = len(jobs)

    def shares(values) -> dict:
        counts = Counter(values)
        return {str(k): round(v / total, 4) for k, v in sorted(counts.items(), key=str)}

    return {
        "jobs": total,
        "command": shares(j.command for j in jobs),
        "n": shares(j.n for j in jobs),
        "kind": shares(j.kind for j in jobs),
        "word_length": shares(j.length for j in jobs if j.length is not None),
        "power_words": round(sum(j.power for j in jobs) / total, 4),
        "custom_specs": round(sum(j.kind == "custom" for j in jobs) / total, 4),
        "anchors": [j.label() for j in jobs if j.anchor],
    }
