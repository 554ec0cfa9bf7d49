"""Output pins: `verify` and `report` must not drift.

Each digest is the SHA-256 of the canonical JSON (sorted keys, no
`elapsed_ms`) of `verify` and then `report`, for n = 1..4 in turn, on one
preset kind or on the fixed custom specs below.  The digests were computed
before the shared product memo and the cached standard torus went in, so a
change that is meant to keep every output byte-identical must keep them.
A deliberate change of output must recompute them and say so.
"""

import hashlib
import json

import pytest

from qweyl import cli

PINS = {
    "generic": "7d665bc95bb4765b5b4455159dccbb35426e94a9f1940b4b2994695053df0319",
    "generic-p1": "4c689433903d3351a137ce32b5d77097f70b505ffcb189a8baed48d75a698b12",
    "generic-q1": "89905e466395c38affc6d3e0d65e569e12893296230a8d90f098b329fc1dc0ee",
    "symplectic": "b231ee7561ba80acdfed37dd3cf6bdd83c52f338fbbfe8af7c3f5f909aa376bd",
    "euclidean": "d08577d78c276c585736dbffc2896fb3570e80f91d0ea2a38fadd5b9e2b8a670",
    "heisenberg": "2de4c4441975c15f37cbf300fcc0b4ce4b26b7f9aaa8ed957ed151b1672d758b",
    "graded-weyl": "260b2756eed5f290c240c61d88c71ea063a23be3e6e5a18cdcd1004ea67c1395",
    "custom": "bbb07077a38eac1c7e4f99f992ebea7c6eef9f582bf3aa9b9541fe998eb4c59a",
}

# Drawn by perfbench.jobs.custom_config(random.Random(6), n, k) for n = 1..4
# and k = 2, 3, and written out so that the pin does not follow changes to
# the benchmark.
CUSTOM = [
    {"symbols": ["a", "b"], "q": ["a^2*b^-2"], "p": ["a^3*b^-2"], "gamma": [["1"]]},
    {"symbols": ["a", "b", "c"], "q": ["a^-2*b^-2*c^-1"], "p": ["b^-1*c^-1"],
     "gamma": [["1"]]},
    {"symbols": ["a", "b"], "q": ["b^-2", "a^-1*b"], "p": ["b^-1", "a*b^3"],
     "gamma": [["1", "a*b^-1"], ["a^-1*b", "1"]]},
    {"symbols": ["a", "b", "c"], "q": ["a^-1*b^2*c^2", "a*c^-2"],
     "p": ["a^-1*b^4", "a*b*c^-2"],
     "gamma": [["1", "b*c^-1"], ["b^-1*c", "1"]]},
    {"symbols": ["a", "b"], "q": ["a^-1", "a^2*b^-1", "a^-1*b^2"],
     "p": ["a^-3*b^-2", "a^2", "a*b^4"],
     "gamma": [["1", "a^-1*b", "b^-1"], ["a*b^-1", "1", "a"], ["b", "a^-1", "1"]]},
    {"symbols": ["a", "b", "c"], "q": ["c^2", "a^2*b^-1*c^-2", "a^-1*b*c"],
     "p": ["a^-2*b^-2*c^4", "a^4*b^-1*c^-2", "a^-2*c^3"],
     "gamma": [["1", "a^-1*b*c", "a^-1*b^-1*c^-1"], ["a*b^-1*c^-1", "1", "a^-1*b"],
               ["a*b*c", "a*b^-1", "1"]]},
    {"symbols": ["a", "b"], "q": ["a^2*b^2", "b", "b^-1", "a^-1*b"],
     "p": ["a^4*b^2", "a^2*b^2", "a*b^-3", "a*b^2"],
     "gamma": [["1", "a^-1", "a^-1*b^-1", "a*b"], ["a", "1", "1", "b^-1"],
               ["a*b", "1", "1", "a"], ["a^-1*b^-1", "b", "a^-1", "1"]]},
    {"symbols": ["a", "b", "c"], "q": ["a*c", "a*b*c^-1", "a^-2*c^2", "a^2*b"],
     "p": ["a^-1*b^-1*c", "a^-1*b^-1*c", "a^-2*b^-1*c^2", "a^4*b*c"],
     "gamma": [["1", "b", "b", "a"], ["b^-1", "1", "a^-1*b", "c"],
               ["b^-1", "a*b^-1", "1", "1"], ["a^-1", "c^-1", "1", "1"]]},
]


def _configs(name):
    if name == "custom":
        return [{"n": len(c["q"]), "kind": "custom", "custom": c} for c in CUSTOM]
    return [{"n": n, "kind": name} for n in (1, 2, 3, 4)]


def _digest(configs):
    h = hashlib.sha256()
    for cfg in configs:
        for command in ("verify", "report"):
            rep = cli.run(cfg, command).to_json()
            rep.pop("elapsed_ms")
            h.update(json.dumps(rep, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_verify_and_report_outputs_are_pinned(name):
    assert _digest(_configs(name)) == PINS[name]
