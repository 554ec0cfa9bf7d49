"""Output pins: `verify` and `report` must not drift.

Each digest is the SHA-256 of the canonical JSON (sorted keys, no
`elapsed_ms`) of `verify` and then `report`, for n = 1..4 in turn, on one
preset kind or on the fixed custom specs below.  The digests were computed
before the shared product memo and the cached standard torus went in, so a
change that is meant to keep every output byte-identical must keep them.
A deliberate change of output must recompute them and say so: the
symplectic, euclidean and heisenberg digests were recomputed when the
single-parameter kinds moved to the closed form of the torus dimension,
which changed only the dimension witness of their `report`.

VERIFY_PINS hold the same digest of `verify` alone at n = 5 and 6, where
the 2^n torus-isomorphism choices make up most of the checks.  They were
computed before the locality sweep of the theta checks and the shared
Casimir products went in.
"""

import hashlib
import json

import pytest

from qweyl import cli

PINS = {
    "generic": "7d665bc95bb4765b5b4455159dccbb35426e94a9f1940b4b2994695053df0319",
    "generic-p1": "4c689433903d3351a137ce32b5d77097f70b505ffcb189a8baed48d75a698b12",
    "generic-q1": "89905e466395c38affc6d3e0d65e569e12893296230a8d90f098b329fc1dc0ee",
    "symplectic": "bdf8dd53ddf0b22c6c492ad6049a1377a773895da9d64eb6b3527986ddc9eda3",
    "euclidean": "cec1c033a9f4709688b46aa1df831840f3587af3f4b8d5d455bdc7d7d9661d79",
    "heisenberg": "0c9385775beccaab5a5c57a7a587a28b61d4ed73712bac69e2593561615a7487",
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


VERIFY_PINS = {
    ("generic", 5): "95803c935e2c9e016b771fd499f0eee719762fc9adfde2ba27e80ae6881e854b",
    ("generic", 6): "efaa3a94628d03caabfcea45d732d1de9a5af7f832156e28e0c28556671e4ff1",
    ("euclidean", 5): "053546ffb96d3bfe5f1c7d802ef7ec8d3346993db392d5a6f67949fe650f0e76",
    ("euclidean", 6): "6db44fe8215bc4b2b4c375cf22a09540e6e8877bca69e435c4a49317dcdf8da3",
}


@pytest.mark.parametrize("kind, n", sorted(VERIFY_PINS))
def test_verify_output_is_pinned_at_larger_n(kind, n):
    rep = cli.run({"n": n, "kind": kind}, "verify").to_json()
    rep.pop("elapsed_ms")
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_PINS[(kind, n)]

