"""Byte-identity of solver and CLI outputs against recorded SHA-256 digests.

Refactors that must not change behaviour are checked here: every case below
hashes the exact output text of a corpus of solves or CLI runs, and the
recorded digests in golden_digests.json were produced by the code before the
refactor. The corpus reaches every driver frame kind (base, the three flagged
base fallbacks, top_up and recurse).

To record the digests of a checkout, run from its root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from besforge import (
    DriverParams,
    TripartiteLinearSystem,
    find_be_s_configuration,
    group_system,
    random_linear,
)
from besforge import io as textio
from besforge.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

HOSTS = {
    **{f"group{m}": (group_system, (m,)) for m in range(2, 11)},
    "random12s0": (random_linear, (12, 12, 12, 90, 0)),
    "random12s1": (random_linear, (12, 12, 12, 90, 1)),
    # no two edges share a vertex, so the pair graph has no edges at all
    "apex_disjoint12": (TripartiteLinearSystem, ((12, 12, 12), tuple((i, i, i) for i in range(12)))),
}

PARAMS = {
    "default": DriverParams(),
    "tau8": DriverParams(tau_max=8, seed=4),
    "greedy": DriverParams(k0=3, tau_max=2, strategy="greedy"),
    "paper": DriverParams(paper_mode=True),
}

STRATEGIES = ("peel", "greedy", "exhaustive")


def _solve_corpus(host_name, params_name):
    make, args = HOSTS[host_name]
    lts = make(*args)
    lines = []
    for e in range(1, min(lts.m, 40) + 1):
        report = find_be_s_configuration(lts, e, PARAMS[params_name])
        lines.append(json.dumps(report.to_json_dict()))
    return "\n".join(lines)


def _cli_output(argv_of):
    """Run the CLI on a group host written to a scratch dir; return the output file."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        code = main(argv_of(tmp, out))
        return f"exit {code}\n" + out.read_text()


def _sweep_csv():
    def argv(tmp, out):
        (tmp / "g6.tls").write_text(textio.dumps_system(group_system(6)))
        return ["sweep", "--input", str(tmp / "g6.tls"), "--e-min", "1",
                "--e-max", "36", "--csv", str(out)]
    return _cli_output(argv)


def _unpack_trace(strategy):
    def argv(tmp, out):
        (tmp / "g5.tls").write_text(textio.dumps_system(group_system(5)))
        return ["unpack", "--input", str(tmp / "g5.tls"), "--k", "6", "--t", "4",
                "--strategy", strategy, "--trace", str(out)]
    return _cli_output(argv)


CASES = {
    **{f"solve/{h}/{p}": (_solve_corpus, (h, p)) for h in HOSTS for p in PARAMS},
    "sweep/group6": (_sweep_csv, ()),
    **{f"unpack/group5/{s}": (_unpack_trace, (s,)) for s in STRATEGIES},
}


def digest(case):
    fn, args = CASES[case]
    return hashlib.sha256(fn(*args).encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_recorded_cases_match_corpus(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, recorded):
    assert digest(case) == recorded[case]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({case: digest(case) for case in sorted(CASES)}, indent=1) + "\n")
