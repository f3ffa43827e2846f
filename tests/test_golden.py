"""Golden artifacts: pinned sha256 digests of two small runs and of the
five `verify` suites' `--out` reports.

The digests cover every byte of `checkpoints/` and `datasets/`, so they
pin the whole random-stream contract: sampling substreams, vote tie-breaks
(the tabular run has 5 tied votes of 150, the softmax run 2 of 50),
reward weights and both update backends. `metrics.csv` and `summary.json`
pin the evaluation: the maj@1/maj@k votes, mean entropies, realized
objectives and the best round. A change that moves any of them must say
so and re-record the digests below. The verify reports (seed 0) pin each
suite's instances and their detail, byte for byte; two more reports (150
instances, seed 1000) cross the blocks of 64 instances that the closedform
and gradients suites run at a time.
"""

import hashlib
from pathlib import Path

import pytest

from voteloop.cli import main

RUNS = {
    "tabular-shifted": [
        "--transform", "baseline_shifted", "--beta", "0.5",
        "--corpus-surface-forms", "3", "--corpus-n-train", "40", "--corpus-n-test", "10",
        "--rounds", "3", "--patience", "3", "--seed", "5", "--corpus-seed", "5",
    ],
    "softmax": [
        "--backend", "softmax", "--corpus-n-train", "20", "--corpus-n-test", "5",
        "--rounds", "2", "--seed", "2", "--corpus-seed", "2",
    ],
}

GOLDEN = {
    "tabular-shifted": {
        "checkpoints": "c248a63c208da73de6048998b4f1689e0fc1e2038dad74e9769a77b0047e2072",
        "datasets": "bb41c5eb7e81d8633fc35a13bc8eef12455788abb126a81283f311b854142423",
        "metrics.csv": "4d8ba2618ae585ac98f9bdca719d622b02049b542267b68d832fe18df0e1cb52",
        "summary.json": "fb710e9af7ef9d9e6777e42f02d2df7ec414519517722b6e2367d0fd4b594f2e",
    },
    "softmax": {
        "checkpoints": "da314872f21d961e349d9bb4e5c06db33cb66f8ce11b97be5a4385ebf6b8b085",
        "datasets": "1888db86e657c3819fcf91d2380655043a70aca8b3f504b9351b055f8de62aba",
        "metrics.csv": "31bb2d9fce6b98821710985696021f32be3880e86bddeb6ec33ddef29dca2b35",
        "summary.json": "837eb637e0dd6c328ce02620c45ddc537df2053fa902ff5426f5f8a45845b88d",
    },
}


def tree_digest(path: Path) -> str:
    """sha256 over (relative path, file sha256) for every file, sorted."""
    total = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        total.update(f"{f.relative_to(path).as_posix()}\0{digest}\n".encode())
    return total.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_match_golden_digests(name, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", *RUNS[name], "--out-dir", str(out)]) == 0
    got = {part: tree_digest(out / part) for part in ("checkpoints", "datasets")}
    for file in ("metrics.csv", "summary.json"):
        got[file] = hashlib.sha256((out / file).read_bytes()).hexdigest()
    assert got == GOLDEN[name]


VERIFY_RUNS = {
    "closedform": ["--count", "20"],
    "proposition1": ["--count", "20"],
    "gradients": ["--count", "20"],
    "votes": [],
    "answers": ["--count", "500", "--fuzz", "2000"],
}

GOLDEN_VERIFY = {
    "closedform": "0406fb90339dfc4e23648e76e527d7263716bbfa4c7567d00f4a16f0909bd760",
    "proposition1": "119f0e3ca94fdf6e652dd9471d38c17722628c0e9318366a1afdc44c11f92182",
    "gradients": "bda7dc837329be6819e6d7901b71514acbd89d242560b1a08550d82652cfd463",
    "votes": "33e494787a2fb96857165833b8184dc11f5659ab040e7ec98bcea150ce9a8a9e",
    "answers": "26ad86bf25e9a4cfe856e17f2f99baffc36b0698be0363f7330af78d86561af0",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_RUNS))
def test_verify_reports_match_golden_digests(suite, tmp_path, capsys):
    out = tmp_path / f"{suite}.jsonl"
    assert main(["verify", suite, *VERIFY_RUNS[suite], "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VERIFY[suite]


# Recorded before those suites ran in blocks, one instance at a time.
GOLDEN_VERIFY_BLOCKS = {
    "closedform": "fcffe20edba04f3859e87dd1af6b6f0f392a65a99fea50d872043e4544b5bfcd",
    "gradients": "3ea4b244a5cb4e9130d70ea4a115be1c8ace6151232b0eec621e2229784fcca4",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_VERIFY_BLOCKS))
def test_verify_reports_across_blocks_match_golden_digests(suite, tmp_path, capsys):
    out = tmp_path / f"{suite}.jsonl"
    assert main(["verify", suite, "--count", "150", "--seed", "1000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VERIFY_BLOCKS[suite]
