"""Golden artifacts: pinned sha256 digests of two small runs and of the
five `verify` suites' `--out` reports.

The digests cover every byte of `checkpoints/` and `datasets/`, so they
pin the whole random-stream contract: the counter-based sampling streams,
vote tie-breaks (the tabular run has 8 tied votes of 150, the softmax run
none of 50), reward weights and both update backends. `metrics.csv` and
`summary.json` pin the evaluation: the maj@1/maj@k votes, mean entropies, realized
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
        "checkpoints": "69101ee80a59d6a2c56887f05f5cedb36ccad0fae50c73bb21e7658505762cc7",
        "datasets": "281ecf2caf2e86dfc5fb7ea87d2d8d08b54314a0f7a46e467b67a81dfdf0c87d",
        "metrics.csv": "4534a12ecb78db0ae30c611e178dc388d5af24d0b969110de552426f4a66269d",
        "summary.json": "cb39590fa252b07d945f9841ddbcfcf74f044425c482841dc2589505e8324a2c",
    },
    "softmax": {
        "checkpoints": "4a2df375b306a6e9f2924bd56f40304a2e1b2ea0063e6ca44f8a513977c20491",
        "datasets": "3cba17b8383b8b9959026349bdeb269df79571a8851b697e72a80d6e2ad9268a",
        "metrics.csv": "fe2596bf87d0fd3f8b04bfdab716f0fc7347c20b729ce61f09fa48e638fece59",
        "summary.json": "4cc6587a2660dd7a4d1f249525ddd7f2b0bead6855e8c29f39dd4f0f98c7bf22",
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
