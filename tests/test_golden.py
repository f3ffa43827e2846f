"""Golden artifacts: pinned sha256 digests of four small runs and of the
five `verify` suites' `--out` reports.

The digests cover every byte of `checkpoints/` and `datasets/` and the
corpus files `tasks.jsonl` and `labels.jsonl`, so they pin the whole
random-stream contract: the counter-based corpus draw and sampling streams,
vote tie-breaks (the tabular run has 1 tied training vote of 150, the
tabular-ties run 10 of 240, the tabular-long-rows run 6 of 225, the softmax
run 4 of 50; `TIED_VOTES` checks that each still ties), reward weights and
both update backends. The tabular-long-rows corpus has up to 6 distractor
classes in 3 surface forms, so 21 of its 75 prompts have 8 or 9 chains:
rows long enough that adding them left to right and `np.sum`'s pairwise
order give different bits.
`metrics.csv` and `summary.json` pin the evaluation: the maj@1/maj@k votes,
mean entropies, realized objectives and the best round. A change that moves
any of them must say so and re-record the digests below. The verify reports (seed 0) pin each suite's instances
and their detail, byte for byte; two more reports (150 instances, seed
1000) cross the blocks of 64 instances that the closedform and gradients
suites run at a time.
"""

import hashlib
from pathlib import Path

import pytest

from voteloop import engine
from voteloop.cli import main

RUNS = {
    "tabular-shifted": [
        "--transform", "baseline_shifted", "--beta", "0.5",
        "--corpus-surface-forms", "3", "--corpus-n-train", "40", "--corpus-n-test", "10",
        "--rounds", "3", "--patience", "3", "--seed", "5", "--corpus-seed", "5",
    ],
    "tabular-ties": [
        "--transform", "baseline_shifted", "--beta", "0.5",
        "--corpus-surface-forms", "3", "--corpus-n-train", "80", "--corpus-n-test", "15",
        "--rounds", "3", "--patience", "3", "--seed", "2", "--corpus-seed", "2",
    ],
    "tabular-long-rows": [
        "--transform", "baseline_shifted", "--beta", "0.5", "--corpus-max-distractors", "6",
        "--corpus-surface-forms", "3", "--corpus-n-train", "60", "--corpus-n-test", "15",
        "--rounds", "3", "--patience", "3", "--seed", "2", "--corpus-seed", "2",
    ],
    "softmax": [
        "--backend", "softmax", "--corpus-surface-forms", "3", "--corpus-n-train", "20",
        "--corpus-n-test", "5", "--rounds", "2", "--seed", "2", "--corpus-seed", "2",
    ],
}

GOLDEN = {
    "tabular-shifted": {
        "checkpoints": "9faa1eb703e34095f7eba601c219ab06489270bacf4b0076f594962ced4fb403",
        "datasets": "225dd20ed721f55e251556caf50ea68aef482e2cbe9b7c346f519f9a06cafd5f",
        "metrics.csv": "11b4239ed44290c96cbfc51c729e09f86f14fa14a972bc56d9f4cf3daf511098",
        "summary.json": "013a8ace7d3afa6f03b5025888c0fb8ff986dfd47a4a4d049be8046a0888eb95",
        "tasks.jsonl": "76fe57e956d77524faf2d6a6bd3ee4d53873454cfd2f583ab4bb5285a5307a45",
        "labels.jsonl": "75edc03a2f576d03cf51a4425f8b2fa0255049d416898e62bef65f050bc6c832",
    },
    "tabular-ties": {
        "checkpoints": "9d3892215451a01b662892bad2869f46eae8d4e8aefcd5ab7cb45b367a16f312",
        "datasets": "ce6a8cd0bd2fcf5a0057e6d5c673cf7507f18373f1047eba0e040d8639432dbd",
        "metrics.csv": "296337c510496eea5a8d6b5796cc45650ef802a271c25b504eb82b43d69d5591",
        "summary.json": "00396bbb9a3181bc37f5efada606f5c8ab70a3a8234dbcf4abb8ae579d163c64",
        "tasks.jsonl": "5ae03f1ef1ab73b99dd79d8a0606126b421e73d744c96e27b74d7c5305c0b1bb",
        "labels.jsonl": "3ff4db9679c4463b407bf343a5b9350ee3274e30c41a87f0e8e27f982c3e0123",
    },
    "tabular-long-rows": {
        "checkpoints": "7d00c12dee025f02a0d0f911cda58d6790099ef19107ce2eff078183147588e7",
        "datasets": "10d015d8d7b6666293f7bd91861b7cb95cb738c581cc1311f3fc694eee289e6c",
        "metrics.csv": "e305c881f9d87290375ce948eb0ec8d517231ce88adae54d70daff3016cd26de",
        "summary.json": "54650ca441d3a9c725bbd55a78d18846fe5cafa84ae1f1d99b98f5852d6db0f1",
        "tasks.jsonl": "1c8e756cfc3905c41f3ebb2243aa25b3028125180846f92751024f5415525c18",
        "labels.jsonl": "4a023139e41fc9ce36bb39adb0509d1ee424758f43e9a973b82b057b3b138e22",
    },
    "softmax": {
        "checkpoints": "a7a727424db5b58fa129cd0a89047bd590ad9dcca70e4008be8fd7367ea746da",
        "datasets": "cafa57abbfcddab1bc3faa484e846ebf51ac18f611657a45a818892140fca5f8",
        "metrics.csv": "9d347d27928a2cb5572178e46e0edb926662cf5812578fad1f18e8c83cf701f6",
        "summary.json": "d46b24996d237ea4de33f2b06be7f841a667331f03bea04d236eae13217ceff9",
        "tasks.jsonl": "0dbd2079afb3177da7da674de0b9406cba0d01647e7197a4196a72e7509b9176",
        "labels.jsonl": "377eb0d8d375021875b197e5bf0626c27b8aa5fd682a11b139c28185fa1635f1",
    },
}

# Tied training votes of each run: one ("tie", round, prompt) substream each.
TIED_VOTES = {"tabular-shifted": 1, "tabular-ties": 10, "tabular-long-rows": 6, "softmax": 4}


def tree_digest(path: Path) -> str:
    """sha256 over (relative path, file sha256) for every file, sorted."""
    total = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        total.update(f"{f.relative_to(path).as_posix()}\0{digest}\n".encode())
    return total.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_match_golden_digests(name, tmp_path, capsys, monkeypatch):
    ties = []
    real = engine.substream
    monkeypatch.setattr(engine, "substream", lambda *args: ties.append(args) or real(*args))
    out = tmp_path / "run"
    assert main(["run", *RUNS[name], "--out-dir", str(out)]) == 0
    got = {part: tree_digest(out / part) for part in ("checkpoints", "datasets")}
    for file in ("metrics.csv", "summary.json", "tasks.jsonl", "labels.jsonl"):
        got[file] = hashlib.sha256((out / file).read_bytes()).hexdigest()
    assert got == GOLDEN[name]
    assert len(ties) == TIED_VOTES[name] and all(args[1] == "tie" for args in ties)


VERIFY_RUNS = {
    "closedform": ["--count", "20"],
    "proposition1": ["--count", "20"],
    "gradients": ["--count", "20"],
    "votes": [],
    "answers": ["--count", "500", "--fuzz", "2000"],
}

GOLDEN_VERIFY = {
    "closedform": "32882ec26101dafc9b2093ecada10f5cc9d57e9876f94f7e51f0572957cc2752",
    "proposition1": "119f0e3ca94fdf6e652dd9471d38c17722628c0e9318366a1afdc44c11f92182",
    "gradients": "3fe775177003ad99a62aaca23e2497c883a139453936070245b2f42dae5ec6a8",
    "votes": "33e494787a2fb96857165833b8184dc11f5659ab040e7ec98bcea150ce9a8a9e",
    "answers": "26ad86bf25e9a4cfe856e17f2f99baffc36b0698be0363f7330af78d86561af0",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_RUNS))
def test_verify_reports_match_golden_digests(suite, tmp_path, capsys):
    out = tmp_path / f"{suite}.jsonl"
    assert main(["verify", suite, *VERIFY_RUNS[suite], "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VERIFY[suite]


# 150 instances at seed 1000 cross the blocks of 64 that these suites run
# (running in blocks left the reports' bytes as they were one at a time).
GOLDEN_VERIFY_BLOCKS = {
    "closedform": "9bb6c4d421a3c1744cf55a362f0472f18bd4fbe9585854adfdb3b994735fb776",
    "gradients": "5f4402ade31c6995aef854290c59f69c8d106677a5e614d87679cb0b9b56714a",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_VERIFY_BLOCKS))
def test_verify_reports_across_blocks_match_golden_digests(suite, tmp_path, capsys):
    out = tmp_path / f"{suite}.jsonl"
    assert main(["verify", suite, "--count", "150", "--seed", "1000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VERIFY_BLOCKS[suite]
