"""The benchmark's workloads: which `voteloop` commands one iteration runs.

Every iteration is one fresh process that runs `cli.main` on the argument
lists below. A workload seed from the command line fans out into
`subseeds` consecutive seeds (`seed * 1000 + j`); each one names a distinct
input (corpus and sampling streams, or oracle instances), so one benchmark
run averages over several inputs instead of resting on one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "verify"
    subseeds: int
    prompts: int = 0  # train + test prompts, what generate_round iterates
    rounds: int = 0
    k: int = 10

    def seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + j for j in range(self.subseeds)]

    def commands(self, seed: int, out_dir: str) -> list[tuple[str, list[str]]]:
        """(label, argv for voteloop.cli.main) pairs, run in order."""
        if self.kind == "run":
            return [("run", RUN_ARGS[self.name] + [
                "--seed", str(seed), "--corpus-seed", str(seed), "--out-dir", out_dir,
            ])]
        return [
            (suite, ["verify", suite, *extra, "--seed", str(seed),
                     "--out", f"{out_dir}/{suite}.jsonl"])
            for suite, extra in VERIFY_SUITES
        ]


RUN_ARGS = {
    # Baseline-shifted weights with three surface forms per true answer: the
    # vote merges equivalent strings and every round trains (patience equal
    # to the round cap pins all 15 rounds, so every input does the same
    # number of rounds).
    "tabular-shifted": [
        "run", "--transform", "baseline_shifted", "--beta", "0.5",
        "--corpus-surface-forms", "3", "--rounds", "15", "--patience", "15",
    ],
    # Softmax backend: the per-prompt gradient solve is most of the time.
    "softmax-solve": [
        "run", "--backend", "softmax", "--corpus-n-train", "100",
        "--corpus-n-test", "20", "--rounds", "3",
    ],
}

VERIFY_SUITES = (
    ("closedform", ["--count", "500"]),
    ("proposition1", ["--count", "500"]),
    ("gradients", ["--count", "500"]),
    ("votes", []),
    ("answers", []),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("tabular-shifted", "run", subseeds=4, prompts=500, rounds=15),
        Workload("softmax-solve", "run", subseeds=8, prompts=120, rounds=3),
        Workload("verify-oracles", "verify", subseeds=2),
    )
}
