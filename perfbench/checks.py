"""Output checks and artifact accounting for one iteration's output directory.

A run directory must re-read through the library's own readers: the
metrics CSV through `read_metrics`, every checkpoint through `load_policy`,
and `summary.json` must name the best round the CSV implies. A verify
directory holds one JSON-lines report per suite, and every instance must
pass. Each function returns a list of error strings (empty when the
directory is correct) next to what it measured.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from voteloop.metrics import read_metrics
from voteloop.policy import load_policy
from voteloop.rewards import equivalence_classes
from voteloop.tasks import load_corpus

ARTIFACT_KINDS = {
    "corpus": ("tasks.jsonl", "labels.jsonl"),
    "checkpoints": ("checkpoints/*",),
    "datasets": ("datasets/*",),
    "metrics": ("metrics.csv", "summary.json"),
}


def tree_digest(path: Path) -> str:
    """sha256 over (relative path, file sha256) for every file, sorted."""
    total = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        total.update(f"{f.relative_to(path).as_posix()}\0{digest}\n".encode())
    return total.hexdigest()


def artifact_bytes(run_dir: Path) -> dict[str, int]:
    return {
        kind: sum(f.stat().st_size for pattern in patterns for f in run_dir.glob(pattern))
        for kind, patterns in ARTIFACT_KINDS.items()
    }


def check_run_dir(run_dir: Path, workload) -> tuple[list[str], float]:
    """Errors, and train maj@k at the best round. Raises OSError,
    ValueError or KeyError when a file is missing or does not parse."""
    errors = []
    metrics = read_metrics(run_dir / "metrics.csv")
    rounds = sorted(metrics)
    if rounds != list(range(workload.rounds + 1)):
        errors.append(f"metrics.csv has rounds {rounds}, want 0..{workload.rounds}")
    best = max(rounds, key=lambda r: (metrics[r]["train"]["majk_acc"], -r))
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["best_round"] != best or summary["rounds"] != rounds[-1]:
        errors.append(
            f"summary.json best round {summary['best_round']} of {summary['rounds']}, "
            f"metrics.csv implies {best} of {rounds[-1]}"
        )
    for split, values in summary["metrics"].items():
        for name, value in values.items():
            if metrics[best][split][name] != value:
                errors.append(f"summary.json {split}/{name} differs from metrics.csv")

    space, _, _ = load_corpus(run_dir / "tasks.jsonl")
    if len(space.prompts) != workload.prompts:
        errors.append(f"corpus has {len(space.prompts)} prompts, want {workload.prompts}")
    for r in rounds:
        try:
            load_policy(run_dir / "checkpoints" / f"round_{r:03d}.policy", space)
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"checkpoint {r} does not reload: {exc}")
    for r in range(1, workload.rounds + 1):
        path = run_dir / "datasets" / f"round_{r:03d}.jsonl"
        rows = sum(1 for _ in path.open(encoding="utf-8")) if path.exists() else 0
        if rows != workload.prompts * workload.k:
            errors.append(f"dataset {r} has {rows} rows, want {workload.prompts * workload.k}")
    return errors, metrics[best]["train"]["majk_acc"]


def read_verify_dir(run_dir: Path, suites) -> dict[str, list[dict]]:
    out = {}
    for suite in suites:
        path = run_dir / f"{suite}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        out[suite] = [json.loads(line) for line in lines if line.strip()]
    return out


def check_verify_dir(run_dir: Path, commands: list[dict]) -> tuple[list[str], int, int]:
    """Errors, instances checked, instances failed."""
    errors = [f"verify {c['label']} exited {c['rc']}" for c in commands if c["rc"] != 0]
    reports = read_verify_dir(run_dir, [c["label"] for c in commands])
    instances = failed = 0
    for suite, records in reports.items():
        if not records:
            errors.append(f"verify {suite} wrote no report")
        instances += len(records)
        failed += sum(1 for rec in records if not rec["pass"])
    if failed:
        errors.append(f"{failed} verify instances failed")
    return errors, instances, failed


def tie_votes(run_dir: Path) -> tuple[int, int]:
    """(tied votes, votes) recounted from the saved round datasets; the
    engine builds one tie-break stream per vote."""
    ties = votes = 0
    for path in sorted((run_dir / "datasets").glob("*.jsonl")):
        answers: dict[str, list[str]] = {}
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                answers.setdefault(rec["prompt"], []).append(rec["answer"])
        for group in answers.values():
            sizes = sorted((len(c) for c in equivalence_classes(group)), reverse=True)
            votes += 1
            ties += len(sizes) > 1 and sizes[0] == sizes[1]
    return ties, votes
