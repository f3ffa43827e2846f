"""Command-line entry point.

Subcommands:
  run           train on a synthetic corpus and write checkpoints + metrics
  verify        run a randomized oracle suite (exit 0 iff all instances pass)
  report        summarize a finished run directory
  answer check  decide equivalence of two answer strings (exit 0/1)

`run` reads a flat JSON config file; command-line flags override file
values, and the effective merged config is echoed into the output directory
so every run is reproducible from its own artifacts. The VOTELOOP_OUT_ROOT
environment variable re-roots relative output directories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .answers import equivalent
from .engine import RunConfig, run
from .metrics import RoundReport, best_round_of, emit_metrics, make_eval_hook, read_metrics
from .policy import SoftmaxPolicy
from .tasks import Corpus, CorpusSpec, make_corpus, save_corpus
from .verify import SUITES

USAGE_ERROR = 2
VERIFY_FAILURE = 1

OUT_ROOT_ENV = "VOTELOOP_OUT_ROOT"

_RUN_KEYS = {
    "k": int,
    "rounds": int,
    "patience": int,
    "transform": str,
    "beta": float,
    "seed": int,
    "backend": str,
    "eval_k": int,
    "eval_samples": int,
}
_CORPUS_KEYS = {
    "corpus_n_train": int,
    "corpus_n_test": int,
    "corpus_p_min": float,
    "corpus_p_max": float,
    "corpus_max_distractors": int,
    "corpus_surface_forms": int,
    "corpus_margin": float,
    "corpus_seed": int,
}
_OTHER_KEYS = {"out_dir": str}
CONFIG_KEYS = {**_RUN_KEYS, **_CORPUS_KEYS, **_OTHER_KEYS}
# The JSON values each key type accepts (bool is an int to isinstance, and
# no key takes it), and how an error names them.
_ACCEPTS = {int: (int,), float: (int, float), str: (str,)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}

DEFAULT_CONFIG = {
    "out_dir": "voteloop-run",
    "corpus_n_train": 400,
    "corpus_n_test": 100,
    "corpus_p_min": 0.35,
    "corpus_p_max": 0.95,
    "corpus_max_distractors": 3,
    "corpus_surface_forms": 1,
    "corpus_margin": 0.1,
    "corpus_seed": 0,
}


class ConfigError(Exception):
    pass


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object with flat keys")
    return raw


def effective_config(file_cfg: dict, overrides: dict) -> dict:
    """Defaults <- config file <- command line, rejecting unknown keys and
    values of the wrong JSON type (floats are not truncated to ints, nor
    booleans read as numbers)."""
    config = dict(DEFAULT_CONFIG)
    for field in RunConfig.__dataclass_fields__.values():
        if field.name in _RUN_KEYS:
            config[field.name] = field.default
    for source_name, source in (("config file", file_cfg), ("command line", overrides)):
        for key, value in source.items():
            if value is None:
                continue
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown {source_name} key {key!r}")
            caster = CONFIG_KEYS[key]
            if not isinstance(value, _ACCEPTS[caster]) or isinstance(value, bool):
                raise ConfigError(f"key {key!r} must be {_TYPE_NAMES[caster]}, got {value!r}")
            config[key] = caster(value)
    return config


def _build_run_config(config: dict) -> RunConfig:
    kwargs = {k: config[k] for k in _RUN_KEYS if k in config}
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _build_corpus_spec(config: dict) -> CorpusSpec:
    try:
        return CorpusSpec(
            n_train=config["corpus_n_train"],
            n_test=config["corpus_n_test"],
            p_range=(config["corpus_p_min"], config["corpus_p_max"]),
            max_distractors=config["corpus_max_distractors"],
            surface_forms=config["corpus_surface_forms"],
            margin=config["corpus_margin"],
            seed=config["corpus_seed"],
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad corpus settings: {exc}") from None


def _resolve_out_dir(out_dir: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not os.path.isabs(out_dir):
        return os.path.join(root, out_dir)
    return out_dir


def _base_policy(corpus: Corpus, run_config: RunConfig):
    if run_config.backend == "tabular":
        return corpus.base
    # Logit floor keeps zero-mass chains representable for the softmax backend.
    logits = {
        x: np.log(np.maximum(corpus.base.distribution(x), 1e-12))
        for x in corpus.space.prompts
    }
    return SoftmaxPolicy(corpus.space, logits)


def cmd_run(args: argparse.Namespace) -> int:
    file_cfg = load_config_file(args.config) if args.config else {}
    overrides = {
        key: getattr(args, key)
        for key in CONFIG_KEYS
        if getattr(args, key, None) is not None
    }
    config = effective_config(file_cfg, overrides)
    run_config = _build_run_config(config)
    corpus_spec = _build_corpus_spec(config)

    out_dir = _resolve_out_dir(config["out_dir"])
    os.makedirs(out_dir, exist_ok=True)

    corpus = make_corpus(corpus_spec)
    save_corpus(
        corpus,
        os.path.join(out_dir, "tasks.jsonl"),
        os.path.join(out_dir, "labels.jsonl"),
    )

    eval_k = run_config.k if run_config.eval_k is None else run_config.eval_k
    hook = make_eval_hook(
        corpus.splits,
        corpus.truth,
        eval_k,
        run_config.seed,
        eval_samples=run_config.eval_samples,
    )
    pi0 = _base_policy(corpus, run_config)
    result = run(run_config, corpus.space, pi0, hook, out_dir=out_dir)

    emit_metrics(
        result.reports,
        os.path.join(out_dir, "metrics.csv"),
        os.path.join(out_dir, "summary.json"),
    )
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(config, indent=2, sort_keys=True) + "\n")

    best = result.reports[result.best_round]
    print(f"run complete: {len(result.reports) - 1} trained rounds, best round {result.best_round}")
    for split in best.majk_acc:
        print(
            f"  {split}: maj1 {best.maj1_acc[split]:.4f}  "
            f"maj@{eval_k} {best.majk_acc[split]:.4f}  "
            f"entropy {best.mean_entropy[split]:.4f}"
        )
    print(f"artifacts in {out_dir}")
    return 0


def _verify_usage_problem(args: argparse.Namespace) -> str | None:
    if args.count is not None and (args.count < 1 or args.suite == "votes"):
        return "--count must be >= 1, and the votes suite takes none"
    if args.fuzz is not None and (args.fuzz < 0 or args.suite != "answers"):
        return "--fuzz must be >= 0, and only the answers suite takes it"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    problem = _verify_usage_problem(args)
    if problem is not None:
        print(f"usage error: {problem}", file=sys.stderr)
        return USAGE_ERROR
    options = {"seed": args.seed, "count": args.count, "fuzz": args.fuzz}
    result = SUITES[args.suite](**{k: v for k, v in options.items() if v is not None})

    lines = []
    for inst in result.instances:
        record = {"suite": result.name, "instance": inst.index, "pass": inst.passed}
        record.update(inst.detail)
        lines.append(json.dumps(record, sort_keys=True, default=str))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    for inst, line in zip(result.instances, lines):
        status = "pass" if inst.passed else "FAIL"
        print(f"[{status}] {line}")
    print(result.summary())
    return 0 if result.passed else VERIFY_FAILURE


def cmd_report(args: argparse.Namespace) -> int:
    csv_path = os.path.join(args.run_dir, "metrics.csv")
    if not os.path.exists(csv_path):
        print(f"no metrics.csv under {args.run_dir}", file=sys.stderr)
        return USAGE_ERROR
    try:
        metrics = read_metrics(csv_path)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR

    rounds = sorted(metrics)
    best_round = best_round_of(
        [
            RoundReport(
                r, majk_acc={s: m["majk_acc"] for s, m in metrics[r].items() if "majk_acc" in m}
            )
            for r in rounds
        ]
    )
    splits = [s for s in metrics[rounds[0]] if s != "run"]
    header = ["round"] + [f"{s}/{m}" for s in splits for m in ("maj1", "majk", "entropy")]
    print("  ".join(f"{h:>14}" for h in header))
    for r in rounds:
        row = [f"{r}{'*' if r == best_round else ''}"]
        for s in splits:
            cell = metrics[r].get(s, {})
            row.extend(
                f"{cell.get(key, float('nan')):.4f}"
                for key in ("maj1_acc", "majk_acc", "mean_entropy")
            )
        print("  ".join(f"{c:>14}" for c in row))
    print(f"best round: {best_round} (by train majk_acc, earliest tie)")

    base = metrics[rounds[0]].get("train", {})
    best = metrics[best_round].get("train", {})
    if best.get("maj1_acc", 0.0) > base.get("majk_acc", 1.0):
        print("flag: trained maj@1 exceeds base maj@k (improvement beyond vote distillation)")
    final_entropy = metrics[rounds[-1]].get("train", {}).get("mean_entropy")
    if final_entropy is not None and final_entropy < 0.01:
        print("flag: entropy collapse (final train entropy < 0.01 nats)")
    trouble = []
    for r in rounds:
        run_row = metrics[r].get("run", {})
        unconverged = int(run_row.get("solver_unconverged", 0))
        stalled = int(run_row.get("solver_stalled", 0))
        if unconverged or stalled:
            trouble.append(f"round {r} ({unconverged} unconverged, {stalled} stalled)")
    if trouble:
        print(f"flag: solver did not converge in {', '.join(trouble)}")
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    same = equivalent(args.a, args.b)
    print("equivalent" if same else "different")
    return 0 if same else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voteloop",
        description="offline iterative self-improvement from majority-vote rewards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train on a synthetic corpus")
    p_run.add_argument("--config", help="flat JSON config file")
    p_run.add_argument("--out-dir", dest="out_dir")
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--rounds", type=int)
    p_run.add_argument("--patience", type=int)
    p_run.add_argument("--transform", choices=["identity", "exponential", "baseline_shifted"])
    p_run.add_argument("--beta", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--backend", choices=["tabular", "softmax"])
    p_run.add_argument("--eval-k", dest="eval_k", type=int)
    p_run.add_argument("--eval-samples", dest="eval_samples", type=int)
    p_run.add_argument("--corpus-n-train", dest="corpus_n_train", type=int)
    p_run.add_argument("--corpus-n-test", dest="corpus_n_test", type=int)
    p_run.add_argument("--corpus-p-min", dest="corpus_p_min", type=float)
    p_run.add_argument("--corpus-p-max", dest="corpus_p_max", type=float)
    p_run.add_argument("--corpus-max-distractors", dest="corpus_max_distractors", type=int)
    p_run.add_argument("--corpus-surface-forms", dest="corpus_surface_forms", type=int)
    p_run.add_argument("--corpus-margin", dest="corpus_margin", type=float)
    p_run.add_argument("--corpus-seed", dest="corpus_seed", type=int)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run an oracle suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--count", type=int, help="instances (or triples for `answers`)")
    p_verify.add_argument("--fuzz", type=int, help="fuzz strings for `answers`")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="also write per-instance JSON lines here")
    p_verify.set_defaults(fn=cmd_verify)

    p_report = sub.add_parser("report", help="summarize a run directory")
    p_report.add_argument("run_dir")
    p_report.set_defaults(fn=cmd_report)

    p_answer = sub.add_parser("answer", help="answer utilities")
    answer_sub = p_answer.add_subparsers(dest="answer_command", required=True)
    p_check = answer_sub.add_parser("check", help="exit 0 iff the two answers are equivalent")
    p_check.add_argument("a")
    p_check.add_argument("b")
    p_check.set_defaults(fn=cmd_answer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
