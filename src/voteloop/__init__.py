"""voteloop: offline iterative self-improvement from majority-vote rewards.

A policy proposes answers, its own majority vote plays the role of a label,
and each round re-fits the policy by weighted maximum likelihood on the
vote-rewarded candidates. Exact tabular solvers, a KL fixed-point reference
solution, and an answer-equivalence parser make every step checkable
against independent oracles at desk scale.
"""

from .answers import answer_key, equivalent, extract_boxed, parse_answer
from .engine import OfflineDataset, RunConfig, RunResult, generate_round, run
from .fixed_point import (
    FixedPointConfig,
    KLSolution,
    check_fixed_point_equivalence,
    kl_fixed_point,
)
from .metrics import RoundReport, emit_metrics, maj_at_k, make_eval_hook
from .optim import (
    GradientConfig,
    SolveReport,
    closed_form_update,
    objective_gradient,
    product_form_oracle,
    solve_gradient,
    weighted_mle_objective,
)
from .policy import PromptSpace, SoftmaxPolicy, TabularPolicy, load_policy, save_policy
from .rewards import (
    CandidateSet,
    RewardTransform,
    majority_vote,
    score_candidates,
)
from .tasks import Corpus, CorpusSpec, make_corpus

__version__ = "0.1.0"

__all__ = [
    "answer_key",
    "equivalent",
    "extract_boxed",
    "parse_answer",
    "OfflineDataset",
    "RunConfig",
    "RunResult",
    "generate_round",
    "run",
    "FixedPointConfig",
    "KLSolution",
    "check_fixed_point_equivalence",
    "kl_fixed_point",
    "RoundReport",
    "emit_metrics",
    "maj_at_k",
    "make_eval_hook",
    "GradientConfig",
    "SolveReport",
    "closed_form_update",
    "objective_gradient",
    "product_form_oracle",
    "solve_gradient",
    "weighted_mle_objective",
    "PromptSpace",
    "SoftmaxPolicy",
    "TabularPolicy",
    "load_policy",
    "save_policy",
    "CandidateSet",
    "RewardTransform",
    "majority_vote",
    "score_candidates",
    "Corpus",
    "CorpusSpec",
    "make_corpus",
]
