"""Exact offline updates and the product-form shortcut.

Each round of vote-driven training multiplies the current policy by a
per-chain weight and renormalizes. Iterating that update for m rounds is
the same as applying all m weight vectors to the *base* policy at once;
this script walks a tiny two-chain example through both routes and shows
they agree to machine precision, including the sharp exponential weights
(exp(10) per round) where the log-space path matters.
"""

import math

import numpy as np

from voteloop import PromptSpace, TabularPolicy, closed_form_update, product_form_oracle

space = PromptSpace(
    chains={"q": ("good", "bad")},
    answers={"q": {"good": "4", "bad": "5"}},
)
pi0 = TabularPolicy.uniform(space)


def shown(policy):
    return {c: float(p) for c, p in zip(space.chains("q"), policy.distribution("q"))}


print("base policy:", shown(pi0))

# The updates take log-weights, one per chain. Identity weights: reward 1
# (log-weight 0) keeps a chain, reward 0 (log-weight -inf) removes it.
restricted = closed_form_update(pi0, np.array([0.0, -np.inf]))
print("\nidentity transform, reward (1, 0):")
print("  one update  ->", shown(restricted))

# Exponential weights exp(reward / beta) with beta = 0.1: a soft tilt of
# exp(10) toward the rewarded chain per round.
beta = 0.1
log_w = np.log([math.exp(1 / beta), 1.0])
print(f"\nexponential transform, beta={beta} (tilt e^10 per round):")
policy = pi0
history = []
for m in range(1, 4):
    policy = closed_form_update(policy, log_w)
    history.append(log_w)
    oracle = product_form_oracle(pi0, history)
    dev = np.max(np.abs(policy.distribution("q") - oracle.distribution("q")))
    print(
        f"  round {m}: p(good) iterated = {policy.prob('q', 'good'):.12f}   "
        f"product-form = {oracle.prob('q', 'good'):.12f}   |diff| = {dev:.1e}"
    )

# Forty rounds of e^10 tilts would overflow linear space (exp(400)); the
# oracle adds the log-weights and composes them without incident.
far = product_form_oracle(pi0, [np.array([10.0, 0.0])] * 40)
print(f"\nafter 40 tilted rounds (log-space): p(good) = {far.prob('q', 'good')}")
