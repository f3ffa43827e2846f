"""Weighted-MLE solvers: closed form, product-form oracle, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteloop.optim import (
    STALL_NOTE,
    DegeneratePromptError,
    GradientConfig,
    _direction_rows,
    _gradient_rows,
    _objective_rows,
    _pad_rows,
    _prompt_rows,
    _solve_batch,
    _solve_prompt,
    _sup_rows,
    closed_form_update,
    objective_gradient,
    product_form_oracle,
    solve_gradient,
    tilt_distribution,
    weighted_mle_objective,
)
from voteloop.policy import PromptSpace, SoftmaxPolicy, TabularPolicy


def two_chain_space():
    return PromptSpace({"p": ("A", "B")}, {"p": {"A": "a", "B": "b"}})


def sample_arrays(space, samples):
    """(prompt, chain, log-weight) triples as the solver's arrays: flat
    chain indices and log-weights."""
    chains = [space._bounds[space._row[x]] + space.chain_index(x, c) for x, c, _ in samples]
    return np.array(chains, dtype=np.intp), np.array([lw for *_, lw in samples], dtype=float)


def make_space(rng, max_prompts=8, max_chains=8):
    n = int(rng.integers(1, max_prompts + 1))
    chains = {}
    answers = {}
    for i in range(n):
        m = int(rng.integers(2, max_chains + 1))
        ids = tuple(f"c{j}" for j in range(m))
        chains[f"p{i}"] = ids
        answers[f"p{i}"] = {c: str(int(rng.integers(0, m))) for c in ids}
    return PromptSpace(chains, answers)


def random_tabular(rng, space):
    return TabularPolicy(
        space, {x: rng.dirichlet(np.ones(len(space.chains(x)))) for x in space.prompts}
    )


class TestClosedFormUpdate:
    def test_two_term_softmax_by_hand(self):
        pi0 = TabularPolicy.uniform(two_chain_space())
        new = closed_form_update(pi0, np.array([10.0, 0.0]))
        assert new.prob("p", "A") == pytest.approx(0.9999546021312976, abs=1e-12)
        assert new.prob("p", "B") == pytest.approx(4.5397868702434395e-05, rel=1e-10)

    def test_mass_restriction(self):
        pi0 = TabularPolicy(two_chain_space(), {"p": (0.6, 0.4)})
        new = closed_form_update(pi0, np.array([0.0, -np.inf]))
        assert new.prob("p", "A") == 1.0
        assert new.prob("p", "B") == 0.0

    def test_equal_weights_leave_policy_unchanged(self):
        rng = np.random.default_rng(2)
        space = make_space(rng)
        pi0 = random_tabular(rng, space)
        new = closed_form_update(pi0, np.full(len(pi0._probs), math.log(3.7)))
        for x in space.prompts:
            np.testing.assert_allclose(new.distribution(x), pi0.distribution(x), rtol=0, atol=1e-15)

    def test_missing_prompt_carries_over_bitwise(self):
        rng = np.random.default_rng(3)
        space = make_space(rng, max_prompts=4)
        pi0 = random_tabular(rng, space)
        log_w = rng.normal(0, 3, len(pi0._probs))
        new = closed_form_update(pi0, log_w, np.zeros(len(space.prompts), dtype=bool))
        assert np.array_equal(new._probs.view(np.uint64), pi0._probs.view(np.uint64))

    def test_wrong_length_log_weights_raise(self):
        pi0 = TabularPolicy.uniform(two_chain_space())
        for shape in [(), (1,), (3,), (2, 1), (1, 2)]:
            with pytest.raises(ValueError, match=r"expected \(2,\)"):
                closed_form_update(pi0, np.zeros(shape))
            with pytest.raises(ValueError, match=r"expected \(2,\)"):
                closed_form_update(pi0, np.zeros(shape), np.array([True]))

    def test_bad_log_weights_raise(self):
        pi0 = TabularPolicy.uniform(two_chain_space())
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="at entry 1"):
                closed_form_update(pi0, np.array([0.0, bad]))

    def test_degenerate_prompt_raises(self):
        pi0 = TabularPolicy(two_chain_space(), {"p": (1.0, 0.0)})
        with pytest.raises(DegeneratePromptError) as err:
            closed_form_update(pi0, np.array([-np.inf, 0.0]))
        assert err.value.prompt == "p"

    def test_proportional_ties_are_preserved(self):
        space = PromptSpace(
            {"p": ("A", "B", "C")}, {"p": {"A": "a", "B": "b", "C": "c"}}
        )
        pi0 = TabularPolicy(space, {"p": (0.25, 0.25, 0.5)})
        new = closed_form_update(pi0, np.log([2.0, 2.0, 1.0]))
        assert new.prob("p", "A") == new.prob("p", "B")

    def test_argmax_invariant_to_weight_scaling(self):
        rng = np.random.default_rng(5)
        space = make_space(rng, max_prompts=3)
        pi0 = random_tabular(rng, space)
        weights = rng.uniform(0.1, 4.0, len(pi0._probs))
        a = closed_form_update(pi0, np.log(weights))
        b = closed_form_update(pi0, np.log(173.5 * weights))
        for x in space.prompts:
            np.testing.assert_allclose(a.distribution(x), b.distribution(x), rtol=0, atol=1e-12)


class TestProductFormOracle:
    def test_single_round_equals_one_update(self):
        rng = np.random.default_rng(7)
        space = make_space(rng)
        pi0 = random_tabular(rng, space)
        log_w = np.log(rng.uniform(0.0, 2.0, len(pi0._probs)) + 0.01)
        one = closed_form_update(pi0, log_w)
        oracle = product_form_oracle(pi0, [log_w])
        for x in space.prompts:
            np.testing.assert_allclose(one.distribution(x), oracle.distribution(x), rtol=0, atol=1e-15)

    def test_idempotent_restriction(self):
        pi0 = TabularPolicy(two_chain_space(), {"p": (0.6, 0.4)})
        history = [np.array([0.0, -np.inf])] * 2
        final = product_form_oracle(pi0, history)
        assert final.prob("p", "A") == 1.0

    def test_two_rounds_of_exponential_tilting_by_hand(self):
        # weights exp(r/beta) with r = (1, 0), beta = 0.1, twice:
        # total tilt exp(20) against 1.
        pi0 = TabularPolicy.uniform(two_chain_space())
        log_w = np.array([10.0, 0.0])
        final = product_form_oracle(pi0, [log_w, log_w])
        assert final.prob("p", "A") == pytest.approx(0.9999999979388464, abs=1e-12)
        assert final.prob("p", "B") == pytest.approx(2.0611536181902037e-09, rel=1e-9)

    def test_wrong_length_log_weights_raise(self):
        pi0 = TabularPolicy.uniform(two_chain_space())
        for shape in [(1,), (3,), (2, 1)]:
            with pytest.raises(ValueError, match=r"expected \(2,\)"):
                product_form_oracle(pi0, [np.zeros(2), np.zeros(shape)])

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            product_form_oracle(TabularPolicy.uniform(two_chain_space()), [])

    def test_matches_iterated_updates_on_random_instances(self):
        # The induction behind the product form, checked numerically over
        # vote-like weight histories with both transform families.
        rng = np.random.default_rng(11)
        for _ in range(50):
            space = make_space(rng)
            pi0 = random_tabular(rng, space)
            rounds = int(rng.integers(1, 6))
            beta = [None, 0.05, 0.1, 1.0][int(rng.integers(4))]
            policy = pi0
            history = []
            for _ in range(rounds):
                rewards = []
                for x in space.prompts:
                    dist = policy.distribution(x)
                    anchor = space.answers(x)[int(rng.choice(len(dist), p=dist))]
                    rewards += [1.0 if a == anchor else 0.0 for a in space.answers(x)]
                r = np.array(rewards)
                with np.errstate(divide="ignore"):
                    history.append(np.log(r) if beta is None else r / beta)
                policy = closed_form_update(policy, history[-1])
            oracle = product_form_oracle(pi0, history)
            for x in space.prompts:
                np.testing.assert_allclose(
                    policy.distribution(x), oracle.distribution(x), rtol=0, atol=1e-9
                )

    def test_log_weights_accepted_beyond_linear_range(self):
        # 40 rounds of beta=0.1 tilting would overflow linear space
        # (exp(400)); the log path composes them without incident.
        pi0 = TabularPolicy.uniform(two_chain_space())
        history = [np.array([10.0, 0.0])] * 40
        final = product_form_oracle(pi0, history)
        assert final.prob("p", "A") == 1.0


class TestObjective:
    def space_policy(self, probs):
        space = two_chain_space()
        logits = {"p": np.log(np.asarray(probs))}
        return SoftmaxPolicy(space, logits)

    def test_all_zero_weights(self):
        policy = self.space_policy((0.5, 0.5))
        chains, lw = sample_arrays(policy.space, [("p", "A", -math.inf)] * 4)
        assert weighted_mle_objective(policy, chains, lw) == 0.0

    def test_single_term(self):
        policy = self.space_policy((0.5, 0.5))
        assert weighted_mle_objective(policy, [0], [0.0]) == pytest.approx(-0.6931471805599453, abs=1e-12)

    def test_hand_sum(self):
        space = PromptSpace({"p": ("A", "B", "C", "D")}, {"p": {c: c for c in "ABCD"}})
        policy = SoftmaxPolicy(space, {"p": np.log([0.5, 0.25, 0.125, 0.125])})
        chains, lw = sample_arrays(space, [("p", "A", math.log(2.0)), ("p", "B", 0.0)])
        assert weighted_mle_objective(policy, chains, lw) == pytest.approx(-2.772588722239781, abs=1e-10)

    def test_zero_probability_with_positive_weight_reports_minus_inf(self):
        space = two_chain_space()
        policy = SoftmaxPolicy(space, {"p": (800.0, 0.0)})  # B underflows to 0
        assert policy.prob("p", "B") == 0.0
        assert weighted_mle_objective(policy, [1], [0.0]) == -math.inf

    def test_no_samples(self):
        policy = self.space_policy((0.5, 0.5))
        assert weighted_mle_objective(policy, [], []) == 0.0
        assert objective_gradient(policy, [], []) == {}

    def test_padding_leaves_each_row_objective_bits(self):
        # A row's objective has the bits of the row alone, however far the
        # rows of its batch pad it (BLAS groups a dot's terms by length).
        rng = np.random.default_rng(31)
        for width in range(1, 41):
            z, cnt = rng.normal(0, 2, width), rng.integers(0, 4, width) * rng.random(width)
            alone = _objective_rows(*_pad_rows([z], [cnt]), 0.7)
            for wider in (width + 1, width + 3, 48):
                batch = _objective_rows(*_pad_rows([z, np.zeros(wider)], [cnt, np.ones(wider)]), 0.7)
                assert batch[0].tobytes() == alone[0].tobytes(), (width, wider)

    def test_public_functions_are_the_solver_rows(self):
        rng = np.random.default_rng(29)
        space = make_space(rng, max_prompts=6)
        policy = SoftmaxPolicy(space, {x: rng.normal(0, 1, len(space.chains(x))) for x in space.prompts}, 0.8)
        chains = rng.integers(0, space._bounds[-1], 30)
        lw = np.where(rng.random(30) < 0.2, -np.inf, rng.normal(0, 1, 30))
        rows, row_logits, counts = _prompt_rows(policy, chains, lw)
        z, cnt = _pad_rows(row_logits, counts)
        objective = _objective_rows(z, cnt, 0.8)
        assert weighted_mle_objective(policy, chains, lw) == float(sum(objective.tolist()))
        grads = objective_gradient(policy, chains, lw)
        assert list(grads) == [space.prompts[r] for r in rows]
        for g, full, c in zip(grads.values(), _gradient_rows(z, cnt, 0.8), counts):
            assert g.tobytes() == full[: len(c)].tobytes()

    def test_bad_log_weights_are_named(self):
        policy = self.space_policy((0.5, 0.5))
        entries = [solve_gradient, weighted_mle_objective, objective_gradient]
        for fn in entries:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"log-weight {bad} at entry 1 must be finite or -inf"):
                    fn(policy, [0, 1], [0.0, bad])


class TestGradient:
    def test_matches_central_finite_differences(self):
        # Numerical oracle run before trusting the solver anywhere.
        rng = np.random.default_rng(13)
        h = 1e-5
        worst = 0.0
        for _ in range(50):
            n_prompts = int(rng.integers(1, 4))
            chains = {f"p{i}": tuple(f"c{j}" for j in range(int(rng.integers(2, 6)))) for i in range(n_prompts)}
            answers = {p: {c: c for c in cs} for p, cs in chains.items()}
            space = PromptSpace(chains, answers)
            logits = {p: rng.normal(0, 1.5, len(cs)) for p, cs in chains.items()}
            temperature = float(rng.uniform(0.5, 2.0))
            policy = SoftmaxPolicy(space, logits, temperature)
            samples = []
            for _ in range(int(rng.integers(2, 12))):
                p = f"p{int(rng.integers(n_prompts))}"
                c = chains[p][int(rng.integers(len(chains[p])))]
                lw = -math.inf if rng.random() < 0.15 else float(np.log(rng.uniform(0.2, 4.0)))
                samples.append((p, c, lw))
            at, lws = sample_arrays(space, samples)
            grads = objective_gradient(policy, at, lws)
            for p, grad in grads.items():
                for j in range(len(grad)):
                    up, dn = dict(logits), dict(logits)
                    up[p] = logits[p].copy()
                    up[p][j] += h
                    dn[p] = logits[p].copy()
                    dn[p][j] -= h
                    f_up = weighted_mle_objective(SoftmaxPolicy(space, up, temperature), at, lws)
                    f_dn = weighted_mle_objective(SoftmaxPolicy(space, dn, temperature), at, lws)
                    numeric = (f_up - f_dn) / (2 * h)
                    rel = abs(grad[j] - numeric) / max(1.0, abs(grad[j]), abs(numeric))
                    worst = max(worst, rel)
        assert worst < 1e-5

    def test_zero_at_matched_distribution(self):
        space = two_chain_space()
        policy = SoftmaxPolicy(space, {"p": np.log([0.75, 0.25])})
        grad = objective_gradient(policy, [0, 1], [math.log(3.0), math.log(1.0)])["p"]
        assert np.max(np.abs(grad)) < 1e-12

    def test_direction_ascends_and_sup_bounds_the_objective(self):
        rng = np.random.default_rng(31)
        z = rng.normal(0, 2, (40, 7))
        cnt = rng.uniform(0.1, 3.0, (40, 7)) * (rng.random((40, 7)) < 0.6)
        cnt[:, 0] += 0.5
        dots = np.sum(_direction_rows(z, cnt, 1.3) * _gradient_rows(z, cnt, 1.3), axis=1)
        assert np.all(dots > 0)
        sup = _sup_rows(cnt)
        assert np.all(_objective_rows(z, cnt, 1.3) < sup)
        for row, value in zip(cnt.tolist(), sup.tolist()):
            total = sum(row)
            assert value == pytest.approx(sum(c * math.log(c / total) for c in row if c > 0), rel=1e-13)
        # At the optimum softmax(z / T) = cnt / N the gradient and the step vanish.
        with np.errstate(divide="ignore"):
            opt = 1.3 * np.log(cnt)
        assert np.max(np.abs(_gradient_rows(opt, cnt, 1.3))) < 1e-12
        assert np.max(np.abs(_direction_rows(opt, cnt, 1.3))) < 1e-12


class TestSolveGradient:
    def test_stationary_start_converges_immediately(self):
        space = two_chain_space()
        policy = SoftmaxPolicy(space, {"p": np.log([0.75, 0.25])})
        solved, report = solve_gradient(policy, [0, 1], [math.log(3.0), math.log(1.0)])
        assert report.converged
        assert report.iterations == 0

    def test_drives_all_mass_to_rewarded_chain(self):
        space = two_chain_space()
        policy = SoftmaxPolicy(space, {"p": (0.0, 0.0)})
        solved, report = solve_gradient(policy, [0, 1], [0.0, -math.inf], GradientConfig(max_iters=300))
        assert solved.prob("p", "A") > 0.999
        assert all(b >= a for a, b in zip(report.objective_trace, report.objective_trace[1:]))

    def test_reaches_normalized_weights_within_tv_tolerance(self):
        # Closed-form oracle for a whole batch: with every chain weighted,
        # each prompt's optimum is its normalized weight vector.
        rng = np.random.default_rng(17)
        logits, weights = [], []
        for _ in range(25):
            n = int(rng.integers(2, 7))
            logits.append(rng.normal(0, 1, n))
            weights.append(rng.uniform(0.2, 5.0, n))
        results = _solve_batch(logits, weights, 1.0, GradientConfig())
        for w, (z, _, _, _, trace, _) in zip(weights, results):
            p = np.exp(z - z.max())
            assert 0.5 * np.abs(p / p.sum() - w / w.sum()).sum() <= 1e-6
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    def zero_count_batch(self):
        # 200 prompts of 2-8 chains, each chain's weight zero with
        # probability 0.4: every zero-weight chain's optimal logit is -inf.
        rng = np.random.default_rng(41)
        logits, counts = [], []
        for _ in range(200):
            n = int(rng.integers(2, 9))
            c = rng.uniform(0.5, 5.0, n) * (rng.random(n) >= 0.4)
            if not c.any():
                c[int(rng.integers(n))] = 1.0
            logits.append(rng.normal(0, 2, n))
            counts.append(c)
        return logits, counts

    @pytest.mark.parametrize("temperature", [0.6, 1.0, 2.5])
    def test_zero_count_chains_converge_in_few_steps(self, temperature):
        logits, counts = self.zero_count_batch()
        results = _solve_batch(logits, counts, temperature, GradientConfig())
        assert sum(not r[3] for r in results) == 0
        assert sum(r[5] == STALL_NOTE for r in results) == 0
        assert max(r[2] for r in results) <= 100
        for c, (z, _, _, _, trace, _) in zip(counts, results):
            p = np.exp((z - z.max()) / temperature)
            assert 0.5 * np.abs(p / p.sum() - c / c.sum()).sum() <= 1e-6
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("tolerance", [0.0, 1e-13, 1e-6])
    @pytest.mark.parametrize("max_iters", [1, 3, 10_000])
    def test_converged_exactly_when_the_gap_certificate_holds(self, tolerance, max_iters):
        logits, counts = self.zero_count_batch()
        config = GradientConfig(max_iters=max_iters, gap_tolerance=tolerance)
        results = _solve_batch(logits, counts, 1.0, config)
        for c, (_, _, iters, converged, trace, note) in zip(counts, results):
            total = sum(c.tolist())
            sup = sum(n * math.log(n / total) for n in c.tolist() if n > 0)
            gap = sup - trace[-1]
            assert converged == (gap <= tolerance * total)
            if note == STALL_NOTE:
                assert not converged
            if not converged and not note:
                assert iters == max_iters

    def test_prompts_without_samples_are_untouched(self):
        space = PromptSpace(
            {"p0": ("A", "B"), "p1": ("A", "B")},
            {"p0": {"A": "a", "B": "b"}, "p1": {"A": "a", "B": "b"}},
        )
        policy = SoftmaxPolicy(space, {"p0": (1.0, -1.0), "p1": (0.3, 0.4)})
        solved, _ = solve_gradient(policy, [0], [0.0])
        assert np.array_equal(solved.logits("p1"), policy.logits("p1"))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_batch_equals_each_prompt_solved_alone(self, data):
        # Prompts of 2-40 chains with zero-weight chains and all-zero
        # prompts; max_iters=200 also exercises the iteration-budget exit.
        widths = data.draw(st.lists(st.integers(2, 40), min_size=1, max_size=6))
        temperature = data.draw(st.sampled_from([1.0, 0.6, 2.5]))
        logit = st.floats(-4.0, 4.0)
        log_weight = st.one_of(st.just(-math.inf), st.floats(-3.0, 1.5))
        chains, logits, samples = {}, {}, []
        for i, n in enumerate(widths):
            chains[f"p{i}"] = tuple(f"c{j}" for j in range(n))
            logits[f"p{i}"] = data.draw(st.lists(logit, min_size=n, max_size=n))
            for j in range(n):
                samples.append((f"p{i}", f"c{j}", data.draw(log_weight)))
        space = PromptSpace(chains, {p: {c: c for c in cs} for p, cs in chains.items()})
        policy = SoftmaxPolicy(space, logits, temperature)
        config = GradientConfig(max_iters=200)

        chain_at, log_weights = sample_arrays(space, samples)
        solved, report = solve_gradient(policy, chain_at, log_weights, config)
        rows, row_logits, counts = _prompt_rows(policy, chain_at, log_weights)
        assert rows == list(range(len(space.prompts)))
        alone = {
            x: _solve_prompt(z, c, temperature, config) for x, z, c in zip(space.prompts, row_logits, counts)
        }
        for x, (z, *_) in alone.items():
            assert np.array_equal(solved.logits(x), z)
        results = list(alone.values())
        assert report.objective_trace == [v for r in results for v in r[4]]
        assert report.grad_norm == max(r[1] for r in results)
        assert report.iterations == max(r[2] for r in results)
        assert report.converged == all(r[3] for r in results)
        assert report.unconverged == sum(not r[3] for r in results)
        assert report.stalled == sum(r[5] == STALL_NOTE for r in results)
        assert report.note == "; ".join(f"{x}: {r[5]}" for x, r in alone.items() if r[5])

    def test_zero_weight_prompt_is_returned_unchanged_and_converged(self):
        z, grad_norm, iters, converged, trace, note = _solve_prompt(
            np.array([0.3, -1.0]), np.zeros(2), 1.0, GradientConfig()
        )
        assert np.array_equal(z, [0.3, -1.0])
        assert (grad_norm, iters, converged, trace, note) == (0.0, 0, True, [0.0], "")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradientConfig(learning_rate=0.0)

    def test_max_iters_must_be_positive(self):
        GradientConfig(max_iters=1)
        with pytest.raises(ValueError):
            GradientConfig(max_iters=0)

    def test_gap_tolerance_must_be_nonnegative(self):
        GradientConfig(gap_tolerance=0.0)
        with pytest.raises(ValueError):
            GradientConfig(gap_tolerance=-1e-12)
        with pytest.raises(ValueError):
            GradientConfig(gap_tolerance=math.nan)


class TestTabularOptimality:
    def test_closed_form_maximizes_objective_under_simplex_perturbations(self):
        # First-order check: the realized objective sum w*prev*log(new) does
        # not increase along 100 random zero-sum directions of norm 1e-3.
        rng = np.random.default_rng(19)
        space = PromptSpace(
            {"p": tuple(f"c{j}" for j in range(5))},
            {"p": {f"c{j}": str(j) for j in range(5)}},
        )
        prev = rng.dirichlet(np.ones(5))
        pi0 = TabularPolicy(space, {"p": prev})
        g = rng.uniform(0.2, 3.0, 5)
        new = closed_form_update(pi0, np.log(g)).distribution("p")
        eff = prev * g  # effective weights of the per-prompt objective

        def objective(q):
            if np.any(q <= 0):
                return -np.inf
            return float(np.dot(eff, np.log(q)))

        base = objective(new)
        for _ in range(100):
            direction = rng.normal(size=5)
            direction -= direction.mean()  # stay on the simplex tangent
            direction *= 1e-3 / np.linalg.norm(direction)
            perturbed = new + direction
            if np.any(perturbed < 0):
                continue
            assert objective(perturbed / perturbed.sum()) <= base + 1e-12


class TestTiltDistribution:
    def test_zero_mass_raises(self):
        with pytest.raises(ValueError):
            tilt_distribution(np.array([1.0, 0.0]), np.array([0.0, 5.0]))

    def test_log_and_linear_paths_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            prev = rng.dirichlet(np.ones(6))
            w = rng.uniform(0.0, 3.0, 6)
            w[int(rng.integers(6))] = 0.0
            if (w * prev).sum() == 0:
                continue
            with np.errstate(divide="ignore"):
                lw = np.log(w)
            np.testing.assert_allclose(
                tilt_distribution(prev, w),
                tilt_distribution(prev, lw, log=True),
                rtol=0,
                atol=1e-15,
            )
