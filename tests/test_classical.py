import itertools

import numpy as np
import pytest

from retrosmooth.classical import (
    ClassicalModel,
    classical_filter,
    classical_retrofilter,
    classical_smooth,
    classical_smooth_all,
    conditional_map,
    sample_classical_trajectories,
)
from retrosmooth.errors import InvalidMatrix, UnknownOutcome, ZeroProbabilityRecord

# 2-state chain used throughout: measure, then hop.
D2 = np.array([[0.9, 0.2], [0.1, 0.8]])
L2 = {"0": np.array([0.8, 0.3]), "1": np.array([0.2, 0.7])}


def model2():
    return ClassicalModel(D2, L2)


def model3():
    d = np.array([[0.7, 0.15, 0.1], [0.2, 0.7, 0.2], [0.1, 0.15, 0.7]])
    like = {"a": np.array([0.6, 0.25, 0.1]), "b": np.array([0.4, 0.75, 0.9])}
    return ClassicalModel(d, like)


def path_posterior(model, prior, record, t):
    """Brute-force posterior p(x_t | record) by enumerating every state path.

    Weights each path x_0..x_T by prior(x_0) * prod_s p(y_s|x_s) D(x_{s+1}|x_s)
    and marginalizes; completely independent of the recursive implementation.
    """
    n = model.n_states
    steps = len(record)
    post = np.zeros(n)
    total = 0.0
    for path in itertools.product(range(n), repeat=steps + 1):
        w = prior[path[0]]
        for s, y in enumerate(record):
            w *= model.likelihood[y][path[s]] * model.transition[path[s + 1], path[s]]
        total += w
        post[path[t]] += w
    return post / total, total


class TestModel:
    def test_bad_columns(self):
        with pytest.raises(InvalidMatrix):
            ClassicalModel(np.array([[0.9, 0.2], [0.2, 0.8]]), L2)

    def test_bad_likelihood_sum(self):
        with pytest.raises(InvalidMatrix):
            ClassicalModel(D2, {"0": np.array([0.8, 0.3]), "1": np.array([0.3, 0.7])})


class TestConditionalMap:
    def test_noiseless_static(self):
        model = ClassicalModel(
            np.eye(2), {"0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0])}
        )
        np.testing.assert_allclose(conditional_map(model, "0"), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(conditional_map(model, "1"), np.diag([0.0, 1.0]))

    def test_hand_value(self):
        np.testing.assert_allclose(
            conditional_map(model2(), "0"), [[0.72, 0.06], [0.08, 0.24]], atol=1e-15
        )

    def test_completeness(self):
        model = model3()
        total = sum(conditional_map(model, y) for y in model.outcome_labels)
        np.testing.assert_allclose(total, model.transition, atol=1e-14)

    def test_unknown_outcome(self):
        with pytest.raises(UnknownOutcome):
            conditional_map(model2(), "z")


class TestFilter:
    def test_empty_record(self):
        p, ll = classical_filter(model2(), [0.5, 0.5], [])
        np.testing.assert_allclose(p, [0.5, 0.5])
        assert ll == 0.0

    def test_delta_stays_delta(self):
        model = ClassicalModel(
            np.eye(2), {"0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0])}
        )
        p, _ = classical_filter(model, [1.0, 0.0], ["0", "0", "0"])
        np.testing.assert_allclose(p, [1.0, 0.0])

    def test_against_path_enumeration(self):
        model = model2()
        prior = np.array([0.5, 0.5])
        record = ("0", "0", "1")
        p, ll = classical_filter(model, prior, record)
        expected, total = path_posterior(model, prior, record, t=len(record))
        np.testing.assert_allclose(p, expected, atol=1e-12)
        assert abs(np.exp(ll) - total) < 1e-12

    def test_impossible_record(self):
        model = ClassicalModel(
            np.eye(2), {"0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0])}
        )
        with pytest.raises(ZeroProbabilityRecord):
            classical_filter(model, [1.0, 0.0], ["1"])


class TestRetrofilter:
    def test_empty_future_uninformative(self):
        np.testing.assert_allclose(classical_retrofilter(model2(), []), [1.0, 1.0])

    def test_single_step_static(self):
        model = ClassicalModel(
            np.eye(2), {"0": np.array([0.8, 0.3]), "1": np.array([0.2, 0.7])}
        )
        np.testing.assert_allclose(classical_retrofilter(model, ["0"]), [0.8, 0.3])

    def test_against_path_enumeration(self):
        model = model2()
        record = ("1", "0")
        e = classical_retrofilter(model, record)
        # oracle: p(record | x_t = x) by summing over future paths from x
        n = model.n_states
        expected = np.zeros(n)
        for x0 in range(n):
            for path in itertools.product(range(n), repeat=len(record)):
                w = 1.0
                prev = x0
                for s, y in enumerate(record):
                    w *= model.likelihood[y][prev] * model.transition[path[s], prev]
                    prev = path[s]
                expected[x0] += w
        np.testing.assert_allclose(e, expected, atol=1e-12)


class TestSmooth:
    def test_empty_future_is_filtering(self):
        model = model2()
        prior = np.array([0.3, 0.7])
        past = ("0", "1")
        np.testing.assert_allclose(
            classical_smooth(model, prior, past, ()),
            classical_filter(model, prior, past)[0],
            atol=1e-12,
        )

    def test_empty_past_uniform_prior(self):
        model = model2()
        future = ("1", "0")
        e = classical_retrofilter(model, future)
        np.testing.assert_allclose(
            classical_smooth(model, [0.5, 0.5], (), future), e / e.sum(), atol=1e-12
        )

    def test_against_path_enumeration(self):
        model = model2()
        prior = np.array([0.5, 0.5])
        record = ("0", "0", "1", "0")
        t = 2
        got = classical_smooth(model, prior, record[:t], record[t:])
        expected, _ = path_posterior(model, prior, record, t)
        assert np.abs(got - expected).max() <= 1e-10

    def test_three_state_all_splits(self):
        model = model3()
        prior = np.array([0.5, 0.3, 0.2])
        record = ("a", "b", "b", "a")
        for t in range(len(record) + 1):
            got = classical_smooth(model, prior, record[:t], record[t:])
            expected, _ = path_posterior(model, prior, record, t)
            assert np.abs(got - expected).max() <= 1e-10

    def test_consistency_identity(self):
        # sum_x p_F(x) E_R(x) * p(past) == p(full record), on every split
        model = model3()
        prior = np.array([0.2, 0.5, 0.3])
        record = ("a", "b", "a", "b")
        _, full = path_posterior(model, prior, record, 0)
        for t in range(len(record) + 1):
            p_f, ll = classical_filter(model, prior, record[:t])
            e_r = classical_retrofilter(model, record[t:])
            assert abs(float(p_f @ e_r) * np.exp(ll) - full) < 1e-10


def loop_filter(model, prior, past):
    """Reference: the per-step forward loop that the forward recursion replaced."""
    p, loglik = np.clip(np.asarray(prior, dtype=float), 0.0, None), 0.0
    for y in past:
        v = conditional_map(model, y) @ p
        p, loglik = v / v.sum(), loglik + float(np.log(v.sum()))
    return p, loglik


def loop_retrofilter(model, future):
    """Reference: the per-step backward loop that the backward recursion replaced."""
    e = np.ones(model.n_states)
    for y in reversed(future):
        e = conditional_map(model, y).T @ e
    return e


class TestEverySplit:
    @pytest.mark.parametrize("chain", [model2, model3])
    def test_every_split_has_the_bits_of_one_split_at_a_time(self, chain):
        model = chain()
        prior = np.arange(1.0, model.n_states + 1) / np.arange(1.0, model.n_states + 1).sum()
        for steps in range(9):
            for record in itertools.product(model.outcome_labels, repeat=steps):
                every = classical_smooth_all(model, prior, record)
                assert every.shape == (steps + 1, model.n_states)
                for t in range(steps + 1):
                    past, future = record[:t], record[t:]
                    one = classical_smooth(model, prior, past, future)
                    assert one.tobytes() == every[t].tobytes(), (record, t)
                    p_f, loglik = classical_filter(model, prior, past)
                    e_r = classical_retrofilter(model, future)
                    p_ref, loglik_ref = loop_filter(model, prior, past)
                    assert p_f.tobytes() == p_ref.tobytes() and loglik == loglik_ref
                    assert e_r.tobytes() == loop_retrofilter(model, future).tobytes()
                    s = p_f * e_r
                    assert one.tobytes() == (s / s.sum()).tobytes()

    def test_errors_keep_their_types_and_messages(self):
        delta = ClassicalModel(np.eye(2), {"0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0])})
        with pytest.raises(ZeroProbabilityRecord, match="record has zero probability at outcome '1'"):
            classical_smooth_all(delta, [1.0, 0.0], ("0", "1"))
        with pytest.raises(ZeroProbabilityRecord, match="^combined record has zero probability$"):
            classical_smooth(delta, [1.0, 0.0], ("0",), ("1",))
        with pytest.raises(UnknownOutcome):
            classical_smooth_all(model2(), [0.5, 0.5], ("0", "z"))


def sequential_trajectory(model, prior, steps, gen):
    """Reference sampler: one ``Generator.choice`` per draw, emission before transition."""
    labels = model.outcome_labels
    like = np.stack([model.likelihood[y] for y in labels])
    x = int(gen.choice(model.n_states, p=np.asarray(prior, dtype=float)))
    path, record = [x], []
    for _ in range(steps):
        record.append(labels[int(gen.choice(len(labels), p=like[:, x]))])
        x = int(gen.choice(model.n_states, p=model.transition[:, x]))
        path.append(x)
    return path, record


class TestSampling:
    def test_zero_steps(self):
        (path,), (record,) = sample_classical_trajectories(model2(), [0.5, 0.5], 0, 1, 1)
        assert record == [] and len(path) == 1

    def test_deterministic_model(self):
        model = ClassicalModel(
            np.eye(2), {"0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0])}
        )
        (path,), (record,) = sample_classical_trajectories(model, [0.0, 1.0], 4, 1, 7)
        assert path == [1] * 5
        assert record == ["1"] * 4

    def test_seed_determinism(self):
        a = sample_classical_trajectories(model2(), [0.5, 0.5], 6, 1, 99)
        b = sample_classical_trajectories(model2(), [0.5, 0.5], 6, 1, 99)
        assert a == b

    @pytest.mark.parametrize("seed", [3, 99, 2024])
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("chain", ["two-state", "three-state"])
    def test_lockstep_matches_sequential_loop(self, chain, n, seed):
        model, prior = (model2(), [0.5, 0.5]) if chain == "two-state" else (model3(), [0.5, 0.3, 0.2])
        gen = np.random.default_rng(seed)
        expected = [sequential_trajectory(model, prior, 6, gen) for _ in range(n)]
        after = gen.random()
        gen = np.random.default_rng(seed)
        paths, records = sample_classical_trajectories(model, prior, 6, n, gen)
        assert paths == [p for p, _ in expected]
        assert records == [r for _, r in expected]
        assert gen.random() == after

    def test_record_frequencies(self):
        model = model2()
        prior = np.array([0.5, 0.5])
        steps, n = 3, 100_000
        rng = np.random.default_rng(12345)
        counts: dict[tuple, int] = {}
        for rec in sample_classical_trajectories(model, prior, steps, n, rng)[1]:
            counts[tuple(rec)] = counts.get(tuple(rec), 0) + 1
        for rec in itertools.product(model.outcome_labels, repeat=steps):
            _, p = path_posterior(model, prior, rec, 0)
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts.get(rec, 0) / n - p) <= 3 * sigma + 1e-12
