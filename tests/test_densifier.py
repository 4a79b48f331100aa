import math

import numpy as np
import pytest

from quadgauss.densifier import (
    BudgetExhaustedError,
    DensifierConfig,
    EllipsoidLearner,
    KappaFlipError,
    PerceptronLearner,
    densify,
    feature_dim,
    feature_map,
    _sampler_positives,
    planted_experiment,
    quadratic_from_weights,
    weights_from_quadratic,
)
from quadgauss.numerics import Rng
from quadgauss.quadform import QuadraticForm, evaluate, sign_at


class TestFeatureMap:
    def test_one_dim(self):
        assert feature_map(np.array([2.0])).tolist() == [2.0, 4.0, 1.0]

    def test_origin(self):
        assert feature_map(np.zeros(2)).tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    def test_dimension_formula(self):
        for n in (1, 2, 3, 7):
            assert feature_map(np.zeros(n)).shape == (feature_dim(n),)
            assert feature_dim(n) == n + n * (n + 1) // 2 + 1

    def test_roundtrip_with_quadratic(self):
        gen = np.random.default_rng(0)
        for n in (1, 2, 4):
            m = gen.normal(size=(n, n))
            q = QuadraticForm(A=0.5 * (m + m.T), b=gen.normal(size=n), c=float(gen.normal()))
            w = weights_from_quadratic(q)
            for _ in range(20):
                x = gen.normal(size=n)
                assert float(w @ feature_map(x)) == pytest.approx(
                    evaluate(q, x), rel=1e-12, abs=1e-12
                )
            q2 = quadratic_from_weights(w, n)
            assert np.allclose(q2.A, q.A) and np.allclose(q2.b, q.b) and q2.c == q.c


def separable_stream(gen, dim, k, margin=0.05):
    """Labeled examples consistent with a hidden unit halfspace at a margin."""
    w_star = gen.normal(size=dim)
    w_star /= np.linalg.norm(w_star)
    pts = []
    while len(pts) < k:
        v = gen.normal(size=dim)
        v /= np.linalg.norm(v)
        s = float(w_star @ v)
        if abs(s) >= margin:
            pts.append((v, 1 if s > 0 else -1))
    return pts


class TestLearners:
    def test_ellipsoid_mistake_bound_on_separable_stream(self):
        gen = np.random.default_rng(1)
        dim = 6
        learner = EllipsoidLearner(dim, margin_floor=1e-4)
        for v, label in separable_stream(gen, dim, 400):
            learner.update(v, label)
        assert learner.mistakes <= learner.mistake_bound()
        # consistency with everything fed so far
        for v, label in learner._examples:
            assert learner.predict(v) == label

    def test_ellipsoid_initial_hypothesis_all_positive(self):
        learner = EllipsoidLearner(4)
        assert learner.predict(np.array([0.5, -1.0, 0.0, 2.0])) == 1

    def test_perceptron_learns_separable(self):
        gen = np.random.default_rng(2)
        dim = 5
        learner = PerceptronLearner(dim)
        stream = separable_stream(gen, dim, 2000, margin=0.2)
        for v, label in stream:
            learner.update(v, label)
        assert learner.mistakes <= (1.0 / 0.2) ** 2 + 1
        errs = sum(1 for v, label in stream[-200:] if learner.predict(v) != label)
        assert errs <= 10

    def test_mistake_counter_only_on_wrong_predictions(self):
        learner = EllipsoidLearner(3)
        learner.update(np.array([1.0, 0.0, 0.0]), +1)  # predicted +1 already
        assert learner.mistakes == 0
        learner.update(np.array([0.0, 1.0, 0.0]), -1)  # zero center predicts +1
        assert learner.mistakes == 1

    def test_contradictory_stream_raises(self):
        from quadgauss.densifier import MarginError

        learner = EllipsoidLearner(3)
        v = np.array([1.0, 0.0, 0.0])
        learner.update(v, +1)
        with pytest.raises(MarginError):
            learner.update(v, -1)  # no halfspace satisfies both


def _planted_source(f, rng, chunk=1 << 14):
    state = {"i": 0}

    def source(k):
        out = []
        got = 0
        while got < k:
            g = rng.derive(state["i"]).normal(size=(chunk, f.n))
            state["i"] += 1
            pts = g[np.asarray(sign_at(f, g)) == 1]
            if pts.size:
                out.append(pts)
                got += pts.shape[0]
        return np.concatenate(out)[:k]

    return source


class TestDensify:
    def test_all_plus_short_circuit(self):
        # a dense target lets the all-positive initial hypothesis terminate
        # at round zero via the density test
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        cfg = DensifierConfig(eps=0.2, delta=0.2, n_pos=1000, p_hat=0.64)
        res = densify(_planted_source(f, Rng(3)), cfg, Rng(4))
        assert res.rounds == 0
        assert res.mistakes == 0
        assert res.density_estimate == 1.0
        events = [e["event"] for e in res.transcript]
        assert events == ["count", "terminate"]

    def test_learning_path_via_thin_target(self):
        # a target thin enough that the all-plus hypothesis fails the
        # density test, so negative rounds and real learning happen
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        truth = 0.0018658133003840102  # Phi(-2.9), frozen from erfc
        budget = 30
        gamma = 1.0 / (8.0 * budget)
        p_hat = truth * 1.05
        assert p_hat < gamma / 2.0  # the run cannot short-circuit at round 0
        cfg = DensifierConfig(
            eps=0.2,
            delta=0.2,
            mistake_budget=budget,
            n_pos=1000,
            p_hat=p_hat,
            sample_tau=2.0**-4,
        )
        res = densify(
            _planted_source(f, Rng(5)), cfg, Rng(6), f_oracle=lambda p: sign_at(f, p)
        )
        assert res.rounds > 0
        assert res.mistakes <= budget
        # terminated by the density test: hypothesis mass dropped under the bar
        assert res.density_estimate <= 2.0 * p_hat / gamma + 0.05
        # label soundness surrogate: fed labels match the true target except
        # for at most a gamma*M + 1% fraction
        fed = [e for e in res.transcript if "label" in e]
        wrong = sum(1 for e in fed if e["label"] != e["true_label"])
        assert wrong / len(fed) <= gamma * budget + 0.01
        # hypothesis still covers the positive region
        fresh = _planted_source(f, Rng(7))(2000)
        assert np.mean(np.asarray(sign_at(res.hypothesis, fresh)) == 1) >= 0.6

    def test_budget_exhaustion_reports_transcript(self):
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        cfg = DensifierConfig(
            eps=0.2,
            delta=0.2,
            mistake_budget=30,
            n_pos=1000,
            p_hat=0.00196,
            max_rounds=0,
            sample_tau=2.0**-4,
        )
        with pytest.raises(BudgetExhaustedError) as err:
            densify(_planted_source(f, Rng(8)), cfg, Rng(9))
        assert isinstance(err.value.transcript, list)

    def test_requires_p_hat(self):
        cfg = DensifierConfig()
        with pytest.raises(ValueError):
            densify(lambda k: np.zeros((k, 2)), cfg, Rng(0))

    def test_transcript_schema(self):
        import json

        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        cfg = DensifierConfig(eps=0.2, delta=0.2, n_pos=1000, p_hat=0.64)
        res = densify(_planted_source(f, Rng(13)), cfg, Rng(14))
        allowed = {"pos_mistake", "neg_feed", "count", "terminate"}
        for line in res.transcript_jsonl().splitlines():
            event = json.loads(line)
            assert isinstance(event["step"], int)
            assert event["event"] in allowed

    def test_coarse_kappa_raises_typed_error(self):
        # kappa = 1 rounds fed points so coarsely that the learner's
        # prediction flips on a third of them
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        cfg = DensifierConfig(
            eps=0.2,
            delta=0.2,
            mistake_budget=30,
            n_pos=1000,
            p_hat=0.00196,
            sample_tau=2.0**-4,
            kappa=1.0,
        )
        with pytest.raises(KappaFlipError, match="kappa rounding flipped") as err:
            densify(_planted_source(f, Rng(5)), cfg, Rng(6))
        assert any(e["event"] == "terminate" for e in err.value.transcript)

    def test_n_pos_floor_enforced(self):
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        cfg = DensifierConfig(eps=0.1, delta=0.1, n_pos=10, p_hat=0.64)
        with pytest.raises(ValueError):
            densify(_planted_source(f, Rng(15)), cfg, Rng(16))


class TestPlantedExperiment:
    def test_dense_disc_target(self):
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(10))
        assert rep["passed_a"] and rep["passed_b"]
        assert rep["mistakes"] <= rep["mistake_budget"]
        assert rep["agreement"] >= 0.8

    def test_halfspace_target(self):
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-1.0)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(11))
        assert rep["passed_a"] and rep["passed_b"]
        assert rep["density"] >= 1.0 / (8.0 * rep["mistake_budget"])

    def test_thin3_report_pinned(self):
        # recorded with serial block draws; threaded block draws must agree
        f = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)
        rep = planted_experiment(
            f, DensifierConfig(eps=0.1, delta=0.1), Rng(1).derive(4), n_validation=3000
        )
        assert rep == {
            "n": 3,
            "p_estimate": 0.001361162791277045,
            "p_hat": 0.0014065348843196133,
            "mistakes": 0,
            "rounds": 0,
            "gamma": 4.098360655737705e-05,
            "mistake_budget": 3050,
            "agreement": 1.0,
            "agreement_ci": 0.0,
            "density": 0.0016666666666666668,
            "density_ci": 0.0019184363385802473,
            "kappa_flip_fraction": 0.0,
            "passed_a": True,
            "passed_b": True,
            "transcript_events": 2,
        }

    def test_sampler_positives_are_fresh_across_calls(self):
        # the low-mass positive source continues one stream: a second call
        # must not replay the first call's points
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-4.0)
        pos = _sampler_positives(f, 0.1, Rng(2).derive(2))
        a, b = pos(3), pos(3)
        assert np.all(a[:, 0] >= 4.0) and np.all(b[:, 0] >= 4.0)
        assert not np.any(np.isin(b, a))

    def test_constant_positive_target(self):
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(12))
        assert rep["agreement"] == 1.0
        assert rep["density"] == 1.0
