import hashlib
import math
import sys

import numpy as np
import pytest

from quadgauss import counter, densifier, numerics, quadform
from quadgauss.densifier import (
    BudgetExhaustedError,
    DensifierConfig,
    EllipsoidLearner,
    KappaFlipError,
    densify,
    feature_dim,
    feature_map,
    _region_source,
    _rejection_sample,
    planted_experiment,
    quadratic_from_weights,
    weights_from_quadratic,
)
from quadgauss.counter import count_ptf_gaussian, mc_count
from quadgauss.numerics import Rng
from quadgauss.quadform import DecoupledConstraint, QuadraticForm, decouple, evaluate, sign_at
from test_acceptance import _c7_targets

C7_TARGETS = _c7_targets()
# |x|^2 >= 20: its box is all of R^2
RING = QuadraticForm(A=np.eye(2), b=np.zeros(2), c=-20.0)


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
        learner = EllipsoidLearner(dim)
        for v, label in separable_stream(gen, dim, 400):
            learner.update(v, label)
        assert learner.mistakes <= learner.cut_budget
        # consistency with everything fed so far
        for v, label in learner._examples:
            assert learner.predict(v) == label

    def test_ellipsoid_initial_hypothesis_all_positive(self):
        learner = EllipsoidLearner(4)
        assert learner.predict(np.array([0.5, -1.0, 0.0, 2.0])) == 1

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
        if k == 0:
            return np.empty((0, f.n))
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
        cfg = DensifierConfig(eps=0.2, delta=0.2, n_pos=1000)
        res = densify(_planted_source(f, Rng(3)), 0.64, cfg, Rng(4))
        assert res.rounds == 0
        assert res.mistakes == 0
        assert res.density_estimate == 1.0
        events = [e["event"] for e in res.transcript]
        assert events == ["count", "terminate"]

    def test_round_zero_stop_draws_nothing(self):
        # the all-plus hypothesis covers any pool, so a run that stops at
        # round zero never asks the source for one; n comes from a
        # zero-point request
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        inner = _planted_source(f, Rng(3))
        requests = []

        def source(k):
            if requests:
                raise AssertionError(f"{k} points requested after the zero-point request")
            requests.append(k)
            return inner(k)

        res = densify(source, 0.64, DensifierConfig(eps=0.2, delta=0.2, n_pos=1000), Rng(4))
        assert res.rounds == 0 and requests == [0]

    @pytest.mark.parametrize("p_hat", [0.0, -0.5, 1.5, math.inf, math.nan])
    def test_p_hat_out_of_range_rejected_before_peek(self, p_hat):
        # the peek is the zero-point request that gives n; no request at all
        # may come before p_hat is checked
        def no_source(k):
            raise AssertionError("the source was read before p_hat was checked")

        with pytest.raises(ValueError, match=r"^p_hat must lie in \(0, 1\], got"):
            densify(no_source, p_hat, DensifierConfig(), Rng(0))

    @pytest.mark.parametrize(
        "reply, shape",
        [
            (lambda k: np.zeros((1, 2)), r"\(1, 2\)"),  # ignores k
            (lambda k: np.zeros((k + 5, 3)), r"\(5, 3\)"),  # ignores k
            (lambda k: np.zeros(2), r"\(2,\)"),
            (lambda k: np.zeros(k), r"\(0,\)"),
            (lambda k: np.empty((0, 0)), r"\(0, 0\)"),
        ],
        ids=["one-row", "k-plus-five-rows", "one-dim", "one-dim-empty", "no-columns"],
    )
    def test_bad_zero_point_reply_rejected_before_count(self, monkeypatch, reply, shape):
        def no_count(*args, **kwargs):
            raise AssertionError("a hypothesis was counted before the reply was checked")

        monkeypatch.setattr(densifier, "count_ptf_gaussian", no_count)
        message = rf"^pos_source\(0\) returned shape {shape}, expected \(0, n\)$"
        with pytest.raises(ValueError, match=message):
            densify(reply, 0.5, DensifierConfig(eps=0.2, delta=0.2, n_pos=1000), Rng(0))

    def test_short_pool_rejected(self):
        # p_hat below gamma/2 takes the run past round zero, where the
        # learned hypothesis needs the pool, and the source comes up short
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        inner = _planted_source(f, Rng(5))
        cfg = DensifierConfig(eps=0.2, delta=0.2, mistake_budget=30, n_pos=1000)
        shape = r"^pos_source\(1000\) returned shape \(999, 2\), expected \(1000, 2\)"
        with pytest.raises(ValueError, match=shape):
            densify(lambda k: inner(k)[: max(k - 1, 1)], 3e-4, cfg, Rng(6))

    @staticmethod
    def _learning_run():
        # a target thin enough that the all-plus hypothesis fails the
        # density test, so negative rounds and real learning happen
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        truth = 0.0018658133003840102  # Phi(-2.9), frozen from erfc
        p_hat = truth * 1.05
        cfg = DensifierConfig(eps=0.2, delta=0.2, mistake_budget=30, n_pos=1000)
        res = densify(
            _planted_source(f, Rng(5)), p_hat, cfg, Rng(6), f_oracle=lambda p: sign_at(f, p)
        )
        return f, p_hat, res

    def test_learning_path_via_thin_target(self):
        f, p_hat, res = self._learning_run()
        budget = 30
        gamma = 1.0 / (8.0 * budget)
        assert p_hat < gamma / 2.0  # the run cannot short-circuit at round 0
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

    def test_learning_path_transcript_pinned(self):
        # the full event stream of a run that leaves round 0: pool mistakes,
        # hypothesis counts, a negative draw and the density stop
        _, _, res = self._learning_run()
        assert res.rounds == 1 and res.mistakes == 3
        digest = hashlib.sha256(res.transcript_jsonl().encode()).hexdigest()
        assert digest == "3b29c087dbade2df27a6da39cf9b22c58de28a936beb7d9ec6b0eefdd7617068"

    def test_negative_round_on_sampler_branch(self, monkeypatch):
        # a least acceptance rate above 1 sends every region to the sampler;
        # a p_hat below the target's mass keeps the run going past the
        # constant round-0 hypothesis, so tables for learned g are drawn from
        monkeypatch.setattr(densifier, "_MIN_ACCEPT", 2.0)
        drawn = []

        class Recording(densifier.PtfSampler):
            def sample(self, rng, exact_filter=False):
                x = super().sample(rng, exact_filter)
                drawn.append((self.original, self.rounded is None, exact_filter, x))
                return x

        monkeypatch.setattr(densifier, "PtfSampler", Recording)
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        cfg = DensifierConfig(eps=0.2, delta=0.2, mistake_budget=30, n_pos=1000)
        res = densify(_planted_source(f, Rng(5)), 3e-4, cfg, Rng(6))
        negs = [e for e in res.transcript if e["event"] == "neg_feed"]
        assert len(negs) == len(drawn) == res.rounds
        assert sum(not constant for _, constant, _, _ in drawn) >= 2
        for e, (g, _, exact_filter, x) in zip(negs, drawn):
            assert exact_filter and e["x"] == x.tolist()
            assert sign_at(g, x) == 1

    def test_budget_exhaustion_reports_transcript(self, monkeypatch):
        # every negative draw is the same point; once it has been fed, the
        # learner stays consistent with it, so later rounds make no mistake
        # and only the round budget 4M + 16 = 36 can end the run
        monkeypatch.setattr(densifier, "_region_source", lambda *args: lambda k: np.array([[-5.0, 0.0]]))
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        cfg = DensifierConfig(eps=0.2, delta=0.2, mistake_budget=5, n_pos=1000)
        with pytest.raises(BudgetExhaustedError, match="round budget 36 exhausted") as err:
            densify(_planted_source(f, Rng(8)), 0.00196, cfg, Rng(9))
        negs = [e for e in err.value.transcript if e["event"] == "neg_feed"]
        assert len(negs) == 36
        assert sum(e["mistake"] for e in negs) == 1

    def test_transcript_schema(self):
        import json

        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        cfg = DensifierConfig(eps=0.2, delta=0.2, n_pos=1000)
        res = densify(_planted_source(f, Rng(13)), 0.64, cfg, Rng(14))
        allowed = {"pos_mistake", "neg_feed", "count", "terminate"}
        for line in res.transcript_jsonl().splitlines():
            event = json.loads(line)
            assert isinstance(event["step"], int)
            assert event["event"] in allowed

    def test_coarse_kappa_raises_typed_error(self, monkeypatch):
        # kappa = 4 rounds every point of the target x >= 6 (n = 1) to 8, so
        # the learner sees the same pool whatever is drawn.  Once it has fed
        # the round-0 negative (rounded to 0) and one pool point, it rejects
        # only about (-1.0, 0.9).  A negative then drawn with |x| < 2 is +1
        # raw but rounds to 0, which it rejects: about 6 in 7 of them flip,
        # while those rounded to +-4 carry the run to its density stop
        monkeypatch.setattr(densifier, "_KAPPA", 4.0)
        f = QuadraticForm(A=np.zeros((1, 1)), b=np.array([1.0]), c=-6.0)
        p = 0.5 * math.erfc(6.0 / math.sqrt(2.0))
        cfg = DensifierConfig(eps=0.2, delta=0.2, mistake_budget=30, n_pos=1000)
        for seed in (5, 7):
            pos = _region_source(f, decouple(f), p, 0.2, Rng(seed))
            with pytest.raises(KappaFlipError, match="kappa rounding flipped") as err:
                densify(pos, 1.05 * p, cfg, Rng(seed + 1))
            assert err.value.transcript[-1]["event"] == "terminate"
            fed_pool = [e["x"] for e in err.value.transcript if e["event"] == "pos_mistake"]
            assert fed_pool and np.all(densifier._round_kappa(np.array(fed_pool)) == 8.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"eps": 0.0}, {"delta": 0.0}, {"delta": 1.5}, {"mistake_budget": -1}, {"n_pos": 0}],
    )
    def test_config_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            DensifierConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"n_pos": 5000.7}, {"n_pos": 5000.0}, {"mistake_budget": 2.5}, {"mistake_budget": "8"}]
    )
    def test_config_rejects_non_integer_counts(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            DensifierConfig(**kwargs)

    def test_config_keeps_numpy_integer_counts_as_int(self):
        cfg = DensifierConfig(n_pos=np.int64(5000), mistake_budget=np.int32(8)).resolve(2)
        assert (cfg.n_pos, cfg.mistake_budget) == (5000, 8)
        assert type(cfg.n_pos) is int and type(cfg.mistake_budget) is int

    def test_n_pos_floor_enforced(self):
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        cfg = DensifierConfig(eps=0.1, delta=0.1, n_pos=10)
        with pytest.raises(ValueError):
            densify(_planted_source(f, Rng(15)), 0.64, cfg, Rng(16))


def _recording_samplers(monkeypatch) -> list:
    """The forms that densifier builds a PtfSampler for, from now on."""
    samplers = []

    class Recording(densifier.PtfSampler):
        def __init__(self, q, *args, **kwargs):
            samplers.append(q)
            super().__init__(q, *args, **kwargs)

    monkeypatch.setattr(densifier, "PtfSampler", Recording)
    return samplers


def _recording_rejections(monkeypatch) -> list:
    """The forms that densifier builds a rejection source for, from now on."""
    sources = []
    monkeypatch.setattr(
        densifier, "_rejection_sample", lambda q, *args: sources.append(q) or _rejection_sample(q, *args)
    )
    return sources


def _recording_requests(monkeypatch) -> list:
    """(form, k) for every request to a region source densifier builds."""
    requests = []

    def recording(q, *args):
        source = _region_source(q, *args)
        return lambda k: requests.append((q, k)) or source(k)

    monkeypatch.setattr(densifier, "_region_source", recording)
    return requests


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
            "p_estimate": 0.0013611627912770425,
            "p_hat": 0.0014065348843196107,
            "mistakes": 0,
            "rounds": 0,
            "gamma": 4.098360655737705e-05,
            "mistake_budget": 3050,
            "agreement": 1.0,
            # 1 - the 99% Wilson lower bound at 3000 of 3000
            "agreement_ci": 0.0022067516772727967,
            # agreement 1.0 and g = +1 everywhere (MC mass exactly 1), so
            # density = p and density_ci = p * agreement_ci
            "density": 0.0013611627912770425,
            "density_ci": 3.003748272691935e-06,
            "kappa_flip_fraction": 0.0,
            "passed_a": True,
            "passed_b": True,
            "transcript_events": 2,
        }

    def test_each_form_decoupled_once(self, monkeypatch):
        # x1 >= 4 at seed 1 takes one negative round, so it meets 3 forms:
        # the target and the hypotheses of rounds 0 and 1; decouple is
        # counted under every name the package looks it up by
        forms = []
        original = quadform.decouple
        for name, module in list(sys.modules.items()):
            if name.startswith("quadgauss") and getattr(module, "decouple", None) is original:
                monkeypatch.setattr(module, "decouple", lambda q: forms.append(q) or original(q))
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-4.0)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(1), n_validation=3000)
        assert rep["rounds"] == 1
        assert len(forms) == 3 and len({id(q) for q in forms}) == 3 and forms[0] is f

    def test_sampler_positives_are_fresh_across_calls(self, monkeypatch):
        # the sampler branch continues one stream: a second call must not
        # replay the first call's points
        samplers = _recording_samplers(monkeypatch)
        pos = _region_source(RING, decouple(RING), 2.0e-5, 0.1, Rng(2))
        a, b = pos(3), pos(3)
        assert samplers == [RING]
        assert np.all(np.sum(a * a, axis=1) >= 20.0) and np.all(np.sum(b * b, axis=1) >= 20.0)
        assert not np.any(np.isin(b, a))

    def test_low_mass_target_draws_positives_from_sampler(self, monkeypatch):
        # |x|^2 >= 20 has its box all of R^2 and a counted mass of 2.0e-5,
        # so by that count one box proposal in 5e4 would be kept: the
        # positives come from one sampler, and the negatives, from learned
        # hypotheses of far larger mass, by rejection
        samplers = _recording_samplers(monkeypatch)
        rep = planted_experiment(RING, DensifierConfig(eps=0.1, delta=0.1), Rng(3), n_validation=500)
        assert samplers == [RING]
        assert rep["p_estimate"] < densifier._MIN_ACCEPT  # a box of mass 1
        assert rep["rounds"] > 0 and rep["mistakes"] <= rep["mistake_budget"]
        assert rep["agreement"] == 1.0 and rep["passed_a"]

    def test_box_bounded_low_mass_target_draws_by_rejection(self, monkeypatch):
        # x1 >= 3.75 has mass 8.8e-5, but its box [3.75, inf) x R holds
        # nothing else, so every box proposal is kept and no sampler is built;
        # the mass is above gamma/2, so the run stops at round 0
        samplers = _recording_samplers(monkeypatch)
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-3.75)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(3), n_validation=500)
        assert samplers == []
        assert rep["p_estimate"] < 1e-4
        assert rep["rounds"] == 0 and rep["mistakes"] == 0
        assert rep["agreement"] == 1.0 and rep["passed_a"]

    def test_c7_targets_draw_by_rejection(self, monkeypatch):
        # the densify-planted benchmark times box rejection on these targets
        sources, samplers = _recording_rejections(monkeypatch), _recording_samplers(monkeypatch)
        cfg = DensifierConfig(eps=0.1, delta=0.1)
        for f in C7_TARGETS:
            _region_source(f, decouple(f), count_ptf_gaussian(f, cfg.eps / 3.0).estimate, cfg.eps, Rng(1))
        assert sources == C7_TARGETS and samplers == []

    def _thin_hypothesis_run(self, monkeypatch):
        # the learner's output is replaced by g = x1 >= 3 for the target
        # f = x1 >= 1; every point of g lies in f
        thin = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-3.0)
        monkeypatch.setattr(
            densifier, "densify", lambda *args, **kwargs: densifier.DensifyResult(thin, [])
        )
        sources, samplers = _recording_rejections(monkeypatch), _recording_samplers(monkeypatch)
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-1.0)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(4))
        # only the target's positives are drawn; nothing is drawn from g
        assert sources == [f] and samplers == []
        assert 0.0 < rep["agreement"] < 0.1 and not rep["passed_a"]
        return thin, rep

    def test_density_from_agreement_and_hypothesis_mass(self, monkeypatch):
        thin, rep = self._thin_hypothesis_run(monkeypatch)
        joint = rep["p_estimate"] * rep["agreement"]
        g_mass, _ = mc_count(thin, 1 << 16, Rng(4).derive(4))
        # mass(g) = mass(f & g) here, so MC's mass(g) may fall below joint
        # (it does at this seed) and the max keeps density at most 1
        assert rep["density"] == joint / max(g_mass, joint)
        assert 0.0 <= rep["density"] <= 1.0

    def test_density_with_no_hypothesis_hits(self, monkeypatch):
        # an MC mass of 0 under a positive joint mass is clamped to it
        monkeypatch.setattr(densifier, "mc_count", lambda *args: (0.0, 0.0))
        _, rep = self._thin_hypothesis_run(monkeypatch)
        assert rep["density"] == 1.0 and rep["passed_b"]
        assert math.isfinite(rep["density_ci"])

    def test_decoupled_target_rejected_before_work(self, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("the target was counted before it was checked")

        monkeypatch.setattr(densifier, "count_ptf_gaussian", no_count)
        dc = DecoupledConstraint(
            lam=np.array([0.5, 0.5]), mu=np.zeros(2), theta=1.0, rotation=np.eye(2)
        )
        with pytest.raises(ValueError, match="decoupled"):
            planted_experiment(dc, DensifierConfig(), Rng(0))

    @pytest.mark.parametrize("n_validation", [0, -5, 2.5])
    def test_bad_validation_count_rejected_before_work(self, monkeypatch, n_validation):
        def no_count(*args, **kwargs):
            raise AssertionError("the target was counted before n_validation was checked")

        monkeypatch.setattr(densifier, "count_ptf_gaussian", no_count)
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107)
        with pytest.raises(ValueError, match="^n_validation must be"):
            planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(0), n_validation=n_validation)

    def test_constant_hypothesis_draws_no_validation_points(self, monkeypatch):
        # every C7 target stops at round 0 with g = R^n, which covers any
        # pool and makes the agreement exact, so the target source serves
        # only the zero-point request that gives n
        requests = _recording_requests(monkeypatch)
        f = C7_TARGETS[0]
        cfg = DensifierConfig(eps=0.1, delta=0.1)
        rep = planted_experiment(f, cfg, Rng(1), n_validation=3000)
        assert rep["rounds"] == 0 and rep["agreement"] == 1.0
        assert requests == [(f, 0)]
        # the Wilson half-width is still the one at n_validation
        z2 = 2.5758293035489004**2
        assert rep["agreement_ci"] == pytest.approx(z2 / (3000 + z2), rel=1e-12)

    def test_learning_run_still_draws_validation_points(self, monkeypatch):
        # x1 >= 4 leaves round 0; its hypothesis is not constant, so the
        # agreement is still measured on n_validation fresh target points
        requests = _recording_requests(monkeypatch)
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-4.0)
        cfg = DensifierConfig(eps=0.1, delta=0.1)
        rep = planted_experiment(f, cfg, Rng(1), n_validation=3000)
        assert rep["rounds"] >= 1
        # n from a zero-point request, then the pool
        assert [k for q, k in requests if q is f] == [0, cfg.resolve(f.n).n_pos, 3000]
        assert sum(1 for q, _ in requests if q is not f) == rep["rounds"]

    def test_round_zero_run_draws_no_block(self, monkeypatch):
        # a run that stops at round 0 draws no proposal block anywhere: not
        # for n, the pool, the validation points or the mass of g = R^n
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block of normals was drawn")

        monkeypatch.setattr(densifier, "normal_blocks", no_blocks)
        monkeypatch.setattr(counter, "normal_blocks", no_blocks)
        for f in C7_TARGETS:
            rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(1), n_validation=3000)
            assert rep["rounds"] == 0

    def test_round_zero_run_builds_no_generator_and_one_eigensolve(self, monkeypatch):
        # each stream of a round-0 run is only a derive parent or a block
        # seed, so none builds its generator; the target's decouple is the
        # one eigensolve, as g = R^n is counted without decoupling
        calls = {"philox": 0, "jacobi": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        monkeypatch.setattr(numerics, "_philox", counting("philox", numerics._philox))
        monkeypatch.setattr(quadform, "jacobi_eigen", counting("jacobi", quadform.jacobi_eigen))
        for f in C7_TARGETS:
            calls.update(philox=0, jacobi=0)
            rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(1), n_validation=3000)
            assert rep["rounds"] == 0
            assert calls == {"philox": 0, "jacobi": 1}

    def test_constant_positive_target(self):
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(12))
        assert rep["agreement"] == 1.0
        assert rep["density"] == 1.0


THIN3 = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)


def _box_source(q, rng):
    dc = densifier.decouple(q)
    return _rejection_sample(q, dc.rotation, *densifier.coordinate_box(dc), rng)


class TestRejectionSource:
    def test_calls_continue_one_stream(self):
        # 20,000 + 20,000 disc points cross a block of 2^15 proposals
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107)
        pos = _box_source(f, Rng(21))
        a, b = pos(20_000), pos(20_000)
        whole = _box_source(f, Rng(21))(40_000)
        assert np.array_equal(np.concatenate([a, b]), whole)
        assert not np.any(np.isin(b[:, 0], a[:, 0]))
        assert np.all(np.asarray(sign_at(f, whole)) == 1)

    @pytest.mark.parametrize("k", [-1, 2.5, True])
    def test_bad_count_rejected_before_a_block(self, monkeypatch, k):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block was drawn before k was checked")

        pos = _box_source(THIN3, Rng(26))
        monkeypatch.setattr(densifier, "normal_blocks", no_blocks)
        with pytest.raises(ValueError, match="^k must be"):
            pos(k)

    def test_zero_points_draw_no_block(self, monkeypatch):
        blocks = []

        def recording(*args, **kwargs):
            blocks.append(args)
            return numerics.normal_blocks(*args, **kwargs)

        monkeypatch.setattr(densifier, "normal_blocks", recording)
        pos = _box_source(THIN3, Rng(27))
        empty = pos(0)
        assert empty.shape == (0, 3) and blocks == []
        # the zero-point request leaves the stream where it was
        assert np.array_equal(pos(500), _box_source(THIN3, Rng(27))(500))
        assert len(blocks) == 2  # the wrapper sees the two sources' draws

    def test_starves_past_the_block_limit(self, monkeypatch):
        monkeypatch.setattr(densifier, "_BLOCK_LIMIT", densifier._FIRST_BLOCK + 1)
        pos = _box_source(THIN3, Rng(22))
        pos(30_000)
        with pytest.raises(RuntimeError, match="box rejection sampling starved"):
            pos(30_000)

    def test_thin3_positives_follow_the_conditioned_law(self):
        k = 60_000
        x = _box_source(THIN3, Rng(23))(k)
        assert np.all(x[:, 0] >= 3.0)
        # E[G | G >= 3] = phi(3) / (1 - Phi(3)); the variance there is 0.0705
        mills = 3.283098654930434
        assert abs(x[:, 0].mean() - mills) <= 4.0 * math.sqrt(0.0705 / k)
        assert np.all(np.abs(x[:, 1:].mean(axis=0)) <= 4.0 / math.sqrt(k))
        assert np.all(np.abs(x[:, 1:].var(axis=0) - 1.0) <= 4.0 * math.sqrt(2.0 / k))

    def test_rotated_target_matches_plain_rejection(self):
        # a shifted ellipse off the axes: the box lives in rotated
        # coordinates, so a wrong rotation would bias the moments
        c, s = math.cos(0.6), math.sin(0.6)
        rot = np.array([[c, -s], [s, c]])
        f = QuadraticForm(A=-rot @ np.diag([1.0, 4.0]) @ rot.T, b=np.array([0.8, -0.5]), c=0.3)
        lo, hi = densifier.coordinate_box(densifier.decouple(f))
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        k = 40_000
        box = _box_source(f, Rng(24))(k)
        g = np.random.default_rng(24).normal(size=(2_000_000, 2))
        plain = g[np.asarray(sign_at(f, g)) == 1][:k]
        assert plain.shape[0] == k
        se = np.sqrt(box.var(axis=0) / k + plain.var(axis=0) / k)
        assert np.all(np.abs(box.mean(axis=0) - plain.mean(axis=0)) <= 4.5 * se)
        se2 = np.sqrt(((box**2).var(axis=0) + (plain**2).var(axis=0)) / k)
        assert np.all(np.abs((box**2).mean(axis=0) - (plain**2).mean(axis=0)) <= 4.5 * se2)

    def test_thin3_experiment_draws_few_points(self, monkeypatch):
        # box proposals accept almost every point; rejection from all of
        # R^3 would test about n / p = 10M points for the same run
        tested = []

        def counting(q, x):
            tested.append(1 if np.ndim(x) == 1 else np.shape(x)[0])
            return sign_at(q, x)

        monkeypatch.setattr(densifier, "sign_at", counting)
        rep = planted_experiment(THIN3, DensifierConfig(eps=0.1, delta=0.1), Rng(25), n_validation=3000)
        assert rep["agreement"] == 1.0
        assert sum(tested) <= 200_000
