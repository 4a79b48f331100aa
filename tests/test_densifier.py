import hashlib
import json
import math
import sys
from contextlib import closing

import numpy as np
import pytest

from quadgauss import counter, densifier, numerics, quadform, sampler
from quadgauss.densifier import (
    BudgetExhaustedError,
    DensifierConfig,
    EllipsoidLearner,
    KappaFlipError,
    densify,
    feature_dim,
    feature_map,
    planted_experiment,
    quadratic_from_weights,
    weights_from_quadratic,
)
from quadgauss.counter import count_ptf_gaussian, mc_count
from quadgauss.numerics import Rng
from quadgauss.quadform import DecoupledConstraint, QuadraticForm, decouple, evaluate, sign_at
from quadgauss.sampler import _tilted_keep, region_source
from test_acceptance import _c7_targets

C7_TARGETS = _c7_targets()
# |x|^2 >= 20, of mass 4.5e-5
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
            assert np.max(np.abs(q2.A - q.A)) <= 1e-12
            assert np.allclose(q2.b, q.b) and q2.c == q.c


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
        # the full event stream of a run that leaves round 0: hypothesis
        # counts, a negative draw, a pool mistake and the density stop
        _, _, res = self._learning_run()
        assert res.rounds == 1 and res.mistakes == 2
        assert [e["event"] for e in res.transcript] == [
            "count", "neg_feed", "pos_mistake", "count", "terminate"
        ]
        jsonl = "\n".join(json.dumps(e, sort_keys=True) for e in res.transcript)
        digest = hashlib.sha256(jsonl.encode()).hexdigest()
        assert digest == "44aa505998dbb6dd13ff74414062a68938538a65a04059a3fb47f74e72378542"

    def test_budget_exhaustion_reports_transcript(self, monkeypatch):
        # every negative draw is the same point; once it has been fed, the
        # learner stays consistent with it, so later rounds make no mistake
        # and only the round budget 4M + 16 = 36 can end the run
        monkeypatch.setattr(densifier, "region_source", lambda *args: lambda k: np.array([[-5.0, 0.0]]))
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9)
        cfg = DensifierConfig(eps=0.2, delta=0.2, mistake_budget=5, n_pos=1000)
        with pytest.raises(BudgetExhaustedError, match="round budget 36 exhausted") as err:
            densify(_planted_source(f, Rng(8)), 0.00196, cfg, Rng(9))
        negs = [e for e in err.value.transcript if e["event"] == "neg_feed"]
        assert len(negs) == 36
        assert sum(e["mistake"] for e in negs) == 1

    def test_transcript_schema(self):
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        cfg = DensifierConfig(eps=0.2, delta=0.2, n_pos=1000)
        res = densify(_planted_source(f, Rng(13)), 0.64, cfg, Rng(14))
        allowed = {"pos_mistake", "neg_feed", "count", "terminate"}
        for e in res.transcript:
            event = json.loads(json.dumps(e, sort_keys=True))
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
            pos = region_source(f, decouple(f), Rng(seed))
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
    """The forms that a PtfSampler is built for, from now on."""
    samplers = []
    init = sampler.PtfSampler.__init__

    def recording(self, q, *args, **kwargs):
        samplers.append(q)
        init(self, q, *args, **kwargs)

    monkeypatch.setattr(sampler.PtfSampler, "__init__", recording)
    return samplers


def _recording_sources(monkeypatch) -> list:
    """The forms that densifier builds a region source for, from now on."""
    sources = []
    monkeypatch.setattr(
        densifier, "region_source", lambda q, *args: sources.append(q) or region_source(q, *args)
    )
    return sources


def _recording_requests(monkeypatch) -> list:
    """(form, k, points) for every request to a region source densifier
    builds."""
    requests = []

    def recording(q, *args):
        source = region_source(q, *args)

        def request(k):
            out = source(k)
            requests.append((q, k, out))
            return out

        return request

    monkeypatch.setattr(densifier, "region_source", recording)
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
        # recorded with serial block draws; threaded block draws must agree.
        # The two null coordinates are not counted, so p_estimate is the grid
        # mass of x1 >= 3, the cells [3, inf): Phi(-3)
        f = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)
        rep = planted_experiment(
            f, DensifierConfig(eps=0.1, delta=0.1), Rng(1).derive(4), n_validation=3000
        )
        assert rep == {
            "n": 3,
            "p_estimate": 0.0013498980316300926,
            "p_hat": 0.0013948946326844292,
            "mistakes": 0,
            "rounds": 0,
            "gamma": 4.098360655737705e-05,
            "mistake_budget": 3050,
            "agreement": 1.0,
            # 1 - the 99% Wilson lower bound at 3000 of 3000
            "agreement_ci": 0.0022067516772727967,
            # agreement 1.0 and g = +1 everywhere (MC mass exactly 1), so
            # density = p and density_ci = p * agreement_ci
            "density": 0.0013498980316300926,
            "density_ci": 2.978889745446954e-06,
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
        # the region source continues one stream: a second call must not
        # replay the first call's points, and no table is built
        samplers = _recording_samplers(monkeypatch)
        pos = region_source(RING, decouple(RING), Rng(2))
        a, b = pos(3), pos(3)
        assert samplers == []
        assert np.all(np.sum(a * a, axis=1) >= 20.0) and np.all(np.sum(b * b, axis=1) >= 20.0)
        assert not np.any(np.isin(b, a))

    def test_low_mass_target_draws_positives_from_sampler(self, monkeypatch):
        # |x|^2 >= 20 has mass 4.5e-5 and no bounded coordinate; the tilted
        # source keeps about 1 proposal in 30 and builds no table, for the
        # positives or for the negatives from learned hypotheses
        samplers = _recording_samplers(monkeypatch)
        requests = _recording_requests(monkeypatch)
        rep = planted_experiment(RING, DensifierConfig(eps=0.1, delta=0.1), Rng(3), n_validation=500)
        assert samplers == []
        assert rep["rounds"] > 0 and rep["mistakes"] <= rep["mistake_budget"]
        assert rep["agreement"] == 1.0 and rep["passed_a"]
        negatives = [(g, x) for g, k, x in requests if g is not RING]
        assert len(negatives) == rep["rounds"]
        for g, x in negatives:
            assert x.shape == (1, 2) and sign_at(g, x[0]) == 1

    def test_box_bounded_low_mass_target_draws_by_rejection(self, monkeypatch):
        # x1 >= 3.75 has mass 8.8e-5, inside the box [3.75, inf) x R; its
        # points come by rejection and no sampler is built.  The mass is
        # above gamma/2, so a planted run stops at round 0 and draws none
        samplers = _recording_samplers(monkeypatch)
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-3.75)
        x = region_source(f, decouple(f), Rng(3))(500)
        assert np.all(x[:, 0] >= 3.75)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(3), n_validation=500)
        assert samplers == []
        assert rep["p_estimate"] < 1e-4
        assert rep["rounds"] == 0 and rep["mistakes"] == 0
        assert rep["agreement"] == 1.0 and rep["passed_a"]

    def _thin_hypothesis_run(self, monkeypatch):
        # the learner's output is replaced by g = x1 >= 3 for the target
        # f = x1 >= 1; every point of g lies in f
        thin = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-3.0)
        monkeypatch.setattr(
            densifier, "densify", lambda *args, **kwargs: densifier.DensifyResult(thin, [])
        )
        sources, samplers = _recording_sources(monkeypatch), _recording_samplers(monkeypatch)
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
        assert [(q, k) for q, k, _ in requests] == [(f, 0)]
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
        assert [k for q, k, _ in requests if q is f] == [0, cfg.resolve(f.n).n_pos, 3000]
        assert sum(1 for q, _, _ in requests if q is not f) == rep["rounds"]

    def test_round_zero_run_draws_no_block(self, monkeypatch):
        # a run that stops at round 0 draws no proposal block anywhere: not
        # for n, the pool, the validation points or the mass of g = R^n
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block of normals was drawn")

        monkeypatch.setattr(sampler, "normal_blocks", no_blocks)
        monkeypatch.setattr(counter, "normal_blocks", no_blocks)
        for f in C7_TARGETS:
            rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(1), n_validation=3000)
            assert rep["rounds"] == 0

    def test_round_zero_run_builds_no_generator_and_one_eigensolve(self, monkeypatch):
        # each stream of a round-0 run is only a derive parent or a block
        # seed, so none builds its generator; the target's decouple is the
        # one eigensolve, as g = R^n is counted without decoupling
        calls = {"philox": 0, "decouple": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        monkeypatch.setattr(numerics, "_philox", counting("philox", numerics._philox))
        for module in (densifier, counter):
            monkeypatch.setattr(module, "decouple", counting("decouple", quadform.decouple))
        for f in C7_TARGETS:
            calls.update(philox=0, decouple=0)
            rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(1), n_validation=3000)
            assert rep["rounds"] == 0
            assert calls == {"philox": 0, "decouple": 1}

    def test_constant_positive_target(self):
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0)
        rep = planted_experiment(f, DensifierConfig(eps=0.1, delta=0.1), Rng(12))
        assert rep["agreement"] == 1.0
        assert rep["density"] == 1.0


THIN3 = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)


def _source(q, rng):
    return region_source(q, decouple(q), rng)


def _acceptance(q, rows=1 << 16):
    """Fraction of one block of proposals that q's tilted source keeps."""
    dc = decouple(q)
    c = sampler._tilt(dc)
    z = next(numerics.normal_blocks(Rng(30), dc.n + 2, rows, total=rows))
    return _tilted_keep(q, dc, c, z).shape[0] / rows


def _random_constraint(gen, n):
    """A nonempty decoupled region whose coefficients mix the cases the tilt
    search treats apart: lam > 0, lam = 0, lam < 0, lam = 1e-17, and mu = 0."""
    kind = gen.choice([1.0, 0.0, 1e-17, -1.0], p=[0.5, 0.2, 0.2, 0.1], size=n)
    lam = kind * gen.uniform(0.2, 3.0, size=n)
    mu = gen.normal(size=n) * (gen.random(n) < 0.7)
    up = lam > 0.1  # a 1e-17 y^2 term acts as its linear part near the origin
    floor = float(np.sum(-mu[up] ** 2 / (4.0 * lam[up])))
    theta = floor + float(gen.uniform(0.5, 5.0))
    return DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(n))




def _no_blocks(*args, **kwargs):
    raise AssertionError("a block was drawn")


class TestRejectionSource:
    def test_calls_continue_one_stream(self):
        # 20,000 + 20,000 disc points cross a block of 2^15 proposals
        f = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107)
        pos = _source(f, Rng(21))
        a, b = pos(20_000), pos(20_000)
        whole = _source(f, Rng(21))(40_000)
        assert np.array_equal(np.concatenate([a, b]), whole)
        assert not np.any(np.isin(b[:, 0], a[:, 0]))
        assert np.all(np.asarray(sign_at(f, whole)) == 1)

    @pytest.mark.parametrize("k", [-1, 2.5, True])
    def test_bad_count_rejected_before_a_block(self, monkeypatch, k):
        pos = _source(THIN3, Rng(26))
        monkeypatch.setattr(sampler, "normal_blocks", _no_blocks)
        with pytest.raises(ValueError, match="^k must be"):
            pos(k)

    def test_zero_points_draw_no_block(self, monkeypatch):
        # building a source and asking it for 0 points neither searches
        # for the tilt nor draws a block
        blocks, tilts = [], []

        def recording(*args, **kwargs):
            blocks.append(args)
            return numerics.normal_blocks(*args, **kwargs)

        monkeypatch.setattr(sampler, "normal_blocks", recording)
        monkeypatch.setattr(sampler, "_tilt", lambda dc, tilt=sampler._tilt: tilts.append(dc) or tilt(dc))
        pos = _source(THIN3, Rng(27))
        empty = pos(0)
        assert empty.shape == (0, 3) and blocks == [] and tilts == []
        # the zero-point request leaves the stream where it was
        assert np.array_equal(pos(500), _source(THIN3, Rng(27))(500))
        # the wrapper sees the two sources' draws, each tilted once
        assert len(blocks) == 2 and len(tilts) == 2

    @pytest.mark.parametrize("theta", [-1.0, 0.0])
    def test_empty_region_raises(self, monkeypatch, theta):
        # y1^2 + y2^2 <= theta is empty (theta < 0) or the origin (theta = 0)
        monkeypatch.setattr(sampler, "normal_blocks", _no_blocks)
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=theta)
        with pytest.raises(ValueError, match="mass 0"):
            _source(q, Rng(0))

    def test_starves_past_the_block_limit(self, monkeypatch):
        # one block of 2^15 thin3 proposals keeps about 4,000 points
        monkeypatch.setattr(sampler, "_BLOCK_LIMIT", sampler._FIRST_BLOCK + 1)
        pos = _source(THIN3, Rng(22))
        pos(2_000)
        with pytest.raises(RuntimeError, match="rejection sampling starved"):
            pos(30_000)

    def test_thin3_positives_follow_the_conditioned_law(self):
        k = 30_000
        x = _source(THIN3, Rng(23))(k)
        assert np.all(x[:, 0] >= 3.0)
        # E[G | G >= 3] = phi(3) / (1 - Phi(3)); the variance there is 0.0705
        mills = 3.283098654930434
        assert abs(x[:, 0].mean() - mills) <= 4.0 * math.sqrt(0.0705 / k)
        assert np.all(np.abs(x[:, 1:].mean(axis=0)) <= 4.0 / math.sqrt(k))
        assert np.all(np.abs(x[:, 1:].var(axis=0) - 1.0) <= 4.0 * math.sqrt(2.0 / k))

    def test_deep_halfspace_mean(self):
        # x1 >= 4.2 at n = 3: E[G | G >= 4.2] = phi(4.2) / Phi(-4.2)
        k = 20_000
        f = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-4.2)
        x = _source(f, Rng(31))(k)
        assert np.all(x[:, 0] >= 4.2)
        assert abs(x[:, 0].mean() - 4.4166) <= 4.0 * math.sqrt(x[:, 0].var() / k)

    def test_ring_excess_is_exponential(self):
        # |y|^2 >= 20 at n = 2: |y|^2 is Exp with mean 2, so the excess
        # over 20 is too, with sd 2
        k = 8_000
        x = _source(RING, Rng(32))(k)
        excess = np.sum(x * x, axis=1) - 20.0
        assert np.all(excess >= 0.0)
        assert abs(excess.mean() - 2.0) <= 4.0 * 2.0 / math.sqrt(k)

    def test_rotated_target_matches_plain_rejection(self):
        # a shifted ellipse off the axes: the tilt lives in rotated
        # coordinates, so a wrong rotation would bias the moments
        c, s = math.cos(0.6), math.sin(0.6)
        rot = np.array([[c, -s], [s, c]])
        f = QuadraticForm(A=-rot @ np.diag([1.0, 4.0]) @ rot.T, b=np.array([0.8, -0.5]), c=0.3)
        k = 40_000
        tilted = _source(f, Rng(24))(k)
        g = np.random.default_rng(24).normal(size=(2_000_000, 2))
        plain = g[np.asarray(sign_at(f, g)) == 1][:k]
        assert plain.shape[0] == k
        se = np.sqrt(tilted.var(axis=0) / k + plain.var(axis=0) / k)
        assert np.all(np.abs(tilted.mean(axis=0) - plain.mean(axis=0)) <= 4.5 * se)
        se2 = np.sqrt(((tilted**2).var(axis=0) + (plain**2).var(axis=0)) / k)
        assert np.all(np.abs((tilted**2).mean(axis=0) - (plain**2).mean(axis=0)) <= 4.5 * se2)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_forms_match_plain_rejection(self, seed):
        # lam > 0, lam = 0, lam < 0 and lam = 1e-17 mixed, with and without
        # a linear term: every kept point is in the region, and the means
        # agree with plain rejection
        gen = np.random.default_rng(seed)
        dc = _random_constraint(gen, int(gen.integers(1, 5)))
        q = QuadraticForm(A=-np.diag(dc.lam), b=-dc.mu, c=dc.theta)
        g = gen.normal(size=(1 << 16, dc.n))
        plain = g[np.asarray(sign_at(q, g)) == 1]
        k = min(plain.shape[0], 4_000)
        assert k > 100
        tilted = region_source(q, dc, Rng(seed))(k)
        assert np.all(np.asarray(sign_at(q, tilted)) == 1)
        se = np.sqrt(tilted.var(axis=0) / k + plain.var(axis=0) / plain.shape[0])
        assert np.all(np.abs(tilted.mean(axis=0) - plain.mean(axis=0)) <= 4.5 * se)

    def test_deep_halfspace_acceptance(self):
        # x1 >= 4: c = 4, and mass / bound = Phi(-4) e^8 = 0.0944; the kept
        # fraction of 2^18 proposals lies in the 99% binomial interval
        f = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-4.0)
        assert sampler._tilt(decouple(f)) == pytest.approx(4.0, rel=1e-8)
        rows = 1 << 18
        p = 0.5 * math.erfc(4.0 / math.sqrt(2.0)) * math.exp(8.0)
        assert abs(_acceptance(f, rows) - p) <= 2.5758293035489004 * math.sqrt(p * (1.0 - p) / rows)

    def test_thin3_keeps_one_proposal_in_ten(self):
        # predicted Phi(-3) e^4.5 = 0.122; plain rejection keeps 1 in 741
        assert _acceptance(THIN3) >= 0.1

    def test_shell_draws_take_few_blocks(self, monkeypatch):
        # |x|^2 >= 16 (n = 2) has mass 3.4e-4: plain rejection would spend
        # about 640 blocks of 2^15 on 7000 points
        blocks = []

        def counting(*args, **kwargs):
            with closing(numerics.normal_blocks(*args, **kwargs)) as inner:
                for block in inner:
                    blocks.append(block.shape[0])
                    yield block

        monkeypatch.setattr(sampler, "normal_blocks", counting)
        shell = QuadraticForm(A=np.eye(2), b=np.zeros(2), c=-16.0)
        x = _source(shell, Rng(33))(7_000)
        assert x.shape == (7_000, 2)
        assert len(blocks) <= 8 and set(blocks) == {sampler._BLOCK}
