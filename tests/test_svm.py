import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import qp_enumeration_oracle, solve_dual_reference
from treemkl import errors
from treemkl.kernels import GramMatrix, KernelConfig, _kernel_matrix
from treemkl.svm import (
    SvmModel,
    TrainConfig,
    decision_scores,
    dual_objective,
    predict,
    one_vs_rest_classes,
    solve_dual,
    train_one_vs_rest,
)

BIG_C = TrainConfig(c_box=1e8, kkt_tol=1e-10, max_passes=500)


def run_bits(alpha, updates, b, residual, objective):
    """A dual run's outcome with each float as its bit pattern, so that
    -0.0 and 0.0 differ; a stopped run has no objective (None)."""
    return (alpha.tobytes(), updates, *(None if v is None
                                        else np.float64(v).tobytes()
                                        for v in (b, residual, objective)))


def random_psd_instance(rng, n, scale=1.0):
    """Random PSD kernel + mixed labels."""
    X = rng.standard_normal((n, max(2, n // 2)))
    K = scale * _kernel_matrix(X, X, KernelConfig("rbf", 0.5))
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if np.any(y > 0) and np.any(y < 0):
            return K, y


@pytest.mark.parametrize("kkt_tol", [math.inf, math.nan, 0.0, -1e-6, 2.0])
def test_train_config_needs_finite_positive_kkt_tol(kkt_tol):
    with pytest.raises(errors.ValidationError, match="kkt_tol"):
        TrainConfig(kkt_tol=kkt_tol)


class TestSolveDual:
    def test_two_point_analytic(self):
        # x = (+1, -1) with linear kernel: alpha = (1/2, 1/2), b = 0
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        y = np.array([1.0, -1.0])
        sol = solve_dual(K, y, BIG_C)
        np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-8)
        assert abs(sol.b) <= 1e-8

    def test_single_class_rejected(self):
        with pytest.raises(errors.SingleClass):
            solve_dual(np.eye(3), np.ones(3), TrainConfig())

    def test_oracle_equivalence(self, rng):
        # exhaustive active-set oracle on 100 seeded small instances
        cfg = TrainConfig(c_box=5.0, kkt_tol=1e-10, max_passes=2000)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            K, y = random_psd_instance(rng, n)
            sol = solve_dual(K, y, cfg)
            _, obj_star = qp_enumeration_oracle(K, y, cfg.c_box)
            assert sol.objective <= obj_star + 1e-6, \
                f"trial {trial}: {sol.objective} vs oracle {obj_star}"
            assert abs(sol.objective - obj_star) <= 1e-6

    def test_feasibility_at_solution(self, rng):
        cfg = TrainConfig(c_box=3.0, kkt_tol=1e-8, max_passes=2000)
        for _ in range(30):
            K, y = random_psd_instance(rng, int(rng.integers(4, 20)))
            sol = solve_dual(K, y, cfg)
            assert sol.alpha.min() >= 0.0
            assert sol.alpha.max() <= cfg.c_box + 1e-12
            assert abs(sol.alpha @ y) <= 1e-8

    def test_objective_monotone_and_feasible_over_updates(self, rng):
        # replay with increasing budgets: every intermediate iterate is
        # dual-feasible and the objective never rises
        K, y = random_psd_instance(rng, 20)
        cfg = TrainConfig(c_box=4.0, kkt_tol=1e-9, max_passes=2000)
        sol = solve_dual(K, y, cfg)
        prev = 0.0
        for passes in range(1, 12):
            try:
                s = solve_dual(K, y, TrainConfig(c_box=4.0, kkt_tol=1e-9,
                                                 max_passes=passes))
                alpha, obj = s.alpha, s.objective
            except errors.NotConverged as exc:
                alpha, obj = exc.alpha, dual_objective(K, exc.alpha, y)
            assert alpha.min() >= -1e-15
            assert alpha.max() <= 4.0 + 1e-12
            assert abs(alpha @ y) <= 1e-9
            assert obj <= prev + 1e-10
            prev = obj
        assert sol.objective <= prev + 1e-10

    def test_duplicated_points_same_decision(self, rng):
        # duplicating every training point must not move the ideal
        # decision boundary: check on a brute-force-verifiable instance
        cfg = TrainConfig(c_box=2.0, kkt_tol=1e-10, max_passes=3000)
        n = 3
        K, y = random_psd_instance(rng, n)
        sol = solve_dual(K, y, cfg)
        K2 = np.tile(K, (2, 2))
        y2 = np.tile(y, 2)
        sol2 = solve_dual(K2, y2, cfg)
        # compare decision values on the original points
        f1 = K @ (sol.alpha * y) + sol.b
        f2 = np.tile(K, (1, 2)) @ (sol2.alpha * y2) + sol2.b
        _, obj1 = qp_enumeration_oracle(K, y, cfg.c_box)
        assert abs(sol.objective - obj1) < 1e-6
        np.testing.assert_allclose(np.sign(f1), np.sign(f2))

    def test_scale_covariance(self, rng):
        # scaling K by c rescales alpha by 1/c on margin-active instances
        K, y = random_psd_instance(rng, 8)
        sol1 = solve_dual(K, y, BIG_C)
        c = 3.7
        sol2 = solve_dual(c * K, y, BIG_C)
        np.testing.assert_allclose(sol2.alpha, sol1.alpha / c,
                                   rtol=1e-4, atol=1e-8)

    def test_scale_leaves_argmax_class_invariant(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=3)
        cfg = TrainConfig(c_box=1e7, kkt_tol=1e-10, max_passes=2000)
        m1 = train_one_vs_rest(gram, labels, cfg)
        scaled = GramMatrix(values=2.5 * gram.values, ids=gram.ids)
        m2 = train_one_vs_rest(scaled, labels, cfg)
        np.testing.assert_array_equal(predict(m1, gram.values),
                                      predict(m2, scaled.values))

    @staticmethod
    def bits(sol):
        return (sol.alpha.tobytes(), sol.updates,
                np.array([sol.b, sol.kkt_residual, sol.objective]).tobytes())

    @staticmethod
    def solve_peak(K, y, cfg):
        tracemalloc.start()
        try:
            sol = solve_dual(K, y, cfg)
            return sol, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_exactly_symmetric_gram_is_read_by_rows(self, rng):
        # its rows are its columns: the solutions keep the bits of the
        # same values passed as a plain array, without the n x n copy
        n = 300
        ids = tuple(f"v{i}" for i in range(n))
        for c_box in (10.0, 0.5, 1e-3):
            cfg = TrainConfig(c_box=c_box, kkt_tol=1e-6, max_passes=200)
            K, y = random_psd_instance(rng, n)
            gram = GramMatrix(values=(K + K.T) / 2, ids=ids)
            assert gram.exactly_symmetric
            sol, peak = self.solve_peak(gram, y, cfg)
            plain, plain_peak = self.solve_peak(gram.values.copy(), y, cfg)
            assert self.bits(sol) == self.bits(plain)
            assert peak < gram.values.nbytes / 4 < gram.values.nbytes
            assert plain_peak >= gram.values.nbytes

    def test_gram_symmetric_within_tolerance_is_copied(self, rng):
        # rows that are not bit for bit its columns are not read as such:
        # the solution keeps the bits of the plain array's, which reads
        # the columns of one copy of K.T
        n = 300
        ids = tuple(f"v{i}" for i in range(n))
        K, y = random_psd_instance(rng, n)
        values = (K + K.T) / 2 + 1e-11 * rng.standard_normal((n, n))
        gram = GramMatrix(values=values, ids=ids)
        assert not gram.exactly_symmetric
        cfg = TrainConfig(c_box=10.0, kkt_tol=1e-6, max_passes=200)
        sol, peak = self.solve_peak(gram, y, cfg)
        plain = solve_dual(values.copy(), y, cfg)
        assert self.bits(sol) == self.bits(plain)
        assert peak >= gram.values.nbytes
        # reading its rows would show: its transpose takes other bits
        rows = solve_dual(GramMatrix(values=values.T.copy(), ids=ids), y, cfg)
        assert self.bits(rows) != self.bits(plain)

    def test_matches_reference_loop_bit_for_bit(self, rng):
        # 240 seeded problems over rbf, linear and non-symmetric kernels,
        # c_box in {inf, 10, 0.5, 1e-3} (1e-3 leaves no interior support
        # vector, so the shift takes its fallback) and budgets of 1, 2 or
        # 200 passes, so about half of them stop on the budget
        compared = stopped = unbounded = 0
        for trial in range(240):
            n = int(rng.integers(2, 40))
            X = rng.standard_normal((n, int(rng.integers(1, 6))))
            kind = ("rbf", "linear", "nonsym")[trial % 3]
            if kind == "linear":
                K = _kernel_matrix(X, X, KernelConfig("linear"))
            else:
                K = _kernel_matrix(X, X, KernelConfig("rbf", 0.5))
                if kind == "nonsym":
                    K = K + 0.05 * rng.standard_normal((n, n))
            y = rng.choice([-1.0, 1.0], size=n)
            y[:2] = (1.0, -1.0)
            c_box = (math.inf, 10.0, 0.5, 1e-3)[(trial // 3) % 4]
            passes = int(rng.choice([1, 2, 200]))
            with np.errstate(all="ignore"):  # the unbounded cases overflow
                ref = solve_dual_reference(K, y, c_box, 1e-6, passes)
            cfg = TrainConfig(c_box=c_box, kkt_tol=1e-6, max_passes=passes)
            if not np.all(np.isfinite(ref.alpha)):
                # the reference takes an infinite step on an unbounded
                # hard-margin dual; the solver stops there instead
                with pytest.raises(errors.NotConverged, match="unbounded"), \
                        np.errstate(all="ignore"):
                    solve_dual(K, y, cfg)
                unbounded += 1
                continue
            try:
                sol = solve_dual(K, y, cfg)
                got = run_bits(sol.alpha, sol.updates, sol.b,
                               sol.kkt_residual, sol.objective)
            except errors.NotConverged as exc:
                got = run_bits(exc.alpha, exc.updates, exc.b,
                               exc.residual, None)
                stopped += 1
            assert got == run_bits(ref.alpha, ref.updates, ref.b,
                                   ref.kkt_residual, ref.objective), \
                f"trial {trial}"
            compared += 1
        assert compared >= 200 and stopped >= compared // 3 and unbounded

    def test_warm_start_matches_reference_loop_bit_for_bit(self, rng):
        # 90 seeded problems, each started from the solution on a kernel
        # of perturbed features: feasible and close to the optimum.
        # c_box in {10, 0.5, 1e-3} and budgets of 1 or 200 passes
        rbf = KernelConfig("rbf", 0.5)
        stopped = fewer = 0
        for trial in range(90):
            n = int(rng.integers(4, 40))
            X = rng.standard_normal((n, int(rng.integers(1, 6))))
            near = X + 0.05 * rng.standard_normal(X.shape)
            K = _kernel_matrix(X, X, rbf)
            y = rng.choice([-1.0, 1.0], size=n)
            y[:2] = (1.0, -1.0)
            c_box = (10.0, 0.5, 1e-3)[trial % 3]
            passes = (1, 200)[(trial // 3) % 2]
            cfg = TrainConfig(c_box=c_box, kkt_tol=1e-6, max_passes=passes)
            start = solve_dual(_kernel_matrix(near, near, rbf), y,
                               TrainConfig(c_box=c_box, kkt_tol=1e-6)).alpha
            ref = solve_dual_reference(K, y, c_box, 1e-6, passes, start)
            cold = solve_dual_reference(K, y, c_box, 1e-6, passes)
            try:
                sol = solve_dual(K, y, cfg, start)
                got = run_bits(sol.alpha, sol.updates, sol.b,
                               sol.kkt_residual, sol.objective)
                fewer += sol.updates < cold.updates
            except errors.NotConverged as exc:
                got = run_bits(exc.alpha, exc.updates, exc.b,
                               exc.residual, None)
                stopped += 1
            assert got == run_bits(ref.alpha, ref.updates, ref.b,
                                   ref.kkt_residual, ref.objective), \
                f"trial {trial}"
        assert stopped and fewer >= (90 - stopped) // 2

    def test_infeasible_start_rejected(self, rng):
        K, y = random_psd_instance(rng, 6)
        cfg = TrainConfig(c_box=1.0)
        pos, neg = np.flatnonzero(y > 0)[0], np.flatnonzero(y < 0)[0]
        lopsided = np.zeros(6)
        lopsided[pos] = 0.5
        balanced = lopsided.copy()
        balanced[neg] = 0.5
        for start, match in ((3.0 * balanced, "box"), (-balanced, "box"),
                             (np.full(6, np.nan), "box"),
                             (lopsided, "y @ alpha")):
            with pytest.raises(errors.ValidationError, match=match):
                solve_dual(K, y, cfg, start)
        with pytest.raises(errors.ShapeMismatch):
            solve_dual(K, y, cfg, np.zeros(5))
        assert solve_dual(K, y, cfg, balanced).kkt_residual <= cfg.kkt_tol

    def test_one_vs_rest_start_must_match(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=3)
        model = train_one_vs_rest(gram, labels)
        warm = train_one_vs_rest(gram, labels, TrainConfig(), model)
        assert warm.pair_updates < model.pair_updates
        np.testing.assert_allclose(warm.alpha, model.alpha, atol=1e-4)
        with pytest.raises(errors.ValidationError, match="other videos"):
            train_one_vs_rest(gram, np.roll(labels, 1), TrainConfig(), model)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diag", "off"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_kernel_rejected(self, rng, where, value):
        K, y = random_psd_instance(rng, 6)
        K[where] = value
        with pytest.raises(errors.ValidationError, match="non-finite"):
            solve_dual(K, y, TrainConfig())

    def test_unbounded_hard_margin_stops_with_finite_iterate(self):
        # one point labelled both ways: no hard margin exists and the
        # first step along the pair is infinite
        y = np.array([1.0, -1.0])
        with pytest.raises(errors.NotConverged, match="unbounded") as excinfo:
            solve_dual(np.ones((2, 2)), y, TrainConfig(c_box=np.inf))
        assert excinfo.value.updates == 0
        assert np.all(np.isfinite(excinfo.value.alpha))

    def test_not_converged_carries_iterate(self, rng):
        K, y = random_psd_instance(rng, 30)
        with pytest.raises(errors.NotConverged) as excinfo:
            solve_dual(K, y, TrainConfig(c_box=5.0, kkt_tol=1e-14,
                                         max_passes=1))
        exc = excinfo.value
        assert exc.alpha.shape == (30,)
        assert exc.residual > 1e-14


def cluster_gram(rng, n_per_class=8, classes=3, spread=0.25):
    """Separable clusters, their labels, and an rbf gram."""
    centers = rng.standard_normal((classes, 4)) * 4.0
    X = np.vstack([centers[c] + spread * rng.standard_normal((n_per_class, 4))
                   for c in range(classes)])
    labels = np.repeat(np.arange(1, classes + 1), n_per_class)
    K = _kernel_matrix(X, X, KernelConfig("rbf", 0.5))
    ids = tuple(f"v{i}" for i in range(len(labels)))
    return GramMatrix(values=(K + K.T) / 2, ids=ids), labels, X


class TestOneVsRest:
    def test_two_class_complementary_labels(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=2)
        model = train_one_vs_rest(gram, labels)
        np.testing.assert_array_equal(model.signs[0], -model.signs[1])

    def test_signs_are_derived_and_read_only(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=3)
        model = train_one_vs_rest(gram, labels)
        np.testing.assert_array_equal(
            model.signs, [np.where(labels == c, 1.0, -1.0)
                          for c in model.class_ids])
        with pytest.raises(ValueError):
            model.signs[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.signs = -model.signs
        with pytest.raises(TypeError):
            SvmModel(train_ids=model.train_ids, labels=labels,
                     class_ids=model.class_ids, alpha=model.alpha,
                     b=model.b, signs=model.signs)

    def test_separable_training_accuracy(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=3)
        model = train_one_vs_rest(gram, labels)
        preds = predict(model, gram.values)
        assert np.mean(preds == labels) == 1.0

    def test_many_class_ids_accepted(self, rng):
        # 101-class label interface: shapes only, 2 videos per class
        n_classes = 101
        labels = np.repeat(np.arange(1, n_classes + 1), 2)
        n = labels.size
        X = rng.standard_normal((n, 8)) * 3
        K = _kernel_matrix(X, X, KernelConfig("rbf", 0.1))
        gram = GramMatrix(values=(K + K.T) / 2,
                          ids=tuple(f"v{i}" for i in range(n)))
        model = train_one_vs_rest(gram, labels,
                                  TrainConfig(c_box=1.0, kkt_tol=1e-4,
                                              max_passes=50))
        assert model.alpha.shape == (n_classes, n)

    def test_class_ids_are_np_unique(self, rng):
        # sorted distinct labels, dtype kept, for shuffled and gapped ids
        for labels in (rng.permutation(np.repeat([7, 2, 30, 5], 3)),
                       np.array([3, 1], dtype=np.int32),
                       rng.integers(1, 200, size=50)):
            got = one_vs_rest_classes(labels, labels.size)
            want = np.unique(labels)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_single_class_rejected(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=2)
        with pytest.raises(errors.SingleClass):
            train_one_vs_rest(gram, np.ones_like(labels))

    def test_one_video_is_too_few(self):
        gram = GramMatrix(values=np.ones((1, 1)), ids=("v0",))
        with pytest.raises(errors.TooFewVideos, match="got 1"):
            train_one_vs_rest(gram, np.array([1]))

    def test_deterministic(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=3)
        m1 = train_one_vs_rest(gram, labels)
        m2 = train_one_vs_rest(gram, labels)
        np.testing.assert_array_equal(m1.alpha, m2.alpha)
        np.testing.assert_array_equal(m1.b, m2.b)


class TestDecisionPredict:
    def model_with(self, alpha, b, labels):
        labels = np.asarray(labels)
        return SvmModel(train_ids=tuple(f"v{i}" for i in range(labels.size)),
                        labels=labels, class_ids=np.unique(labels),
                        alpha=alpha, b=b)

    def test_zero_alpha_gives_shift(self, rng):
        model = self.model_with(np.zeros((2, 4)), np.array([1.5, -2.0]),
                                [1, 1, 2, 2])
        scores = decision_scores(model, rng.standard_normal((3, 4)))
        np.testing.assert_array_equal(scores, [[1.5, -2.0]] * 3)

    def test_support_vector_margin_sign(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=2)
        model = train_one_vs_rest(gram, labels)
        scores = decision_scores(model, gram.values)
        for ci, c in enumerate(model.class_ids):
            sv = int(np.argmax(model.alpha[ci]))
            assert np.sign(scores[sv, ci]) == model.signs[ci, sv]

    def test_argmax_and_tie_break(self):
        model = SvmModel(train_ids=("a", "b"), labels=np.array([1, 2]),
                         class_ids=np.array([1, 2, 3]),
                         alpha=np.zeros((3, 2)),
                         b=np.array([0.2, 0.9, -1.0]))
        assert predict(model, np.zeros((1, 2)))[0] == 2
        tie = SvmModel(train_ids=("a", "b"), labels=np.array([1, 2]),
                       class_ids=np.array([1, 2]), alpha=np.zeros((2, 2)),
                       b=np.array([0.5, 0.5]))
        assert predict(tie, np.zeros((1, 2)))[0] == 1

    def test_holdout_accuracy(self, rng):
        gram, labels, X = cluster_gram(rng, n_per_class=12, classes=3)
        model = train_one_vs_rest(gram, labels)
        X_test = X + 0.05 * rng.standard_normal(X.shape)
        k_cols = _kernel_matrix(X_test, X, KernelConfig("rbf", 0.5))
        preds = predict(model, k_cols)
        assert np.mean(preds == labels) >= 0.95

    def test_shape_mismatch(self, rng):
        gram, labels, _ = cluster_gram(rng, classes=2)
        model = train_one_vs_rest(gram, labels)
        with pytest.raises(errors.ShapeMismatch):
            decision_scores(model, np.zeros(3))
        with pytest.raises(errors.ShapeMismatch):
            decision_scores(model, np.zeros((2, 3)))
