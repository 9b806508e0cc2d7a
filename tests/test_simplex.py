import numpy as np
import pytest

from oracles import central_difference, softmax_jacobian
from treemkl import errors
from treemkl.simplex import (
    SimplexPoint,
    SimplexWeights,
    backprop_through_simplex,
    to_simplex,
)


class TestToSimplex:
    def test_uniform_from_zeros(self):
        np.testing.assert_allclose(to_simplex(np.zeros(3)), np.ones(3) / 3)

    def test_known_value(self):
        np.testing.assert_allclose(to_simplex(np.array([np.log(3.0), 0.0])),
                                   [0.75, 0.25], atol=1e-15)

    def test_shift_invariance(self, rng):
        for _ in range(50):
            raw = rng.standard_normal(int(rng.integers(1, 12)))
            c = float(rng.normal(scale=100))
            np.testing.assert_allclose(to_simplex(raw + c), to_simplex(raw),
                                       atol=1e-12)

    def test_always_on_simplex(self, rng):
        for scale in (1.0, 50.0, 700.0):
            raw = rng.standard_normal(8) * scale
            beta = to_simplex(raw)
            assert beta.min() >= 0.0
            assert beta.max() <= 1.0
            assert abs(beta.sum() - 1.0) <= 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(errors.NonFinite):
            to_simplex(np.array([0.0, np.nan]))


class TestJacobian:
    """The softmax Jacobian oracle that TestBackprop compares against."""

    def test_two_point_value(self):
        np.testing.assert_allclose(softmax_jacobian(np.array([0.5, 0.5])),
                                   [[0.25, -0.25], [-0.25, 0.25]])

    def test_one_hot_vanishes(self):
        np.testing.assert_allclose(
            softmax_jacobian(np.array([0.0, 1.0, 0.0])), np.zeros((3, 3)),
            atol=1e-15)

    def test_columns_sum_to_zero(self, rng):
        for _ in range(20):
            beta = to_simplex(rng.standard_normal(6))
            np.testing.assert_allclose(softmax_jacobian(beta).sum(axis=0),
                                       np.zeros(6), atol=1e-15)

    def test_uniform_point_closed_form(self):
        n = 5
        expected = np.eye(n) / n - np.ones((n, n)) / n ** 2
        np.testing.assert_allclose(softmax_jacobian(np.full(n, 1.0 / n)),
                                   expected, atol=1e-15)

    def test_matches_finite_differences(self, rng):
        raw = rng.standard_normal(5)
        beta = to_simplex(raw)
        J = softmax_jacobian(beta)
        for p in range(5):
            fd = central_difference(lambda r: to_simplex(r)[p], raw)
            np.testing.assert_allclose(J[p], fd, atol=1e-9)


class TestBackprop:
    def test_constant_gradient_is_tangent(self, rng):
        beta = to_simplex(rng.standard_normal(7))
        out = backprop_through_simplex(np.full(7, 3.14), beta)
        np.testing.assert_allclose(out, np.zeros(7), atol=1e-12)

    def test_one_hot_gives_zero(self):
        out = backprop_through_simplex(np.array([1.0, -2.0, 0.5]),
                                       np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_equals_jacobian_contraction(self, rng):
        beta = to_simplex(rng.standard_normal(6))
        g = rng.standard_normal(6)
        np.testing.assert_allclose(backprop_through_simplex(g, beta),
                                   g @ softmax_jacobian(beta), atol=1e-14)

    def test_quadratic_finite_difference(self, rng):
        # E(beta) = beta' A beta for a random A, differentiated w.r.t. raw
        for _ in range(20):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            raw = rng.standard_normal(n)
            beta = to_simplex(raw)
            de_dbeta = (A + A.T) @ beta
            got = backprop_through_simplex(de_dbeta, beta)
            fd = central_difference(
                lambda r: to_simplex(r) @ A @ to_simplex(r), raw)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)


class TestSimplexWeights:
    def test_from_raw_consistent(self, rng):
        w = SimplexWeights(rng.standard_normal(5))
        np.testing.assert_allclose(w.beta, to_simplex(w.raw))

    def test_uniform(self):
        w = SimplexWeights.uniform(4)
        np.testing.assert_allclose(w.beta, np.full(4, 0.25))

    def test_random_is_seeded(self):
        a = SimplexWeights.random(6, seed=9)
        b = SimplexWeights.random(6, seed=9)
        np.testing.assert_array_equal(a.beta, b.beta)

    def test_beta_is_derived_from_raw(self, rng):
        raw = rng.standard_normal(5)
        w = SimplexWeights(raw)
        np.testing.assert_array_equal(w.beta, to_simplex(raw))
        assert not (w.raw.flags.writeable or w.beta.flags.writeable)
        with pytest.raises(TypeError):
            SimplexWeights(raw=raw, beta=to_simplex(raw))

    def test_with_raw_returns_new_point(self):
        w = SimplexWeights.uniform(3)
        w2 = w.with_raw(np.array([1.0, 0.0, 0.0]))
        assert w2.beta[0] > w.beta[0]


class TestSimplexPoint:
    def test_holds_exact_zeros_read_only(self):
        p = SimplexPoint([0.0, 0.25, 0.75])
        np.testing.assert_array_equal(p.beta, [0.0, 0.25, 0.75])
        assert not p.beta.flags.writeable

    @pytest.mark.parametrize("beta", [[0.5, 0.6], [-0.1, 1.1], [np.nan, 1.0],
                                      []])
    def test_refuses_points_off_the_simplex(self, beta):
        with pytest.raises(errors.ValidationError):
            SimplexPoint(beta)
