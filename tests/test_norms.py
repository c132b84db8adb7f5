"""Tests for spectral norms, the power-inequality constant and scalar losses."""

import dataclasses

import numpy as np
import pytest
from conftest import make_gen, singular_values

from sketchlr import (
    HuberLoss,
    L1L2Loss,
    TukeyPLoss,
    check_phi_conditions,
    cpe_constant,
    kyfan_pr_norm,
    parse_loss,
    phi_objective,
    schatten_norm,
)

GOLDEN = np.array([[20.0, 20.0], [1.0, 2.0]])


def eig_singular_values(a):
    """Independent spectrum oracle via the Gram matrix."""
    a = np.asarray(a, float)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0))


class TestSchattenNorm:
    def test_three_four_five(self):
        assert schatten_norm([4.0, 3.0], 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_flat_spectrum(self):
        for n in (1, 4, 9):
            for p in (1.0, 1.5, 2.0, 7.0):
                assert schatten_norm(np.ones(n), p) == pytest.approx(
                    n ** (1.0 / p), rel=1e-12
                )

    def test_golden_nuclear(self):
        sigma = eig_singular_values(GOLDEN)
        assert schatten_norm(sigma, 1.0) == pytest.approx(29.0688, abs=1e-4)

    def test_matches_frobenius(self):
        gen = make_gen(1)
        a = gen.standard_normal((7, 5))
        assert schatten_norm(singular_values(a), 2.0) == pytest.approx(
            np.linalg.norm(a), abs=1e-10
        )

    def test_rejects_bad_p_and_negative_sigma(self):
        with pytest.raises(ValueError):
            schatten_norm([1.0], 0.5)
        with pytest.raises(ValueError):
            schatten_norm([1.0], np.inf)
        with pytest.raises(ValueError):
            schatten_norm([-1.0], 2.0)

    def test_zero_spectrum(self):
        assert schatten_norm(np.zeros(4), 3.0) == 0.0
        assert schatten_norm([], 2.0) == 0.0

    def test_monotone_in_p(self):
        gen = make_gen(2)
        for _ in range(20):
            sigma = np.sort(gen.random(6))[::-1] * 10
            ps = [1.0, 1.3, 2.0, 2.7, 4.0, 8.0]
            vals = [schatten_norm(sigma, p) for p in ps]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_triangle_inequality(self, p):
        gen = make_gen(int(10 * p))
        for _ in range(100):
            a = gen.standard_normal((9, 7))
            b = gen.standard_normal((9, 7))
            lhs = schatten_norm(singular_values(a + b), p)
            rhs = schatten_norm(singular_values(a), p) + schatten_norm(
                singular_values(b), p
            )
            assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_hoelder_frobenius_bound(self, p):
        gen = make_gen(int(10 * p))
        for _ in range(25):
            a = gen.standard_normal((8, 6))
            sigma = singular_values(a)
            n = a.shape[1]
            assert schatten_norm(sigma, 2.0) <= n ** (0.5 - 1.0 / p) * schatten_norm(
                sigma, p
            ) * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.7, 2.0])
    def test_frobenius_below_p_for_small_p(self, p):
        gen = make_gen(int(100 * p))
        for _ in range(25):
            sigma = np.sort(gen.random(7))[::-1]
            assert schatten_norm(sigma, 2.0) <= schatten_norm(sigma, p) + 1e-12


class TestKyFanNorm:
    def test_top_two_sum(self):
        assert kyfan_pr_norm([5.0, 3.0, 1.0], 1.0, 2) == pytest.approx(8.0)

    def test_full_length_reduces_to_schatten(self):
        sigma = [5.0, 3.0, 1.0]
        assert kyfan_pr_norm(sigma, 1.0, 3) == pytest.approx(
            schatten_norm(sigma, 1.0)
        )

    def test_p2_r2(self):
        assert kyfan_pr_norm([5.0, 3.0, 1.0], 2.0, 2) == pytest.approx(np.sqrt(34.0))

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            kyfan_pr_norm([1.0, 2.0], 1.0, 0)
        with pytest.raises(ValueError):
            kyfan_pr_norm([1.0, 2.0], 1.0, 3)

    def test_head_tail_decomposition(self):
        gen = make_gen(31)
        for _ in range(20):
            sigma = np.sort(gen.random(8))[::-1] * 5
            for p in (1.0, 1.5, 2.0, 3.0):
                for r in (1, 3, 8):
                    head = kyfan_pr_norm(sigma, p, r) ** p
                    tail = float(np.sum(sigma[r:] ** p))
                    assert head + tail == pytest.approx(
                        schatten_norm(sigma, p) ** p, rel=1e-12, abs=1e-12
                    )


class TestCpeConstant:
    def test_p_one_is_one(self):
        for eps in (0.01, 0.3, 1.0):
            assert cpe_constant(1.0, eps) == pytest.approx(1.0)

    def test_p_two_eps_one(self):
        assert cpe_constant(2.0, 1.0) == pytest.approx(4.0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            cpe_constant(0.5, 0.5)
        with pytest.raises(ValueError):
            cpe_constant(2.0, 0.0)
        with pytest.raises(ValueError):
            cpe_constant(2.0, 1.5)

    def test_power_inequality_grid(self):
        for p in (1.5, 2.0, 3.0):
            for eps in (0.1, 0.5, 1.0):
                c = cpe_constant(p, eps)
                x = np.linspace(eps, 1.0, round((1.0 - eps) / 0.01) + 1)
                assert np.all((1 + x) ** p <= 1 + c * x**p + 1e-12)
                assert np.all((1 - x) ** p >= 1 - c * x**p - 1e-12)


class TestScalarLosses:
    def test_huber_branches(self):
        h = HuberLoss(1.0)
        assert h(2.0) == pytest.approx(1.5)
        assert h(0.5) == pytest.approx(0.125)
        assert h(1.0) == pytest.approx(0.5)  # branches agree at tau

    def test_l1l2_at_zero(self):
        assert L1L2Loss()(0.0) == 0.0

    def test_l1l2_matches_closed_form(self):
        x = np.linspace(0.0, 20.0, 101)
        np.testing.assert_allclose(
            L1L2Loss()(x), 2.0 * (np.sqrt(1.0 + 0.5 * x * x) - 1.0), atol=1e-12
        )

    def test_tukey_objective_split(self):
        loss = TukeyPLoss(2.0, 3.0)
        assert phi_objective([5.0, 2.0], loss) == pytest.approx(9.0 + 4.0)

    def test_all_increasing_from_zero(self):
        x = np.linspace(0.0, 50.0, 400)
        for loss in (HuberLoss(2.0), TukeyPLoss(1.5, 4.0), L1L2Loss()):
            vals = loss(x)
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= -1e-14)
            assert np.all(vals >= 0)

    def test_parse_loss(self):
        assert parse_loss("huber:2.5") == HuberLoss(2.5)
        assert parse_loss("tukey_p:3:1.5") == TukeyPLoss(3.0, 1.5)
        assert parse_loss("l1_l2") == L1L2Loss()
        with pytest.raises(ValueError):
            parse_loss("cauchy")

    @pytest.mark.parametrize(
        "text, most", [("huber:1:2", 1), ("tukey_p:1:2:3", 2), ("l1_l2:1", 0)]
    )
    def test_parse_loss_refuses_extra_parameters(self, text, most):
        name = text.split(":")[0]
        with pytest.raises(ValueError, match=f"^{name} takes at most {most} parameter"):
            parse_loss(text)

    @pytest.mark.parametrize(
        "loss, args", [(HuberLoss, ["nan"]), (TukeyPLoss, ["nan"]), (TukeyPLoss, ["2", "nan"])]
    )
    def test_nan_parameter_is_refused_when_built(self, loss, args):
        with pytest.raises(ValueError, match="got nan$"):
            loss(*map(float, args))
        with pytest.raises(ValueError, match="got nan$"):
            parse_loss(":".join([loss.name, *args]))


class TestConditionReport:
    def test_huber_constants(self):
        # quadratic-regime suprema have exact closed forms the grid must hit
        r = check_phi_conditions(HuberLoss(1.0), 0.1)
        assert r.finite
        assert r.alpha == pytest.approx(2.1, abs=1e-9)
        assert r.gamma == pytest.approx(2.0, abs=1e-6)
        assert r.k1 == pytest.approx(2.0 / 0.1 + 1.0, abs=1e-6)
        assert r.k2 == pytest.approx(2.0 / 0.1 - 1.0, abs=1e-6)

    def test_l1l2_scaling_constant_shrinks(self):
        r_small = check_phi_conditions(L1L2Loss(), 0.01)
        r_big = check_phi_conditions(L1L2Loss(), 0.1)
        assert r_big.finite and r_small.finite
        assert r_small.l_eps < r_big.l_eps
        assert r_big.l_eps == pytest.approx(0.1, abs=1e-3)

    def test_k_grows_as_eps_shrinks(self):
        for loss in (HuberLoss(1.0), L1L2Loss(), TukeyPLoss(2.0, 1.0)):
            ks = [check_phi_conditions(loss, eps).k for eps in (0.2, 0.1, 0.05)]
            assert ks[0] <= ks[1] <= ks[2]
            assert all(k >= 0 for k in ks)

    def test_divergent_loss_reported(self):
        class ExpLoss(HuberLoss.__mro__[1]):  # ScalarLoss
            name = "exp"

            def __call__(self, x):
                x = np.asarray(x, dtype=np.float64)
                with np.errstate(over="ignore"):
                    return np.expm1(x)

        r = check_phi_conditions(ExpLoss(), 0.1)
        assert not r.finite
        assert any("(b)" in v for v in r.violated_conditions())

    def test_rejects_eps_outside_the_unit_interval(self):
        with pytest.raises(ValueError):
            check_phi_conditions(HuberLoss(1.0), 1.5)

    def test_reports_compare_by_numbers(self):
        a = check_phi_conditions(HuberLoss(1.0), 0.5)
        b = check_phi_conditions(HuberLoss(1.0), 0.5)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != dataclasses.replace(b, alpha=a.alpha + 1.0)
        assert a != check_phi_conditions(HuberLoss(1.0), 0.25)
        assert a != "report"
