import numpy as np
import pytest

from pwmctrl.costmodel import (
    GammaGrid,
    boundary_order,
    cost_pwc,
    cost_pwm,
    default_dims,
    default_orders,
    gamma,
    gamma_grid,
)


class TestFlopCounts:
    def test_frozen_example_single_control(self):
        """N=10, p=8, K=1: (p-1)N^3 + KN^2 = 7100 matrix-product flops for the
        per-step baseline versus (2K-1)(N^3 + N^2) + (p-1)KN = 1170 for the
        pulsed step."""
        assert cost_pwc(10, 8, 1) == 7100
        assert cost_pwm(10, 8, 1) == 1170
        assert gamma(10, 8, 1) == pytest.approx(0.1647887323943662, abs=1e-15)

    def test_costs_are_positive_integers(self):
        for n in (2, 7, 50):
            for p in (2, 5, 12):
                for k in (1, 2, 4):
                    assert cost_pwc(n, p, k) > 0
                    assert cost_pwm(n, p, k) > 0

    def test_pwm_cost_independent_of_order_in_cubic_term(self):
        """Raising p adds only the linear re-integration term K*N per extra
        sample, never another N^3 factor."""
        k, n = 2, 30
        assert cost_pwm(n, 9, k) - cost_pwm(n, 8, k) == k * n

    @pytest.mark.parametrize("bad", [(1, 4, 1), (4, 1, 1), (4, 4, 0)])
    def test_rejects_degenerate_sizes(self, bad):
        with pytest.raises(ValueError):
            cost_pwc(*bad)
        with pytest.raises(ValueError):
            cost_pwm(*bad)
        with pytest.raises(ValueError):
            gamma(*bad)


class TestGamma:
    def test_decreases_with_order(self):
        values = [gamma(12, p, 1) for p in range(2, 40)]
        assert np.all(np.diff(values) < 0)

    def test_small_system_low_order_favors_baseline(self):
        """N=2, p=2, K=1: gamma = 7/6 > 1, the pulsed step is more expensive."""
        assert gamma(2, 2, 1) == pytest.approx(7.0 / 6.0, abs=1e-15)

    def test_many_controls_can_keep_gamma_above_one(self):
        assert gamma(4, 2, 5) > 1.0
        assert gamma(100, 30, 5) < 1.0


class TestBoundaryOrder:
    def test_crossing_property(self):
        """gamma crosses 1 exactly at the boundary order: above it the pulsed
        step wins, below it the baseline wins."""
        for n, k in [(3, 1), (10, 1), (10, 3), (50, 5)]:
            p_b = boundary_order(n, k)
            assert np.isfinite(p_b)
            lo = int(np.floor(p_b))
            hi = int(np.ceil(p_b))
            if lo >= 2:
                assert gamma(n, lo, k) >= 1.0 - 1e-12
            if hi > lo:
                assert gamma(n, hi, k) <= 1.0 + 1e-12

    def test_continuous_value_solves_equality(self):
        n, k = 10, 1
        p_b = boundary_order(n, k)
        lhs = (p_b - 1) * n**3 + k * n**2
        rhs = (2 * k - 1) * (n**3 + n**2) + (p_b - 1) * k * n
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_undefined_when_linear_term_dominates(self):
        assert np.isnan(boundary_order(2, 4))
        assert np.isnan(boundary_order(2, 5))


class TestDefaultGrids:
    def test_dims_are_unique_sorted_ints_in_range(self):
        dims = default_dims()
        assert dims.dtype.kind == "i"
        assert np.all(np.diff(dims) > 0)
        assert dims[0] == 2 and dims[-1] == 200

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            default_dims(count=0)
        with pytest.raises(ValueError):
            default_dims(low=5, high=3)
        with pytest.raises(ValueError):
            default_dims(low=1)

    def test_orders_run_from_two(self):
        orders = default_orders()
        assert orders[0] == 2 and orders[-1] == 30
        assert np.all(np.diff(orders) == 1)


class TestGammaGrid:
    def test_shape_and_values_match_scalar_function(self):
        grid = gamma_grid(1, dims=np.array([4, 10]), orders=np.array([2, 8, 20]))
        assert isinstance(grid, GammaGrid)
        assert grid.values.shape == (2, 3)
        assert grid.values[1, 1] == pytest.approx(gamma(10, 8, 1), abs=1e-15)
        assert grid.boundary.shape == (2,)
        assert grid.boundary[1] == pytest.approx(boundary_order(10, 1), abs=1e-12)

    def test_contains_both_regimes_for_single_control(self):
        grid = gamma_grid(1)
        assert np.any(grid.values < 1.0)
        assert np.any(grid.values > 1.0)


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: boundary_order(1, 1), "dim must be at least 2, got 1",
                 id="boundary-order-dim-1"),
    pytest.param(lambda: default_orders(5, 3), "high must be at least 5, got 3",
                 id="orders-reversed"),
    pytest.param(lambda: gamma_grid(1, dims=[], orders=[2, 3]),
                 "dims and orders must be non-empty", id="grid-empty-dims"),
])
def test_bad_input_raises_naming_it(call, named):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and named in str(info.value)
