import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from rdtune.errors import CurveDataError, ExtrapolationError
from rdtune.pchip import pchip_eval, pchip_fit


def random_monotone_xy(rng, n):
    x = np.sort(rng.uniform(0.0, 10.0, n))
    while np.min(np.diff(x)) < 0.05:
        x = np.sort(rng.uniform(0.0, 10.0, n))
    y = np.cumsum(rng.uniform(0.1, 2.0, n)) + rng.uniform(-5.0, 5.0)
    return x, y


class TestFit:
    def test_collinear_reproduces_line(self):
        f = pchip_fit([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        assert pchip_eval(f, 2.5) == pytest.approx(2.5, abs=1e-14)

    def test_knot_reproduction_exact(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 9):
            x, y = random_monotone_xy(rng, n)
            f = pchip_fit(np.column_stack([x, y]))
            for xi, yi in zip(x, y):
                assert pchip_eval(f, xi) == yi

    def test_two_points_is_linear(self):
        f = pchip_fit([(0.0, 1.0), (2.0, 5.0)])
        assert pchip_eval(f, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_duplicate_x_rejected(self):
        with pytest.raises(CurveDataError):
            pchip_fit([(0.0, 0.0), (0.0, 1.0), (1.0, 2.0)])

    def test_unsorted_x_rejected(self):
        with pytest.raises(CurveDataError):
            pchip_fit([(1.0, 0.0), (0.0, 1.0)])

    def test_too_few_points(self):
        with pytest.raises(CurveDataError):
            pchip_fit([(0.0, 0.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(CurveDataError):
            pchip_fit([(0.0, 0.0), (1.0, np.nan)])


class TestOracleAgreement:
    def test_flat_step_dataset(self):
        pts = [(0.0, 0.0), (1.0, 10.0), (2.0, 10.1), (3.0, 20.0)]
        mine = pchip_fit(pts)
        ref = PchipInterpolator([p[0] for p in pts], [p[1] for p in pts])
        xs = np.linspace(0.0, 3.0, 4001)
        assert np.max(np.abs(mine(xs) - ref(xs))) < 1e-9

    def test_random_monotone_datasets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = random_monotone_xy(rng, int(rng.integers(3, 10)))
            mine = pchip_fit(np.column_stack([x, y]))
            ref = PchipInterpolator(x, y)
            xs = np.linspace(x[0], x[-1], 1500)
            assert np.max(np.abs(mine(xs) - ref(xs))) < 1e-9

    def test_non_monotone_data_still_matches_scipy(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 2.0, 1.0, 1.0, 3.0])
        mine = pchip_fit(np.column_stack([x, y]))
        ref = PchipInterpolator(x, y)
        xs = np.linspace(0.0, 4.0, 2001)
        assert np.max(np.abs(mine(xs) - ref(xs))) < 1e-9


class TestShapeProperties:
    def test_monotone_preservation(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            x, y = random_monotone_xy(rng, int(rng.integers(4, 9)))
            f = pchip_fit(np.column_stack([x, y]))
            xs = np.linspace(x[0], x[-1], 10_000)
            deriv = f(xs, derivative=1)
            assert np.min(deriv) >= -1e-12

    def test_c1_continuity_finite_difference(self):
        # Second-order one-sided stencils from each side of every interior
        # knot; well-separated knots keep the difference well-conditioned.
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.uniform(0.5, 1.5, 8))
        y = np.cumsum(rng.uniform(0.3, 2.0, 8))
        f = pchip_fit(np.column_stack([x, y]))
        for i, xi in enumerate(x[1:-1], start=1):
            h = 3e-6 * min(x[i] - x[i - 1], x[i + 1] - x[i])
            right = (4.0 * f(xi + h) - 3.0 * f(xi) - f(xi + 2 * h)) / (2.0 * h)
            left = (4.0 * f(xi - h) - 3.0 * f(xi) - f(xi - 2 * h)) / (-2.0 * h)
            assert right == pytest.approx(left, rel=1e-6, abs=1e-9)

    def test_derivative_matches_slopes_at_knots(self):
        rng = np.random.default_rng(3)
        x, y = random_monotone_xy(rng, 6)
        f = pchip_fit(np.column_stack([x, y]))
        for i, xi in enumerate(x):
            assert f(xi, derivative=1) == pytest.approx(f.slopes[i], rel=1e-12, abs=1e-12)


class TestEval:
    def test_extrapolation_rejected(self):
        f = pchip_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
        with pytest.raises(ExtrapolationError):
            pchip_eval(f, -0.001)
        with pytest.raises(ExtrapolationError):
            pchip_eval(f, 2.001)

    def test_endpoints_evaluable(self):
        f = pchip_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
        assert pchip_eval(f, 0.0) == 0.0
        assert pchip_eval(f, 2.0) == 4.0

    def test_vectorized(self):
        f = pchip_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
        out = pchip_eval(f, [0.0, 0.5, 1.0, 2.0])
        assert isinstance(out, list) and len(out) == 4
        assert out[0] == 0.0 and out[2] == 1.0

    @pytest.mark.parametrize("derivative", [0, 1])
    def test_unsorted_sequence_matches_scalar_calls(self, derivative):
        rng = np.random.default_rng(13)
        x, y = random_monotone_xy(rng, 6)
        f = pchip_fit(np.column_stack([x, y]))
        at = np.concatenate([rng.uniform(x[0], x[-1], 23), x[::-1]])
        rng.shuffle(at)
        out = pchip_eval(f, at.tolist(), derivative=derivative)
        assert isinstance(out, list)
        assert out == [pchip_eval(f, float(v), derivative=derivative) for v in at]

    def test_scalar_returns_float(self):
        f = pchip_fit([(0.0, 0.0), (2.0, 2.0)])
        assert isinstance(pchip_eval(f, 1.0), float)

    def test_bad_derivative_order(self):
        f = pchip_fit([(0.0, 0.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            pchip_eval(f, 1.0, derivative=2)

    def test_midpoint_of_linear_segment(self):
        # Collinear neighbourhood: the segment between equal-slope knots is a line.
        f = pchip_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        assert pchip_eval(f, 1.5) == pytest.approx(1.5, abs=1e-14)
