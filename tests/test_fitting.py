import numpy as np
import pytest

from sideband_lab.dataio import read_calibration_tables, write_calibration_tables
from sideband_lab.errors import DegenerateData
from sideband_lab.fitting import EXACT_ULPS, fit_lorentzian, gauss_newton, median


def lorentzian(x, center, width, amplitude, floor):
    return floor + amplitude / (1.0 + ((x - center) / (width / 2.0)) ** 2)


class TestMedian:
    """`median` is np.median to the bit, without importing numpy.ma."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 101, 2000])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n) * 1e3, np.round(rng.standard_normal(n)),
                       rng.integers(0, 3, n) * 0.1, np.full(n, -0.0)):
            expected = np.median(values)
            got = median(values)
            assert type(got) is float
            assert got == expected and np.signbit(got) == np.signbit(expected), values

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan], [np.nan, 2.0, 1.0],
                                        [3.0, 1.0, np.nan, 2.0, 0.0], [np.inf, -np.inf]])
    def test_nan_in_nan_out(self, values):
        with np.errstate(invalid="ignore"):
            assert np.isnan(np.median(values))
            assert np.isnan(median(np.array(values)))

    def test_underflowing_mean_keeps_numpys_sign(self):
        values = np.array([-5e-324, 0.0])  # (0 + a + b)/2 rounds to -0.0
        assert np.signbit(median(values)) == np.signbit(np.median(values))


class TestGaussNewton:
    def test_quadratic_exact(self):
        target = np.array([2.0, -3.0])

        def model_jac(p):
            return p, np.eye(2)

        x, cov, rnorm, n_iter = gauss_newton(model_jac, target, np.zeros(2))
        np.testing.assert_allclose(x, target, atol=1e-12)
        assert rnorm == pytest.approx(0.0, abs=1e-12)
        assert not cov.any()  # an exact fit

    def test_deterministic_repeat(self):
        x = np.linspace(-5, 5, 101)
        data = lorentzian(x, 0.3, 1.7, 2.0, 0.5) + 0.01 * np.sin(17 * x)

        def model_jac(p):
            c, w, a, f = p
            dx = x - c
            denom = dx**2 + w**2 / 4.0
            shape = (w**2 / 4.0) / denom
            jac = np.column_stack([
                a * (w**2 / 4.0) * 2 * dx / denom**2,
                a * (w / 2.0) * dx**2 / denom**2,
                shape,
                np.ones_like(x),
            ])
            return f + a * shape, jac

        runs = [gauss_newton(model_jac, data, np.array([0.0, 1.0, 1.0, 0.0]))
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0][0], runs[1][0])

    def test_exact_fit_has_zero_covariance(self):
        # a fit exact to rounding reports standard errors of 0.0, not the rounding
        # residue of s^2; 1e-13 relative noise is far above rounding, and is reported
        x = np.linspace(-10, 10, 401)
        clean = lorentzian(x, 0.7, 2.3, 4.1, 0.9)
        exact = fit_lorentzian(x, clean)
        assert exact.residual_norm <= EXACT_ULPS * np.finfo(float).eps * np.linalg.norm(clean)
        assert exact.covariance.shape == (4, 4) and not exact.covariance.any()
        noisy = clean * (1.0 + 1e-13 * np.random.default_rng(3).standard_normal(x.size))
        fit = fit_lorentzian(x, noisy)
        assert fit.residual_norm > EXACT_ULPS * np.finfo(float).eps * np.linalg.norm(noisy)
        for name in ("center", "width", "amplitude", "floor"):
            assert fit.uncertainty(name) > 0.0


class TestFitLorentzian:
    def test_exact_recovery(self):
        x = np.linspace(-10, 10, 401)
        fit = fit_lorentzian(x, lorentzian(x, 0.7, 2.3, 4.1, 0.9))
        assert fit.center == pytest.approx(0.7, abs=1e-8)
        assert fit.width == pytest.approx(2.3, rel=1e-8)
        assert fit.amplitude == pytest.approx(4.1, rel=1e-8)
        assert fit.floor == pytest.approx(0.9, rel=1e-8)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-8)

    def test_dip_recovery(self):
        x = np.linspace(-10, 10, 401)
        fit = fit_lorentzian(x, lorentzian(x, -1.2, 3.0, -2.5, 5.0))
        assert fit.amplitude == pytest.approx(-2.5, rel=1e-8)
        assert fit.center == pytest.approx(-1.2, abs=1e-8)

    def test_noisy_width_statistics(self):
        # 1% additive noise, 50 seeds: width within 3% at one sigma
        x = np.linspace(-12, 12, 301)
        clean = lorentzian(x, 0.0, 2.0, 3.0, 1.0)
        widths = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.01 * clean * rng.standard_normal(x.size)
            fit = fit_lorentzian(x, noisy)
            widths.append(fit.width)
        widths = np.asarray(widths)
        assert np.std(widths) / 2.0 < 0.03
        assert np.mean(widths) == pytest.approx(2.0, rel=0.01)

    def test_flat_input_degenerate(self):
        x = np.linspace(-5, 5, 50)
        with pytest.raises(DegenerateData):
            fit_lorentzian(x, np.full_like(x, 3.3))

    def test_too_few_points(self, tmp_path):
        # a sideband table must hold the 20 distinct offsets its fit needs
        x = np.linspace(-5, 5, 10)
        write_calibration_tables(tmp_path, {"sideband_stokes": (x, lorentzian(x, 0, 2, 1, 0))})
        with pytest.raises(DegenerateData) as err:
            read_calibration_tables(tmp_path)
        assert str(err.value) == (f"{tmp_path / 'sideband_stokes.csv'}: column 1, offset_hz, "
                                  "must hold at least 20 distinct values, got 10")

    def test_uncertainties_scale_with_noise(self):
        x = np.linspace(-12, 12, 301)
        clean = lorentzian(x, 0.0, 2.0, 3.0, 1.0)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(x.size)
        small = fit_lorentzian(x, clean + 0.005 * noise)
        large = fit_lorentzian(x, clean + 0.05 * noise)
        assert large.uncertainty("width") > 5 * small.uncertainty("width")
