import math

import numpy as np
import pytest

from snspd_stats import DomainError, IntegrationError, OrderedTimes, QuadratureSpec
from snspd_stats.quadrature import _gauss, integrate_ordered

SPEC = QuadratureSpec()
QMC = QuadratureSpec(method="qmc_sobol", seed=5)


def ones(T):
    return np.ones(len(T))


class TestVolumeIdentity:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_volume(self, n):
        val, _ = integrate_ordered(n, 1.0, ones, SPEC)
        assert val == pytest.approx(1.0 / math.factorial(n), rel=SPEC.rel_tol)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_volume_scaled_window(self, n):
        val, _ = integrate_ordered(n, 0.7, ones, SPEC)
        assert val == pytest.approx(0.7**n / math.factorial(n), rel=1e-6)


class TestPolynomials:
    def test_t1_times_t2(self):
        val, err = integrate_ordered(2, 1.0, lambda T: T[:, 0] * T[:, 1], SPEC)
        assert val == pytest.approx(0.125, abs=1e-13)

    def test_t1_times_t2_qmc(self):
        val, err = integrate_ordered(2, 1.0, lambda T: T[:, 0] * T[:, 1], QMC)
        assert abs(val - 0.125) < max(4 * err, 1e-5)

    def test_symmetrization_identity(self):
        # symmetric integrand over the ordered domain equals 1/n! of the cube
        def f(T):
            return np.exp(-T.sum(axis=1)) + (T**2).sum(axis=1)

        for n in (1, 2, 3):
            val, err = integrate_ordered(n, 1.0, f, SPEC)
            x, w = _gauss(32)
            nodes = 0.5 * (x + 1)
            wts = 0.5 * w
            grids = np.meshgrid(*([nodes] * n), indexing="ij")
            T = np.column_stack([g.ravel() for g in grids])
            wcube = np.ones(len(T))
            for i in range(n):
                wcube *= np.tile(np.repeat(wts, 32 ** (n - 1 - i)), 32**i)
            cube = float(wcube @ f(T))
            assert abs(val - cube / math.factorial(n)) < 3 * (err + 1e-12) + 1e-10


class TestSupportTransform:
    @pytest.mark.parametrize("method", ["nested_gauss", "qmc_sobol"])
    def test_gap_restricted_volume(self, method):
        # volume of tuples with consecutive gaps at least g is a shrunken simplex
        n, g = 3, 0.2
        spec = QuadratureSpec(method=method, seed=2)
        val, _ = integrate_ordered(n, 1.0, ones, spec, lower_gap=g)
        expect = (1.0 - (n - 1) * g) ** n / math.factorial(n)
        assert val == pytest.approx(expect, rel=1e-6)

    def test_first_offset(self):
        val, _ = integrate_ordered(2, 1.0, ones, SPEC, first_offset=0.3)
        assert val == pytest.approx(0.7**2 / 2, rel=1e-9)

    def test_empty_support_returns_zero(self):
        val, err = integrate_ordered(4, 1.0, ones, SPEC, lower_gap=0.4)
        assert val == 0.0 and err == 0.0

    def test_outer_range_partition(self):
        lo_hi = [(0.0, 0.4), (0.4, 1.0)]
        parts = [integrate_ordered(2, 1.0, ones, SPEC, outer_range=r)[0]
                 for r in lo_hi]
        assert sum(parts) == pytest.approx(0.5, abs=1e-12)

    def test_outer_range_qmc(self):
        val, err = integrate_ordered(2, 1.0, ones, QMC, outer_range=(0.4, 1.0))
        direct = 0.5 - 0.4**2 / 2
        assert abs(val - direct) < max(4 * err, 1e-6)

    def test_tilted_sampling_matches_uniform(self):
        # integrand vanishing linearly in the gap, the tilt's target case
        def f(T):
            return (T[:, 1] - T[:, 0]) * np.exp(-T.sum(axis=1))

        ref, _ = integrate_ordered(2, 1.0, f, SPEC)
        val, err = integrate_ordered(2, 1.0, f, QMC, gap_tilt=(1.0, 2.0, 1.0))
        assert abs(val - ref) < max(4 * err, 2e-6)


class TestContract:
    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            integrate_ordered(0, 1.0, ones, SPEC)

    def test_nested_beyond_five_rejected(self):
        spec = QuadratureSpec(method="nested_gauss")
        with pytest.raises(DomainError):
            integrate_ordered(6, 1.0, ones, spec)

    def test_auto_switches_method(self):
        assert SPEC.resolve_method(5) == "nested_gauss"
        assert SPEC.resolve_method(6) == "qmc_sobol"

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(method="trapezoid")
        with pytest.raises(DomainError):
            QuadratureSpec(gauss_order=1)
        with pytest.raises(DomainError):
            QuadratureSpec(qmc_samples=512)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)

    @pytest.mark.parametrize("field", ["gauss_order", "qmc_samples", "seed"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 4096.0, "8"])
    def test_integer_knobs(self, field, bad):
        # a JSON config is not type-checked: NaN passed the size checks, 1e999
        # overflowed and 2.5 broke the Gauss rule
        with pytest.raises(DomainError):
            QuadratureSpec(**{field: bad})
        assert getattr(QuadratureSpec(**{field: np.int64(4096)}), field) == 4096

    def test_non_finite_aborts_with_point(self):
        def bad(T):
            out = np.ones(len(T))
            out[T[:, 0] > 0.5] = np.nan
            return out

        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_ordered(1, 1.0, bad, SPEC)

    def test_vector_valued_integrand(self):
        def f(T):
            return np.column_stack([np.ones(len(T)), T[:, 0]])

        val, err = integrate_ordered(1, 1.0, f, SPEC)
        assert val == pytest.approx([1.0, 0.5], abs=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        SPEC,
        QuadratureSpec(method="qmc_sobol", seed=9),
        QuadratureSpec(method="qmc_sobol", seed=9, qmc_samples=1 << 12),
    ])
    def test_bit_identical_reruns(self, spec):
        f = lambda T: np.exp(-(T**2).sum(axis=1))
        a = integrate_ordered(3, 1.0, f, spec)
        b = integrate_ordered(3, 1.0, f, spec)
        assert a == b

    def test_seed_changes_qmc_stream(self):
        f = lambda T: np.exp(-(T**2).sum(axis=1))
        a, _ = integrate_ordered(6, 1.0, f, QuadratureSpec(method="qmc_sobol", seed=1))
        b, _ = integrate_ordered(6, 1.0, f, QuadratureSpec(method="qmc_sobol", seed=2))
        assert a != b


class TestOrderedTimes:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            OrderedTimes((0.5, 0.2))
        with pytest.raises(DomainError):
            OrderedTimes((-0.1, 0.2))
        assert len(OrderedTimes((0.1, 0.1, 0.4))) == 3


def test_outer_range_qmc_high_dimension():
    # restricted outermost coordinate through the hybrid Sobol path
    val, err = integrate_ordered(6, 1.0, ones, QMC, outer_range=(0.5, 1.0))
    exact = (1.0 - 0.5**6) / math.factorial(6)
    assert abs(val - exact) < max(4 * err, 1e-6)
