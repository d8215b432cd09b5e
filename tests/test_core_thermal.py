"""Unit tests for the 3D-stack thermal model (paper future work)."""

import pytest

from repro.core.thermal import (
    ThermalModel,
    ThermalSpec,
    tier_powers_from_report,
)


class TestThermalSpec:
    def test_defaults_valid(self):
        spec = ThermalSpec()
        assert spec.max_junction_celsius > spec.ambient_celsius

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalSpec(sink_resistance=-1.0)
        with pytest.raises(ValueError):
            ThermalSpec(max_junction_celsius=10.0)


class TestSteadyState:
    model = ThermalModel()

    def test_single_tier(self):
        spec = self.model.spec
        profile = self.model.steady_state([10.0])
        expected = (
            spec.ambient_celsius
            + spec.sink_resistance * 10.0
            + spec.layer_resistance * 10.0
        )
        assert profile.tier_celsius[0] == pytest.approx(expected)

    def test_bottom_tier_hottest(self):
        profile = self.model.steady_state([20.0, 20.0, 20.0])
        temps = profile.tier_celsius
        assert temps[0] > temps[1] > temps[2]
        assert profile.peak_tier == 0

    def test_zero_power_is_ambient(self):
        profile = self.model.steady_state([0.0, 0.0])
        assert profile.peak_celsius == pytest.approx(self.model.spec.ambient_celsius)

    def test_more_tiers_hotter(self):
        """The paper's concern: stacking raises peak temperature."""
        peaks = [
            self.model.steady_state([20.0] * tiers).peak_celsius
            for tiers in (1, 2, 3, 4, 6)
        ]
        assert peaks == sorted(peaks)
        # Superlinear growth: adding the 6th tier costs more than the 2nd.
        assert (peaks[4] - peaks[3]) > (peaks[1] - peaks[0])

    def test_feasibility_flag(self):
        cool = self.model.steady_state([5.0, 5.0, 5.0])
        hot = self.model.steady_state([200.0, 200.0, 200.0])
        assert cool.feasible
        assert not hot.feasible

    def test_validation(self):
        with pytest.raises(ValueError):
            self.model.steady_state([])
        with pytest.raises(ValueError):
            self.model.steady_state([-1.0])


class TestMaxFeasibleTiers:
    def test_monotone_in_power(self):
        model = ThermalModel()
        assert model.max_feasible_tiers(5.0) >= model.max_feasible_tiers(30.0)

    def test_zero_power_unbounded(self):
        assert ThermalModel().max_feasible_tiers(0.0, max_tiers=12) == 12

    def test_huge_power_infeasible(self):
        assert ThermalModel().max_feasible_tiers(1e6) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThermalModel().max_feasible_tiers(-1.0)


class TestTierPowerAttribution:
    """Regression: zero dynamic energy must not divide by zero or leak a
    non-float v_share through the `x and (a / b)` idiom."""

    @staticmethod
    def _stub_report(compute=0.0, write=0.0, noc=0.0, period=1e-3):
        from types import SimpleNamespace

        from repro.core.config import ReGraphXConfig

        config = ReGraphXConfig()
        return SimpleNamespace(
            config=config,
            compute_energy_per_input=compute,
            energy_per_input=compute + write + noc,
            pipeline=SimpleNamespace(period=period),
        )

    def test_zero_dynamic_energy(self):
        report = self._stub_report()
        powers = tier_powers_from_report(report)
        assert len(powers) == report.config.tiers
        static_each = (
            report.config.static_power_watts / report.config.tiers
        )
        # Nothing to attribute: every tier carries exactly its static share.
        assert all(p == pytest.approx(static_each) for p in powers)

    def test_zero_compute_nonzero_noc(self):
        report = self._stub_report(compute=0.0, noc=2e-9)
        powers = tier_powers_from_report(report)
        # v_share is 0.0 (a float), so the whole dynamic power lands on
        # the E tiers and the total is conserved.
        v = powers[report.config.v_tier]
        static_each = (
            report.config.static_power_watts / report.config.tiers
        )
        assert v == pytest.approx(static_each)
        dynamic = report.energy_per_input / report.pipeline.period
        assert sum(powers) == pytest.approx(
            report.config.static_power_watts + dynamic
        )

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            tier_powers_from_report(self._stub_report(period=0.0))


class TestReportIntegration:
    def test_tier_powers_from_report(self, accelerator, ppi_workload):
        report = accelerator.evaluate(ppi_workload, use_sa=False)
        powers = tier_powers_from_report(report)
        assert len(powers) == accelerator.config.tiers
        assert all(p > 0 for p in powers)
        # Static power dominates, so the tiers should be roughly balanced.
        assert max(powers) < 2 * min(powers)

    def test_default_design_is_thermally_feasible(self, accelerator, ppi_workload):
        """The paper's 3-tier choice stays under the junction limit."""
        report = accelerator.evaluate(ppi_workload, use_sa=False)
        profile = ThermalModel().steady_state(tier_powers_from_report(report))
        assert profile.feasible
