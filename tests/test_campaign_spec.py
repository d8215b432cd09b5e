"""Tests for the declarative scenario/campaign specification layer."""

import pytest

from repro.campaign.presets import PRESETS, get_preset, preset_names
from repro.campaign.spec import CampaignSpec, Scenario, axis_fields
from repro.core.config import ReGraphXConfig


class TestScenario:
    def test_defaults_materialize_paper_design_point(self):
        assert Scenario().to_config() == ReGraphXConfig()

    def test_overrides_compose_on_custom_base(self):
        base = ReGraphXConfig(num_layers=2)
        config = Scenario(tiers=5).to_config(base)
        assert config.tiers == 5
        assert config.v_tier == 2  # re-centered
        assert config.num_layers == 2  # base preserved

    def test_tier_override_scales_static_power(self):
        base = ReGraphXConfig()
        config = Scenario(tiers=5).to_config(base)
        assert (config.tiers, config.v_tier) == (5, 2)
        base_tiles = base.num_v_tiles + base.num_e_tiles
        tiles = config.num_v_tiles + config.num_e_tiles
        assert tiles > base_tiles
        assert config.static_power_watts == pytest.approx(
            base.static_power_watts * tiles / base_tiles
        )

    def test_mesh_override_square_by_default(self):
        config = Scenario(mesh_width=6).to_config()
        assert (config.mesh_width, config.mesh_height) == (6, 6)

    def test_noc_clock_override(self):
        config = Scenario(noc_clock_hz=2.0e8).to_config()
        assert config.noc.clock_hz == 2.0e8
        # Everything else untouched.
        assert config.noc.flit_bits == ReGraphXConfig().noc.flit_bits

    def test_effective_scale_defaults_per_dataset(self):
        from repro.experiments.common import DEFAULT_SCALES

        assert Scenario(dataset="reddit").effective_scale == DEFAULT_SCALES["reddit"]
        assert Scenario(dataset="reddit", scale=0.5).effective_scale == 0.5

    def test_effective_scale_unknown_dataset_needs_explicit_scale(self):
        with pytest.raises(ValueError, match="default scale"):
            Scenario(dataset="nope").effective_scale

    def test_auto_label_names_the_knobs(self):
        label = Scenario(
            dataset="ppi", tiers=4, noc_clock_hz=2e8, multicast=False, seed=3
        ).auto_label()
        assert label == "ppi-4t-200MHz-uni-s3"

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(scale=0.0)
        with pytest.raises(ValueError):
            Scenario(tiers=1)
        with pytest.raises(ValueError):
            Scenario(noc_clock_hz=-1.0)

    def test_describe_from_dict_roundtrip(self):
        scenario = Scenario(dataset="ppi", scale=0.05, tiers=4, multicast=False)
        rebuilt = Scenario.from_dict(scenario.describe())
        assert rebuilt.to_config() == scenario.to_config()
        assert rebuilt.display_label == scenario.display_label


class TestCampaignSpec:
    def test_cross_product_count_and_order(self):
        spec = CampaignSpec(
            name="t",
            base=Scenario(dataset="ppi", scale=0.05),
            axes=(("tiers", (2, 3)), ("multicast", (True, False))),
        )
        scenarios = spec.scenarios()
        assert len(spec) == 4 and len(scenarios) == 4
        # Row-major: last axis fastest.
        assert [(s.tiers, s.multicast) for s in scenarios] == [
            (2, True), (2, False), (3, True), (3, False)
        ]

    def test_labels_unique(self):
        spec = CampaignSpec(
            name="t",
            axes=(("tiers", (2, 3, 4)), ("seed", (0, 1))),
        )
        labels = [s.label for s in spec.scenarios()]
        assert len(labels) == len(set(labels)) == 6

    def test_axes_accept_mapping(self):
        spec = CampaignSpec(name="t", axes={"tiers": (2, 3)})
        assert len(spec) == 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            CampaignSpec(name="t", axes=(("warp", (1,)),))
        assert "label" not in axis_fields(Scenario)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec(name="t", axes=(("tiers", ()),))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(name="t", axes=(("tiers", (2,)), ("tiers", (3,))))

    def test_name_required(self):
        with pytest.raises(ValueError, match="name"):
            CampaignSpec(name="")

    def test_no_axes_is_a_single_point(self):
        spec = CampaignSpec(name="point")
        assert len(spec) == 1
        assert len(spec.scenarios()) == 1


class TestPresets:
    def test_every_preset_enumerates(self):
        for name in preset_names():
            spec = get_preset(name)
            scenarios = spec.scenarios()
            assert len(scenarios) == len(spec) >= 1
            assert len({s.label for s in scenarios}) == len(scenarios)

    def test_tiers_preset_is_at_least_24_scenarios(self):
        assert len(get_preset("tiers")) >= 24

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("warp-speed")
        assert set(preset_names()) == set(PRESETS)
