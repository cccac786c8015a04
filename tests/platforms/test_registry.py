"""Tests for the platform registry and the spec-string grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms import (
    DEFAULT_PLATFORMS,
    REGISTRY,
    PlatformRegistry,
    build_platform,
)
from repro.sim.config import cegma_config
from repro.sim.engine import AcceleratorSimulator


class _FakePlatform:
    def simulate_batches(self, batch_traces):  # pragma: no cover - stub
        raise NotImplementedError


class TestRegistration:
    def test_stock_platforms_registered(self):
        for name in DEFAULT_PLATFORMS + ("CEGMA-EMF", "CEGMA-CGC"):
            assert name in REGISTRY

    def test_direct_registration(self):
        registry = PlatformRegistry()
        registry.register("Fake", _FakePlatform)
        assert registry.names() == ["Fake"]
        assert isinstance(registry.build("Fake"), _FakePlatform)

    def test_decorator_registration(self):
        registry = PlatformRegistry()

        @registry.register("Fake")
        def build_fake():
            return _FakePlatform()

        assert "Fake" in registry
        assert isinstance(registry.build("Fake"), _FakePlatform)
        assert build_fake is not None  # decorator returns the function

    def test_accelerator_decorator_registration(self):
        registry = PlatformRegistry()

        @registry.register_accelerator("Custom")
        def custom_config():
            return cegma_config()

        simulator = registry.build("Custom@mac_units=16")
        assert isinstance(simulator, AcceleratorSimulator)
        assert simulator.config.mac_units == 16

    def test_duplicate_rejected_unless_overwrite(self):
        registry = PlatformRegistry()
        registry.register("Fake", _FakePlatform)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("Fake", _FakePlatform)
        registry.register("Fake", _FakePlatform, overwrite=True)

    def test_reserved_characters_rejected(self):
        registry = PlatformRegistry()
        for name in ("a@b", "a=b", "a,b"):
            with pytest.raises(ValueError):
                registry.register(name, _FakePlatform)

    def test_unknown_platform_error_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            REGISTRY.build("NotAPlatform")


class TestSpecParsing:
    def test_bare_name(self):
        parsed = REGISTRY.parse("CEGMA")
        assert parsed.base == "CEGMA"
        assert parsed.overrides == {}

    def test_alias_bandwidth(self):
        parsed = REGISTRY.parse("CEGMA@bandwidth_gbps=512")
        assert parsed.overrides == {"dram_bandwidth_bytes_per_cycle": 512.0}

    def test_alias_num_pes_sets_both_fields(self):
        parsed = REGISTRY.parse("CEGMA@num_pes=1024")
        assert parsed.overrides == {
            "mac_units": 1024,
            "aggregation_lanes": 1024,
        }

    def test_alias_buffer_kb(self):
        parsed = REGISTRY.parse("CEGMA@buffer_kb=256")
        assert parsed.overrides == {"input_buffer_bytes": 256 * 1024}

    def test_raw_field_and_bool(self):
        parsed = REGISTRY.parse("CEGMA@cgc_enabled=false,mac_units=64")
        assert parsed.overrides == {"cgc_enabled": False, "mac_units": 64}

    def test_whitespace_tolerated(self):
        parsed = REGISTRY.parse("CEGMA@ mac_units = 64 ")
        assert parsed.overrides == {"mac_units": 64}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            REGISTRY.parse("CEGMA@warp_drive=1")

    def test_unsettable_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            REGISTRY.parse("CEGMA@name=sneaky")

    def test_malformed_override_rejected(self):
        for spec in ("CEGMA@", "CEGMA@mac_units", "CEGMA@=64", "CEGMA@mac_units="):
            with pytest.raises(ValueError):
                REGISTRY.parse(spec)

    def test_bad_value_type_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            REGISTRY.parse("CEGMA@mac_units=lots")

    def test_software_platform_takes_no_overrides(self):
        with pytest.raises(ValueError, match="does not take spec overrides"):
            REGISTRY.parse("PyG-CPU@mac_units=1")

    def test_contains_covers_specs(self):
        assert "CEGMA@bandwidth_gbps=512" in REGISTRY
        assert "CEGMA@warp_drive=1" not in REGISTRY
        assert 42 not in REGISTRY


class TestDerivedConfigs:
    def test_config_override_applied(self):
        config = REGISTRY.config("CEGMA@bandwidth_gbps=512")
        assert config.dram_bandwidth_bytes_per_cycle == 512.0

    def test_stock_config_untouched_by_derivation(self):
        REGISTRY.config("CEGMA@mac_units=1")
        assert REGISTRY.config("CEGMA").mac_units == cegma_config().mac_units

    def test_derived_name_is_canonical_spec(self):
        config = REGISTRY.config("CEGMA@buffer_kb=256,bandwidth_gbps=512")
        assert config.name == REGISTRY.canonical(
            "CEGMA@buffer_kb=256,bandwidth_gbps=512"
        )

    def test_canonical_sorts_and_resolves_aliases(self):
        a = REGISTRY.canonical("CEGMA@num_pes=64,bandwidth_gbps=512")
        b = REGISTRY.canonical(
            "CEGMA@dram_bandwidth_bytes_per_cycle=512,"
            "aggregation_lanes=64,mac_units=64"
        )
        assert a == b

    def test_config_or_none_for_software(self):
        assert REGISTRY.config_or_none("PyG-CPU") is None
        assert REGISTRY.config_or_none("CEGMA") is not None

    def test_build_spec_returns_simulator(self):
        simulator = build_platform("AWB-GCN@bandwidth_gbps=128")
        assert isinstance(simulator, AcceleratorSimulator)
        assert simulator.config.dram_bandwidth_bytes_per_cycle == 128.0

    def test_builder_validates_eagerly(self):
        with pytest.raises(ValueError):
            REGISTRY.builder("CEGMA@warp_drive=1")
        builder = REGISTRY.builder("CEGMA")
        assert isinstance(builder(), AcceleratorSimulator)

    def test_spec_fields_include_aliases(self):
        fields = REGISTRY.spec_fields("CEGMA")
        assert "bandwidth_gbps" in fields
        assert "mac_units" in fields
        assert "name" not in fields
        assert "emf" not in fields
        assert REGISTRY.spec_fields("PyG-CPU") == ()


# Override values drawn per-field so the property covers ints, floats,
# and bools across every accelerator platform.
_ACCELERATORS = ("CEGMA", "CEGMA-EMF", "CEGMA-CGC", "HyGCN", "AWB-GCN")
_FIELD_VALUES = {
    "mac_units": st.integers(min_value=1, max_value=65536),
    "aggregation_lanes": st.integers(min_value=1, max_value=4096),
    "input_buffer_bytes": st.integers(min_value=1024, max_value=1 << 24),
    "matching_buffer_bytes": st.integers(min_value=1024, max_value=1 << 24),
    "dram_bandwidth_bytes_per_cycle": st.floats(
        min_value=1.0, max_value=4096.0, allow_nan=False
    ),
    "matching_utilization": st.floats(
        min_value=0.01, max_value=1.0, allow_nan=False
    ),
    "cgc_enabled": st.booleans(),
    "batch_interleaved": st.booleans(),
}


@st.composite
def _spec_overrides(draw):
    fields = draw(
        st.lists(
            st.sampled_from(sorted(_FIELD_VALUES)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return {field: draw(_FIELD_VALUES[field]) for field in fields}


class TestSpecRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from(_ACCELERATORS),
        overrides=_spec_overrides(),
    )
    def test_format_then_parse_gives_equal_config(self, base, overrides):
        """Registry-produced spec strings parse back to equal configs."""
        spec = REGISTRY.format_spec(base, overrides)
        parsed = REGISTRY.parse(spec)
        assert parsed.base == base
        direct = REGISTRY.config(spec)
        payload = REGISTRY.entry(base).config_factory().to_dict()
        payload.update(overrides)
        payload["name"] = direct.name
        from repro.sim.config import HardwareConfig

        assert direct == HardwareConfig.from_dict(payload)
        # Canonicalization is a fixed point.
        assert REGISTRY.canonical(spec) == REGISTRY.canonical(
            REGISTRY.canonical(spec)
        )
