"""Tenant scenario spec validation and schedule determinism.

The determinism property is the load-bearing one: a schedule must be
bit-identical for a fixed seed (campaign cache keys and repetition
statistics rely on it) and must re-roll completely when the seed, the
scenario name, or any tenant-level component changes.
"""

import dataclasses
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.workloads.tenants import (
    TenantScenarioSpec,
    build_schedule,
)


def scenario(**overrides):
    base = dict(
        name="unit",
        tenants=6,
        profiles=("mcf", "sphinx3"),
        tenant_accesses=400,
        quantum=100,
        capacity_scale=256,
        seed=7,
    )
    base.update(overrides)
    return TenantScenarioSpec(**base)


class TestSpecValidation:
    def test_rejects_unknown_profile(self):
        with pytest.raises(ConfigurationError, match="unknown profile"):
            scenario(profiles=("mcf", "nosuch"))

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            scenario(tenants=0)
        with pytest.raises(ConfigurationError):
            scenario(quantum=0)
        with pytest.raises(ConfigurationError):
            scenario(capacity_scale=0)
        with pytest.raises(ConfigurationError):
            scenario(arrival_rate=0.0)

    def test_resize_events_normalised_and_sorted(self):
        spec = scenario(resize=[[500, 1.0], [100, 0.5]])
        assert spec.resize == ((100, 0.5), (500, 1.0))
        with pytest.raises(ConfigurationError, match="at_access"):
            scenario(resize=[[0, 0.5]])
        with pytest.raises(ConfigurationError, match="positive"):
            scenario(resize=[[100, 0.0]])

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            TenantScenarioSpec.from_dict({"name": "x", "tenants": 1,
                                          "quantums": 5})

    def test_round_trips_through_dict(self):
        spec = scenario(resize=[[100, 0.5]])
        assert TenantScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            TenantScenarioSpec.from_file(str(path))

    def test_spec_hash_tracks_content(self, tmp_path):
        spec = scenario()
        assert spec.spec_hash() == scenario().spec_hash()
        assert spec.spec_hash() != scenario(quantum=101).spec_hash()
        # File identity is content identity: rewriting the same JSON in
        # a different key order does not change the hash.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec.to_dict()))
        shuffled = dict(reversed(list(spec.to_dict().items())))
        assert (TenantScenarioSpec.from_file(str(path)).spec_hash()
                == TenantScenarioSpec.from_dict(shuffled).spec_hash())


class TestScheduleDeterminism:
    def test_fixed_seed_is_bit_identical(self):
        first = build_schedule(scenario(), num_cores=2)
        second = build_schedule(scenario(), num_cores=2)
        assert first.digest() == second.digest()

    @pytest.mark.parametrize("mutation", [
        dict(seed=8),
        dict(name="unit2"),
        dict(tenants=7),
        dict(tenant_accesses=401),
        dict(quantum=101),
        dict(capacity_scale=255),
        dict(footprint_zipf=0.9),
        dict(arrival_rate=0.2),
        dict(profiles=("mcf", "milc")),
    ])
    def test_any_tenant_level_component_rerolls(self, mutation):
        base = build_schedule(scenario(), num_cores=2).digest()
        mutated = build_schedule(scenario(**mutation), num_cores=2).digest()
        assert mutated != base, f"digest blind to {mutation}"

    def test_base_seed_applies_only_without_explicit_seed(self):
        floating = scenario(seed=None)
        a = build_schedule(floating, num_cores=2, base_seed=1)
        b = build_schedule(floating, num_cores=2, base_seed=2)
        assert a.digest() != b.digest()
        pinned = scenario(seed=7)
        c = build_schedule(pinned, num_cores=2, base_seed=1)
        d = build_schedule(pinned, num_cores=2, base_seed=2)
        assert c.digest() == d.digest()


class TestScheduleStructure:
    def test_demands_fully_scheduled(self):
        schedule = build_schedule(scenario(), num_cores=2)
        assert schedule.total_accesses == sum(
            info.demand_accesses for info in schedule.tenants
        )
        assert all(len(segment.trace) <= scenario().quantum
                   for segments in schedule.per_core
                   for segment in segments)

    def test_vpn_windows_are_private(self):
        """Two time-shared tenants must never alias virtual pages: the
        modelled TLBs have no ASIDs, so window overlap would leak
        translations across context switches."""
        schedule = build_schedule(scenario(), num_cores=2)
        windows = sorted(
            (info.vpn_base, info.vpn_base + info.vpn_span)
            for info in schedule.tenants
        )
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start >= prev_end
        by_tenant = {info.tenant_id: info for info in schedule.tenants}
        for segments in schedule.per_core:
            for segment in segments:
                info = by_tenant[segment.tenant_id]
                pages, _, _, _ = segment.trace.as_lists()
                assert all(
                    info.vpn_base <= p < info.vpn_base + info.vpn_span
                    for p in pages
                )

    def test_process_ids_are_distinct(self):
        schedule = build_schedule(scenario(), num_cores=2)
        pids = [info.process_id for info in schedule.tenants]
        assert len(set(pids)) == len(pids)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError, match="at least one core"):
            build_schedule(scenario(), num_cores=0)

    def test_max_span_pages_bounds_every_seed(self):
        """The load-time bound holds whatever profiles the seed draws,
        and is tight when a scenario has a single profile."""
        spec = scenario(profiles=("mcf", "sphinx3", "lbm"), seed=None)
        bound = spec.max_span_pages()
        for seed in range(6):
            schedule = build_schedule(spec, num_cores=2, base_seed=seed)
            assert schedule.total_span_pages <= bound
        single = scenario(profiles=("lbm",))
        assert (build_schedule(single, num_cores=2).total_span_pages
                == single.max_span_pages())
