"""Batched engine: bit-identical to the scalar loop, on every design.

The batched engine's whole contract is "same floats, fewer Python
instructions".  These tests run the two engines over identical bindings
and compare the *entire* observable output -- the stats dictionary
(exact ``==`` on every float), the energy breakdown, and the per-core
instruction/cycle/stall counts -- for every registered design, single-
and quad-core.  The golden-stats oracle additionally locks both engines
against checked-in numbers (CI runs it under ``REPRO_ENGINE=batched``).
"""

import pytest

from repro.common.config import default_system
from repro.common.errors import ConfigurationError
from repro.cpu import batched
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES
from repro.validate.invariants import InvariantChecker
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import mix_traces
from repro.workloads.parsec import parsec_thread_traces
from repro.workloads.spec import spec_profile
from repro.workloads.tenants import TenantScenarioSpec, build_schedule

ACCESSES = 3_000


def _single_core_bindings():
    generator = TraceGenerator(spec_profile("mcf"), capacity_scale=64)
    return [BoundTrace(0, 0, generator.generate(ACCESSES))]


def _quad_core_bindings():
    traces = mix_traces("MIX1", accesses_per_program=1_500,
                        capacity_scale=64)
    return [BoundTrace(i, i, t) for i, t in enumerate(traces)]


def _snapshot(result):
    return (
        result.stats,
        result.energy,
        [(c.core_id, c.instructions, c.cycles, c.stall_cycles)
         for c in result.cores],
        result.elapsed_ns,
        result.mean_l3_latency_cycles,
    )


@pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
def test_batched_bit_identical_single_core(design):
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    bindings = _single_core_bindings()
    scalar = simulator.run(design, bindings, engine="scalar")
    batched = simulator.run(design, bindings, engine="batched")
    assert _snapshot(scalar) == _snapshot(batched)


@pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
def test_batched_bit_identical_quad_core(design):
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=4,
                                         capacity_scale=64))
    bindings = _quad_core_bindings()
    scalar = simulator.run(design, bindings, engine="scalar")
    batched = simulator.run(design, bindings, engine="batched")
    assert _snapshot(scalar) == _snapshot(batched)


def test_batched_truncated_run_matches_scalar():
    """``max_accesses`` truncates with ``trace.head`` under both engines."""
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    bindings = _single_core_bindings()
    scalar = simulator.run("tagless", bindings, max_accesses=1_000,
                           engine="scalar")
    batched = simulator.run("tagless", bindings, max_accesses=1_000,
                            engine="batched")
    assert _snapshot(scalar) == _snapshot(batched)
    assert scalar.stats["accesses"] == 750  # measured 3/4 of 1,000


def test_unknown_engine_rejected():
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    with pytest.raises(ConfigurationError):
        simulator.run("tagless", _single_core_bindings(), engine="vector")


def test_engine_env_default(monkeypatch):
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    bindings = _single_core_bindings()
    explicit = simulator.run("tagless", bindings, engine="batched")
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    via_env = simulator.run("tagless", bindings)
    assert _snapshot(explicit) == _snapshot(via_env)


def test_observed_batched_run_stays_identical():
    """Validation hooks force the scalar fallback -- results unchanged."""
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    bindings = _single_core_bindings()
    plain = simulator.run("tagless", bindings, engine="batched")
    validated = simulator.run("tagless", bindings, engine="batched",
                              validate=True)
    assert _snapshot(plain) == _snapshot(validated)


def _shared_thrash_bindings():
    """Four threads of one process on a cache smaller than their
    footprint.  Threads 0-2 stop early, so the fused kernel replays
    thread 3's long tail alone: its fills evict pages the others mapped
    and its victim hits reach pages they filled -- the two inline sites
    that grow a page's on-die core mask."""
    traces = parsec_thread_traces("facesim", num_threads=4,
                                  accesses_per_thread=6_000,
                                  capacity_scale=64)
    return [BoundTrace(i, 0, trace if i == 3 else trace.head(1_500))
            for i, trace in enumerate(traces)]


def test_quad_core_thrash_identical_and_ondie_masks_hold(monkeypatch):
    simulator = Simulator(default_system(cache_megabytes=128, num_cores=4,
                                         capacity_scale=64))
    bindings = _shared_thrash_bindings()
    scalar = simulator.run("tagless", bindings, engine="scalar",
                           validate=True, validate_every=256)
    checked = simulator.run("tagless", bindings, engine="batched",
                            validate=True, validate_every=256)
    fused = simulator.run("tagless", bindings, engine="batched")
    assert _snapshot(scalar) == _snapshot(checked) == _snapshot(fused)
    assert scalar.stats["engine_fq_evictions_completed"] > 0

    # Validation makes the kernel stand down, so sweep the state the
    # kernel itself leaves: every on-die line of core c must sit in a
    # page whose mask has bit c, or a recycle would miss it.
    kernel_runs = []
    kernel = batched._run_tagless_kernel

    def counted_kernel(*args, **kwargs):
        kernel_runs.append(args[1].core_id)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(batched, "_run_tagless_kernel", counted_kernel)
    design = simulator.build_design("tagless")
    batched.run_interleaved_batched(design, bindings)
    assert kernel_runs == [3]
    InvariantChecker(design).run_checks()


def test_quad_core_resize_identical_under_both_engines(small_mp_config):
    traces = mix_traces("MIX1", accesses_per_program=1_500,
                        capacity_scale=64)
    bindings = [BoundTrace(i, i, t) for i, t in enumerate(traces)]
    simulator = Simulator(small_mp_config)
    runs = [
        simulator.run("tagless-resizable", bindings, engine=engine,
                      validate=True, validate_every=128,
                      resize_schedule=[(2_000, 0.75), (4_000, 1.0)],
                      max_remap_per_resize=16)
        for engine in ("scalar", "batched")
    ]
    assert _snapshot(runs[0]) == _snapshot(runs[1])
    assert runs[0].resize_events[0]["remapped"] > 0


def test_resizable_tenant_schedule_identical_under_validation(
        small_mp_config):
    """Tenant replay has one engine (the scheduled driver never hands a
    segment to a kernel); a validated run sweeping the remap-era masks
    must reproduce the unvalidated one exactly."""
    scenario = TenantScenarioSpec(
        name="remap", tenants=8, profiles=("mcf", "sphinx3", "lbm"),
        tenant_accesses=600, quantum=100, capacity_scale=256, seed=5,
        context_switch_cycles=1500.0, flush_tlb_on_switch=True,
        resize=((1_500, 0.75), (3_500, 1.0)), max_remap_per_resize=16,
    )
    schedule = build_schedule(scenario, num_cores=4)
    simulator = Simulator(small_mp_config)
    plain = simulator.run_tenants("tagless-resizable", schedule)
    checked = simulator.run_tenants("tagless-resizable", schedule,
                                    validate=True, validate_every=64)
    assert _snapshot(plain) == _snapshot(checked)
    assert plain.tenants == checked.tenants
    assert plain.resize_events == checked.resize_events
    assert plain.resize_events[0]["remapped"] > 0
