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
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import mix_traces
from repro.workloads.spec import spec_profile

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
