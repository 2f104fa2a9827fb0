"""The replay driver against a one-access-at-a-time reference stepper.

The driver runs the earliest core up to a horizon instead of re-picking
the earliest core after every access.  These tests pin that down: the
reference below steps the first-minimum core one access at a time, and
the driver must reproduce its global ``(core, page)`` order and every
per-core and per-tenant result exactly, including on clock ties.
"""

import dataclasses
from collections import deque

import numpy as np

from repro.cpu.core_model import make_core_model
from repro.cpu.multicore import BoundTrace, CoreResult, run_interleaved
from repro.cpu.scheduled import TenantQoS, _retune, run_schedule
from repro.designs import create_design
from repro.obs.telemetry import make_telemetry
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile
from repro.workloads.tenants import TenantScenarioSpec, build_schedule
from repro.workloads.trace import AccessTrace


def reference_replay(design, cores, enter=lambda k, prev, seg: None,
                     tally=None):
    """Step the earliest core (first minimum) one access at a time.

    ``cores`` is ``[(core_id, model, segments)]``; ``enter(k, prev, seg)``
    runs when core ``k`` starts segment ``seg``; ``tally(seg)`` returns
    the QoS accumulator an access of ``seg`` is charged to.
    """
    queues = [deque((seg, i) for seg in segments for i in range(len(seg.trace)))
              for _, _, segments in cores]
    for k, queue in enumerate(queues):
        if queue:
            enter(k, None, queue[0][0])
    while any(queues):
        k = min((k for k in range(len(cores)) if queues[k]),
                key=lambda k: cores[k][1].cycles)
        core_id, model, _ = cores[k]
        segment, i = queues[k].popleft()
        pages, lines, writes, gaps = segment.trace.as_lists()
        instructions, cycles = model.instructions, model.cycles
        model.advance_instructions(gaps[i])
        model.account_memory(design.access_cycles(
            core_id, segment.process_id, pages[i], lines[i], writes[i],
            model.time_ns))
        if tally is not None:
            tq = tally(segment)
            tq.instructions += model.instructions - instructions
            tq.cycles += model.cycles - cycles
            if design._last_l3_involved:
                tq.l3_accesses += 1
                tq.demand_latency.observe(
                    design._last_l3_cycles * model._cycle_ns)
        if queues[k] and queues[k][0][0] is not segment:
            enter(k, segment, queues[k][0][0])


def record_order(design):
    """Shadow ``access_cycles`` on the instance; returns the order list."""
    order = []
    inner = design.access_cycles

    def recorder(core_id, process_id, page, line, write, now_ns):
        order.append((core_id, page))
        return inner(core_id, process_id, page, line, write, now_ns)

    design.access_cycles = recorder
    return order


def model_for(design, trace):
    return make_core_model(design.config.core, trace.base_cpi, trace.mlp,
                           design.config.l1.hit_cycles)


def reference_interleave(design, bindings):
    """Reference run of plain bindings; returns (order, core results)."""
    order = record_order(design)
    cores = [(b.core_id, model_for(design, b.trace), [b]) for b in bindings]
    reference_replay(design, cores)
    return order, [
        CoreResult(b.core_id, b.trace.name, model.instructions,
                   model.cycles, model.stall_cycles)
        for b, (_, model, _) in zip(bindings, cores)
    ]


def driver_interleave(design, bindings):
    order = record_order(design)
    return order, run_interleaved(design, bindings)


def mcf_trace(accesses, seed):
    generator = TraceGenerator(spec_profile("mcf"), capacity_scale=512,
                               seed_tag=("replay-driver", seed))
    return generator.generate(accesses)


def test_identical_traces_tie_on_every_step(small_mp_config):
    n = 200
    trace = AccessTrace(
        name="same",
        virtual_pages=np.arange(n, dtype=np.int64) % 40,
        lines=np.arange(n, dtype=np.int16) % 64,
        writes=np.zeros(n, dtype=bool),
        instruction_gaps=np.full(n, 20, dtype=np.int64),
        base_cpi=0.5,
        mlp=2.0,
    )
    bindings = [BoundTrace(i, i, trace) for i in range(4)]
    expected = reference_interleave(create_design("no-l3", small_mp_config),
                                    bindings)
    actual = driver_interleave(create_design("no-l3", small_mp_config),
                               bindings)
    assert actual == expected
    # The first round is a tie on clock 0.0: bind order decides it.
    assert [core for core, _ in actual[0][:4]] == [0, 1, 2, 3]


def test_mixed_lengths_match_reference(small_mp_config):
    bindings = [BoundTrace(i, i, mcf_trace(150 + 100 * i, i))
                for i in range(4)]
    for design_name in ("tagless", "sram"):
        expected = reference_interleave(
            create_design(design_name, small_mp_config), bindings)
        actual = driver_interleave(
            create_design(design_name, small_mp_config), bindings)
        assert actual == expected


def test_window_core_model_matches_reference(small_mp_config):
    config = dataclasses.replace(
        small_mp_config,
        core=dataclasses.replace(small_mp_config.core, model="window"))
    bindings = [BoundTrace(i, i, mcf_trace(300, i)) for i in range(4)]
    expected = reference_interleave(create_design("tagless", config),
                                    bindings)
    actual = driver_interleave(create_design("tagless", config), bindings)
    assert actual == expected


def test_telemetry_attached_run_matches_reference(small_mp_config):
    bindings = [BoundTrace(i, i, mcf_trace(300, i)) for i in range(4)]
    expected = reference_interleave(create_design("tagless", small_mp_config),
                                    bindings)
    design = create_design("tagless", small_mp_config)
    order = record_order(design)
    telemetry = make_telemetry(interval=64)
    telemetry.install(design)
    results = run_interleaved(design, bindings)
    telemetry.uninstall()
    assert (order, results) == expected
    assert telemetry.timeseries.windows


def reference_schedule(design, schedule):
    """Reference tenant replay: run_schedule's switch and QoS rules."""
    scenario = schedule.scenario
    qos = {info.tenant_id: TenantQoS(info.tenant_id, info.profile,
                                     info.arrival_round,
                                     info.footprint_pages)
           for info in schedule.tenants}
    switches = {"context_switches": 0, "tlb_flush_entries": 0}
    cores = []
    for core_id, segments in enumerate(schedule.per_core):
        first = next((s for s in segments if len(s.trace)), None)
        if first is not None:
            cores.append((core_id, model_for(design, first.trace), segments))

    def enter(k, prev, seg):
        core_id, model, _ = cores[k]
        if prev is not None and prev.tenant_id == seg.tenant_id:
            return
        if prev is not None:
            switches["context_switches"] += 1
            model.cycles += scenario.context_switch_cycles
            if scenario.flush_tlb_on_switch:
                switches["tlb_flush_entries"] += design.tlbs[core_id].flush()
        _retune(model, seg.trace.base_cpi, seg.trace.mlp)

    reference_replay(design, cores, enter,
                     tally=lambda seg: qos[seg.tenant_id])
    results = [CoreResult(core_id, f"tenants:{scenario.name}",
                          model.instructions, model.cycles,
                          model.stall_cycles)
               for core_id, model, _ in cores]
    return results, qos, switches


def test_tenant_schedule_matches_reference(small_mp_config):
    scenario = TenantScenarioSpec(
        name="driver", tenants=7, profiles=("mcf", "sphinx3", "lbm"),
        tenant_accesses=300, quantum=60, capacity_scale=256, seed=11,
        context_switch_cycles=1500.0, flush_tlb_on_switch=True,
    )
    schedule = build_schedule(scenario, num_cores=4)
    design = create_design("tagless", small_mp_config)
    expected_order = record_order(design)
    expected_cores, expected_qos, expected_switches = \
        reference_schedule(design, schedule)

    design = create_design("tagless", small_mp_config)
    order = record_order(design)
    cores, qos, switches = run_schedule(design, schedule)

    assert order == expected_order
    assert cores == expected_cores
    assert switches == expected_switches
    assert switches["context_switches"] > 0
    assert switches["tlb_flush_entries"] > 0
    assert ({tid: q.to_dict() for tid, q in qos.items()}
            == {tid: q.to_dict() for tid, q in expected_qos.items()})
