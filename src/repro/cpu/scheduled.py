"""Context-switched replay of a multi-tenant schedule.

:func:`run_schedule` hands each core's ordered list of
:class:`~repro.workloads.tenants.TenantSegment` slices to the one replay
driver, :func:`repro.cpu.multicore._replay`, which keeps cores in global
clock order exactly as for plain multi-programmed runs.  Only two things
here are specific to tenants:

- the *segment-entry hook*: when the incoming segment belongs to a
  different tenant, the core pays the scenario's context-switch penalty
  and -- matching real OSes on ASID-less TLBs -- optionally flushes its
  TLB hierarchy through the callback-firing
  :meth:`repro.vm.tlb.TLBHierarchy.flush`, so GIPT residence bits stay
  consistent across switches; the core model is then retuned to the
  incoming tenant's workload parameters;
- the per-tenant :class:`TenantQoS` accumulators the driver charges
  every access to: instruction and cycle deltas of the core model, and
  the design's ``_last_l3_involved``/``_last_l3_cycles`` side channels
  for demand-latency histograms.

The per-core clock is continuous across tenants (one model per core),
so shared-resource contention between tenants is preserved.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.common.stats import Histogram
from repro.cpu.core_model import WindowCoreTimingModel, make_core_model
from repro.cpu.multicore import CoreResult, _Cursor, _replay
from repro.designs.base import MemorySystemDesign
from repro.workloads.tenants import TenantSchedule


@dataclasses.dataclass
class TenantQoS:
    """Per-tenant quality-of-service accounting for one run."""

    tenant_id: int
    profile: str
    arrival_round: int
    footprint_pages: int
    instructions: int = 0
    cycles: float = 0.0
    l3_accesses: int = 0
    demand_latency: Histogram = None  # set in __post_init__

    def __post_init__(self) -> None:
        if self.demand_latency is None:
            self.demand_latency = Histogram(
                f"tenant{self.tenant_id}_demand_latency_ns"
            )

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        """Off-die demand misses (L3-bound accesses) per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l3_accesses / self.instructions

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant_id,
            "profile": self.profile,
            "arrival_round": self.arrival_round,
            "footprint_pages": self.footprint_pages,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "l3_accesses": self.l3_accesses,
            "mpki": self.mpki,
            "mean_demand_ns": self.demand_latency.mean(),
            "p50_demand_ns": self.demand_latency.percentile(0.50),
            "p99_demand_ns": self.demand_latency.percentile(0.99),
        }


def _retune(model, base_cpi: float, mlp: float) -> None:
    """Point a core model at a new tenant's workload parameters.

    The clock, instruction count and stall totals continue -- it is the
    same physical core -- but retirement width and overlap now follow
    the incoming tenant.  Window models must refresh the derived
    ROB-hiding constant, which is a pure function of ``base_cpi``.
    """
    model.base_cpi = base_cpi
    model.mlp = mlp
    if isinstance(model, WindowCoreTimingModel):
        model._hide_cycles = model.rob_entries * base_cpi




def run_schedule(
    design: MemorySystemDesign,
    schedule: TenantSchedule,
):
    """Replay ``schedule`` against ``design``.

    Returns ``(core_results, tenant_qos, switch_stats)`` where
    ``tenant_qos`` maps tenant id -> :class:`TenantQoS` and
    ``switch_stats`` counts context switches and TLB shootdown volume.
    """
    scenario = schedule.scenario
    core_cfg = design.config.core
    flush_on_switch = scenario.flush_tlb_on_switch
    switch_cycles = scenario.context_switch_cycles

    qos: Dict[int, TenantQoS] = {
        info.tenant_id: TenantQoS(
            tenant_id=info.tenant_id,
            profile=info.profile,
            arrival_round=info.arrival_round,
            footprint_pages=info.footprint_pages,
        )
        for info in schedule.tenants
    }
    switch_stats = {"context_switches": 0, "tlb_flush_entries": 0}

    def on_entry(cursor, segment) -> None:
        previous = cursor.segment
        if previous is not None and previous.tenant_id == segment.tenant_id:
            return
        if previous is not None:
            # A genuine context switch (not the core's first tenant):
            # charge the switch and shoot the TLB down.
            switch_stats["context_switches"] += 1
            cursor.model.cycles += switch_cycles
            if flush_on_switch:
                switch_stats["tlb_flush_entries"] += \
                    design.tlbs[cursor.core_id].flush()
        _retune(cursor.model, segment.trace.base_cpi, segment.trace.mlp)

    cursors = []
    for core_id, segments in enumerate(schedule.per_core):
        first = next((s for s in segments if len(s.trace)), None)
        if first is None:
            continue
        model = make_core_model(
            core_cfg, first.trace.base_cpi, first.trace.mlp,
            design.config.l1.hit_cycles,
        )
        cursors.append(_Cursor(core_id, model, segments))

    _replay(design, cursors, on_entry=on_entry,
            tally=lambda segment: qos[segment.tenant_id])

    core_results = [
        CoreResult(
            core_id=c.core_id,
            workload=f"tenants:{scenario.name}",
            instructions=c.model.instructions,
            cycles=c.model.cycles,
            stall_cycles=c.model.stall_cycles,
        )
        for c in cursors
    ]
    return core_results, qos, switch_stats
