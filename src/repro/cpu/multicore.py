"""The replay driver: every core's trace segments, in global clock order.

Each core replays an ordered list of *segments* -- one per
:class:`BoundTrace`, or one per tenant slice of a multi-tenant schedule
(:mod:`repro.cpu.scheduled`) -- on its own clock.  Shared state (the
DRAM cache, the channel schedulers, the GIPT) must see accesses in one
globally consistent order, so :func:`_replay` always runs the core with
the earliest clock, and ties go to the core bound first.

It does so in *runs* rather than single accesses: the earliest core
keeps stepping until its segment ends or its clock reaches the
*horizon*, the earliest clock among the other active cores.  A core
bound earlier wins ties, so the run stops once the clock is ``>=`` that
core's; a core bound later loses ties, so the run stops only once the
clock is ``>`` it.  That is exactly the order a one-access-at-a-time
argmin stepper produces.  With a single core left the horizon is
infinite, which makes single-programmed runs one long run -- and lets
the batched engine's fused kernel (``kernel``) replay that last core's
segment in one call.

Per-core clocks are held by the core timing models and advanced through
their methods, so every core model and every observer that reads a
model mid-run (repro.obs sampling per-core IPC) sees the same floats.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

from repro.cpu.core_model import CoreTimingModel, make_core_model
from repro.designs.base import MemorySystemDesign
from repro.workloads.trace import AccessTrace


@dataclasses.dataclass
class BoundTrace:
    """A trace assigned to a core and an address space."""

    core_id: int
    process_id: int
    trace: AccessTrace


@dataclasses.dataclass
class CoreResult:
    """Per-core outcome of a run."""

    core_id: int
    workload: str
    instructions: int
    cycles: float
    stall_cycles: float

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class _Cursor:
    """One core's position in its segment list.

    A segment is anything with ``process_id`` and ``trace`` attributes
    (a :class:`BoundTrace`, a tenant slice).  The fused kernels of
    :mod:`repro.cpu.batched` read and advance the same fields.
    """

    __slots__ = ("core_id", "model", "pending", "segment", "process_id",
                 "pages", "lines", "writes", "gaps", "pos", "length")

    def __init__(self, core_id: int, model, segments):
        self.core_id = core_id
        self.model = model
        self.pending = iter(segments)
        self.segment = None

    def enter_next(self, on_entry=None) -> bool:
        """Move to the next non-empty segment; False once none is left.

        ``on_entry(cursor, segment)`` runs before the cursor switches,
        so it still sees the outgoing ``cursor.segment``.
        """
        for segment in self.pending:
            if not len(segment.trace):
                continue
            if on_entry is not None:
                on_entry(self, segment)
            self.segment = segment
            self.process_id = segment.process_id
            self.pages, self.lines, self.writes, self.gaps = \
                segment.trace.as_lists()
            self.pos = 0
            self.length = len(self.pages)
            return True
        return False


def _replay(design: MemorySystemDesign, cursors: List[_Cursor],
            on_entry=None, tally=None, kernel=None) -> None:
    """Step ``cursors`` through their segments in global clock order.

    ``on_entry`` is the segment-entry hook (see :meth:`_Cursor.enter_next`).
    ``tally(segment)`` optionally returns a per-segment accumulator with
    ``instructions``, ``cycles``, ``l3_accesses`` and ``demand_latency``
    fields, which every access of that segment is charged to.
    ``kernel(design, cursor)`` replays the last active core's segment in
    one call when the run is unobserved (the batched engine's hook).
    """
    access_cycles = design.access_cycles  # bind once; called per access

    # Observability hook (repro.obs): installed telemetry sets
    # ``obs_attach_cores`` to receive the core models for per-window
    # IPC.  With nothing installed this is one getattr per replay.
    attach = getattr(design, "obs_attach_cores", None)
    if attach is not None:
        attach([(c.core_id, c.model) for c in cursors])
        kernel = None

    inf = math.inf
    nextafter = math.nextafter
    active = [c for c in cursors if c.enter_next(on_entry)]
    while active:
        # One pass finds the first-minimum clock (the earliest-bound
        # core wins ties) and the horizon: the run stops at >= the
        # clock of any core bound before it, at > any bound after it.
        # Cores passed over on the way to a new minimum are all bound
        # before it, and the old minimum is the least of their clocks.
        index = 0
        clock = active[0].model.cycles
        earlier = later = inf
        for i in range(1, len(active)):
            other = active[i].model.cycles
            if other < clock:
                earlier, later, clock, index = clock, inf, other, i
            elif other < later:
                later = other
        # nextafter turns "stop at > later" into "continue while < limit".
        limit = nextafter(later, inf)
        if earlier < limit:
            limit = earlier
        cursor = active[index]
        model = cursor.model

        if (kernel is not None and len(active) == 1
                and type(model) is CoreTimingModel):
            kernel(design, cursor)
        else:
            tq = tally(cursor.segment) if tally is not None else None
            advance = model.advance_instructions
            account = model.account_memory
            core_id = cursor.core_id
            process_id = cursor.process_id
            pages, lines = cursor.pages, cursor.lines
            writes, gaps = cursor.writes, cursor.gaps
            pos = cursor.pos
            length = cursor.length
            while pos < length:
                cycles = model.cycles
                if cycles >= limit:
                    break
                instructions = model.instructions
                advance(gaps[pos])
                account(access_cycles(
                    core_id, process_id, pages[pos], lines[pos],
                    writes[pos], model.time_ns,
                ))
                pos += 1
                if tq is not None:
                    tq.instructions += model.instructions - instructions
                    tq.cycles += model.cycles - cycles
                    if design._last_l3_involved:
                        tq.l3_accesses += 1
                        tq.demand_latency.observe(
                            design._last_l3_cycles * model._cycle_ns)
            cursor.pos = pos

        if cursor.pos >= cursor.length and not cursor.enter_next(on_entry):
            del active[index]  # preserves the bind order of the rest


def run_interleaved(
    design: MemorySystemDesign,
    bindings: List[BoundTrace],
    _kernel=None,
) -> List[CoreResult]:
    """Replay every bound trace to completion; returns per-core results.

    ``_kernel`` is the batched engine's hook (see :mod:`repro.cpu.batched`).
    """
    if not bindings:
        return []
    seen_cores = set()
    for binding in bindings:
        if binding.core_id in seen_cores:
            raise ValueError(f"core {binding.core_id} bound twice")
        seen_cores.add(binding.core_id)

    core_cfg = design.config.core
    cursors = [
        _Cursor(binding.core_id,
                make_core_model(core_cfg, binding.trace.base_cpi,
                                binding.trace.mlp,
                                design.config.l1.hit_cycles),
                [binding])
        for binding in bindings
    ]
    _replay(design, cursors, kernel=_kernel)
    return [
        CoreResult(
            core_id=binding.core_id,
            workload=binding.trace.name,
            instructions=c.model.instructions,
            cycles=c.model.cycles,
            stall_cycles=c.model.stall_cycles,
        )
        for binding, c in zip(bindings, cursors)
    ]
