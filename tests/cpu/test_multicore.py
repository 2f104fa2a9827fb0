"""Interleaved multicore execution engine tests."""

import numpy as np
import pytest

from repro.cpu.multicore import BoundTrace, run_interleaved
from repro.designs import create_design
from repro.workloads.trace import AccessTrace


def make_trace(name, pages, cpi=0.5, mlp=2.0, gap=20):
    n = len(pages)
    return AccessTrace(
        name=name,
        virtual_pages=np.array(pages, dtype=np.int64),
        lines=np.arange(n, dtype=np.int16) % 64,
        writes=np.zeros(n, dtype=bool),
        instruction_gaps=np.full(n, gap, dtype=np.int64),
        base_cpi=cpi,
        mlp=mlp,
    )


def test_single_core_runs_to_completion(small_config):
    design = create_design("no-l3", small_config)
    trace = make_trace("t", [1, 2, 3, 1, 2, 3] * 50)
    results = run_interleaved(design, [BoundTrace(0, 0, trace)])
    assert len(results) == 1
    assert results[0].instructions == trace.total_instructions
    assert results[0].cycles > 0


def test_empty_bindings():
    assert run_interleaved(None, []) == []


def test_duplicate_core_rejected(small_config):
    design = create_design("no-l3", small_config)
    trace = make_trace("t", [1])
    with pytest.raises(ValueError):
        run_interleaved(
            design,
            [BoundTrace(0, 0, trace), BoundTrace(0, 1, trace)],
        )


def test_multicore_all_traces_complete(small_mp_config):
    design = create_design("no-l3", small_mp_config)
    bindings = [
        BoundTrace(i, i, make_trace(f"t{i}", [(i * 37 + j) % 50
                                              for j in range(300)]))
        for i in range(4)
    ]
    results = run_interleaved(design, bindings)
    assert len(results) == 4
    assert all(r.instructions > 0 for r in results)
    assert {r.core_id for r in results} == {0, 1, 2, 3}


def test_interleaving_keeps_clocks_close(small_mp_config):
    """The min-time scheduler should keep core clocks within one access
    cost of each other while all traces are active (same-length traces
    with identical behaviour finish at similar times)."""
    design = create_design("no-l3", small_mp_config)
    bindings = [
        BoundTrace(i, i, make_trace(f"t{i}", [j % 40 for j in range(400)]))
        for i in range(4)
    ]
    results = run_interleaved(design, bindings)
    cycles = [r.cycles for r in results]
    assert max(cycles) / min(cycles) < 1.2


def test_max_accesses_truncates(small_config):
    design = create_design("no-l3", small_config)
    trace = make_trace("t", list(range(50)))
    results = run_interleaved(design, [BoundTrace(0, 0, trace.head(10))])
    assert design.accesses == 10
    assert results[0].instructions == 10 * 21  # 10 gaps of 20 + 10 mem ops


def test_workload_name_propagates(small_config):
    design = create_design("no-l3", small_config)
    results = run_interleaved(
        design, [BoundTrace(0, 0, make_trace("myprog", [1, 2]))]
    )
    assert results[0].workload == "myprog"


def test_ipc_property(small_config):
    design = create_design("no-l3", small_config)
    results = run_interleaved(
        design, [BoundTrace(0, 0, make_trace("t", [1] * 100))]
    )
    r = results[0]
    assert r.ipc == pytest.approx(r.instructions / r.cycles)
