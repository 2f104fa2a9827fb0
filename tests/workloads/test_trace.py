"""AccessTrace container tests."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.workloads.trace import AccessTrace


def make(pages, lines=None, writes=None, gaps=None):
    n = len(pages)
    return AccessTrace(
        name="t",
        virtual_pages=np.array(pages, dtype=np.int64),
        lines=np.array(lines if lines is not None else [0] * n,
                       dtype=np.int16),
        writes=np.array(writes if writes is not None else [False] * n),
        instruction_gaps=np.array(gaps if gaps is not None else [10] * n,
                                  dtype=np.int64),
    )


def test_length_and_instructions():
    trace = make([1, 2, 3])
    assert len(trace) == 3
    assert trace.total_instructions == 33  # 3 gaps of 10 + 3 memory ops


def test_footprint():
    assert make([1, 1, 2, 5]).footprint_pages == 3


def test_apki():
    trace = make([1, 2])
    assert trace.accesses_per_kilo_instruction == pytest.approx(
        1000 * 2 / 22
    )


def test_write_fraction():
    trace = make([1, 2], writes=[True, False])
    assert trace.write_fraction() == pytest.approx(0.5)


def test_page_access_counts():
    counts = make([1, 1, 2]).page_access_counts()
    assert counts == {1: 2, 2: 1}


def test_mismatched_arrays_rejected():
    with pytest.raises(TraceError):
        AccessTrace(
            name="bad",
            virtual_pages=np.array([1, 2]),
            lines=np.array([0], dtype=np.int16),
            writes=np.array([False, False]),
            instruction_gaps=np.array([1, 1]),
        )


def test_line_range_validated():
    with pytest.raises(TraceError):
        make([1], lines=[64])


def test_negative_values_rejected():
    with pytest.raises(TraceError):
        make([-1])
    with pytest.raises(TraceError):
        make([1], gaps=[-5])


def test_head_and_slice():
    trace = make([1, 2, 3, 4])
    assert len(trace.head(2)) == 2
    sliced = trace.slice(1, 3)
    assert list(sliced.virtual_pages) == [2, 3]
    assert sliced.base_cpi == trace.base_cpi


def test_as_lists_round_trip():
    trace = make([1, 2], writes=[True, False])
    pages, lines, writes, gaps = trace.as_lists()
    assert pages == [1, 2]
    assert writes == [True, False]
    assert isinstance(pages, list)


def test_empty_trace_properties():
    trace = make([])
    assert trace.footprint_pages == 0
    assert trace.accesses_per_kilo_instruction == 0.0
    assert trace.write_fraction() == 0.0
