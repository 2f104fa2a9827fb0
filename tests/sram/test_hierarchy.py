"""On-die L1/L2 hierarchy behaviour."""

import pytest

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import OnDieCacheConfig
from repro.sram.hierarchy import OnDieHierarchy


def make_hierarchy(l1_lines=8, l2_lines=32):
    l1 = OnDieCacheConfig(capacity_bytes=l1_lines * 64, associativity=2,
                          hit_cycles=2)
    l2 = OnDieCacheConfig(capacity_bytes=l2_lines * 64, associativity=4,
                          hit_cycles=6)
    return OnDieHierarchy(l1, l2)


def test_first_access_misses_everywhere():
    h = make_hierarchy()
    result = h.access(100, is_write=False)
    assert result.level == "miss"
    assert h.misses == 1


def test_second_access_hits_l1():
    h = make_hierarchy()
    h.access(100, False)
    assert h.access(100, False).level == "l1"


def test_l2_hit_after_l1_eviction():
    h = make_hierarchy(l1_lines=2, l2_lines=64)
    h.access(0, False)
    # Push line 0 out of the tiny L1 (same set usage pattern).
    for line in range(2, 20, 2):
        h.access(line, False)
    result = h.access(0, False)
    assert result.level == "l2"


def test_dirty_l2_victims_surface_as_writebacks():
    h = make_hierarchy(l1_lines=2, l2_lines=4)
    # Write lines then stream enough conflicting lines through to force
    # dirty data fully out of the hierarchy.
    writebacks = []
    for line in range(0, 40, 4):
        result = h.access(line, is_write=True)
        writebacks.extend(result.writebacks)
    assert writebacks, "dirty lines must eventually drain to memory"
    assert h.writebacks == len(writebacks)


def test_clean_traffic_never_writes_back():
    h = make_hierarchy(l1_lines=2, l2_lines=4)
    for line in range(100):
        result = h.access(line, is_write=False)
        assert result.writebacks == []


def test_invalidate_page_removes_all_lines():
    h = make_hierarchy(l1_lines=8, l2_lines=128)
    page = 3
    first = page * LINES_PER_PAGE
    for line in range(first, first + 8):
        h.access(line, is_write=False)
    h.invalidate_page(page)
    assert h.access(first, False).level == "miss"


def test_invalidate_page_returns_dirty_lines():
    h = make_hierarchy(l1_lines=8, l2_lines=128)
    line = 5 * LINES_PER_PAGE + 2
    h.access(line, is_write=True)
    dirty = h.invalidate_page(5)
    assert line in dirty


def test_invalidate_unknown_page_is_noop():
    h = make_hierarchy()
    assert h.invalidate_page(999) == []


def test_invalidate_page_matches_per_line_invalidate():
    """The flattened page purge drops and reports exactly what one
    ``SetAssociativeCache.invalidate`` per line and level would."""
    import copy
    import random

    rng = random.Random(5)
    h = make_hierarchy(l1_lines=32, l2_lines=256)
    for _ in range(3000):
        h.access(rng.randrange(8 * LINES_PER_PAGE), rng.random() < 0.4)
    for page in range(8):
        reference = copy.deepcopy(h)
        expected = []
        first = page * LINES_PER_PAGE
        for line in range(first, first + LINES_PER_PAGE):
            for level in (reference.l1, reference.l2):
                evicted = level.invalidate(line)
                if evicted is not None and evicted.dirty:
                    expected.append(line)
        assert h.invalidate_page(page) == expected
        for level, ref_level in ((h.l1, reference.l1),
                                 (h.l2, reference.l2)):
            assert [s.entries for s in level._sets] == \
                [s.entries for s in ref_level._sets]


def test_miss_rate_and_stats():
    h = make_hierarchy()
    h.access(1, False)
    h.access(1, False)
    assert h.miss_rate() == pytest.approx(0.5)
    stats = h.stats("p_")
    assert stats["p_l1_hits"] == 1.0
    assert stats["p_misses"] == 1.0


def test_reset_stats_keeps_contents():
    h = make_hierarchy()
    h.access(1, False)
    h.reset_stats()
    assert h.misses == 0
    assert h.access(1, False).level == "l1"  # still warm
