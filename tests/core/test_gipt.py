"""Global Inverted Page Table tests, including the paper's size claim."""

import pytest

from repro.common.errors import SimulationError
from repro.core.gipt import (
    GlobalInvertedPageTable,
    gipt_storage_megabytes,
)
from repro.vm.page_table import PageTableEntry


def make_pte(vpn=1, ppn=100):
    return PageTableEntry(virtual_page=vpn, physical_page=ppn)


@pytest.fixture
def gipt():
    return GlobalInvertedPageTable(capacity_pages=16, num_cores=4)


def test_insert_lookup_remove(gipt):
    pte = make_pte()
    entry = gipt.insert(3, 100, pte)
    assert gipt.lookup(3) is entry
    assert gipt.require(3).physical_page == 100
    removed = gipt.remove(3)
    assert removed is entry
    assert gipt.lookup(3) is None


def test_double_insert_is_a_bug(gipt):
    gipt.insert(3, 100, make_pte())
    with pytest.raises(SimulationError):
        gipt.insert(3, 200, make_pte())


def test_remove_absent_is_a_bug(gipt):
    with pytest.raises(SimulationError):
        gipt.remove(5)


def test_require_absent_is_a_bug(gipt):
    with pytest.raises(SimulationError):
        gipt.require(5)


def test_out_of_range_ca_rejected(gipt):
    with pytest.raises(SimulationError):
        gipt.insert(16, 1, make_pte())
    with pytest.raises(SimulationError):
        gipt.insert(-1, 1, make_pte())


class TestResidenceBits:
    def test_set_and_clear(self, gipt):
        gipt.insert(1, 10, make_pte())
        gipt.set_resident(1, 0)
        gipt.set_resident(1, 3)
        assert gipt.is_resident(1)
        gipt.clear_resident(1, 0)
        assert gipt.is_resident(1)  # core 3 still holds it
        gipt.clear_resident(1, 3)
        assert not gipt.is_resident(1)

    def test_eviction_of_resident_page_is_a_bug(self, gipt):
        gipt.insert(1, 10, make_pte())
        gipt.set_resident(1, 2)
        with pytest.raises(SimulationError):
            gipt.remove(1)

    def test_clear_on_absent_page_tolerated(self, gipt):
        gipt.clear_resident(9, 0)  # no exception: page already evicted

    def test_bad_core_rejected(self, gipt):
        gipt.insert(1, 10, make_pte())
        with pytest.raises(SimulationError):
            gipt.set_resident(1, 4)

    def test_set_resident_on_absent_page_is_a_bug(self, gipt):
        with pytest.raises(SimulationError):
            gipt.set_resident(9, 0)


class TestOnDieCores:
    def test_set_resident_adds_a_sticky_core_bit(self, gipt):
        entry = gipt.insert(1, 10, make_pte())
        assert entry.ondie_cores == 0
        gipt.set_resident(1, 0)
        gipt.set_resident(1, 2)
        assert entry.ondie_cores == 0b101
        # Leaving TLB reach does not empty the core's on-die caches.
        gipt.clear_resident(1, 0)
        gipt.clear_resident(1, 2)
        assert entry.residence_mask == 0
        assert entry.ondie_cores == 0b101

    def test_mask_is_per_residency(self, gipt):
        gipt.insert(1, 10, make_pte())
        gipt.set_resident(1, 3)
        gipt.clear_resident(1, 3)
        assert gipt.remove(1).ondie_cores == 0b1000
        assert gipt.insert(1, 11, make_pte()).ondie_cores == 0

    def test_mask_is_not_in_the_size_model(self, gipt):
        before = gipt.storage_bytes()
        gipt.insert(1, 10, make_pte())
        gipt.set_resident(1, 1)
        assert gipt.storage_bytes() == before
        assert GlobalInvertedPageTable.entry_bits(num_cores=4) == 82


class TestSizeModel:
    def test_entry_bits_match_paper(self):
        """Section 3.2: 36 PPN + 42 PTEP + 4 residence bits = 82 bits."""
        assert GlobalInvertedPageTable.entry_bits(num_cores=4) == 82

    def test_1gb_cache_gipt_is_2_56mb(self):
        """Section 3.2's headline number: 2.56 MB for a 1 GB cache."""
        assert gipt_storage_megabytes(1.0, num_cores=4) == pytest.approx(
            2.56, rel=0.02
        )

    def test_overhead_about_quarter_percent(self):
        """The paper quotes "<0.25% overhead"; 82 bits/entry works out to
        0.2502%, so the claim holds to rounding."""
        gipt = GlobalInvertedPageTable(capacity_pages=262144, num_cores=4)
        assert gipt.storage_overhead(2**30) == pytest.approx(0.0025, rel=0.01)


def test_stats(gipt):
    gipt.insert(1, 10, make_pte())
    gipt.set_resident(1, 0)
    stats = gipt.stats("g_")
    assert stats["g_inserts"] == 1.0
    assert stats["g_live_entries"] == 1.0
    assert stats["g_residence_updates"] == 1.0
