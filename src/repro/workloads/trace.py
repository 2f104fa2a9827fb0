"""Memory-access trace containers.

A trace is four parallel columns -- virtual page, line-in-page, write
flag, and the instruction gap since the previous access -- plus the
metadata the core model needs (base CPI, MLP).  Traces are generated
once per (workload, seed) and are deterministic.

Two representations exist:

- :class:`AccessTrace`: numpy-backed, produced by the generators and
  used everywhere traces are built or analysed.
- :class:`ColumnarTrace`: typed ``array``/``memoryview`` columns over a
  single flat buffer.  Same replay interface (``as_lists``, ``slice``,
  ``head``, ``page_access_counts``), but the backing buffer can live
  anywhere -- including a ``multiprocessing.shared_memory`` segment, the
  basis of the harness's zero-copy worker dispatch -- and slicing is an
  O(1) memoryview window, not a copy.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter

import numpy as np

from repro.common.addressing import LINES_PER_PAGE
from repro.common.errors import TraceError


@dataclasses.dataclass
class AccessTrace:
    """One core's memory reference stream."""

    name: str
    virtual_pages: np.ndarray
    lines: np.ndarray
    writes: np.ndarray
    instruction_gaps: np.ndarray
    base_cpi: float = 0.5
    mlp: float = 2.0

    def __post_init__(self) -> None:
        # Lazily built by as_lists(); seeded by slice() when the parent
        # trace has already paid for the numpy->Python conversion.
        self._lists = None
        n = len(self.virtual_pages)
        for field in ("lines", "writes", "instruction_gaps"):
            if len(getattr(self, field)) != n:
                raise TraceError(
                    f"trace {self.name!r}: {field} has "
                    f"{len(getattr(self, field))} entries, expected {n}"
                )
        if n and (self.lines.min() < 0 or self.lines.max() >= LINES_PER_PAGE):
            raise TraceError(
                f"trace {self.name!r}: line indices outside 0..63"
            )
        if n and self.virtual_pages.min() < 0:
            raise TraceError(f"trace {self.name!r}: negative virtual page")
        if n and self.instruction_gaps.min() < 0:
            raise TraceError(f"trace {self.name!r}: negative instruction gap")

    def __len__(self) -> int:
        return len(self.virtual_pages)

    @property
    def total_instructions(self) -> int:
        """Instructions represented, including the memory ops themselves."""
        return int(self.instruction_gaps.sum()) + len(self)

    @property
    def footprint_pages(self) -> int:
        """Distinct virtual pages touched."""
        if len(self) == 0:
            return 0
        return int(np.unique(self.virtual_pages).size)

    @property
    def accesses_per_kilo_instruction(self) -> float:
        total = self.total_instructions
        if total == 0:
            return 0.0
        return 1000.0 * len(self) / total

    def write_fraction(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.writes.mean())

    def page_access_counts(self) -> dict:
        """Map virtual page -> access count (used to classify NC pages
        for the Section 5.4 case study)."""
        pages, counts = np.unique(self.virtual_pages, return_counts=True)
        return dict(zip(pages.tolist(), counts.tolist()))

    def as_lists(self):
        """Return (pages, lines, writes, gaps) as plain Python lists.

        The simulator's inner loop iterates millions of times; list
        indexing is several times faster than numpy scalar extraction.
        The conversion is cached on the trace (and inherited by
        :meth:`slice` children), so replaying the same trace against
        several designs -- or splitting it into warmup and measurement
        phases -- converts each array exactly once.
        """
        if self._lists is None:
            self._lists = (
                self.virtual_pages.tolist(),
                self.lines.tolist(),
                self.writes.tolist(),
                self.instruction_gaps.tolist(),
            )
        return self._lists

    def head(self, accesses: int) -> "AccessTrace":
        """A shortened copy (used by unit tests and quick examples)."""
        return self.slice(0, accesses)

    def slice(self, start: int, stop: int) -> "AccessTrace":
        """A sub-trace covering accesses [start, stop) -- used to split
        traces into warmup and measurement phases."""
        child = AccessTrace(
            name=self.name,
            virtual_pages=self.virtual_pages[start:stop],
            lines=self.lines[start:stop],
            writes=self.writes[start:stop],
            instruction_gaps=self.instruction_gaps[start:stop],
            base_cpi=self.base_cpi,
            mlp=self.mlp,
        )
        if self._lists is not None:
            # Slice the already-converted lists instead of reconverting
            # the numpy views (list slicing is a memcpy of references).
            child._lists = tuple(part[start:stop] for part in self._lists)
        return child


class ColumnarTrace:
    """A trace as typed columns over one flat buffer.

    Layout (``n`` accesses): pages ``int64[n]`` | gaps ``int64[n]`` |
    lines ``uint8[n]`` | writes ``uint8[n]`` -- 18 bytes per access,
    8-byte-aligned fields first.  Columns are held as typed
    ``memoryview`` windows, so :meth:`slice` is O(1) and the buffer may
    be private (``from_trace``) or foreign (``from_buffer`` over a
    shared-memory segment, keeping ``owner`` alive for the view's
    lifetime).

    Replay-facing behaviour is identical to :class:`AccessTrace`:
    ``as_lists`` yields the same Python ints and bools (the engines'
    arithmetic never sees a difference), ``page_access_counts`` returns
    pages in the same sorted order (NC classification iterates it, so
    order is part of determinism), and slices share a materialized
    parent's list cache.
    """

    __slots__ = ("name", "base_cpi", "mlp",
                 "_pages", "_gaps", "_lines", "_writes",
                 "_lists", "_owner")

    def __init__(self, name: str, pages, gaps, lines, writes,
                 base_cpi: float = 0.5, mlp: float = 2.0, owner=None):
        self.name = name
        self.base_cpi = base_cpi
        self.mlp = mlp
        self._pages = pages
        self._gaps = gaps
        self._lines = lines
        self._writes = writes
        self._lists = None
        self._owner = owner
        n = len(pages)
        for label, column in (("gaps", gaps), ("lines", lines),
                              ("writes", writes)):
            if len(column) != n:
                raise TraceError(
                    f"trace {name!r}: {label} has {len(column)} entries, "
                    f"expected {n}"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: AccessTrace) -> "ColumnarTrace":
        """Convert a numpy-backed trace (one copy, then zero-copy use)."""
        pages = array("q")
        pages.frombytes(np.ascontiguousarray(
            trace.virtual_pages, dtype=np.int64).tobytes())
        gaps = array("q")
        gaps.frombytes(np.ascontiguousarray(
            trace.instruction_gaps, dtype=np.int64).tobytes())
        lines = array("B")
        lines.frombytes(np.ascontiguousarray(
            trace.lines, dtype=np.uint8).tobytes())
        writes = array("B")
        writes.frombytes(np.ascontiguousarray(
            trace.writes, dtype=np.uint8).tobytes())
        return cls(trace.name, memoryview(pages), memoryview(gaps),
                   memoryview(lines), memoryview(writes),
                   base_cpi=trace.base_cpi, mlp=trace.mlp,
                   owner=(pages, gaps, lines, writes))

    @staticmethod
    def buffer_nbytes(accesses: int) -> int:
        """Size of the flat buffer holding ``accesses`` accesses."""
        return 18 * accesses

    @classmethod
    def from_buffer(cls, name: str, accesses: int, buffer,
                    base_cpi: float = 0.5, mlp: float = 2.0,
                    owner=None) -> "ColumnarTrace":
        """Wrap a flat buffer laid out by :meth:`pack_into` (zero-copy).

        ``owner`` is any object that must outlive the views -- typically
        the ``SharedMemory`` segment the buffer belongs to.
        """
        view = memoryview(buffer)
        n = accesses
        if len(view) < cls.buffer_nbytes(n):
            raise TraceError(
                f"trace {name!r}: buffer holds {len(view)} bytes, "
                f"need {cls.buffer_nbytes(n)} for {n} accesses"
            )
        pages = view[0:8 * n].cast("q")
        gaps = view[8 * n:16 * n].cast("q")
        lines = view[16 * n:17 * n].cast("B")
        writes = view[17 * n:18 * n].cast("B")
        return cls(name, pages, gaps, lines, writes,
                   base_cpi=base_cpi, mlp=mlp, owner=owner)

    def pack_into(self, buffer) -> int:
        """Write the columns into ``buffer`` in :meth:`from_buffer`'s
        layout; returns the bytes written."""
        view = memoryview(buffer)
        n = len(self)
        view[0:8 * n] = self._pages.tobytes()
        view[8 * n:16 * n] = self._gaps.tobytes()
        view[16 * n:17 * n] = self._lines.tobytes()
        view[17 * n:18 * n] = self._writes.tobytes()
        return 18 * n

    def to_trace(self) -> AccessTrace:
        """Convert back to a numpy-backed :class:`AccessTrace`."""
        return AccessTrace(
            name=self.name,
            virtual_pages=np.frombuffer(self._pages, dtype=np.int64).copy(),
            lines=np.frombuffer(self._lines, dtype=np.uint8).astype(np.int64),
            writes=np.frombuffer(self._writes, dtype=np.uint8).astype(bool),
            instruction_gaps=np.frombuffer(self._gaps,
                                           dtype=np.int64).copy(),
            base_cpi=self.base_cpi,
            mlp=self.mlp,
        )

    # ------------------------------------------------------------------
    # Replay interface (mirrors AccessTrace)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pages)

    @property
    def nbytes(self) -> int:
        """Total column payload in bytes."""
        return self.buffer_nbytes(len(self))

    @property
    def total_instructions(self) -> int:
        return sum(self._gaps) + len(self)

    @property
    def footprint_pages(self) -> int:
        return len(set(self._pages))

    @property
    def accesses_per_kilo_instruction(self) -> float:
        total = self.total_instructions
        if total == 0:
            return 0.0
        return 1000.0 * len(self) / total

    def write_fraction(self) -> float:
        if len(self) == 0:
            return 0.0
        return sum(self._writes) / len(self)

    def page_access_counts(self) -> dict:
        """Page -> count, keys in ascending page order (matching the
        numpy path's ``np.unique``, whose order NC classification
        inherits)."""
        return dict(sorted(Counter(self._pages.tolist()).items()))

    def as_lists(self):
        """(pages, lines, writes, gaps) as plain Python lists -- the
        same objects :meth:`AccessTrace.as_lists` yields: ints for
        pages/lines/gaps, bools for writes.  Cached, and inherited by
        slices of an already-materialized trace."""
        if self._lists is None:
            self._lists = (
                self._pages.tolist(),
                self._lines.tolist(),
                list(map(bool, self._writes)),
                self._gaps.tolist(),
            )
        return self._lists

    def head(self, accesses: int) -> "ColumnarTrace":
        return self.slice(0, accesses)

    def slice(self, start: int, stop: int) -> "ColumnarTrace":
        """A sub-trace over [start, stop): an O(1) window, no copying."""
        child = ColumnarTrace(
            self.name,
            self._pages[start:stop],
            self._gaps[start:stop],
            self._lines[start:stop],
            self._writes[start:stop],
            base_cpi=self.base_cpi,
            mlp=self.mlp,
            owner=self._owner,
        )
        if self._lists is not None:
            child._lists = tuple(part[start:stop] for part in self._lists)
        return child


def save_trace(trace: AccessTrace, path: str) -> None:
    """Persist a trace as a compressed ``.npz`` archive."""
    np.savez_compressed(
        path,
        name=np.array(trace.name),
        virtual_pages=trace.virtual_pages,
        lines=trace.lines,
        writes=trace.writes,
        instruction_gaps=trace.instruction_gaps,
        base_cpi=np.array(trace.base_cpi),
        mlp=np.array(trace.mlp),
    )


def load_trace(path: str) -> AccessTrace:
    """Load a trace saved by :func:`save_trace`."""
    with np.load(path) as data:
        return AccessTrace(
            name=str(data["name"]),
            virtual_pages=data["virtual_pages"],
            lines=data["lines"],
            writes=data["writes"],
            instruction_gaps=data["instruction_gaps"],
            base_cpi=float(data["base_cpi"]),
            mlp=float(data["mlp"]),
        )

