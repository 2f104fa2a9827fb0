"""Per-layer tracing for the traced benchmark run.

:class:`LayerTracer` wraps the public entry points of each simulator and
harness layer *from outside the program*: methods are replaced on their
class, module functions in every ``repro`` module that imported them.
Class-level wrapping matters: the batched engine treats an
``access_cycles`` set on a design *instance* as observation and falls
back to the scalar loop, while a class-level wrapper only sees the
kernel's genuine scalar fallbacks.

Each wrapped call is either *timed* (a span on a per-process stack; its
self time is its duration minus the time of the timed spans it
encloses) or *counted* (a call count only, for functions hot enough
that timing them would swamp the run).  Nested calls of one layer name,
directly inside each other, such as a subclass ``access_cycles`` calling
``super()``, count once.

Harness workers are forked from the traced process and inherit the
wrappers.  Each worker resets its copy of the counters on its first job
and rewrites a snapshot file after every job; :meth:`merge_worker_files`
folds those snapshots back into the parent's totals.
"""

import collections
import functools
import glob
import json
import os
import sys
import time

#: (layer name, "module:attribute" or "module:Class.method", timed?)
TARGETS = (
    ("cpu.batched", "repro.cpu.batched:run_interleaved_batched", True),
    ("cpu.batched", "repro.cpu.batched:_run_tagless_kernel", True),
    ("cpu.batched", "repro.cpu.batched:_run_generic_kernel", True),
    ("cpu.multicore", "repro.cpu.multicore:run_interleaved", True),
    ("cpu.scheduled", "repro.cpu.scheduled:run_schedule", True),
    ("designs.access_cycles",
     "repro.designs.base:MemorySystemDesign.access_cycles", True),
    ("designs.access_cycles",
     "repro.designs.tagless_resizable:TaglessResizableDesign.access_cycles",
     True),
    ("designs.create", "repro.designs.registry:create_design", True),
    ("workloads.generate",
     "repro.workloads.generator:TraceGenerator.generate", True),
    ("workloads.build_schedule", "repro.workloads.tenants:build_schedule",
     True),
    ("core.miss_handler", "repro.core.miss_handler:CTLBMissHandler.handle",
     True),
    ("core.allocate_and_fill",
     "repro.core.tagless_cache:TaglessCacheEngine.allocate_and_fill", True),
    ("sram.invalidate_page",
     "repro.sram.hierarchy:OnDieHierarchy.invalidate_page", True),
    ("sram.invalidate", "repro.sram.set_assoc:SetAssociativeCache.invalidate",
     False),
    ("vm.tlb_install", "repro.vm.tlb:TLBHierarchy.install", False),
    ("vm.tlb_flush", "repro.vm.tlb:TLBHierarchy.flush", True),
    ("dram.access_block", "repro.dram.device:DRAMDevice.access_block", True),
    ("harness.cache_key", "repro.harness.jobs:JobSpec.cache_key", True),
    ("harness.cache_get", "repro.harness.cache:ResultCache.get", False),
    ("harness.cache_put", "repro.harness.cache:ResultCache.put", True),
    ("harness.shm_publish", "repro.harness.shm:TraceArena.share_for", True),
    ("campaign.expand", "repro.campaign.compile:expand", True),
    ("campaign.report", "repro.campaign.report:reduce_campaign", True),
    ("campaign.report", "repro.campaign.report:render_markdown", True),
)


def _resolve(target):
    """Return ``(owner, attribute, module)`` for a TARGETS entry."""
    module_name, path = target.split(":")
    __import__(module_name)
    module = sys.modules[module_name]
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], module


class LayerTracer:
    """Call counts and self times per layer name, for one process."""

    def __init__(self, worker_dir=None):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        #: Count of calls per target function (not per layer), e.g. to
        #: tell the fused tagless kernel from its driver.
        self.target_calls = collections.Counter()
        self._stack = []  # [layer name, child seconds] per open timed span
        self._pid = os.getpid()
        self._worker_dir = worker_dir

    # ------------------------------------------------------------------
    def _timed(self, name, target, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        target_calls = self.target_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            target_calls[target] += 1
            if stack and stack[-1][0] == name:
                # Same layer directly inside itself (super() chains).
                return fn(*args, **kwargs)
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - span[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _counted(self, name, target, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every TARGETS entry, for the rest of the process."""
        for name, target, timed in TARGETS:
            owner, attr, module = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = (self._timed if timed else self._counted)(
                name, target, original)
            setattr(owner, attr, wrapper)
            if owner is module:
                # Module functions are also bound by name wherever they
                # were imported (``from repro.x import f``).
                for other in list(sys.modules.values()):
                    if (other is not module
                            and getattr(other, "__name__", "").startswith(
                                "repro")
                            and getattr(other, attr, None) is original):
                        setattr(other, attr, wrapper)
        if self._worker_dir is not None:
            self._hook_workers()

    # ------------------------------------------------------------------
    def _hook_workers(self):
        """Snapshot counters after each job a forked pool worker runs."""
        import repro.harness.pool as pool

        original = pool.execute_captured
        tracer = self

        def execute_captured(*args, **kwargs):
            if os.getpid() != tracer._pid:
                # First job in a freshly forked worker: drop the totals
                # inherited from the parent at fork time.
                tracer._pid = os.getpid()
                tracer.calls.clear()
                tracer.self_s.clear()
                tracer.target_calls.clear()
                tracer._stack.clear()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._write_snapshot()

        pool.execute_captured = execute_captured

    def _write_snapshot(self):
        path = os.path.join(self._worker_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump({"calls": dict(self.calls),
                       "self_s": dict(self.self_s),
                       "target_calls": dict(self.target_calls)}, handle)
        os.replace(path + ".tmp", path)

    def merge_worker_files(self):
        """Add every worker snapshot to this process's totals."""
        if self._worker_dir is None:
            return 0
        paths = sorted(glob.glob(os.path.join(self._worker_dir,
                                              "worker-*.json")))
        for path in paths:
            with open(path) as handle:
                snapshot = json.load(handle)
            self.calls.update(snapshot["calls"])
            self.target_calls.update(snapshot["target_calls"])
            for name, seconds in snapshot["self_s"].items():
                self.self_s[name] += seconds
        return len(paths)
